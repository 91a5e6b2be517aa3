//! Fig 8: normalized execution time of single-channel SDIMM designs
//! (INDEP-2, SPLIT-2) vs Freecursive, with and without the 7-level
//! on-chip ORAM cache (paper: ~32-35.7% reduction).

use sdimm_bench::{table, Figure};
use sdimm_system::machine::{MachineKind, SystemConfig};
use workloads::spec;

fn main() {
    let mut fig = Figure::start("fig8");
    let (scale, standard) = (fig.scale(), fig.standard());
    let kinds = [
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ];
    for cached in [7u32, 0] {
        let cells = fig.panel(&format!("cache{cached}"), &spec::ALL, &kinds, |kind| SystemConfig {
            oram: scale.oram(cached),
            ..scale.config(kind, standard)
        });
        table::print_normalized(
            &format!("Fig 8: single-channel SDIMM designs, {cached}-level ORAM cache"),
            cells,
            "FREECURSIVE-1ch",
            |c| c.result.cycles_per_record(),
        );
        table::print_latency_percentiles(&format!("Fig 8, {cached}-level ORAM cache"), cells);
    }
    fig.finish();
}
