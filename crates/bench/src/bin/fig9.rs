//! Fig 9: normalized execution time of double-channel SDIMM designs
//! (INDEP-4, SPLIT-4, INDEP-SPLIT) vs Freecursive (paper: 20.3%, 20.4%,
//! and 47.4% improvement respectively).

use sdimm_bench::{table, Figure};
use sdimm_system::machine::{MachineKind, SystemConfig};
use workloads::spec;

fn main() {
    let mut fig = Figure::start("fig9");
    let (scale, standard) = (fig.scale(), fig.standard());
    let kinds = [
        MachineKind::Freecursive { channels: 2 },
        MachineKind::Independent { sdimms: 4, channels: 2 },
        MachineKind::Split { ways: 4, channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ];
    for cached in [7u32, 0] {
        let cells = fig.panel(&format!("cache{cached}"), &spec::ALL, &kinds, |kind| SystemConfig {
            oram: scale.oram(cached),
            ..scale.config(kind, standard)
        });
        table::print_normalized(
            &format!("Fig 9: double-channel SDIMM designs, {cached}-level ORAM cache"),
            cells,
            "FREECURSIVE-2ch",
            |c| c.result.cycles_per_record(),
        );
        table::print_latency_percentiles(&format!("Fig 9, {cached}-level ORAM cache"), cells);
    }
    fig.finish();
}
