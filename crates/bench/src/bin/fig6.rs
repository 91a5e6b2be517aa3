//! Fig 6: slowdown of Freecursive ORAM vs a non-secure baseline, for
//! single- and double-channel memory (paper: ≈8.8x and ≈5.2x with
//! 7 levels of ORAM caching).

use sdimm_bench::{harness, table, Figure};
use sdimm_system::machine::MachineKind;
use workloads::spec;

fn main() {
    let mut fig = Figure::start("fig6");
    let (scale, standard) = (fig.scale(), fig.standard());
    for channels in [1usize, 2] {
        let kinds = [MachineKind::NonSecure { channels }, MachineKind::Freecursive { channels }];
        let cells = fig.panel(&format!("{channels}ch"), &spec::ALL, &kinds, |kind| {
            scale.config(kind, standard)
        });
        table::print_normalized(
            &format!("Fig 6: Freecursive slowdown vs non-secure, {channels}-channel (7-level ORAM cache)"),
            cells,
            &MachineKind::NonSecure { channels }.name(),
            |c| c.result.cycles_per_record(),
        );
        table::print_latency_percentiles(&format!("Fig 6, {channels}-channel"), cells);
        let apr: Vec<f64> = cells
            .iter()
            .filter(|c| c.machine.starts_with("FREECURSIVE"))
            .map(|c| c.result.accesses_per_request)
            .collect();
        println!("accessORAMs per LLC request (paper ~1.4): {:.2}", harness::geomean(&apr));
    }
    fig.finish();
}
