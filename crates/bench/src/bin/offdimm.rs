//! Experiment X1 (IV-B): off-DIMM accesses as a fraction of baseline
//! ORAM traffic (paper: INDEP-2 4.2%, INDEP-4 7.8%, SPLIT 12%, and
//! <3.2% without ORAM caching), cross-checked two ways: the analytic
//! message-count model and the cycle-level simulation's bus counters.

use sdimm_analytic::bandwidth::{self, TrafficParams};
use sdimm_bench::Figure;
use sdimm_system::machine::MachineKind;

fn main() {
    let mut fig = Figure::start("offdimm");
    let (scale, standard) = (fig.scale(), fig.standard());

    println!("== X1 (analytic): off-DIMM traffic as fraction of baseline ==");
    for (label, levels_in_memory) in [("with 7-level ORAM cache", 21u64), ("no ORAM cache", 28)] {
        for sdimms in [2u64, 4] {
            let p = TrafficParams { z: 4, levels_in_memory, sdimms, probes_per_access: 2 };
            println!(
                "INDEP-{sdimms} ({label}): {:.1}%  |  SPLIT ({label}): {:.1}%",
                100.0 * bandwidth::independent_fraction(&p),
                100.0 * bandwidth::split_fraction(&p),
            );
        }
    }

    println!("\n== X1 (measured): external bus line-equivalents / baseline DRAM lines ==");
    let wl = ["milc-like", "gromacs-like", "GemsFDTD-like"];
    let kinds = [
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ];
    let cells = fig.panel("x1", &wl, &kinds, |kind| scale.config(kind, standard));
    for w in wl {
        let base = cells
            .iter()
            .find(|c| c.workload == w && c.machine.starts_with("FREECURSIVE"))
            .map(|c| c.result.dram_lines as f64)
            .unwrap_or(1.0);
        for c in cells.iter().filter(|c| c.workload == w && !c.machine.starts_with("FREECURSIVE")) {
            let ext = c.result.external_bus_bytes as f64 / 64.0;
            println!(
                "{w:<16} {:<10}: {:.1}% of baseline off-chip lines",
                c.machine,
                100.0 * ext / base
            );
        }
    }
    fig.finish();
}
