//! Experiment X2 (IV-B): the low-power mode costs <=4% performance
//! while letting idle ranks power down.

use sdimm_bench::{table, Figure};
use sdimm_system::machine::{MachineKind, SystemConfig};
use workloads::spec;

fn main() {
    let mut fig = Figure::start("lowpower");
    let (scale, standard) = (fig.scale(), fig.standard());
    let kind = MachineKind::Independent { sdimms: 2, channels: 1 };

    for (key, low_power) in [("lp-off", false), ("lp-on", true)] {
        let cells = fig.panel(key, &spec::ALL[..5], &[kind], |kind| SystemConfig {
            low_power,
            ..scale.config(kind, standard)
        });
        table::print_raw(
            &format!("X2: INDEP-2, low_power={low_power}"),
            cells,
            "bus cycles / record",
            |c| c.result.cycles_per_record(),
        );
        table::print_raw(
            &format!("X2: INDEP-2 energy, low_power={low_power}"),
            cells,
            "nJ / record",
            |c| c.result.energy_per_record_nj(),
        );
    }
    fig.finish();
}
