//! Fig 10: memory energy overhead normalized to a non-secure baseline,
//! single channel (SPLIT-2) and double channel (INDEP-SPLIT), with the
//! low-power mode enabled for the SDIMM designs (paper: SPLIT-2 and
//! INDEP-SPLIT improve energy ~2.4x / ~2.5x over Freecursive).

use sdimm_bench::{table, Figure};
use sdimm_system::machine::{MachineKind, SystemConfig};
use workloads::spec;

fn main() {
    let mut fig = Figure::start("fig10");
    let (scale, standard) = (fig.scale(), fig.standard());
    let single = [
        MachineKind::NonSecure { channels: 1 },
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ];
    let double = [
        MachineKind::NonSecure { channels: 2 },
        MachineKind::Freecursive { channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ];

    for (key, label, kinds, base) in [
        ("1ch", "single channel", &single[..], "NONSECURE-1ch"),
        ("2ch", "double channel", &double[..], "NONSECURE-2ch"),
    ] {
        let cells = fig.panel(key, &spec::ALL, kinds, |kind| SystemConfig {
            low_power: !matches!(
                kind,
                MachineKind::NonSecure { .. } | MachineKind::Freecursive { .. }
            ),
            ..scale.config(kind, standard)
        });
        table::print_normalized(
            &format!("Fig 10: memory energy overhead vs non-secure, {label}"),
            cells,
            base,
            |c| c.result.energy_per_record_nj(),
        );
    }
    fig.finish();
}
