//! Fig 11: sensitivity of the best SDIMM designs to the number of ORAM
//! layers (Lx sweep; paper: improvements grow with layer count, 33-35%
//! single channel and 47-49% double channel).

use oram::types::OramConfig;
use sdimm_bench::{table, Figure, Scale};
use sdimm_system::machine::{MachineKind, SystemConfig};

fn main() {
    let mut fig = Figure::start("fig11");
    let (scale, standard) = (fig.scale(), fig.standard());
    // A subset of workloads keeps the sweep fast while preserving the mix.
    let wl = ["mcf-like", "libquantum-like", "gromacs-like", "GemsFDTD-like"];
    let levels_sweep: &[u32] = match scale {
        Scale::Quick => &[14, 16, 18, 20],
        Scale::Full => &[16, 20, 24, 28],
    };
    let single =
        [MachineKind::Freecursive { channels: 1 }, MachineKind::Split { ways: 2, channels: 1 }];
    let double = [
        MachineKind::Freecursive { channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ];

    for levels in levels_sweep {
        let oram = OramConfig { levels: *levels, cached_levels: 7, ..OramConfig::default() };
        // Smaller trees hold fewer blocks: keep utilization safe across
        // the sweep (distributed subtrees have half the capacity plus
        // imbalance headroom).
        let data_blocks = (1u64 << (levels - 4)).min(scale.data_blocks());
        for (ch, kinds, title, base) in [
            ("1ch", &single, "SPLIT-2", "FREECURSIVE-1ch"),
            ("2ch", &double, "INDEP-SPLIT", "FREECURSIVE-2ch"),
        ] {
            let cells = fig.panel(&format!("L{levels}-{ch}"), &wl, kinds, |kind| SystemConfig {
                oram: oram.clone(),
                data_blocks,
                ..scale.config(kind, standard)
            });
            table::print_normalized(
                &format!("Fig 11 ({ch}): {title} vs Freecursive, L{levels}"),
                cells,
                base,
                |c| c.result.cycles_per_record(),
            );
        }
    }
    fig.finish();
}
