//! The `--audit` check a figure runs on each panel
//! ([`Figure::panel`](crate::Figure::panel)): the DDR replay findings of
//! the panel's cells, then one ORAM oracle lockstep run per distinct
//! protocol among its machines.

use std::collections::HashSet;

use sdimm_audit::oracle::{check_protocol, ProtocolKind};
use sdimm_system::machine::MachineKind;

use crate::harness::DdrAuditLog;

/// Tree depth of the oracle's lockstep runs: deep enough to exercise
/// recursion and eviction, small enough to stay a per-run rounding
/// error next to the experiment itself.
const ORACLE_LEVELS: u32 = 10;

/// Blocks and requests per oracle lockstep run.
const ORACLE_BLOCKS: u64 = 512;
const ORACLE_STEPS: usize = 300;

/// Prints a panel's DDR violations and black-box paths from `ddr`, then
/// runs one oracle lockstep per distinct protocol among `kinds` (the
/// non-secure baseline has no ORAM to check). Returns whether the panel
/// is clean; a clean panel also gets its one-line summary.
pub(crate) fn check_panel(ddr: &DdrAuditLog, kinds: &[MachineKind]) -> bool {
    let mut clean = true;
    for v in &ddr.violations {
        eprintln!("audit: DDR violation: {v}");
        clean = false;
    }
    for p in &ddr.blackbox_dumps {
        eprintln!("audit: black box at {p}");
    }

    let mut seen: HashSet<String> = HashSet::new();
    let oracle_cfg = oram::types::OramConfig {
        levels: ORACLE_LEVELS,
        stash_limit: 100,
        ..oram::types::OramConfig::default()
    };
    for kind in kinds {
        let Some(proto) = oracle_kind(kind) else { continue };
        if !seen.insert(proto.to_string()) {
            continue;
        }
        match check_protocol(&proto, &oracle_cfg, ORACLE_BLOCKS, ORACLE_STEPS, 42) {
            Ok(rep) => eprintln!(
                "audit: oracle {}: {} requests in lockstep, stash peak {}",
                rep.protocol, rep.steps, rep.stash_peak
            ),
            Err(m) => {
                eprintln!("audit: ORACLE MISMATCH: {m}");
                clean = false;
            }
        }
    }

    if clean {
        eprintln!(
            "audit: clean — {} cells, {} DDR commands replayed ({} refreshes), {} protocol(s) in lockstep",
            ddr.cells,
            ddr.commands,
            ddr.refreshes,
            seen.len()
        );
    }
    clean
}

/// The oracle configuration matching a machine kind, if it has an ORAM.
fn oracle_kind(kind: &MachineKind) -> Option<ProtocolKind> {
    match *kind {
        MachineKind::NonSecure { .. } => None,
        MachineKind::PathOram { .. } => Some(ProtocolKind::PathOram { sealed: false }),
        MachineKind::Freecursive { .. } => Some(ProtocolKind::Freecursive { tiny_plb: false }),
        MachineKind::Independent { sdimms, .. } => Some(ProtocolKind::Independent { sdimms }),
        MachineKind::Split { ways, .. } => Some(ProtocolKind::Split { ways }),
        MachineKind::IndepSplit { groups, ways, .. } => {
            Some(ProtocolKind::IndepSplit { groups, ways })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_kind_covers_every_machine() {
        assert!(oracle_kind(&MachineKind::NonSecure { channels: 1 }).is_none());
        assert_eq!(
            oracle_kind(&MachineKind::Independent { sdimms: 4, channels: 2 }),
            Some(ProtocolKind::Independent { sdimms: 4 })
        );
        assert_eq!(
            oracle_kind(&MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }),
            Some(ProtocolKind::IndepSplit { groups: 2, ways: 2 })
        );
    }
}
