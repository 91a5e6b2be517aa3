//! The `--audit` check a figure runs on each panel
//! ([`Figure::panel`](crate::Figure::panel)): the DDR replay findings of
//! the panel's cells, then one ORAM oracle lockstep run per distinct
//! machine of the panel, on the backend its own configuration builds.

use sdimm_audit::oracle::lockstep;
use sdimm_system::machine::{build_oram, MachineKind, SystemConfig};

use crate::harness::DdrAuditLog;

/// Requests per oracle lockstep run: enough to revisit blocks and
/// exercise recursion and eviction, few enough to stay a rounding error
/// next to the experiment itself.
const ORACLE_STEPS: usize = 300;

/// Prints a panel's DDR violations and black-box paths from `ddr`, then
/// runs one oracle lockstep per distinct machine among `kinds` that has
/// a backend (the non-secure baseline has no ORAM to check), on the
/// frontend and backend [`build_oram`] makes from `make_cfg(kind)`.
/// Returns whether the panel is clean; a clean panel also gets its
/// one-line summary.
pub(crate) fn check_panel(
    ddr: &DdrAuditLog,
    kinds: &[MachineKind],
    make_cfg: impl Fn(MachineKind) -> SystemConfig,
) -> bool {
    let mut clean = true;
    for v in &ddr.violations {
        eprintln!("audit: DDR violation: {v}");
        clean = false;
    }
    for p in &ddr.blackbox_dumps {
        eprintln!("audit: black box at {p}");
    }

    let mut checked: Vec<MachineKind> = Vec::new();
    for &kind in kinds {
        if checked.contains(&kind) {
            continue;
        }
        let (mut frontend, Some(mut backend)) = build_oram(&make_cfg(kind)) else { continue };
        checked.push(kind);
        match lockstep(&kind.name(), frontend.as_mut(), backend.as_mut(), ORACLE_STEPS, 42) {
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
            "audit: clean — {} cells, {} DDR commands replayed ({} refreshes), {} machine(s) in lockstep",
            ddr.cells,
            ddr.commands,
            ddr.refreshes,
            checked.len()
        );
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_panel_passes_and_a_ddr_violation_fails_it() {
        // Every machine's own backend, built from the panel's config,
        // runs the oracle; the non-secure machine has none to run.
        let kinds = [
            MachineKind::NonSecure { channels: 1 },
            MachineKind::Freecursive { channels: 1 },
            MachineKind::Freecursive { channels: 1 },
            MachineKind::Independent { sdimms: 2, channels: 1 },
        ];
        assert!(check_panel(&DdrAuditLog::default(), &kinds, SystemConfig::small));
        let violated = DdrAuditLog { violations: vec!["tFAW".to_string()], ..Default::default() };
        assert!(!check_panel(&violated, &kinds, SystemConfig::small));
    }
}
