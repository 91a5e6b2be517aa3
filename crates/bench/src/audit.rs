//! `--audit` routing for the figure binaries.
//!
//! When the flag is absent this is a pass-through to
//! [`harness::run_matrix`]. When present, every cell's DRAM
//! command streams are replayed through the differential DDR3 auditor
//! as it finishes, and each ORAM protocol kind appearing in the matrix
//! is additionally lockstep-checked against a shadow memory. Any
//! violation fails the process (exit 1), after a black box per violating
//! channel and whichever of `--trace-json`, `--metrics-json` and
//! `--profile-folded` were requested have been written.

use std::collections::HashSet;

use sdimm_audit::oracle::{check_protocol, ProtocolKind};
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_telemetry::Instruments;

use crate::cli::TelemetryArgs;
use crate::harness::{self, Cell};
use crate::scale::Scale;

/// Tree depth of the oracle's lockstep runs: deep enough to exercise
/// recursion and eviction, small enough to stay a per-run rounding
/// error next to the experiment itself.
const ORACLE_LEVELS: u32 = 10;

/// Blocks and requests per oracle lockstep run.
const ORACLE_BLOCKS: u64 = 512;
const ORACLE_STEPS: usize = 300;

/// Runs the matrix, honoring `--audit`: pass-through when the flag is
/// off; full differential audit (DDR replay + ORAM oracle) when on.
///
/// On a violation, prints every finding, writes the requested outputs
/// for this matrix's cells (so the Chrome trace of the failing run is
/// there to inspect) and exits with status 1 so an audited figure run
/// can gate CI.
pub fn run_matrix_maybe_audited(
    args: &TelemetryArgs,
    workload_names: &[&str],
    kinds: &[MachineKind],
    scale: Scale,
    make_cfg: impl Fn(MachineKind) -> SystemConfig + Sync,
    instruments: &Instruments,
    pid_base: u32,
) -> Vec<Cell> {
    let (cells, ddr) = harness::run_matrix(
        workload_names,
        kinds,
        scale,
        make_cfg,
        instruments,
        pid_base,
        args.audit,
    );
    if !args.audit {
        return cells;
    }

    let mut failed = false;
    for v in &ddr.violations {
        eprintln!("audit: DDR violation: {v}");
        failed = true;
    }
    for p in &ddr.blackbox_dumps {
        eprintln!("audit: black box at {p}");
    }

    // One oracle lockstep run per distinct protocol in the matrix. The
    // non-secure baseline has no ORAM to check.
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
                failed = true;
            }
        }
    }

    if failed {
        args.write_outputs(&cells, instruments);
        eprintln!("audit: FAILED — see violations above");
        // Sanctioned exit: the audit gate failing must fail the run.
        #[allow(clippy::disallowed_methods)]
        std::process::exit(1);
    }
    eprintln!(
        "audit: clean — {} cells, {} DDR commands replayed ({} refreshes), {} protocol(s) in lockstep",
        ddr.cells,
        ddr.commands,
        ddr.refreshes,
        seen.len()
    );
    cells
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
