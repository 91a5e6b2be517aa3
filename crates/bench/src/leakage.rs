//! The timing-leakage observatory driver: runs the protocol ×
//! workload-pair matrix through the full simulator, feeds both
//! attacker-vantage captures to `sdimm-leakage`, and renders the gated
//! report (see DESIGN.md §11).
//!
//! Used two ways:
//!
//! * the `leakage_gate` binary runs [`gate_kinds`] and fails the build
//!   when any secure protocol is distinguishable *or* the NonSecure
//!   baseline is not (the battery's power check);
//! * every figure binary accepts `--leakage <report.json>`, and its
//!   [`Figure::finish`](crate::Figure::finish) calls `write_report`
//!   with the machines its panels named, so any figure's design points
//!   can be re-audited for timing leakage.

use dram_sim::spec::DramStandard;
use sdimm_leakage::{analyze_pair, AnalysisConfig, Capture, EntryReport, LeakageReport};
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner;
use sdimm_telemetry::{Instruments, TraceSink};
use workloads::leakage::{pairs, required_blocks, LeakagePair};
use workloads::Trace;

use crate::cli::write_or_die;
use crate::harness::par_map;
use crate::Scale;

/// Synthetic Perfetto pid for the report's annotation slices (far above
/// any cell pid a figure matrix allocates).
const ANNOTATION_PID: u32 = 9_000;

/// The gate's protocol matrix: every paper design point at its smallest
/// arity, plus the NonSecure baseline whose *detection* proves the
/// statistics have power.
pub fn gate_kinds() -> Vec<MachineKind> {
    vec![
        MachineKind::NonSecure { channels: 1 },
        MachineKind::PathOram { channels: 1 },
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ]
}

/// Whether a design point claims obliviousness. Exhaustive on purpose:
/// a new machine kind must declare its expectation here before the gate
/// will build.
pub fn is_secure(kind: &MachineKind) -> bool {
    match kind {
        MachineKind::NonSecure { .. } => false,
        MachineKind::PathOram { .. }
        | MachineKind::Freecursive { .. }
        | MachineKind::Independent { .. }
        | MachineKind::Split { .. }
        | MachineKind::IndepSplit { .. } => true,
    }
}

fn capture(cfg: &SystemConfig, trace: &Trace, warmup: usize, measure: usize) -> Capture {
    let both = runner::Capture { cmds: true, observables: true, wear_top_k: None };
    let (_, cap) = runner::run_with(cfg, trace, warmup, measure, &Instruments::disabled(), 0, both);
    Capture {
        ranks: cap.channel_cfg.topology.ranks,
        banks: cap.channel_cfg.topology.banks,
        streams: cap.streams,
        observables: cap.observables,
    }
}

/// Runs the machine × pair matrix at `scale` on `standard` on the
/// shared worker pool and assembles the report (entries in matrix
/// order: machines outer, pairs inner). Each entry's progress line is
/// printed up front, in that order, so stderr is byte-stable.
///
/// # Panics
///
/// Panics if `scale` provides fewer data blocks than the paired
/// generators address (cannot happen for the built-in scales).
pub fn run_report(kinds: &[MachineKind], scale: Scale, standard: DramStandard) -> LeakageReport {
    let warmup = scale.warmup();
    let measure = scale.measure();
    assert!(
        scale.data_blocks() >= required_blocks(warmup, measure),
        "scale too small for the leakage pairs"
    );
    let acfg = AnalysisConfig::default();
    let pair_set = pairs(warmup, measure);
    let jobs: Vec<(MachineKind, &LeakagePair)> =
        kinds.iter().flat_map(|&kind| pair_set.iter().map(move |pair| (kind, pair))).collect();
    for (kind, pair) in &jobs {
        eprintln!("leakage: {} × {} ...", kind.name(), pair.name);
    }
    let entries = par_map(&jobs, |_, &(kind, pair)| {
        let cfg = scale.config(kind, standard);
        let a = capture(&cfg, &pair.a, warmup, measure);
        let b = capture(&cfg, &pair.b, warmup, measure);
        EntryReport {
            machine: kind.name(),
            secure: is_secure(&kind),
            pair: pair.name.to_string(),
            contrast: pair.contrast.to_string(),
            analysis: analyze_pair(&acfg, &a, &b),
            expected_distinguishable: !is_secure(&kind),
        }
    });
    LeakageReport { scale: scale.name().to_string(), alpha_family: acfg.alpha_family, entries }
}

/// Prints the verdict matrix as a human table.
pub fn print_table(report: &LeakageReport) {
    println!(
        "\nTiming-leakage observatory ({} scale, family α = {:.0e})",
        report.scale, report.alpha_family
    );
    println!("{:<16} {:<20} {:<16} {:<10} status", "machine", "pair", "verdict", "expected");
    for e in &report.entries {
        let verdict = if e.analysis.distinguishable { "DISTINGUISHABLE" } else { "indist" };
        let expected = if e.expected_distinguishable { "leaky" } else { "indist" };
        let status = if e.pass() { "ok" } else { "FAIL" };
        println!("{:<16} {:<20} {:<16} {:<10} {}", e.machine, e.pair, verdict, expected, status);
        for t in e.analysis.tests.iter().filter(|t| t.significant) {
            println!(
                "{:<16}   leak signal: {} (stat {:.4}, p {:.3e}, effect {:.3})",
                "", t.name, t.statistic, t.p, t.effect
            );
        }
    }
    println!(
        "gate: {} ({} secure leak(s), {} power failure(s))",
        if report.gate_pass() { "PASS" } else { "FAIL" },
        report.secure_failures(),
        report.power_failures()
    );
}

/// A figure's `--leakage <path>`: runs the leakage matrix over the
/// figure's design points on `standard`, writes the byte-stable report
/// to `path`, and adds the verdict slices to `sink` (a no-op when no
/// trace is being captured).
pub(crate) fn write_report(
    path: &str,
    kinds: &[MachineKind],
    scale: Scale,
    standard: DramStandard,
    sink: &TraceSink,
) {
    let report = run_report(kinds, scale, standard);
    print_table(&report);
    report.annotate(sink, ANNOTATION_PID);
    write_or_die(path, &report.to_value().render(), "leakage report");
    println!("leakage report written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_kinds_cover_all_protocols_once() {
        let kinds = gate_kinds();
        assert_eq!(kinds.len(), 6);
        assert_eq!(kinds.iter().filter(|k| !is_secure(k)).count(), 1);
    }

    #[test]
    fn scales_fit_the_pair_generators() {
        for scale in [Scale::Quick, Scale::Full] {
            assert!(scale.data_blocks() >= required_blocks(scale.warmup(), scale.measure()));
        }
    }
}
