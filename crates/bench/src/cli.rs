//! Shared telemetry CLI flags for the figure binaries.
//!
//! Every figure binary accepts the same optional flags, parsed by
//! [`Figure::start`](crate::Figure::start):
//!
//! ```text
//! --metrics-json <path>     write the metrics snapshot of every cell,
//!                           keyed <panel>.<workload>.<machine>. (JSON)
//! --trace-json <path>       record each cell's newest events and write
//!                           them as a Chrome trace (open in Perfetto)
//! --audit                   replay every DRAM command stream through the
//!                           differential DDR3 auditor and lockstep-check
//!                           the ORAM protocols against a shadow memory
//! --flight-recorder <pfx>   record each cell's newest events and dump a
//!                           cell's black box as <pfx>-pid<N>.blackbox.txt
//!                           (+ .trace.json) on violations, stash
//!                           breaches, or panics
//! --profile-folded <path>   sample the executor every K simulated
//!                           cycles and write a collapsed-stack profile
//!                           (flamegraph.pl / inferno / speedscope)
//! --live                    redraw a one-line run dashboard on stderr
//! --leakage <report.json>   run the timing-leakage observatory matrix
//!                           over this binary's design points and write
//!                           the byte-stable report (DESIGN.md §11)
//! --standard <name>         memory standard every DRAM channel runs
//!                           (ddr3_1600 [default], ddr3_800, ddr4_2400,
//!                           lpddr4_3200, hbm2)
//! ```
//!
//! Parsing is intentionally minimal (no external argument-parser
//! dependency): unknown arguments abort with a usage message so typos
//! never silently run a multi-minute experiment with telemetry dropped.

use dram_sim::spec::DramStandard;
use sdimm_telemetry::recorder::write_atomic;
use sdimm_telemetry::{CycleProfiler, Instruments, LiveProgress, TraceSink};

/// Parsed telemetry flags shared by every figure binary.
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// Destination for the metrics snapshot, if requested.
    pub metrics_json: Option<String>,
    /// Destination for the Chrome trace, if requested.
    pub trace_json: Option<String>,
    /// Run the differential correctness harness alongside the
    /// experiment: DDR3 command-stream replay audit plus the ORAM
    /// shadow-memory oracle. Any violation fails the run.
    pub audit: bool,
    /// Black-box dump prefix: when set, the run records each cell's
    /// events and a cell's newest ones are dumped as a black-box report
    /// on violations, stash breaches, or panics.
    pub flight_recorder: Option<String>,
    /// Destination for the collapsed-stack (folded) cycle-attribution
    /// profile, if requested. A `<path>.meta.json` sidecar records the
    /// sampled-cycle total for downstream validation.
    pub profile_folded: Option<String>,
    /// Redraw a live one-line dashboard on stderr while the matrix
    /// runs. Off by default.
    pub live: bool,
    /// Destination for a timing-leakage report: when set, the binary
    /// additionally runs the leakage observatory matrix over its design
    /// points and writes the byte-stable report JSON here (plus Perfetto
    /// verdict slices when a trace is captured).
    pub leakage: Option<String>,
    /// Memory standard every DRAM channel in the experiment runs
    /// (`--standard`; DDR3-1600 unless overridden).
    pub standard: DramStandard,
}

impl TelemetryArgs {
    /// Parses the shared telemetry flags from the process arguments.
    /// Exits with status 2 (and a usage line naming `bin`) on anything
    /// unrecognized.
    pub fn from_env(bin: &str) -> TelemetryArgs {
        let mut out = TelemetryArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let take = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
                args.next().unwrap_or_else(|| {
                    eprintln!("{bin}: {flag} requires a path argument");
                    // Sanctioned exit: CLI usage error in a binary entry path.
                    #[allow(clippy::disallowed_methods)]
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--metrics-json" => out.metrics_json = Some(take(&mut args, "--metrics-json")),
                "--trace-json" => out.trace_json = Some(take(&mut args, "--trace-json")),
                "--audit" => out.audit = true,
                "--flight-recorder" => {
                    out.flight_recorder = Some(take(&mut args, "--flight-recorder"));
                }
                "--profile-folded" => {
                    out.profile_folded = Some(take(&mut args, "--profile-folded"));
                }
                "--live" => out.live = true,
                "--leakage" => out.leakage = Some(take(&mut args, "--leakage")),
                "--standard" => {
                    let name = take(&mut args, "--standard");
                    out.standard = DramStandard::parse(&name).unwrap_or_else(|| {
                        let known: Vec<&str> = DramStandard::ALL.iter().map(|s| s.name()).collect();
                        eprintln!(
                            "{bin}: unknown memory standard `{name}` (known: {})",
                            known.join(", ")
                        );
                        // Sanctioned exit: CLI usage error in a binary entry path.
                        #[allow(clippy::disallowed_methods)]
                        std::process::exit(2);
                    });
                }
                other => {
                    eprintln!(
                        "{bin}: unknown argument `{other}`\n\
                         usage: {bin} [--metrics-json <path>] [--trace-json <path>] [--audit]\n\
                         {pad}[--flight-recorder <prefix>] [--profile-folded <path>] [--live]\n\
                         {pad}[--leakage <report.json>] [--standard <name>]",
                        pad = " ".repeat("usage: ".len() + bin.len() + 1),
                    );
                    // Sanctioned exit: CLI usage error in a binary entry path.
                    #[allow(clippy::disallowed_methods)]
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The sink the experiment records into: enabled only when
    /// `--trace-json` or `--flight-recorder` was given, so the default run
    /// pays one branch per telemetry touchpoint and nothing else. Either
    /// flag gives each cell a ring of its newest 2^14 events;
    /// `--flight-recorder` also arms each cell's black box, which a stash
    /// breach or the cell's panic writes. Finished cells are kept only
    /// when `--trace-json` will export them.
    pub fn sink(&self) -> TraceSink {
        match (&self.flight_recorder, &self.trace_json) {
            (Some(prefix), Some(_)) => TraceSink::with_blackbox(prefix),
            (Some(prefix), None) => TraceSink::blackbox_only(prefix),
            (None, Some(_)) => TraceSink::enabled(),
            (None, None) => TraceSink::disabled(),
        }
    }

    /// The full observability bundle for these flags: trace sink (with
    /// its black-box prefix), cycle profiler, and live-dashboard state —
    /// each enabled only by its flag.
    pub fn instruments(&self) -> Instruments {
        Instruments {
            sink: self.sink(),
            profiler: if self.profile_folded.is_some() {
                CycleProfiler::enabled()
            } else {
                CycleProfiler::disabled()
            },
            live: if self.live { LiveProgress::enabled() } else { LiveProgress::disabled() },
        }
    }
}

/// Writes `contents` to `path` through a temp file and a rename, so a
/// crash never leaves a truncated file. Every report and output file the
/// bench binaries write goes through here; a failure prints `what` and
/// the path and exits 1, since a run that loses its output must fail.
pub fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = write_atomic(path, contents) {
        eprintln!("failed to write {what} to {path}: {e}");
        // Sanctioned exit: losing a requested output file must fail the run.
        #[allow(clippy::disallowed_methods)]
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdimm_telemetry::{EventKind, SharedCycle};

    #[test]
    fn default_args_have_disabled_sink() {
        let args = TelemetryArgs::default();
        assert!(!args.sink().is_enabled());
    }

    #[test]
    fn trace_flag_enables_sink() {
        let args = TelemetryArgs {
            trace_json: Some("/tmp/t.json".to_string()),
            ..TelemetryArgs::default()
        };
        assert!(args.sink().is_enabled());
        assert!(args.sink().blackbox_prefix().is_none(), "a trace alone arms no black box");
    }

    #[test]
    fn only_a_trace_export_keeps_finished_cells() {
        for (trace_json, kept) in [(None, 0), (Some("/tmp/t.json".to_string()), 1)] {
            let flight_recorder = Some("/tmp/fr".to_string());
            let sink =
                TelemetryArgs { flight_recorder, trace_json, ..TelemetryArgs::default() }.sink();
            sink.cell(0, SharedCycle::new()).record_at(1, EventKind::InFlight { count: 1 });
            assert_eq!(sink.len(), kept);
        }
    }

    #[test]
    fn default_args_build_fully_disabled_instruments() {
        let ins = TelemetryArgs::default().instruments();
        // No flag set means every handle is a one-branch no-op.
        assert!(!ins.sink.is_enabled() && ins.sink.blackbox_prefix().is_none());
        assert!(!ins.profiler.is_enabled() && !ins.live.is_enabled());
    }

    #[test]
    fn each_flag_enables_exactly_its_instrument() {
        let ins = TelemetryArgs {
            flight_recorder: Some("/tmp/fr".to_string()),
            profile_folded: Some("/tmp/p.folded".to_string()),
            live: true,
            ..TelemetryArgs::default()
        }
        .instruments();
        assert!(ins.sink.is_enabled(), "the black box renders each cell's ring");
        assert_eq!(ins.sink.blackbox_prefix(), Some("/tmp/fr"));
        assert!(ins.profiler.is_enabled());
        assert!(ins.live.is_enabled());
    }
}
