//! Shared telemetry CLI flags for the figure binaries.
//!
//! Every `run_matrix`-style binary accepts the same optional flags:
//!
//! ```text
//! --metrics-json <path>     write the merged metrics snapshot (JSON)
//! --trace-json <path>       record the event ring and write it as a
//!                           Chrome trace (open in Perfetto)
//! --audit                   replay every DRAM command stream through the
//!                           differential DDR3 auditor and lockstep-check
//!                           the ORAM protocols against a shadow memory
//! --flight-recorder <pfx>   record the event ring and write a cell's
//!                           newest events as <pfx>-pid<N>.blackbox.txt
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
use sdimm_telemetry::recorder::{write_atomic, BLACKBOX_EVENTS};
use sdimm_telemetry::{CycleProfiler, Instruments, LiveProgress, MetricsRegistry, TraceSink};

use crate::harness::{max_workers, Cell};

/// Stacks shown in the profiler's top-k table after a profiled run.
const PROFILE_TOP_K: usize = 10;

/// Parsed telemetry flags shared by every figure binary.
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// Destination for the merged metrics snapshot, if requested.
    pub metrics_json: Option<String>,
    /// Destination for the Chrome trace, if requested.
    pub trace_json: Option<String>,
    /// Run the differential correctness harness alongside the
    /// experiment: DDR3 command-stream replay audit plus the ORAM
    /// shadow-memory oracle. Any violation fails the run.
    pub audit: bool,
    /// Black-box dump prefix: when set, the run records the event ring
    /// and a cell's newest events are dumped as a black-box report on
    /// violations, stash breaches, or panics.
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

    /// The ring the experiment should record into: enabled only when
    /// `--trace-json` or `--flight-recorder` was given, so the default run
    /// pays one branch per telemetry touchpoint and nothing else. A trace
    /// gets the deep default ring. The black box alone needs only each
    /// running cell's newest [`BLACKBOX_EVENTS`], so its ring holds that
    /// many per worker and stays cache-resident, which keeps an armed
    /// black box as cheap as its gate requires.
    pub fn sink(&self) -> TraceSink {
        if self.trace_json.is_some() {
            TraceSink::enabled()
        } else if self.flight_recorder.is_some() {
            TraceSink::with_capacity(BLACKBOX_EVENTS * max_workers())
        } else {
            TraceSink::disabled()
        }
    }

    /// The full observability bundle for these flags: event ring,
    /// black-box prefix, cycle profiler, and live-dashboard state — each
    /// enabled only by its flag. With a black-box prefix, this also
    /// installs a panic hook (chaining the previous one) that dumps every
    /// cell's black box before the panic message, so even a crashed run
    /// leaves its last events behind.
    pub fn instruments(&self) -> Instruments {
        let instruments = Instruments {
            sink: self.sink(),
            blackbox: self.flight_recorder.clone(),
            profiler: if self.profile_folded.is_some() {
                CycleProfiler::enabled()
            } else {
                CycleProfiler::disabled()
            },
            live: if self.live { LiveProgress::enabled() } else { LiveProgress::disabled() },
        };
        if let Some(prefix) = &instruments.blackbox {
            install_flight_panic_hook(&instruments.sink, prefix);
        }
        instruments
    }

    /// Writes whichever outputs were requested: the merged metrics
    /// snapshot of `cells`, the Chrome trace, and/or the folded
    /// cycle-attribution profile (with its top-k table on stdout).
    ///
    /// Every file goes through an atomic temp-file-then-rename write,
    /// so a crash mid-write never leaves a truncated JSON behind; any
    /// I/O failure prints the path and exits nonzero (a bench run that
    /// silently loses its telemetry is worse than one that dies).
    pub fn write_outputs(&self, cells: &[Cell], instruments: &Instruments) {
        if let Some(path) = &self.metrics_json {
            let merged = merge_metrics(cells);
            write_or_die(path, &merged.to_json(), "metrics snapshot");
            println!("\nmetrics snapshot written to {path}");
        }
        if let Some(path) = &self.trace_json {
            let sink = &instruments.sink;
            let Some(json) = sink.export_chrome_json() else {
                eprintln!("--trace-json {path}: the event ring is disabled, nothing to export");
                // Sanctioned exit: a requested output that cannot be produced must fail the run.
                #[allow(clippy::disallowed_methods)]
                std::process::exit(1);
            };
            write_or_die(path, &json, "chrome trace");
            println!(
                "chrome trace written to {path} ({} events, {} dropped) — open in Perfetto",
                sink.len(),
                sink.dropped()
            );
        }
        if let Some(path) = &self.profile_folded {
            self.write_profile(path, instruments);
        }
        if let Some(prefix) = &self.flight_recorder {
            println!(
                "flight recorder armed ({} cells, prefix {prefix}): dumps written only on audit \
                 violation, stash breach, or panic",
                cells.len()
            );
        }
    }

    /// Folded-profile output: the collapsed-stack file, its
    /// `.meta.json` sidecar (sampled-cycle total for validation), and
    /// the top-k attribution table on stdout.
    fn write_profile(&self, path: &str, instruments: &Instruments) {
        let profiler = &instruments.profiler;
        let Some(folded) = profiler.export_folded() else {
            eprintln!("--profile-folded {path}: profiler is disabled, nothing to export");
            // Sanctioned exit: a requested output that cannot be produced must fail the run.
            #[allow(clippy::disallowed_methods)]
            std::process::exit(1);
        };
        write_or_die(path, &folded, "folded profile");
        let sampled = profiler.sampled_cycles();
        let meta = format!(
            "{{\n  \"sampled_cycles\": {sampled},\n  \"sample_interval\": {},\n  \"stacks\": {}\n}}\n",
            profiler.interval(),
            profiler.stack_count()
        );
        let meta_path = format!("{path}.meta.json");
        write_or_die(&meta_path, &meta, "profile metadata");
        println!(
            "\nfolded profile written to {path} ({} stacks, {sampled} sampled cycles; \
             meta in {meta_path})",
            profiler.stack_count()
        );
        println!("cycle attribution (top {PROFILE_TOP_K}):");
        for (stack, weight) in profiler.top_k(PROFILE_TOP_K) {
            let share = if sampled > 0 { weight as f64 / sampled as f64 * 100.0 } else { 0.0 };
            println!("  {weight:>14} cyc  {share:5.1}%  {stack}");
        }
    }
}

/// Atomic write with the shared "print the path and exit nonzero"
/// failure path used by every requested output file.
fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = write_atomic(path, contents) {
        eprintln!("failed to write {what} to {path}: {e}");
        // Sanctioned exit: losing a requested output file must fail the run.
        #[allow(clippy::disallowed_methods)]
        std::process::exit(1);
    }
}

/// Chains a panic hook that dumps the black box of every cell in `sink`
/// to `<prefix>-pid<N>.*` before the default (or previously installed)
/// panic output runs.
fn install_flight_panic_hook(sink: &TraceSink, prefix: &str) {
    let (sink, prefix) = (sink.clone(), prefix.to_string());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        for line in sink.dump_all(&prefix, "panic") {
            eprintln!("flight recorder: {line}");
        }
        prev(info);
    }));
}

/// Merges every cell's metrics snapshot into one registry, namespaced
/// `"<workload>.<machine>."` so a matrix of runs stays one flat JSON
/// document with byte-stable key order.
pub fn merge_metrics(cells: &[Cell]) -> MetricsRegistry {
    let mut merged = MetricsRegistry::new();
    for c in cells {
        merged.absorb(&format!("{}.{}", c.workload, c.machine), &c.result.metrics);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn default_args_build_fully_disabled_instruments() {
        let ins = TelemetryArgs::default().instruments();
        // No flag set means every handle is a one-branch no-op.
        assert!(!ins.sink.is_enabled() && ins.blackbox.is_none());
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
        assert!(ins.sink.is_enabled(), "the black box renders the event ring");
        assert_eq!(ins.blackbox.as_deref(), Some("/tmp/fr"));
        assert!(ins.profiler.is_enabled());
        assert!(ins.live.is_enabled());
    }
}
