//! The five workloads and how one run of each is measured.
//!
//! A run repeats one fixed unit of work until the time budget is spent:
//! set the inputs up (generate the trace, or generate the operation
//! stream and boot a fresh `WireSystem`), then run them (one
//! `runner::run` over a fixed window, or one pass of the stream).
//! Repetitions are identical work, so every one must reproduce the first
//! exactly. setup_s is the median set-up; spreading the set-ups over the
//! whole run samples the host as the repetitions do. Host speed is the
//! fastest repetition: interference from the rest of a shared host only
//! ever slows a repetition down, and on a noisy host the fastest of ~20
//! one-second repetitions varies between runs far less than their median.
//!
//! With tracing on, each untraced repetition is followed by a traced one
//! (the benchmark's own spanned copy of the runner, or the wire pass with
//! a span per access); the traced result must equal the untraced one.

use oram::types::OramConfig;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{self, RunResult};
use sdimm_telemetry::MetricsRegistry;
use workloads::{spec, Trace};

use crate::clock;
use crate::driver::{self, Counts, Fingerprint};
use crate::stats::{fnv1a, median, min, nearest_rank, FNV_OFFSET};
use crate::tracer::{Layer, Tracer};
use crate::wire::{self, CryptoCosts, WireModel};

/// The seed whose trace-workload fingerprints are pinned.
pub const PINNED_SEED: u64 = 42;

/// Repetitions every run makes, however short its budget.
const MIN_REPS: usize = 3;

pub const WIRE_KV: &str = "wire-kv";

/// Every workload, in run order.
pub const NAMES: [&str; 5] =
    ["indep4-gromacs", "split4-gems", "freecursive-mcf", "nonsecure-lbm", WIRE_KV];

/// The fixed simulated system of every trace workload.
#[derive(Debug)]
pub struct Model {
    pub oram: OramConfig,
    pub data_blocks: u64,
    /// LLC-only records replayed before the measured window.
    pub warmup: usize,
}

impl Model {
    /// 23 levels with 7 cached, Z=4, 64 B blocks, 2^18 data blocks,
    /// DDR3-1600, program seed 1, and 50k warm-up records that fill the
    /// 2 MB LLC (the PLB and stash start cold). 23, not the 24 of the
    /// full figure scale: SPLIT-2/SPLIT-4 panic with "address beyond
    /// channel capacity" at 24 levels.
    pub fn benchmark() -> Self {
        Model {
            oram: OramConfig { levels: 23, cached_levels: 7, ..OramConfig::default() },
            data_blocks: 1 << 18,
            warmup: 50_000,
        }
    }

    pub fn config(&self, kind: MachineKind) -> SystemConfig {
        SystemConfig {
            kind,
            oram: self.oram.clone(),
            data_blocks: self.data_blocks,
            standard: dram_sim::spec::DramStandard::Ddr3_1600,
            low_power: false,
            seed: 1,
        }
    }
}

/// A workload replaying a synthetic trace through one machine.
#[derive(Debug, Clone, Copy)]
pub struct TraceCase {
    pub name: &'static str,
    pub kind: MachineKind,
    pub profile: &'static str,
    /// Measured records per repetition.
    pub records: usize,
    /// The repetition's fingerprint at [`PINNED_SEED`].
    pub pinned: Fingerprint,
}

pub const TRACE_CASES: [TraceCase; 4] = [
    TraceCase {
        name: "indep4-gromacs",
        kind: MachineKind::Independent { sdimms: 4, channels: 2 },
        profile: "gromacs-like",
        records: 7_000,
        pinned: Fingerprint {
            cycles: 2_473_840,
            llc_misses: 2_094,
            dram_lines: 1_137_300,
            miss_p50: 3_328,
            miss_p99: 7_936,
            energy_nj: 46904661.881974995,
            metrics_fnv: 7_926_764_870_085_657_431,
        },
    },
    TraceCase {
        name: "split4-gems",
        kind: MachineKind::Split { ways: 4, channels: 2 },
        profile: "GemsFDTD-like",
        records: 6_000,
        pinned: Fingerprint {
            cycles: 3_231_312,
            llc_misses: 2_452,
            dram_lines: 1_552_780,
            miss_p50: 1_408,
            miss_p99: 4_096,
            energy_nj: 69920949.61762498,
            metrics_fnv: 1_895_758_913_191_507_484,
        },
    },
    TraceCase {
        name: "freecursive-mcf",
        kind: MachineKind::Freecursive { channels: 1 },
        profile: "mcf-like",
        records: 3_500,
        pinned: Fingerprint {
            cycles: 4_915_488,
            llc_misses: 1_655,
            dram_lines: 1_098_030,
            miss_p50: 3_840,
            miss_p99: 11_264,
            energy_nj: 47759016.913775,
            metrics_fnv: 2_042_697_509_180_132_951,
        },
    },
    TraceCase {
        name: "nonsecure-lbm",
        kind: MachineKind::NonSecure { channels: 2 },
        profile: "lbm-like",
        records: 1_000_000,
        pinned: Fingerprint {
            cycles: 45_488_672,
            llc_misses: 517_878,
            dram_lines: 760_522,
            miss_p50: 16,
            miss_p99: 192,
            energy_nj: 626280395.792325,
            metrics_fnv: 7_785_488_565_454_356_718,
        },
    },
];

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Informational lines (fingerprints, mismatches).
    pub notes: Vec<String>,
    /// Sampled spans as a Chrome trace (traced runs only).
    pub spans: Option<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Counts `n` attempted operations, `bad` of them failed.
    fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad.min(n);
    }

    fn push_peak_rss(&mut self) {
        match peak_rss_mb() {
            Some(mb) => self.push("peak_rss_mb", mb, "MB"),
            None => self.notes.push("peak RSS unavailable (no VmHWM in /proc/self/status)".into()),
        }
    }
}

/// Runs workload `name` for about `seconds`, or `None` for an unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    if name == WIRE_KV {
        return Some(run_wire(&WireModel::benchmark(), seed, seconds, traced));
    }
    let case = TRACE_CASES.iter().find(|c| c.name == name)?;
    Some(run_trace(case, &Model::benchmark(), seed, seconds, traced))
}

/// Repeats `rep` (which returns the seconds it took) at least
/// [`MIN_REPS`] times, and then for as long as the next repetition should
/// still finish within `seconds` of the first one's start.
fn repeat(seconds: f64, mut rep: impl FnMut() -> f64) {
    let start = clock::now();
    let mut n = 0;
    loop {
        let last = rep();
        n += 1;
        if n >= MIN_REPS && clock::secs_since(start) + last > seconds {
            return;
        }
    }
}

fn trace_digest(t: &Trace) -> u64 {
    t.records.iter().fold(FNV_OFFSET, |h, r| {
        let h = fnv1a(h, &r.addr.to_le_bytes());
        let h = fnv1a(h, &r.gap.to_le_bytes());
        fnv1a(h, &[u8::from(r.is_write), u8::from(r.depends_on_prev)])
    })
}

fn run_trace(case: &TraceCase, model: &Model, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cfg = model.config(case.kind);
    let (warmup, records) = (model.warmup, case.records);
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let mut inputs: Option<u64> = None;
    let mut first: Option<(RunResult, Fingerprint)> = None;
    let mut counts: Option<Counts> = None;
    let (mut setup_s, mut plain_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    repeat(seconds, || {
        let start = clock::now();
        let trace =
            tracer.span(Layer::Generate, || spec::generate(case.profile, warmup + records, seed));
        let setup = clock::secs_since(start);
        setup_s.push(setup);
        let digest = trace_digest(&trace);
        if *inputs.get_or_insert(digest) != digest {
            out.notes.push(format!("{}: trace generation is not deterministic", case.name));
            out.tally(1, 1);
        }

        let start = clock::now();
        let result = runner::run(&cfg, &trace, warmup, records);
        let took = clock::secs_since(start);
        plain_s.push(took);
        let fp = Fingerprint::of(&result);
        let want = first.get_or_insert((result, fp)).1;
        out.tally(records as u64, if fp == want { 0 } else { records as u64 });
        if !traced {
            return setup + took;
        }
        let start = clock::now();
        let (traced_result, c) = driver::run_traced(&cfg, &trace, warmup, records, &mut tracer);
        let traced_took = clock::secs_since(start);
        traced_s.push(traced_took);
        let exact = Fingerprint::of(&traced_result) == want && *counts.get_or_insert(c) == c;
        out.tally(records as u64, if exact { 0 } else { records as u64 });
        if !exact {
            out.notes.push(format!("{}: traced run diverged from runner::run", case.name));
        }
        setup + took + traced_took
    });
    let (result, fp) = first.expect("at least one repetition");
    out.notes.push(format!("{} fingerprint {fp:?}", case.name));
    if seed == PINNED_SEED && fp != case.pinned {
        out.notes.push(format!(
            "{}: PINNED FINGERPRINT MISMATCH at seed {seed}: expected {:?}",
            case.name, case.pinned
        ));
        out.failed = out.attempted;
    }

    if traced {
        let reps = traced_s.len() as u64;
        let probes =
            Probes { overhead_ratio: min(&traced_s) / min(&plain_s), ..Default::default() };
        let run = (result, counts.unwrap_or_default());
        per_layer(&mut out, &tracer, reps, Some(&run), &probes);
        out.spans = Some(tracer.chrome_json(case.name));
        return out;
    }
    out.push("ops_per_s", records as f64 / min(&plain_s), "1/s");
    out.push("setup_s", median(&setup_s), "s");
    out.push_peak_rss();
    out.push("sim_cycles_per_record", result.cycles_per_record(), "cycles");
    out.push("sim_miss_latency_p50_cycles", result.miss_latency_p50 as f64, "cycles");
    out.push("sim_miss_latency_p99_cycles", result.miss_latency_p99 as f64, "cycles");
    out.push("sim_llc_misses", result.llc_misses as f64, "count");
    out.push("sim_energy_nj_per_record", result.energy_per_record_nj(), "nJ");
    out
}

fn run_wire(model: &WireModel, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let n = model.ops as u64;

    let mut probes = Probes::default();
    if traced {
        let ops = wire::generate(model, seed);
        let (plain, plain_failed) = wire::path_replay(model, &ops, false);
        let (sealed, sealed_failed) = wire::path_replay(model, &ops, true);
        probes.path_plain_ns = plain;
        probes.path_sealed_ns = sealed;
        out.tally(2 * n, plain_failed + sealed_failed);
        let c = wire::crypto_kernels(model.kernel_iters);
        out.tally(1, c.failed);
        probes.crypto = c;
    }

    let (mut inputs, mut returned): (Option<u64>, Option<u64>) = (None, None);
    let (mut setup_s, mut access_ns, mut plain_s, mut traced_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut check = |out: &mut Outcome, pass: &wire::WireRep| {
        let repeated = *returned.get_or_insert(pass.digest) == pass.digest;
        out.tally(n, if repeated { pass.failed } else { n });
    };
    repeat(seconds, || {
        let start = clock::now();
        let ops = tracer.span(Layer::Generate, || wire::generate(model, seed));
        let mut sys = tracer.span(Layer::WireBoot, || model.boot());
        let setup = clock::secs_since(start);
        setup_s.push(setup);
        let digest = ops.iter().fold(FNV_OFFSET, |h, op| {
            fnv1a(fnv1a(h, &op.id.to_le_bytes()), op.write.as_ref().map_or(&[][..], |d| &d[..]))
        });
        if *inputs.get_or_insert(digest) != digest {
            out.notes.push("wire-kv: operation stream generation is not deterministic".into());
            out.tally(1, 1);
        }

        let pass = wire::rep(&mut sys, &ops, None);
        drop(sys); // one booted system alive at a time
        check(&mut out, &pass);
        plain_s.push(pass.wall_s);
        access_ns.extend(pass.access_ns);
        if !traced {
            return setup + pass.wall_s;
        }
        let mut sys = tracer.span(Layer::WireBoot, || model.boot());
        let traced_pass = wire::rep(&mut sys, &ops, Some(&mut tracer));
        check(&mut out, &traced_pass);
        traced_s.push(traced_pass.wall_s);
        setup + pass.wall_s + traced_pass.wall_s
    });
    if out.failed > 0 {
        out.notes.push(format!(
            "wire-kv: {} of {} checked operations failed",
            out.failed, out.attempted
        ));
    }

    if traced {
        probes.overhead_ratio = min(&traced_s) / min(&plain_s);
        per_layer(&mut out, &tracer, traced_s.len() as u64, None, &probes);
        out.spans = Some(tracer.chrome_json(WIRE_KV));
        return out;
    }
    access_ns.sort_unstable();
    out.push("ops_per_s", n as f64 / min(&plain_s), "1/s");
    out.push("setup_s", median(&setup_s), "s");
    out.push_peak_rss();
    out.push("kv_access_p50_us", nearest_rank(&access_ns, 0.50) as f64 / 1e3, "us");
    out.push("kv_access_p99_us", nearest_rank(&access_ns, 0.99) as f64 / 1e3, "us");
    out.push("kv_accesses", access_ns.len() as f64, "count");
    out
}

/// Layer numbers measured outside the repetitions.
#[derive(Debug, Default)]
struct Probes {
    /// Fastest traced over fastest untraced repetition time.
    overhead_ratio: f64,
    path_plain_ns: f64,
    path_sealed_ns: f64,
    crypto: CryptoCosts,
}

/// Sum of every `dram.chan<i>.<field>` counter.
fn dram_sum(m: &MetricsRegistry, field: &str) -> u64 {
    let suffix = format!(".{field}");
    m.iter()
        .filter(|(k, _)| k.starts_with("dram.chan") && k.ends_with(&suffix))
        .map(|(k, _)| m.counter(k))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Emits every per-layer metric; layers a workload does not exercise
/// report zero. Counts are per repetition, times are means per call.
fn per_layer(
    out: &mut Outcome,
    t: &Tracer,
    reps: u64,
    run: Option<&(RunResult, Counts)>,
    probes: &Probes,
) {
    let reps = reps.max(1) as f64;
    let per_rep = |layer: Layer| t.totals(layer).calls as f64 / reps;
    let self_s = |layer: Layer| t.totals(layer).self_ns_per_call() / 1e9;
    let empty = MetricsRegistry::new();
    let (m, counts) = run.map_or((&empty, Counts::default()), |(r, c)| (&r.metrics, *c));

    let tick = t.totals(Layer::Tick);
    let cas = (dram_sum(m, "reads_completed") + dram_sum(m, "writes_completed")) as f64;
    let row_total =
        (dram_sum(m, "row_hits") + dram_sum(m, "row_misses") + dram_sum(m, "row_conflicts")) as f64;
    let sched = dram_sum(m, "scheduler_invocations") as f64;
    out.push("system.executor.tick.calls", per_rep(Layer::Tick), "count");
    out.push("system.executor.tick.self_ns_per_call", tick.self_ns_per_call(), "ns");
    out.push(
        "system.executor.tick.sim_cycles_per_call",
        ratio(counts.tick_cycles as f64, per_rep(Layer::Tick)),
        "cycles",
    );
    out.push("dram.cas", cas, "count");
    out.push("dram.activations", dram_sum(m, "activations") as f64, "count");
    out.push("dram.row_hit_rate", ratio(dram_sum(m, "row_hits") as f64, row_total), "ratio");
    out.push("dram.scheduler_invocations", sched, "count");
    out.push("dram.scheduler_invocations_per_cas", ratio(sched, cas), "ratio");
    out.push("dram.stalled_cycles", dram_sum(m, "stalled_cycles") as f64, "cycles");
    out.push("dram.host_ns_per_cas", ratio(tick.self_ns() as f64 / reps, cas), "ns");

    let rt = t.totals(Layer::RequestTraces);
    let rt_calls = per_rep(Layer::RequestTraces);
    let dram_lines = run.map_or(0.0, |(r, _)| r.dram_lines as f64);
    let background: u64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("oram.") && k.ends_with("background_evictions"))
        .map(|(k, _)| m.counter(k))
        .sum();
    out.push("system.machine.request_traces.calls", rt_calls, "count");
    out.push("system.machine.request_traces.self_ns_per_call", rt.self_ns_per_call(), "ns");
    out.push(
        "system.machine.request_traces.parts_per_call",
        ratio(counts.request_parts as f64, rt_calls),
        "ratio",
    );
    out.push(
        "system.machine.request_traces.dram_lines_per_call",
        ratio(dram_lines, rt_calls),
        "lines",
    );
    out.push("frontend.accesses_per_request", m.gauge("frontend.accesses_per_request"), "ratio");
    out.push("plb.hit_rate", m.gauge("plb.hit_rate"), "ratio");
    out.push("oram.stash_peak", m.gauge("oram.stash_peak"), "count");
    out.push("oram.background_evictions", background as f64, "count");

    let llc_calls = per_rep(Layer::LlcAccess);
    out.push("system.llc.access.calls", llc_calls, "count");
    out.push(
        "system.llc.access.self_ns_per_call",
        t.totals(Layer::LlcAccess).self_ns_per_call(),
        "ns",
    );
    out.push("system.llc.access.hit_rate", ratio(counts.llc_hits as f64, llc_calls), "ratio");
    for layer in [Layer::Submit, Layer::Poll, Layer::Horizon] {
        out.push(&format!("{}.calls", layer.name()), per_rep(layer), "count");
        out.push(
            &format!("{}.self_ns_per_call", layer.name()),
            t.totals(layer).self_ns_per_call(),
            "ns",
        );
    }
    out.push("system.runner.self_s", t.totals(Layer::Runner).self_ns() as f64 / reps / 1e9, "s");
    out.push("exec.max_inflight", m.gauge("exec.max_inflight"), "count");
    out.push("exec.backend_conflicts", m.counter("exec.backend_conflicts") as f64, "count");
    out.push("bus.utilization", m.gauge("bus.utilization"), "ratio");

    let wire = t.totals(Layer::WireAccess);
    out.push("core.wire_boot.self_s", self_s(Layer::WireBoot), "s");
    out.push("core.wire_access.calls", per_rep(Layer::WireAccess), "count");
    out.push("core.wire_access.self_us_per_call", wire.self_ns_per_call() / 1e3, "us");
    out.push("oram.path_access_plain.ns_per_call", probes.path_plain_ns, "ns");
    out.push("oram.path_access_sealed.ns_per_call", probes.path_sealed_ns, "ns");
    out.push("crypto.aes128_block_ns", probes.crypto.aes128_block_ns, "ns");
    out.push("crypto.ctr_keystream_line_ns", probes.crypto.ctr_keystream_line_ns, "ns");
    out.push("crypto.bucket_seal_open_ns", probes.crypto.bucket_seal_open_ns, "ns");
    out.push("crypto.session_seal_open_64b_ns", probes.crypto.session_seal_open_64b_ns, "ns");
    out.push("workloads.generate.self_s", self_s(Layer::Generate), "s");
    out.push("system.machine.new.self_s", self_s(Layer::MachineNew), "s");
    out.push("trace.overhead_ratio", probes.overhead_ratio, "ratio");
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?;
    kb.trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

/// Replays every trace workload's repetition once through the DDR replay
/// auditor (`runner::run_audited` + `sdimm_audit::ddr::DdrAuditor`).
/// Returns whether every channel of every workload was clean.
pub fn verify(seed: u64) -> bool {
    let model = Model::benchmark();
    let mut clean = true;
    for case in &TRACE_CASES {
        let trace = spec::generate(case.profile, model.warmup + case.records, seed);
        let (_, capture) = runner::run_audited(
            &model.config(case.kind),
            &trace,
            model.warmup,
            case.records,
            sdimm_telemetry::TraceSink::disabled(),
            0,
        );
        let mut commands = 0;
        let mut violations = 0;
        for (ch, stream) in capture.streams.iter().enumerate() {
            match sdimm_audit::ddr::DdrAuditor::check_stream(&capture.channel_cfg, stream) {
                Ok(summary) => commands += summary.commands,
                Err(v) => {
                    violations += 1;
                    println!("# verify {} channel {ch}: DDR VIOLATION {v}", case.name);
                }
            }
        }
        println!(
            "# verify {}: {commands} DDR commands on {} channels replayed, {violations} violations",
            case.name,
            capture.streams.len()
        );
        clean &= violations == 0 && commands > 0;
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny model: same code paths, test-sized tree and windows.
    fn tiny_model() -> Model {
        Model {
            oram: OramConfig { levels: 10, cached_levels: 3, ..OramConfig::default() },
            data_blocks: 1 << 9,
            warmup: 60,
        }
    }

    fn tiny_wire() -> WireModel {
        WireModel {
            sdimms: 2,
            tree: OramConfig { levels: 9, ..OramConfig::tiny() },
            blocks: 128,
            ops: 150,
            kernel_iters: 8,
        }
    }

    fn names(out: &Outcome) -> Vec<&str> {
        out.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// Every workload, shrunk, runs clean both ways and reports every
    /// metric `BENCHMARK.json` declares for its mode.
    #[test]
    fn tiny_workloads_run_clean_and_report_every_declared_metric() {
        let bench = crate::benchmark::repository_benchmark();
        let mut outcomes = Vec::new();
        for case in &TRACE_CASES {
            let tiny = TraceCase { records: 60, ..*case };
            for traced in [false, true] {
                outcomes.push((case.name, traced, run_trace(&tiny, &tiny_model(), 7, 0.0, traced)));
            }
        }
        for traced in [false, true] {
            outcomes.push((WIRE_KV, traced, run_wire(&tiny_wire(), 7, 0.0, traced)));
        }
        for (name, traced, out) in &outcomes {
            assert_eq!(out.failed, 0, "{name} traced={traced}: {:?}", out.notes);
            assert!(out.attempted >= MIN_REPS as u64, "{name}");
            let declared = if *traced { &bench.per_layer } else { &bench.end_to_end };
            for d in declared {
                assert!(
                    names(out).contains(&d.name.as_str()),
                    "{name} traced={traced} lacks {}",
                    d.name
                );
            }
            assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            assert_eq!(out.spans.is_some(), *traced);
        }
        for (name, traced, out) in &outcomes {
            let value = |n: &str| out.metrics.iter().find(|m| m.name == n).map(|m| m.value);
            if !*traced {
                assert!(value("ops_per_s").is_some_and(|v| v > 0.0), "{name}");
            } else if *name == WIRE_KV {
                assert!(value("crypto.aes128_block_ns").is_some_and(|v| v > 0.0));
                assert_eq!(value("system.executor.tick.calls"), Some(0.0));
            } else {
                assert!(value("system.executor.tick.calls").is_some_and(|v| v > 0.0), "{name}");
                assert!(value("dram.cas").is_some_and(|v| v > 0.0), "{name}");
                assert_eq!(value("core.wire_access.calls"), Some(0.0));
            }
        }
    }

    #[test]
    fn pinned_mismatch_fails_every_operation() {
        // The tiny model cannot match the pinned full-size fingerprint.
        let tiny = TraceCase { records: 60, ..TRACE_CASES[3] };
        let out = run_trace(&tiny, &tiny_model(), PINNED_SEED, 0.0, false);
        assert_eq!(out.failed, out.attempted);
        assert!(out.notes.iter().any(|n| n.contains("PINNED FINGERPRINT MISMATCH")));
    }

    #[test]
    fn repeat_honours_the_minimum_and_the_budget() {
        let mut n = 0;
        repeat(0.0, || {
            n += 1;
            0.0
        });
        assert_eq!(n, MIN_REPS);
        let mut m = 0;
        repeat(1e9, || {
            m += 1;
            if m < 6 {
                0.0
            } else {
                2e9
            }
        });
        assert_eq!(m, 6, "stops once the next repetition would overrun");
    }
}
