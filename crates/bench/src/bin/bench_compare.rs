//! `bench_compare` — the perf-regression gates for the crypto fast path
//! and the event-driven simulation core.
//!
//! Two suites, each with its own report and committed baseline:
//!
//! * **crypto** — wall-clock microbenchmarks (AES block/batch, CTR
//!   keystream, CMAC, bucket seal→open) → `BENCH_crypto.json`, gated
//!   against `crates/bench/baselines/crypto.json`.
//! * **sim** — quick-scale fig6 cells, one per machine kind, each timed
//!   as the fastest of at least five runs and half a second, measuring
//!   simulator throughput two ways: trace records retired per wall
//!   second (the gated ops/sec) and simulated memory cycles per wall
//!   second (reported alongside) → `BENCH_sim.json`, gated against
//!   `crates/bench/baselines/sim.json`.
//!
//! Reports carry ops/sec, wall time, and p50/p99 per-op latency per
//! benchmark; each suite diffs ops/sec against its baseline and exits
//! nonzero when any benchmark regressed by more than 15%, or with status
//! 2 when the suite's rows and its baseline's rows are not the same set.
//! The p50/p99 columns ride along for tail-latency tracking; the hard
//! gate stays on throughput because ns-scale tail measurements are too
//! noisy on shared CI hosts to fail a build on.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sdimm-bench --bin bench_compare
//! cargo run --release -p sdimm-bench --bin bench_compare -- --update-baseline
//! ```
//!
//! `--update-baseline` rewrites both baseline files after an intentional
//! performance change, or after a row is added to or dropped from a suite.

// Wall-clock bench binary: `Instant` is the measurement, and the regression gate exits nonzero.
#![allow(clippy::disallowed_methods)]

use dram_sim::spec::DramStandard;
use sdimm_bench::cli::write_or_die;
use sdimm_bench::provenance::Provenance;
use sdimm_bench::Scale;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sdimm_crypto::aes::{spec, Aes128};
use sdimm_crypto::ctr::CtrCipher;
use sdimm_crypto::mac::Cmac;
use sdimm_crypto::pmmac::BucketAuth;
use sdimm_system::machine::MachineKind;
use sdimm_system::runner::run;
use sdimm_telemetry::json::{self, Value};
use sdimm_telemetry::LatencyHistogram;
use workloads::spec as wl;

/// Regression threshold: fail when current ops/sec drops below
/// `baseline * (1 - 0.15)`.
const MAX_REGRESSION: f64 = 0.15;

/// Wall-clock budget of each crypto microbenchmark.
const BUDGET: Duration = Duration::from_millis(200);

/// Least wall time spent on each simulator cell's repeated runs.
const SIM_CELL_BUDGET: Duration = Duration::from_millis(500);

/// Fewest runs of each simulator cell.
const SIM_CELL_RUNS: usize = 5;

/// Measurement attempts before an apparent regression is trusted. Extra
/// attempts run only when the first pass already looks regressed.
const RETRY_ATTEMPTS: usize = 3;

/// Committed crypto baseline, resolved relative to the crate so
/// `cargo run` works from any directory.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/crypto.json");

/// Committed simulator-throughput baseline.
const SIM_BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/sim.json");

/// Crypto report written into the invoking directory.
const REPORT_PATH: &str = "BENCH_crypto.json";

/// Simulator-throughput report written into the invoking directory.
const SIM_REPORT_PATH: &str = "BENCH_sim.json";

#[derive(Debug, Clone)]
struct Measurement {
    name: &'static str,
    ops_per_sec: f64,
    wall_time_s: f64,
    /// Median per-op latency in ns (from per-batch wall-time deltas).
    p50_ns: u64,
    /// 99th-percentile per-op latency in ns.
    p99_ns: u64,
    /// Simulated memory cycles advanced per wall second (sim suite
    /// only; 0 for pure wall-clock microbenchmarks). Reported, not
    /// gated: it moves with both engine speed and machine behaviour.
    sim_cycles_per_sec: f64,
}

/// Runs `iter` repeatedly for roughly [`BUDGET`], returning ops/sec and the
/// wall time actually spent. The budget is split into eight slices and the
/// fastest slice wins: preemption on a busy host only ever slows a slice
/// down, so best-of-slices is a much more stable estimator than one long
/// average — which matters when a 15% regression gate rides on the number.
/// Batch size doubles until a slice fills so the `Instant` overhead never
/// dominates sub-microsecond operations.
fn measure(name: &'static str, mut iter: impl FnMut()) -> Measurement {
    for _ in 0..3 {
        iter(); // warmup: touch tables, fault in pages
    }
    let slice_budget = BUDGET / 8;
    let total = Instant::now();
    let mut best = 0.0f64;
    let mut batch = 1u64;
    let mut latency = LatencyHistogram::new();
    for _ in 0..8 {
        let start = Instant::now();
        let mut iters = 0u64;
        let mut prev = Duration::ZERO;
        loop {
            for _ in 0..batch {
                iter();
            }
            iters += batch;
            let elapsed = start.elapsed();
            // Per-op latency for this batch: the tail distribution the
            // p50/p99 report columns summarize.
            let delta = elapsed.saturating_sub(prev);
            latency.record((delta.as_nanos() as u64 / batch).max(1));
            prev = elapsed;
            if elapsed >= slice_budget {
                best = best.max(iters as f64 / elapsed.as_secs_f64());
                break;
            }
            batch = (batch * 2).min(1 << 16);
        }
    }
    Measurement {
        name,
        ops_per_sec: best,
        wall_time_s: total.elapsed().as_secs_f64(),
        p50_ns: latency.percentile(0.50),
        p99_ns: latency.percentile(0.99),
        sim_cycles_per_sec: 0.0,
    }
}

/// Repeated measurement for the simulator cells: runs `f` at least
/// [`SIM_CELL_RUNS`] times and for at least `budget`, and keeps the
/// fastest run, for the reason [`measure`] keeps its fastest slice.
/// ops/sec = trace records retired per wall second of that run; p50/p99
/// are the per-record times over all runs.
fn measure_runs(
    name: &'static str,
    records: u64,
    budget: Duration,
    mut f: impl FnMut(),
) -> Measurement {
    let total = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut latency = LatencyHistogram::new();
    let mut runs = 0;
    while runs < SIM_CELL_RUNS || total.elapsed() < budget {
        let start = Instant::now();
        f();
        let wall = start.elapsed().as_secs_f64();
        fastest = fastest.min(wall);
        latency.record(((wall * 1e9 / records.max(1) as f64) as u64).max(1));
        runs += 1;
    }
    Measurement {
        name,
        ops_per_sec: records as f64 / fastest.max(1e-12),
        wall_time_s: total.elapsed().as_secs_f64(),
        p50_ns: latency.percentile(0.50),
        p99_ns: latency.percentile(0.99),
        sim_cycles_per_sec: 0.0,
    }
}

fn crypto_benchmarks() -> Vec<Measurement> {
    let key = [0x42u8; 16];
    let fast = Aes128::new(&key);
    let slow = spec::Aes128::new(&key);
    let ctr = CtrCipher::new(Aes128::new(&key), 0xB34C_0000_0000_0001);
    let mac = Cmac::new(&key);
    let auth = BucketAuth::new(&key, &[0x24u8; 16]);

    let block = [7u8; 16];
    let mut batch = [[0u8; 16]; 32];
    let msg = vec![5u8; 1024];
    // Z=4 bucket of 64-byte blocks: 8-byte counter + 4 × (16 B header + 64 B).
    let bucket_image = vec![9u8; 8 + 4 * (16 + 64)];
    let mut line = vec![3u8; 4096];

    vec![
        measure("aes128_encrypt_block", || {
            black_box(fast.encrypt_block(black_box(block)));
        }),
        measure("aes128_encrypt_block_spec", || {
            black_box(slow.encrypt_block(black_box(block)));
        }),
        measure("aes128_encrypt_blocks_x32", || {
            fast.encrypt_blocks(black_box(&mut batch));
        }),
        measure("ctr_keystream_line", || {
            black_box(ctr.keystream_line(black_box(77)));
        }),
        measure("ctr_apply_4096B", || {
            ctr.apply(black_box(77), black_box(&mut line));
        }),
        measure("cmac_tag_1024B", || {
            black_box(mac.tag(black_box(&msg)));
        }),
        measure("bucket_seal_open_z4", || {
            let sealed = auth.seal(black_box(5), black_box(9), black_box(&bucket_image));
            black_box(auth.open(5, &sealed).expect("fresh seal opens"));
        }),
    ]
}

/// The simulator-throughput suite: one quick-scale fig6 cell per machine
/// kind, on the same workload/seed the audit goldens use, each timed as
/// the fastest of repeated runs. The gated ops/sec is trace records
/// retired per wall second; simulated cycles per wall second rides along
/// in the report. This is the wall-clock regression gate for the
/// event-driven tick/scan hot paths — a change that slows the scheduler
/// shows up here long before a full figure regeneration would notice.
fn sim_benchmarks() -> Vec<Measurement> {
    let scale = Scale::Quick;
    let trace = wl::generate("milc-like", scale.trace_len(), 42);
    let warmup = scale.warmup();
    let window = scale.measure();
    let mut out = Vec::new();
    for (name, kind) in [
        ("sim_quick_nonsecure_1ch", MachineKind::NonSecure { channels: 1 }),
        ("sim_quick_freecursive_1ch", MachineKind::Freecursive { channels: 1 }),
        ("sim_quick_indep2_1ch", MachineKind::Independent { sdimms: 2, channels: 1 }),
        ("sim_quick_split2_1ch", MachineKind::Split { ways: 2, channels: 1 }),
    ] {
        let cfg = scale.config(kind, DramStandard::default());
        let mut sim_cycles = 0u64;
        let mut m = measure_runs(name, window as u64, SIM_CELL_BUDGET, || {
            sim_cycles = black_box(run(&cfg, &trace, warmup, window)).cycles;
        });
        m.sim_cycles_per_sec = sim_cycles as f64 * m.ops_per_sec / window as f64;
        out.push(m);
    }
    out
}

/// The report, in the format the committed baselines share: provenance,
/// then one row per benchmark.
fn report(results: &[Measurement], prov: &Provenance) -> Value {
    let rows = results.iter().map(|m| {
        Value::object([
            ("name", m.name.into()),
            ("ops_per_sec", m.ops_per_sec.into()),
            ("wall_time_s", m.wall_time_s.into()),
            ("p50_ns", m.p50_ns.into()),
            ("p99_ns", m.p99_ns.into()),
            ("sim_cycles_per_sec", m.sim_cycles_per_sec.into()),
        ])
    });
    Value::object([("provenance", prov.to_value()), ("benchmarks", rows.collect())])
}

/// Reads the `(name, ops_per_sec)` rows of a baseline's `benchmarks`
/// array. Every row needs a string `name` no other row has and a
/// positive numeric `ops_per_sec`; the error names the first row that
/// does not, since a misread baseline would gate the wrong numbers.
fn baseline_rows(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text)?;
    let rows = doc
        .get("benchmarks")
        .and_then(Value::as_array)
        .filter(|rows| !rows.is_empty())
        .ok_or("no non-empty `benchmarks` array")?;
    let mut out: Vec<(String, f64)> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Some(name) = row.get("name").and_then(Value::as_str) else {
            return Err(format!("benchmarks[{i}] has no string `name`"));
        };
        let Some(ops) = row.get("ops_per_sec").and_then(Value::as_f64).filter(|x| *x > 0.0) else {
            return Err(format!("benchmarks[{i}] (`{name}`) has no positive `ops_per_sec`"));
        };
        if out.iter().any(|(n, _)| n == name) {
            return Err(format!("benchmarks[{i}] repeats the name `{name}`"));
        }
        out.push((name.to_string(), ops));
    }
    Ok(out)
}

fn human_rate(ops: f64) -> String {
    if ops >= 1e6 {
        format!("{:8.2} Mops/s", ops / 1e6)
    } else if ops >= 1e3 {
        format!("{:8.2} Kops/s", ops / 1e3)
    } else {
        format!("{ops:8.2}  ops/s")
    }
}

/// Measures, reports, and gates one suite. Writes `report_path`, diffs
/// against `baseline_path` (or rewrites it with `--update-baseline`),
/// and returns the number of persistent regressions. Exits the process
/// when the baseline is missing, unparseable, or lists other rows than
/// the suite measured — a misconfigured gate must not pass silently.
fn run_suite(
    label: &str,
    report_path: &str,
    baseline_path: &str,
    update_baseline: bool,
    measure_suite: &dyn Fn() -> Vec<Measurement>,
    results: Vec<Measurement>,
    prov: &Provenance,
) -> usize {
    for m in &results {
        let cycles = if m.sim_cycles_per_sec > 0.0 {
            format!("   {:8.2} Mcyc/s", m.sim_cycles_per_sec / 1e6)
        } else {
            String::new()
        };
        println!(
            "  {:28} {}   p50 {:>9} ns  p99 {:>9} ns   ({:.3} s){cycles}",
            m.name,
            human_rate(m.ops_per_sec),
            m.p50_ns,
            m.p99_ns,
            m.wall_time_s
        );
    }

    let report = report(&results, prov).render();
    write_or_die(report_path, &report, &format!("{label} report"));
    println!("  report written to {report_path}");

    if update_baseline {
        write_or_die(baseline_path, &report, &format!("{label} baseline"));
        println!("  baseline updated at {baseline_path}");
        return 0;
    }

    let Ok(baseline_text) = std::fs::read_to_string(baseline_path) else {
        println!(
            "\n  no committed baseline at {baseline_path}; run with --update-baseline to create one"
        );
        std::process::exit(2);
    };
    let baseline = baseline_rows(&baseline_text).unwrap_or_else(|e| {
        eprintln!(
            "bench_compare: cannot read the baseline at {baseline_path}: {e}; \
             regenerate it with --update-baseline"
        );
        std::process::exit(2);
    });
    let measured: Vec<&str> = results.iter().map(|m| m.name).collect();
    if let Err(mismatch) = check_row_set(&measured, &baseline) {
        eprintln!(
            "bench_compare: the {label} suite and its baseline at {baseline_path} disagree \
             on the rows ({mismatch}); update the baseline with --update-baseline"
        );
        std::process::exit(2);
    }

    // A shared 1-vCPU host can steal the whole measurement window, making
    // every benchmark look ~20% slower at once. A real code regression
    // survives re-measurement; noise does not — so on apparent regression,
    // re-measure and keep each benchmark's best observation before failing.
    let mut merged = results;
    for attempt in 1..=RETRY_ATTEMPTS {
        if count_regressions(&merged, &baseline) == 0 || attempt == RETRY_ATTEMPTS {
            break;
        }
        println!(
            "\n  apparent {label} regression — re-measuring to rule out host noise \
             (attempt {}/{RETRY_ATTEMPTS})",
            attempt + 1
        );
        let retry = measure_suite();
        for m in &mut merged {
            if let Some(r) = retry.iter().find(|r| r.name == m.name) {
                if r.ops_per_sec > m.ops_per_sec {
                    *m = r.clone();
                }
            }
        }
    }

    println!("\n  {label} diff vs baseline ({baseline_path}):");
    let mut regressions = 0usize;
    for m in &merged {
        let delta = change(m, &baseline);
        let flag = if delta < -MAX_REGRESSION {
            regressions += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        println!("    {:28} {:+7.1}%{flag}", m.name, delta * 100.0);
    }
    regressions
}

fn main() {
    let mut update_baseline = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!(
                    "bench_compare: unknown argument `{other}` (supported: --update-baseline)"
                );
                std::process::exit(2);
            }
        }
    }
    println!("bench_compare: {} ms per crypto benchmark\n", BUDGET.as_millis());
    let crypto_results = crypto_benchmarks();

    let fast = crypto_results.iter().find(|m| m.name == "aes128_encrypt_block").expect("present");
    let slow =
        crypto_results.iter().find(|m| m.name == "aes128_encrypt_block_spec").expect("present");
    let speedup = fast.ops_per_sec / slow.ops_per_sec;

    let mut regressions = run_suite(
        "crypto",
        REPORT_PATH,
        BASELINE_PATH,
        update_baseline,
        &crypto_benchmarks,
        crypto_results,
        &Provenance::new(Scale::Quick, ""),
    );
    println!("\n  T-table vs spec AES speedup: {speedup:.2}x (reported, not gated)");

    println!("\nsimulator throughput (quick fig6, one cell per machine kind)\n");
    regressions += run_suite(
        "sim",
        SIM_REPORT_PATH,
        SIM_BASELINE_PATH,
        update_baseline,
        &sim_benchmarks,
        sim_benchmarks(),
        &Provenance::new(Scale::Quick, "nonsecure,freecursive,indep2,split2"),
    );

    if regressions > 0 {
        eprintln!(
            "\nbench_compare: {regressions} benchmark(s) regressed more than {:.0}% \
             (persisted across {RETRY_ATTEMPTS} measurement attempts)",
            MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    }
    println!("\n  no regression beyond {:.0}% — OK", MAX_REGRESSION * 100.0);
}

fn count_regressions(results: &[Measurement], baseline: &[(String, f64)]) -> usize {
    results.iter().filter(|m| change(m, baseline) < -MAX_REGRESSION).count()
}

/// Relative ops/sec change of `m` against its baseline row, which
/// [`check_row_set`] has made sure exists.
fn change(m: &Measurement, baseline: &[(String, f64)]) -> f64 {
    let (_, base) =
        baseline.iter().find(|(n, _)| n == m.name).expect("every measured row has a baseline");
    m.ops_per_sec / base - 1.0
}

/// Checks that a suite measured exactly the rows its baseline lists. A
/// measured row missing from the baseline would pass ungated, and a
/// baseline row nothing measures would gate nothing, so either mismatch
/// is an error that names the rows.
fn check_row_set(measured: &[&str], baseline: &[(String, f64)]) -> Result<(), String> {
    let unbaselined: Vec<&str> =
        measured.iter().copied().filter(|n| !baseline.iter().any(|(b, _)| b == n)).collect();
    let unmeasured: Vec<&str> =
        baseline.iter().map(|(b, _)| b.as_str()).filter(|b| !measured.contains(b)).collect();
    if unbaselined.is_empty() && unmeasured.is_empty() {
        return Ok(());
    }
    Err(format!(
        "measured without a baseline: [{}]; in the baseline but not measured: [{}]",
        unbaselined.join(", "),
        unmeasured.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_set_must_match_the_baseline() {
        let baseline = |names: &[&str]| -> Vec<(String, f64)> {
            names.iter().map(|n| (n.to_string(), 1.0)).collect()
        };
        assert_eq!(check_row_set(&["a", "b"], &baseline(&["b", "a"])), Ok(()));
        let err = check_row_set(&["a", "b"], &baseline(&["a", "b", "gone"])).unwrap_err();
        assert!(err.contains("not measured: [gone]"), "{err}");
        let err = check_row_set(&["a", "b"], &baseline(&["a"])).unwrap_err();
        assert!(err.contains("without a baseline: [b]"), "{err}");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        let rows = |rows: &str| format!(r#"{{"benchmarks": [{rows}]}}"#);
        for (text, expected) in [
            // Row `a` lacks its number; it must not take row `b`'s.
            (
                rows(r#"{"name": "a", "x": 1}, {"name": "b", "ops_per_sec": 5.0}"#),
                "[0] (`a`) has no",
            ),
            (r#"[{"name": "a", "ops_per_sec": 5.0}]"#.to_string(), "no non-empty `benchmarks`"),
            (rows(r#"{"ops_per_sec": 1}"#), "benchmarks[0] has no string `name`"),
            (
                rows(r#"{"name": "a", "ops_per_sec": 1}, {"name": "a", "ops_per_sec": 2}"#),
                "repeats",
            ),
            // Cut off mid-number.
            (rows(r#"{"name": "a", "ops_per_sec": 2."#).replace("]}", ""), "bad fraction"),
        ] {
            let err = baseline_rows(&text).expect_err(&text);
            assert!(err.contains(expected), "{text}: {err}");
        }
    }

    #[test]
    fn committed_baselines_and_written_reports_parse() {
        for path in [BASELINE_PATH, SIM_BASELINE_PATH] {
            let text = std::fs::read_to_string(path).expect("committed baseline");
            let rows = baseline_rows(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(rows.len() >= 4, "{path}: {rows:?}");
        }
        // What `--update-baseline` writes, the next run reads back.
        let m = measure_runs("aes128_encrypt_block", 1, Duration::ZERO, || ());
        let text = report(std::slice::from_ref(&m), &Provenance::new(Scale::Quick, "")).render();
        let read = baseline_rows(&text).expect("a written report reads back");
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].0, m.name);
        assert!((read[0].1 / m.ops_per_sec - 1.0).abs() < 1e-6, "{read:?} vs {m:?}");
    }
}
