//! `ledger` — the repository benchmark: host speed end to end and layer
//! by layer over five workloads, with the simulated results pinned.
//!
//! Run from the repository root (it reads `BENCHMARK.json` there):
//!
//! ```text
//! cargo run --release -p sdimm-bench --bin ledger -- --seed 42
//! cargo run --release -p sdimm-bench --bin ledger -- --seed 42 --trace
//! cargo run --release -p sdimm-bench --bin ledger -- --compare A.json B.json
//! cargo run --release -p sdimm-bench --bin ledger -- --verify
//! cargo run --release -p sdimm-bench --bin ledger -- --workload wire-kv --seed 7 --seconds 15 --trace 0
//! ```
//!
//! Without `--workload`, every workload runs `--runs` times (default 3),
//! round-robin, each run in a fresh child process of this binary with
//! one thread, so `peak_rss_mb` is per workload. Every metric is printed
//! as `workload metric value unit` and the runs are collected into
//! `target/ledger/ledger.json`, the input of `--compare`. With
//! `--workload`, one run of that workload prints its metric lines and
//! ends with one JSON result line holding the metrics `BENCHMARK.json`
//! declares for the mode: end-to-end untraced, per-layer with `--trace`.
//! A traced run also writes its sampled spans to
//! `target/ledger/<workload>.trace.json` for Perfetto.
//!
//! Exit status: 0 clean, 1 on any correctness failure (a repetition that
//! does not reproduce, a traced run that diverges from `runner::run`, a
//! pinned fingerprint mismatch at seed 42, a wire read that misses its
//! write, a DDR violation under `--verify`, or a worse/changed metric
//! under `--compare`), 2 on bad arguments or unreadable inputs.

#![deny(unsafe_code)]

mod benchmark;
mod clock;
mod compare;
mod driver;
mod json;
mod stats;
mod suite;
mod tracer;
mod wire;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use sdimm_telemetry::json::escape;

use crate::benchmark::{Benchmark, Declared};
use crate::json::Json;
use crate::stats::median;
use crate::suite::Outcome;

const USAGE: &str = "usage: ledger [--seed N] [--runs N] [--seconds S] [--trace [0|1]]
       ledger --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
       ledger --compare A.json B.json
       ledger --verify [--seed N]";

/// Where reports and span exports go, relative to the repository root.
const OUT_DIR: &str = "target/ledger";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    trace: bool,
    verify: bool,
    compare: Option<(String, String)>,
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: None,
        seed: suite::PINNED_SEED,
        seconds: None,
        runs: 3,
        trace: false,
        verify: false,
        compare: None,
    };
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, "--workload")?),
            "--seed" => {
                a.seed = value(&mut it, "--seed")?.parse().map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut it, "--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                a.seconds = Some(s);
            }
            "--runs" => {
                a.runs = value(&mut it, "--runs")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--runs takes an integer in 1..=100")?
            }
            "--trace" => {
                a.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            "--verify" => a.verify = true,
            "--compare" => {
                a.compare = Some((value(&mut it, "--compare")?, value(&mut it, "--compare")?))
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(a))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::compare(a, b)
    } else if args.verify {
        Ok(suite::verify(args.seed))
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn json_number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(x.to_string())
    } else {
        Err(format!("non-finite metric value {x}"))
    }
}

/// The final result line: the declared metrics only, in declared order.
fn result_line(out: &Outcome, declared: &[Declared]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for d in declared {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == d.name)
            .ok_or_else(|| format!("declared metric {} was not measured", d.name))?;
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            json_number(m.value)?,
            escape(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// One run of one workload in this process.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let bench = Benchmark::load()?;
    let seconds = args.seconds.unwrap_or(bench.run_seconds);
    let out = suite::run(name, args.seed, seconds, args.trace)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", suite::NAMES.join(", ")))?;
    for m in &out.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    if let Some(spans) = &out.spans {
        let path = Path::new(OUT_DIR).join(format!("{name}.trace.json"));
        write_file(&path, spans)?;
        println!("# spans: {}", path.display());
    }
    let declared = if args.trace { &bench.per_layer } else { &bench.end_to_end };
    println!("{}", result_line(&out, declared)?);
    Ok(out.failed == 0 && out.attempted > 0)
}

/// Every run of one metric of one workload.
#[derive(Debug)]
struct Series {
    metric: String,
    unit: String,
    values: Vec<f64>,
}

/// All runs of a full invocation, per workload.
#[derive(Debug, Default)]
struct Ledger {
    workloads: Vec<(String, Vec<Series>)>,
}

impl Ledger {
    fn record(&mut self, workload: &str, metric: &str, unit: &str, v: f64) {
        let idx = match self.workloads.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                self.workloads.push((workload.to_string(), Vec::new()));
                self.workloads.len() - 1
            }
        };
        let series = &mut self.workloads[idx].1;
        match series.iter_mut().find(|s| s.metric == metric) {
            Some(s) => s.values.push(v),
            None => series.push(Series {
                metric: metric.to_string(),
                unit: unit.to_string(),
                values: vec![v],
            }),
        }
    }

    fn to_json(&self, args: &Args, seconds: f64) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(w, series)| {
                let metrics: Vec<String> = series
                    .iter()
                    .map(|s| {
                        let values: Vec<String> = s.values.iter().map(f64::to_string).collect();
                        format!(
                            "      \"{}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                            escape(&s.metric),
                            escape(&s.unit),
                            values.join(", ")
                        )
                    })
                    .collect();
                format!(
                    "    \"{}\": {{\"metrics\": {{\n{}\n    }}}}",
                    escape(w),
                    metrics.join(",\n")
                )
            })
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"runs\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            args.runs,
            seconds,
            args.trace,
            workloads.join(",\n")
        )
    }
}

/// One child run: its metric lines and its result line.
fn run_child(
    exe: &Path,
    name: &str,
    args: &Args,
    seconds: f64,
) -> Result<(bool, Vec<String>, Option<Json>), String> {
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let result = lines.pop().and_then(|last| Json::parse(&last).ok());
    Ok((out.status.success(), lines, result))
}

/// Every workload, `--runs` times round-robin, each run in a child.
fn run_all(args: &Args) -> Result<bool, String> {
    let bench = Benchmark::load()?;
    let seconds = args.seconds.unwrap_or(bench.run_seconds);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut ledger = Ledger::default();
    let mut clean = true;
    for _ in 0..args.runs {
        for name in suite::NAMES {
            let (ok, lines, result) = run_child(&exe, name, args, seconds)?;
            for line in &lines {
                println!("{line}");
                if let [w, metric, v, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
                    if let (true, Ok(v)) = (w == name, v.parse::<f64>()) {
                        ledger.record(name, metric, unit, v);
                    }
                }
            }
            let count = |key: &str| result.as_ref().and_then(|r| r.get(key)).and_then(Json::as_f64);
            let correct = result.as_ref().and_then(|r| r.get("correct")).and_then(Json::as_bool);
            match (correct, count("attempted"), count("failed")) {
                (Some(correct), Some(attempted), Some(failed)) if attempted > 0.0 => {
                    clean &= ok && correct;
                    let error_rate = failed / attempted;
                    println!("{name} error_rate {error_rate} ratio");
                    ledger.record(name, "error_rate", "ratio", error_rate);
                }
                _ => {
                    clean = false;
                    println!("# {name}: run produced no result line");
                }
            }
        }
    }
    println!("# medians over {} run(s)", args.runs);
    for (w, series) in &ledger.workloads {
        for s in series {
            println!("{w} {} {} {}", s.metric, median(&s.values), s.unit);
        }
    }
    let path = Path::new(OUT_DIR).join("ledger.json");
    write_file(&path, &ledger.to_json(args, seconds))?;
    println!("# wrote {}", path.display());
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_and_issue_forms_of_trace() {
        let a = parse(&["--workload", "wire-kv", "--seed", "7", "--seconds", "15", "--trace", "0"])
            .expect("valid")
            .expect("not help");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wire-kv"), 7, Some(15.0), false)
        );
        let b = parse(&["--trace", "--seed", "42"]).expect("valid").expect("not help");
        assert!(b.trace && b.seed == 42 && b.workload.is_none() && b.runs == 3);
        assert!(parse(&["--trace", "1"]).expect("valid").expect("not help").trace);
        assert!(parse(&["--help"]).expect("valid").is_none());
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--runs", "0"],
            &["--seconds", "-1"],
            &["--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut out = Outcome { attempted: 10, failed: 0, ..Default::default() };
        out.metrics.push(suite::Metric { name: "a".into(), value: 1.5, unit: "s" });
        out.metrics.push(suite::Metric { name: "b".into(), value: 2.0, unit: "1/s" });
        let declared = |n: &str| Declared {
            name: n.into(),
            better: benchmark::Better::Lower,
            bound: Some(0.1),
        };
        let line = result_line(&out, &[declared("b")]).expect("b was measured");
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("metrics").map(|m| m.members().len()), Some(1));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("b"))
                .and_then(|b| b.get("value"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(result_line(&out, &[declared("missing")]).is_err());
        out.failed = 1;
        assert!(result_line(&out, &[])
            .expect("no metrics needed")
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn ledger_round_trips_through_the_reader() {
        let mut l = Ledger::default();
        l.record("w", "ops_per_s", "1/s", 10.0);
        l.record("w", "ops_per_s", "1/s", 12.5);
        l.record("w", "error_rate", "ratio", 0.0);
        let args = parse(&[]).expect("valid").expect("not help");
        let doc = Json::parse(&l.to_json(&args, 15.0)).expect("valid JSON");
        let ops = doc
            .get("workloads")
            .and_then(|w| w.get("w"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("ops_per_s"))
            .expect("ops_per_s series");
        assert_eq!(compare::values(ops), [10.0, 12.5]);
        assert_eq!(doc.get("trace").and_then(Json::as_bool), Some(false));
    }
}
