//! `--compare A.json B.json`: two ledgers side by side.
//!
//! For each workload and metric present in both, prints each side's
//! median and quartiles and a verdict, by the rules of the
//! choosing-metrics guide (§6–8), A being the parent and B the change:
//!
//! * **better** — B wins at least nine tenths of the index-matched run
//!   pairs (ties count for neither) and the medians differ by more than
//!   A's interquartile range;
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **unresolved** — neither, but a side's spread (IQR over median) is
//!   wider than the bound, unless every B run beats every A run;
//! * **unchanged** — otherwise.
//!
//! Bounds come from `BENCHMARK.json`. Metrics it cannot declare (they
//! exist on some workloads only) are judged here: the `sim_*` metrics and
//! `error_rate` must be bit-identical (**changed** otherwise), and the
//! wire-kv access latencies, host times like `ops_per_s`, take its bound.

use crate::benchmark::{Benchmark, Better};
use crate::json::Json;
use crate::stats::{median, quartiles, relative_spread};

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    Bounded {
        better: Better,
        bound: f64,
    },
    Exact,
    /// No bound fixed (per-layer metrics, sample counts).
    Unbounded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
    Changed,
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::NoBound => "-",
        }
    }
}

fn rule(metric: &str, bench: &Benchmark) -> Rule {
    if let Some(d) = bench.end_to_end(metric) {
        return Rule::Bounded { better: d.better, bound: d.bound.unwrap_or(0.0) };
    }
    match metric {
        m if m.starts_with("sim_") => Rule::Exact,
        "error_rate" => Rule::Exact,
        "kv_access_p50_us" | "kv_access_p99_us" => match bench.end_to_end("ops_per_s") {
            Some(d) => Rule::Bounded { better: Better::Lower, bound: d.bound.unwrap_or(0.0) },
            None => Rule::Unbounded,
        },
        _ => Rule::Unbounded,
    }
}

fn judge(rule: Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (better, bound) = match rule {
        Rule::Unbounded => return Verdict::NoBound,
        Rule::Exact => {
            let first = a.first().or(b.first()).copied().unwrap_or(0.0);
            let identical = a.iter().chain(b).all(|x| x.to_bits() == first.to_bits());
            return if identical { Verdict::Unchanged } else { Verdict::Changed };
        }
        Rule::Bounded { better, bound } => (better, bound),
    };
    // Positive when `to` reads better than `from`.
    let gain = |from: f64, to: f64| match better {
        Better::Higher => to - from,
        Better::Lower => from - to,
    };
    let (ma, mb) = (median(a), median(b));
    let [qa1, _, qa3] = quartiles(a);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| gain(**x, **y) > 0.0).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(ma, mb) > qa3 - qa1 {
        return Verdict::Better;
    }
    if -gain(ma, mb) > bound * ma.abs() {
        return Verdict::Worse;
    }
    let every_b_better = a.iter().all(|x| b.iter().all(|y| gain(*x, *y) > 0.0));
    if relative_spread(a).max(relative_spread(b)) > bound && !every_b_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

fn num(x: f64) -> String {
    if x.abs() < 1.0 {
        format!("{x:.5}")
    } else {
        format!("{x:.2}")
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The per-run values of one ledger series.
pub fn values(series: &Json) -> Vec<f64> {
    series
        .get("values")
        .map(|v| v.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(false)` when any metric got worse or any
/// exact metric changed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bench = Benchmark::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("trace") != b.get("trace") {
        return Err("cannot compare a traced ledger with an untraced one".into());
    }
    println!("# A = {a_path}, B = {b_path}; median [q1, q3] per side");
    let mut failing = 0;
    let no_workloads = Json::Obj(Vec::new());
    let b_workloads = b.get("workloads").unwrap_or(&no_workloads);
    for (workload, wa) in a.get("workloads").unwrap_or(&no_workloads).members() {
        let Some(wb) = b_workloads.get(workload) else {
            println!("{workload:<16} only in A");
            continue;
        };
        let mb = wb.get("metrics").unwrap_or(&no_workloads);
        for (metric, sa) in wa.get("metrics").unwrap_or(&no_workloads).members() {
            let Some(sb) = mb.get(metric) else { continue };
            let (va, vb) = (values(sa), values(sb));
            let verdict = judge(rule(metric, &bench), &va, &vb);
            let [a1, am, a3] = quartiles(&va);
            let [b1, bm, b3] = quartiles(&vb);
            println!(
                "{workload:<16} {metric:<44} A {} [{}, {}]  B {} [{}, {}]  {}",
                num(am),
                num(a1),
                num(a3),
                num(bm),
                num(b1),
                num(b3),
                verdict.label()
            );
            if matches!(verdict, Verdict::Worse | Verdict::Changed) {
                failing += 1;
            }
        }
    }
    println!("# {failing} metric(s) worse or changed");
    Ok(failing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Rule = Rule::Bounded { better: Better::Higher, bound: 0.10 };
    const LOWER: Rule = Rule::Bounded { better: Better::Lower, bound: 0.10 };

    #[test]
    fn verdicts_follow_the_guide() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(HIGHER, &a, &[100.2, 99.8, 100.1, 100.9, 99.4]), Verdict::Unchanged);
        assert_eq!(judge(HIGHER, &a, &[120.0, 121.0, 119.0, 122.0, 118.0]), Verdict::Better);
        assert_eq!(judge(LOWER, &a, &[120.0, 121.0, 119.0, 122.0, 118.0]), Verdict::Worse);
        // Medians within the bound but one side swings 40%: unresolved.
        assert_eq!(judge(HIGHER, &a, &[70.0, 100.0, 130.0, 99.0, 101.0]), Verdict::Unresolved);
        // Every change run beats every parent run, so a noisy parent does
        // not make it unresolved; the gain is inside the parent's IQR,
        // so it is not a claimable improvement either.
        assert_eq!(judge(LOWER, &[80.0, 100.0, 120.0], &[79.0, 78.0, 77.0]), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit() {
        assert_eq!(judge(Rule::Exact, &[376.24, 376.24], &[376.24]), Verdict::Unchanged);
        assert_eq!(judge(Rule::Exact, &[376.24], &[376.25]), Verdict::Changed);
        assert_eq!(judge(Rule::Unbounded, &[1.0], &[9.0]), Verdict::NoBound);
    }

    #[test]
    fn rules_prefer_the_declared_bound() {
        let bench = crate::benchmark::repository_benchmark();
        let declared = bench.end_to_end("ops_per_s").expect("ops_per_s declared");
        assert_eq!(
            rule("ops_per_s", &bench),
            Rule::Bounded { better: declared.better, bound: declared.bound.unwrap_or(0.0) }
        );
        assert_eq!(rule("sim_cycles_per_record", &bench), Rule::Exact);
        assert_eq!(rule("system.executor.tick.calls", &bench), Rule::Unbounded);
    }
}
