//! Leakage-report rendering: a byte-stable JSON value (fixed key order,
//! the one float format of `sdimm_telemetry::json`) and Perfetto
//! annotation slices.
//!
//! Byte stability matters because the CI gate runs the matrix twice and
//! `cmp`s the two reports — any nondeterminism in the engine, the
//! statistics, or the formatting fails the build.

use crate::analysis::{FeatureTest, PairAnalysis};
use sdimm_telemetry::json::Value;
use sdimm_telemetry::TraceSink;

/// One machine × workload-pair row of the report.
#[derive(Debug, Clone)]
pub struct EntryReport {
    /// Machine display name (e.g. `"INDEP-2"`).
    pub machine: String,
    /// Whether the protocol claims obliviousness (everything but
    /// NonSecure).
    pub secure: bool,
    /// Workload-pair name (e.g. `"op-contrast"`).
    pub pair: String,
    /// Human description of the logical secret the pair contrasts.
    pub contrast: String,
    /// The statistical verdict.
    pub analysis: PairAnalysis,
    /// What the gate expects: secure protocols must *not* be
    /// distinguishable; the NonSecure baseline *must* be (power check).
    pub expected_distinguishable: bool,
}

impl EntryReport {
    /// Whether this row meets its expectation.
    pub fn pass(&self) -> bool {
        self.analysis.distinguishable == self.expected_distinguishable
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("machine", self.machine.as_str().into()),
            ("secure", self.secure.into()),
            ("pair", self.pair.as_str().into()),
            ("contrast", self.contrast.as_str().into()),
            ("alpha_per_test", self.analysis.alpha_per_test.into()),
            ("distinguishable", self.analysis.distinguishable.into()),
            ("expected_distinguishable", self.expected_distinguishable.into()),
            ("pass", self.pass().into()),
            ("tests", self.analysis.tests.iter().map(test_value).collect()),
        ])
    }
}

/// The full leakage report for one gate run.
#[derive(Debug, Clone, Default)]
pub struct LeakageReport {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: String,
    /// Family-wise significance level each pair was tested at.
    pub alpha_family: f64,
    /// All machine × pair rows.
    pub entries: Vec<EntryReport>,
}

impl LeakageReport {
    /// True when every row meets its expectation — secure protocols
    /// indistinguishable on every pair *and* NonSecure detected on every
    /// pair.
    pub fn gate_pass(&self) -> bool {
        !self.entries.is_empty() && self.entries.iter().all(EntryReport::pass)
    }

    /// Secure rows flagged as distinguishable (leaks).
    pub fn secure_failures(&self) -> usize {
        self.entries.iter().filter(|e| e.secure && e.analysis.distinguishable).count()
    }

    /// Leaky-by-design rows the battery failed to flag (power failures).
    pub fn power_failures(&self) -> usize {
        self.entries.iter().filter(|e| !e.secure && !e.analysis.distinguishable).count()
    }

    /// The report as a byte-stable JSON value (fixed key order, one
    /// float format).
    pub fn to_value(&self) -> Value {
        let gate = Value::object([
            ("pass", self.gate_pass().into()),
            ("secure_failures", self.secure_failures().into()),
            ("power_failures", self.power_failures().into()),
        ]);
        Value::object([
            ("schema", "sdimm-leakage-v1".into()),
            ("scale", self.scale.as_str().into()),
            ("alpha_family", self.alpha_family.into()),
            ("gate", gate),
            ("entries", self.entries.iter().map(EntryReport::to_value).collect()),
        ])
    }

    /// Emits one Perfetto slice per report row (category `leakage`) into
    /// `sink`'s side table under `pid`, so a trace viewer shows the
    /// verdict matrix alongside the runs that produced it. Slices are
    /// laid out on a synthetic timeline (one slot per row) — they
    /// annotate, they don't time.
    pub fn annotate(&self, sink: &TraceSink, pid: u32) {
        if !sink.is_enabled() {
            return;
        }
        sink.process_name(pid, "leakage observatory");
        sink.thread_name(pid, 0, "verdicts");
        for (i, e) in self.entries.iter().enumerate() {
            let verdict = if e.analysis.distinguishable { "DISTINGUISHABLE" } else { "indist" };
            let status = if e.pass() { "ok" } else { "FAIL" };
            let label = format!("{} × {}: {verdict} [{status}]", e.machine, e.pair);
            let t0 = i as u64 * 10;
            sink.span("leakage", &label, pid, 0, t0, t0 + 8);
            for (j, t) in e.analysis.tests.iter().enumerate() {
                if t.significant {
                    sink.instant(
                        "leakage",
                        &format!("{}: {}", e.machine, t.name),
                        pid,
                        0,
                        t0 + j as u64,
                    );
                }
            }
        }
    }
}

fn test_value(t: &FeatureTest) -> Value {
    Value::object([
        ("name", t.name.into()),
        ("method", t.method.into()),
        ("n_a", t.n_a.into()),
        ("n_b", t.n_b.into()),
        ("statistic", t.statistic.into()),
        ("p", t.p.into()),
        ("effect", t.effect.into()),
        ("effect_floor", t.effect_floor.into()),
        ("significant", t.significant.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LeakageReport {
        LeakageReport {
            scale: "quick".to_string(),
            alpha_family: 1e-3,
            entries: vec![
                EntryReport {
                    machine: "NONSECURE-1ch".to_string(),
                    secure: false,
                    pair: "op-contrast".to_string(),
                    contrast: "reads vs writes".to_string(),
                    analysis: PairAnalysis {
                        tests: vec![FeatureTest {
                            name: "dram.cmd_mix.chi2",
                            method: "chi2",
                            n_a: 1000,
                            n_b: 1000,
                            statistic: 1234.5,
                            p: 1.2e-100,
                            effect: 0.9,
                            effect_floor: 0.05,
                            significant: true,
                        }],
                        alpha_per_test: 1.25e-4,
                        distinguishable: true,
                    },
                    expected_distinguishable: true,
                },
                EntryReport {
                    machine: "INDEP-2".to_string(),
                    secure: true,
                    pair: "op-contrast".to_string(),
                    contrast: "reads vs writes".to_string(),
                    analysis: PairAnalysis {
                        tests: Vec::new(),
                        alpha_per_test: 1.25e-4,
                        distinguishable: false,
                    },
                    expected_distinguishable: false,
                },
            ],
        }
    }

    #[test]
    fn json_is_valid_and_stable() {
        let r = sample_report();
        let a = r.to_value().render();
        assert_eq!(a, r.to_value().render());
        let doc = sdimm_telemetry::json::parse(&a).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("sdimm-leakage-v1"));
        assert_eq!(doc.get("gate").and_then(|g| g.get("pass")), Some(&Value::Bool(true)));
        let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
        assert_eq!(entries.len(), 2);
        let tests = entries[0].get("tests").and_then(Value::as_array).expect("tests");
        assert_eq!(tests[0].get("p").and_then(Value::as_f64), Some(1.2e-100));
    }

    #[test]
    fn gate_logic() {
        let mut r = sample_report();
        assert!(r.gate_pass());
        assert_eq!(r.secure_failures(), 0);
        assert_eq!(r.power_failures(), 0);
        // Flip the NonSecure row to undetected: power failure.
        r.entries[0].analysis.distinguishable = false;
        assert!(!r.gate_pass());
        assert_eq!(r.power_failures(), 1);
        // Empty report must not pass vacuously.
        assert!(!LeakageReport::default().gate_pass());
    }

    #[test]
    fn annotate_into_sink() {
        let sink = TraceSink::enabled();
        sample_report().annotate(&sink, 99);
        let json = sink.export_chrome_json().expect("sink enabled");
        sdimm_telemetry::json::validate(&json).expect("valid trace json");
        assert!(json.contains("DISTINGUISHABLE"));
    }
}
