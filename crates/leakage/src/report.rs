//! Leakage-report rendering: byte-stable JSON (hand-rolled, fixed key
//! order, deterministic float formatting) and Perfetto annotation
//! slices.
//!
//! Byte stability matters because the CI gate runs the matrix twice and
//! `cmp`s the two reports — any nondeterminism in the engine, the
//! statistics, or the formatting fails the build.

use crate::analysis::{FeatureTest, PairAnalysis};
use sdimm_telemetry::json::escape;
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

/// Deterministic float rendering: scientific notation with a fixed
/// mantissa width, valid JSON, bit-stable for equal inputs.
fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0.0".to_string()
    } else {
        format!("{x:.6e}")
    }
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

    /// Renders the report as a byte-stable JSON document (fixed key
    /// order, deterministic number formatting, no trailing newline
    /// variance — callers append exactly one).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"sdimm-leakage-v1\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", escape(&self.scale)));
        out.push_str(&format!("  \"alpha_family\": {},\n", fmt_f64(self.alpha_family)));
        out.push_str(&format!(
            "  \"gate\": {{\"pass\": {}, \"secure_failures\": {}, \"power_failures\": {}}},\n",
            self.gate_pass(),
            self.secure_failures(),
            self.power_failures()
        ));
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"machine\": \"{}\",\n", escape(&e.machine)));
            out.push_str(&format!("      \"secure\": {},\n", e.secure));
            out.push_str(&format!("      \"pair\": \"{}\",\n", escape(&e.pair)));
            out.push_str(&format!("      \"contrast\": \"{}\",\n", escape(&e.contrast)));
            out.push_str(&format!(
                "      \"alpha_per_test\": {},\n",
                fmt_f64(e.analysis.alpha_per_test)
            ));
            out.push_str(&format!("      \"distinguishable\": {},\n", e.analysis.distinguishable));
            out.push_str(&format!(
                "      \"expected_distinguishable\": {},\n",
                e.expected_distinguishable
            ));
            out.push_str(&format!("      \"pass\": {},\n", e.pass()));
            out.push_str("      \"tests\": [");
            for (j, t) in e.analysis.tests.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        ");
                out.push_str(&test_json(t));
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
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

fn test_json(t: &FeatureTest) -> String {
    format!(
        "{{\"name\": \"{}\", \"method\": \"{}\", \"n_a\": {}, \"n_b\": {}, \
         \"statistic\": {}, \"p\": {}, \"effect\": {}, \"effect_floor\": {}, \
         \"significant\": {}}}",
        escape(t.name),
        escape(t.method),
        t.n_a,
        t.n_b,
        fmt_f64(t.statistic),
        fmt_f64(t.p),
        fmt_f64(t.effect),
        fmt_f64(t.effect_floor),
        t.significant
    )
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
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        sdimm_telemetry::json::validate(&a).expect("valid json");
        assert!(a.contains("\"pass\": true"));
        assert!(a.contains("sdimm-leakage-v1"));
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
