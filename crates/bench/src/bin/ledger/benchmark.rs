//! `BENCHMARK.json`: the declared metrics, their directions and bounds.
//!
//! The file sits at the repository root; the benchmark runs from there.
//! It is the single place the end-to-end bounds are written down: the
//! child result line reports exactly the declared metrics, and
//! `--compare` judges them against these bounds.

use crate::json::Json;

pub const PATH: &str = "BENCHMARK.json";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug)]
pub struct Declared {
    pub name: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Benchmark {
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Benchmark {
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(PATH)
            .map_err(|e| format!("cannot read {PATH} ({e}); run from the repository root"))?;
        Self::parse(&text).map_err(|e| format!("{PATH}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let run_seconds =
            doc.get("run_seconds").and_then(Json::as_f64).ok_or("missing run_seconds")?;
        Ok(Benchmark {
            run_seconds,
            end_to_end: declared(&doc, "end_to_end")?,
            per_layer: declared(&doc, "per_layer")?,
        })
    }

    /// The end-to-end declaration of `name`, if any.
    pub fn end_to_end(&self, name: &str) -> Option<&Declared> {
        self.end_to_end.iter().find(|d| d.name == name)
    }
}

fn declared(doc: &Json, key: &str) -> Result<Vec<Declared>, String> {
    doc.get(key)
        .ok_or(format!("missing {key}"))?
        .items()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better must be \"higher\" or \"lower\"")),
            };
            Ok(Declared {
                name: name.to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// The repository's `BENCHMARK.json` text, found by walking up from this
/// package (it is built both as `sdimm-bench` and on its own).
#[cfg(test)]
fn repository_file() -> String {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join(PATH);
        if candidate.is_file() {
            return std::fs::read_to_string(&candidate).expect("readable BENCHMARK.json");
        }
        assert!(dir.pop(), "no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
    }
}

#[cfg(test)]
pub fn repository_benchmark() -> Benchmark {
    Benchmark::parse(&repository_file()).expect("valid BENCHMARK.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repository_file_parses_and_names_the_suite() {
        let b = repository_benchmark();
        let doc = Json::parse(&repository_file()).expect("valid JSON");
        let names: Vec<&str> = doc
            .get("workloads")
            .map(|w| {
                w.items().iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect()
            })
            .unwrap_or_default();
        assert_eq!(names, crate::suite::NAMES);
        assert!(b.end_to_end.iter().all(|d| d.bound.is_some_and(|x| (0.0..=0.25).contains(&x))));
        let setup = b.end_to_end("setup_s").expect("setup_s is declared");
        assert_eq!(setup.better, Better::Lower);
        assert!(b.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn rejects_a_bad_direction() {
        let text = r#"{"run_seconds": 1, "workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "up", "bound": 0.1}]}"#;
        assert!(Benchmark::parse(text).is_err());
    }
}
