//! Run provenance embedded in every deterministic benchmark report.
//!
//! Shared by `bench_compare` (`BENCH_crypto.json` / `BENCH_sim.json`),
//! `crossover` (`BENCH_crossover.json`) and `hammer_report`
//! (`BENCH_hammer.json`): enough context to answer "which build produced
//! these numbers" when a stale report surfaces in a CI artifact bucket,
//! without anything that would break byte stability between two runs on
//! one checkout (no timestamps, no host names, no wall-clock values).

use crate::Scale;
use sdimm_telemetry::json::Value;

/// The provenance object serialized at the top of a report.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Abbreviated commit SHA of the working tree, or `unknown` outside
    /// a git checkout (e.g. a source tarball).
    pub git_sha: String,
    /// Scale the suite ran at.
    pub scale: Scale,
    /// Execution-engine version the measurements were taken on.
    pub engine: &'static str,
    /// Comma-separated protocol/machine set exercised by the suite.
    pub protocols: &'static str,
}

impl Provenance {
    /// Provenance for the current checkout at `scale` over `protocols`.
    pub fn new(scale: Scale, protocols: &'static str) -> Self {
        Self { git_sha: git_sha(), scale, engine: sdimm_system::ENGINE_VERSION, protocols }
    }

    /// The object every report embeds under its `"provenance"` key.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("git_sha", self.git_sha.as_str().into()),
            ("scale", self.scale.name().into()),
            ("engine", self.engine.into()),
            ("protocols", self.protocols.into()),
        ])
    }
}

/// Resolves the current commit's abbreviated SHA, falling back to
/// `unknown` when git is unavailable or the tree is not a checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_is_flat_and_carries_every_field() {
        let p = Provenance {
            git_sha: "abc123".into(),
            scale: Scale::Quick,
            engine: "test-engine",
            protocols: "nonsecure",
        };
        let json = Value::object([("provenance", p.to_value())]).render();
        let block = r#"{"git_sha": "abc123", "scale": "quick", "engine": "test-engine", "protocols": "nonsecure"}"#;
        assert_eq!(json, format!("{{\n  \"provenance\": {block}\n}}\n"));
    }

    #[test]
    fn git_sha_is_hex_or_unknown() {
        let sha = git_sha();
        assert!(sha == "unknown" || sha.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
