//! Run-scale selection for the figure binaries.

use dram_sim::spec::DramStandard;
use oram::types::OramConfig;
use sdimm_system::machine::{MachineKind, SystemConfig};

/// How big a run the figure binaries perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small trees and short windows: every figure in minutes.
    Quick,
    /// Larger trees and windows, closer to the paper's configuration.
    Full,
}

impl Scale {
    /// Parses a `SDIMM_BENCH_SCALE` value: `quick` or `full`, in lower
    /// or upper case.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value {
            "quick" | "QUICK" => Ok(Scale::Quick),
            "full" | "FULL" => Ok(Scale::Full),
            other => Err(format!("unknown SDIMM_BENCH_SCALE `{other}` (known: quick, full)")),
        }
    }

    /// Reads `SDIMM_BENCH_SCALE`; unset means quick. Exits with status 2
    /// on a value [`parse`](Self::parse) rejects, so a typo never runs a
    /// figure at the wrong scale.
    pub fn from_env() -> Self {
        let Some(value) = std::env::var_os("SDIMM_BENCH_SCALE") else {
            return Scale::Quick;
        };
        Scale::parse(&value.to_string_lossy()).unwrap_or_else(|e| {
            eprintln!("{e}");
            // Sanctioned exit: bad configuration at a binary's entry path.
            #[allow(clippy::disallowed_methods)]
            std::process::exit(2);
        })
    }

    /// The scale's name as `SDIMM_BENCH_SCALE` spells it and reports
    /// record it: `quick` or `full`.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// The global ORAM tree for this scale, with `cached_levels` of
    /// on-chip ORAM caching (0 or 7 in the paper's sweeps).
    pub fn oram(&self, cached_levels: u32) -> OramConfig {
        let levels = match self {
            Scale::Quick => 18,
            Scale::Full => 24,
        };
        OramConfig { levels, cached_levels, ..OramConfig::default() }
    }

    /// Logical data blocks the workloads address.
    pub fn data_blocks(&self) -> u64 {
        match self {
            Scale::Quick => 1 << 15,
            Scale::Full => 1 << 19,
        }
    }

    /// The system every bench run starts from: `kind` on `standard`
    /// with this scale's tree and its 7-level on-chip ORAM cache, this
    /// scale's data blocks, low power off and seed 1. Callers override
    /// fields with struct-update syntax where a panel differs.
    pub fn config(&self, kind: MachineKind, standard: DramStandard) -> SystemConfig {
        SystemConfig {
            kind,
            oram: self.oram(7),
            data_blocks: self.data_blocks(),
            standard,
            low_power: false,
            seed: 1,
        }
    }

    /// Trace records used to warm the LLC before measurement.
    pub fn warmup(&self) -> usize {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 50_000,
        }
    }

    /// Trace records measured cycle-accurately.
    pub fn measure(&self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        }
    }

    /// Total records to generate per workload.
    pub fn trace_len(&self) -> usize {
        self.warmup() + self.measure() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_default() {
        // (Reads the real environment; in the test environment the
        // variable is unset.)
        if std::env::var("SDIMM_BENCH_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn parse_knows_quick_and_full_and_nothing_else() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("QUICK"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("full"), Ok(Scale::Full));
        assert_eq!(Scale::parse("FULL"), Ok(Scale::Full));
        for scale in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(scale.name()), Ok(scale));
        }
        for bad in ["Full", "fulll", "", " full"] {
            let err = Scale::parse(bad).unwrap_err();
            assert!(err.contains("quick") && err.contains("full"), "{err}");
        }
    }

    #[test]
    fn full_is_larger_everywhere() {
        let q = Scale::Quick;
        let f = Scale::Full;
        assert!(f.oram(0).levels > q.oram(0).levels);
        assert!(f.measure() > q.measure());
        assert!(f.data_blocks() > q.data_blocks());
    }

    #[test]
    fn trace_len_covers_windows() {
        let s = Scale::Quick;
        assert!(s.trace_len() >= s.warmup() + s.measure());
    }

    #[test]
    fn cached_levels_pass_through() {
        assert_eq!(Scale::Quick.oram(7).cached_levels, 7);
        assert_eq!(Scale::Quick.oram(0).cached_levels, 0);
    }
}
