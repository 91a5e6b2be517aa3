//! The paired distinguishability battery: extract features from both
//! sides, run every applicable two-sample test, correct for multiple
//! comparisons, and produce a verdict.
//!
//! Decision rule: a test is **significant** only when its p-value beats
//! the Bonferroni-corrected per-test level *and* its effect size clears
//! a floor. The effect floors are the calibration knob against the
//! engine's autocorrelated queue timing: same-law runs (a secure
//! protocol on paired workloads) produce occasional small-p large-n
//! flukes with tiny effects, while a real leak (NonSecure read/write mix
//! or scan direction) shows effects near 1. A pair is
//! **distinguishable** when any test is significant.

use crate::features::{self, Features};
use crate::stats;
use dram_sim::cmdlog::CmdRecord;
use sdimm::obliviousness::Observable;

/// Tuning for the battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Family-wise significance level per pair; divided by the number of
    /// executed tests (Bonferroni).
    pub alpha_family: f64,
    /// Minimum KS distance for a KS rejection to count.
    pub ks_floor: f64,
    /// Minimum Cramér's V for a chi-squared rejection to count. The
    /// count features are cluster-correlated (one random ORAM leaf
    /// contributes ~10² CAS commands with the same rank/bank texture),
    /// so the iid chi-squared p-value is wildly anti-conservative at
    /// these sample sizes; same-law runs measure V up to ≈ 0.06 while
    /// true leaks (read/write mix, scan region) measure V ≥ 0.98. The
    /// floor sits 4× above the former and 4× below the latter.
    pub v_floor: f64,
    /// Minimum bootstrap CI *lower bound* for a TV rejection to count
    /// (the TV point estimate is positively biased; see `stats`).
    pub tv_floor: f64,
    /// Bootstrap resamples.
    pub resamples: usize,
    /// Bootstrap RNG seed (fixed: reports must be byte-stable).
    pub seed: u64,
    /// Downsample cap for sample-based features.
    pub max_samples: usize,
    /// Time windows for the windowed command mix.
    pub windows: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            alpha_family: 1e-3,
            ks_floor: 0.05,
            v_floor: 0.25,
            tv_floor: 0.10,
            resamples: 200,
            seed: 0x51D1_0B5E,
            max_samples: 4096,
            windows: 16,
        }
    }
}

/// One run's captured attacker streams plus the topology needed to size
/// the touch grid, filled from the `sdimm-system` runner's `Captured`
/// of a run that recorded commands and observables (kept separate so
/// this crate stays off the system crate's dependency tree).
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Per-channel DRAM command streams.
    pub streams: Vec<Vec<CmdRecord>>,
    /// Cycle-stamped external-bus observables (empty for machines with
    /// no external SDIMM bus).
    pub observables: Vec<(u64, Observable)>,
}

/// One executed two-sample test.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureTest {
    /// Feature identifier, e.g. `"dram.gap.ks"`.
    pub name: &'static str,
    /// Test family: `"ks"`, `"chi2"`, or `"tv"`.
    pub method: &'static str,
    /// Side-A sample size (samples or total counts).
    pub n_a: u64,
    /// Side-B sample size.
    pub n_b: u64,
    /// Test statistic (KS D, chi-squared, or TV point estimate).
    pub statistic: f64,
    /// p-value (for TV: fraction is not defined, reported as 1.0 and the
    /// decision rides on the CI bound alone).
    pub p: f64,
    /// Effect size compared against `effect_floor` (KS D, Cramér's V,
    /// or the bootstrap CI lower bound).
    pub effect: f64,
    /// The floor this test's effect had to clear.
    pub effect_floor: f64,
    /// Whether the test rejects the null at the corrected level.
    pub significant: bool,
}

/// The battery's output for one workload pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairAnalysis {
    /// Every executed test.
    pub tests: Vec<FeatureTest>,
    /// The Bonferroni-corrected per-test significance level used.
    pub alpha_per_test: f64,
    /// True when any test is significant.
    pub distinguishable: bool,
}

fn extract(cfg: &AnalysisConfig, c: &Capture) -> Features {
    features::extract(
        &c.streams,
        &c.observables,
        c.ranks.max(1),
        c.banks.max(1),
        cfg.windows,
        cfg.max_samples,
    )
}

/// Runs the full battery over one pair of captures.
///
/// DRAM-vantage tests always run; external-bus tests run only when both
/// sides produced observables (baseline machines have no external bus).
pub fn analyze_pair(cfg: &AnalysisConfig, a: &Capture, b: &Capture) -> PairAnalysis {
    let fa = extract(cfg, a);
    let fb = extract(cfg, b);

    enum Planned<'f> {
        Ks(&'static str, &'f [f64], &'f [f64]),
        Chi2(&'static str, &'f [u64], &'f [u64]),
        Tv(&'static str, &'f [u64], &'f [u64]),
    }
    let mut plan = vec![
        Planned::Ks("dram.gap.ks", &fa.gaps, &fb.gaps),
        Planned::Chi2("dram.cmd_mix.chi2", &fa.cmd_mix, &fb.cmd_mix),
        Planned::Chi2("dram.windowed_mix.chi2", &fa.windowed_mix, &fb.windowed_mix),
        Planned::Chi2("dram.rank_bank.chi2", &fa.rank_bank, &fb.rank_bank),
        Planned::Chi2("dram.row_delta_sign.chi2", &fa.row_delta_sign, &fb.row_delta_sign),
        Planned::Tv("dram.burst.tv", &fa.burst_runs, &fb.burst_runs),
    ];
    if !fa.bus_gaps.is_empty() && !fb.bus_gaps.is_empty() {
        plan.push(Planned::Ks("bus.gap.ks", &fa.bus_gaps, &fb.bus_gaps));
        plan.push(Planned::Chi2("bus.shape_mix.chi2", &fa.bus_shape_mix, &fb.bus_shape_mix));
    }

    let alpha = cfg.alpha_family / plan.len() as f64;
    let tests: Vec<FeatureTest> = plan
        .into_iter()
        .map(|t| match t {
            Planned::Ks(name, xa, xb) => {
                let r = stats::ks_two_sample(xa, xb);
                FeatureTest {
                    name,
                    method: "ks",
                    n_a: r.n_a as u64,
                    n_b: r.n_b as u64,
                    statistic: r.d,
                    p: r.p,
                    effect: r.d,
                    effect_floor: cfg.ks_floor,
                    significant: r.p < alpha && r.d >= cfg.ks_floor,
                }
            }
            Planned::Chi2(name, xa, xb) => {
                let r = stats::chi2_two_sample(xa, xb);
                FeatureTest {
                    name,
                    method: "chi2",
                    n_a: xa.iter().sum(),
                    n_b: xb.iter().sum(),
                    statistic: r.statistic,
                    p: r.p,
                    effect: r.cramers_v,
                    effect_floor: cfg.v_floor,
                    significant: r.p < alpha && r.cramers_v >= cfg.v_floor,
                }
            }
            Planned::Tv(name, xa, xb) => {
                let r = stats::bootstrap_tv_ci(xa, xb, cfg.resamples, cfg.seed);
                FeatureTest {
                    name,
                    method: "tv",
                    n_a: xa.iter().sum(),
                    n_b: xb.iter().sum(),
                    statistic: r.tv,
                    p: 1.0,
                    effect: r.ci_lo,
                    effect_floor: cfg.tv_floor,
                    significant: r.ci_lo >= cfg.tv_floor,
                }
            }
        })
        .collect();

    let distinguishable = tests.iter().any(|t| t.significant);
    PairAnalysis { tests, alpha_per_test: alpha, distinguishable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::cmdlog::DdrCmd;

    fn scan(write: bool, ascending: bool, n: usize) -> Capture {
        let mut stream = Vec::new();
        for i in 0..n {
            let row = if ascending { i } else { n - 1 - i };
            let cycle = (i as u64) * 20;
            stream.push(CmdRecord { cycle, rank: 0, cmd: DdrCmd::Act { bank: i % 8, row } });
            let cas = if write {
                DdrCmd::Wr { bank: i % 8, row }
            } else {
                DdrCmd::Rd { bank: i % 8, row }
            };
            stream.push(CmdRecord { cycle: cycle + 5, rank: 0, cmd: cas });
        }
        Capture { ranks: 1, banks: 8, streams: vec![stream], observables: Vec::new() }
    }

    #[test]
    fn identical_captures_indistinguishable() {
        let a = scan(false, true, 500);
        let r = analyze_pair(&AnalysisConfig::default(), &a, &a.clone());
        assert!(!r.distinguishable, "{:?}", r.tests);
        assert!(r.tests.iter().all(|t| !t.significant));
    }

    #[test]
    fn op_contrast_detected() {
        let a = scan(false, true, 500);
        let b = scan(true, true, 500);
        let r = analyze_pair(&AnalysisConfig::default(), &a, &b);
        assert!(r.distinguishable);
        assert!(r.tests.iter().any(|t| t.name == "dram.cmd_mix.chi2" && t.significant));
    }

    #[test]
    fn direction_contrast_detected() {
        let a = scan(false, true, 500);
        let b = scan(false, false, 500);
        let r = analyze_pair(&AnalysisConfig::default(), &a, &b);
        assert!(r.distinguishable);
        assert!(r.tests.iter().any(|t| t.name == "dram.row_delta_sign.chi2" && t.significant));
    }

    #[test]
    fn bus_tests_only_when_both_sides_observe() {
        let a = scan(false, true, 50);
        let r = analyze_pair(&AnalysisConfig::default(), &a, &a.clone());
        assert!(r.tests.iter().all(|t| !t.name.starts_with("bus.")));
        assert_eq!(r.tests.len(), 6);
    }
}
