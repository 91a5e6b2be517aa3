//! `sdimm-leakage` — statistical timing-distinguishability analysis of
//! the attacker-visible streams (§III-G threat model).
//!
//! The shape checker (`sdimm::obliviousness`) proves that paired runs
//! emit the same *sequence* of message kinds and sizes; this crate asks
//! the harder question the paper never evaluates: does the *timing* of
//! those messages — queueing jitter from the event-driven engine and the
//! FR-FCFS scheduler — statistically distinguish two logical workloads?
//!
//! The attacker has two vantage points, both captured by
//! `sdimm_system::runner::run_with` (`Capture { cmds, observables }`):
//!
//! * the per-channel DRAM command stream ([`dram_sim::cmdlog::CmdRecord`]),
//!   which every machine exposes (for SDIMM protocols this is the
//!   on-DIMM bus; for baselines, main memory);
//! * the [`sdimm::obliviousness::Observable`] stream: the external-bus
//!   messages and internal DRAM activities of every executed trace,
//!   projected by [`sdimm::obliviousness::observables`] and stamped with
//!   the cycle the runner issued the request at (only the SDIMM
//!   protocols have an external command bus).
//!
//! [`features`] reduces each capture to windowed features: inter-arrival
//! gap samples, command-type mix (aggregate and per time window),
//! rank/bank touch distributions, row-delta signs, and burst-length
//! runs. [`stats`] implements the two-sample machinery from scratch in
//! the workspace's no-deps style: Kolmogorov–Smirnov on ECDFs,
//! chi-squared homogeneity on categorical mixes, and total-variation
//! distance with seeded bootstrap confidence intervals. [`analysis`]
//! runs the full battery with a Bonferroni-corrected significance level
//! and per-test effect-size floors, and [`report`] renders byte-stable
//! JSON plus Perfetto annotation slices.
//!
//! Every number here is a function of simulated cycles and fixed seeds —
//! never a wall clock — so paired analyses are bit-reproducible (an
//! sdimm-lint rule, L5/wall-clock, enforces this).

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod analysis;
pub mod features;
pub mod report;
pub mod stats;

pub use analysis::{analyze_pair, AnalysisConfig, Capture, FeatureTest, PairAnalysis};
pub use report::{EntryReport, LeakageReport};
