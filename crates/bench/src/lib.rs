//! `sdimm-bench` — the harness regenerating every table and figure of the
//! paper's evaluation (see DESIGN.md §3 for the experiment index).
//!
//! Each `fig*`/`table*` binary in `src/bin/` prints the rows/series of
//! one paper artifact. Extension experiments (`stash`, `coresident`),
//! diagnostics (`probe`, `probe2`, `calibrate`), the `bench_compare`
//! perf gate and the `ledger` benchmark are binaries here too — see
//! EXPERIMENTS.md for what each one demonstrates. The design ablations
//! of DESIGN.md §14 are integration tests (`tests/tests/ablations.rs`).
//!
//! Run scale is controlled by the `SDIMM_BENCH_SCALE` environment
//! variable: `quick` (default — minutes, smaller trees/windows) or
//! `full` (closer to the paper's 28-level trees and larger windows); any
//! other value makes a binary exit with status 2.
//! Absolute numbers differ from the paper's Simics/USIMM testbed either
//! way; the reproduction target is the *shape* (who wins, by roughly
//! what factor), recorded in EXPERIMENTS.md.

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod audit;
pub mod cli;
pub mod hammer;
pub mod harness;
pub mod leakage;
pub mod live;
pub mod provenance;
pub mod scale;
pub mod table;

pub use audit::run_matrix_maybe_audited;
pub use cli::TelemetryArgs;
pub use harness::{run_matrix, Cell, DdrAuditLog};
pub use live::LiveView;
pub use scale::Scale;
