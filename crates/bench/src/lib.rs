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
//! A figure binary is one [`Figure`] session: `Figure::start(bin)`
//! parses the shared flags (`cli`) and reads the scale, each
//! `fig.panel(key, workloads, kinds, make_cfg)` runs one workload ×
//! machine matrix and returns its cells for the binary's tables, and
//! `fig.finish()` runs `--leakage` and writes the requested outputs:
//!
//! ```no_run
//! use sdimm_bench::{table, Figure};
//! use sdimm_system::machine::MachineKind;
//!
//! let mut fig = Figure::start("example");
//! let (scale, standard) = (fig.scale(), fig.standard());
//! let kinds = [MachineKind::NonSecure { channels: 1 }, MachineKind::Freecursive { channels: 1 }];
//! let cells = fig.panel("1ch", &["mcf-like"], &kinds, |kind| scale.config(kind, standard));
//! table::print_normalized("slowdown", cells, "NONSECURE-1ch", |c| c.result.cycles_per_record());
//! fig.finish();
//! ```
//!
//! Panel keys are short dot-free names, unique within the figure; they
//! start every key of the `--metrics-json` snapshot
//! (`<panel>.<workload>.<machine>.<metric>`).
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

mod audit;
pub mod cli;
pub mod figure;
pub mod hammer;
pub mod harness;
pub mod leakage;
mod live;
pub mod provenance;
pub mod scale;
pub mod table;

pub use cli::TelemetryArgs;
pub use figure::Figure;
pub use harness::Cell;
pub use scale::Scale;
