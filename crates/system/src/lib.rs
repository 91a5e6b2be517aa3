//! `sdimm-system` — full-system trace-driven simulation tying everything
//! together.
//!
//! A [`machine::Machine`] couples:
//!
//! * the CPU-side frontend (`oram::freecursive::Frontend`, the PLB +
//!   recursion walk),
//! * a functional ORAM backend behind `sdimm::Protocol` (the baselines'
//!   interleaved Path ORAM or one of the SDIMM protocols; none for the
//!   non-secure machine),
//! * and the cycle-level [`executor::Executor`] over `dram-sim` channels
//!   and buses.
//!
//! [`runner::run`] replays a `workloads` trace through the Table II LLC
//! with a warm-up window, then measures cycles, latency, and energy —
//! the harness behind every performance figure in the paper.
//!
//! # Example
//!
//! ```no_run
//! use sdimm_system::machine::{MachineKind, SystemConfig};
//! use sdimm_system::runner;
//! use workloads::spec;
//!
//! let trace = spec::generate("gromacs-like", 3_000, 1);
//! let base = runner::run(
//!     &SystemConfig::small(MachineKind::Freecursive { channels: 1 }),
//!     &trace, 1_000, 1_000);
//! let indep = runner::run(
//!     &SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 }),
//!     &trace, 1_000, 1_000);
//! println!("speedup: {:.2}x",
//!     base.cycles_per_record() / indep.cycles_per_record());
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod executor;
pub mod llc;
pub mod machine;
pub mod runner;

/// Version tag of the event-horizon execution engine ([`executor`]).
/// Bumped whenever the advancement algorithm changes in a way that can
/// shift cycle counts, so persisted reports can be traced back to the
/// engine that produced them.
pub const ENGINE_VERSION: &str = "horizon-2";

pub use machine::{Machine, MachineKind, SystemConfig};
pub use runner::{run, RunResult};
