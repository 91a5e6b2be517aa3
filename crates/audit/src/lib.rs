//! Differential correctness harness for the Secure DIMM reproduction.
//!
//! The simulator's answers are only as trustworthy as its two hardest
//! layers: the cycle-level DDR3 channel (a dense web of inter-command
//! timing constraints) and the ORAM protocol stack (where a silent
//! data-corruption bug changes nothing about performance curves). This
//! crate checks both *differentially* — with independent
//! implementations that share no code with the models they audit:
//!
//! * [`ddr`] replays the per-channel command stream recorded by
//!   `dram_sim::cmdlog` through a from-scratch constraint table and
//!   reports the first DDR3 protocol violation with full context.
//! * [`oracle`] drives a machine's own ORAM backend, behind its
//!   frontend, in lockstep with a plain shadow map and re-checks from
//!   outside what no timing number shows: returned bytes, the stash
//!   bound, the per-trace traffic model, PMMAC counter monotonicity and
//!   the trees' Path ORAM invariant.
//!
//! Both auditors are cheap enough to leave on for quick-scale figure
//! runs (`--audit` on the figure binaries) and run in CI.

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod ddr;
pub mod oracle;
pub mod recount;

pub use ddr::{violation_recorder, AuditSummary, Constraints, DdrAuditor, Violation};
pub use oracle::{lockstep, serve, OracleMismatch, OracleReport, ShadowMem};
pub use recount::{check_against_snapshot, recount_channel, ActRecount};
