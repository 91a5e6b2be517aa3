//! `sdimm` — the Secure DIMM architecture and its distributed ORAM
//! protocols (the primary contribution of the HPCA 2018 paper).
//!
//! A Secure DIMM replaces the passive LRDIMM buffer with a trusted secure
//! buffer that runs the ORAM backend next to the DRAM devices. This crate
//! implements:
//!
//! * [`baseline`] — the secure baselines the SDIMM designs are measured
//!   against (plain Path ORAM and Freecursive): one tree whose whole
//!   path is interleaved over the main-memory channels.
//! * [`commands`] — the Table I command set shoehorned into the DDR
//!   interface (reserved-address RAS/CAS encodings, short vs long).
//! * [`buffer`] — a wire-level secure-buffer model: the full encrypted
//!   message exchange (`ACCESS`/`PROBE`/`FETCH_RESULT`/`APPEND`) running
//!   against real per-SDIMM Path ORAMs, from boot-time authentication up.
//! * [`independent`] — the routed protocols: one subtree per group of
//!   SDIMMs, all-SDIMM `APPEND` fan-out, transfer queues. One SDIMM per
//!   group is the Independent protocol (`ACCESS`/`PROBE`/`FETCH_RESULT`
//!   flow); a Split group per subtree is the combined Indep-Split
//!   architecture (2 groups × 2-way split).
//! * [`split`] — the Split protocol: every bucket byte-striped across k
//!   SDIMMs, CPU-side metadata reassembly, `FETCH_DATA`/`FETCH_STASH`/
//!   `RECEIVE_LIST` flow.
//! * [`Protocol`] — the backend interface all three implement; the
//!   CPU-side frontend that plans their `accessORAM`s is
//!   `oram::freecursive::Frontend`.
//! * [`transfer_queue`] — the §IV-C transfer queue with probabilistic
//!   forced drain.
//! * [`obliviousness`] — the attacker's view of a trace and the
//!   indistinguishability (shape) checker backing §III-G.
//! * [`trace`] — the timing contract ([`trace::RequestTrace`]) consumed
//!   by the cycle-level executor in `sdimm-system`.
//!
//! # Example
//!
//! ```
//! use sdimm::independent::{IndependentConfig, IndependentOram};
//! use sdimm::Protocol;
//! use oram::types::{BlockId, Op, OramConfig};
//!
//! let global = OramConfig { levels: 8, ..OramConfig::tiny() };
//! let mut oram = IndependentOram::new(IndependentConfig::new(2, 1, &global), 128, 1);
//! oram.access(BlockId(3), Op::Write, Some(b"cloud secret"));
//! let (data, trace) = oram.access(BlockId(3), Op::Read, None);
//! assert_eq!(data, b"cloud secret");
//! // Most traffic stayed on-DIMM:
//! assert!(trace.external_bytes() < 64 * 8);
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod baseline;
pub mod buffer;
pub mod commands;
#[cfg(test)]
mod indep_split;
pub mod independent;
pub mod obliviousness;
pub mod split;
pub mod trace;
pub mod transfer_queue;

pub use baseline::BaselineOram;
pub use commands::SdimmCommand;
pub use independent::{IndependentConfig, IndependentOram};
pub use split::{SplitConfig, SplitOram};
pub use trace::{Activity, Phase, RequestTrace};

use oram::path_oram::PathOram;
use oram::types::{BlockId, Op};
use oram::wear::LevelWear;

/// The backend of a secure machine: one `accessORAM` at a time over one
/// or more Path ORAM trees, plus the observability hooks a simulated
/// machine attaches to it. Implemented by [`BaselineOram`] (the
/// PATHORAM and FREECURSIVE baselines), [`SplitOram`], and the routed
/// [`IndependentOram`], which serves both Independent (one SDIMM per
/// group) and Indep-Split (a Split group per subtree).
///
/// A backend supplies only what differs between designs: `access`, its
/// trees, its metrics and its channel-address inverse. Stash occupancy,
/// trace attachment, level wear and invariant checks are written once,
/// here, over [`Protocol::trees`]. What an attacker sees of an access is
/// not a hook either: [`obliviousness::observables`] projects it from
/// the trace `access` returns.
pub trait Protocol: std::fmt::Debug {
    /// Executes one `accessORAM(id, op, data)`, returning the block's
    /// contents and the timing trace.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the id space given at construction.
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace);

    /// The backend's Path ORAM trees. Tree *i* is the backend the traces
    /// of its accesses claim as `backend == Some(i)`.
    fn trees(&self) -> &[PathOram];

    /// The same trees, mutably.
    fn trees_mut(&mut self) -> &mut [PathOram];

    /// Exports the backend's ORAM metrics as a registry.
    fn metrics(&self) -> sdimm_telemetry::MetricsRegistry;

    /// Attributes a line address seen by DRAM channel `channel` to the
    /// ORAM tree level whose bucket owns it.
    fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32>;

    /// Highest current stash occupancy across the trees (the value the
    /// per-tree stash bound applies to).
    fn max_stash_len(&self) -> usize {
        self.trees().iter().map(PathOram::stash_len).max().unwrap_or(0)
    }

    /// Peak stash occupancy over the trees.
    fn stash_peak(&self) -> usize {
        self.trees().iter().map(PathOram::stash_peak).max().unwrap_or(0)
    }

    /// Attaches a cell's trace handle to every stash, for occupancy
    /// ticks; tree *i* records as backend *i*.
    fn set_trace(&mut self, trace: sdimm_telemetry::CellTrace) {
        for (i, tree) in self.trees_mut().iter_mut().enumerate() {
            tree.set_trace(trace.clone(), i.min(u8::MAX as usize) as u8);
        }
    }

    /// Per-tree-level wear merged across the trees. They share a
    /// geometry, so the merge is level-aligned.
    fn level_wear(&self) -> LevelWear {
        let mut total = LevelWear::default();
        for tree in self.trees() {
            total.merge(tree.level_wear());
        }
        total
    }

    /// Verifies every tree's Path ORAM invariant (tests).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    fn check_invariants(&self) {
        for tree in self.trees() {
            tree.check_invariant();
        }
    }
}
