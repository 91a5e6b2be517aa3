//! `oram` — Path ORAM and the Freecursive frontend, the algorithmic
//! substrate of the Secure DIMM reproduction.
//!
//! The crate is split into a **functional layer** and a **traffic layer**:
//!
//! * Functionally, [`path_oram::PathOram`] stores real payload bytes in a
//!   sparse binary tree with a stash and position map — so "read your
//!   writes" correctness and the Path ORAM invariant are directly
//!   testable — and [`freecursive::Frontend`] plans the recursive
//!   position-map accesses and PLB write-backs each CPU request needs,
//!   which every simulated machine executes on its own backend.
//!   [`integrity::SealedTree`] shows the PMMAC encryption/MAC machinery
//!   end to end.
//! * For timing, each access also emits an [`plan::AccessPlan`] listing
//!   the exact cache-line addresses read and written (via
//!   [`layout::TreeLayout`], either the subtree-packed baseline layout or
//!   the low-power rank-localized layout). The system simulator replays
//!   plans against `dram-sim`.
//!
//! One deliberate modeling choice: position-map *contents* are resolved
//! through the backend's flat map (ground truth), while the recursion and
//! PLB machinery faithfully generate the **access sequence** (which
//! position-map blocks are fetched, when, and the write-backs caused by
//! dirty PLB evictions). Data-block payloads are end-to-end real.
//!
//! # Example
//!
//! ```
//! use oram::{PathOram, types::{BlockId, Op, OramConfig}};
//!
//! let mut oram = PathOram::new(OramConfig::tiny(), 100, 42);
//! oram.access(BlockId(7), Op::Write, Some(b"secret"));
//! let (data, plan) = oram.access(BlockId(7), Op::Read, None);
//! assert_eq!(data, b"secret");
//! // The plan lists the memory lines a timing simulator must replay.
//! assert_eq!(plan.total_lines(), oram.config().lines_per_access());
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bucket;
pub mod freecursive;
pub mod geometry;
pub mod integrity;
pub mod layout;
pub mod path_oram;
pub mod plan;
pub mod plb;
pub mod posmap;
pub mod stash;
pub mod types;
pub mod wear;

pub use path_oram::PathOram;
pub use plan::AccessPlan;
pub use types::{BlockId, Leaf, Op, OramConfig};
