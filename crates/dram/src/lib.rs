//! `dram-sim` — a cycle-level DDR3 memory-system simulator.
//!
//! This crate is the USIMM-class substrate the Secure DIMM paper evaluates
//! on: channels of ranks and banks under full DDR3 timing constraints, an
//! FR-FCFS scheduler with read priority and write-queue draining, refresh,
//! precharge power-down, and a Micron-power-calculator-style energy model.
//!
//! It serves three roles in the reproduction:
//!
//! 1. the **main memory channels** of the non-secure and Freecursive
//!    baselines (a [`channel::DramChannel`] per channel, driven by the
//!    system crate's executor);
//! 2. each SDIMM's **internal channel** between the secure buffer and its
//!    DRAM devices (a quad-rank [`channel::DramChannel`] with on-DIMM I/O
//!    energy);
//! 3. the **shared external bus** carrying SDIMM buffer commands
//!    ([`bus::Bus`]).
//!
//! # Example
//!
//! ```
//! use dram_sim::{channel::DramChannel, config::ChannelConfig};
//!
//! let mut ch = DramChannel::new(ChannelConfig::table2());
//! let id = ch.enqueue_read(0x4_0000).expect("queue space");
//! let done = ch.run_until_idle(100_000);
//! assert!(done.iter().any(|comp| comp.id == id));
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod address;
pub mod bank;
pub mod bus;
pub mod channel;
pub mod cmdlog;
pub mod config;
pub mod power;
pub mod rank;
pub mod request;
pub mod spec;
pub mod stats;
pub mod wear;
