//! Configuration for the DRAM memory-system model.
//!
//! The DDR3-1600 configuration reproduces Table II of the paper: a Micron
//! MT41J256M8-class x8 part, 8 banks/chip, 32768 rows/bank, an 8 KB row
//! buffer per rank, 9 devices per 72-bit rank, up to 8 ranks per channel,
//! and a 1600 MT/s (800 MHz clock) bus. All timing values are expressed in
//! memory-clock cycles (tCK = 1.25 ns at DDR3-1600).
//!
//! Every standard, DDR3-1600 included, is one [`crate::spec::DramSpec`]
//! table: [`ChannelConfig::table2_for`] / [`ChannelConfig::sdimm_internal_for`]
//! build its channel configurations, and [`ChannelConfig::table2`] /
//! [`ChannelConfig::sdimm_internal`] are the DDR3-1600 ones.
//!
//! The values the paper fixes for every channel are constants, not
//! fields: the 64-byte line ([`LINE_BYTES`]), the 64-entry read and write
//! queues, and the write drain from 40 down to 20 entries (Table II,
//! §IV-A). No rank powers down on its own: only the §III-E low-power
//! protocol does, by pinning ranks
//! ([`crate::channel::DramChannel::force_rank_down`]).

use crate::spec::{DramSpec, DramStandard};

/// A point in simulated time, in memory-clock cycles (800 MHz ⇒ 1.25 ns).
pub type Cycle = u64;

/// Cache-line / transfer size in bytes, common to every modeled spec.
pub const LINE_BYTES: usize = 64;

/// Read-queue capacity (Table II: 64); enqueues stall beyond it.
pub const READ_QUEUE_CAPACITY: usize = 64;

/// Write-queue capacity (Table II: 64); enqueues stall beyond it.
pub const WRITE_QUEUE_CAPACITY: usize = 64;

/// Write-queue depth that starts a drain (Table II / §IV-A: 40): reads
/// are prioritized until the write queue reaches it, then writes drain
/// until it falls to [`WRITE_DRAIN_LO`].
pub const WRITE_DRAIN_HI: usize = 40;

/// Write-queue depth at which a drain ends.
pub const WRITE_DRAIN_LO: usize = 20;

/// DRAM timing constraints, in memory-clock cycles.
///
/// Field names follow the JEDEC parameter names. Only the constraints that
/// affect scheduling decisions at cache-line granularity are modeled.
///
/// For standards with bank groups (DDR4, HBM2) the JEDEC short/long pairs
/// are split: `t_rrd`/`t_ccd` hold the *short* (different-bank-group)
/// values and `t_rrd_l`/`t_ccd_l` the *long* (same-bank-group) values.
/// Standards without bank groups (DDR3, LPDDR4) set long equal to short,
/// which makes the bank-group constraint classes degenerate exactly to
/// the classic rank-wide rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    /// CAS (read) latency: RD command to first data beat.
    pub cl: Cycle,
    /// CAS write latency: WR command to first data beat.
    pub cwl: Cycle,
    /// ACT to internal RD/WR delay.
    pub t_rcd: Cycle,
    /// PRE to ACT delay (row precharge time).
    pub t_rp: Cycle,
    /// ACT to PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT to ACT same bank (row cycle time).
    pub t_rc: Cycle,
    /// ACT to ACT different bank, same rank (tRRD_S where bank groups
    /// exist: the constraint between *different* bank groups).
    pub t_rrd: Cycle,
    /// ACT to ACT within the *same* bank group (tRRD_L). Equal to
    /// [`Timing::t_rrd`] for standards without bank groups.
    pub t_rrd_l: Cycle,
    /// Four-activate window per rank.
    pub t_faw: Cycle,
    /// Write recovery: end of write burst to PRE.
    pub t_wr: Cycle,
    /// Write-to-read turnaround, same rank: end of write burst to RD.
    pub t_wtr: Cycle,
    /// Read-to-precharge delay.
    pub t_rtp: Cycle,
    /// CAS-to-CAS delay (tCCD_S where bank groups exist: the burst gap
    /// between *different* bank groups).
    pub t_ccd: Cycle,
    /// CAS-to-CAS delay within the *same* bank group (tCCD_L). Equal to
    /// [`Timing::t_ccd`] for standards without bank groups.
    pub t_ccd_l: Cycle,
    /// Data burst duration in clocks. Derived from the burst length on a
    /// double-data-rate bus (`burst_length / 2`, e.g. BL8 ⇒ 4 clocks);
    /// [`crate::spec::DramSpec::validate`] rejects tables where this
    /// field drifts from the geometry it is derived from.
    pub t_burst: Cycle,
    /// Rank-to-rank switching penalty on the shared data bus.
    pub t_rtrs: Cycle,
    /// Average refresh interval per rank.
    pub t_refi: Cycle,
    /// Refresh cycle time (rank is unavailable).
    pub t_rfc: Cycle,
    /// Minimum CKE low time (power-down residency).
    pub t_cke: Cycle,
    /// Power-down exit latency ("wakeup latency", ~24 ns in the paper).
    pub t_xp: Cycle,
}

impl Timing {
    /// DDR3-1600 (11-11-11) timing, the Table II configuration.
    pub fn ddr3_1600() -> Self {
        Timing {
            cl: 11,
            cwl: 8,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_rrd: 6,
            t_rrd_l: 6,
            t_faw: 32,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_ccd: 4,
            t_ccd_l: 4,
            t_burst: 4,
            t_rtrs: 2,
            t_refi: 6240,
            t_rfc: 208,
            t_cke: 4,
            t_xp: 20, // ≈24 ns slow power-down exit at 1.25 ns/cycle
        }
    }

    /// DDR3-800 (6-6-6) timing, for the slower-device sensitivity runs.
    pub fn ddr3_800() -> Self {
        Timing {
            cl: 6,
            cwl: 5,
            t_rcd: 6,
            t_rp: 6,
            t_ras: 15,
            t_rc: 21,
            t_rrd: 4,
            t_rrd_l: 4,
            t_faw: 20,
            t_wr: 6,
            t_wtr: 4,
            t_rtp: 4,
            t_ccd: 4,
            t_ccd_l: 4,
            t_burst: 4,
            t_rtrs: 2,
            t_refi: 3120,
            t_rfc: 104,
            t_cke: 3,
            t_xp: 10,
        }
    }

    /// Write command to earliest same-bank PRE: CWL + tBURST + tWR (write
    /// recovery is measured from the end of the data burst).
    pub fn write_to_pre(&self) -> Cycle {
        self.cwl.saturating_add(self.t_burst).saturating_add(self.t_wr)
    }
}

/// Geometry of one memory channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Ranks on this channel (Table II: 8 ranks per channel, i.e. 2 DIMMs
    /// of 4 ranks; an SDIMM's internal channel has 4).
    pub ranks: usize,
    /// Banks per rank (8 for DDR3, 16 for DDR4/HBM2).
    pub banks: usize,
    /// Bank groups per rank (1 for DDR3/LPDDR4, 4 for DDR4/HBM2). Banks
    /// are split evenly: bank `b` belongs to group `b / banks_per_group`.
    pub bank_groups: usize,
    /// Rows per bank (32768 in Table II).
    pub rows: usize,
    /// Row-buffer (page) size in bytes per rank (8 KB in Table II).
    pub row_bytes: usize,
}

impl Topology {
    /// The Table II channel: 8 ranks × 8 banks × 32768 rows × 8 KB rows.
    pub fn table2_channel() -> Self {
        DramSpec::ddr3_1600().topology(8)
    }

    /// One SDIMM's internal channel: a quad-rank DIMM.
    pub fn sdimm_internal() -> Self {
        DramSpec::ddr3_1600().topology(4)
    }

    /// Banks in each bank group (all banks for group-less standards).
    pub fn banks_per_group(&self) -> usize {
        self.banks / self.bank_groups.max(1)
    }

    /// Cache lines per row buffer.
    pub fn lines_per_row(&self) -> usize {
        self.row_bytes / LINE_BYTES
    }

    /// Total capacity of the channel in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.ranks * self.banks * self.rows * self.row_bytes
    }

    /// Total addressable cache lines on the channel.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_bytes() / LINE_BYTES
    }
}

/// Scheduling policy for the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// First-ready, first-come-first-served: row hits first, then oldest.
    /// The paper's backend scheduler (Rixner et al. \[21\]).
    #[default]
    FrFcfs,
    /// Strict first-come-first-served (ablation baseline).
    Fcfs,
}

/// DRAM device current/voltage parameters used by the energy model
/// (Micron power-calculator methodology, per-device values).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Operating one-bank-active-precharge current (mA).
    pub idd0: f64,
    /// Precharge power-down current (mA).
    pub idd2p: f64,
    /// Precharge standby current (mA).
    pub idd2n: f64,
    /// Active power-down current (mA).
    pub idd3p: f64,
    /// Active standby current (mA).
    pub idd3n: f64,
    /// Burst read current (mA).
    pub idd4r: f64,
    /// Burst write current (mA).
    pub idd4w: f64,
    /// Refresh current (mA).
    pub idd5: f64,
    /// DRAM devices per rank (Table II: 9 × x8 for a 72-bit channel).
    pub devices_per_rank: usize,
    /// I/O + termination energy per bit crossing the off-DIMM channel (pJ).
    pub io_pj_per_bit_offdimm: f64,
    /// I/O energy per bit on the short on-DIMM bus between the buffer chip
    /// and the DRAM devices (pJ). Much lower trace length/termination.
    pub io_pj_per_bit_ondimm: f64,
}

impl PowerParams {
    /// Micron 4 Gb DDR3-1600 x8 datasheet-class values.
    pub fn ddr3_1600_x8() -> Self {
        PowerParams {
            vdd: 1.5,
            idd0: 95.0,
            idd2p: 12.0,
            idd2n: 42.0,
            idd3p: 40.0,
            idd3n: 45.0,
            idd4r: 180.0,
            idd4w: 185.0,
            idd5: 215.0,
            devices_per_rank: 9,
            io_pj_per_bit_offdimm: 4.6,
            io_pj_per_bit_ondimm: 1.4,
        }
    }
}

/// Where a channel physically lives, which selects the I/O energy constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelLocation {
    /// A conventional motherboard channel between CPU and DIMMs.
    #[default]
    OffDimm,
    /// The internal bus between an SDIMM's secure buffer and its DRAM
    /// devices (shorter traces, lower I/O energy).
    OnDimm,
}

/// Complete configuration for one simulated channel.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// The memory standard this channel models. Carried alongside the
    /// expanded `timing`/`topology` so replay auditors and report
    /// provenance can name the spec the channel actually ran.
    pub standard: DramStandard,
    /// Timing constraints.
    pub timing: Timing,
    /// Channel geometry.
    pub topology: Topology,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Energy-model device parameters.
    pub power: PowerParams,
    /// Physical location (selects I/O energy constant).
    pub location: ChannelLocation,
    /// Enable periodic refresh (tREFI/tRFC). Disable for microbenchmarks.
    pub refresh_enabled: bool,
}

impl ChannelConfig {
    /// The Table II baseline channel configuration.
    pub fn table2() -> Self {
        ChannelConfig::table2_for(DramStandard::Ddr3_1600)
    }

    /// An SDIMM internal channel: quad-rank, on-DIMM I/O energy.
    pub fn sdimm_internal() -> Self {
        ChannelConfig::sdimm_internal_for(DramStandard::Ddr3_1600)
    }

    /// The Table II-class main channel (8 ranks, off-DIMM) for any
    /// supported memory standard.
    pub fn table2_for(standard: DramStandard) -> Self {
        standard.spec().main_channel()
    }

    /// The SDIMM internal channel (4 ranks, on-DIMM) for any supported
    /// memory standard.
    pub fn sdimm_internal_for(standard: DramStandard) -> Self {
        standard.spec().sdimm_internal_channel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_1600_sane_relationships() {
        let t = Timing::ddr3_1600();
        assert!(t.t_rc >= t.t_ras + t.t_rp);
        assert!(t.t_ras >= t.t_rcd);
        // The four-activate window must cover four tRRD-spaced ACTs. An
        // earlier version of this assert wrote `4 * t.t_rrd / 2`, which
        // precedence-reduces to 2×tRRD and let a broken table pass; the
        // full relationship (and more) is also enforced for every spec
        // table by `DramSpec::validate`.
        assert!(t.t_faw >= 4 * t.t_rrd, "FAW must cover four tRRD-spaced ACTs");
        assert!(t.cl >= t.cwl);
    }

    #[test]
    fn faw_assert_uses_the_full_four_activate_window() {
        // Regression for the precedence bug: a table whose tFAW covers
        // only 2×tRRD must fail the JEDEC relationship.
        let mut t = Timing::ddr3_1600();
        t.t_faw = 2 * t.t_rrd + 1;
        assert!(t.t_faw >= 4 * t.t_rrd / 2, "the buggy form accepted this table");
        assert!(t.t_faw < 4 * t.t_rrd, "the fixed form must reject it");
    }

    #[test]
    fn table2_capacity_is_16_gb() {
        // 8 ranks × 8 banks × 32768 rows × 8 KB = 16 GiB per channel; the
        // paper's 32 GB system uses two channels.
        let topo = Topology::table2_channel();
        assert_eq!(topo.capacity_bytes(), 16 * (1usize << 30));
    }

    #[test]
    fn lines_per_row_matches_8kb_rows() {
        assert_eq!(Topology::table2_channel().lines_per_row(), 128);
    }

    #[test]
    fn sdimm_internal_is_quad_rank_on_dimm() {
        let c = ChannelConfig::sdimm_internal();
        assert_eq!(c.topology.ranks, 4);
        assert_eq!(c.location, ChannelLocation::OnDimm);
    }

    #[test]
    fn write_drain_defaults_match_paper() {
        // Table II: a 64-entry write queue that drains from 40 down to 20.
        assert_eq!((WRITE_QUEUE_CAPACITY, WRITE_DRAIN_HI, WRITE_DRAIN_LO), (64, 40, 20));
        assert_eq!(READ_QUEUE_CAPACITY, 64);
    }

    #[test]
    fn power_down_exit_close_to_24ns() {
        // tXP ≈ 24 ns at 1.25 ns/cycle ⇒ ~19–20 cycles.
        let t = Timing::ddr3_1600();
        let ns = t.t_xp as f64 * 1.25;
        assert!((ns - 24.0).abs() <= 2.0, "tXP models the paper's 24 ns wakeup, got {ns} ns");
    }
}
