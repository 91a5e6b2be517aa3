//! Spec-driven memory-standard backends.
//!
//! A [`DramSpec`] describes one memory standard entirely as data: its
//! bank-group geometry, data-bus width, burst length, the full
//! [`Timing`] table, and datasheet-class device power parameters. The
//! scheduler ([`crate::channel::DramChannel`]) and the independent
//! replay auditor (`sdimm-audit`) are both parameterized by the same
//! spec through [`ChannelConfig`], so adding a standard is a pure data
//! change — every timing rule (including the bank-group-aware
//! `tCCD_S`/`tCCD_L` and `tRRD_S`/`tRRD_L` classes DDR3 never needed)
//! is then re-validated from scratch on its captured command streams.
//!
//! [`DramSpec::validate`] enforces the cross-field JEDEC relationships
//! (burst duration derived from burst length on a double-data-rate bus,
//! the full four-activate window, long ≥ short constraint pairs, …) so
//! a hand-edited table cannot ship internally inconsistent bus
//! occupancy vs CAS-gap timing.

use crate::config::{
    ChannelConfig, ChannelLocation, Cycle, PowerParams, SchedulerPolicy, Timing, Topology,
    LINE_BYTES,
};

/// The memory standards this simulator ships timing tables for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DramStandard {
    /// DDR3-1600 (11-11-11), the paper's Table II configuration.
    #[default]
    Ddr3_1600,
    /// DDR3-800 (6-6-6), the slower-device sensitivity point.
    Ddr3_800,
    /// DDR4-2400 (17-17-17): 16 banks in 4 bank groups, x64 BL8.
    Ddr4_2400,
    /// LPDDR4-3200: x32 bus, BL16, no bank groups, slow cores.
    Lpddr4_3200,
    /// HBM2 (1 Gb/s/pin pseudo-channel): x128 bus, BL4, 4 bank groups.
    Hbm2,
}

impl DramStandard {
    /// Every supported standard, in crossover-figure presentation order.
    pub const ALL: [DramStandard; 5] = [
        DramStandard::Ddr3_1600,
        DramStandard::Ddr3_800,
        DramStandard::Ddr4_2400,
        DramStandard::Lpddr4_3200,
        DramStandard::Hbm2,
    ];

    /// The canonical lowercase name (the value `--standard` accepts).
    pub fn name(&self) -> &'static str {
        match self {
            DramStandard::Ddr3_1600 => "ddr3_1600",
            DramStandard::Ddr3_800 => "ddr3_800",
            DramStandard::Ddr4_2400 => "ddr4_2400",
            DramStandard::Lpddr4_3200 => "lpddr4_3200",
            DramStandard::Hbm2 => "hbm2",
        }
    }

    /// Parses a standard name as given on a command line. Accepts the
    /// canonical names with `_` or `-` separators, case-insensitively.
    pub fn parse(s: &str) -> Option<Self> {
        let norm = s.to_ascii_lowercase().replace('-', "_");
        DramStandard::ALL.into_iter().find(|std| std.name() == norm)
    }

    /// The full spec table for this standard.
    pub fn spec(&self) -> DramSpec {
        match self {
            DramStandard::Ddr3_1600 => DramSpec::ddr3_1600(),
            DramStandard::Ddr3_800 => DramSpec::ddr3_800(),
            DramStandard::Ddr4_2400 => DramSpec::ddr4_2400(),
            DramStandard::Lpddr4_3200 => DramSpec::lpddr4_3200(),
            DramStandard::Hbm2 => DramSpec::hbm2(),
        }
    }
}

/// One memory standard expressed as data: geometry, bus shape, the full
/// timing table, and device power parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DramSpec {
    /// Which standard this table describes.
    pub standard: DramStandard,
    /// Bank groups per rank (1 where the standard has none).
    pub bank_groups: usize,
    /// Banks per rank, across all groups.
    pub banks: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Row-buffer size in bytes per rank.
    pub row_bytes: usize,
    /// Data-bus width in bits per channel.
    pub bus_bits: usize,
    /// Burst length in beats (transfers per CAS).
    pub burst_length: usize,
    /// The full timing table, in this standard's memory-clock cycles.
    pub timing: Timing,
    /// Device currents/voltage for the energy model.
    pub power: PowerParams,
    /// RowHammer disturbance budget: activations of a physically
    /// adjacent row, accumulated within one victim refresh window, at
    /// which bit flips become plausible. Denser/newer processes flip at
    /// lower counts, so the value shrinks from DDR3 to HBM2.
    pub hammer_threshold: u64,
    /// REF commands needed to refresh every row once (tREFW / tREFI):
    /// each REF advances an internal round-robin counter over
    /// `rows / refresh_rounds` rows per bank.
    pub refresh_rounds: u64,
}

impl DramSpec {
    /// DDR3-1600: the Table II configuration as a spec table. Identical
    /// values to [`Timing::ddr3_1600`] / [`Topology::table2_channel`].
    pub fn ddr3_1600() -> Self {
        DramSpec {
            standard: DramStandard::Ddr3_1600,
            bank_groups: 1,
            banks: 8,
            rows: 32768,
            row_bytes: 8192,
            bus_bits: 64,
            burst_length: 8,
            timing: Timing::ddr3_1600(),
            power: PowerParams::ddr3_1600_x8(),
            hammer_threshold: 139_000, // first-generation disturbance point
            refresh_rounds: 8192,      // 64 ms tREFW / 7.8 µs tREFI
        }
    }

    /// DDR3-800 (6-6-6), sharing the DDR3 geometry.
    pub fn ddr3_800() -> Self {
        DramSpec {
            standard: DramStandard::Ddr3_800,
            timing: Timing::ddr3_800(),
            ..DramSpec::ddr3_1600()
        }
    }

    /// DDR4-2400 (17-17-17), datasheet-class 8 Gb x8 values at
    /// tCK = 0.833 ns: 16 banks in 4 groups, and the first table where
    /// the short/long constraint pairs split (tCCD 4/6, tRRD 4/6).
    pub fn ddr4_2400() -> Self {
        DramSpec {
            standard: DramStandard::Ddr4_2400,
            bank_groups: 4,
            banks: 16,
            rows: 32768,
            row_bytes: 8192,
            bus_bits: 64,
            burst_length: 8,
            timing: Timing {
                cl: 17,
                cwl: 12,
                t_rcd: 17,
                t_rp: 17,
                t_ras: 39,
                t_rc: 56,
                t_rrd: 4,   // tRRD_S
                t_rrd_l: 6, // tRRD_L
                t_faw: 26,  // 21.5 ns
                t_wr: 18,   // 15 ns
                t_wtr: 9,   // tWTR_L 7.5 ns
                t_rtp: 9,   // 7.5 ns
                t_ccd: 4,   // tCCD_S = BL/2
                t_ccd_l: 6, // tCCD_L 5 ns
                t_burst: 4, // BL8 on a DDR bus
                t_rtrs: 2,
                t_refi: 9363, // 7.8 µs
                t_rfc: 421,   // 350 ns (8 Gb)
                t_cke: 6,     // 5 ns
                t_xp: 8,      // 6 ns
            },
            power: PowerParams {
                vdd: 1.2,
                idd0: 58.0,
                idd2p: 30.0,
                idd2n: 50.0,
                idd3p: 44.0,
                idd3n: 62.0,
                idd4r: 165.0,
                idd4w: 160.0,
                idd5: 260.0,
                devices_per_rank: 9,
                io_pj_per_bit_offdimm: 3.9,
                io_pj_per_bit_ondimm: 1.2,
            },
            hammer_threshold: 50_000, // ~3x tighter than DDR3-era parts
            refresh_rounds: 8192,     // 64 ms tREFW / 7.8 µs tREFI
        }
    }

    /// LPDDR4-3200 at tCK = 0.625 ns: a x32 channel, so a 64-byte line
    /// needs BL16 (8 clocks on the bus) — the long-burst end of the
    /// crossover figure. No bank groups; long constraints equal short.
    pub fn lpddr4_3200() -> Self {
        DramSpec {
            standard: DramStandard::Lpddr4_3200,
            bank_groups: 1,
            banks: 8,
            rows: 32768,
            row_bytes: 4096,
            bus_bits: 32,
            burst_length: 16,
            timing: Timing {
                cl: 28,
                cwl: 14,
                t_rcd: 29, // 18 ns
                t_rp: 34,  // 21 ns
                t_ras: 68, // 42 ns
                t_rc: 102,
                t_rrd: 16, // 10 ns
                t_rrd_l: 16,
                t_faw: 64, // 40 ns
                t_wr: 29,  // 18 ns
                t_wtr: 16, // 10 ns
                t_rtp: 12, // 7.5 ns
                t_ccd: 8,  // BL16/2
                t_ccd_l: 8,
                t_burst: 8,
                t_rtrs: 2,
                t_refi: 6240, // 3.9 µs
                t_rfc: 288,   // 180 ns (8 Gb)
                t_cke: 12,    // 7.5 ns
                t_xp: 12,     // 7.5 ns
            },
            power: PowerParams {
                vdd: 1.1,
                idd0: 24.0,
                idd2p: 1.2,
                idd2n: 6.0,
                idd3p: 2.4,
                idd3n: 16.0,
                idd4r: 160.0,
                idd4w: 170.0,
                idd5: 60.0,
                devices_per_rank: 2, // 2 × x16 dies per 32-bit channel
                io_pj_per_bit_offdimm: 2.0,
                io_pj_per_bit_ondimm: 0.8,
            },
            hammer_threshold: 40_000, // mobile-density parts flip earlier
            refresh_rounds: 8192,     // 32 ms tREFW / 3.9 µs tREFI
        }
    }

    /// HBM2 pseudo-channel at tCK = 1 ns (2 Gb/s/pin): a x128 bus moves
    /// a 64-byte line in BL4 (2 clocks) — the short-burst end of the
    /// crossover figure. 16 banks in 4 groups, small 2 KB rows.
    pub fn hbm2() -> Self {
        DramSpec {
            standard: DramStandard::Hbm2,
            bank_groups: 4,
            banks: 16,
            rows: 16384,
            row_bytes: 2048,
            bus_bits: 128,
            burst_length: 4,
            timing: Timing {
                cl: 14,
                cwl: 6,
                t_rcd: 14,
                t_rp: 14,
                t_ras: 33,
                t_rc: 47,
                t_rrd: 4,   // tRRD_S
                t_rrd_l: 6, // tRRD_L
                t_faw: 20,
                t_wr: 16,
                t_wtr: 8,
                t_rtp: 7,
                t_ccd: 2,   // tCCD_S = BL/2
                t_ccd_l: 4, // tCCD_L
                t_burst: 2, // BL4 on a DDR bus
                t_rtrs: 2,
                t_refi: 3900, // 3.9 µs
                t_rfc: 260,   // 260 ns (8 Gb stack layer)
                t_cke: 8,
                t_xp: 8,
            },
            power: PowerParams {
                vdd: 1.2,
                idd0: 65.0,
                idd2p: 20.0,
                idd2n: 40.0,
                idd3p: 30.0,
                idd3n: 55.0,
                idd4r: 145.0,
                idd4w: 150.0,
                idd5: 180.0,
                devices_per_rank: 1,        // one stack serves the pseudo-channel
                io_pj_per_bit_offdimm: 0.8, // 2.5D interposer link
                io_pj_per_bit_ondimm: 0.5,
            },
            hammer_threshold: 30_000, // stacked dies are the most fragile
            refresh_rounds: 16384,    // small rows: 64 ms tREFW / 3.9 µs tREFI
        }
    }

    /// Data-burst duration in clocks implied by the bus shape: on a
    /// double-data-rate bus, `burst_length` beats take `burst_length/2`
    /// clocks. The authoritative derivation for [`Timing::t_burst`].
    pub fn derived_burst_cycles(&self) -> Cycle {
        (self.burst_length / 2) as Cycle
    }

    /// Burst length implied by moving one cache line over `bus_bits`.
    pub fn derived_burst_length(&self) -> usize {
        LINE_BYTES * 8 / self.bus_bits
    }

    /// Cross-field JEDEC sanity checks, run for every shipped table (a
    /// unit test walks [`DramStandard::ALL`]) and cheap enough to call
    /// at channel construction in debug builds.
    ///
    /// Returns a description of the first violated relationship.
    pub fn validate(&self) -> Result<(), String> {
        let t = &self.timing;
        let name = self.standard.name();
        if self.bank_groups == 0 || !self.banks.is_multiple_of(self.bank_groups) {
            return Err(format!(
                "{name}: {} banks do not split evenly into {} bank groups",
                self.banks, self.bank_groups
            ));
        }
        if self.burst_length != self.derived_burst_length() {
            return Err(format!(
                "{name}: burst length {} moves {} bytes over a x{} bus, not a {}-byte line",
                self.burst_length,
                self.burst_length * self.bus_bits / 8,
                self.bus_bits,
                LINE_BYTES
            ));
        }
        if t.t_burst != self.derived_burst_cycles() {
            return Err(format!(
                "{name}: t_burst {} drifted from BL{}/2 = {} clocks",
                t.t_burst,
                self.burst_length,
                self.derived_burst_cycles()
            ));
        }
        if t.t_ccd < t.t_burst {
            return Err(format!(
                "{name}: tCCD {} shorter than the {}-clock burst it spaces",
                t.t_ccd, t.t_burst
            ));
        }
        if t.t_ccd_l < t.t_ccd {
            return Err(format!("{name}: tCCD_L {} below tCCD_S {}", t.t_ccd_l, t.t_ccd));
        }
        if t.t_rrd_l < t.t_rrd {
            return Err(format!("{name}: tRRD_L {} below tRRD_S {}", t.t_rrd_l, t.t_rrd));
        }
        if self.bank_groups == 1 && (t.t_ccd_l != t.t_ccd || t.t_rrd_l != t.t_rrd) {
            return Err(format!("{name}: long constraints must equal short without bank groups"));
        }
        if t.t_rc < t.t_ras.saturating_add(t.t_rp) {
            return Err(format!("{name}: tRC {} below tRAS+tRP", t.t_rc));
        }
        if t.t_ras < t.t_rcd {
            return Err(format!("{name}: tRAS {} below tRCD {}", t.t_ras, t.t_rcd));
        }
        // The four-activate window covers four tRRD_S-spaced ACTs — the
        // full JEDEC relationship (an earlier DDR3-only assert precedence-
        // reduced this to 2×tRRD).
        // lint: literal-ok(the JEDEC window is defined over four ACTs)
        if t.t_faw < 4 * t.t_rrd {
            return Err(format!("{name}: tFAW {} below 4×tRRD_S", t.t_faw));
        }
        if t.cl < t.cwl {
            return Err(format!("{name}: CL {} below CWL {}", t.cl, t.cwl));
        }
        if t.t_refi <= t.t_rfc {
            return Err(format!("{name}: tREFI {} not above tRFC {}", t.t_refi, t.t_rfc));
        }
        if !self.row_bytes.is_multiple_of(LINE_BYTES) {
            return Err(format!("{name}: row size {} not line-aligned", self.row_bytes));
        }
        if self.hammer_threshold == 0 {
            return Err(format!("{name}: zero hammer threshold disables the disturbance model"));
        }
        if self.refresh_rounds == 0 || !self.rows.is_multiple_of(self.refresh_rounds as usize) {
            return Err(format!(
                "{name}: {} rows do not split evenly into {} refresh rounds",
                self.rows, self.refresh_rounds
            ));
        }
        Ok(())
    }

    /// Rows refreshed per bank by a single REF command: the round-robin
    /// stride of the disturbance-window model in [`crate::wear`].
    pub fn rows_per_refresh(&self) -> usize {
        self.rows / self.refresh_rounds as usize
    }

    /// The channel geometry for this spec with `ranks` ranks. For HBM2
    /// a "rank" models a stack-die select on the pseudo-channel; the
    /// protocol layers above are agnostic to the distinction.
    pub fn topology(&self, ranks: usize) -> Topology {
        Topology {
            ranks,
            banks: self.banks,
            bank_groups: self.bank_groups,
            rows: self.rows,
            row_bytes: self.row_bytes,
        }
    }

    /// A main-memory channel (Table II-class: 8 ranks, off-DIMM I/O).
    pub fn main_channel(&self) -> ChannelConfig {
        self.channel(8, ChannelLocation::OffDimm)
    }

    /// An SDIMM internal channel (quad-rank, on-DIMM I/O).
    pub fn sdimm_internal_channel(&self) -> ChannelConfig {
        self.channel(4, ChannelLocation::OnDimm)
    }

    fn channel(&self, ranks: usize, location: ChannelLocation) -> ChannelConfig {
        debug_assert!(self.validate().is_ok(), "spec table failed validation");
        ChannelConfig {
            standard: self.standard,
            timing: self.timing.clone(),
            topology: self.topology(ranks),
            scheduler: SchedulerPolicy::FrFcfs,
            power: self.power.clone(),
            location,
            refresh_enabled: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_table_validates() {
        for std in DramStandard::ALL {
            std.spec().validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn validate_rejects_burst_drift() {
        // Satellite regression: a table whose t_burst disagrees with the
        // bus shape (the documented "BL8 on a x64 bus ⇒ 4 clocks"
        // derivation) must be rejected, not silently simulated.
        let mut spec = DramSpec::ddr4_2400();
        spec.timing.t_burst = 2;
        assert!(spec.validate().unwrap_err().contains("t_burst"));
        let mut spec = DramSpec::lpddr4_3200();
        spec.burst_length = 8; // moves only 32 bytes over the x32 bus
        assert!(spec.validate().unwrap_err().contains("burst length"));
    }

    #[test]
    fn validate_rejects_short_faw_window() {
        // Satellite regression: the precedence-weakened form (2×tRRD)
        // accepted this table; the full four-ACT window must not.
        let mut spec = DramSpec::ddr3_1600();
        spec.timing.t_faw = 2 * spec.timing.t_rrd + 1;
        assert!(spec.validate().unwrap_err().contains("tFAW"));
    }

    #[test]
    fn validate_rejects_inverted_long_short_pairs() {
        let mut spec = DramSpec::ddr4_2400();
        spec.timing.t_ccd_l = spec.timing.t_ccd - 1;
        assert!(spec.validate().unwrap_err().contains("tCCD_L"));
        let mut spec = DramSpec::hbm2();
        spec.timing.t_rrd_l = spec.timing.t_rrd - 1;
        assert!(spec.validate().unwrap_err().contains("tRRD_L"));
    }

    #[test]
    fn groupless_standards_must_keep_long_equal_to_short() {
        let mut spec = DramSpec::lpddr4_3200();
        spec.timing.t_ccd_l = spec.timing.t_ccd + 2;
        assert!(spec.validate().unwrap_err().contains("bank groups"));
    }

    #[test]
    fn parse_round_trips_and_accepts_dashes() {
        for std in DramStandard::ALL {
            assert_eq!(DramStandard::parse(std.name()), Some(std));
        }
        assert_eq!(DramStandard::parse("DDR4-2400"), Some(DramStandard::Ddr4_2400));
        assert_eq!(DramStandard::parse("ddr5_4800"), None);
    }

    #[test]
    fn bank_group_geometry_is_consistent() {
        for std in DramStandard::ALL {
            let spec = std.spec();
            let topo = spec.topology(8);
            assert_eq!(topo.banks_per_group() * spec.bank_groups, spec.banks, "{}", std.name());
            // Every supported topology fits the scheduler's flat bitmask.
            assert!(topo.ranks * topo.banks <= 128, "{}", std.name());
        }
    }

    #[test]
    fn hammer_thresholds_tighten_with_density() {
        // Newer/denser standards must carry strictly lower disturbance
        // budgets than the DDR3-era tables, and every table must cover
        // all rows in a whole number of refresh rounds.
        assert!(DramSpec::ddr4_2400().hammer_threshold < DramSpec::ddr3_1600().hammer_threshold);
        assert!(DramSpec::lpddr4_3200().hammer_threshold < DramSpec::ddr4_2400().hammer_threshold);
        assert!(DramSpec::hbm2().hammer_threshold < DramSpec::lpddr4_3200().hammer_threshold);
        for std in DramStandard::ALL {
            let spec = std.spec();
            assert_eq!(
                spec.rows_per_refresh() * spec.refresh_rounds as usize,
                spec.rows,
                "{}",
                std.name()
            );
        }
        let mut spec = DramSpec::ddr4_2400();
        spec.refresh_rounds = 3000;
        assert!(spec.validate().unwrap_err().contains("refresh rounds"));
        spec = DramSpec::ddr4_2400();
        spec.hammer_threshold = 0;
        assert!(spec.validate().unwrap_err().contains("hammer"));
    }

    #[test]
    fn burst_shapes_span_the_crossover_range() {
        // The point of the crossover figure: burst occupancy per line
        // ranges 2 (HBM2) → 8 (LPDDR4) clocks across the standards.
        assert_eq!(DramSpec::hbm2().timing.t_burst, 2);
        assert_eq!(DramSpec::ddr4_2400().timing.t_burst, 4);
        assert_eq!(DramSpec::lpddr4_3200().timing.t_burst, 8);
    }
}
