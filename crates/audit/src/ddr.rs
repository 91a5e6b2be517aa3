//! DDR protocol compliance auditor, parameterized by memory standard.
//!
//! An independent replay checker for the per-channel command stream
//! captured by `dram_sim::cmdlog::CmdLog`. The auditor rebuilds bank,
//! rank, and data-bus state from nothing but the command records and its
//! own [`Constraints`] table, and re-validates every inter-command
//! constraint the scheduler is supposed to respect: tRCD, tRP, tRAS,
//! tRC, tRRD (short and, on bank-grouped standards, tRRD_L), the tFAW
//! sliding window, tCCD / tCCD_L, tWTR, tRTP, tRFC and the tREFI
//! budget, data-bus burst occupancy, rank-to-rank switch time, and
//! read/write bus turnaround.
//!
//! The constraint table is always derived from the **run's own**
//! [`ChannelConfig`] (standard, bank-group geometry, timing), never from
//! a hardcoded DDR3 table, so every memory standard the engine gains is
//! independently re-validated by the same replay logic.
//!
//! It deliberately shares **no** timing bookkeeping with the channel
//! model: where `DramChannel` derives "earliest legal cycle" values
//! forward as it schedules, the auditor derives the same constraints
//! backward from the emitted commands. A bookkeeping bug on either side
//! shows up as a disagreement — that is the differential in
//! "differential correctness harness".

use std::collections::VecDeque;
use std::fmt;

use dram_sim::cmdlog::{CmdRecord, DdrCmd};
use dram_sim::config::{ChannelConfig, Cycle, Timing};
use sdimm_telemetry::{EventKind, SharedCycle, TraceSink};

/// The auditor's own copy of the inter-command constraint table.
///
/// Values are copied field-by-field from the channel's [`Timing`] at
/// construction so the two sides agree on the *parameters* while
/// disagreeing on the *derivation*. The bus direction-turnaround penalty
/// is hardcoded here because the channel keeps it as a private constant;
/// if the channel's value drifts from this one, clean streams will fail
/// the bus checks — which is the point.
#[derive(Debug, Clone)]
pub struct Constraints {
    /// CAS (read) latency: RD command to first data beat.
    pub cl: Cycle,
    /// CAS write latency: WR command to first data beat.
    pub cwl: Cycle,
    /// ACT to RD/WR, same bank.
    pub t_rcd: Cycle,
    /// PRE to ACT, same bank.
    pub t_rp: Cycle,
    /// ACT to PRE, same bank.
    pub t_ras: Cycle,
    /// ACT to ACT, same bank.
    pub t_rc: Cycle,
    /// ACT to ACT, same rank (short / cross-bank-group spacing).
    pub t_rrd: Cycle,
    /// ACT to ACT, same bank group (long spacing; equals
    /// [`t_rrd`](Self::t_rrd) on standards without bank groups).
    pub t_rrd_l: Cycle,
    /// Four-activate window, same rank.
    pub t_faw: Cycle,
    /// End of write burst to PRE, same bank (write recovery).
    pub t_wr: Cycle,
    /// End of write burst to RD, same rank.
    pub t_wtr: Cycle,
    /// RD to PRE, same bank.
    pub t_rtp: Cycle,
    /// CAS to CAS, same rank (short / cross-bank-group spacing).
    pub t_ccd: Cycle,
    /// CAS to CAS, same bank group (long spacing; equals
    /// [`t_ccd`](Self::t_ccd) on standards without bank groups).
    pub t_ccd_l: Cycle,
    /// Data burst duration.
    pub t_burst: Cycle,
    /// Dead time between bursts of different ranks.
    pub t_rtrs: Cycle,
    /// Average refresh interval per rank.
    pub t_refi: Cycle,
    /// Refresh cycle time.
    pub t_rfc: Cycle,
    /// Power-down exit latency.
    pub t_xp: Cycle,
    /// Bank groups per rank (1 for group-less standards). Banks are
    /// assigned to groups by contiguous index blocks, mirroring
    /// `dram_sim::config::Topology::banks_per_group`.
    pub bank_groups: usize,
    /// Dead time between bursts of opposite directions (read↔write).
    /// Independent copy of the channel's private `BUS_TURNAROUND`.
    pub bus_turnaround: Cycle,
    /// Whether periodic refresh is expected (enables the tREFI budget
    /// check in [`DdrAuditor::finish`]).
    pub refresh_expected: bool,
}

impl Constraints {
    /// Builds the constraint table for a channel configuration: the
    /// run's own standard, timing, and bank-group geometry. This is the
    /// only construction path audit captures use, so a run on DDR4 is
    /// checked against DDR4's table — never a stale DDR3 default.
    pub fn from_config(cfg: &ChannelConfig) -> Self {
        let mut cons = Constraints::from_timing(&cfg.timing, cfg.refresh_enabled);
        cons.bank_groups = cfg.topology.bank_groups.max(1);
        cons
    }

    /// Builds the constraint table from raw timing parameters, with a
    /// single (group-less) bank group. Prefer
    /// [`from_config`](Self::from_config), which also carries the
    /// topology's bank-group geometry.
    pub fn from_timing(t: &Timing, refresh_expected: bool) -> Self {
        Constraints {
            cl: t.cl,
            cwl: t.cwl,
            t_rcd: t.t_rcd,
            t_rp: t.t_rp,
            t_ras: t.t_ras,
            t_rc: t.t_rc,
            t_rrd: t.t_rrd,
            t_rrd_l: t.t_rrd_l,
            t_faw: t.t_faw,
            t_wr: t.t_wr,
            t_wtr: t.t_wtr,
            t_rtp: t.t_rtp,
            t_ccd: t.t_ccd,
            t_ccd_l: t.t_ccd_l,
            t_burst: t.t_burst,
            t_rtrs: t.t_rtrs,
            t_refi: t.t_refi,
            t_rfc: t.t_rfc,
            t_xp: t.t_xp,
            bank_groups: 1,
            bus_turnaround: 2,
            refresh_expected,
        }
    }
}

/// A constraint violation, reported with enough context to reproduce:
/// which rule, at which cycle, on which rank, and the actual-vs-required
/// arithmetic in `detail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// JEDEC parameter or structural rule that was broken (e.g. `"tFAW"`,
    /// `"bus-overlap"`, `"cmd-bus"`).
    pub rule: &'static str,
    /// Cycle of the offending command.
    pub cycle: Cycle,
    /// Rank the offending command targeted.
    pub rank: usize,
    /// Human-readable actual-vs-required context.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {} rank {}: {}", self.rule, self.cycle, self.rank, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Aggregate counts over an audited stream (returned on success so
/// callers can assert the audit actually saw traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Total records fed.
    pub commands: u64,
    /// Row activations.
    pub acts: u64,
    /// Precharges.
    pub pres: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// Rank refreshes.
    pub refreshes: u64,
    /// Power-down entries and exits.
    pub power_transitions: u64,
    /// Cycle of the last record.
    pub last_cycle: Cycle,
}

/// Per-bank replay state.
#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<usize>,
    last_act: Option<Cycle>,
    last_pre: Option<Cycle>,
    last_rd: Option<Cycle>,
    /// Cycle of the last WR command (the write-recovery bound is derived
    /// from it as `wr + cwl + t_burst + t_wr`).
    last_wr: Option<Cycle>,
}

/// Per-rank replay state.
#[derive(Debug, Clone)]
struct RankState {
    banks: Vec<BankState>,
    /// Issue cycles of up to the last four ACTs (tFAW window).
    acts: VecDeque<Cycle>,
    last_act: Option<Cycle>,
    last_cas: Option<Cycle>,
    /// Last ACT per bank group (tRRD_L reference points).
    group_last_act: Vec<Option<Cycle>>,
    /// Last CAS per bank group (tCCD_L reference points).
    group_last_cas: Vec<Option<Cycle>>,
    /// End of the last write data burst (tWTR reference point).
    wr_data_end: Option<Cycle>,
    /// Earliest cycle any command is legal (tRFC after refresh, tXP after
    /// power-up) — the auditor's reconstruction of the rank `ready_at`.
    ready: Cycle,
    powered_down: bool,
    refreshes: u64,
}

impl RankState {
    fn new(banks: usize, groups: usize) -> Self {
        RankState {
            banks: vec![BankState::default(); banks],
            acts: VecDeque::with_capacity(4),
            last_act: None,
            last_cas: None,
            group_last_act: vec![None; groups],
            group_last_cas: vec![None; groups],
            wr_data_end: None,
            ready: 0,
            powered_down: false,
            refreshes: 0,
        }
    }
}

/// The last data-bus burst: when it ends, who owned it, its direction.
#[derive(Debug, Clone, Copy)]
struct Burst {
    end: Cycle,
    rank: usize,
    write: bool,
}

/// Streaming DDR compliance checker. Feed records in issue order; the
/// first violation is returned as an `Err` and the auditor refuses
/// further input (its state is no longer meaningful past a violation).
#[derive(Debug)]
pub struct DdrAuditor {
    cons: Constraints,
    /// Banks per bank group (contiguous index blocks, mirroring the
    /// engine's `Topology::banks_per_group`).
    banks_per_group: usize,
    ranks: Vec<RankState>,
    last_burst: Option<Burst>,
    /// Cycle of the last command-bus command (1 command/cycle check; CKE
    /// transitions are not command-bus traffic and are exempt).
    last_cmd_cycle: Option<Cycle>,
    last_seen: Cycle,
    summary: AuditSummary,
    poisoned: bool,
}

impl DdrAuditor {
    /// A fresh auditor for one channel of `cfg`'s geometry and timing.
    pub fn new(cfg: &ChannelConfig) -> Self {
        DdrAuditor::with_constraints(
            Constraints::from_config(cfg),
            cfg.topology.ranks,
            cfg.topology.banks,
        )
    }

    /// A fresh auditor with an explicit constraint table (tests use this
    /// to sharpen individual constraints).
    ///
    /// # Panics
    ///
    /// Panics if `banks` does not divide evenly into the table's
    /// `bank_groups`.
    pub fn with_constraints(cons: Constraints, ranks: usize, banks: usize) -> Self {
        let groups = cons.bank_groups.max(1);
        assert!(
            banks.is_multiple_of(groups) && banks >= groups,
            "{banks} banks do not split into {groups} bank groups"
        );
        DdrAuditor {
            banks_per_group: banks / groups,
            cons,
            ranks: (0..ranks).map(|_| RankState::new(banks, groups)).collect(),
            last_burst: None,
            last_cmd_cycle: None,
            last_seen: 0,
            summary: AuditSummary::default(),
            poisoned: false,
        }
    }

    /// Validates an entire captured stream and runs the end-of-stream
    /// budget checks.
    pub fn check_stream(
        cfg: &ChannelConfig,
        stream: &[CmdRecord],
    ) -> Result<AuditSummary, Violation> {
        DdrAuditor::check_stream_indexed(cfg, stream).map_err(|(_, v)| v)
    }

    /// [`DdrAuditor::check_stream`], but a violation also carries the
    /// index of the offending record in `stream` — the anchor a
    /// black-box dump ([`violation_recorder`]) needs to slice out the
    /// commands leading up to it. End-of-stream budget violations
    /// (tREFI) anchor to the last record.
    pub fn check_stream_indexed(
        cfg: &ChannelConfig,
        stream: &[CmdRecord],
    ) -> Result<AuditSummary, (usize, Violation)> {
        let mut a = DdrAuditor::new(cfg);
        for (i, rec) in stream.iter().enumerate() {
            if let Err(v) = a.feed(rec) {
                return Err((i, v));
            }
        }
        a.finish().map_err(|v| (stream.len().saturating_sub(1), v))
    }

    fn viol(&self, rule: &'static str, rec: &CmdRecord, detail: String) -> Violation {
        Violation { rule, cycle: rec.cycle, rank: rec.rank, detail }
    }

    /// Checks one command against the replayed state, then applies it.
    ///
    /// # Panics
    ///
    /// Panics if called again after a violation was returned, or if the
    /// record's rank/bank indices exceed the configured geometry.
    pub fn feed(&mut self, rec: &CmdRecord) -> Result<(), Violation> {
        assert!(!self.poisoned, "auditor state is meaningless past the first violation");
        match self.feed_inner(rec) {
            Ok(()) => Ok(()),
            Err(v) => {
                self.poisoned = true;
                Err(v)
            }
        }
    }

    fn feed_inner(&mut self, rec: &CmdRecord) -> Result<(), Violation> {
        if rec.cycle < self.last_seen {
            return Err(self.viol(
                "stream-order",
                rec,
                format!("record at cycle {} after cycle {}", rec.cycle, self.last_seen),
            ));
        }
        self.last_seen = rec.cycle;
        assert!(rec.rank < self.ranks.len(), "rank {} outside geometry", rec.rank);

        // CKE transitions are sideband, not command-bus traffic; every
        // other command occupies the (single) command bus for one cycle.
        let is_cke = matches!(rec.cmd, DdrCmd::PowerDown | DdrCmd::PowerUp);
        if !is_cke {
            if self.last_cmd_cycle == Some(rec.cycle) {
                return Err(self.viol(
                    "cmd-bus",
                    rec,
                    format!("two commands on the command bus in cycle {}", rec.cycle),
                ));
            }
            self.last_cmd_cycle = Some(rec.cycle);
        }

        match rec.cmd {
            DdrCmd::Act { bank, row } => self.check_act(rec, bank, row)?,
            DdrCmd::Pre { bank } => self.check_pre(rec, bank)?,
            DdrCmd::Rd { bank, row } => self.check_cas(rec, bank, row, false)?,
            DdrCmd::Wr { bank, row } => self.check_cas(rec, bank, row, true)?,
            DdrCmd::Refresh => self.check_refresh(rec)?,
            DdrCmd::PowerDown => self.check_power_down(rec)?,
            DdrCmd::PowerUp => self.check_power_up(rec)?,
        }

        self.summary.commands += 1;
        self.summary.last_cycle = rec.cycle;
        Ok(())
    }

    /// Gates shared by every command type: the rank must be awake and
    /// past its refresh/wakeup busy window.
    fn check_rank_gates(&self, rec: &CmdRecord) -> Result<(), Violation> {
        let r = &self.ranks[rec.rank];
        if r.powered_down {
            return Err(self.viol(
                "powered-down",
                rec,
                format!("{:?} issued to a rank in precharge power-down", rec.cmd),
            ));
        }
        if rec.cycle < r.ready {
            // `ready` is only ever advanced by refresh (tRFC) and
            // power-up (tXP); name the rule by the nearer cause.
            let rule = if r.refreshes > 0 { "tRFC/tXP" } else { "tXP" };
            return Err(self.viol(
                rule,
                rec,
                format!("{:?} at {} but rank busy until {}", rec.cmd, rec.cycle, r.ready),
            ));
        }
        Ok(())
    }

    /// Bank-group index of `bank` (banks are grouped in contiguous
    /// blocks, matching the engine's address mapping).
    fn group_of(&self, bank: usize) -> usize {
        bank / self.banks_per_group
    }

    fn check_act(&mut self, rec: &CmdRecord, bank: usize, row: usize) -> Result<(), Violation> {
        self.check_rank_gates(rec)?;
        let c = rec.cycle;
        let cons = self.cons.clone();
        let group = self.group_of(bank);
        {
            let r = &self.ranks[rec.rank];
            let b = &r.banks[bank];
            if let Some(open) = b.open_row {
                return Err(self.viol(
                    "act-open-bank",
                    rec,
                    format!("ACT bank {bank} row {row} while row {open} is open"),
                ));
            }
            if let Some(pre) = b.last_pre {
                if c < pre.saturating_add(cons.t_rp) {
                    return Err(self.viol(
                        "tRP",
                        rec,
                        format!(
                            "ACT bank {bank} at {c}, PRE at {pre}, need ≥ {}",
                            pre.saturating_add(cons.t_rp)
                        ),
                    ));
                }
            }
            if let Some(act) = b.last_act {
                if c < act.saturating_add(cons.t_rc) {
                    return Err(self.viol(
                        "tRC",
                        rec,
                        format!(
                            "ACT bank {bank} at {c}, prior ACT at {act}, need ≥ {}",
                            act.saturating_add(cons.t_rc)
                        ),
                    ));
                }
            }
            if let Some(last) = r.last_act {
                if c < last.saturating_add(cons.t_rrd) {
                    return Err(self.viol(
                        "tRRD",
                        rec,
                        format!(
                            "ACT at {c}, rank's prior ACT at {last}, need ≥ {}",
                            last.saturating_add(cons.t_rrd)
                        ),
                    ));
                }
            }
            if let Some(last) = r.group_last_act[group] {
                if c < last.saturating_add(cons.t_rrd_l) {
                    return Err(self.viol(
                        "tRRD_L",
                        rec,
                        format!(
                            "ACT at {c}, bank group {group}'s prior ACT at {last}, need ≥ {}",
                            last.saturating_add(cons.t_rrd_l)
                        ),
                    ));
                }
            }
            if r.acts.len() == 4 {
                // lint: panic-ok(invariant: len checked)
                let oldest = *r.acts.front().expect("len checked");
                if c < oldest.saturating_add(cons.t_faw) {
                    return Err(self.viol(
                        "tFAW",
                        rec,
                        format!(
                            "5th ACT at {c} inside the four-activate window [{oldest}, {})",
                            oldest.saturating_add(cons.t_faw)
                        ),
                    ));
                }
            }
        }
        let r = &mut self.ranks[rec.rank];
        let b = &mut r.banks[bank];
        b.open_row = Some(row);
        b.last_act = Some(c);
        b.last_rd = None;
        b.last_wr = None;
        r.last_act = Some(c);
        r.group_last_act[group] = Some(c);
        if r.acts.len() == 4 {
            r.acts.pop_front();
        }
        r.acts.push_back(c);
        self.summary.acts += 1;
        Ok(())
    }

    fn check_pre(&mut self, rec: &CmdRecord, bank: usize) -> Result<(), Violation> {
        self.check_rank_gates(rec)?;
        let c = rec.cycle;
        let cons = self.cons.clone();
        {
            let b = &self.ranks[rec.rank].banks[bank];
            if b.open_row.is_none() {
                return Err(self.viol(
                    "pre-idle-bank",
                    rec,
                    format!("PRE to bank {bank} with no open row"),
                ));
            }
            // lint: panic-ok(invariant: open bank has an ACT)
            let act = b.last_act.expect("open bank has an ACT");
            if c < act.saturating_add(cons.t_ras) {
                return Err(self.viol(
                    "tRAS",
                    rec,
                    format!(
                        "PRE bank {bank} at {c}, ACT at {act}, need ≥ {}",
                        act.saturating_add(cons.t_ras)
                    ),
                ));
            }
            if let Some(rd) = b.last_rd {
                if c < rd.saturating_add(cons.t_rtp) {
                    return Err(self.viol(
                        "tRTP",
                        rec,
                        format!(
                            "PRE bank {bank} at {c}, RD at {rd}, need ≥ {}",
                            rd.saturating_add(cons.t_rtp)
                        ),
                    ));
                }
            }
            if let Some(wr) = b.last_wr {
                let bound = wr
                    .saturating_add(cons.cwl)
                    .saturating_add(cons.t_burst)
                    .saturating_add(cons.t_wr);
                if c < bound {
                    return Err(self.viol(
                        "tWR",
                        rec,
                        format!(
                            "PRE bank {bank} at {c}, WR at {wr}, write recovery needs ≥ {bound}"
                        ),
                    ));
                }
            }
        }
        let b = &mut self.ranks[rec.rank].banks[bank];
        b.open_row = None;
        b.last_pre = Some(c);
        self.summary.pres += 1;
        Ok(())
    }

    fn check_cas(
        &mut self,
        rec: &CmdRecord,
        bank: usize,
        row: usize,
        write: bool,
    ) -> Result<(), Violation> {
        self.check_rank_gates(rec)?;
        let c = rec.cycle;
        let cons = self.cons.clone();
        let group = self.group_of(bank);
        let name = if write { "WR" } else { "RD" };
        {
            let r = &self.ranks[rec.rank];
            let b = &r.banks[bank];
            match b.open_row {
                None => {
                    return Err(self.viol(
                        "cas-idle-bank",
                        rec,
                        format!("{name} to bank {bank} with no open row"),
                    ));
                }
                Some(open) if open != row => {
                    return Err(self.viol(
                        "cas-row-mismatch",
                        rec,
                        format!("{name} claims row {row} but row {open} is open in bank {bank}"),
                    ));
                }
                Some(_) => {}
            }
            // lint: panic-ok(invariant: open bank has an ACT)
            let act = b.last_act.expect("open bank has an ACT");
            if c < act.saturating_add(cons.t_rcd) {
                return Err(self.viol(
                    "tRCD",
                    rec,
                    format!(
                        "{name} bank {bank} at {c}, ACT at {act}, need ≥ {}",
                        act.saturating_add(cons.t_rcd)
                    ),
                ));
            }
            if let Some(cas) = r.last_cas {
                if c < cas.saturating_add(cons.t_ccd) {
                    return Err(self.viol(
                        "tCCD",
                        rec,
                        format!(
                            "{name} at {c}, rank's prior CAS at {cas}, need ≥ {}",
                            cas.saturating_add(cons.t_ccd)
                        ),
                    ));
                }
            }
            if let Some(cas) = r.group_last_cas[group] {
                if c < cas.saturating_add(cons.t_ccd_l) {
                    return Err(self.viol(
                        "tCCD_L",
                        rec,
                        format!(
                            "{name} at {c}, bank group {group}'s prior CAS at {cas}, need ≥ {}",
                            cas.saturating_add(cons.t_ccd_l)
                        ),
                    ));
                }
            }
            if !write {
                if let Some(end) = r.wr_data_end {
                    if c < end.saturating_add(cons.t_wtr) {
                        return Err(self.viol(
                            "tWTR",
                            rec,
                            format!(
                                "RD at {c}, write burst ended at {end}, need ≥ {}",
                                end.saturating_add(cons.t_wtr)
                            ),
                        ));
                    }
                }
            }
        }

        // Data-bus occupancy: the burst `[start, end)` must clear the
        // previous burst plus any rank-switch / direction-turnaround
        // dead time.
        let data_latency = if write { cons.cwl } else { cons.cl };
        let start = c.saturating_add(data_latency);
        let end = start.saturating_add(cons.t_burst);
        if let Some(prev) = self.last_burst {
            let mut required = prev.end;
            if prev.rank != rec.rank {
                required = required.saturating_add(cons.t_rtrs);
            }
            if prev.write != write {
                required = required.saturating_add(cons.bus_turnaround);
            }
            if start < required {
                let rule = if start < prev.end {
                    "bus-overlap"
                } else if prev.rank != rec.rank && start < prev.end.saturating_add(cons.t_rtrs) {
                    "tRTRS"
                } else {
                    "bus-turnaround"
                };
                return Err(self.viol(
                    rule,
                    rec,
                    format!(
                        "{name} burst [{start}, {end}) vs previous burst ending {} \
                         (rank {} {}): bus free from {required}",
                        prev.end,
                        prev.rank,
                        if prev.write { "write" } else { "read" },
                    ),
                ));
            }
        }

        self.last_burst = Some(Burst { end, rank: rec.rank, write });
        let r = &mut self.ranks[rec.rank];
        r.last_cas = Some(c);
        r.group_last_cas[group] = Some(c);
        let b = &mut r.banks[bank];
        if write {
            b.last_wr = Some(c);
            r.wr_data_end = Some(end);
            self.summary.writes += 1;
        } else {
            b.last_rd = Some(c);
            self.summary.reads += 1;
        }
        Ok(())
    }

    fn check_refresh(&mut self, rec: &CmdRecord) -> Result<(), Violation> {
        self.check_rank_gates(rec)?;
        {
            let r = &self.ranks[rec.rank];
            if let Some(open) = r.banks.iter().position(|b| b.open_row.is_some()) {
                return Err(self.viol(
                    "refresh-banks-open",
                    rec,
                    format!("REF with bank {open} still open"),
                ));
            }
        }
        let t_rfc = self.cons.t_rfc;
        let r = &mut self.ranks[rec.rank];
        r.ready = r.ready.max(rec.cycle.saturating_add(t_rfc));
        r.refreshes += 1;
        // An auto-refresh precharges internally: ACT timing afterwards is
        // bounded by the rank busy window, not by a PRE record.
        for b in &mut r.banks {
            b.open_row = None;
        }
        self.summary.refreshes += 1;
        Ok(())
    }

    fn check_power_down(&mut self, rec: &CmdRecord) -> Result<(), Violation> {
        {
            let r = &self.ranks[rec.rank];
            if r.powered_down {
                return Err(self.viol("cke", rec, "power-down of a rank already down".into()));
            }
            if let Some(open) = r.banks.iter().position(|b| b.open_row.is_some()) {
                return Err(self.viol(
                    "cke",
                    rec,
                    format!("precharge power-down with bank {open} open"),
                ));
            }
            if rec.cycle < r.ready {
                return Err(self.viol(
                    "cke",
                    rec,
                    format!(
                        "power-down at {} inside rank busy window (until {})",
                        rec.cycle, r.ready
                    ),
                ));
            }
        }
        self.ranks[rec.rank].powered_down = true;
        self.summary.power_transitions += 1;
        Ok(())
    }

    fn check_power_up(&mut self, rec: &CmdRecord) -> Result<(), Violation> {
        {
            let r = &self.ranks[rec.rank];
            if !r.powered_down {
                return Err(self.viol("cke", rec, "power-up of a rank that is not down".into()));
            }
        }
        let t_xp = self.cons.t_xp;
        let r = &mut self.ranks[rec.rank];
        r.powered_down = false;
        r.ready = r.ready.max(rec.cycle.saturating_add(t_xp));
        self.summary.power_transitions += 1;
        Ok(())
    }

    /// End-of-stream checks: the per-rank refresh budget. Over an
    /// observed window of `E` cycles each rank owes roughly `E / tREFI`
    /// refreshes; a small slack absorbs boundary effects (the first
    /// refresh is due a full tREFI in, and the last may still be pending
    /// when capture stops).
    pub fn finish(self) -> Result<AuditSummary, Violation> {
        assert!(!self.poisoned, "auditor state is meaningless past the first violation");
        // lint: literal-ok(the 2 is a window multiplier of tREFI, not a raw timing value)
        if self.cons.refresh_expected && self.summary.last_cycle >= 2 * self.cons.t_refi {
            let owed = self.summary.last_cycle / self.cons.t_refi;
            for (i, r) in self.ranks.iter().enumerate() {
                if r.refreshes + 2 < owed {
                    return Err(Violation {
                        rule: "tREFI",
                        cycle: self.summary.last_cycle,
                        rank: i,
                        detail: format!(
                            "rank refreshed {} times over {} cycles; budget requires ≥ {}",
                            r.refreshes,
                            self.summary.last_cycle,
                            owed - 2
                        ),
                    });
                }
            }
        }
        Ok(self.summary)
    }
}

/// How many commands preceding a violation the black-box keeps by
/// default: enough scheduler history to see the state the offending
/// command was issued into (several full path accesses at quick scale).
pub const BLACKBOX_CONTEXT: usize = 128;

/// Builds a sink whose one finished cell, pid 0, holds the violating
/// command (at `index` in `stream`) plus up to `context` preceding
/// commands, in issue order, ready for a black-box dump: pair with
/// [`TraceSink::blackbox_report`] or [`TraceSink::dump_to_files`],
/// passing the [`Violation`]'s `Display` form as the reason so the
/// report shows the actual-vs-required arithmetic next to the command
/// history.
///
/// Works from the captured stream rather than the run's cell ring so the
/// context window is guaranteed present even when the ring was disabled
/// or had wrapped past the offending window.
pub fn violation_recorder(
    stream: &[CmdRecord],
    channel: u8,
    index: usize,
    context: usize,
) -> TraceSink {
    if stream.is_empty() {
        return TraceSink::with_capacity(1);
    }
    let end = index.min(stream.len() - 1);
    let start = end.saturating_sub(context);
    let recorder = TraceSink::with_capacity(end - start + 1);
    let cell = recorder.cell(0, SharedCycle::new());
    for rec in &stream[start..=end] {
        let rank = rec.rank.min(u8::MAX as usize) as u8;
        cell.record_at(rec.cycle, EventKind::DdrCmd(rec.cmd.flight_kind(channel, rank)));
    }
    drop(cell);
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::channel::DramChannel;
    use dram_sim::cmdlog::CmdLog;
    use dram_sim::spec::DramStandard;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The main-channel config for `standard` with refresh quiesced, so
    /// injected-violation streams never owe the tREFI budget.
    fn quiet_cfg(standard: DramStandard) -> ChannelConfig {
        let mut cfg = ChannelConfig::table2_for(standard);
        cfg.refresh_enabled = false;
        cfg
    }

    /// Constraints always come from a run's `ChannelConfig` — the same
    /// path production audit captures use — never from a bare hardcoded
    /// timing table (regression: the auditor used to pin DDR3-1600
    /// here, so spec drift was invisible to these tests).
    fn cons() -> Constraints {
        Constraints::from_config(&quiet_cfg(DramStandard::Ddr3_1600))
    }

    fn auditor() -> DdrAuditor {
        DdrAuditor::new(&quiet_cfg(DramStandard::Ddr3_1600))
    }

    fn rec(cycle: Cycle, rank: usize, cmd: DdrCmd) -> CmdRecord {
        CmdRecord { cycle, rank, cmd }
    }

    fn feed_all(a: &mut DdrAuditor, recs: &[CmdRecord]) -> Result<(), Violation> {
        for r in recs {
            a.feed(r)?;
        }
        Ok(())
    }

    #[test]
    fn detects_trcd_violation() {
        let mut a = auditor();
        let err = feed_all(
            &mut a,
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(5, 0, DdrCmd::Rd { bank: 0, row: 0 }),
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRCD", "{err}");
    }

    #[test]
    fn detects_tfaw_violation_but_accepts_legal_fifth_act() {
        // Four ACTs at tRRD spacing, then a 5th inside the tFAW window.
        let bad = [
            rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
            rec(6, 0, DdrCmd::Act { bank: 1, row: 0 }),
            rec(12, 0, DdrCmd::Act { bank: 2, row: 0 }),
            rec(18, 0, DdrCmd::Act { bank: 3, row: 0 }),
            rec(24, 0, DdrCmd::Act { bank: 4, row: 0 }),
        ];
        let err = feed_all(&mut auditor(), &bad).unwrap_err();
        assert_eq!(err.rule, "tFAW", "{err}");

        let mut good = bad;
        good[4].cycle = 32; // exactly tFAW after the oldest
        feed_all(&mut auditor(), &good).expect("5th ACT at tFAW boundary is legal");
    }

    #[test]
    fn detects_bus_overlap_violation() {
        // Two reads in different ranks whose bursts collide.
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(1, 1, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Rd { bank: 0, row: 0 }), // burst [22, 26)
                rec(12, 1, DdrCmd::Rd { bank: 0, row: 0 }), // burst [23, 27)
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "bus-overlap", "{err}");
    }

    #[test]
    fn detects_rank_switch_and_turnaround_penalties() {
        // Gap clears the burst but not the tRTRS rank-switch dead time.
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(1, 1, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Rd { bank: 0, row: 0 }), // burst [22, 26)
                rec(16, 1, DdrCmd::Rd { bank: 0, row: 0 }), // burst [27, 31): ≥26 but <28
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRTRS", "{err}");

        // Same rank, write after read: the write burst clears the read
        // burst (26 ≥ 26) and tCCD (18 − 11 ≥ 4), but not the 2-cycle
        // direction turnaround. (Read-after-write cannot isolate this
        // rule: tWTR already holds the RD command past the write data.)
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Rd { bank: 0, row: 0 }), // burst [22, 26)
                rec(18, 0, DdrCmd::Wr { bank: 0, row: 0 }), // burst [26, 30) < 26+2
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "bus-turnaround", "{err}");
    }

    #[test]
    fn detects_trrd_violation() {
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(3, 0, DdrCmd::Act { bank: 1, row: 0 }),
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRRD", "{err}");
    }

    #[test]
    fn detects_trp_and_tras_violations() {
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(28, 0, DdrCmd::Pre { bank: 0 }),
                rec(35, 0, DdrCmd::Act { bank: 0, row: 1 }), // tRP: need ≥ 39
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRP", "{err}");

        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(20, 0, DdrCmd::Pre { bank: 0 }), // tRAS: need ≥ 28
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRAS", "{err}");
    }

    #[test]
    fn detects_trc_violation() {
        // DDR3-1600 has tRC == tRAS + tRP, so tRC never binds alone;
        // stretch it to expose the separate check.
        let mut c = cons();
        c.t_rc = 50;
        let mut a = DdrAuditor::with_constraints(c, 8, 8);
        let err = feed_all(
            &mut a,
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(28, 0, DdrCmd::Pre { bank: 0 }),
                rec(39, 0, DdrCmd::Act { bank: 0, row: 1 }), // tRP fine, tRC needs ≥ 50
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRC", "{err}");
    }

    #[test]
    fn detects_tccd_and_twtr_violations() {
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(6, 0, DdrCmd::Act { bank: 1, row: 0 }),
                rec(17, 0, DdrCmd::Rd { bank: 0, row: 0 }),
                rec(19, 0, DdrCmd::Rd { bank: 1, row: 0 }), // tCCD: need ≥ 21
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tCCD", "{err}");

        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Wr { bank: 0, row: 0 }), // burst ends 23
                rec(25, 0, DdrCmd::Rd { bank: 0, row: 0 }), // tWTR: need ≥ 29
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tWTR", "{err}");
    }

    #[test]
    fn detects_trtp_and_twr_violations() {
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(25, 0, DdrCmd::Rd { bank: 0, row: 0 }),
                rec(29, 0, DdrCmd::Pre { bank: 0 }), // tRAS ok; tRTP needs ≥ 31
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRTP", "{err}");

        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Wr { bank: 0, row: 0 }),
                rec(30, 0, DdrCmd::Pre { bank: 0 }), // write recovery needs ≥ 35
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tWR", "{err}");
    }

    #[test]
    fn detects_structural_violations() {
        // Two commands on the command bus in one cycle.
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(0, 1, DdrCmd::Act { bank: 0, row: 0 }),
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "cmd-bus", "{err}");

        // ACT to an already-open bank.
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(50, 0, DdrCmd::Act { bank: 0, row: 5 }),
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "act-open-bank", "{err}");

        // CAS claiming the wrong row.
        let err = feed_all(
            &mut auditor(),
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Rd { bank: 0, row: 9 }),
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "cas-row-mismatch", "{err}");

        // Refresh with an open bank.
        let err = feed_all(
            &mut auditor(),
            &[rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }), rec(50, 0, DdrCmd::Refresh)],
        )
        .unwrap_err();
        assert_eq!(err.rule, "refresh-banks-open", "{err}");
    }

    #[test]
    fn detects_refresh_and_power_gates() {
        // ACT during tRFC.
        let err = feed_all(
            &mut auditor(),
            &[rec(100, 0, DdrCmd::Refresh), rec(150, 0, DdrCmd::Act { bank: 0, row: 0 })],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tRFC/tXP", "{err}");

        // Command to a powered-down rank, then an ACT inside tXP.
        let err = feed_all(
            &mut auditor(),
            &[rec(10, 0, DdrCmd::PowerDown), rec(15, 0, DdrCmd::Act { bank: 0, row: 0 })],
        )
        .unwrap_err();
        assert_eq!(err.rule, "powered-down", "{err}");

        let err = feed_all(
            &mut auditor(),
            &[
                rec(10, 0, DdrCmd::PowerDown),
                rec(20, 0, DdrCmd::PowerUp),
                rec(25, 0, DdrCmd::Act { bank: 0, row: 0 }), // tXP: need ≥ 40
            ],
        )
        .unwrap_err();
        assert_eq!(err.rule, "tXP", "{err}");
    }

    #[test]
    fn refresh_budget_enforced_at_finish() {
        let mut c = cons();
        c.refresh_expected = true;
        let mut a = DdrAuditor::with_constraints(c.clone(), 8, 8);
        let horizon = 3 * c.t_refi;
        feed_all(
            &mut a,
            &[
                rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                rec(11, 0, DdrCmd::Rd { bank: 0, row: 0 }),
                rec(horizon, 0, DdrCmd::Pre { bank: 0 }),
            ],
        )
        .unwrap();
        let err = a.finish().unwrap_err();
        assert_eq!(err.rule, "tREFI", "{err}");
    }

    #[test]
    fn indexed_check_anchors_the_offending_record() {
        // A long legal prelude (paired ACT/RD/PRE per bank at generous
        // spacing), then one tRCD violation at the end.
        let mut stream = Vec::new();
        let mut c: Cycle = 0;
        for i in 0..40u64 {
            let bank = (i % 8) as usize;
            stream.push(rec(c, 0, DdrCmd::Act { bank, row: 1 }));
            stream.push(rec(c + 12, 0, DdrCmd::Rd { bank, row: 1 }));
            stream.push(rec(c + 40, 0, DdrCmd::Pre { bank }));
            c += 60;
        }
        stream.push(rec(c, 0, DdrCmd::Act { bank: 0, row: 2 }));
        stream.push(rec(c + 3, 0, DdrCmd::Rd { bank: 0, row: 2 })); // tRCD
        let cfg = ChannelConfig::table2();
        let (idx, v) = DdrAuditor::check_stream_indexed(&cfg, &stream).unwrap_err();
        assert_eq!(v.rule, "tRCD", "{v}");
        assert_eq!(idx, stream.len() - 1, "violation anchors the offending record");
        assert_eq!(stream[idx].cycle, v.cycle);

        // The black box holds the violating command plus at least 64
        // predecessors, oldest first with monotonic timestamps.
        let recorder = violation_recorder(&stream, 3, idx, BLACKBOX_CONTEXT);
        let events = recorder.events();
        assert!(events.len() >= 65, "expected ≥64 predecessors, got {}", events.len() - 1);
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts), "dump must be oldest-first");
        // lint: panic-ok(invariant: non-empty stream yields events)
        assert_eq!(events.last().expect("non-empty").ts, v.cycle);
        let report = recorder.blackbox_report(0, &v.to_string()).unwrap();
        assert!(report.contains("tRCD"), "reason line carries the rule:\n{report}");
        assert!(report.contains(&format!("cycle {:>12}", v.cycle)), "violating cmd present");
    }

    #[test]
    fn clean_mixed_traffic_stream_passes() {
        // A real channel under random mixed traffic, refresh enabled:
        // the captured stream must replay with zero violations.
        let cfg = ChannelConfig::table2();
        let mut ch = DramChannel::new(cfg.clone());
        let log = CmdLog::enabled();
        ch.set_cmd_log(log.clone());
        let mut rng = StdRng::seed_from_u64(42);
        let lines = cfg.topology.capacity_lines() as u64;
        for _ in 0..40 {
            for _ in 0..24 {
                let addr = rng.gen_range(0..lines / 64) * 64 * 64;
                if rng.gen_bool(0.4) {
                    let _ = ch.enqueue_write(addr);
                } else {
                    let _ = ch.enqueue_read(addr);
                }
            }
            ch.tick(2_000);
            let _ = ch.drain_completions();
        }
        let _ = ch.run_until_idle(100_000);
        let stream = log.take();
        assert!(stream.len() > 500, "expected real traffic, got {} records", stream.len());
        let summary = DdrAuditor::check_stream(&cfg, &stream)
            .unwrap_or_else(|v| panic!("clean stream flagged: {v}"));
        assert!(summary.refreshes > 0, "refresh-enabled run should refresh");
        assert!(summary.reads > 0 && summary.writes > 0);
    }

    #[test]
    fn clean_power_down_stream_passes() {
        // Rank power-down entries/exits interleaved with bursts of work:
        // pinned ranks sleep, wake for requests and sleep again, and a
        // rank is released and pinned again mid-run.
        let cfg = ChannelConfig::table2();
        let mut ch = DramChannel::new(cfg.clone());
        let log = CmdLog::enabled();
        ch.set_cmd_log(log.clone());
        ch.force_rank_down(2);
        ch.force_rank_down(3);
        let mut rng = StdRng::seed_from_u64(7);
        let rank_stride = (cfg.topology.row_bytes * cfg.topology.banks) as u64;
        for burst in 0..12 {
            for _ in 0..8 {
                let rank = rng.gen_range(0..cfg.topology.ranks) as u64;
                let addr = rank * rank_stride + rng.gen_range(0..128u64) * 64;
                let _ = ch.enqueue_read(addr);
            }
            if burst == 5 {
                ch.wake_rank(3);
            }
            if burst == 8 {
                ch.force_rank_down(3);
            }
            ch.tick(3_000);
            let _ = ch.drain_completions();
        }
        let _ = ch.run_until_idle(200_000);
        let stream = log.take();
        let summary = DdrAuditor::check_stream(&cfg, &stream)
            .unwrap_or_else(|v| panic!("clean power-down stream flagged: {v}"));
        assert!(summary.power_transitions > 0, "expected power-down activity");
    }

    #[test]
    fn clean_early_cycle_stream_passes() {
        // Traffic from cycle 0 exercises the bus-constraint boundary where
        // `bus_free` is below the data latency.
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = false;
        let mut ch = DramChannel::new(cfg.clone());
        let log = CmdLog::enabled();
        ch.set_cmd_log(log.clone());
        for i in 0..6u64 {
            let addr = i * cfg.topology.row_bytes as u64;
            if i % 2 == 0 {
                ch.enqueue_write(addr).unwrap();
            } else {
                ch.enqueue_read(addr).unwrap();
            }
        }
        let done = ch.run_until_idle(20_000);
        assert_eq!(done.len(), 6);
        DdrAuditor::check_stream(&cfg, &log.take())
            .unwrap_or_else(|v| panic!("early-cycle stream flagged: {v}"));
    }

    #[test]
    fn auditor_follows_the_runs_channel_config() {
        // One stream, two configs: legal under DDR3-1600 (no bank
        // groups), illegal under DDR4-2400 where banks 0 and 1 share a
        // group and the reads sit closer than tCCD_L. A hardcoded DDR3
        // constraint table would wave both through — this pins the
        // auditor to the run's own `ChannelConfig`.
        let stream = [
            rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
            rec(6, 0, DdrCmd::Act { bank: 1, row: 0 }),
            rec(23, 0, DdrCmd::Rd { bank: 0, row: 0 }),
            rec(27, 0, DdrCmd::Rd { bank: 1, row: 0 }),
        ];
        DdrAuditor::check_stream(&quiet_cfg(DramStandard::Ddr3_1600), &stream)
            .expect("stream is legal under DDR3-1600");
        let err =
            DdrAuditor::check_stream(&quiet_cfg(DramStandard::Ddr4_2400), &stream).unwrap_err();
        assert_eq!(err.rule, "tCCD_L", "{err}");
    }

    #[test]
    fn injected_violations_caught_on_every_spec() {
        // The classic one-cycle-early probes, re-derived from each
        // spec's own timing table instead of hardcoded DDR3 cycles.
        for standard in [
            DramStandard::Ddr3_1600,
            DramStandard::Ddr4_2400,
            DramStandard::Lpddr4_3200,
            DramStandard::Hbm2,
        ] {
            let cfg = quiet_cfg(standard);
            let t = cfg.timing.clone();
            let groups = cfg.topology.bank_groups;
            let bpg = cfg.topology.banks_per_group();
            // A bank outside bank 0's group where groups exist, so the
            // short (cross-group) spacing is what binds.
            let other = if groups > 1 { bpg } else { 1 };
            let expect = |recs: &[CmdRecord], rule: &str| {
                let err = feed_all(&mut DdrAuditor::new(&cfg), recs).unwrap_err();
                assert_eq!(err.rule, rule, "{}: {err}", standard.name());
            };

            // tRCD: CAS one cycle before the activate-to-CAS latency.
            expect(
                &[
                    rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                    rec(t.t_rcd - 1, 0, DdrCmd::Rd { bank: 0, row: 0 }),
                ],
                "tRCD",
            );

            // tRRD: same-rank ACT pair one cycle inside the short spacing.
            expect(
                &[
                    rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                    rec(t.t_rrd - 1, 0, DdrCmd::Act { bank: other, row: 0 }),
                ],
                "tRRD",
            );

            // tRRD_L: same-group pair past tRRD but short of tRRD_L.
            // Only separable where the long spacing exceeds the short.
            if groups > 1 && t.t_rrd_l > t.t_rrd {
                expect(
                    &[
                        rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                        rec(t.t_rrd_l - 1, 0, DdrCmd::Act { bank: 1, row: 0 }),
                    ],
                    "tRRD_L",
                );
            }

            // tFAW: four tRRD-spaced ACTs (rotating bank groups so only
            // the short spacing binds), then a 5th one cycle inside the
            // window. Only separable from tRRD when tFAW exceeds four
            // short spacings — LPDDR4's tFAW = 4·tRRD binds exactly, so
            // no 5th ACT can be tRRD-legal yet tFAW-illegal there.
            if t.t_faw > 4 * t.t_rrd {
                let banks: [usize; 5] =
                    if groups > 1 { [0, bpg, 2 * bpg, 3 * bpg, 1] } else { [0, 1, 2, 3, 4] };
                let mut recs: Vec<CmdRecord> = banks[..4]
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| rec(i as Cycle * t.t_rrd, 0, DdrCmd::Act { bank: b, row: 0 }))
                    .collect();
                recs.push(rec(t.t_faw - 1, 0, DdrCmd::Act { bank: banks[4], row: 0 }));
                expect(&recs, "tFAW");
            }

            // tCCD: reads in different groups one cycle inside the short
            // CAS-to-CAS spacing (tCCD is checked before the bus rules,
            // so this isolates even where the bursts also collide).
            let act2 = t.t_rrd_l;
            let rd1 = act2 + t.t_rcd;
            expect(
                &[
                    rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                    rec(act2, 0, DdrCmd::Act { bank: other, row: 0 }),
                    rec(rd1, 0, DdrCmd::Rd { bank: 0, row: 0 }),
                    rec(rd1 + t.t_ccd - 1, 0, DdrCmd::Rd { bank: other, row: 0 }),
                ],
                "tCCD",
            );

            // tCCD_L: same-group reads past tCCD but short of tCCD_L.
            if groups > 1 && t.t_ccd_l > t.t_ccd {
                expect(
                    &[
                        rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                        rec(act2, 0, DdrCmd::Act { bank: 1, row: 0 }),
                        rec(rd1, 0, DdrCmd::Rd { bank: 0, row: 0 }),
                        rec(rd1 + t.t_ccd_l - 1, 0, DdrCmd::Rd { bank: 1, row: 0 }),
                    ],
                    "tCCD_L",
                );
            }

            // tWTR: read one cycle before the write-to-read gap closes.
            expect(
                &[
                    rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                    rec(t.t_rcd, 0, DdrCmd::Wr { bank: 0, row: 0 }),
                    rec(
                        t.t_rcd + t.cwl + t.t_burst + t.t_wtr - 1,
                        0,
                        DdrCmd::Rd { bank: 0, row: 0 },
                    ),
                ],
                "tWTR",
            );

            // tRAS: precharge one cycle early.
            expect(
                &[
                    rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                    rec(t.t_ras - 1, 0, DdrCmd::Pre { bank: 0 }),
                ],
                "tRAS",
            );

            // tRP: re-activate one cycle before the precharge completes.
            expect(
                &[
                    rec(0, 0, DdrCmd::Act { bank: 0, row: 0 }),
                    rec(t.t_ras, 0, DdrCmd::Pre { bank: 0 }),
                    rec(t.t_ras + t.t_rp - 1, 0, DdrCmd::Act { bank: 0, row: 1 }),
                ],
                "tRP",
            );
        }
    }

    #[test]
    fn clean_streams_replay_on_every_spec() {
        // Engine-vs-auditor differential for every shipped standard: a
        // real channel under random mixed traffic must capture a stream
        // that the independently derived constraint table replays with
        // zero violations.
        for standard in DramStandard::ALL {
            let cfg = ChannelConfig::table2_for(standard);
            let mut ch = DramChannel::new(cfg.clone());
            let log = CmdLog::enabled();
            ch.set_cmd_log(log.clone());
            let mut rng = StdRng::seed_from_u64(0xD1A3 ^ standard as u64);
            let lines = cfg.topology.capacity_lines() as u64;
            let line = dram_sim::config::LINE_BYTES as u64;
            for _ in 0..30 {
                for _ in 0..16 {
                    let addr = rng.gen_range(0..lines / 64) * 64 * line;
                    if rng.gen_bool(0.4) {
                        let _ = ch.enqueue_write(addr);
                    } else {
                        let _ = ch.enqueue_read(addr);
                    }
                }
                ch.tick(2_000);
                let _ = ch.drain_completions();
            }
            let _ = ch.run_until_idle(200_000);
            let stream = log.take();
            assert!(stream.len() > 300, "{}: thin stream ({})", standard.name(), stream.len());
            let summary = DdrAuditor::check_stream(&cfg, &stream)
                .unwrap_or_else(|v| panic!("{}: clean stream flagged: {v}", standard.name()));
            assert!(summary.reads > 0 && summary.writes > 0, "{}", standard.name());
        }
    }
}
