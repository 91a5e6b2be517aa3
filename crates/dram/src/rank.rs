//! Per-rank state: banks, the four-activate window, refresh, and power
//! modes (including the precharge power-down used by the paper's
//! low-power technique).

use crate::bank::Bank;
use crate::config::{Cycle, Timing};

/// Power state of a rank (CKE-level modeling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// CKE high, ready for commands.
    Active,
    /// Precharge power-down: CKE low, all banks closed. Exiting costs tXP.
    PowerDown {
        /// Cycle at which the rank entered power-down (for residency stats).
        since: Cycle,
    },
}

/// One rank of DRAM devices sharing a chip-select.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Issue times of recent ACTs, oldest first (tFAW sliding window).
    /// `None` until four ACTs have been issued.
    act_window: [Option<Cycle>; 4],
    /// tFAW value cached from the timing config for bound computation.
    t_faw: Cycle,
    /// Earliest next ACT due to tRRD (tRRD_S: the any-pair spacing).
    next_act_rrd: Cycle,
    /// Earliest next ACT per bank group due to tRRD_L. One entry for
    /// group-less standards, where it mirrors `next_act_rrd` exactly
    /// (tRRD_L = tRRD_S), adding no constraint.
    group_next_act: Vec<Cycle>,
    /// Earliest next CAS rank-wide due to tCCD (tCCD_S).
    next_cas_ccd: Cycle,
    /// Earliest next CAS per bank group due to tCCD_L.
    group_next_cas: Vec<Cycle>,
    /// Earliest next command of any kind (refresh / power-down exit gate).
    ready_at: Cycle,
    /// Next scheduled refresh.
    next_refresh: Cycle,
    power: PowerState,
    /// Accumulated cycles spent in power-down (for the energy model).
    powerdown_cycles: Cycle,
    /// Count of power-down entries (each costs tCKE residency minimum).
    powerdown_entries: u64,
}

impl Rank {
    /// Creates a rank with `banks` idle banks split into `bank_groups`
    /// groups; first refresh due at `t_refi`.
    pub fn new(banks: usize, bank_groups: usize, t: &Timing) -> Self {
        let groups = bank_groups.max(1);
        Rank {
            banks: vec![Bank::new(); banks],
            act_window: [None; 4],
            t_faw: t.t_faw,
            next_act_rrd: 0,
            group_next_act: vec![0; groups],
            next_cas_ccd: 0,
            group_next_cas: vec![0; groups],
            ready_at: 0,
            next_refresh: t.t_refi,
            power: PowerState::Active,
            powerdown_cycles: 0,
            powerdown_entries: 0,
        }
    }

    /// Immutable access to a bank.
    pub fn bank(&self, i: usize) -> &Bank {
        &self.banks[i]
    }

    /// Mutable access to a bank.
    pub fn bank_mut(&mut self, i: usize) -> &mut Bank {
        &mut self.banks[i]
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.power
    }

    /// Total cycles this rank has spent in power-down so far.
    ///
    /// If currently powered down, includes residency up to `now`.
    pub fn powerdown_cycles(&self, now: Cycle) -> Cycle {
        match self.power {
            PowerState::PowerDown { since } => {
                self.powerdown_cycles.saturating_add(now.saturating_sub(since))
            }
            PowerState::Active => self.powerdown_cycles,
        }
    }

    /// Number of power-down entries taken.
    pub fn powerdown_entries(&self) -> u64 {
        self.powerdown_entries
    }

    /// Earliest cycle an ACT may issue rank-wide (tRRD + tFAW + readiness).
    pub fn next_act_allowed(&self) -> Cycle {
        // With four ACTs in the window, the next must wait tFAW from the
        // oldest of them.
        let faw_bound = match self.act_window[0] {
            Some(oldest) => oldest.saturating_add(self.t_faw),
            None => 0,
        };
        self.next_act_rrd.max(faw_bound).max(self.ready_at)
    }

    /// Additional ACT bound for a bank in `group` (tRRD_L). Combined
    /// with [`Rank::next_act_allowed`] by the scheduler; degenerate
    /// (equal to the rank-wide tRRD bound) without bank groups.
    pub fn act_group_bound(&self, group: usize) -> Cycle {
        self.group_next_act[group]
    }

    /// Earliest CAS rank-wide (tCCD_S). For every shipped spec this is
    /// implied by data-bus occupancy (tCCD_S = tBURST), but it is
    /// enforced explicitly so a future table with tCCD_S > tBURST stays
    /// correct.
    pub fn cas_allowed_rank(&self) -> Cycle {
        self.next_cas_ccd
    }

    /// Additional CAS bound for a bank in `group` (tCCD_L).
    pub fn cas_group_bound(&self, group: usize) -> Cycle {
        self.group_next_cas[group]
    }

    /// Earliest cycle any command may issue to this rank.
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// True when every bank is precharged.
    pub fn all_banks_idle(&self) -> bool {
        self.banks.iter().all(|b| matches!(b.state(), crate::bank::RowState::Idle))
    }

    /// Records an ACT at `now` in bank group `group` (caller has already
    /// validated bank timing).
    ///
    /// The `debug_assert` below compiles out of release builds, so it is
    /// not the enforcement mechanism for tRRD/tFAW — release-mode
    /// coverage comes from the `sdimm-audit` replay checker, which
    /// re-validates both constraints on the captured command stream.
    pub fn record_activate(&mut self, now: Cycle, group: usize, t: &Timing) {
        debug_assert!(now >= self.next_act_allowed().max(self.act_group_bound(group)));
        self.next_act_rrd = now.saturating_add(t.t_rrd);
        self.group_next_act[group] = now.saturating_add(t.t_rrd_l);
        self.act_window.rotate_left(1);
        self.act_window[3] = Some(now);
    }

    /// Records a CAS at `now` in bank group `group`, arming the
    /// tCCD_S/tCCD_L spacing for subsequent CAS commands.
    pub fn record_cas(&mut self, now: Cycle, group: usize, t: &Timing) {
        debug_assert!(now >= self.cas_allowed_rank().max(self.cas_group_bound(group)));
        self.next_cas_ccd = now.saturating_add(t.t_ccd);
        self.group_next_cas[group] = now.saturating_add(t.t_ccd_l);
    }

    /// Whether a refresh is due at `now`.
    pub fn refresh_due(&self, now: Cycle) -> bool {
        now >= self.next_refresh
    }

    /// Cycle at which the next refresh becomes due.
    pub fn next_refresh(&self) -> Cycle {
        self.next_refresh
    }

    /// Earliest cycle a due refresh can begin: all banks must be
    /// precharged; the caller closes them first.
    pub fn begin_refresh(&mut self, now: Cycle, t: &Timing) {
        debug_assert!(self.all_banks_idle(), "refresh with open banks");
        let done = now.saturating_add(t.t_rfc);
        for b in &mut self.banks {
            b.force_precharge_for_refresh(done);
        }
        self.ready_at = self.ready_at.max(done);
        self.next_refresh = self.next_refresh.saturating_add(t.t_refi);
    }

    /// Drops CKE, entering precharge power-down.
    ///
    /// # Panics
    ///
    /// Panics (debug) if banks are open or the rank is already down.
    pub fn enter_power_down(&mut self, now: Cycle) {
        debug_assert!(self.all_banks_idle(), "power-down with open banks");
        debug_assert!(matches!(self.power, PowerState::Active));
        self.power = PowerState::PowerDown { since: now };
        self.powerdown_entries += 1;
    }

    /// Raises CKE; the rank accepts commands after tXP.
    ///
    /// Returns the cycle at which the rank is usable again. Idempotent for
    /// an active rank (returns `ready_at`).
    pub fn exit_power_down(&mut self, now: Cycle, t: &Timing) -> Cycle {
        if let PowerState::PowerDown { since } = self.power {
            self.powerdown_cycles = self.powerdown_cycles.saturating_add(now.saturating_sub(since));
            self.power = PowerState::Active;
            self.ready_at = self.ready_at.max(now.saturating_add(t.t_xp));
        }
        self.ready_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timing {
        Timing::ddr3_1600()
    }

    #[test]
    fn four_activates_trigger_faw() {
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        let mut now = 0;
        for _ in 0..4 {
            now = now.max(r.next_act_allowed());
            r.record_activate(now, 0, &tm);
            now += tm.t_rrd;
        }
        // The 5th ACT must wait until first ACT + tFAW.
        assert!(r.next_act_allowed() >= tm.t_faw, "FAW not enforced: {}", r.next_act_allowed());
    }

    #[test]
    fn rrd_spacing_enforced() {
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        r.record_activate(10, 0, &tm);
        assert!(r.next_act_allowed() >= 10 + tm.t_rrd);
    }

    #[test]
    fn same_group_acts_wait_trrd_l_while_cross_group_waits_trrd_s() {
        let mut tm = t();
        tm.t_rrd = 4;
        tm.t_rrd_l = 6;
        let mut r = Rank::new(16, 4, &tm);
        r.record_activate(100, 0, &tm);
        // Cross-group: only the short spacing binds.
        assert_eq!(r.next_act_allowed().max(r.act_group_bound(1)), 104);
        // Same-group: the long spacing binds.
        assert_eq!(r.next_act_allowed().max(r.act_group_bound(0)), 106);
    }

    #[test]
    fn same_group_cas_waits_tccd_l_while_cross_group_waits_tccd_s() {
        let mut tm = t();
        tm.t_ccd = 4;
        tm.t_ccd_l = 6;
        let mut r = Rank::new(16, 4, &tm);
        r.record_cas(50, 2, &tm);
        assert_eq!(r.cas_allowed_rank().max(r.cas_group_bound(0)), 54);
        assert_eq!(r.cas_allowed_rank().max(r.cas_group_bound(2)), 56);
    }

    #[test]
    fn single_group_long_bounds_mirror_the_short_ones() {
        // DDR3-shape invariant: with one bank group and long == short,
        // the group bounds never exceed the rank-wide bounds, so the
        // bank-group constraint classes add nothing to the schedule.
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        r.record_activate(10, 0, &tm);
        assert!(r.act_group_bound(0) <= r.next_act_allowed());
        r.record_cas(40, 0, &tm);
        assert_eq!(r.cas_group_bound(0), r.cas_allowed_rank());
    }

    #[test]
    fn refresh_schedule_advances() {
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        assert!(!r.refresh_due(0));
        assert!(r.refresh_due(tm.t_refi));
        r.begin_refresh(tm.t_refi, &tm);
        assert!(!r.refresh_due(tm.t_refi + 1));
        assert_eq!(r.ready_at(), tm.t_refi + tm.t_rfc);
    }

    #[test]
    fn power_down_round_trip_accumulates_residency() {
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        r.enter_power_down(100);
        assert!(matches!(r.power_state(), PowerState::PowerDown { .. }));
        assert_eq!(r.powerdown_cycles(600), 500);
        let ready = r.exit_power_down(600, &tm);
        assert_eq!(ready, 600 + tm.t_xp);
        assert_eq!(r.powerdown_cycles(9999), 500);
        assert_eq!(r.powerdown_entries(), 1);
    }

    #[test]
    fn exit_power_down_when_active_is_noop() {
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        let before = r.ready_at();
        assert_eq!(r.exit_power_down(50, &tm), before);
        assert_eq!(r.powerdown_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "power-down with open banks")]
    fn power_down_with_open_bank_panics_in_debug() {
        let tm = t();
        let mut r = Rank::new(8, 1, &tm);
        r.bank_mut(0).activate(0, 1, &tm);
        r.enter_power_down(5);
        // In release builds debug_assert compiles out; force the panic so
        // the should_panic expectation holds either way.
        #[cfg(not(debug_assertions))]
        panic!("power-down with open banks");
    }
}
