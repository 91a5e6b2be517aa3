//! The linear FR-FCFS scan that the per-bank pass of the parent module
//! replaced, kept as a debug-build oracle: every scheduler invocation of
//! a debug build runs both and asserts the same decision and, when
//! nothing issues, the same retry cycle.

use super::*;

/// A queued entry with its flat bank index and position in that bank.
type Queued = (usize, usize, QEntry);

impl DramChannel {
    /// The linear scan's verdict for one queue: every entry in arrival
    /// order, after a head-only scan when the head is over-age.
    pub(super) fn linear_scan_queue(&self, write: bool, retry: &mut Cycle) -> Option<Decision> {
        let q = if write { &self.write_q } else { &self.read_q };
        let mut flat: Vec<Queued> = q
            .banks
            .iter()
            .enumerate()
            .flat_map(|(bidx, list)| list.iter().enumerate().map(move |(pos, e)| (bidx, pos, *e)))
            .collect();
        flat.sort_by_key(|(_, _, e)| e.req.id);
        let limit = match self.cfg.scheduler {
            SchedulerPolicy::FrFcfs => flat.len(),
            SchedulerPolicy::Fcfs => 1,
        };
        if self.now.saturating_sub(flat.first()?.2.req.arrival) > STARVATION_LIMIT {
            if let Some(d) = self.linear_scan(&flat[..1], write, retry) {
                return Some(d);
            }
        }
        self.linear_scan(&flat[..limit], write, retry)
    }

    /// FR-FCFS over `q` in order: the first issuable CAS wins, else the
    /// oldest issuable ACT, else the oldest issuable PRE (suppressed by any
    /// older entry of its bank). Blocked entries lower `retry`.
    fn linear_scan(&self, q: &[Queued], write: bool, retry: &mut Cycle) -> Option<Decision> {
        let (mut act, mut pre) = (None, None);
        let mut seen = vec![false; self.read_q.banks.len()];
        let later = self.now.saturating_add(1);
        for &(bidx, pos, e) in q {
            let (rank, bank, group) = self.bank_of[bidx];
            let b = self.ranks[rank].bank(bank);
            let older_wants_bank = std::mem::replace(&mut seen[bidx], true);
            match b.state() {
                RowState::Open(row) if row == e.row => {
                    let ready = self.cas_ready(write, rank, group, b);
                    if ready <= self.now {
                        return Some(Decision::Cas { write, bidx, pos });
                    }
                    *retry = (*retry).min(ready);
                }
                RowState::Open(_) if older_wants_bank => {}
                RowState::Open(_) => {
                    let ready = self.pre_ready(rank, b);
                    if ready <= self.now && pre.is_none() {
                        pre = Some(Decision::Pre { rank, bank, conflict: true });
                    } else {
                        *retry = (*retry).min(ready.max(later));
                    }
                }
                RowState::Idle if self.refresh_pending[rank] => {}
                RowState::Idle => {
                    let ready = self.act_ready(rank, group, b);
                    if ready <= self.now && act.is_none() {
                        act = Some(Decision::Act { rank, bank, row: e.row });
                    } else {
                        *retry = (*retry).min(ready.max(later));
                    }
                }
            }
        }
        act.or(pre)
    }
}
