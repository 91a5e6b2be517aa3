//! Independent activation recount for the reliability observatory.
//!
//! The wear tracker inside `dram_sim` counts ACT and write-CAS commands
//! as the scheduler issues them. This module re-derives the same
//! numbers from the *recorded command stream alone* — no shared code,
//! no shared state — so a disagreement means one side miscounts: either
//! the engine's wear hooks miss a command path, or the command log
//! drops records. The observatory's RowHammer report refuses to ship
//! numbers the recount does not reproduce.

use std::collections::BTreeMap;

use dram_sim::cmdlog::{CmdRecord, DdrCmd};
use dram_sim::wear::WearSnapshot;

/// Per-row command totals re-derived from one channel's command stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActRecount {
    /// ACT count per (rank, bank, row), every touched row present.
    pub acts: BTreeMap<(usize, usize, usize), u64>,
    /// Write-CAS count per (rank, bank, row).
    pub writes: BTreeMap<(usize, usize, usize), u64>,
    /// Total ACT commands in the stream.
    pub total_acts: u64,
    /// Total write-CAS commands in the stream.
    pub total_writes: u64,
}

/// Recounts one channel's stream. Only `Act` and `Wr` carry row
/// pressure; reads, precharges, refreshes, and power transitions are
/// ignored (refresh *closes* disturbance windows but never adds wear).
pub fn recount_channel(stream: &[CmdRecord]) -> ActRecount {
    let mut rc = ActRecount::default();
    for rec in stream {
        match rec.cmd {
            DdrCmd::Act { bank, row } => {
                *rc.acts.entry((rec.rank, bank, row)).or_insert(0) += 1;
                rc.total_acts += 1;
            }
            DdrCmd::Wr { bank, row } => {
                *rc.writes.entry((rec.rank, bank, row)).or_insert(0) += 1;
                rc.total_writes += 1;
            }
            _ => {}
        }
    }
    rc
}

/// Checks the engine's wear snapshot against this recount, row by row.
/// Exact equality is the contract: the tracker attaches before traffic
/// and warm-up never touches DRAM, so both sides see the same commands.
/// Returns the first discrepancy as a human-readable message.
pub fn check_against_snapshot(rc: &ActRecount, snap: &WearSnapshot) -> Result<(), String> {
    if rc.total_acts != snap.total_acts {
        return Err(format!(
            "total ACT mismatch: recount {} vs engine {}",
            rc.total_acts, snap.total_acts
        ));
    }
    if rc.total_writes != snap.total_writes {
        return Err(format!(
            "total write mismatch: recount {} vs engine {}",
            rc.total_writes, snap.total_writes
        ));
    }
    // The snapshot lists every touched row sorted by (rank, bank, row);
    // the recount's BTreeMap iterates in the same order. A row with
    // writes but no ACTs still appears in both (open-row write bursts).
    let mut engine = BTreeMap::new();
    for rw in &snap.rows {
        engine.insert((rw.id.rank, rw.id.bank, rw.id.row), (rw.acts, rw.writes));
    }
    let mut touched: std::collections::BTreeSet<(usize, usize, usize)> =
        rc.acts.keys().copied().collect();
    touched.extend(rc.writes.keys().copied());
    for (rank, bank, row) in touched {
        let acts = rc.acts.get(&(rank, bank, row)).copied().unwrap_or(0);
        let w = rc.writes.get(&(rank, bank, row)).copied().unwrap_or(0);
        match engine.remove(&(rank, bank, row)) {
            Some((ea, ew)) if ea == acts && ew == w => {}
            Some((ea, ew)) => {
                return Err(format!(
                    "rank {rank} bank {bank} row {row}: recount {acts} acts / {w} writes \
                     vs engine {ea} acts / {ew} writes"
                ));
            }
            None => {
                return Err(format!(
                    "rank {rank} bank {bank} row {row}: {acts} acts / {w} writes in the \
                     stream but absent from the engine snapshot"
                ));
            }
        }
    }
    if let Some((&(rank, bank, row), &(ea, ew))) = engine.iter().next() {
        return Err(format!(
            "rank {rank} bank {bank} row {row}: engine counted {ea} acts / {ew} writes \
             but the stream has neither"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::wear::{RowPressure, WearConfig};

    fn rec(cycle: u64, rank: usize, cmd: DdrCmd) -> CmdRecord {
        CmdRecord { cycle, rank, cmd }
    }

    #[test]
    fn recount_counts_only_acts_and_writes() {
        let stream = vec![
            rec(0, 0, DdrCmd::Act { bank: 1, row: 7 }),
            rec(4, 0, DdrCmd::Rd { bank: 1, row: 7 }),
            rec(8, 0, DdrCmd::Wr { bank: 1, row: 7 }),
            rec(12, 0, DdrCmd::Pre { bank: 1 }),
            rec(16, 0, DdrCmd::Act { bank: 1, row: 7 }),
            rec(20, 1, DdrCmd::Refresh),
        ];
        let rc = recount_channel(&stream);
        assert_eq!(rc.total_acts, 2);
        assert_eq!(rc.total_writes, 1);
        assert_eq!(rc.acts[&(0, 1, 7)], 2);
        assert_eq!(rc.writes[&(0, 1, 7)], 1);
    }

    fn tiny_cfg() -> WearConfig {
        WearConfig { ranks: 2, banks: 4, rows: 64, rows_per_refresh: 8, hammer_threshold: 1000 }
    }

    #[test]
    fn recount_agrees_with_a_tracker_fed_the_same_commands() {
        let mut w = RowPressure::new(tiny_cfg());
        let mut stream = Vec::new();
        for i in 0..30u64 {
            let (rank, bank, row) = ((i % 2) as usize, (i % 4) as usize, (i % 9) as usize);
            w.on_act(rank, bank, row);
            stream.push(rec(i * 10, rank, DdrCmd::Act { bank, row }));
            if i % 3 == 0 {
                w.on_write(rank, bank, row);
                stream.push(rec(i * 10 + 4, rank, DdrCmd::Wr { bank, row }));
            }
        }
        let rc = recount_channel(&stream);
        check_against_snapshot(&rc, &w.snapshot()).expect("independent recount must agree");
    }

    #[test]
    fn a_dropped_act_is_caught() {
        let mut w = RowPressure::new(tiny_cfg());
        w.on_act(0, 0, 5);
        w.on_act(0, 0, 5);
        let stream = vec![rec(0, 0, DdrCmd::Act { bank: 0, row: 5 })];
        let rc = recount_channel(&stream);
        let err = check_against_snapshot(&rc, &w.snapshot()).unwrap_err();
        assert!(err.contains("total ACT mismatch"), "{err}");
    }

    #[test]
    fn a_misattributed_row_is_caught() {
        let mut w = RowPressure::new(tiny_cfg());
        w.on_act(0, 0, 5);
        w.on_act(0, 0, 6);
        let stream = vec![
            rec(0, 0, DdrCmd::Act { bank: 0, row: 5 }),
            rec(10, 0, DdrCmd::Act { bank: 0, row: 5 }),
        ];
        let rc = recount_channel(&stream);
        let err = check_against_snapshot(&rc, &w.snapshot()).unwrap_err();
        assert!(err.contains("row 5"), "{err}");
    }
}
