//! One DDR3 channel: request queues, FR-FCFS scheduler, banks/ranks with
//! full timing constraints, refresh, power-down, and energy accounting.
//!
//! The model issues at most one DRAM command per memory-clock cycle (the
//! command-bus constraint) and tracks the shared data bus including
//! rank-to-rank switch (tRTRS) and read/write turnaround penalties. It is
//! a faithful small-scale reimplementation of the USIMM scheduling model
//! the paper uses, tuned so cycle loops can skip ahead when no command
//! could possibly issue.

use std::collections::BinaryHeap;

use sdimm_telemetry::{CellTrace, DdrEvent, EventKind};

use crate::address::{AddressMapper, Coords, Interleave};
use crate::bank::{Bank, RowOutcome, RowState};
use crate::cmdlog::{CmdLog, DdrCmd};
use crate::config::{ChannelConfig, Cycle, PowerPolicy, SchedulerPolicy};
use crate::power::{compute_energy, EnergyBreakdown, EnergyCounters};
use crate::rank::{PowerState, Rank};
use crate::request::{Completion, Request, RequestId, RequestKind};
use crate::stats::ChannelStats;
use crate::wear::{RowPressure, WearConfig};

/// Bus turnaround penalty (cycles) when the data bus switches direction.
const BUS_TURNAROUND: Cycle = 2;

/// Age (cycles) past which the oldest request is scheduled before row hits,
/// preventing FR-FCFS starvation.
pub const STARVATION_LIMIT: Cycle = 2000;

#[cfg(debug_assertions)]
mod reference;

/// A queued request; its rank and bank are implied by the bank list
/// holding it.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    req: Request,
    row: usize,
}

/// One request queue (reads or writes), indexed by flat bank
/// (`rank * banks + bank`): each bank's entries in arrival order, a
/// bitset of the banks holding work, so a scheduler pass visits each busy
/// bank once instead of every queued line, and each bank's oldest
/// open-row hit, so the pass reads it instead of searching for it.
#[derive(Debug)]
struct BankQueue {
    banks: Vec<Vec<QEntry>>,
    /// Bit `b % 64` of word `b / 64` is set while `banks[b]` is non-empty.
    busy: Vec<u64>,
    /// Position in `banks[b]` of the oldest entry on bank `b`'s open row;
    /// `None` while the bank is precharged or no entry hits.
    hit: Vec<Option<usize>>,
    len: usize,
}

impl BankQueue {
    fn new(banks: usize) -> Self {
        BankQueue {
            banks: vec![Vec::new(); banks],
            busy: vec![0; banks.div_ceil(64)],
            hit: vec![None; banks],
            len: 0,
        }
    }

    /// Queues `e` at bank `bidx`, whose open row is `open`.
    fn push(&mut self, bidx: usize, e: QEntry, open: Option<usize>) {
        let list = &mut self.banks[bidx];
        if self.hit[bidx].is_none() && open == Some(e.row) {
            self.hit[bidx] = Some(list.len());
        }
        list.push(e);
        self.busy[bidx / 64] |= 1 << (bidx % 64);
        self.len += 1;
    }

    /// Removes the entry a CAS serves — always bank `bidx`'s cached hit
    /// — and caches the next entry on the same (still open) row.
    fn remove_hit(&mut self, bidx: usize, pos: usize) -> QEntry {
        debug_assert_eq!(self.hit[bidx], Some(pos), "a CAS serves its bank's oldest hit");
        let list = &mut self.banks[bidx];
        let e = list.remove(pos);
        // No entry ahead of `pos` is on the open row `e.row`.
        self.hit[bidx] = list[pos..].iter().position(|x| x.row == e.row).map(|i| pos + i);
        if list.is_empty() {
            self.busy[bidx / 64] &= !(1 << (bidx % 64));
        }
        self.len -= 1;
        e
    }

    /// Re-derives bank `bidx`'s cached hit after an ACT opened row
    /// `open`, or a PRE closed the bank (`None`).
    fn set_open_row(&mut self, bidx: usize, open: Option<usize>) {
        self.hit[bidx] = open.and_then(|row| self.banks[bidx].iter().position(|e| e.row == row));
    }

    /// Flat indices of the banks holding work, ascending.
    fn busy_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.busy.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (b < 64).then_some(w * 64 + b)
            })
        })
    }
}

/// The oldest ready candidate of each command class found by a scheduler
/// pass, in FR-FCFS priority order — CAS, ACT, PRE — keyed by request id
/// so the pass may visit banks in any order.
type Picks = [Option<(RequestId, Decision)>; 3];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    finish: Cycle,
    id: RequestId,
    kind: RequestKind,
    arrival: Cycle,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on finish time.
        other.finish.cmp(&self.finish).then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Column command for entry `pos` of flat bank `bidx`'s list.
    Cas {
        write: bool,
        bidx: usize,
        pos: usize,
    },
    Act {
        rank: usize,
        bank: usize,
        row: usize,
    },
    /// Precharge: for a queued request whose row conflicts with the open
    /// one (`conflict`), or for maintenance — ahead of a refresh, or to
    /// close an idle rank's banks so it can enter power-down.
    Pre {
        rank: usize,
        bank: usize,
        conflict: bool,
    },
    Refresh {
        rank: usize,
    },
    Idle {
        retry_at: Cycle,
    },
}

/// A cycle-level DDR3 channel with its memory controller.
///
/// # Example
///
/// ```
/// use dram_sim::channel::DramChannel;
/// use dram_sim::config::ChannelConfig;
///
/// let mut ch = DramChannel::new(ChannelConfig::table2());
/// let id = ch.enqueue_read(0x1000).expect("queue has space");
/// let done = ch.run_until_idle(100_000);
/// assert!(done.iter().any(|c| c.id == id));
/// ```
#[derive(Debug)]
pub struct DramChannel {
    cfg: ChannelConfig,
    mapper: AddressMapper,
    now: Cycle,
    next_id: u64,
    read_q: BankQueue,
    write_q: BankQueue,
    draining: bool,
    ranks: Vec<Rank>,
    /// Per-rank earliest read CAS (tWTR after a write burst).
    rank_next_read: Vec<Cycle>,
    /// Per-rank "refresh urgently pending" flag.
    refresh_pending: Vec<bool>,
    /// Number of ranks with `refresh_pending` set.
    refresh_owed: usize,
    /// Earliest `next_refresh` over all ranks: before it, with no refresh
    /// owed, the refresh pass has nothing to do.
    refresh_next: Cycle,
    /// Ranks pinned down by the low-power protocol (no auto-wake by policy).
    forced_down: Vec<bool>,
    /// Number of ranks with `forced_down` set.
    pinned: usize,
    bus_free_at: Cycle,
    bus_last_rank: Option<usize>,
    bus_last_write: Option<bool>,
    /// Earliest cycle at which scheduling could possibly make progress.
    next_wake: Cycle,
    /// Per-rank background-energy accounting mark.
    bg_mark: Vec<Cycle>,
    /// Per-rank count of queued entries (read + write) — an incremental
    /// mirror of scanning both queues, so power management is O(ranks).
    rank_queued: Vec<u32>,
    /// Per-rank count of banks with an open row — incremental mirror of
    /// [`Rank::all_banks_idle`].
    rank_open_banks: Vec<u32>,
    /// `(rank, bank, bank group)` of each flat bank index.
    bank_of: Vec<(usize, usize, usize)>,
    /// Start of the current blocked-with-queued-work interval, if any.
    /// Stall cycles accrue lazily as time actually elapses, so the total
    /// is independent of how callers split their `tick` calls.
    stall_since: Option<Cycle>,
    pending: BinaryHeap<Pending>,
    stats: ChannelStats,
    energy: EnergyCounters,
    /// Event-ring handle; disabled by default (one branch per command).
    trace: CellTrace,
    /// Channel index reported in trace events.
    trace_channel: u8,
    /// Command capture for replay auditing; disabled by default.
    cmd_log: CmdLog,
    /// Per-row wear tracker; disabled (`None`) by default, one branch
    /// per ACT/WR/REF when detached.
    wear: Option<Box<RowPressure>>,
}

impl DramChannel {
    /// Creates an idle channel from `cfg` with the default interleaving.
    pub fn new(cfg: ChannelConfig) -> Self {
        Self::with_interleave(cfg, Interleave::RowRankBankCol)
    }

    /// Creates a channel with an explicit address-interleaving scheme.
    pub fn with_interleave(cfg: ChannelConfig, scheme: Interleave) -> Self {
        let ranks = (0..cfg.topology.ranks)
            .map(|_| Rank::new(cfg.topology.banks, cfg.topology.bank_groups, &cfg.timing))
            .collect::<Vec<_>>();
        let n = ranks.len();
        let banks = cfg.topology.banks;
        DramChannel {
            mapper: AddressMapper::new(cfg.topology.clone(), scheme),
            refresh_next: ranks.iter().map(Rank::next_refresh).min().unwrap_or(Cycle::MAX),
            ranks,
            rank_next_read: vec![0; n],
            refresh_pending: vec![false; n],
            refresh_owed: 0,
            forced_down: vec![false; n],
            pinned: 0,
            bg_mark: vec![0; n],
            rank_queued: vec![0; n],
            rank_open_banks: vec![0; n],
            bank_of: (0..n * banks)
                .map(|b| (b / banks, b % banks, b % banks / cfg.topology.banks_per_group()))
                .collect(),
            stall_since: None,
            cfg,
            now: 0,
            next_id: 0,
            read_q: BankQueue::new(n * banks),
            write_q: BankQueue::new(n * banks),
            draining: false,
            bus_free_at: 0,
            bus_last_rank: None,
            bus_last_write: None,
            next_wake: 0,
            pending: BinaryHeap::new(),
            stats: ChannelStats::default(),
            energy: EnergyCounters::default(),
            trace: CellTrace::disabled(),
            trace_channel: 0,
            cmd_log: CmdLog::disabled(),
            wear: None,
        }
    }

    /// Attaches a cell's trace handle: every DDR command (and each
    /// hammer alarm) is recorded once, tagged with channel index
    /// `channel`. Disabled by default; one branch per command.
    pub fn set_trace(&mut self, trace: CellTrace, channel: u8) {
        self.trace = trace;
        self.trace_channel = channel;
    }

    /// Attaches a command-capture log: every DDR command (ACT/PRE/CAS/
    /// REF and CKE transitions) is recorded with full coordinates so the
    /// `sdimm-audit` replay checker can re-validate the stream against
    /// its own DDR3 constraint table. Disabled by default; one branch
    /// per command when detached.
    pub fn set_cmd_log(&mut self, log: CmdLog) {
        self.cmd_log = log;
    }

    /// Routes one command, issued now, to the audit log and the trace.
    fn log_cmd(&mut self, rank: usize, cmd: DdrCmd) {
        self.log_cmd_as(rank, cmd, |event| event);
    }

    /// [`log_cmd`](Self::log_cmd) for the commands whose trace event
    /// carries what only the issuing site knows (a CAS's request span, a
    /// PRE's row conflict): `detail` fills it in.
    fn log_cmd_as(&mut self, rank: usize, cmd: DdrCmd, detail: impl FnOnce(DdrEvent) -> DdrEvent) {
        self.cmd_log.record(self.now, rank, cmd);
        if self.trace.is_enabled() {
            let event =
                detail(cmd.flight_kind(self.trace_channel, rank.min(u8::MAX as usize) as u8));
            self.trace.record_at(self.now, EventKind::DdrCmd(event));
        }
    }

    /// Attaches a per-row wear tracker configured from this channel's
    /// standard spec and topology (see [`crate::wear`]). Threshold
    /// crossings bump `ChannelStats::hammer_alarms` and, when a trace
    /// is attached, land on its hammer track. Disabled by
    /// default; one branch per ACT/WR/REF when detached.
    pub fn enable_wear(&mut self) {
        self.wear = Some(Box::new(RowPressure::new(WearConfig::for_channel(&self.cfg))));
    }

    /// The wear tracker, if [`enable_wear`](Self::enable_wear) was called.
    pub fn wear(&self) -> Option<&RowPressure> {
        self.wear.as_deref()
    }

    /// Clears performance statistics (not energy or timing state) so a
    /// measured window starts clean after warm-up traffic. The wear
    /// tracker resets with the stats: warm-up activations must not
    /// leak into the measured window's wear and disturbance report.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        if let Some(w) = self.wear.as_deref_mut() {
            w.reset();
        }
        // A blocked interval straddling the reset only counts its
        // post-reset portion.
        self.stall_since = self.stall_since.map(|_| self.now);
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// The address mapper this channel decodes requests with — lets
    /// reporting code re-encode physical (rank, bank, row) coordinates
    /// back into the channel-local addresses a protocol layer speaks.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Write-queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len
    }

    /// True when no requests are queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.read_q.len + self.write_q.len == 0 && self.pending.is_empty()
    }

    /// Performance statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Raw energy counters so far (background residency up to `now`).
    pub fn energy_counters(&mut self) -> EnergyCounters {
        for r in 0..self.ranks.len() {
            self.account_bg(r);
        }
        self.energy.clone()
    }

    /// Computes the energy breakdown for the run so far.
    pub fn energy(&mut self) -> EnergyBreakdown {
        let counters = self.energy_counters();
        compute_energy(&counters, &self.cfg.power, &self.cfg.timing, self.cfg.location)
    }

    /// Enqueues a cache-line read. Returns `None` when the read queue is
    /// full (the caller must retry after ticking).
    pub fn enqueue_read(&mut self, addr: u64) -> Option<RequestId> {
        if self.read_q.len >= self.cfg.read_queue_capacity {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let coords = self.mapper.decode(addr);
        // Write-to-read forwarding: a queued write to the same line
        // services the read without touching DRAM.
        if self.write_q.banks[self.flat_bank(&coords)].iter().any(|e| e.req.addr == addr) {
            self.pending.push(Pending {
                finish: self.now.saturating_add(1),
                id,
                kind: RequestKind::Read,
                arrival: self.now,
            });
            return Some(id);
        }
        self.push(Request { id, addr, kind: RequestKind::Read, arrival: self.now }, coords);
        Some(id)
    }

    /// Enqueues a cache-line write. Returns `None` when the write queue is
    /// full.
    pub fn enqueue_write(&mut self, addr: u64) -> Option<RequestId> {
        if self.write_q.len >= self.cfg.write_drain.capacity {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let coords = self.mapper.decode(addr);
        self.push(Request { id, addr, kind: RequestKind::Write, arrival: self.now }, coords);
        Some(id)
    }

    /// Queues `req` at its bank and wakes the scheduler.
    fn push(&mut self, req: Request, coords: Coords) {
        self.rank_queued[coords.rank] += 1;
        let bidx = self.flat_bank(&coords);
        let open = self.open_row(bidx);
        let q = if req.kind == RequestKind::Write { &mut self.write_q } else { &mut self.read_q };
        q.push(bidx, QEntry { req, row: coords.row }, open);
        self.next_wake = self.now;
    }

    /// Pins `rank` in precharge power-down (the SDIMM low-power scheme).
    /// The rank is woken automatically if a request targets it.
    pub fn force_rank_down(&mut self, rank: usize) {
        if !std::mem::replace(&mut self.forced_down[rank], true) {
            self.pinned += 1;
        }
        self.next_wake = self.now;
    }

    /// Releases a pinned rank and begins its wakeup immediately so tXP is
    /// hidden behind the current access (the paper wakes the next rank
    /// "early enough to hide the wakeup latency").
    pub fn wake_rank(&mut self, rank: usize) {
        if std::mem::replace(&mut self.forced_down[rank], false) {
            self.pinned -= 1;
        }
        self.power_up(rank);
        self.next_wake = self.now;
    }

    /// Exits power-down on `rank` now; the PowerUp command is logged only
    /// if the rank was down.
    fn power_up(&mut self, rank: usize) {
        self.account_bg(rank);
        let was_down = matches!(self.ranks[rank].power_state(), PowerState::PowerDown { .. });
        let t = self.cfg.timing.clone();
        self.ranks[rank].exit_power_down(self.now, &t);
        if was_down {
            self.log_cmd(rank, DdrCmd::PowerUp);
        }
    }

    /// Power state of `rank` (for tests and the low-power experiments).
    pub fn rank_power_state(&self, rank: usize) -> PowerState {
        self.ranks[rank].power_state()
    }

    /// Total cycles `rank` has spent powered down.
    pub fn rank_powerdown_cycles(&self, rank: usize) -> Cycle {
        self.ranks[rank].powerdown_cycles(self.now)
    }

    /// Takes all completions that have finished by `now`.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(&mut out);
        out
    }

    /// Appends all completions that have finished by `now` to `out`, in
    /// finish order — [`drain_completions`](Self::drain_completions)
    /// for callers that reuse one buffer.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        while let Some(p) = self.pending.peek() {
            if p.finish <= self.now {
                // lint: panic-ok(invariant: peeked)
                let p = self.pending.pop().expect("peeked");
                let latency = p.finish - p.arrival;
                match p.kind {
                    RequestKind::Read => {
                        self.stats.reads_completed += 1;
                        self.stats.read_latency_sum += latency;
                        self.stats.read_latency_max = self.stats.read_latency_max.max(latency);
                        self.stats.read_latency_hist.record(latency);
                    }
                    RequestKind::Write => {
                        self.stats.writes_completed += 1;
                    }
                }
                out.push(Completion { id: p.id, kind: p.kind, finish: p.finish, latency });
            } else {
                break;
            }
        }
    }

    /// Advances simulated time by `cycles`, issuing commands as they
    /// become legal.
    ///
    /// The loop is event-driven: scheduler decisions happen only at
    /// `next_wake` cycles, and those cycles depend solely on the channel
    /// state — not on how callers slice their `tick` calls. `tick(a)`
    /// followed by `tick(b)` issues the same command stream and accrues
    /// the same statistics as `tick(a + b)` (the split-invariance
    /// property tests pin this down).
    pub fn tick(&mut self, cycles: Cycle) {
        let end = self.now.saturating_add(cycles);
        while self.now < end {
            if self.now >= self.next_wake {
                self.settle_stall();
                self.stats.scheduler_invocations += 1;
                if self.schedule_once() {
                    // A command issued this cycle; the next may issue on
                    // the following cycle.
                    self.next_wake = self.now.saturating_add(1);
                }
            }
            let target = self.next_wake.min(end);
            self.now = target.max(self.now.saturating_add(1)).min(end);
        }
        self.settle_stall();
    }

    /// Earliest future cycle at which this channel could do observable
    /// work: the scheduler's next wake-up (which already folds refresh
    /// deadlines and power-down eligibility edges via `Decision::Idle`)
    /// or the earliest in-flight completion, whichever comes first. A
    /// value at or before [`now`](Self::now) means work is ready
    /// immediately. Callers may advance the channel to this horizon in
    /// one `tick` without changing any observable behavior.
    pub fn next_event(&self) -> Cycle {
        self.next_completion().map_or(self.next_wake, |c| c.min(self.next_wake))
    }

    /// Cycle at which the earliest in-flight request finishes (and so
    /// becomes drainable), or `None` when nothing is in flight. A value at
    /// or before `now` means a finished completion is waiting to be
    /// drained.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.pending.peek().map(|p| p.finish)
    }

    /// Lower bound on the next completion this channel can deliver: the
    /// earliest in-flight (post-CAS) finish, or — for requests still
    /// queued ahead of their CAS — the earliest cycle a CAS issued at
    /// the next scheduler wake-up could move data (`next_wake + data
    /// latency + burst`; any real CAS issues at or after `next_wake`,
    /// so no completion can precede this bound). `Cycle::MAX` when the
    /// channel holds no work at all.
    pub fn completion_horizon(&self) -> Cycle {
        let mut h = self.next_completion().unwrap_or(Cycle::MAX);
        if self.read_q.len + self.write_q.len > 0 {
            let t = &self.cfg.timing;
            h = h.min(self.next_wake.saturating_add(t.cl.min(t.cwl)).saturating_add(t.t_burst));
        }
        h
    }

    /// Accrues the elapsed portion of a blocked-with-queued-work interval
    /// into `stalled_cycles` and restarts the mark at `now`. Called when
    /// time has advanced (scheduler wake-up, end of a tick); crediting
    /// elapsed time lazily — rather than the planned wait at decision
    /// time — keeps the counter identical under arbitrary tick splits.
    fn settle_stall(&mut self) {
        if let Some(since) = self.stall_since {
            self.stats.stalled_cycles =
                self.stats.stalled_cycles.saturating_add(self.now.saturating_sub(since));
            self.stall_since = Some(self.now);
        }
    }

    /// Runs until the channel is idle or `limit` cycles have elapsed,
    /// returning all completions. Useful for batch-style callers.
    ///
    /// The chunk size only bounds how often the idle check runs — `tick`
    /// jumps event-to-event internally, so oversized chunks cost nothing
    /// and the completions are identical under any slicing. [`now`]
    /// afterwards is rounded up to the end of the last 10,000-cycle
    /// chunk, so the last completion's `finish` marks the end of a
    /// replay.
    ///
    /// [`now`]: Self::now
    pub fn run_until_idle(&mut self, limit: Cycle) -> Vec<Completion> {
        let deadline = self.now.saturating_add(limit);
        let mut out = Vec::new();
        while !self.is_idle() && self.now < deadline {
            self.tick(deadline.saturating_sub(self.now).min(10_000));
            out.extend(self.drain_completions());
        }
        out.extend(self.drain_completions());
        out
    }

    // ----- internals -------------------------------------------------

    /// Flat bank index (`rank * banks + bank`) of `coords`.
    fn flat_bank(&self, coords: &Coords) -> usize {
        coords.rank * self.cfg.topology.banks + coords.bank
    }

    /// The open row of flat bank `bidx`, if any.
    fn open_row(&self, bidx: usize) -> Option<usize> {
        let (rank, bank, _) = self.bank_of[bidx];
        match self.ranks[rank].bank(bank).state() {
            RowState::Open(row) => Some(row),
            RowState::Idle => None,
        }
    }

    /// Whether any rank may power down: a power-down policy, or a rank
    /// pinned by the low-power protocol. Otherwise every rank is active
    /// (under `AlwaysOn` only a pin sends a rank down, and `wake_rank`
    /// wakes it as it unpins it), so the power passes have nothing to do.
    fn power_managed(&self) -> bool {
        self.pinned > 0 || self.cfg.power_policy != PowerPolicy::AlwaysOn
    }

    /// Cross-checks the incremental state (per-rank queued work and open
    /// banks, queue lengths, busy bits, cached hits, rank deadlines and
    /// counts) each debug scheduler invocation.
    #[cfg(debug_assertions)]
    fn debug_validate_counters(&self) {
        let mut queued = vec![0; self.ranks.len()];
        for q in [&self.read_q, &self.write_q] {
            for (b, list) in q.banks.iter().enumerate() {
                assert_eq!(q.busy[b / 64] >> (b % 64) & 1 == 1, !list.is_empty(), "bank {b} bit");
                queued[self.bank_of[b].0] += list.len();
                let hit = self.open_row(b).and_then(|row| list.iter().position(|e| e.row == row));
                assert_eq!(q.hit[b], hit, "bank {b} cached hit");
            }
            assert_eq!(q.banks.iter().map(Vec::len).sum::<usize>(), q.len, "queue length");
        }
        for (r, rank) in self.ranks.iter().enumerate() {
            assert_eq!(queued[r], self.rank_queued[r] as usize, "rank {r} queued-work counter");
            let open = (0..rank.bank_count())
                .filter(|&b| matches!(rank.bank(b).state(), RowState::Open(_)))
                .count();
            assert_eq!(open, self.rank_open_banks[r] as usize, "rank {r} open-bank counter");
            let down = matches!(rank.power_state(), PowerState::PowerDown { .. });
            assert!(self.power_managed() || !down, "rank {r} down on an unmanaged channel");
        }
        let next = self.ranks.iter().map(Rank::next_refresh).min().unwrap_or(Cycle::MAX);
        assert_eq!(next, self.refresh_next, "refresh deadline");
        let owed = self.refresh_pending.iter().filter(|&&p| p).count();
        assert_eq!(owed, self.refresh_owed, "refresh-owed counter");
        assert_eq!(self.forced_down.iter().filter(|&&f| f).count(), self.pinned, "pin counter");
    }

    /// Accounts background-energy residency for `rank` up to `now`.
    fn account_bg(&mut self, rank: usize) {
        let dt = self.now.saturating_sub(self.bg_mark[rank]);
        if dt == 0 {
            self.bg_mark[rank] = self.now;
            return;
        }
        match self.ranks[rank].power_state() {
            PowerState::PowerDown { .. } => {
                self.energy.powerdown_cycles = self.energy.powerdown_cycles.saturating_add(dt)
            }
            PowerState::Active => {
                if self.rank_open_banks[rank] == 0 {
                    self.energy.precharge_standby_cycles =
                        self.energy.precharge_standby_cycles.saturating_add(dt);
                } else {
                    self.energy.active_standby_cycles =
                        self.energy.active_standby_cycles.saturating_add(dt);
                }
            }
        }
        self.bg_mark[rank] = self.now;
    }

    /// Whether `rank` should be heading toward power-down right now.
    fn wants_sleep(&self, rank: usize) -> bool {
        let idle = match (self.forced_down[rank], self.cfg.power_policy) {
            (true, _) => true,
            (false, PowerPolicy::AlwaysOn) => false,
            (false, PowerPolicy::PowerDown { idle_cycles }) => {
                self.now.saturating_sub(self.ranks[rank].last_activity()) >= idle_cycles
            }
        };
        idle && self.rank_queued[rank] == 0
            && !self.refresh_pending[rank]
            && matches!(self.ranks[rank].power_state(), PowerState::Active)
    }

    /// Applies the idle-rank power policy and wakes ranks with work.
    /// Runs every scheduler invocation of a power-managed channel, so each
    /// rank's checks are O(1) against the incremental counters — no queue
    /// or bank scans.
    fn manage_power(&mut self) {
        for i in 0..self.ranks.len() {
            match self.ranks[i].power_state() {
                PowerState::PowerDown { .. } if self.rank_queued[i] > 0 => self.power_up(i),
                PowerState::PowerDown { .. } => {}
                PowerState::Active => {
                    if self.wants_sleep(i)
                        && self.rank_open_banks[i] == 0
                        && self.now >= self.ranks[i].ready_at()
                    {
                        self.account_bg(i);
                        self.ranks[i].enter_power_down(self.now);
                        self.log_cmd(i, DdrCmd::PowerDown);
                    }
                }
            }
        }
    }

    /// Effective data-bus availability for a CAS targeting `rank`.
    fn bus_ready_for(&self, rank: usize, write: bool) -> Cycle {
        let mut free = self.bus_free_at;
        if let Some(last) = self.bus_last_rank {
            if last != rank {
                free = free.saturating_add(self.cfg.timing.t_rtrs);
            }
        }
        if let Some(last_write) = self.bus_last_write {
            if last_write != write {
                free += BUS_TURNAROUND;
            }
        }
        free
    }

    /// Earliest cycle a CAS to `bank` (of `rank`, in bank group `group`)
    /// may issue: bank tRCD, rank readiness, tCCD_S rank-wide and tCCD_L
    /// within the group, tWTR before a read, and the shared data bus.
    fn cas_ready(&self, write: bool, rank: usize, group: usize, bank: &Bank) -> Cycle {
        let r = &self.ranks[rank];
        let mut ready = bank
            .next_cas()
            .max(r.ready_at())
            .max(r.cas_allowed_rank())
            .max(r.cas_group_bound(group));
        if !write {
            ready = ready.max(self.rank_next_read[rank]);
        }
        // A CAS at cycle `c` occupies the bus over [c + data_latency, c +
        // data_latency + tBURST). Early in a run `bus_free` can be below
        // the data latency and the bus imposes nothing — an explicit
        // branch, not an unsigned clamp to cycle 0. The `sdimm-audit`
        // replay checker re-validates the no-overlap invariant.
        let t = &self.cfg.timing;
        let data_latency = if write { t.cwl } else { t.cl };
        let bus_free = self.bus_ready_for(rank, write);
        if bus_free > data_latency {
            ready = ready.max(bus_free - data_latency);
        }
        ready
    }

    /// Earliest cycle an ACT to `bank` may issue: tRC/tRP, tRRD_S and
    /// tFAW rank-wide, tRRD_L within `group`.
    fn act_ready(&self, rank: usize, group: usize, bank: &Bank) -> Cycle {
        let r = &self.ranks[rank];
        bank.next_act().max(r.next_act_allowed()).max(r.act_group_bound(group))
    }

    /// Earliest cycle a PRE to `bank` may issue: tRAS, tRTP/tWR.
    fn pre_ready(&self, rank: usize, bank: &Bank) -> Cycle {
        bank.next_pre().max(self.ranks[rank].ready_at())
    }

    /// Picks the best action over one queue under FR-FCFS (or FCFS);
    /// blocked candidates lower `best_retry`. Debug builds check every
    /// verdict against the linear scan this pass replaced (`reference`).
    fn scan_queue(&self, write: bool, best_retry: &mut Cycle) -> Option<Decision> {
        #[cfg(debug_assertions)]
        let (reference, reference_retry) = {
            let mut retry = *best_retry;
            (self.linear_scan_queue(write, &mut retry), retry)
        };
        let decision = self.pick(write, best_retry);
        #[cfg(debug_assertions)]
        {
            assert_eq!(decision, reference, "diverged from the linear scan at {}", self.now);
            if decision.is_none() {
                assert_eq!(*best_retry, reference_retry, "retry diverged at {}", self.now);
            }
        }
        decision
    }

    /// The per-bank FR-FCFS pass. Within one pass every entry of a bank
    /// sees the same bank, rank, group and bus timing, so a scan over
    /// every queued line reaches a verdict that depends on two entries
    /// per bank: its oldest (an ACT candidate on an idle bank, a PRE
    /// candidate when it conflicts with the open row) and its oldest
    /// open-row hit (a CAS candidate). Each busy bank is evaluated once,
    /// in the same loop that finds the head of the queue; the oldest ready
    /// CAS wins, else the oldest ready ACT, else the oldest ready PRE.
    fn pick(&self, write: bool, best_retry: &mut Cycle) -> Option<Decision> {
        let q = if write { &self.write_q } else { &self.read_q };
        let fcfs = self.cfg.scheduler == SchedulerPolicy::Fcfs;
        let mut picks = Picks::default();
        // (id, arrival, bank) of the queue head: request ids are issued
        // in arrival order, so the head is the smallest bank-head id.
        let mut head: Option<(RequestId, Cycle, usize)> = None;
        for bidx in q.busy_banks() {
            let e = &q.banks[bidx][0];
            if head.is_none_or(|(id, ..)| e.req.id < id) {
                head = Some((e.req.id, e.req.arrival, bidx));
            }
            if !fcfs {
                self.scan_bank(write, bidx, false, &mut picks, best_retry);
            }
        }
        let (_, arrival, head_bank) = head?;
        // Anti-starvation: an over-age head of queue is served ahead of
        // younger row hits — but only when one of its commands can
        // actually issue. A head that is stuck for reasons no scheduling
        // order can fix (owed refresh, a long tRAS before its precharge,
        // the tFAW window) must not idle the whole channel, so when the
        // head alone yields nothing the pass falls back to plain FR-FCFS.
        // The head-only judgement offers only candidates the full pass
        // already offered, at the same ready cycles, so judging it second
        // leaves `best_retry` unchanged. FCFS always judges the head alone.
        if fcfs || self.now.saturating_sub(arrival) > STARVATION_LIMIT {
            let mut starved = Picks::default();
            self.scan_bank(write, head_bank, true, &mut starved, best_retry);
            let decision = starved.into_iter().flatten().next().map(|(_, d)| d);
            if fcfs || decision.is_some() {
                return decision;
            }
        }
        picks.into_iter().flatten().next().map(|(_, d)| d)
    }

    /// Evaluates one busy bank for [`pick`](Self::pick): its oldest
    /// open-row hit (the queue's cached hit) as a CAS, and its oldest
    /// entry as an ACT (idle bank, unless the rank owes a refresh) or a
    /// PRE (row conflict; an older entry still wanting the open row holds
    /// the PRE off). With `head_only` the bank's oldest entry alone is
    /// judged.
    fn scan_bank(
        &self,
        write: bool,
        bidx: usize,
        head_only: bool,
        picks: &mut Picks,
        best_retry: &mut Cycle,
    ) {
        let q = if write { &self.write_q } else { &self.read_q };
        let list = &q.banks[bidx];
        let head = &list[0];
        let (rank, bank, group) = self.bank_of[bidx];
        let b = self.ranks[rank].bank(bank);
        let mut offer = |slot: &mut Option<(RequestId, Decision)>, ready: Cycle, id, d| {
            if ready > self.now {
                *best_retry = (*best_retry).min(ready);
            } else if slot.is_none_or(|(old, _)| id < old) {
                *slot = Some((id, d));
            }
        };
        match b.state() {
            RowState::Open(open) => {
                let hit = if head_only { (head.row == open).then_some(0) } else { q.hit[bidx] };
                if let Some(pos) = hit {
                    let ready = self.cas_ready(write, rank, group, b);
                    offer(
                        &mut picks[0],
                        ready,
                        list[pos].req.id,
                        Decision::Cas { write, bidx, pos },
                    );
                }
                if head.row != open {
                    let d = Decision::Pre { rank, bank, conflict: true };
                    offer(&mut picks[2], self.pre_ready(rank, b), head.req.id, d);
                }
            }
            RowState::Idle if !self.refresh_pending[rank] => {
                let d = Decision::Act { rank, bank, row: head.row };
                offer(&mut picks[1], self.act_ready(rank, group, b), head.req.id, d);
            }
            RowState::Idle => {}
        }
    }

    /// A maintenance PRE for the first open bank of `rank` that may close
    /// now; otherwise lowers `best_retry` to when each could.
    fn close_open_bank(&self, rank: usize, best_retry: &mut Cycle) -> Option<Decision> {
        for bank in 0..self.ranks[rank].bank_count() {
            let b = self.ranks[rank].bank(bank);
            if let RowState::Open(_) = b.state() {
                let ready = self.pre_ready(rank, b);
                if ready <= self.now {
                    return Some(Decision::Pre { rank, bank, conflict: false });
                }
                *best_retry = (*best_retry).min(ready);
            }
        }
        None
    }

    /// Finds the next command to issue, if any.
    fn decide(&mut self) -> Decision {
        let mut best_retry = Cycle::MAX;

        // Refresh has priority once due: mark pending, close banks, issue.
        // Before the earliest rank deadline, with none owed, no rank acts.
        if self.cfg.refresh_enabled && (self.refresh_owed > 0 || self.now >= self.refresh_next) {
            for i in 0..self.ranks.len() {
                if !self.refresh_pending[i] && self.ranks[i].refresh_due(self.now) {
                    self.refresh_pending[i] = true;
                    self.refresh_owed += 1;
                }
                if self.refresh_pending[i] {
                    if let PowerState::PowerDown { .. } = self.ranks[i].power_state() {
                        self.account_bg(i);
                        let t = self.cfg.timing.clone();
                        self.ranks[i].exit_power_down(self.now, &t);
                        self.log_cmd(i, DdrCmd::PowerUp);
                    }
                    if self.rank_open_banks[i] == 0 {
                        if self.now >= self.ranks[i].ready_at() {
                            return Decision::Refresh { rank: i };
                        }
                        best_retry = best_retry.min(self.ranks[i].ready_at());
                    } else if let Some(d) = self.close_open_bank(i, &mut best_retry) {
                        // Precharge open banks of the refreshing rank.
                        return d;
                    }
                }
            }
        }

        // Close open banks of ranks that want to power down (forced by
        // the low-power protocol or eligible under the idle policy) so
        // they can actually drop CKE.
        if self.power_managed() {
            for i in 0..self.ranks.len() {
                if self.rank_open_banks[i] > 0 && self.wants_sleep(i) {
                    if let Some(d) = self.close_open_bank(i, &mut best_retry) {
                        return d;
                    }
                }
            }
        }

        // Write-drain hysteresis: derive one read/write priority decision
        // per scheduler invocation. While draining, writes are serviced
        // exclusively until the queue falls to the low watermark — reads
        // are starved only in drain mode, and the priority cannot flip
        // back mid-drain just because no write command is issuable this
        // cycle. Outside drain mode, reads always go first and writes
        // issue only when no read is queued.
        if self.write_q.len >= self.cfg.write_drain.hi {
            self.draining = true;
        } else if self.write_q.len <= self.cfg.write_drain.lo {
            self.draining = false;
        }
        let write = self.draining || self.read_q.len == 0;
        if let Some(d) = self.scan_queue(write, &mut best_retry) {
            return d;
        }

        // Nothing issuable: wake for the next refresh deadline and for the
        // moment an idle rank becomes eligible to power down.
        if self.cfg.refresh_enabled {
            best_retry = best_retry.min(self.refresh_next);
        }
        if self.power_managed() {
            for (i, r) in self.ranks.iter().enumerate() {
                if matches!(r.power_state(), PowerState::Active) {
                    let eligible_at = match (self.forced_down[i], self.cfg.power_policy) {
                        (true, _) => Some(self.now.saturating_add(1)),
                        (false, PowerPolicy::PowerDown { idle_cycles }) => {
                            Some(r.last_activity().saturating_add(idle_cycles))
                        }
                        (false, PowerPolicy::AlwaysOn) => None,
                    };
                    if let Some(at) = eligible_at {
                        best_retry = best_retry.min(at.max(self.now.saturating_add(1)));
                    }
                }
            }
        }
        if best_retry == Cycle::MAX {
            // Queues empty with nothing scheduled: sleep a long horizon.
            best_retry = self.now.saturating_add(4096);
        }
        Decision::Idle { retry_at: best_retry }
    }

    /// Attempts to issue one command at the current cycle. Returns whether
    /// a command was issued; updates `next_wake` otherwise.
    fn schedule_once(&mut self) -> bool {
        #[cfg(debug_assertions)]
        self.debug_validate_counters();
        if self.power_managed() {
            self.manage_power();
        }
        let decision = self.decide();
        if let Decision::Idle { retry_at } = decision {
            // The hot no-issue path: skip the timing clone below.
            self.next_wake = retry_at.max(self.now.saturating_add(1));
            // Blocked with work queued: start (or continue) a stall
            // interval. Cycles accrue in `settle_stall` as time actually
            // elapses, so totals are tick-split-invariant.
            if self.read_q.len + self.write_q.len == 0 {
                self.stall_since = None;
            } else if self.stall_since.is_none() {
                self.stall_since = Some(self.now);
            }
            return false;
        }
        self.stall_since = None;
        let t = self.cfg.timing.clone();
        match decision {
            Decision::Refresh { rank } => {
                self.account_bg(rank);
                self.log_cmd(rank, DdrCmd::Refresh);
                self.ranks[rank].begin_refresh(self.now, &t);
                self.refresh_pending[rank] = false;
                self.refresh_owed -= 1;
                self.refresh_next =
                    self.ranks.iter().map(Rank::next_refresh).min().unwrap_or(Cycle::MAX);
                self.energy.refreshes += 1;
                self.stats.refreshes += 1;
                if let Some(w) = self.wear.as_deref_mut() {
                    w.on_refresh(rank);
                }
                true
            }
            Decision::Cas { write, bidx, pos } => {
                self.issue_cas(write, bidx, pos);
                true
            }
            Decision::Act { rank, bank, row } => {
                let group = bank / self.cfg.topology.banks_per_group();
                self.account_bg(rank);
                self.log_cmd(rank, DdrCmd::Act { bank, row });
                self.ranks[rank].bank_mut(bank).activate(self.now, row, &t);
                self.ranks[rank].record_activate(self.now, group, &t);
                self.rank_open_banks[rank] += 1;
                let bidx = rank * self.cfg.topology.banks + bank;
                self.read_q.set_open_row(bidx, Some(row));
                self.write_q.set_open_row(bidx, Some(row));
                self.energy.activates += 1;
                // Classify for stats at first ACT for this request.
                self.stats.row_misses += 1;
                self.stats.activations += 1;
                if let Some(w) = self.wear.as_deref_mut() {
                    let alarms = w.on_act(rank, bank, row);
                    for alarm in alarms.into_iter().flatten() {
                        self.stats.hammer_alarms += 1;
                        self.trace.record_at(
                            self.now,
                            EventKind::HammerAlarm {
                                channel: self.trace_channel,
                                rank: alarm.victim.rank.min(u8::MAX as usize) as u8,
                                bank: alarm.victim.bank.min(u8::MAX as usize) as u8,
                                row: alarm.victim.row.min(u32::MAX as usize) as u32,
                                window: alarm.window.min(u64::from(u32::MAX)) as u32,
                            },
                        );
                    }
                }
                true
            }
            Decision::Pre { rank, bank, conflict } => {
                self.account_bg(rank);
                self.log_cmd_as(rank, DdrCmd::Pre { bank }, |e| DdrEvent { conflict, ..e });
                self.ranks[rank].bank_mut(bank).precharge(self.now, &t);
                self.ranks[rank].record_activity(self.now);
                self.rank_open_banks[rank] -= 1;
                let bidx = rank * self.cfg.topology.banks + bank;
                self.read_q.set_open_row(bidx, None);
                self.write_q.set_open_row(bidx, None);
                if conflict {
                    self.stats.row_conflicts += 1;
                }
                true
            }
            Decision::Idle { .. } => unreachable!("handled before the issue arms"),
        }
    }

    fn issue_cas(&mut self, write: bool, bidx: usize, pos: usize) {
        let t = self.cfg.timing.clone();
        let q = if write { &mut self.write_q } else { &mut self.read_q };
        let e = q.remove_hit(bidx, pos);
        let (rank_idx, bank_idx, group) = self.bank_of[bidx];
        self.rank_queued[rank_idx] -= 1;

        // Row-hit statistic: CAS on an open row that required no ACT this
        // scheduling round counts as a hit if the open row matched from
        // the start; we approximate by classifying now.
        if let RowOutcome::Hit = self.ranks[rank_idx].bank(bank_idx).classify(e.row) {
            self.stats.row_hits += 1;
        }

        let data_latency = if write { t.cwl } else { t.cl };
        let data_start = self.now.saturating_add(data_latency);
        let data_end = data_start.saturating_add(t.t_burst);

        let cmd = if write {
            DdrCmd::Wr { bank: bank_idx, row: e.row }
        } else {
            DdrCmd::Rd { bank: bank_idx, row: e.row }
        };
        let (now, arrival) = (self.now, e.req.arrival);
        self.log_cmd_as(rank_idx, cmd, |ev| DdrEvent {
            waited: now.saturating_sub(arrival).min(u64::from(u32::MAX)) as u32,
            data: data_end.saturating_sub(now).min(u64::from(u16::MAX)) as u16,
            ..ev
        });

        if write {
            self.ranks[rank_idx].bank_mut(bank_idx).write(self.now, &t);
            self.rank_next_read[rank_idx] =
                self.rank_next_read[rank_idx].max(data_end.saturating_add(t.t_wtr));
            self.energy.writes += 1;
            if let Some(w) = self.wear.as_deref_mut() {
                w.on_write(rank_idx, bank_idx, e.row);
            }
        } else {
            self.ranks[rank_idx].bank_mut(bank_idx).read(self.now, &t);
            self.energy.reads += 1;
        }
        self.ranks[rank_idx].record_cas(self.now, group, &t);

        self.bus_free_at = data_end;
        self.bus_last_rank = Some(rank_idx);
        self.bus_last_write = Some(write);
        self.stats.data_bus_busy_cycles = self.stats.data_bus_busy_cycles.saturating_add(t.t_burst);
        self.energy.io_bits += (self.cfg.topology.line_bytes * 8) as u64;

        self.pending.push(Pending {
            finish: data_end,
            id: e.req.id,
            kind: e.req.kind,
            arrival: e.req.arrival,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelConfig, PowerPolicy, Timing};

    fn quiet_cfg() -> ChannelConfig {
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = false;
        cfg
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let mut ch = DramChannel::new(quiet_cfg());
        let t = Timing::ddr3_1600();
        let id = ch.enqueue_read(0).unwrap();
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        // Cold access: ACT at ~0, CAS at tRCD, data at +CL+tBURST, plus a
        // cycle of command-bus pipelining.
        let expected = t.t_rcd + t.cl + t.t_burst;
        assert!(
            done[0].latency >= expected && done[0].latency <= expected + 4,
            "latency {} vs expected ~{}",
            done[0].latency,
            expected
        );
    }

    #[test]
    fn row_hits_are_faster_than_cold_access() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enqueue_read(0).unwrap();
        ch.enqueue_read(64).unwrap();
        ch.enqueue_read(128).unwrap();
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 3);
        assert!(ch.stats().row_hits >= 2, "sequential lines should hit the open row");
    }

    #[test]
    fn row_conflict_forces_precharge() {
        let mut ch = DramChannel::new(quiet_cfg());
        let topo = ch.config().topology.clone();
        // Two addresses in the same bank, different rows.
        let stride = (topo.row_bytes * topo.banks * topo.ranks) as u64;
        ch.enqueue_read(0).unwrap();
        ch.enqueue_read(stride).unwrap();
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 2);
        assert!(ch.stats().row_conflicts >= 1, "expected a row conflict");
    }

    #[test]
    fn reads_prioritized_over_writes_until_drain() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..10 {
            ch.enqueue_write((i * 1_000_000) as u64).unwrap();
        }
        let rid = ch.enqueue_read(64).unwrap();
        ch.tick(200);
        let done = ch.drain_completions();
        assert!(
            done.iter().any(|c| c.id == rid),
            "read must complete while small write queue waits"
        );
    }

    #[test]
    fn drain_hysteresis_starves_reads_until_low_watermark() {
        // Regression test for the mid-drain priority flip: once the write
        // queue crosses the high watermark, reads must wait until the
        // queue drains to the low watermark — a read must not slip in on
        // cycles where no write command happens to be issuable.
        let mut ch = DramChannel::new(quiet_cfg());
        let hi = ch.config().write_drain.hi;
        let lo = ch.config().write_drain.lo;
        let topo = ch.config().topology.clone();
        let row_stride = (topo.row_bytes * topo.banks * topo.ranks) as u64;
        // Every write targets its own row of one bank, so each is a row
        // miss even after FR-FCFS reordering (alternating between two
        // rows would be rescheduled into two row-hit streaks). Each
        // write then spends most of its time waiting on tRAS/tRP with
        // no write command issuable — exactly the idle slots a
        // mid-drain priority flip would hand to the read.
        for i in 0..(hi + 1) as u64 {
            ch.enqueue_write(i * row_stride).unwrap();
        }
        // A read in a different rank (unaffected by tWTR from the write
        // bursts), ready to issue the moment it is scanned.
        let rank_stride = (topo.row_bytes * topo.banks) as u64;
        let rid = ch.enqueue_read(rank_stride).unwrap();

        let mut read_done_at = None;
        while read_done_at.is_none() && ch.now() < 50_000 {
            ch.tick(8);
            if ch.drain_completions().iter().any(|c| c.id == rid) {
                read_done_at = Some(ch.now());
            }
        }
        read_done_at.expect("read must eventually complete");
        assert!(
            ch.stats().writes_completed as usize >= hi - lo - 4,
            "read completed after only {} writes; drain mode must hold reads until \
             the queue reaches the low watermark ({} of {} writes)",
            ch.stats().writes_completed,
            hi - lo,
            hi + 1
        );
        // Hysteresis: draining stopped at the low watermark, not at zero.
        assert!(
            ch.write_queue_len() >= lo / 2 && ch.write_queue_len() <= lo,
            "write queue should sit near the low watermark when the read is served, got {}",
            ch.write_queue_len()
        );
    }

    #[test]
    fn blocked_starving_head_does_not_idle_queue() {
        // Regression test for anti-starvation head-of-queue handling: an
        // over-age head that cannot issue any command (here: pinned
        // behind an enormous tRAS before its row conflict can precharge)
        // must not stall every other ready request in the queue.
        let mut cfg = quiet_cfg();
        cfg.timing.t_ras = 50_000;
        cfg.timing.t_rc = 50_100;
        let mut ch = DramChannel::new(cfg);
        let topo = ch.config().topology.clone();
        let row_stride = (topo.row_bytes * topo.banks * topo.ranks) as u64;
        let bank_stride = topo.row_bytes as u64;

        // Open row 0 of bank 0 and retire a read from it.
        ch.enqueue_read(0).unwrap();
        // Row conflict in bank 0: its PRE is legal only at tRAS = 50k.
        ch.enqueue_read(row_stride).unwrap();
        // Age the conflicting head past STARVATION_LIMIT.
        ch.tick(STARVATION_LIMIT + 200);
        assert_eq!(ch.drain_completions().len(), 1, "only the row-0 read can finish");

        // Younger reads to other banks: all trivially servable.
        for i in 1..=30u64 {
            ch.enqueue_read(i * bank_stride).unwrap();
        }
        ch.tick(5_000);
        let done = ch.drain_completions();
        assert!(
            done.len() >= 25,
            "ready requests must flow past a permanently-blocked starving head, got {}",
            done.len()
        );
    }

    #[test]
    fn early_cycle_bursts_never_overlap_on_the_bus() {
        // Boundary test for the bus-constraint arithmetic at simulation
        // start, where `bus_free` is below the data latency: the very
        // first bursts must still be serialized by at least tBURST.
        let mut ch = DramChannel::new(quiet_cfg());
        let t = Timing::ddr3_1600();
        let bank_stride = ch.config().topology.row_bytes as u64;
        for i in 0..3u64 {
            ch.enqueue_write(i * bank_stride).unwrap();
        }
        for i in 3..6u64 {
            ch.enqueue_read(i * bank_stride).unwrap();
        }
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 6);
        let mut finishes: Vec<Cycle> = done.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            assert!(
                w[1] - w[0] >= t.t_burst,
                "data bursts overlap near cycle 0: finishes {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn write_drain_triggers_above_hi_watermark() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..41 {
            ch.enqueue_write((i as u64) * 4096).unwrap();
        }
        ch.tick(5_000);
        let _ = ch.drain_completions();
        assert!(ch.stats().writes_completed > 0, "drain mode should retire writes");
    }

    #[test]
    fn forwarding_from_write_queue() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enqueue_write(0x2000).unwrap();
        let rid = ch.enqueue_read(0x2000).unwrap();
        ch.tick(5);
        let done = ch.drain_completions();
        let fwd = done.iter().find(|c| c.id == rid).expect("forwarded read completes fast");
        assert!(fwd.latency <= 2);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut ch = DramChannel::new(quiet_cfg());
        let cap = ch.config().read_queue_capacity;
        for i in 0..cap {
            assert!(ch.enqueue_read((i * 64) as u64).is_some());
        }
        assert!(ch.enqueue_read(0xFFFF00).is_none(), "read queue must reject overflow");
    }

    #[test]
    fn bandwidth_approaches_bus_limit_for_streams() {
        let mut ch = DramChannel::new(quiet_cfg());
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut addr = 0u64;
        // Stream sequential reads for 20k cycles.
        while ch.now() < 20_000 {
            while issued - completed < 32 {
                if ch.enqueue_read(addr).is_some() {
                    addr += 64;
                    issued += 1;
                } else {
                    break;
                }
            }
            ch.tick(16);
            completed += ch.drain_completions().len() as u64;
        }
        let util = ch.stats().bus_utilization(ch.now());
        assert!(util > 0.7, "streaming reads should near-saturate the bus, got {util}");
    }

    #[test]
    fn refresh_happens_when_enabled() {
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = true;
        let mut ch = DramChannel::new(cfg);
        ch.tick(7_000); // past tREFI=6240
        assert!(ch.stats().refreshes >= 1, "refresh must fire after tREFI");
    }

    #[test]
    fn idle_rank_powers_down_and_wakes_for_work() {
        let mut cfg = quiet_cfg();
        cfg.power_policy = PowerPolicy::PowerDown { idle_cycles: 100 };
        let mut ch = DramChannel::new(cfg);
        ch.tick(500);
        assert!(
            matches!(ch.rank_power_state(0), PowerState::PowerDown { .. }),
            "idle rank should power down"
        );
        let id = ch.enqueue_read(0).unwrap();
        let done = ch.run_until_idle(10_000);
        assert!(done.iter().any(|c| c.id == id), "request must wake the rank");
        assert!(ch.rank_powerdown_cycles(0) >= 300);
    }

    #[test]
    fn forced_down_rank_stays_down_until_woken() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.force_rank_down(2);
        ch.tick(50);
        assert!(matches!(ch.rank_power_state(2), PowerState::PowerDown { .. }));
        ch.wake_rank(2);
        ch.tick(50);
        assert!(matches!(ch.rank_power_state(2), PowerState::Active));
    }

    #[test]
    fn energy_accumulates_background_and_dynamic() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..16 {
            ch.enqueue_read((i * 64) as u64).unwrap();
        }
        ch.run_until_idle(50_000);
        ch.tick(1_000);
        let e = ch.energy();
        assert!(e.background_nj > 0.0);
        assert!(e.activate_nj > 0.0);
        assert!(e.burst_nj > 0.0);
        assert!(e.io_nj > 0.0);
    }

    #[test]
    fn completions_report_monotone_finish_times() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..32 {
            ch.enqueue_read((i * 64 + i * 128 * 1024) as u64).unwrap();
        }
        let done = ch.run_until_idle(100_000);
        assert_eq!(done.len(), 32);
        for w in done.windows(2) {
            assert!(w[0].finish <= w[1].finish, "drain order must be finish order");
        }
    }

    #[test]
    fn fcfs_policy_still_makes_progress() {
        let mut cfg = quiet_cfg();
        cfg.scheduler = SchedulerPolicy::Fcfs;
        let mut ch = DramChannel::new(cfg);
        for i in 0..8 {
            ch.enqueue_read((i * 911 * 64) as u64).unwrap();
        }
        let done = ch.run_until_idle(100_000);
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn idle_tick_skips_ahead_without_per_cycle_polling() {
        // Regression guard for the event-driven tick fast path: an empty
        // channel advanced one million cycles must jump between wakeup
        // events, not evaluate the scheduler every cycle.
        let mut ch = DramChannel::new(quiet_cfg());
        ch.tick(1_000_000);
        assert_eq!(ch.now(), 1_000_000);
        let calls = ch.stats().scheduler_invocations;
        assert!(calls < 1_000, "idle tick ran the scheduler {calls} times over 1M cycles");
    }

    #[test]
    fn idle_tick_with_refresh_still_skips_ahead() {
        // With refresh enabled the channel wakes once per tREFI (plus a
        // few cycles around each refresh) — still thousands of times
        // fewer scheduler runs than cycles.
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = true;
        let mut ch = DramChannel::new(cfg);
        ch.tick(1_000_000);
        assert_eq!(ch.now(), 1_000_000);
        assert!(ch.stats().refreshes >= 100, "refresh must keep firing while idle");
        let calls = ch.stats().scheduler_invocations;
        assert!(calls < 10_000, "refresh-only tick ran the scheduler {calls} times over 1M cycles");
    }

    #[test]
    fn mixed_read_write_all_complete() {
        let mut ch = DramChannel::new(quiet_cfg());
        let mut expected = 0;
        for i in 0..20u64 {
            if i % 3 == 0 {
                ch.enqueue_write(i * 64 * 7919).unwrap();
            } else {
                ch.enqueue_read(i * 64 * 104729).unwrap();
            }
            expected += 1;
        }
        let done = ch.run_until_idle(200_000);
        assert_eq!(done.len(), expected);
        assert!(ch.is_idle());
    }

    /// Byte address of `(rank, bank, row, col)` under the channel's
    /// default interleaving.
    fn addr_of(ch: &DramChannel, rank: usize, bank: usize, row: usize, col: usize) -> u64 {
        let mapper = AddressMapper::new(ch.config().topology.clone(), Interleave::RowRankBankCol);
        mapper.encode(Coords { rank, bank, row, col })
    }

    #[test]
    fn wear_tracker_attributes_acts_and_writes_per_row() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enable_wear();
        let a = addr_of(&ch, 0, 0, 100, 0);
        let b = addr_of(&ch, 0, 0, 200, 0);
        ch.enqueue_read(a).unwrap();
        ch.enqueue_read(b).unwrap(); // conflict: second ACT
        ch.enqueue_write(a).unwrap(); // third ACT + one WR
        ch.run_until_idle(100_000);
        let snap = ch.wear().expect("wear enabled").snapshot();
        assert_eq!(snap.total_acts, ch.stats().activations, "tracker must match the counter");
        assert_eq!(snap.total_acts, 3);
        assert_eq!(snap.total_writes, 1);
        assert_eq!(ch.wear().unwrap().acts(0, 0, 100), 2);
        assert_eq!(ch.wear().unwrap().acts(0, 0, 200), 1);
    }

    #[test]
    fn warmup_reset_clears_wear_with_the_stats() {
        // Warm-up boundary regression (PR 2 pattern): reset_stats at
        // the measurement boundary must zero the wear tracker too, or
        // warm-up activations leak into the measured threat report.
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enable_wear();
        for i in 0..8u64 {
            ch.enqueue_read(i * 1_000_000).unwrap();
        }
        ch.run_until_idle(100_000);
        assert!(ch.stats().activations > 0);
        ch.reset_stats();
        assert_eq!(ch.stats().activations, 0);
        assert_eq!(ch.stats().hammer_alarms, 0);
        let snap = ch.wear().unwrap().snapshot();
        assert_eq!(snap.total_acts, 0, "warm-up ACTs leaked past reset");
        assert_eq!(snap.peak_window, 0);
        // Post-reset traffic is counted from zero and still matches.
        ch.enqueue_read(addr_of(&ch, 0, 0, 7, 0)).unwrap();
        ch.run_until_idle(100_000);
        let snap = ch.wear().unwrap().snapshot();
        assert_eq!(snap.total_acts, 1);
        assert_eq!(snap.total_acts, ch.stats().activations);
    }

    #[test]
    fn double_sided_hammer_crosses_the_ddr4_threshold() {
        // Satellite: injected hot-row traffic must cross the DDR4
        // hammer threshold. Double-sided hammer on rows v±1 in one
        // bank: every ACT on either aggressor bumps victim v's window,
        // and v (chosen far from the REF round-robin start) is never
        // refreshed within the run, so the window accumulates to the
        // threshold. Refresh stays ENABLED to prove REF traffic on
        // other rows does not close the victim's window.
        let spec = crate::spec::DramSpec::ddr4_2400();
        let cfg = spec.main_channel();
        let threshold = spec.hammer_threshold;
        let mut ch = DramChannel::new(cfg);
        ch.enable_wear();
        let victim = 20_000usize;
        let lo = addr_of(&ch, 0, 0, victim - 1, 0);
        let hi = addr_of(&ch, 0, 0, victim + 1, 0);
        // One request at a time, strictly alternating the two
        // aggressors: each lands on a bank whose open row is the other
        // aggressor, forcing PRE+ACT per request (batching them would
        // let FR-FCFS group row hits and skip the ACTs a real hammer
        // loop is built to force). Small tick quanta keep the ACT rate
        // dense enough to cross the threshold within one tREFW — a
        // hammer that paces itself slower than the refresh wheel is
        // harmless, and the model correctly shows that.
        let mut flip = false;
        for _ in 0..threshold + 16 {
            let a = if flip { hi } else { lo };
            flip = !flip;
            ch.enqueue_read(a).expect("single request always fits");
            while ch.drain_completions().is_empty() {
                ch.tick(32);
            }
        }
        let wear = ch.wear().unwrap();
        assert!(
            wear.window(0, 0, victim) >= threshold,
            "victim window {} never reached the DDR4 threshold {threshold}",
            wear.window(0, 0, victim)
        );
        assert!(ch.stats().hammer_alarms >= 1, "crossing must raise an alarm");
        assert!(ch.stats().refreshes > 0, "refresh was supposed to stay enabled");
        let snap = wear.snapshot();
        assert_eq!(snap.peak_victim, Some(crate::wear::RowId { rank: 0, bank: 0, row: victim }));
        assert_eq!(snap.total_acts, ch.stats().activations);
    }
}
