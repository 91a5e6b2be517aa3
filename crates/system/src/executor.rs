//! The cycle-level trace executor: runs protocol [`RequestTrace`]s
//! against shared DRAM channels and external buses.
//!
//! Each in-flight request walks its phases in order. Starting a phase
//! reserves external-bus slots, schedules crypto completion times, and
//! enqueues DRAM line requests (incrementally when controller queues are
//! full). A phase finishes when all of its bus/crypto deadlines have
//! passed and all of its DRAM requests have completed; the next phase
//! then starts. Contention between concurrent requests arises naturally
//! from the shared channels and buses.

use std::collections::HashMap;

use dram_sim::bus::Bus;
use dram_sim::channel::DramChannel;
use dram_sim::config::{ChannelConfig, Cycle};
use dram_sim::power::EnergyBreakdown;
use dram_sim::request::{Completion, RequestId};
use dram_sim::wear::KeyMap;
use sdimm::trace::{Activity, RequestTrace};
use sdimm_telemetry::{
    BackendDecision, CellTrace, CycleProfiler, EventKind, MetricsRegistry, SharedCycle,
};

/// Handle identifying a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExecId(pub u64);

/// Progress notifications from the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent {
    /// The phase marked `data_ready_phase` completed: the CPU has its
    /// data.
    DataReady {
        /// Which request.
        id: ExecId,
        /// Completion cycle.
        at: Cycle,
    },
    /// All phases completed; protocol cleanup (appends, write-backs) is
    /// finished.
    Done {
        /// Which request.
        id: ExecId,
        /// Completion cycle.
        at: Cycle,
    },
}

#[derive(Debug)]
struct PendingLine {
    channel: usize,
    addr: u64,
    is_write: bool,
}

#[derive(Debug)]
struct Inflight {
    id: ExecId,
    trace: RequestTrace,
    phase: usize,
    /// Lines of the current phase not yet accepted by their controller.
    pending: Vec<PendingLine>,
    /// DRAM requests of the current phase still in flight.
    outstanding: usize,
    /// Latest bus/crypto completion time of the current phase.
    busy_until: Cycle,
    /// Cycle the current phase began (trace-span start).
    phase_started: Cycle,
    data_ready_sent: bool,
    backend_released: bool,
    started: bool,
}

/// Aggregate work attribution collected by the executor: how many cycles
/// of crypto and external-bus occupancy each run consumed, and the
/// high-water marks of its queues. Resettable at the warm-up boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total crypto-unit busy cycles scheduled (summed across requests;
    /// concurrent crypto on different requests counts multiply).
    pub crypto_cycles: u64,
    /// Data cycles reserved on the external buses.
    pub ext_data_cycles: u64,
    /// Command slots reserved on the external buses.
    pub ext_commands: u64,
    /// DRAM line requests issued to the internal channels.
    pub dram_lines: u64,
    /// Peak number of concurrently running traces: those that hold
    /// their ORAM backend, have released it, or claim none. A trace
    /// queued behind a busy backend is not running yet and is counted by
    /// `max_backend_queue` instead, so a machine whose one backend
    /// serializes every access (Freecursive, Split) peaks at 1. The
    /// `inflight` trace counter tracks the same count.
    pub max_inflight: u64,
    /// Peak depth of any serialized-backend wait queue.
    pub max_backend_queue: u64,
    /// Times a trace had to queue behind a busy ORAM backend.
    pub backend_conflicts: u64,
}

/// Executes request traces against channels and buses.
#[derive(Debug)]
pub struct Executor {
    channels: Vec<DramChannel>,
    buses: Vec<Bus>,
    /// Which bus serves each SDIMM (empty for baseline machines).
    bus_of: Vec<usize>,
    now: Cycle,
    next_id: u64,
    inflight: Vec<Inflight>,
    /// Traces waiting for their serialized ORAM backend to free up.
    backend_waiting: HashMap<usize, std::collections::VecDeque<Inflight>>,
    /// Backends currently executing a trace.
    backend_busy: std::collections::HashSet<usize>,
    /// Maps each in-flight DRAM request ([`route_key`]) to the request
    /// that owns it.
    routing: KeyMap<ExecId>,
    /// Completion buffer reused by every `process` call.
    completions: Vec<Completion>,
    /// Empty in-flight list with capacity: `process` refills it with the
    /// requests still running and keeps the old list as the next spare.
    spare: Vec<Inflight>,
    events: Vec<ExecEvent>,
    /// Off-DIMM I/O energy per bit for bus transfers (pJ).
    bus_pj_per_bit: f64,
    /// Work-attribution counters (crypto/bus/DRAM split, queue peaks).
    exec_stats: ExecStats,
    /// Event-ring handle for this cell; disabled by default.
    trace: CellTrace,
    /// In-flight count last recorded: the trace records changes only.
    traced_inflight: usize,
    /// Simulated-time sampling profiler; disabled by default.
    profiler: CycleProfiler,
    /// Root frames for this executor's profiler stacks
    /// (`protocol;<machine-name>`).
    profile_prefix: String,
    /// Cycle of the most recent profiler sample.
    last_sample: Cycle,
    /// Cycle the next profiler sample is due.
    sample_due: Cycle,
    /// Shared simulated clock published every tick so out-of-band
    /// observers (the stashes' occupancy ticks) read the executor's
    /// `now` without holding a reference to it.
    clock: SharedCycle,
}

/// `v` narrowed to a trace event's 32-bit payload (saturating).
fn narrow(v: u64) -> u32 {
    v.min(u64::from(u32::MAX)) as u32
}

/// The trace event for backend decision `decision` on request `id`.
fn backend_event(id: ExecId, decision: BackendDecision) -> EventKind {
    EventKind::Backend { request: narrow(id.0), decision }
}

/// Routing key of DRAM request `id` on `channel`: the channel in the top
/// 16 bits, the channel's own request id (a count) below them.
fn route_key(channel: usize, id: RequestId) -> u64 {
    debug_assert!(channel < 1 << 16 && id.0 < 1 << 48, "route key fields overflow");
    (channel as u64) << 48 | id.0
}

impl Executor {
    /// Creates an executor over `n_channels` identical channels.
    ///
    /// `bus_map` assigns each channel/SDIMM to an external bus index
    /// (pass an empty slice for baseline machines where the channels
    /// *are* the main memory and no SDIMM bus exists).
    pub fn new(n_channels: usize, cfg: ChannelConfig, bus_map: &[usize]) -> Self {
        assert!(n_channels > 0);
        let bus_count = bus_map.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        assert!(bus_map.is_empty() || bus_map.len() == n_channels);
        let bus_pj_per_bit = cfg.power.io_pj_per_bit_offdimm;
        Executor {
            channels: (0..n_channels).map(|_| DramChannel::new(cfg.clone())).collect(),
            buses: (0..bus_count).map(|_| Bus::new()).collect(),
            bus_of: bus_map.to_vec(),
            now: 0,
            next_id: 0,
            inflight: Vec::new(),
            backend_waiting: HashMap::new(),
            backend_busy: std::collections::HashSet::new(),
            routing: KeyMap::default(),
            completions: Vec::new(),
            spare: Vec::new(),
            events: Vec::new(),
            bus_pj_per_bit,
            exec_stats: ExecStats::default(),
            trace: CellTrace::disabled(),
            traced_inflight: 0,
            profiler: CycleProfiler::disabled(),
            profile_prefix: String::new(),
            last_sample: 0,
            sample_due: 0,
            clock: SharedCycle::new(),
        }
    }

    /// The executor's shared simulated clock: updated to `now` as time
    /// advances. A cell's [`CellTrace`] holds a clone, and stamps the
    /// events of layers without a clock of their own (the stashes'
    /// occupancy ticks) with it.
    pub fn shared_clock(&self) -> SharedCycle {
        self.clock.clone()
    }

    /// Attaches a cell's trace handle: every channel records its DDR
    /// commands (tagged with its index), and the executor records phase
    /// completions, backend decisions and each change of its in-flight
    /// count. Disabled by default; one branch per event.
    pub fn set_trace(&mut self, trace: CellTrace) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.set_trace(trace.clone(), i.min(u8::MAX as usize) as u8);
        }
        self.trace = trace;
    }

    /// Attaches a cycle-attribution profiler. Every
    /// [`CycleProfiler::interval`] simulated cycles the executor charges
    /// the elapsed window to the oldest in-flight request's current
    /// phase as a folded stack rooted at `protocol;<machine_name>`.
    pub fn set_profiler(&mut self, profiler: CycleProfiler, machine_name: &str) {
        self.profile_prefix = format!("protocol;{machine_name}");
        self.last_sample = self.now;
        self.sample_due = self.now.saturating_add(profiler.interval());
        self.profiler = profiler;
    }

    /// Attaches a fresh command log to every DRAM channel and returns the
    /// handles in channel order, for differential replay auditing
    /// (`sdimm-audit`). Must be called before any traffic reaches the
    /// channels: a replay auditor cannot validate a stream that starts
    /// mid-flight, with unknown bank state behind it.
    pub fn attach_cmd_logs(&mut self) -> Vec<dram_sim::cmdlog::CmdLog> {
        self.channels
            .iter_mut()
            .map(|ch| {
                let log = dram_sim::cmdlog::CmdLog::enabled();
                ch.set_cmd_log(log.clone());
                log
            })
            .collect()
    }

    /// Enables the per-row wear/disturbance tracker on every DRAM
    /// channel. Like the trace, this is off by default (one
    /// `Option` branch per ACT when disabled) and should be switched on
    /// before traffic so lifetime counts cover the whole run.
    pub fn enable_wear(&mut self) {
        for ch in &mut self.channels {
            ch.enable_wear();
        }
    }

    /// Work-attribution counters collected so far.
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec_stats
    }

    /// Clears performance statistics on the executor and every channel —
    /// the warm-up/measured-window boundary. Timing and energy state are
    /// untouched; in-flight work continues unaffected.
    pub fn reset_stats(&mut self) {
        self.exec_stats = ExecStats::default();
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }

    /// Exports executor attribution plus per-channel stats as a metrics
    /// registry (`exec.*`, `dram.chan<i>.*`).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("exec.crypto_cycles", self.exec_stats.crypto_cycles);
        m.counter_add("exec.ext_data_cycles", self.exec_stats.ext_data_cycles);
        m.counter_add("exec.ext_commands", self.exec_stats.ext_commands);
        m.counter_add("exec.dram_lines", self.exec_stats.dram_lines);
        m.counter_add("exec.backend_conflicts", self.exec_stats.backend_conflicts);
        m.gauge_set("exec.max_inflight", self.exec_stats.max_inflight as f64);
        m.gauge_set("exec.max_backend_queue", self.exec_stats.max_backend_queue as f64);
        m.counter_add("bus.data_bytes", self.bus_bytes());
        m.counter_add("bus.commands", self.bus_commands());
        let busy: u64 = self.buses.iter().map(Bus::data_busy_cycles).sum();
        m.counter_add("bus.data_busy_cycles", busy);
        if self.now > 0 && !self.buses.is_empty() {
            m.gauge_set(
                "bus.utilization",
                busy as f64 / (self.now as f64 * self.buses.len() as f64),
            );
        }
        for (i, ch) in self.channels.iter().enumerate() {
            m.absorb(&format!("dram.chan{i}"), &ch.stats().to_metrics());
        }
        m
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of traces not finished yet: the running ones that
    /// [`ExecStats::max_inflight`] counts plus those queued on a busy
    /// backend.
    pub fn active(&self) -> usize {
        self.inflight.len() + self.backend_waiting.values().map(|q| q.len()).sum::<usize>()
    }

    /// Borrow a channel (stats).
    pub fn channel(&self, i: usize) -> &DramChannel {
        &self.channels[i]
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Whether there is an external SDIMM bus (the baselines have none).
    pub fn has_bus(&self) -> bool {
        !self.buses.is_empty()
    }

    /// Total bytes moved over the external buses.
    pub fn bus_bytes(&self) -> u64 {
        self.buses.iter().map(Bus::data_bytes).sum()
    }

    /// Total command slots used on the external buses.
    pub fn bus_commands(&self) -> u64 {
        self.buses.iter().map(Bus::commands).sum()
    }

    /// Aggregate energy: channel energy plus external-bus I/O energy.
    pub fn energy(&mut self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for ch in &mut self.channels {
            e.merge(&ch.energy());
        }
        let bus_bits = self.bus_bytes() * 8;
        e.io_nj += bus_bits as f64 * self.bus_pj_per_bit / 1000.0;
        e
    }

    /// Submits a request trace for execution. Traces claiming a busy
    /// ORAM backend queue behind it (FIFO) and start when it frees.
    pub fn submit(&mut self, trace: RequestTrace) -> ExecId {
        let id = ExecId(self.next_id);
        self.next_id += 1;
        let mut req = Inflight {
            id,
            trace,
            phase: 0,
            pending: Vec::new(),
            outstanding: 0,
            busy_until: self.now,
            phase_started: self.now,
            data_ready_sent: false,
            backend_released: false,
            started: false,
        };
        if req.trace.phases.is_empty() {
            self.events.push(ExecEvent::DataReady { id, at: self.now });
            self.events.push(ExecEvent::Done { id, at: self.now });
            return id;
        }
        if let Some(backend) = req.trace.backend {
            if self.backend_busy.contains(&backend) {
                self.exec_stats.backend_conflicts += 1;
                self.trace.record_at(self.now, backend_event(id, BackendDecision::Wait));
                let q = self.backend_waiting.entry(backend).or_default();
                q.push_back(req);
                self.exec_stats.max_backend_queue =
                    self.exec_stats.max_backend_queue.max(q.len() as u64);
                return id;
            }
            self.backend_busy.insert(backend);
            self.trace.record_at(self.now, backend_event(id, BackendDecision::Acquire));
        }
        self.start_phase(&mut req);
        self.inflight.push(req);
        self.exec_stats.max_inflight = self.exec_stats.max_inflight.max(self.inflight.len() as u64);
        id
    }

    /// Takes accumulated events.
    pub fn poll(&mut self) -> Vec<ExecEvent> {
        std::mem::take(&mut self.events)
    }

    fn start_phase(&mut self, req: &mut Inflight) {
        req.started = true;
        req.busy_until = self.now;
        req.phase_started = self.now;
        let phase = &req.trace.phases[req.phase];
        for act in &phase.par {
            match act {
                Activity::ExtShort { sdimm } => {
                    let bus = self.bus_of.get(*sdimm).copied().unwrap_or(0);
                    if let Some(b) = self.buses.get_mut(bus) {
                        let slot = b.reserve(self.now, 0);
                        req.busy_until = req.busy_until.max(slot.done_at);
                        self.exec_stats.ext_commands += 1;
                    }
                }
                Activity::ExtTransfer { sdimm, bytes } | Activity::ExtMeta { sdimm, bytes } => {
                    let bus = self.bus_of.get(*sdimm).copied().unwrap_or(0);
                    if let Some(b) = self.buses.get_mut(bus) {
                        let busy_before = b.data_busy_cycles();
                        let slot = b.reserve(self.now, *bytes);
                        req.busy_until = req.busy_until.max(slot.done_at);
                        self.exec_stats.ext_commands += 1;
                        self.exec_stats.ext_data_cycles = self
                            .exec_stats
                            .ext_data_cycles
                            .saturating_add(b.data_busy_cycles().saturating_sub(busy_before));
                    }
                }
                Activity::Crypto { units } => {
                    let cycles = Activity::crypto_cycles(*units);
                    req.busy_until = req.busy_until.max(self.now.saturating_add(cycles));
                    self.exec_stats.crypto_cycles =
                        self.exec_stats.crypto_cycles.saturating_add(cycles);
                }
                Activity::Dram { channel, reads, writes } => {
                    self.exec_stats.dram_lines += (reads.len() + writes.len()) as u64;
                    for &addr in reads {
                        req.pending.push(PendingLine { channel: *channel, addr, is_write: false });
                    }
                    for &addr in writes {
                        req.pending.push(PendingLine { channel: *channel, addr, is_write: true });
                    }
                }
                Activity::WakeRank { channel, rank } => {
                    let ch = &mut self.channels[*channel];
                    ch.wake_rank(*rank);
                    for r in 0..ch.config().topology.ranks {
                        if r != *rank {
                            ch.force_rank_down(r);
                        }
                    }
                }
            }
        }
        self.pump_pending(req);
    }

    /// Tries to enqueue a request's pending DRAM lines.
    fn pump_pending(&mut self, req: &mut Inflight) {
        let mut i = 0;
        while i < req.pending.len() {
            let line = &req.pending[i];
            let accepted = if line.is_write {
                self.channels[line.channel].enqueue_write(line.addr)
            } else {
                self.channels[line.channel].enqueue_read(line.addr)
            };
            match accepted {
                Some(rid) => {
                    self.routing.insert(route_key(line.channel, rid), req.id);
                    req.outstanding += 1;
                    req.pending.swap_remove(i);
                }
                None => {
                    i += 1; // queue full; retry on a later pump
                }
            }
        }
    }

    /// Observation grid for [`tick`](Self::tick): `process` runs only at
    /// absolute multiples of this step. Anchoring the grid in absolute
    /// time (rather than per `tick` call) makes the event schedule
    /// independent of how callers slice their calls, and matches the
    /// historical fixed-quantum loop at every production call site.
    const STEP: Cycle = 8;

    /// Advances simulated time, pumping all in-flight requests.
    ///
    /// Event-driven: instead of stepping a fixed quantum, the loop jumps
    /// straight to the next grid-aligned point at which anything
    /// *observable* can happen — a DRAM completion, a bus/crypto phase
    /// deadline, queue room for a pending line, a profiler sample — and
    /// calls `process` only there. Channels absorb arbitrary-sized jumps
    /// (their own tick is event-driven and split-invariant), so every
    /// skipped grid point is one where `process` would have been an
    /// observable no-op: the command streams, events, and metrics are
    /// identical to stepping [`STEP`](Self::STEP) cycles at a time.
    pub fn tick(&mut self, cycles: Cycle) {
        let end = self.now.saturating_add(cycles);
        while self.now < end {
            let next_grid = (self.now / Self::STEP + 1).saturating_mul(Self::STEP);
            // The clamp floor lets the walk stop refining as soon as it
            // proves the next grid point must be visited anyway — the
            // common case while traffic is dense.
            let horizon = self.next_event_horizon_clamped(next_grid).max(next_grid);
            // First grid point that can observe the horizon event (an
            // event at `e >= horizon` is observed at the same grid point
            // the fixed-quantum loop would have seen it).
            let rem = horizon % Self::STEP;
            let target =
                if rem == 0 { horizon } else { horizon.saturating_add(Self::STEP - rem) }.min(end);
            let dt = target.saturating_sub(self.now);
            for ch in &mut self.channels {
                ch.tick(dt);
            }
            self.now = target;
            self.clock.publish(self.now);
            if self.now.is_multiple_of(Self::STEP) {
                self.process();
                if self.profiler.is_enabled() && self.now >= self.sample_due {
                    self.profile_sample();
                }
            }
        }
    }

    /// Earliest future cycle at which this executor could emit an event
    /// or otherwise observably change state — a phase deadline expiring,
    /// a DRAM completion arriving, queue room opening for a
    /// not-yet-accepted line, a profiler sample — or `Cycle::MAX` when
    /// fully idle. A *conservative lower bound*: the real event may be
    /// later (`tick` re-derives horizons as it goes, so a driver that
    /// stops here and finds nothing simply jumps again), never earlier.
    /// External drivers may therefore advance straight to their own
    /// observation grid point at or after this cycle without missing
    /// anything.
    ///
    /// Once the walk proves the horizon is at or below `floor` it returns
    /// immediately with whatever bound it has. Callers that only use the
    /// horizon as `max(horizon, floor)` (i.e. their next observation
    /// point is at least `floor` anyway) get an identical answer for a
    /// fraction of the walk while traffic is dense; pass 0 for the exact
    /// horizon.
    pub fn next_event_horizon_clamped(&self, floor: Cycle) -> Cycle {
        let mut h = Cycle::MAX;
        if self.profiler.is_enabled() {
            h = h.min(self.sample_due);
            if h <= floor {
                return h;
            }
        }
        let mut pending_lines = false;
        for req in &self.inflight {
            if !req.pending.is_empty() {
                // Queue-full retries: room opens when a CAS dequeues an
                // entry, i.e. at some scheduler invocation, so fall back
                // to the channels' own wake horizon below. Pump timing
                // feeds request arrival times, which feed scheduling —
                // it must match the fixed-quantum cadence exactly.
                pending_lines = true;
            } else if req.outstanding == 0 {
                h = h.min(req.busy_until);
                if h <= floor {
                    return h;
                }
            }
        }
        for ch in &self.channels {
            h = h.min(if pending_lines { ch.next_event() } else { ch.completion_horizon() });
            if h <= floor {
                return h;
            }
        }
        h
    }

    /// Takes one profiler sample: charges the cycles since the previous
    /// sample to the stack describing what the executor is doing *now*
    /// (sampled attribution, like a wall-clock profiler but in simulated
    /// time, so results are deterministic).
    fn profile_sample(&mut self) {
        let weight = self.now.saturating_sub(self.last_sample);
        self.last_sample = self.now;
        self.sample_due = self.now.saturating_add(self.profiler.interval());
        if weight == 0 {
            return;
        }
        let stack = self.current_profile_stack();
        self.profiler.add_sample(&stack, weight);
    }

    /// The folded stack for the executor's current state: the oldest
    /// in-flight request's phase (role + bounding resource + channel),
    /// else `backend_wait` when requests are queued behind a busy ORAM
    /// backend, else `idle`.
    fn current_profile_stack(&self) -> String {
        let oldest = self
            .inflight
            .iter()
            .filter(|r| r.started && r.phase < r.trace.phases.len())
            .min_by_key(|r| r.id);
        if let Some(req) = oldest {
            let role = req.trace.phase_role(req.phase);
            let (resource, channel) = req.trace.phases[req.phase].profile_frame();
            return match channel {
                Some(c) => format!("{};{role};{resource};ch{c}", self.profile_prefix),
                None => format!("{};{role};{resource}", self.profile_prefix),
            };
        }
        if self.backend_waiting.values().any(|q| !q.is_empty()) {
            return format!("{};backend_wait", self.profile_prefix);
        }
        format!("{};idle", self.profile_prefix)
    }

    /// Runs until every submitted request is done or `limit` elapses.
    pub fn run_until_quiescent(&mut self, limit: Cycle) {
        let deadline = self.now.saturating_add(limit);
        while self.active() > 0 && self.now < deadline {
            self.tick(64.min(deadline.saturating_sub(self.now)).max(1));
        }
    }

    fn process(&mut self) {
        // Route channel completions to their owners.
        for (ci, ch) in self.channels.iter_mut().enumerate() {
            self.completions.clear();
            ch.drain_completions_into(&mut self.completions);
            for comp in &self.completions {
                if let Some(owner) = self.routing.remove(&route_key(ci, comp.id)) {
                    if let Some(req) = self.inflight.iter_mut().find(|r| r.id == owner) {
                        req.outstanding -= 1;
                    }
                }
            }
        }

        // Advance requests, refilling `inflight` with those still running.
        let mut requests = std::mem::replace(&mut self.inflight, std::mem::take(&mut self.spare));
        let now = self.now;
        for mut req in requests.drain(..) {
            if !req.pending.is_empty() {
                self.pump_pending(&mut req);
            }
            // Phase complete?
            while req.pending.is_empty() && req.outstanding == 0 && now >= req.busy_until {
                self.trace.record_at(
                    now,
                    EventKind::Phase {
                        request: narrow(req.id.0),
                        phase: narrow(req.phase as u64),
                        dur: narrow(now.saturating_sub(req.phase_started)),
                    },
                );
                if req.phase == req.trace.data_ready_phase && !req.data_ready_sent {
                    req.data_ready_sent = true;
                    self.events.push(ExecEvent::DataReady { id: req.id, at: now });
                }
                if req.phase >= req.trace.backend_release_phase && !req.backend_released {
                    req.backend_released = true;
                    if let Some(backend) = req.trace.backend {
                        self.trace.record_at(now, backend_event(req.id, BackendDecision::Release));
                        // Hand the backend to the next waiting trace; the
                        // remaining (CPU-side) phases run concurrently.
                        let next = self
                            .backend_waiting
                            .get_mut(&backend)
                            .and_then(std::collections::VecDeque::pop_front);
                        match next {
                            Some(mut waiting) => {
                                let acquire = backend_event(waiting.id, BackendDecision::Acquire);
                                self.trace.record_at(now, acquire);
                                self.start_phase(&mut waiting);
                                self.inflight.push(waiting);
                            }
                            None => {
                                self.backend_busy.remove(&backend);
                            }
                        }
                    }
                }
                if req.phase + 1 >= req.trace.phases.len() {
                    if !req.data_ready_sent {
                        req.data_ready_sent = true;
                        self.events.push(ExecEvent::DataReady { id: req.id, at: now });
                    }
                    self.events.push(ExecEvent::Done { id: req.id, at: now });
                    req.phase = usize::MAX; // sentinel: fully done
                    break;
                }
                req.phase += 1;
                self.start_phase(&mut req);
            }
            if req.phase != usize::MAX {
                self.inflight.push(req);
            }
        }
        self.spare = requests;
        self.exec_stats.max_inflight = self.exec_stats.max_inflight.max(self.inflight.len() as u64);
        if self.trace.is_enabled() && self.inflight.len() != self.traced_inflight {
            self.traced_inflight = self.inflight.len();
            let count = narrow(self.traced_inflight as u64);
            self.trace.record_at(now, EventKind::InFlight { count });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdimm::trace::Phase;

    fn quiet_cfg() -> ChannelConfig {
        let mut cfg = ChannelConfig::sdimm_internal();
        cfg.refresh_enabled = false;
        cfg
    }

    fn dram_trace(channel: usize, n: u64) -> RequestTrace {
        RequestTrace::new(vec![Phase::one(Activity::Dram {
            channel,
            reads: (0..n).map(|i| i * 64).collect(),
            writes: Vec::new(),
        })])
    }

    #[test]
    fn single_dram_phase_completes() {
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        let id = ex.submit(dram_trace(0, 4));
        ex.run_until_quiescent(100_000);
        let events = ex.poll();
        assert!(
            events.contains(&ExecEvent::Done { id, at: ex.now() })
                || events.iter().any(|e| matches!(e, ExecEvent::Done { id: i, .. } if *i == id))
        );
    }

    #[test]
    fn phases_serialize() {
        // Phase 2's DRAM work must not start before phase 1's crypto ends.
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        let trace = RequestTrace::new(vec![
            Phase::one(Activity::Crypto { units: 100 }), // ≈120 cycles
            Phase::one(Activity::Dram { channel: 0, reads: vec![0], writes: vec![] }),
        ]);
        let id = ex.submit(trace);
        ex.run_until_quiescent(100_000);
        let done_at = ex
            .poll()
            .iter()
            .find_map(|e| match e {
                ExecEvent::Done { id: i, at } if *i == id => Some(*at),
                _ => None,
            })
            .expect("request finishes");
        assert!(done_at > 120, "crypto phase must delay the DRAM phase, done at {done_at}");
    }

    #[test]
    fn data_ready_precedes_done_when_marked() {
        let mut ex = Executor::new(2, quiet_cfg(), &[0, 0]);
        let mut trace = RequestTrace::new(vec![
            Phase::one(Activity::Dram { channel: 0, reads: vec![0], writes: vec![] }),
            Phase::one(Activity::Dram { channel: 1, reads: vec![64], writes: vec![] }),
        ]);
        trace.data_ready_phase = 0;
        let id = ex.submit(trace);
        ex.run_until_quiescent(100_000);
        let ev = ex.poll();
        let ready =
            ev.iter().position(|e| matches!(e, ExecEvent::DataReady { id: i, .. } if *i == id));
        let done = ev.iter().position(|e| matches!(e, ExecEvent::Done { id: i, .. } if *i == id));
        assert!(ready.unwrap() < done.unwrap());
    }

    #[test]
    fn parallel_channels_overlap() {
        // The same DRAM work split across 2 channels should finish much
        // faster than serialized on one.
        let run = |channels: usize| {
            let mut ex = Executor::new(channels, quiet_cfg(), &vec![0; channels]);
            let per = 64 / channels as u64;
            let phases = vec![Phase {
                par: (0..channels)
                    .map(|c| Activity::Dram {
                        channel: c,
                        reads: (0..per).map(|i| i * 64).collect(),
                        writes: Vec::new(),
                    })
                    .collect(),
            }];
            ex.submit(RequestTrace::new(phases));
            ex.run_until_quiescent(1_000_000);
            ex.now()
        };
        let one = run(1);
        let two = run(2);
        assert!((two as f64) < one as f64 * 0.7, "1ch={one} 2ch={two}");
    }

    #[test]
    fn bus_contention_serializes_transfers() {
        let mut ex = Executor::new(2, quiet_cfg(), &[0, 0]);
        // Two simultaneous 4 KB transfers on the same bus.
        for s in 0..2usize {
            ex.submit(RequestTrace::new(vec![Phase::one(Activity::ExtTransfer {
                sdimm: s,
                bytes: 4096,
            })]));
        }
        ex.run_until_quiescent(1_000_000);
        // 8 KB at 16 B/cycle = 512 cycles minimum.
        assert!(ex.now() >= 512, "bus must serialize: now = {}", ex.now());
        assert_eq!(ex.bus_bytes(), 8192);
    }

    #[test]
    fn many_requests_all_complete() {
        let mut ex = Executor::new(2, quiet_cfg(), &[0, 1]);
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(ex.submit(dram_trace(i % 2, 8)));
        }
        ex.run_until_quiescent(1_000_000);
        let done: Vec<ExecId> = ex
            .poll()
            .iter()
            .filter_map(|e| match e {
                ExecEvent::Done { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), 20);
    }

    #[test]
    fn empty_trace_completes_immediately() {
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        let id = ex.submit(RequestTrace::default());
        let ev = ex.poll();
        assert!(ev.iter().any(|e| matches!(e, ExecEvent::Done { id: i, .. } if *i == id)));
    }

    #[test]
    fn backend_serialization_orders_traces() {
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        let mut t1 = dram_trace(0, 8);
        t1.backend = Some(0);
        let mut t2 = dram_trace(0, 8);
        t2.backend = Some(0);
        let a = ex.submit(t1);
        let b = ex.submit(t2);
        assert_eq!(ex.active(), 2, "second trace queues behind the busy backend");
        ex.run_until_quiescent(1_000_000);
        let done: Vec<(ExecId, Cycle)> = ex
            .poll()
            .iter()
            .filter_map(|e| match e {
                ExecEvent::Done { id, at } => Some((*id, *at)),
                _ => None,
            })
            .collect();
        let ta = done.iter().find(|(i, _)| *i == a).unwrap().1;
        let tb = done.iter().find(|(i, _)| *i == b).unwrap().1;
        assert!(tb > ta, "backend must serialize: {ta} vs {tb}");
        let stats = ex.exec_stats();
        assert_eq!((stats.max_inflight, stats.max_backend_queue), (1, 1));
    }

    #[test]
    fn backend_release_phase_frees_backend_early() {
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        // Trace A: a short DRAM phase then a long crypto tail; backend
        // released after the DRAM phase.
        let mut a = RequestTrace::new(vec![
            Phase::one(Activity::Dram { channel: 0, reads: vec![0], writes: vec![] }),
            Phase::one(Activity::Crypto { units: 2000 }), // ≈2 kcycle tail
        ]);
        a.backend = Some(0);
        a.backend_release_phase = 0;
        let mut b = RequestTrace::new(vec![Phase::one(Activity::Dram {
            channel: 0,
            reads: vec![64],
            writes: vec![],
        })]);
        b.backend = Some(0);
        ex.submit(a);
        let bid = ex.submit(b);
        ex.run_until_quiescent(1_000_000);
        let done_b = ex
            .poll()
            .iter()
            .find_map(|e| match e {
                ExecEvent::Done { id, at } if *id == bid => Some(*at),
                _ => None,
            })
            .expect("b finishes");
        assert!(
            done_b < 1000,
            "b should start as soon as a's DRAM phase ends, not after its crypto tail: {done_b}"
        );
    }

    #[test]
    fn lowpower_wakerank_forces_other_ranks_down() {
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        ex.submit(RequestTrace::new(vec![Phase {
            par: vec![
                Activity::WakeRank { channel: 0, rank: 1 },
                Activity::Dram { channel: 0, reads: vec![0], writes: vec![] },
            ],
        }]));
        ex.run_until_quiescent(100_000);
        ex.tick(200); // give the scheduler time to close banks and sleep
        use dram_sim::rank::PowerState;
        let asleep = (0..ex.channel(0).config().topology.ranks)
            .filter(|r| matches!(ex.channel(0).rank_power_state(*r), PowerState::PowerDown { .. }))
            .count();
        assert!(asleep >= 2, "most idle ranks should be powered down, got {asleep}");
    }

    #[test]
    fn energy_includes_bus_io() {
        let mut ex = Executor::new(1, quiet_cfg(), &[0]);
        ex.submit(RequestTrace::new(vec![Phase::one(Activity::ExtTransfer {
            sdimm: 0,
            bytes: 64 * 1024,
        })]));
        ex.run_until_quiescent(1_000_000);
        let e = ex.energy();
        assert!(e.io_nj > 0.0, "bus transfers must show up as I/O energy");
    }
}
