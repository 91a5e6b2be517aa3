//! The event ring: one bounded buffer of small `Copy` events per run.
//!
//! A [`TraceSink`] is a cheaply clonable handle to the ring. The runner
//! derives one [`CellTrace`] per simulated cell — the ring, the cell's
//! trace `pid` and its executor's [`SharedCycle`] — and the engine layers
//! (DRAM channels, the executor, the stashes) report each instrumented
//! event once through it, as a typed [`Event`]. Recording never
//! allocates. Process and thread names and the free-text annotations of
//! the leakage and hammer reports ([`TraceSink::span`],
//! [`TraceSink::instant`]) go in a side table that only setup and report
//! code touches.
//!
//! The disabled sink holds no ring, so every record call is a single
//! `Option` branch and the instrumentation stays compiled in
//! unconditionally.
//!
//! The ring has two renderings: [`TraceSink::export_chrome_json`] writes
//! everything as Chrome trace-event JSON for Perfetto (simulator cycles
//! map 1:1 onto trace microseconds; the track layout is DESIGN.md §7),
//! and the black box (see [`crate::recorder`]) writes one pid's newest
//! events as a text report plus a Chrome slice.
//!
//! Recording stages events per thread and takes the ring lock once per
//! `STAGE_BATCH` events. A thread's stage is flushed when it records
//! into a different ring, when it reads any ring (so a dump from the
//! panic hook, which runs on the panicking thread, includes that
//! thread's latest events), at [`TraceSink::flush`] (the runner calls it
//! as each cell ends) and at thread exit. A read on one thread does not
//! see the up to `STAGE_BATCH - 1` events still staged by another live
//! thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::json::escape;
use crate::recorder::{Event, EventKind};

/// A shared simulated-cycle clock: the executor publishes its `now` each
/// tick, and observers (stash ticks, the obliviousness recorder's cycle
/// stamps) read it without holding a reference to the executor. Purely
/// simulated time — never a wall clock — so stamped streams are
/// bit-reproducible across runs.
#[derive(Debug, Clone, Default)]
pub struct SharedCycle(Arc<AtomicU64>);

impl SharedCycle {
    /// A clock reading 0.
    pub fn new() -> Self {
        SharedCycle::default()
    }

    /// Publishes the current simulated cycle.
    pub fn publish(&self, cycle: u64) {
        self.0.store(cycle, Ordering::Relaxed);
    }

    /// The most recently published simulated cycle.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default ring capacity: enough for a quick-scale figure run without
/// unbounded growth on full-scale ones.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Thread id of executor lane 0. Phase spans and backend decisions of
/// request `r` land on lane `r % LANES`, so concurrent requests render
/// side by side; DRAM channel `c` owns thread id `c` below them.
const LANE_TID: u32 = 64;

/// Number of executor lanes.
const LANES: u32 = 8;

/// Thread id of the hammer-alarm track.
pub(crate) const WEAR_TID: u32 = LANE_TID + LANES;

/// The name of event track `tid` in the layout above.
fn track_name(tid: u32) -> String {
    match tid {
        t if t < LANE_TID => format!("dram.chan{t}"),
        t if t < WEAR_TID => format!("exec.lane{}", t - LANE_TID),
        _ => "dram.hammer".to_string(),
    }
}

/// Events a thread stages before taking the ring lock once for all of
/// them (see the module docs for when a stage is flushed early).
const STAGE_BATCH: usize = 64;

/// Bounded event storage plus the side table.
#[derive(Debug)]
pub(crate) struct Ring {
    events: Vec<Event>,
    head: usize,
    capacity: usize,
    /// Events overwritten because the ring was full.
    pub(crate) dropped: u64,
    /// Track names: `(pid, None)` names a process, `(pid, Some(tid))` a
    /// thread.
    pub(crate) names: Vec<(u32, Option<u32>, String)>,
    /// Free-text annotations, already rendered, keyed like events.
    notes: Vec<((u64, u32, u32), String)>,
    /// Pids whose black box has been written: one dump per cell.
    pub(crate) dumped: Vec<u32>,
}

impl Ring {
    /// Appends `batch` in order, overwriting the oldest events once full.
    fn extend(&mut self, batch: &[Event]) {
        let (fill, mut rest) = batch.split_at(batch.len().min(self.capacity - self.events.len()));
        self.events.extend_from_slice(fill);
        while !rest.is_empty() {
            let n = rest.len().min(self.capacity - self.head);
            self.events[self.head..self.head + n].copy_from_slice(&rest[..n]);
            self.head = (self.head + n) % self.capacity;
            self.dropped += n as u64;
            rest = &rest[n..];
        }
    }

    /// Buffered events, oldest first.
    pub(crate) fn ordered(&self) -> impl DoubleEndedIterator<Item = &Event> {
        self.events[self.head..].iter().chain(&self.events[..self.head])
    }
}

type Shared = Arc<Mutex<Ring>>;

/// Locks the ring. Poisoning is ignored: the ring holds plain data that
/// no panic leaves half-written, and dumps must work inside panic hooks.
pub(crate) fn lock(ring: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's staged events and the ring they belong to.
#[derive(Debug, Default)]
struct Stage {
    owner: Option<Shared>,
    events: Vec<Event>,
}

impl Stage {
    /// Moves the staged events into their ring.
    fn flush(&mut self) {
        if let (Some(owner), false) = (&self.owner, self.events.is_empty()) {
            lock(owner).extend(&self.events);
            self.events.clear();
        }
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static STAGE: RefCell<Stage> = const { RefCell::new(Stage { owner: None, events: Vec::new() }) };
}

/// Flushes the calling thread's stage, whichever ring it belongs to. A
/// no-op while the stage is busy or already torn down.
fn flush_stage() {
    let _ = STAGE.try_with(|stage| stage.try_borrow_mut().map(|mut s| s.flush()));
}

/// Appends `e` to the calling thread's stage, flushing the stage first
/// if it holds another ring's events and after it fills. Pushes straight
/// into the ring if the stage is unavailable.
fn stage(ring: &Shared, e: Event) {
    let staged = STAGE.try_with(|stage| {
        let Ok(mut s) = stage.try_borrow_mut() else { return false };
        if !s.owner.as_ref().is_some_and(|o| Arc::ptr_eq(o, ring)) {
            s.flush();
            s.owner = Some(Arc::clone(ring));
        }
        s.events.push(e);
        if s.events.len() >= STAGE_BATCH {
            s.flush();
        }
        true
    });
    if staged != Ok(true) {
        lock(ring).extend(&[e]);
    }
}

/// Handle to a shared event ring; `Clone` hands out another reference
/// to the same ring. `TraceSink::disabled()` records nothing and costs
/// one branch per call.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Shared>);

impl TraceSink {
    /// A sink recording into a ring of [`DEFAULT_CAPACITY`] events.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sink recording into a ring bounded at `capacity` events. The
    /// ring is reserved up front, so recording never reallocates; the
    /// system only backs the pages events actually reach.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink(Some(Arc::new(Mutex::new(Ring {
            events: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
            names: Vec::new(),
            notes: Vec::new(),
            dumped: Vec::new(),
        }))))
    }

    /// The no-op sink: records nothing, single branch per call.
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// True when events are actually being recorded. Guard expensive
    /// argument formatting on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The handle one cell records through: this ring, the cell's trace
    /// process id, and the clock its clock-less layers stamp events from.
    pub fn cell(&self, pid: u32, clock: SharedCycle) -> CellTrace {
        CellTrace { sink: self.clone(), pid, clock }
    }

    /// Moves the calling thread's staged events into their ring.
    pub fn flush(&self) {
        if self.is_enabled() {
            flush_stage();
        }
    }

    /// The ring, with the calling thread's stage flushed into it. `None`
    /// for a disabled sink.
    pub(crate) fn ring(&self) -> Option<MutexGuard<'_, Ring>> {
        let ring = self.0.as_ref()?;
        flush_stage();
        Some(lock(ring))
    }

    /// Names the process track `pid` (side table).
    pub fn process_name(&self, pid: u32, name: &str) {
        if let Some(ring) = &self.0 {
            lock(ring).names.push((pid, None, name.to_string()));
        }
    }

    /// Names the thread track `(pid, tid)` (side table).
    pub fn thread_name(&self, pid: u32, tid: u32, name: &str) {
        if let Some(ring) = &self.0 {
            lock(ring).names.push((pid, Some(tid), name.to_string()));
        }
    }

    /// Annotates track `(pid, tid)` with a span named `name` over cycles
    /// `[start, end)` (side table; for reports, not the engine).
    pub fn span(&self, cat: &'static str, name: &str, pid: u32, tid: u32, start: u64, end: u64) {
        let dur = format!(", \"dur\": {}", end.saturating_sub(start));
        self.note('X', cat, name, pid, tid, start, &dur);
    }

    /// Annotates track `(pid, tid)` with an instant named `name` at cycle
    /// `ts` (side table; for reports, not the engine).
    pub fn instant(&self, cat: &'static str, name: &str, pid: u32, tid: u32, ts: u64) {
        self.note('i', cat, name, pid, tid, ts, INSTANT);
    }

    #[allow(clippy::too_many_arguments)]
    fn note(&self, ph: char, cat: &str, name: &str, pid: u32, tid: u32, ts: u64, extra: &str) {
        if let Some(ring) = &self.0 {
            let mut json = String::new();
            write_record(&mut json, ph, cat, name, ts, pid, tid, extra);
            lock(ring).notes.push(((ts, pid, tid), json));
        }
    }

    /// Number of events currently buffered (0 for a disabled sink).
    pub fn len(&self) -> usize {
        self.ring().map_or(0, |r| r.events.len())
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring().map_or(0, |r| r.dropped)
    }

    /// Buffered events oldest-first. Empty for a disabled sink.
    pub fn events(&self) -> Vec<Event> {
        self.ring().map_or_else(Vec::new, |r| r.ordered().copied().collect())
    }

    /// Exports everything recorded so far — the side table's names and
    /// annotations, then every buffered event — as a Chrome trace-event
    /// JSON document, sorted by timestamp so the exported timeline is
    /// monotone. Returns `None` for a disabled sink.
    pub fn export_chrome_json(&self) -> Option<String> {
        let ring = self.ring()?;
        let events: Vec<&Event> = ring.ordered().collect();
        Some(chrome_json(&ring.names, &ring.notes, &events, ring.dropped))
    }
}

/// One cell's handle on the ring: the ring, the cell's trace process id
/// and its executor's clock. Disabled (the default) costs one branch per
/// record call.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    sink: TraceSink,
    pid: u32,
    clock: SharedCycle,
}

impl CellTrace {
    /// The no-op handle.
    pub fn disabled() -> Self {
        CellTrace::default()
    }

    /// True when events are actually being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Records `kind` at cycle `ts`.
    #[inline]
    pub fn record_at(&self, ts: u64, kind: EventKind) {
        if let Some(ring) = &self.sink.0 {
            stage(ring, Event { ts, pid: self.pid, kind });
        }
    }

    /// Records `kind` at the cell clock's current cycle, for layers with
    /// no clock of their own.
    #[inline]
    pub fn record(&self, kind: EventKind) {
        if let Some(ring) = &self.sink.0 {
            stage(ring, Event { ts: self.clock.now(), pid: self.pid, kind });
        }
    }
}

/// Where one Chrome record comes from: a side-table note, or record
/// `part` of an event (see [`Event::chrome_records`]).
#[derive(Clone, Copy)]
enum Source {
    Note(u32),
    Event(u32, u8),
}

/// Receives one Chrome record as `(ph, cat, name, ts, tid, extra)`.
type Emit<'a> = dyn FnMut(char, &str, &str, u64, u32, &str) + 'a;

/// Scope field of an instant record.
const INSTANT: &str = ", \"s\": \"t\"";

/// Renders Chrome trace-event JSON: `names` and the names of every event
/// track as metadata, then `notes` and `events` together, sorted by `(ts,
/// pid, tid)` (stable, so ties keep recording order). Sorts small keys
/// and formats each event's record straight into the output, so a full
/// ring never exists twice as text.
pub(crate) fn chrome_json(
    names: &[(u32, Option<u32>, String)],
    notes: &[((u64, u32, u32), String)],
    events: &[&Event],
    dropped: u64,
) -> String {
    let mut keys: Vec<((u64, u32, u32), Source)> =
        notes.iter().enumerate().map(|(i, (key, _))| (*key, Source::Note(i as u32))).collect();
    for (i, e) in events.iter().enumerate() {
        let mut part = 0;
        e.chrome_records(&mut |_, _, _, ts, tid, _| {
            keys.push(((ts, e.pid, tid), Source::Event(i as u32, part)));
            part += 1;
        });
    }
    keys.sort_by_key(|(key, _)| *key);
    let mut tracks: Vec<(u32, u32)> = keys
        .iter()
        .filter(|(_, source)| matches!(source, Source::Event(..)))
        .map(|&((_, pid, tid), _)| (pid, tid))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tracks = tracks.into_iter().map(|(pid, tid)| (pid, Some(tid), track_name(tid)));

    let mut out = String::with_capacity(96 * keys.len() + 128);
    out.push_str("{\"traceEvents\": [");
    let mut sep = "\n";
    for (pid, tid, name) in names.iter().cloned().chain(tracks) {
        let (kind, tid_field) = match tid {
            None => ("process_name", String::new()),
            Some(tid) => ("thread_name", format!("\"tid\": {tid}, ")),
        };
        out.push_str(&format!(
            "{sep}{{\"ph\": \"M\", \"name\": \"{kind}\", \"pid\": {pid}, {tid_field}\
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(&name)
        ));
        sep = ",\n";
    }
    for (_, source) in keys {
        out.push_str(sep);
        sep = ",\n";
        match source {
            Source::Note(i) => out.push_str(&notes[i as usize].1),
            Source::Event(i, part) => {
                let e = events[i as usize];
                let mut k = 0;
                e.chrome_records(&mut |ph, cat, name, ts, tid, extra| {
                    if k == part {
                        write_record(&mut out, ph, cat, name, ts, e.pid, tid, extra);
                    }
                    k += 1;
                });
            }
        }
    }
    out.push_str(&format!(
        "\n], \"displayTimeUnit\": \"ns\", \"droppedEventCount\": {dropped}}}\n"
    ));
    out
}

/// Appends one Chrome trace-event object; `extra` holds the
/// phase-specific fields (`dur`, scope, counter `args`).
#[allow(clippy::too_many_arguments)]
fn write_record(
    out: &mut String,
    ph: char,
    cat: &str,
    name: &str,
    ts: u64,
    pid: u32,
    tid: u32,
    extra: &str,
) {
    out.push_str(&format!(
        "{{\"ph\": \"{ph}\", \"name\": \"{}\", \"cat\": \"{cat}\", \"ts\": {ts}, \"pid\": {pid}, \
         \"tid\": {tid}{extra}}}",
        escape(name)
    ));
}

impl Event {
    /// Emits this event's Chrome records through `emit(ph, cat, name, ts,
    /// tid, extra)`: DDR commands as instants on their channel's track (a
    /// CAS a channel issued also as its request's read/write span), phases
    /// as spans and
    /// backend decisions as instants on the request's executor lane, the
    /// in-flight count and stash occupancy as counters, hammer alarms on
    /// their own track.
    fn chrome_records(&self, emit: &mut Emit<'_>) {
        use crate::recorder::DdrCmdKind as K;
        let lane = |request: u32| LANE_TID + request % LANES;
        let counter = |v: u32| format!(", \"args\": {{\"value\": {v}}}");
        let ts = self.ts;
        match self.kind {
            EventKind::DdrCmd(d) => {
                let tid = u32::from(d.channel);
                let (cat, name) = match d.kind {
                    K::Act => ("dram.cmd", "act".to_string()),
                    K::Pre if d.conflict => ("dram.cmd", "pre.conflict".to_string()),
                    K::Pre => ("dram.cmd", "pre".to_string()),
                    K::Rd => ("dram.cmd", "cas.read".to_string()),
                    K::Wr => ("dram.cmd", "cas.write".to_string()),
                    K::Refresh => ("dram.cmd", format!("refresh.rank{}", d.rank)),
                    K::PowerDown => ("dram.power", format!("powerdown.rank{}", d.rank)),
                    K::PowerUp => ("dram.power", format!("powerup.rank{}", d.rank)),
                };
                emit('i', cat, &name, ts, tid, INSTANT);
                // A CAS from a captured command stream carries no span.
                if matches!(d.kind, K::Rd | K::Wr) && d.data > 0 {
                    let span = if d.kind == K::Rd { "read" } else { "write" };
                    let start = ts.saturating_sub(u64::from(d.waited));
                    let dur = u64::from(d.waited) + u64::from(d.data);
                    emit('X', "dram", span, start, tid, &format!(", \"dur\": {dur}"));
                }
            }
            EventKind::Phase { request, phase, dur } => {
                let started = ts.saturating_sub(u64::from(dur));
                let name = format!("req{request}.phase{phase}");
                let extra = format!(", \"dur\": {}", dur.max(1));
                emit('X', "exec", &name, started, lane(request), &extra);
            }
            EventKind::Backend { request, decision } => {
                let name = format!("backend.{}", decision.verb());
                emit('i', "exec", &name, ts, lane(request), INSTANT);
            }
            EventKind::InFlight { count } => emit('C', "exec", "inflight", ts, 0, &counter(count)),
            EventKind::StashTick { backend, occupancy } => {
                let name = format!("stash.backend{backend}");
                emit('C', "oram", &name, ts, 0, &counter(occupancy));
            }
            EventKind::HammerAlarm { row, .. } => {
                let name = format!("hammer 0x{row:05x}");
                emit('i', "wear", &name, ts, WEAR_TID, INSTANT);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{BackendDecision, DdrCmdKind, DdrEvent};

    fn cas(channel: u8, waited: u32, data: u16) -> EventKind {
        EventKind::DdrCmd(DdrEvent {
            channel,
            rank: 0,
            bank: 1,
            row: 7,
            kind: DdrCmdKind::Rd,
            conflict: false,
            waited,
            data,
        })
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::disabled();
        assert!(!s.is_enabled());
        let cell = s.cell(0, SharedCycle::new());
        assert!(!cell.is_enabled());
        cell.record_at(5, EventKind::InFlight { count: 1 });
        cell.record(EventKind::InFlight { count: 3 });
        s.span("x", "work", 0, 0, 10, 20);
        s.instant("x", "tick", 0, 0, 5);
        assert!(s.is_empty());
        assert_eq!(s.export_chrome_json(), None);
    }

    #[test]
    fn export_is_valid_json_with_sorted_timestamps() {
        let s = TraceSink::enabled();
        s.process_name(1, "machine \"A\"");
        s.thread_name(1, 2, "chan2");
        let cell = s.cell(1, SharedCycle::new());
        cell.record_at(250, EventKind::Phase { request: 3, phase: 0, dur: 150 });
        cell.record_at(50, EventKind::StashTick { backend: 0, occupancy: 2 });
        cell.record_at(120, EventKind::InFlight { count: 4 });
        cell.record_at(140, cas(2, 30, 15));
        cell.record_at(260, EventKind::Backend { request: 3, decision: BackendDecision::Release });
        s.span("leakage", "verdict", 9, 0, 0, 8);
        let json = s.export_chrome_json().unwrap();
        crate::json::validate(&json).expect("chrome trace must be valid JSON");

        // Records appear sorted by ts regardless of record order.
        let stash = json.find("stash.backend0").unwrap();
        let phase = json.find("\"req3.phase0\"").unwrap();
        let inflight = json.find("inflight").unwrap();
        assert!(stash < phase && phase < inflight);
        assert!(json.contains("\"dur\": 150"), "phase span from its start");
        assert!(json.contains("\"name\": \"read\", \"cat\": \"dram\", \"ts\": 110"));
        assert!(json.contains("\"dur\": 45"), "CAS carries its request span");
        assert!(json.contains("\"tid\": 67"), "request 3 renders on lane 3");
        assert!(json.contains("process_name"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("verdict"), "annotations are exported");
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let s = TraceSink::with_capacity(4);
        let cell = s.cell(0, SharedCycle::new());
        for ts in 0..10u64 {
            cell.record_at(ts, EventKind::InFlight { count: 1 });
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        let json = s.export_chrome_json().unwrap();
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"droppedEventCount\": 6"));
        // Oldest events were evicted; the newest survive.
        assert!(json.contains("\"ts\": 9"));
        assert!(!json.contains("\"ts\": 0,"));
    }

    #[test]
    fn clones_share_one_buffer() {
        let s = TraceSink::enabled();
        let t = s.clone();
        t.cell(7, SharedCycle::new()).record_at(1, EventKind::InFlight { count: 1 });
        assert_eq!(s.len(), 1);
        assert!(s.export_chrome_json().unwrap().contains("\"pid\": 7"));
    }
}
