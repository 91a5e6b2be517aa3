//! The event rings: one bounded buffer of small `Copy` events per
//! simulated cell.
//!
//! A [`TraceSink`] is a cheaply clonable handle to a run's trace store.
//! The runner opens one [`CellTrace`] per simulated cell
//! ([`TraceSink::cell`]: the cell's trace `pid`, its executor's
//! [`SharedCycle`] and a fresh ring of the sink's per-cell capacity), and
//! the engine layers (DRAM channels, the executor, the stashes) report
//! each instrumented event once through it, as a typed [`Event`]. The
//! ring belongs to the cell's handles, on the thread that runs the cell,
//! so recording is a push with no lock and no allocation. When the
//! cell's last handle drops, its events move into the sink under one
//! lock, unless the sink only arms black boxes; if the thread is
//! panicking, the cell first writes its black box (see
//! [`crate::recorder`]). Process and thread names and the free-text
//! annotations of the leakage and hammer reports ([`TraceSink::span`],
//! [`TraceSink::instant`]) go in a side table that only setup and report
//! code touches.
//!
//! The disabled sink holds no store, so every record call is a single
//! `Option` branch and the instrumentation stays compiled in
//! unconditionally.
//!
//! The finished cells have two renderings: [`TraceSink::export_chrome_json`]
//! writes them as Chrome trace-event JSON for Perfetto (simulator cycles
//! map 1:1 onto trace microseconds; the track layout is DESIGN.md §7), and
//! the black box writes one cell's newest events as a text report plus a
//! Chrome slice. The export reads cells in pid order, so equal runs
//! render equal bytes whatever order their cells finished in.

use std::cell::{Cell, RefCell};
use std::collections::btree_map::{BTreeMap, Entry};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::json::escape;
use crate::recorder::{BlackBox, Event, EventKind};

/// A shared simulated-cycle clock: the executor publishes its `now` each
/// tick, and observers without a clock of their own (the stashes'
/// occupancy ticks) read it without holding a reference to the executor.
/// Purely simulated time — never a wall clock — so stamped streams are
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

/// Events each cell keeps by default: its newest 2^14 (512 KB), which a
/// quick-scale cell fills many times over, so every cell of a figure
/// shows its steady state.
const CELL_CAPACITY: usize = 1 << 14;

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

/// One cell's bounded event storage: its newest `capacity` events and
/// how many older ones they overwrote.
#[derive(Debug, Default)]
pub(crate) struct Ring {
    events: Vec<Event>,
    /// The oldest event once the ring is full: the next one overwrites it.
    head: usize,
    capacity: usize,
    /// Events overwritten because the ring was full.
    pub(crate) dropped: u64,
}

impl Ring {
    /// An empty ring bounded at `capacity` events, reserved up front so
    /// recording never reallocates; the system only backs the pages
    /// events actually reach.
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring { events: Vec::with_capacity(capacity), head: 0, capacity, dropped: 0 }
    }

    /// Appends `e`, overwriting the oldest event once full.
    #[inline]
    fn push(&mut self, e: Event) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = if self.head + 1 == self.capacity { 0 } else { self.head + 1 };
            self.dropped += 1;
        }
    }

    /// Buffered events, oldest first.
    pub(crate) fn ordered(&self) -> impl DoubleEndedIterator<Item = &Event> {
        self.events[self.head..].iter().chain(&self.events[..self.head])
    }

    /// Number of buffered events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }
}

/// What a sink's handles share: its settings, and under one lock the
/// finished cells and the side table.
#[derive(Debug)]
struct Shared {
    /// Events each cell's ring keeps.
    capacity: usize,
    /// Black-box dump prefix (see [`TraceSink::with_blackbox`]).
    blackbox: Option<String>,
    /// Whether finished cells' rings move into `store` for export; a
    /// black-box-only sink frees each ring when its cell drops.
    keep_cells: bool,
    store: Mutex<Store>,
}

/// The finished cells and the side table.
#[derive(Debug, Default)]
pub(crate) struct Store {
    /// Each finished cell's ring, by trace pid. Cells that share a pid
    /// share its ring.
    pub(crate) cells: BTreeMap<u32, Ring>,
    /// Track names: `(pid, None)` names a process, `(pid, Some(tid))` a
    /// thread.
    names: Vec<(u32, Option<u32>, String)>,
    /// Free-text annotations, already rendered, keyed like events.
    notes: Vec<((u64, u32, u32), String)>,
}

/// Locks the store. Poisoning is ignored: it holds plain data that no
/// panic leaves half-written, and a panicking cell's drop must still
/// hand over its events.
fn lock(store: &Mutex<Store>) -> MutexGuard<'_, Store> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a run's trace store; `Clone` hands out another reference
/// to the same store. `TraceSink::disabled()` records nothing and costs
/// one branch per call.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<Shared>>);

impl TraceSink {
    /// A sink whose cells each keep their newest 2^14 events.
    pub fn enabled() -> Self {
        Self::with_capacity(CELL_CAPACITY)
    }

    /// A sink whose cells each keep their newest `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity, None, true)
    }

    /// [`TraceSink::enabled`], with every cell's black box armed: a
    /// stash breach or a panic writes the cell's newest events under
    /// `prefix` (see [`CellTrace::dump_blackbox`]).
    pub fn with_blackbox(prefix: &str) -> Self {
        Self::new(CELL_CAPACITY, Some(prefix.to_string()), true)
    }

    /// [`TraceSink::with_blackbox`] for a run that exports nothing: each
    /// cell's ring lives only while the cell runs, so its black box can
    /// be written, and is freed when the cell drops. The sink holds no
    /// events.
    pub fn blackbox_only(prefix: &str) -> Self {
        Self::new(CELL_CAPACITY, Some(prefix.to_string()), false)
    }

    fn new(capacity: usize, blackbox: Option<String>, keep_cells: bool) -> Self {
        let store = Mutex::default();
        TraceSink(Some(Arc::new(Shared { capacity, blackbox, keep_cells, store })))
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

    /// The black-box dump prefix, if the sink arms one.
    pub fn blackbox_prefix(&self) -> Option<&str> {
        self.0.as_ref()?.blackbox.as_deref()
    }

    /// The handle one cell records through: a fresh ring of the sink's
    /// per-cell capacity, the cell's trace process id, and the clock its
    /// clock-less layers stamp events from. Clones share the ring; the
    /// last one to drop hands the events to this sink.
    pub fn cell(&self, pid: u32, clock: SharedCycle) -> CellTrace {
        CellTrace(self.0.as_ref().map(|shared| {
            Rc::new(Live {
                pid,
                clock,
                ring: RefCell::new(Ring::new(shared.capacity)),
                dumped: Cell::new(false),
                shared: Arc::clone(shared),
            })
        }))
    }

    /// The store, locked. `None` for a disabled sink.
    pub(crate) fn store(&self) -> Option<MutexGuard<'_, Store>> {
        self.0.as_ref().map(|shared| lock(&shared.store))
    }

    /// Names the process track `pid` (side table).
    pub fn process_name(&self, pid: u32, name: &str) {
        if let Some(mut store) = self.store() {
            store.names.push((pid, None, name.to_string()));
        }
    }

    /// Names the thread track `(pid, tid)` (side table).
    pub fn thread_name(&self, pid: u32, tid: u32, name: &str) {
        if let Some(mut store) = self.store() {
            store.names.push((pid, Some(tid), name.to_string()));
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
        if let Some(mut store) = self.store() {
            let mut json = String::new();
            write_record(&mut json, ph, cat, name, ts, pid, tid, extra);
            store.notes.push(((ts, pid, tid), json));
        }
    }

    /// Number of events the finished cells hold (0 for a disabled sink).
    pub fn len(&self) -> usize {
        self.store().map_or(0, |s| s.cells.values().map(Ring::len).sum())
    }

    /// True when the finished cells hold no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events the finished cells' rings overwrote because they were full.
    pub fn dropped(&self) -> u64 {
        self.store().map_or(0, |s| s.cells.values().map(|r| r.dropped).sum())
    }

    /// The finished cells' events: by pid, each cell's oldest first.
    /// Empty for a disabled sink.
    pub fn events(&self) -> Vec<Event> {
        self.store()
            .map_or_else(Vec::new, |s| s.cells.values().flat_map(Ring::ordered).copied().collect())
    }

    /// Exports the side table's names and annotations and every finished
    /// cell's events as a Chrome trace-event JSON document, sorted by
    /// timestamp so the exported timeline is monotone. Returns `None` for
    /// a disabled sink.
    pub fn export_chrome_json(&self) -> Option<String> {
        let store = self.store()?;
        let events: Vec<&Event> = store.cells.values().flat_map(Ring::ordered).collect();
        let dropped = store.cells.values().map(|r| r.dropped).sum();
        Some(chrome_json(&store.names, &store.notes, &events, dropped))
    }
}

/// One open cell: its ring and the latch of its one black box.
#[derive(Debug)]
struct Live {
    pid: u32,
    clock: SharedCycle,
    ring: RefCell<Ring>,
    /// Set once the cell's black box is armed: one dump per cell.
    dumped: Cell<bool>,
    shared: Arc<Shared>,
}

impl Live {
    /// Latches the cell's one black box (see [`CellTrace::arm_dump`]).
    fn arm(&self) -> bool {
        self.shared.blackbox.is_some() && !self.dumped.replace(true)
    }

    /// Writes the cell's black box under the sink's prefix (see
    /// [`CellTrace::dump_blackbox`]).
    fn dump(&self, reason: &str) -> Option<std::io::Result<(String, String)>> {
        let prefix = format!("{}-pid{}", self.shared.blackbox.as_deref()?, self.pid);
        Some(BlackBox::of(&self.ring.borrow()).write(&prefix, self.pid, reason))
    }
}

impl Drop for Live {
    /// Hands the cell's events to the sink, if it keeps cells. A cell
    /// dropped by a panic first writes its black box, unless it already
    /// dumped; a failed write is reported, never raised, since a panic
    /// here would abort.
    fn drop(&mut self) {
        if std::thread::panicking() && self.arm() {
            if let Some(written) = self.dump("panic") {
                let line = match written {
                    Ok((txt, json)) => format!("dumped {txt} and {json}"),
                    Err(e) => format!("dump of pid {} failed: {e}", self.pid),
                };
                use std::io::Write;
                // lint: print-ok(a panicking cell's drop has no caller to return its black box's paths to)
                let _ = writeln!(std::io::stderr(), "flight recorder: panic; {line}");
            }
        }
        if !self.shared.keep_cells {
            return;
        }
        let ring = self.ring.take();
        match lock(&self.shared.store).cells.entry(self.pid) {
            Entry::Vacant(slot) => {
                slot.insert(ring);
            }
            Entry::Occupied(mut slot) => {
                let kept = slot.get_mut();
                kept.dropped += ring.dropped;
                ring.ordered().for_each(|e| kept.push(*e));
            }
        }
    }
}

/// One cell's handle on its ring: the ring, the cell's trace process id
/// and its executor's clock. Clones share the ring, which never leaves
/// the thread that runs the cell. Disabled (the default) costs one
/// branch per record call.
#[derive(Debug, Clone, Default)]
pub struct CellTrace(Option<Rc<Live>>);

impl CellTrace {
    /// The no-op handle.
    pub fn disabled() -> Self {
        CellTrace::default()
    }

    /// True when events are actually being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records `kind` at cycle `ts`.
    #[inline]
    pub fn record_at(&self, ts: u64, kind: EventKind) {
        if let Some(live) = &self.0 {
            live.ring.borrow_mut().push(Event { ts, pid: live.pid, kind });
        }
    }

    /// Records `kind` at the cell clock's current cycle, for layers with
    /// no clock of their own.
    #[inline]
    pub fn record(&self, kind: EventKind) {
        if let Some(live) = &self.0 {
            live.ring.borrow_mut().push(Event { ts: live.clock.now(), pid: live.pid, kind });
        }
    }

    /// Latches the cell's one black box: `true` the first time it is
    /// called on a cell whose sink has a black-box prefix, `false` after
    /// that (clones included) and always without a prefix. A cascade of
    /// triggering conditions (a stash breach, then a panic) so writes
    /// one dump.
    pub fn arm_dump(&self) -> bool {
        self.0.as_ref().is_some_and(|live| live.arm())
    }

    /// Writes the cell's black box — its newest
    /// [`BLACKBOX_EVENTS`](crate::recorder::BLACKBOX_EVENTS), with
    /// `reason` up top — as `<prefix>-pid<N>.blackbox.txt` and
    /// `.trace.json` under the sink's prefix, and returns the two paths.
    /// `None` for a disabled handle or a sink without a prefix. Does not
    /// consult the latch ([`arm_dump`](Self::arm_dump)).
    pub fn dump_blackbox(&self, reason: &str) -> Option<std::io::Result<(String, String)>> {
        self.0.as_ref()?.dump(reason)
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
/// track as metadata, sorted by `(pid, tid)`, then `notes` and `events`
/// together, sorted by `(ts, pid, tid)` (both stable, so ties keep their
/// order: notes, then events in the order given). Sorts small keys and
/// formats each event's record straight into the output, so the events
/// never exist twice as text.
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
    let mut metadata: Vec<(u32, Option<u32>, String)> =
        names.iter().cloned().chain(tracks).collect();
    metadata.sort_by_key(|&(pid, tid, _)| (pid, tid));

    let mut out = String::with_capacity(96 * keys.len() + 128);
    out.push_str("{\"traceEvents\": [");
    let mut sep = "\n";
    for (pid, tid, name) in metadata {
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
        drop(cell);
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
        assert!(s.is_empty(), "a cell's events reach the sink when it ends");
        drop(cell);
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

    #[test]
    fn cells_sharing_a_pid_share_its_ring() {
        let s = TraceSink::with_capacity(3);
        for ts in [10, 20] {
            let cell = s.cell(4, SharedCycle::new());
            cell.record_at(ts, EventKind::InFlight { count: 1 });
            cell.record_at(ts + 1, EventKind::InFlight { count: 2 });
        }
        let ts: Vec<u64> = s.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, [11, 20, 21]);
        assert_eq!(s.dropped(), 1);
    }
}
