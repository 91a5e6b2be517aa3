//! The events a cell's ring records, and its black-box rendering (the
//! flight recorder).
//!
//! The figure matrices replay millions of DDR commands per cell; when a
//! run goes wrong 3M commands in (a DDR timing violation, a stash-bound
//! breach, a panic), end-of-run aggregates say nothing about *what was
//! happening right then*. Each cell's ring (see [`crate::trace`])
//! already holds the structured events — DDR commands, ORAM phase
//! completions, stash occupancy ticks, backend scheduling decisions — so
//! the black box is the cell's newest [`BLACKBOX_EVENTS`] of them,
//! rendered as a human-readable report plus a Chrome trace slice
//! loadable next to the main trace. A per-cell latch makes one
//! triggering condition produce one dump.
//!
//! Every event is a small `Copy` value, so recording never allocates
//! (<5% on the enabled path, gated by the `telemetry_overhead` bench).

use crate::trace::{chrome_json, Ring, TraceSink};

/// DDR command mnemonic carried by a [`DdrEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdrCmdKind {
    /// Row activate.
    Act,
    /// Precharge.
    Pre,
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// Refresh.
    Refresh,
    /// Rank power-down entry.
    PowerDown,
    /// Rank power-up (wake).
    PowerUp,
}

impl DdrCmdKind {
    /// Short fixed-width mnemonic used in black-box reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            DdrCmdKind::Act => "ACT",
            DdrCmdKind::Pre => "PRE",
            DdrCmdKind::Rd => "RD",
            DdrCmdKind::Wr => "WR",
            DdrCmdKind::Refresh => "REF",
            DdrCmdKind::PowerDown => "PDN",
            DdrCmdKind::PowerUp => "PUP",
        }
    }
}

/// Backend-arbiter decision carried by [`EventKind::Backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendDecision {
    /// The request wants the shared ORAM backend but it is busy.
    Wait,
    /// The request acquired the shared ORAM backend.
    Acquire,
    /// The request released the shared ORAM backend.
    Release,
}

impl BackendDecision {
    /// Lowercase verb used in black-box reports.
    pub fn verb(self) -> &'static str {
        match self {
            BackendDecision::Wait => "wait",
            BackendDecision::Acquire => "acquire",
            BackendDecision::Release => "release",
        }
    }
}

/// A DDR command issued on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrEvent {
    /// Channel index.
    pub channel: u8,
    /// Rank within the channel.
    pub rank: u8,
    /// Bank within the rank (0 for rank-level commands).
    pub bank: u8,
    /// Row for `Act`, `Rd` and `Wr` commands (0 otherwise).
    pub row: u32,
    /// Command mnemonic.
    pub kind: DdrCmdKind,
    /// A `Pre` that closes a row because a queued request needs another
    /// one (a row conflict).
    pub conflict: bool,
    /// For `Rd`/`Wr`: cycles the request queued before this CAS.
    pub waited: u32,
    /// For `Rd`/`Wr`: cycles from this CAS to the end of its data burst.
    pub data: u16,
}

/// One structured event. All variants are `Copy`, allocation-free and
/// narrow (an [`Event`] is 32 bytes), so the enabled record path stays
/// cheap: a full ring is written once per event, and memory traffic is
/// most of that cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A DDR command issued on a channel.
    DdrCmd(DdrEvent),
    /// An ORAM access phase completed on the executor.
    Phase {
        /// Request id (executor-assigned, monotone).
        request: u32,
        /// Zero-based phase index within the request's chain.
        phase: u32,
        /// Cycles since the phase started.
        dur: u32,
    },
    /// Stash occupancy after an insert (one tick per block stashed).
    StashTick {
        /// Backend index (0 for single-backend machines).
        backend: u8,
        /// Stash occupancy in blocks, after the insert.
        occupancy: u32,
    },
    /// A scheduler decision on the shared ORAM backend.
    Backend {
        /// Request id contending for the backend.
        request: u32,
        /// What the arbiter decided.
        decision: BackendDecision,
    },
    /// The executor's in-flight request count changed.
    InFlight {
        /// Requests in flight after the change.
        count: u32,
    },
    /// A victim row's disturbance window crossed the standard's
    /// RowHammer threshold (raised by the wear tracker, once per
    /// victim per refresh window).
    HammerAlarm {
        /// Channel index.
        channel: u8,
        /// Rank holding the victim row.
        rank: u8,
        /// Bank holding the victim row.
        bank: u8,
        /// The victim row (the neighbor of the hammered row).
        row: u32,
        /// Window count at the crossing (== the standard's threshold).
        window: u32,
    },
}

/// A timestamped event of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle the event happened at.
    pub ts: u64,
    /// Trace process id of the cell that recorded it.
    pub pid: u32,
    /// Structured payload.
    pub kind: EventKind,
}

impl Event {
    /// One-line human-readable rendering used by black-box reports.
    pub fn describe(&self) -> String {
        match self.kind {
            EventKind::DdrCmd(DdrEvent { channel, rank, bank, row, kind, .. }) => match kind {
                DdrCmdKind::Act => format!(
                    "ddr  ch{channel} rank{rank} {:<3} bank{bank} row 0x{row:05x}",
                    kind.mnemonic()
                ),
                DdrCmdKind::Rd | DdrCmdKind::Wr | DdrCmdKind::Pre => {
                    format!("ddr  ch{channel} rank{rank} {:<3} bank{bank}", kind.mnemonic())
                }
                _ => format!("ddr  ch{channel} rank{rank} {:<3}", kind.mnemonic()),
            },
            EventKind::Phase { request, phase, dur } => format!(
                "exec req#{request} phase {phase} complete (started cycle {}, +{dur} cycles)",
                self.ts.saturating_sub(u64::from(dur))
            ),
            EventKind::StashTick { backend, occupancy } => {
                format!("oram backend{backend} stash occupancy {occupancy}")
            }
            EventKind::Backend { request, decision } => {
                format!("sched req#{request} backend {}", decision.verb())
            }
            EventKind::InFlight { count } => format!("exec {count} requests in flight"),
            EventKind::HammerAlarm { channel, rank, bank, row, window } => format!(
                "wear ch{channel} rank{rank} bank{bank} row 0x{row:05x} \
                 disturbance window {window} crossed hammer threshold"
            ),
        }
    }
}

/// Events a black box holds: deep enough for several full ORAM
/// accesses' worth of DDR commands around a fault.
pub const BLACKBOX_EVENTS: usize = 4096;

/// One cell's black box: the newest [`BLACKBOX_EVENTS`] events of its
/// ring, oldest first, and how many older events the cell recorded.
#[derive(Debug, Default)]
pub(crate) struct BlackBox {
    events: Vec<Event>,
    older: u64,
}

impl BlackBox {
    /// The black box of the cell whose events are `ring`.
    pub(crate) fn of(ring: &Ring) -> BlackBox {
        let mut events: Vec<Event> = ring.ordered().rev().take(BLACKBOX_EVENTS).copied().collect();
        events.reverse();
        let older = ring.dropped + (ring.len() - events.len()) as u64;
        BlackBox { events, older }
    }

    /// A human-readable report, oldest event first, in the
    /// actual-vs-expected style of `crates/audit` diagnostics.
    fn report(&self, reason: &str) -> String {
        let mut out = String::new();
        out.push_str("=== SDIMM flight recorder · black box ===\n");
        out.push_str(&format!("reason   : {reason}\n"));
        out.push_str(&format!(
            "captured : {} events ({} older events overwritten)\n",
            self.events.len(),
            self.older
        ));
        out.push_str(&format!("clock    : cycle {}\n\n", self.events.last().map_or(0, |e| e.ts)));
        for e in &self.events {
            out.push_str(&format!("  cycle {:>12}  {}\n", e.ts, e.describe()));
        }
        out.push_str("=== end of black box ===\n");
        out
    }

    /// Writes the report as `<prefix>.blackbox.txt` and the same events
    /// as a Chrome trace slice, under process name `flight recorder:
    /// <reason>` and loadable in Perfetto next to the main export, as
    /// `<prefix>.trace.json`. Each goes through [`write_atomic`], so an
    /// interrupted dump never leaves a truncated file. Returns the two
    /// paths.
    pub(crate) fn write(
        &self,
        prefix: &str,
        pid: u32,
        reason: &str,
    ) -> std::io::Result<(String, String)> {
        let txt_path = format!("{prefix}.blackbox.txt");
        let json_path = format!("{prefix}.trace.json");
        write_atomic(&txt_path, &self.report(reason))?;
        let process = [(pid, None, format!("flight recorder: {reason}"))];
        let events: Vec<&Event> = self.events.iter().collect();
        write_atomic(&json_path, &chrome_json(&process, &[], &events, self.older))?;
        Ok((txt_path, json_path))
    }
}

impl TraceSink {
    /// Finished cell `pid`'s black box (empty if no such cell finished).
    /// `None` for a disabled sink.
    fn blackbox(&self, pid: u32) -> Option<BlackBox> {
        Some(self.store()?.cells.get(&pid).map_or_else(BlackBox::default, BlackBox::of))
    }

    /// Renders finished cell `pid`'s black box as a human-readable
    /// report (see [`CellTrace::dump_blackbox`](crate::CellTrace::dump_blackbox)
    /// for a live cell's). `None` for a disabled sink.
    pub fn blackbox_report(&self, pid: u32, reason: &str) -> Option<String> {
        Some(self.blackbox(pid)?.report(reason))
    }

    /// Writes finished cell `pid`'s black-box report and Chrome slice
    /// (under process name `flight recorder: <reason>`) as
    /// `<prefix>.blackbox.txt` / `<prefix>.trace.json` and returns the
    /// two paths. `None` for a disabled sink; `Err` on I/O failure.
    pub fn dump_to_files(
        &self,
        prefix: &str,
        reason: &str,
        pid: u32,
    ) -> Option<std::io::Result<(String, String)>> {
        Some(self.blackbox(pid)?.write(prefix, pid, reason))
    }
}

/// Writes `contents` to `path` via a sibling temp file and an atomic
/// rename, so readers never observe a truncated file.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SharedCycle;

    fn ddr(ch: u8, kind: DdrCmdKind) -> EventKind {
        EventKind::DdrCmd(DdrEvent {
            channel: ch,
            rank: 0,
            bank: 3,
            row: 0x1a2,
            kind,
            conflict: false,
            waited: 0,
            data: 0,
        })
    }

    /// A fresh per-test scratch directory (std-only, no tempdir
    /// dependency). Dropping it removes the directory, unless the test is
    /// failing: then its files stay behind to read.
    struct Scratch(std::path::PathBuf);

    impl std::fmt::Display for Scratch {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.display().fmt(f)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                // Best effort: a directory left behind fails nothing.
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    fn scratch(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sdimm-recorder-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let s = TraceSink::disabled();
        let cell = s.cell(0, SharedCycle::new());
        cell.record(ddr(0, DdrCmdKind::Act));
        cell.record_at(5, EventKind::InFlight { count: 1 });
        assert!(!cell.arm_dump());
        assert!(cell.dump_blackbox("r").is_none());
        drop(cell);
        assert!(s.events().is_empty());
        assert_eq!(s.blackbox_report(0, "r"), None);
        assert!(s.dump_to_files("unused", "r", 0).is_none());
    }

    #[test]
    fn ring_wraps_and_dump_is_oldest_first_with_monotonic_timestamps() {
        let s = TraceSink::with_capacity(8);
        let clock = SharedCycle::new();
        let cell = s.cell(0, clock.clone());
        for i in 0..20u64 {
            clock.publish(i * 10);
            cell.record(ddr((i % 2) as u8, DdrCmdKind::Act));
        }
        drop(cell);
        assert_eq!(s.len(), 8);
        assert_eq!(s.dropped(), 12);
        let events = s.events();
        // Oldest surviving event first (cycle 120), newest last (190).
        assert_eq!(events.first().unwrap().ts, 120);
        assert_eq!(events.last().unwrap().ts, 190);
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts), "dump must be time-ordered");

        let report = s.blackbox_report(0, "[tRCD] cycle 190 rank 0: test").unwrap();
        assert!(report.contains("8 events (12 older events overwritten)"));
        assert!(report.contains("clock    : cycle 190"));
        let oldest = report.find("120  ddr").unwrap();
        let newest = report.find("190  ddr").unwrap();
        assert!(oldest < newest);
        assert!(!report.contains("110  ddr"), "evicted events must not appear");
    }

    #[test]
    fn each_black_box_holds_exactly_its_cells_newest_events() {
        // Two cells on two threads, one recording ten times faster than
        // the other, into rings smaller than the fast cell's output.
        let s = TraceSink::with_capacity(2 * BLACKBOX_EVENTS);
        std::thread::scope(|scope| {
            for (pid, n) in [(1u32, 50_000u64), (2, 5_000)] {
                let s = s.clone();
                scope.spawn(move || {
                    let cell = s.cell(pid, SharedCycle::new());
                    for ts in 0..n {
                        cell.record_at(ts, EventKind::InFlight { count: pid });
                    }
                });
            }
        });
        for (pid, n) in [(1u32, 50_000u64), (2, 5_000)] {
            let report = s.blackbox_report(pid, "r").unwrap();
            let older = n - BLACKBOX_EVENTS as u64;
            let captured = format!("captured : {BLACKBOX_EVENTS} events ({older} older events");
            assert!(report.contains(&captured), "pid {pid}: {}", &report[..200]);
            let cycles: Vec<u64> = report
                .lines()
                .filter_map(|l| l.trim_start().strip_prefix("cycle "))
                .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
                .collect();
            assert_eq!(cycles, (older..n).collect::<Vec<_>>(), "pid {pid}: its newest events");
        }
    }

    #[test]
    fn clock_register_timestamps_clockless_events() {
        let s = TraceSink::enabled();
        let clock = SharedCycle::new();
        let cell = s.cell(4, clock.clone());
        clock.publish(777);
        cell.record(EventKind::StashTick { backend: 1, occupancy: 42 });
        drop(cell);
        let events = s.events();
        assert_eq!(events[0].ts, 777);
        assert_eq!(events[0].pid, 4, "events carry their cell's pid");
    }

    #[test]
    fn chrome_slice_is_valid_json() {
        let s = TraceSink::enabled();
        let cell = s.cell(9, SharedCycle::new());
        cell.record_at(5, ddr(1, DdrCmdKind::Rd));
        cell.record_at(5, EventKind::Phase { request: 3, phase: 2, dur: 4 });
        cell.record_at(5, EventKind::Backend { request: 3, decision: BackendDecision::Acquire });
        drop(cell);
        let dir = scratch("slice");
        let prefix = format!("{dir}/slice");
        let (_, path) = s.dump_to_files(&prefix, "stash bound breached", 9).unwrap().unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        crate::json::validate(&json).expect("flight slice must be valid JSON");
        assert!(json.contains("flight recorder: stash bound breached"));
        assert!(json.contains("\"pid\": 9"));
        assert!(json.contains("dram.chan1"), "the slice names its tracks");
    }

    #[test]
    fn arm_dump_latches_once() {
        let dir = scratch("latch");
        let s = TraceSink::with_blackbox(&format!("{dir}/latch"));
        let cell = s.cell(0, SharedCycle::new());
        assert!(cell.arm_dump());
        assert!(!cell.arm_dump());
        assert!(!cell.clone().arm_dump(), "clones share the cell's latch");
        assert!(s.cell(1, SharedCycle::new()).arm_dump(), "each cell has its own latch");
        assert!(!TraceSink::enabled().cell(0, SharedCycle::new()).arm_dump(), "no prefix");
    }

    #[test]
    fn each_cell_dumps_only_its_own_events() {
        let s = TraceSink::enabled();
        let (a, b) = (s.cell(1, SharedCycle::new()), s.cell(2, SharedCycle::new()));
        a.record_at(1, EventKind::StashTick { backend: 1, occupancy: 5 });
        b.record_at(2, EventKind::StashTick { backend: 2, occupancy: 6 });
        a.record_at(3, EventKind::StashTick { backend: 1, occupancy: 7 });
        drop((a, b));
        let report = s.blackbox_report(1, "r").unwrap();
        assert!(report.contains("captured : 2 events"), "{report}");
        assert!(report.contains("backend1") && !report.contains("backend2"), "{report}");
    }

    #[test]
    fn panic_dump_writes_one_pair_per_cell_once() {
        let dir = scratch("panic");
        let s = TraceSink::with_blackbox(&format!("{dir}/panic"));
        // Cell 3 just panics; cell 5 dumps a breach first, then panics.
        for (pid, breach) in [(3u32, false), (5, true)] {
            let s = s.clone();
            let outcome = std::panic::catch_unwind(move || {
                let cell = s.cell(pid, SharedCycle::new());
                cell.record_at(10, EventKind::InFlight { count: 1 });
                if breach && cell.arm_dump() {
                    cell.dump_blackbox("breach").unwrap().unwrap();
                }
                panic!("cell {pid} fails");
            });
            assert!(outcome.is_err());
        }
        let mut written: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        written.sort();
        let expected = ["3.blackbox.txt", "3.trace.json", "5.blackbox.txt", "5.trace.json"];
        assert_eq!(written, expected.map(|f| format!("panic-pid{f}")));
        let reason = |pid: u32| {
            let body = std::fs::read_to_string(format!("{dir}/panic-pid{pid}.blackbox.txt"));
            body.unwrap().lines().nth(1).unwrap().to_string()
        };
        assert_eq!(reason(3), "reason   : panic");
        assert_eq!(reason(5), "reason   : breach", "the breach's dump is the cell's one pair");
        assert_eq!(s.len(), 2, "panicking cells still hand over their events");
    }

    #[test]
    fn blackbox_only_sink_keeps_no_cell_but_dumps_a_panicking_one() {
        let dir = scratch("boxonly");
        let s = TraceSink::blackbox_only(&format!("{dir}/box"));
        for pid in [1u32, 2] {
            let s = s.clone();
            let outcome = std::panic::catch_unwind(move || {
                let cell = s.cell(pid, SharedCycle::new());
                cell.record_at(10, EventKind::InFlight { count: pid });
                if pid == 2 {
                    panic!("cell 2 fails");
                }
            });
            assert_eq!(outcome.is_err(), pid == 2);
        }
        assert!(s.is_empty(), "finished cells' rings are freed, not kept");
        let written: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(written.len(), 2, "only the panicking cell dumps: {written:?}");
        let body = std::fs::read_to_string(format!("{dir}/box-pid2.blackbox.txt")).unwrap();
        assert!(
            body.contains("reason   : panic") && body.contains("captured : 1 events"),
            "{body}"
        );
    }

    #[test]
    fn events_stay_32_bytes() {
        // Recording cost is mostly the bytes written into the ring.
        assert_eq!(std::mem::size_of::<Event>(), 32);
    }

    #[test]
    fn describe_mentions_the_command_fields() {
        let e = Event { ts: 10, pid: 0, kind: ddr(2, DdrCmdKind::Act) };
        let d = e.describe();
        assert!(d.contains("ch2") && d.contains("ACT") && d.contains("bank3"));
        assert!(d.contains("0x001a2"));
    }

    #[test]
    fn hammer_alarms_name_the_victim_and_get_their_own_lane() {
        let kind =
            EventKind::HammerAlarm { channel: 1, rank: 2, bank: 3, row: 0x40, window: 50_000 };
        let d = Event { ts: 99, pid: 0, kind }.describe();
        assert!(d.contains("ch1") && d.contains("rank2") && d.contains("bank3"), "{d}");
        assert!(d.contains("0x00040") && d.contains("50000"), "{d}");
        let s = TraceSink::enabled();
        s.cell(0, SharedCycle::new()).record_at(99, kind);
        let json = s.export_chrome_json().unwrap();
        let tid = format!("\"tid\": {}", crate::trace::WEAR_TID);
        assert!(json.contains(&tid), "alarms must not share the marker lane: {json}");
    }
}
