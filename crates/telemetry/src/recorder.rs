//! The events the ring records, and its black-box rendering (the flight
//! recorder).
//!
//! The figure matrices replay millions of DDR commands per cell; when a
//! run goes wrong 3M commands in (a DDR timing violation, a stash-bound
//! breach, a panic), end-of-run aggregates say nothing about *what was
//! happening right then*. The [`TraceSink`] ring already holds the
//! structured events — DDR commands, ORAM phase completions, stash
//! occupancy ticks, backend scheduling decisions — so the black box is
//! one cell's newest [`BLACKBOX_EVENTS`] of them, rendered as a
//! human-readable report plus a Chrome trace slice loadable next to the
//! main trace. A per-pid latch makes one triggering condition produce
//! one dump.
//!
//! Every event is a small `Copy` value, so recording never allocates
//! (<5% on the enabled path, gated by the `telemetry_overhead` bench).

use crate::trace::{chrome_json, TraceSink};

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

impl TraceSink {
    /// `pid`'s newest [`BLACKBOX_EVENTS`] events oldest first, and how
    /// many older events the black box cannot show: those the ring
    /// overwrote (counted over every cell sharing it) plus `pid`'s
    /// buffered events beyond the cap. `None` for a disabled sink.
    fn blackbox(&self, pid: u32) -> Option<(Vec<Event>, u64)> {
        let ring = self.ring()?;
        let mut events: Vec<Event> =
            ring.ordered().rev().filter(|e| e.pid == pid).take(BLACKBOX_EVENTS).copied().collect();
        events.reverse();
        let older =
            ring.dropped + (ring.ordered().filter(|e| e.pid == pid).count() - events.len()) as u64;
        Some((events, older))
    }

    /// Latches `pid`'s dump flag. Returns `true` exactly once per pid,
    /// so a cascade of triggering conditions (breach → panic hook)
    /// yields a single dump. Always `false` for a disabled sink.
    pub fn arm_dump(&self, pid: u32) -> bool {
        let Some(mut ring) = self.ring() else { return false };
        if ring.dumped.contains(&pid) {
            return false;
        }
        ring.dumped.push(pid);
        true
    }

    /// Renders `pid`'s black box as a human-readable report, oldest event
    /// first, in the actual-vs-expected style of `crates/audit`
    /// diagnostics. `None` for a disabled sink.
    pub fn blackbox_report(&self, pid: u32, reason: &str) -> Option<String> {
        let (events, older) = self.blackbox(pid)?;
        let mut out = String::new();
        out.push_str("=== SDIMM flight recorder · black box ===\n");
        out.push_str(&format!("reason   : {reason}\n"));
        out.push_str(&format!(
            "captured : {} events ({older} older events overwritten)\n",
            events.len()
        ));
        out.push_str(&format!("clock    : cycle {}\n\n", events.last().map_or(0, |e| e.ts)));
        for e in &events {
            out.push_str(&format!("  cycle {:>12}  {}\n", e.ts, e.describe()));
        }
        out.push_str("=== end of black box ===\n");
        Some(out)
    }

    /// Renders `pid`'s black box as a Chrome trace slice under process
    /// name `flight recorder: <reason>`, loadable in Perfetto next to the
    /// main export. `None` for a disabled sink.
    pub fn blackbox_chrome_json(&self, pid: u32, reason: &str) -> Option<String> {
        let (events, older) = self.blackbox(pid)?;
        let process = [(pid, None, format!("flight recorder: {reason}"))];
        Some(chrome_json(&process, &[], &events.iter().collect::<Vec<_>>(), older))
    }

    /// Writes `pid`'s black-box report and Chrome slice next to `prefix`
    /// (`<prefix>.blackbox.txt` / `<prefix>.trace.json`), each via a
    /// temp-file-then-rename so an interrupted dump never leaves a
    /// truncated file. Returns the two paths written. `None` for a
    /// disabled sink; `Err` on I/O failure. Does not consult the latch
    /// ([`arm_dump`](Self::arm_dump)).
    pub fn dump_to_files(
        &self,
        prefix: &str,
        reason: &str,
        pid: u32,
    ) -> Option<std::io::Result<(String, String)>> {
        let report = self.blackbox_report(pid, reason)?;
        let slice = self.blackbox_chrome_json(pid, reason)?;
        let txt_path = format!("{prefix}.blackbox.txt");
        let json_path = format!("{prefix}.trace.json");
        let write = || -> std::io::Result<()> {
            write_atomic(&txt_path, &report)?;
            write_atomic(&json_path, &slice)
        };
        Some(write().map(|()| (txt_path, json_path)))
    }

    /// Dumps the black box of every cell with buffered events that has
    /// not already dumped, to `<prefix>-pid<N>.*`. Returns the paths
    /// written; I/O errors are reported inline in the returned list
    /// rather than aborting the remaining dumps (this runs inside panic
    /// hooks, where propagating is not an option).
    pub fn dump_all(&self, prefix: &str, reason: &str) -> Vec<String> {
        let mut pids: Vec<u32> = self.ring().map_or_else(Vec::new, |ring| {
            let mut pids: Vec<u32> = ring.ordered().map(|e| e.pid).collect();
            pids.sort_unstable();
            pids.dedup();
            pids
        });
        pids.retain(|&pid| self.arm_dump(pid));
        let mut written = Vec::new();
        for pid in pids {
            let cell = format!("{prefix}-pid{pid}");
            match self.dump_to_files(&cell, reason, pid) {
                Some(Ok((txt, json))) => written.extend([txt, json]),
                Some(Err(e)) => written.push(format!("<write failed for {cell}: {e}>")),
                None => {}
            }
        }
        written
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

    /// Fresh per-test scratch directory (std-only, no tempdir dependency).
    fn scratch(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sdimm-recorder-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let s = TraceSink::disabled();
        let cell = s.cell(0, SharedCycle::new());
        cell.record(ddr(0, DdrCmdKind::Act));
        cell.record_at(5, EventKind::InFlight { count: 1 });
        assert!(s.events().is_empty());
        assert_eq!(s.blackbox_report(0, "r"), None);
        assert_eq!(s.blackbox_chrome_json(0, "r"), None);
        assert!(!s.arm_dump(0));
        assert!(s.dump_all("unused", "r").is_empty());
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
    fn staged_events_reach_the_ring_on_switch_batch_and_thread_exit() {
        let (a, b) = (TraceSink::enabled(), TraceSink::enabled());
        let (staged_tx, staged_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let (wa, wb) = (a.cell(0, SharedCycle::new()), b.cell(0, SharedCycle::new()));
        let worker = std::thread::spawn(move || {
            wa.record_at(1, EventKind::InFlight { count: 1 });
            for i in 0..=64u64 {
                wb.record_at(i, EventKind::InFlight { count: 2 });
            }
            staged_tx.send(()).unwrap();
            exit_rx.recv().unwrap();
        });
        staged_rx.recv().unwrap();
        assert_eq!(a.len(), 1, "switching rings flushes the stage");
        assert_eq!(b.len(), 64, "a full stage flushes; the rest stays staged");
        exit_tx.send(()).unwrap();
        worker.join().unwrap();
        assert_eq!(b.len(), 65, "thread exit flushes the stage");
    }

    #[test]
    fn clock_register_timestamps_clockless_events() {
        let s = TraceSink::enabled();
        let clock = SharedCycle::new();
        let cell = s.cell(4, clock.clone());
        clock.publish(777);
        cell.record(EventKind::StashTick { backend: 1, occupancy: 42 });
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
        let json = s.blackbox_chrome_json(9, "stash bound breached").unwrap();
        crate::json::validate(&json).expect("flight slice must be valid JSON");
        assert!(json.contains("flight recorder: stash bound breached"));
        assert!(json.contains("\"pid\": 9"));
        assert!(json.contains("dram.chan1"), "the slice names its tracks");
    }

    #[test]
    fn arm_dump_latches_once() {
        let s = TraceSink::enabled();
        assert!(s.arm_dump(0));
        assert!(!s.arm_dump(0));
        assert!(s.arm_dump(1), "each pid has its own latch");
    }

    #[test]
    fn each_cell_dumps_only_its_own_events() {
        let s = TraceSink::enabled();
        let (a, b) = (s.cell(1, SharedCycle::new()), s.cell(2, SharedCycle::new()));
        a.record_at(1, EventKind::StashTick { backend: 1, occupancy: 5 });
        b.record_at(2, EventKind::StashTick { backend: 2, occupancy: 6 });
        a.record_at(3, EventKind::StashTick { backend: 1, occupancy: 7 });
        let report = s.blackbox_report(1, "r").unwrap();
        assert!(report.contains("captured : 2 events"), "{report}");
        assert!(report.contains("backend1") && !report.contains("backend2"), "{report}");
    }

    #[test]
    fn panic_dump_writes_one_pair_per_cell_once() {
        let s = TraceSink::enabled();
        for pid in [3, 5] {
            s.cell(pid, SharedCycle::new()).record_at(10, EventKind::InFlight { count: 1 });
        }
        let prefix = format!("{}/panic", scratch("panic"));
        let written = s.dump_all(&prefix, "panic");
        let expected: Vec<String> = [3, 5]
            .iter()
            .flat_map(|pid| {
                [format!("{prefix}-pid{pid}.blackbox.txt"), format!("{prefix}-pid{pid}.trace.json")]
            })
            .collect();
        assert_eq!(written, expected);
        for path in &written {
            assert!(std::path::Path::new(path).exists(), "{path} written");
        }
        assert!(s.dump_all(&prefix, "panic").is_empty(), "a second call writes nothing");
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
