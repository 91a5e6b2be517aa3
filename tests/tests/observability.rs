//! Cross-crate observability checks: the cycle-attribution profiler
//! conserves sampled time on a real run, the event ring captures
//! every event family with a monotonic clock, an injected DDR timing
//! violation yields an ordered black-box dump with deep context, a
//! stash-bound breach dumps a black box exactly once, and the live
//! dashboard state tracks a cell through the runner.

use dram_sim::cmdlog::{CmdRecord, DdrCmd};
use sdimm_audit::ddr::{violation_recorder, DdrAuditor, BLACKBOX_CONTEXT};
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{dump_stash_breach, run_audited, run_with, Capture, RunResult};
use sdimm_telemetry::{
    CycleProfiler, EventKind, Instruments, LiveProgress, SharedCycle, TraceSink,
};
use workloads::spec;

fn small_run(instruments: &Instruments) -> RunResult {
    let cfg = SystemConfig::small(MachineKind::Freecursive { channels: 1 });
    let trace = spec::generate("mcf-like", 1200, 3);
    run_with(&cfg, &trace, 200, 400, instruments, 0, Capture::default()).0
}

/// A fresh per-test scratch directory (std-only, no tempdir dependency).
/// Dropping it removes the directory, unless the test is failing: then
/// its files stay behind to read.
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
    let dir =
        std::env::temp_dir().join(format!("sdimm-observability-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

#[test]
fn profiler_attributes_every_sampled_cycle_on_a_real_run() {
    let instruments = Instruments { profiler: CycleProfiler::enabled(), ..Instruments::disabled() };
    small_run(&instruments);

    let folded = instruments.profiler.export_folded().expect("enabled profiler exports");
    assert!(!folded.trim().is_empty(), "a measured run must produce samples");
    let mut total = 0u64;
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` line");
        assert!(
            stack.starts_with("protocol;FREECURSIVE-1ch"),
            "stacks are rooted at protocol;machine: {stack}"
        );
        assert!(!stack.split(';').any(str::is_empty), "no empty frames: {stack}");
        total += weight.parse::<u64>().expect("integer weight");
    }
    // The core invariant: attributed time == sampled simulated time.
    assert_eq!(total, instruments.profiler.sampled_cycles());
    assert!(folded.contains(";dram;ch0"), "DRAM wait frames expected:\n{folded}");
}

#[test]
fn flight_recorder_sees_all_event_families_with_monotonic_clock() {
    let dir = scratch("families");
    let prefix = format!("{dir}/flight");
    let instruments = Instruments::with_sink(TraceSink::with_blackbox(&prefix));
    small_run(&instruments);

    let events = instruments.sink.events();
    assert!(events.len() > 100, "expected real traffic, got {} events", events.len());
    assert!(
        events.windows(2).all(|w| w[0].ts <= w[1].ts),
        "ring must replay oldest-first with a monotonic sim clock"
    );
    let has = |name: &str, pred: fn(&EventKind) -> bool| {
        assert!(events.iter().any(|e| pred(&e.kind)), "no {name} events captured");
    };
    has("DDR-command", |k| matches!(k, EventKind::DdrCmd(..)));
    has("phase-transition", |k| matches!(k, EventKind::Phase { .. }));
    has("stash-tick", |k| matches!(k, EventKind::StashTick { .. }));
    has("scheduler-decision", |k| matches!(k, EventKind::Backend { .. }));
}

#[test]
fn injected_timing_violation_yields_ordered_blackbox_with_context() {
    let cfg = SystemConfig::small(MachineKind::Freecursive { channels: 1 });
    let trace = spec::generate("mcf-like", 1200, 3);
    let (_result, capture) = run_audited(&cfg, &trace, 200, 400, TraceSink::disabled(), 0);
    let mut stream = capture.streams[0].clone();
    DdrAuditor::check_stream(&capture.channel_cfg, &stream).expect("captured stream is clean");

    // Inject a tRCD violation deep in the stream: a column read one
    // cycle after a row activate.
    let (idx, act_cycle, rank, bank, row) = stream
        .iter()
        .enumerate()
        .skip(100)
        .find_map(|(i, r)| match r.cmd {
            DdrCmd::Act { bank, row } => Some((i, r.cycle, r.rank, bank, row)),
            _ => None,
        })
        .expect("an ACT past index 100");
    stream.insert(idx + 1, CmdRecord { cycle: act_cycle + 1, rank, cmd: DdrCmd::Rd { bank, row } });

    let (vidx, v) = DdrAuditor::check_stream_indexed(&capture.channel_cfg, &stream).unwrap_err();
    assert_eq!(v.rule, "tRCD", "{v}");
    assert_eq!(vidx, idx + 1, "violation anchors the injected record");

    let recorder = violation_recorder(&stream, 0, vidx, BLACKBOX_CONTEXT);
    let events = recorder.events();
    assert!(
        events.len() >= 65,
        "black box must hold the violating command plus >=64 predecessors, got {}",
        events.len()
    );
    assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts), "dump is oldest-first");
    assert_eq!(events.last().expect("non-empty").ts, act_cycle + 1);

    let report = recorder.blackbox_report(0, &v.to_string()).expect("enabled recorder reports");
    assert!(report.contains("tRCD"), "reason carries the rule:\n{report}");
    let last_line = report.lines().rev().find(|l| l.contains("ddr")).expect("ddr lines");
    assert!(last_line.contains("RD"), "last DDR line is the violating read: {last_line}");

    let dir = scratch("blackbox");
    let prefix = format!("{dir}/case");
    let (txt, json) = recorder
        .dump_to_files(&prefix, &v.to_string(), 0)
        .expect("enabled recorder dumps")
        .expect("dump files written");
    let body = std::fs::read_to_string(&txt).expect("read black-box report");
    assert!(body.contains("flight recorder"), "{txt} is the human-readable report");
    let slice = std::fs::read_to_string(&json).expect("read chrome slice");
    sdimm_telemetry::json::validate(&slice).expect("chrome slice is strict JSON");
}

#[test]
fn stash_bound_breach_dumps_a_black_box_once() {
    // Fill a live cell's ring with a real Freecursive run's events, then
    // fire the exact breach path the runner's in-loop check calls. (A
    // legal config cannot breach steadily — background eviction drains
    // the stash by every poll point — so the trigger is driven directly
    // here.) The cell then panics, as a run that breached might.
    let run = Instruments::with_sink(TraceSink::enabled());
    small_run(&run);
    let dir = scratch("stash");
    let sink = TraceSink::with_blackbox(&format!("{dir}/breach"));
    let outcome = std::panic::catch_unwind(|| {
        let cell = sink.cell(0, SharedCycle::new());
        for e in run.sink.events() {
            cell.record_at(e.ts, e.kind);
        }
        let first = dump_stash_breach(&cell, "FREECURSIVE-1ch", 123_456, 65, 64);
        assert!(first.is_some(), "the first breach dumps");
        // The latch makes a later breach in the same cell a no-op: one
        // black box per cell, never a dump storm.
        let again = dump_stash_breach(&cell, "FREECURSIVE-1ch", 200_000, 70, 64);
        assert!(again.is_none(), "a second breach must not dump");
        panic!("the breached cell fails");
    });
    assert!(outcome.is_err());

    let mut written: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("list the dump directory")
        .map(|f| f.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["breach-pid0.blackbox.txt", "breach-pid0.trace.json"], "one pair");
    let body = std::fs::read_to_string(format!("{dir}/breach-pid0.blackbox.txt"))
        .expect("read black-box report");
    assert!(body.contains("[stash-bound]"), "the breach's dump, not the panic's:\n{body}");
    assert!(
        body.contains("occupancy 65 blocks") && body.contains("bound 64 blocks"),
        "actual-vs-expected reason:\n{body}"
    );
    assert!(body.contains("stash"), "stash trajectory events present:\n{body}");
    let slice = std::fs::read_to_string(format!("{dir}/breach-pid0.trace.json"))
        .expect("read chrome slice");
    sdimm_telemetry::json::validate(&slice).expect("chrome slice is strict JSON");
}

#[test]
fn live_dashboard_tracks_a_cell_through_the_runner() {
    let live = LiveProgress::enabled();
    live.add_cells(1);
    let instruments = Instruments { live: live.clone(), ..Instruments::disabled() };
    small_run(&instruments);

    let snap = live.snapshot().expect("enabled dashboard snapshots");
    assert_eq!((snap.done, snap.total), (1, 1));
    assert!(snap.label.contains("mcf-like"), "label = {}", snap.label);
    assert!(snap.label.contains("FREECURSIVE"), "label = {}", snap.label);
    assert!(snap.misses > 0, "a measured window streams miss latencies");
    assert!(snap.miss_p99 >= snap.miss_p50);
    assert!(snap.stash_peak > 0, "runner publishes the stash peak at cell end");
}
