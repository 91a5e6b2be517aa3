//! `telemetry_overhead` — the telemetry overhead gate.
//!
//! The telemetry layer makes two promises about its event rings,
//! which this binary checks empirically against a quick-scale
//! fig6-style Freecursive window:
//!
//! * a **disabled** ring costs one branch per touchpoint, keeping
//!   instrumented simulation within 2% of un-instrumented speed, and
//! * an **enabled** cell ring (what `--flight-recorder` records into) is
//!   cheap enough to leave armed on long runs: under 5% of run time.
//!
//! Method:
//!
//! 1. measure the per-call wall cost of the primitive for each row
//!    (record calls on a disabled [`CellTrace`]; record calls on an
//!    enabled one pushing into a cell's ring, which wraps many times
//!    over: the steady state of a bounded ring),
//! 2. count the events one run records (one census run with the sink
//!    enabled: kept events + dropped count). Every event is one
//!    touchpoint call, so the count serves both rows,
//! 3. time the same window un-instrumented,
//!
//! then project `events x per-call-cost` against the run's wall time and
//! exit nonzero above the budget. Steps 1 and 3 run in [`ROUNDS`]
//! interleaved rounds, each timing every per-event cost and the run wall
//! once, and every row is gated on the fastest round of each of its
//! terms: a load spike during one timing slows that round only, instead
//! of one side of a ratio.
//!
//! The gate numbers are also written as a JSON report when
//! `--json <path>` is given, so CI can archive the trend.

// Wall-clock overhead gate: `Instant` is the measurement, and a blown budget exits nonzero.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use dram_sim::wear::{RowPressure, WearConfig};
use sdimm_bench::cli::write_or_die;
use sdimm_bench::TelemetryArgs;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run, run_with, Capture};
use sdimm_telemetry::json::Value;
use sdimm_telemetry::{CellTrace, EventKind, Instruments, SharedCycle, TraceSink};
use workloads::spec as wl;

/// Gate: projected disabled-ring cost must stay under this share of the
/// quick-scale fig6 wall time.
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// Gate: projected cost of an *enabled* cell ring with its black box
/// armed must stay under this share of the same run's wall time.
const MAX_RECORDER_OVERHEAD_PCT: f64 = 5.0;

/// Calls per shape when timing the disabled ring. Large enough that the
/// loop dwarfs `Instant` overhead; small enough to finish in well under
/// a second.
const CALLS: u64 = 10_000_000;

/// Events pushed when timing the enabled ring (it wraps many times over,
/// so this times the steady wrapped state).
const RECORDER_CALLS: u64 = 2_000_000;

/// Interleaved timing rounds; each term of a row is its fastest round.
const ROUNDS: usize = 5;

/// Per-call cost of recording on a disabled handle, over the three call
/// shapes the engine uses (explicit cycle, clock-stamped, counter).
fn disabled_ns_per_call() -> f64 {
    let cell = CellTrace::disabled();
    let start = Instant::now();
    for i in 0..CALLS {
        let kind = EventKind::Phase { request: black_box(i as u32), phase: 0, dur: black_box(8) };
        cell.record_at(black_box(i), kind);
        cell.record(EventKind::StashTick { backend: 0, occupancy: black_box(i as u32) });
        cell.record_at(black_box(i), EventKind::InFlight { count: black_box(i as u32) });
    }
    start.elapsed().as_nanos() as f64 / (CALLS * 3) as f64
}

/// Events pushed when timing the wear tracker's hot paths (enough that
/// the maps reach their steady size and hash cost dominates setup).
const WEAR_CALLS: u64 = 2_000_000;

/// Per-touch cost of the *detached* wear tracker: the `Option` branch
/// every ACT/WR/REF hook takes when `enable_wear` was never called.
fn wear_disabled_ns_per_touch() -> f64 {
    let mut wear: Option<Box<RowPressure>> = black_box(None);
    let start = Instant::now();
    for i in 0..CALLS {
        if let Some(w) = wear.as_deref_mut() {
            w.on_act(0, 0, black_box(i as usize) & 0x3FFF);
        }
        black_box(&wear);
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

/// One pass of a realistic mix of ACTs and write CAS over a working set
/// of a few thousand distinct rows, like an ORAM tree footprint.
fn wear_pass(w: &mut RowPressure) {
    for i in 0..WEAR_CALLS {
        // Weyl-sequence row spread: deterministic, hash-unfriendly.
        let x = (i.wrapping_mul(0x9E37_79B9)) as usize;
        let (rank, bank, row) = (x & 1, (x >> 1) & 7, (x >> 4) & 0xFFF);
        w.on_act(rank, bank, black_box(row));
        if i & 1 == 0 {
            w.on_write(rank, bank, black_box(row));
        }
        if i & 0xFFF == 0 {
            w.on_refresh(rank);
        }
    }
}

/// An enabled tracker whose working set [`wear_pass`] has touched once,
/// so timed passes measure steady-state map updates, not first-touch
/// insertion and rehashing — the state a long run spends all its time in.
fn warm_wear_tracker() -> RowPressure {
    let mut w = RowPressure::new(WearConfig {
        ranks: 2,
        banks: 8,
        rows: 1 << 12,
        rows_per_refresh: 4,
        hammer_threshold: u64::MAX,
    });
    wear_pass(&mut w);
    w
}

/// Per-event cost of the enabled tracker `w` over one [`wear_pass`].
fn wear_enabled_ns_per_event(w: &mut RowPressure) -> f64 {
    let start = Instant::now();
    wear_pass(w);
    let events = WEAR_CALLS + WEAR_CALLS / 2 + WEAR_CALLS / 4096;
    let ns = start.elapsed().as_nanos() as f64 / events as f64;
    black_box(w.snapshot());
    ns
}

/// Per-event cost of recording into the cell ring `--flight-recorder`
/// arms, freeing the ring at the cell's end included.
fn recorder_ns_per_event() -> f64 {
    let args = TelemetryArgs { flight_recorder: Some(String::new()), ..TelemetryArgs::default() };
    let sink = args.sink();
    let start = Instant::now();
    let cell = sink.cell(0, SharedCycle::new());
    for i in 0..RECORDER_CALLS {
        let kind = EventKind::StashTick { backend: 0, occupancy: black_box(i as u32) };
        cell.record_at(black_box(i), kind);
    }
    drop(cell);
    start.elapsed().as_nanos() as f64 / RECORDER_CALLS as f64
}

fn main() {
    let json_path = {
        let mut args = std::env::args().skip(1);
        match (args.next().as_deref(), args.next()) {
            (None, _) => None,
            (Some("--json"), Some(path)) => Some(path),
            _ => {
                eprintln!("usage: telemetry_overhead [--json <path>]");
                std::process::exit(2);
            }
        }
    };

    let warmup = 300usize;
    let window = 500usize;
    let trace = wl::generate("mcf-like", warmup + window + 16, 42);
    let cfg = SystemConfig::small(MachineKind::Freecursive { channels: 1 });

    // Census: the events one run records (those its ring kept plus
    // everything that wrapped past). Each is one call the disabled path
    // branches through and one push the enabled ring absorbs.
    let census = Instruments::with_sink(TraceSink::enabled());
    run_with(&cfg, &trace, warmup, window, &census, 0, Capture::default());
    let events = census.sink.len() as u64 + census.sink.dropped();

    // Wear-touchpoint census: how many ACT/WR/REF hooks one run takes
    // (counted by the tracker itself on a wear-enabled twin run).
    let wear = Capture { wear_top_k: Some(1), ..Capture::default() };
    let (wear_run, wear_cap) =
        run_with(&cfg, &trace, warmup, window, &Instruments::disabled(), 0, wear);
    let wear_touches: u64 =
        wear_cap.wear.iter().map(|s| s.total_acts + s.total_writes).sum::<u64>()
            + (0..wear_cap.wear.len())
                .map(|i| wear_run.metrics.counter(&format!("dram.chan{i}.refreshes")))
                .sum::<u64>();

    let mut tracker = warm_wear_tracker();
    let [mut per_call_ns, mut per_event_ns, mut wear_disabled_ns, mut wear_enabled_ns] =
        [f64::INFINITY; 4];
    let mut best_wall_ns = f64::INFINITY;
    for _ in 0..ROUNDS {
        per_call_ns = per_call_ns.min(disabled_ns_per_call());
        per_event_ns = per_event_ns.min(recorder_ns_per_event());
        wear_disabled_ns = wear_disabled_ns.min(wear_disabled_ns_per_touch());
        wear_enabled_ns = wear_enabled_ns.min(wear_enabled_ns_per_event(&mut tracker));
        let start = Instant::now();
        black_box(run(&cfg, &trace, warmup, window));
        best_wall_ns = best_wall_ns.min(start.elapsed().as_nanos() as f64);
    }

    let projected_ns = events as f64 * per_call_ns;
    let pct = projected_ns / best_wall_ns * 100.0;
    let recorder_projected_ns = events as f64 * per_event_ns;
    let recorder_pct = recorder_projected_ns / best_wall_ns * 100.0;
    let wear_disabled_pct = wear_touches as f64 * wear_disabled_ns / best_wall_ns * 100.0;
    let wear_enabled_pct = wear_touches as f64 * wear_enabled_ns / best_wall_ns * 100.0;

    println!(
        "telemetry_overhead: telemetry cost projections, quick-scale fig6 window \
         (each term the fastest of {ROUNDS} interleaved rounds)"
    );
    println!("  disabled ring       {per_call_ns:.3} ns/call");
    println!("  enabled ring        {per_event_ns:.3} ns/event");
    println!("  events per run      {events}");
    println!("  run wall time       {:.3} ms", best_wall_ns / 1e6);
    println!("  disabled overhead   {pct:.4}% (budget {MAX_OVERHEAD_PCT}%)");
    println!("  enabled overhead    {recorder_pct:.4}% (budget {MAX_RECORDER_OVERHEAD_PCT}%)");
    println!("  wear detached       {wear_disabled_ns:.3} ns/touch, {wear_touches} touches/run");
    println!("  wear enabled        {wear_enabled_ns:.3} ns/event");
    println!("  wear off overhead   {wear_disabled_pct:.4}% (budget {MAX_OVERHEAD_PCT}%)");
    println!("  wear on overhead    {wear_enabled_pct:.4}% (budget {MAX_RECORDER_OVERHEAD_PCT}%)");

    if let Some(path) = &json_path {
        let json = Value::object([
            ("disabled_ns_per_call", per_call_ns.into()),
            ("events_per_run", events.into()),
            ("disabled_overhead_pct", pct.into()),
            ("disabled_budget_pct", MAX_OVERHEAD_PCT.into()),
            ("recorder_ns_per_event", per_event_ns.into()),
            ("recorder_overhead_pct", recorder_pct.into()),
            ("recorder_budget_pct", MAX_RECORDER_OVERHEAD_PCT.into()),
            ("wear_disabled_ns_per_touch", wear_disabled_ns.into()),
            ("wear_enabled_ns_per_event", wear_enabled_ns.into()),
            ("wear_touches", wear_touches.into()),
            ("wear_disabled_overhead_pct", wear_disabled_pct.into()),
            ("wear_enabled_overhead_pct", wear_enabled_pct.into()),
            ("wall_ms_best", (best_wall_ns / 1e6).into()),
            ("rounds", ROUNDS.into()),
        ]);
        write_or_die(path, &json.render(), "telemetry overhead report");
        println!("  gate numbers written to {path}");
    }

    let mut failed = false;
    if pct > MAX_OVERHEAD_PCT {
        eprintln!(
            "telemetry_overhead: disabled telemetry projects to {pct:.2}% of run time, \
             above the {MAX_OVERHEAD_PCT}% budget"
        );
        failed = true;
    }
    if recorder_pct > MAX_RECORDER_OVERHEAD_PCT {
        eprintln!(
            "telemetry_overhead: enabled event ring projects to {recorder_pct:.2}% of run time, \
             above the {MAX_RECORDER_OVERHEAD_PCT}% budget"
        );
        failed = true;
    }
    if wear_disabled_pct > MAX_OVERHEAD_PCT {
        eprintln!(
            "telemetry_overhead: detached wear tracker projects to {wear_disabled_pct:.2}% of \
             run time, above the {MAX_OVERHEAD_PCT}% budget"
        );
        failed = true;
    }
    if wear_enabled_pct > MAX_RECORDER_OVERHEAD_PCT {
        eprintln!(
            "telemetry_overhead: enabled wear tracker projects to {wear_enabled_pct:.2}% of run \
             time, above the {MAX_RECORDER_OVERHEAD_PCT}% budget"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("  OK");
}
