//! Cross-crate telemetry checks: the Chrome trace a real run exports is
//! valid JSON with monotonic timestamps, the metrics snapshot carries
//! the figures' headline statistics, warm-up traffic cannot leak into
//! measured channel stats, and the report writer and parser round-trip
//! every value.

use dram_sim::channel::DramChannel;
use dram_sim::config::ChannelConfig;
use proptest::prelude::*;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run, run_with, Capture, RunResult};
use sdimm_telemetry::json::{self, Value};
use sdimm_telemetry::{Instruments, TraceSink};
use workloads::spec;

/// [`run`] with `sink` attached under process id `pid`.
fn traced_run(
    cfg: &SystemConfig,
    trace: &workloads::Trace,
    sink: TraceSink,
    pid: u32,
) -> RunResult {
    run_with(cfg, trace, 200, 400, &Instruments::with_sink(sink), pid, Capture::default()).0
}

#[test]
fn fig6_style_run_exports_perfetto_loadable_trace() {
    let cfg = SystemConfig::small(MachineKind::Freecursive { channels: 1 });
    let trace = spec::generate("mcf-like", 1200, 3);
    let sink = TraceSink::enabled();
    let result = traced_run(&cfg, &trace, sink.clone(), 0);
    assert!(!sink.is_empty(), "a measured run must emit trace events");

    let json = sink.export_chrome_json().expect("enabled sink exports");
    let doc = json::parse(&json).expect("chrome trace must be strict JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("a traceEvents array");
    let span = Value::from("X");
    assert!(events.iter().any(|e| e.get("ph") == Some(&span)), "spans should be present");

    let ts: Vec<u64> = events.iter().filter_map(|e| e.get("ts")?.as_u64()).collect();
    assert!(ts.len() > 100, "expected many timestamped events, got {}", ts.len());
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotonic");

    // The metrics snapshot the same run produces carries the acceptance
    // statistics: channel read-latency percentiles, stash peak, PLB hits.
    let snapshot = json::parse(&result.metrics.to_json()).expect("metrics snapshot is strict JSON");
    let p99 = snapshot.get("dram.chan0.read_latency").and_then(|h| h.get("p99"));
    assert!(p99.and_then(Value::as_u64).is_some(), "channel read-latency p99");
    assert!(snapshot.get("oram.stash_peak").is_some() && snapshot.get("plb.hit_rate").is_some());
}

#[test]
fn tracing_does_not_perturb_simulated_time() {
    let cfg = SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 });
    let trace = spec::generate("milc-like", 1200, 3);
    let plain = run(&cfg, &trace, 200, 400);
    let traced = traced_run(&cfg, &trace, TraceSink::enabled(), 1);
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.llc_misses, traced.llc_misses);
    assert_eq!(plain.miss_latency_p99, traced.miss_latency_p99);
}

#[test]
fn warmup_traffic_does_not_leak_into_measured_channel_stats() {
    let mk = || {
        let mut ch = DramChannel::new(ChannelConfig::table2());
        // Warm-up window: traffic that must not count.
        for i in 0..64u64 {
            while ch.enqueue_read(i * 64).is_none() {
                ch.tick(8);
            }
        }
        ch.run_until_idle(1_000_000);
        ch
    };

    // Reference: a fresh channel that only ever sees the measured window.
    let mut fresh = DramChannel::new(ChannelConfig::table2());
    let mut warmed = mk();
    let warm_reads = warmed.stats().reads_completed;
    assert!(warm_reads > 0, "warm-up should have completed reads");
    warmed.reset_stats();
    assert_eq!(warmed.stats().reads_completed, 0, "reset must clear counters");
    assert!(warmed.stats().read_latency_hist.is_empty(), "reset must clear the histogram");

    // Measured window on both channels.
    for ch in [&mut fresh, &mut warmed] {
        for i in 0..32u64 {
            while ch.enqueue_read(i * 4096).is_none() {
                ch.tick(8);
            }
        }
        ch.run_until_idle(1_000_000);
    }
    assert_eq!(
        warmed.stats().reads_completed,
        fresh.stats().reads_completed,
        "measured stats must reflect only measured traffic"
    );
    assert_eq!(warmed.stats().read_latency_hist.count(), fresh.stats().read_latency_hist.count());
}

/// Characters a report string must survive: JSON's escapes, raw control
/// characters, and non-ASCII text up to a four-byte scalar.
const PALETTE: [char; 10] = ['a', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '😀'];

/// Builds one value from an entropy tape: scalars of every kind (integer
/// extremes, `-0.0`, subnormal and huge floats, strings over
/// [`PALETTE`]) and arrays and objects, empty ones included, nested up
/// to `depth`.
fn build(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let r = tape.next().unwrap_or(0);
    let x = r >> 3;
    let text = |n: u64| -> String {
        (0..n % 6).map(|i| PALETTE[((r >> (4 * i)) % 10) as usize]).collect()
    };
    let floats = [-0.0, f64::from_bits(x >> 12), f64::MAX / (1 + x % 7) as f64, -(x as f64).sqrt()];
    match r % if depth == 0 { 6 } else { 8 } {
        0 => Value::Null,
        1 => Value::Bool(x & 1 == 1),
        2 => Value::from([0, u64::MAX, x][(x % 3) as usize]),
        3 => Value::Int([i64::MIN, -1, -((x >> 2) as i64)][(x % 3) as usize].into()),
        4 => Value::Float(floats[(x % 4) as usize]),
        5 => Value::Str(text(x)),
        6 => (0..x % 4).map(|_| build(tape, depth - 1)).collect(),
        _ => Value::Object(
            (0..x % 4).map(|i| (format!("{}{i}", text(x >> 2)), build(tape, depth - 1))).collect(),
        ),
    }
}

/// `v` with every float replaced by `null`: what must come back exactly.
fn without_floats(v: &Value) -> Value {
    match v {
        Value::Float(_) => Value::Null,
        Value::Array(items) => items.iter().map(without_floats).collect(),
        Value::Object(m) => {
            Value::Object(m.iter().map(|(k, v)| (k.clone(), without_floats(v))).collect())
        }
        v => v.clone(),
    }
}

proptest! {
    /// `parse(render(v))` gives back `v`'s strings, integers, booleans
    /// and structure exactly and its floats to the rendered digits
    /// (rendering is a fixed point after one round trip), rendering is
    /// deterministic, and a non-finite float is `null`.
    #[test]
    fn writer_and_parser_round_trip(
        tape in proptest::collection::vec(any::<u64>(), 1..48),
        non_finite in 0usize..3,
    ) {
        let v = build(&mut tape.into_iter(), 3);
        let text = v.render();
        prop_assert_eq!(&text, &v.render());
        let back = json::parse(&text).map_err(|e| TestCaseError::Fail(format!("{e}: {text}")))?;
        prop_assert_eq!(without_floats(&back), without_floats(&v));
        prop_assert_eq!(back.render(), text);

        let x = Value::Float([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][non_finite]);
        prop_assert_eq!(Value::object([("x", x)]).render(), "{\n  \"x\": null\n}\n");
    }
}
