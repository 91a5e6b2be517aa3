//! Cross-crate telemetry checks: the Chrome trace a real run exports is
//! valid JSON with monotonic timestamps, the metrics snapshot carries
//! the figures' headline statistics, and warm-up traffic cannot leak
//! into measured channel stats.

use dram_sim::channel::DramChannel;
use dram_sim::config::ChannelConfig;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run, run_with, Capture, RunResult};
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

/// Extracts every `"ts"` value from a Chrome trace in document order.
fn ts_values(json: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"ts\":") {
        rest = &rest[at + 5..];
        let num: String = rest
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(v) = num.parse::<u64>() {
            out.push(v);
        }
    }
    out
}

#[test]
fn fig6_style_run_exports_perfetto_loadable_trace() {
    let cfg = SystemConfig::small(MachineKind::Freecursive { channels: 1 });
    let trace = spec::generate("mcf-like", 1200, 3);
    let sink = TraceSink::enabled();
    let result = traced_run(&cfg, &trace, sink.clone(), 0);
    assert!(!sink.is_empty(), "a measured run must emit trace events");

    let json = sink.export_chrome_json().expect("enabled sink exports");
    sdimm_telemetry::json::validate(&json).expect("chrome trace must be strict JSON");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\": \"X\""), "phase/DRAM spans should be present");

    let ts = ts_values(&json);
    assert!(ts.len() > 100, "expected many timestamped events, got {}", ts.len());
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotonic");

    // The metrics snapshot the same run produces carries the acceptance
    // statistics: channel read-latency percentiles, stash peak, PLB hits.
    let snapshot = result.metrics.to_json();
    sdimm_telemetry::json::validate(&snapshot).expect("metrics snapshot must be strict JSON");
    assert!(snapshot.contains("dram.chan0.read_latency"));
    assert!(snapshot.contains("\"p99\""));
    assert!(snapshot.contains("oram.stash_peak"));
    assert!(snapshot.contains("plb.hit_rate"));
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
