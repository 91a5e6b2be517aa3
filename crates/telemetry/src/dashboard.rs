//! Live run dashboard state: streaming progress for long matrix runs.
//!
//! A [`LiveProgress`] is the shared-state half of the opt-in `--live`
//! status line: simulation workers publish cell completions, streaming
//! miss latencies, and stash peaks into it, and a renderer thread in the
//! bench binary periodically takes a [`LiveSnapshot`] and draws the
//! status line. Splitting state (here, print-free, simulated-time only)
//! from rendering (in `sdimm-bench`, where wall-clock ETA math is
//! allowed) keeps library crates clean under the L3 lint and the
//! clippy `Instant::now` ban.
//!
//! The sanctioned stderr writes in this crate are
//! [`LiveProgress::write_status`], a single choke-point function the
//! lint waives explicitly, and the one line a panicking cell's black-box
//! dump reports (`trace.rs`), so any other `eprint!` that creeps into
//! the telemetry crate is a lint error.
//!
//! Like the other telemetry handles, `LiveProgress::disabled()` costs
//! one branch per call.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LatencyHistogram;

#[derive(Debug)]
struct LiveInner {
    cells_total: AtomicUsize,
    cells_done: AtomicUsize,
    stash_peak: AtomicU64,
    /// Streaming miss-latency histogram for the cells currently running;
    /// readers take percentiles mid-run while writers keep recording.
    miss: Mutex<LatencyHistogram>,
    /// Label of the most recently started cell.
    label: Mutex<String>,
}

/// Point-in-time view of a [`LiveProgress`], taken by the renderer.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Cells completed so far.
    pub done: usize,
    /// Total cells in the matrix.
    pub total: usize,
    /// Label of the most recently started cell.
    pub label: String,
    /// Streaming miss-latency p50 (cycles) across running cells.
    pub miss_p50: u64,
    /// Streaming miss-latency p99 (cycles) across running cells.
    pub miss_p99: u64,
    /// Misses recorded so far.
    pub misses: u64,
    /// Highest stash occupancy observed by any cell so far.
    pub stash_peak: u64,
}

/// Cheaply clonable handle to shared live-dashboard state.
#[derive(Debug, Clone, Default)]
pub struct LiveProgress(Option<Arc<LiveInner>>);

impl LiveProgress {
    /// Enabled live state, initially zero cells.
    pub fn enabled() -> Self {
        LiveProgress(Some(Arc::new(LiveInner {
            cells_total: AtomicUsize::new(0),
            cells_done: AtomicUsize::new(0),
            stash_peak: AtomicU64::new(0),
            miss: Mutex::new(LatencyHistogram::new()),
            label: Mutex::new(String::new()),
        })))
    }

    /// The no-op state: records nothing, single branch per call.
    pub fn disabled() -> Self {
        LiveProgress(None)
    }

    /// True when workers should publish into this state.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Declares (or extends) the matrix size.
    pub fn add_cells(&self, n: usize) {
        if let Some(inner) = &self.0 {
            inner.cells_total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records that a worker started simulating the cell `label`.
    pub fn cell_started(&self, label: &str) {
        if let Some(inner) = &self.0 {
            // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
            *inner.label.lock().unwrap() = label.to_string();
        }
    }

    /// Records that one cell finished.
    pub fn cell_finished(&self) {
        if let Some(inner) = &self.0 {
            inner.cells_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Streams one miss latency (in cycles) into the shared histogram.
    #[inline]
    pub fn record_miss(&self, cycles: u64) {
        if let Some(inner) = &self.0 {
            // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
            inner.miss.lock().unwrap().record(cycles);
        }
    }

    /// Publishes a stash-occupancy peak; the dashboard keeps the max.
    #[inline]
    pub fn observe_stash_peak(&self, peak: u64) {
        if let Some(inner) = &self.0 {
            inner.stash_peak.fetch_max(peak, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough point-in-time view for rendering.
    /// `None` when disabled.
    pub fn snapshot(&self) -> Option<LiveSnapshot> {
        let inner = self.0.as_ref()?;
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        let miss = inner.miss.lock().unwrap();
        let (miss_p50, miss_p99, misses) =
            (miss.percentile(0.50), miss.percentile(0.99), miss.count());
        drop(miss);
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        let label = inner.label.lock().unwrap().clone();
        Some(LiveSnapshot {
            done: inner.cells_done.load(Ordering::Relaxed),
            total: inner.cells_total.load(Ordering::Relaxed),
            label,
            miss_p50,
            miss_p99,
            misses,
            stash_peak: inner.stash_peak.load(Ordering::Relaxed),
        })
    }

    /// The sanctioned stderr choke point: redraws the status line in
    /// place (carriage return + erase-to-end). Every other write in
    /// this crate must go through files or returned strings, except a
    /// panicking cell's one black-box line; the lint self-scan enforces
    /// that both are waived.
    pub fn write_status(&self, line: &str) {
        if self.0.is_none() {
            return;
        }
        use std::io::Write;
        // lint: print-ok(single sanctioned dashboard status-line writer; see module docs)
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r\u{1b}[K{line}");
        let _ = err.flush();
    }

    /// Finishes the status line with a newline so subsequent output
    /// starts clean. No-op when disabled.
    pub fn finish_status(&self) {
        if self.0.is_none() {
            return;
        }
        use std::io::Write;
        // lint: print-ok(single sanctioned dashboard status-line writer; see module docs)
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r\u{1b}[K");
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_state_is_a_noop() {
        let live = LiveProgress::disabled();
        assert!(!live.is_enabled());
        live.add_cells(5);
        live.cell_started("w.m");
        live.cell_finished();
        live.record_miss(100);
        live.observe_stash_peak(7);
        assert_eq!(live.snapshot(), None);
        live.write_status("ignored");
        live.finish_status();
    }

    #[test]
    fn snapshot_reflects_published_state() {
        let live = LiveProgress::enabled();
        live.add_cells(4);
        live.cell_started("linear.SDIMM-SPLIT");
        for _ in 0..99 {
            live.record_miss(100);
        }
        live.record_miss(10_000);
        live.cell_finished();
        live.observe_stash_peak(31);
        live.observe_stash_peak(12);
        let snap = live.snapshot().unwrap();
        assert_eq!((snap.done, snap.total), (1, 4));
        assert_eq!(snap.label, "linear.SDIMM-SPLIT");
        assert_eq!(snap.misses, 100);
        assert_eq!(snap.stash_peak, 31);
        assert!(snap.miss_p50 >= 100 && snap.miss_p50 < 200);
        assert!(snap.miss_p99 >= 100, "p99 must reflect the recorded tail");
    }

    #[test]
    fn concurrent_writers_and_readers_stay_consistent() {
        let live = LiveProgress::enabled();
        live.add_cells(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let w = live.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        w.record_miss(50 + i % 7);
                        w.observe_stash_peak(i % 40);
                    }
                    w.cell_finished();
                });
            }
            let r = live.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let snap = r.snapshot().unwrap();
                    // Percentiles must always be readable mid-run and
                    // lie inside the recorded value range.
                    if snap.misses > 0 {
                        assert!(snap.miss_p50 >= 50 && snap.miss_p50 <= 64);
                        assert!(snap.miss_p99 >= snap.miss_p50);
                    }
                    std::thread::yield_now();
                }
            });
        });
        let snap = live.snapshot().unwrap();
        assert_eq!(snap.done, 4);
        assert_eq!(snap.misses, 2000);
        assert_eq!(snap.stash_peak, 39);
    }
}
