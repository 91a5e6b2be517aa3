//! Wall-clock renderer for the `--live` run dashboard.
//!
//! The split keeps responsibilities clean: library crates publish
//! simulated-time facts into [`LiveProgress`] (print-free under the L3
//! lint, no wall clocks under the clippy `Instant::now` ban), while
//! this bench-side renderer owns the two things only a binary should:
//! the wall clock (for ETA) and the redraw cadence. The actual stderr
//! write still goes through [`LiveProgress::write_status`], the one
//! sanctioned choke point.
//!
//! A [`LiveView`] spawned from a disabled [`LiveProgress`] is a no-op
//! handle, so the figure session starts one unconditionally.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sdimm_telemetry::{LiveProgress, LiveSnapshot};

/// Redraw period of the status line.
const REDRAW: Duration = Duration::from_millis(250);

/// Background status-line renderer; stops (and erases the line) when
/// dropped.
#[derive(Debug)]
pub struct LiveView {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    live: LiveProgress,
}

impl LiveView {
    /// Spawns the renderer thread over `live`; a disabled handle yields
    /// an inert view (no thread, no output).
    pub fn spawn(live: LiveProgress) -> LiveView {
        if !live.is_enabled() {
            return LiveView { stop: Arc::new(AtomicBool::new(true)), handle: None, live };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let state = live.clone();
        // Wall clock is the point here: ETA for the human watching the
        // run. Confined to this renderer thread in a bench binary path.
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                if let Some(snap) = state.snapshot() {
                    #[allow(clippy::disallowed_methods)]
                    let elapsed = start.elapsed().as_secs_f64();
                    state.write_status(&render(&snap, elapsed));
                }
                std::thread::sleep(REDRAW);
            }
        });
        LiveView { stop, handle: Some(handle), live }
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            self.live.finish_status();
        }
    }
}

impl Drop for LiveView {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Formats one status line from a snapshot and the wall time elapsed
/// since the view started. Pure, so the format is unit-testable.
fn render(snap: &LiveSnapshot, elapsed_secs: f64) -> String {
    let eta = if snap.done > 0 && snap.total > snap.done {
        let per_cell = elapsed_secs / snap.done as f64;
        format!("ETA {:.0}s", per_cell * (snap.total - snap.done) as f64)
    } else {
        "ETA --".to_string()
    };
    let cell = if snap.label.is_empty() { "(starting)".to_string() } else { snap.label.clone() };
    format!(
        "[live] {}/{} cells · {eta} · {cell} · miss p50 {} p99 {} cyc ({} misses) · stash peak {}",
        snap.done, snap.total, snap.miss_p50, snap.miss_p99, snap.misses, snap.stash_peak
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(done: usize, total: usize) -> LiveSnapshot {
        LiveSnapshot {
            done,
            total,
            label: "linear.SDIMM-SPLIT".to_string(),
            miss_p50: 400,
            miss_p99: 1900,
            misses: 1234,
            stash_peak: 37,
        }
    }

    #[test]
    fn render_shows_progress_and_eta_from_throughput() {
        let line = render(&snap(2, 8), 10.0);
        assert!(line.contains("2/8 cells"), "{line}");
        // 5 s/cell observed, 6 cells left.
        assert!(line.contains("ETA 30s"), "{line}");
        assert!(line.contains("linear.SDIMM-SPLIT"), "{line}");
        assert!(line.contains("p50 400 p99 1900"), "{line}");
        assert!(line.contains("stash peak 37"), "{line}");
    }

    #[test]
    fn render_has_no_eta_before_the_first_cell_or_after_the_last() {
        assert!(render(&snap(0, 8), 3.0).contains("ETA --"));
        assert!(render(&snap(8, 8), 3.0).contains("ETA --"));
    }

    #[test]
    fn disabled_view_is_inert() {
        let view = LiveView::spawn(LiveProgress::disabled());
        assert!(view.handle.is_none());
        drop(view);
    }
}
