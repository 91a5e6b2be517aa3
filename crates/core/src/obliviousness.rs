//! Observable-trace recording and indistinguishability checking (§III-G).
//!
//! The attacker of the threat model sees: every command and data transfer
//! on the external DDR bus (encrypted payloads, but presence/size/target
//! SDIMM are visible), and every DRAM address on the untrusted on-DIMM
//! bus. The protocols' privacy argument is that this observable stream is
//! **deterministic in shape** — same number, kind, and target pattern of
//! messages per access — with the only data-dependent component being the
//! ORAM path addresses, which are uniformly random leaves.
//!
//! [`Recorder`] captures the observable stream; [`shape_of`] projects out
//! everything the attacker could correlate with the logical request; the
//! tests (and the `obliviousness` integration suite) assert that traces
//! of *different* logical workloads have identical shapes and uniform
//! leaf usage.
//!
//! Shape equality is necessary but not sufficient: the event-driven
//! engine and the FR-FCFS scheduler add queueing jitter a bus observer
//! can time. A recorder can therefore carry a [`SharedCycle`] clock
//! (published by the executor as simulated time advances) so every event
//! is cycle-stamped; `crates/leakage` runs two-sample statistics over
//! the stamped streams of paired workloads.

use sdimm_telemetry::SharedCycle;

/// One attacker-visible event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Observable {
    /// A short (command-only) transfer on the external bus.
    ShortCommand {
        /// Target SDIMM.
        sdimm: usize,
    },
    /// A long (command + one block) transfer on the external bus.
    LongCommand {
        /// Target SDIMM.
        sdimm: usize,
    },
    /// A metadata transfer of `bytes` bytes on the external bus.
    MetaTransfer {
        /// Source SDIMM.
        sdimm: usize,
        /// Size in bytes.
        bytes: u64,
    },
    /// A full ORAM path touched on one SDIMM's internal bus (the attacker
    /// sees the addresses; we record the path length — the leaf itself is
    /// checked separately for uniformity).
    InternalPath {
        /// SDIMM whose internal bus carried the path.
        sdimm: usize,
        /// Number of line transfers.
        lines: u64,
    },
}

/// The shape projection of an observable event: what remains after
/// removing the values an attacker must not be able to correlate with
/// the logical request (which SDIMM randomness chose, path addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// A short command (target erased — targets are uniform by design).
    Short,
    /// A long command (target erased).
    Long,
    /// A metadata transfer of a fixed size.
    Meta(u64),
    /// An internal path of a fixed length.
    Path(u64),
}

/// Projects an event to its shape.
///
/// Every variant is matched explicitly with every field bound by name:
/// a new `Observable` variant or field fails to compile here, forcing a
/// decision about whether the attacker may see it (the `sdimm` bindings
/// are deliberately erased — targets are uniform by design).
pub fn shape_of(ev: &Observable) -> Shape {
    match ev {
        Observable::ShortCommand { sdimm: _ } => Shape::Short,
        Observable::LongCommand { sdimm: _ } => Shape::Long,
        Observable::MetaTransfer { sdimm: _, bytes } => Shape::Meta(*bytes),
        Observable::InternalPath { sdimm: _, lines } => Shape::Path(*lines),
    }
}

/// Captures an observable event stream, optionally cycle-stamped.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Vec<Observable>,
    /// Simulated cycle at which each event was recorded; parallel to
    /// `events`. All zeros when no clock is attached.
    stamps: Vec<u64>,
    clock: Option<SharedCycle>,
}

impl Recorder {
    /// An empty recorder with no clock: every stamp is 0.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// An empty recorder stamping each event from `clock`.
    pub fn with_clock(clock: SharedCycle) -> Self {
        Recorder { clock: Some(clock), ..Recorder::default() }
    }

    /// Appends an event, stamped with the clock's current cycle (0
    /// without a clock).
    pub fn push(&mut self, ev: Observable) {
        self.stamps.push(self.clock.as_ref().map(SharedCycle::now).unwrap_or(0));
        self.events.push(ev);
    }

    /// The captured events.
    pub fn events(&self) -> &[Observable] {
        &self.events
    }

    /// The per-event cycle stamps, parallel to [`events`](Self::events).
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// The capture as `(cycle, event)` pairs, in record order.
    pub fn timed_events(&self) -> Vec<(u64, Observable)> {
        self.stamps.iter().copied().zip(self.events.iter().copied()).collect()
    }

    /// The shape sequence of the capture.
    pub fn shapes(&self) -> Vec<Shape> {
        self.events.iter().map(shape_of).collect()
    }

    /// Per-SDIMM counts of long commands (used to verify that APPEND
    /// fan-out hits every SDIMM equally every time).
    pub fn long_counts(&self, sdimms: usize) -> Vec<u64> {
        let mut counts = vec![0u64; sdimms];
        for ev in &self.events {
            if let Observable::LongCommand { sdimm } = ev {
                counts[*sdimm] += 1;
            }
        }
        counts
    }
}

/// Verdict of a shape comparison between two captures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeVerdict {
    /// The traces are indistinguishable in shape.
    Indistinguishable,
    /// The traces differ; carries the first differing position and the
    /// two shapes (or `None` if one trace is a prefix of the other).
    Distinguishable {
        /// Index of the first difference.
        position: usize,
        /// Shape in the first trace (None = trace ended).
        a: Option<Shape>,
        /// Shape in the second trace (None = trace ended).
        b: Option<Shape>,
    },
}

/// Compares two captures for shape equality: the attacker's view of two
/// equally long request sequences must match event-for-event.
pub fn compare_shapes(a: &Recorder, b: &Recorder) -> ShapeVerdict {
    let sa = a.shapes();
    let sb = b.shapes();
    let n = sa.len().max(sb.len());
    for i in 0..n {
        let x = sa.get(i).copied();
        let y = sb.get(i).copied();
        if x != y {
            return ShapeVerdict::Distinguishable { position: i, a: x, b: y };
        }
    }
    ShapeVerdict::Indistinguishable
}

/// Chi-squared-style uniformity score for SDIMM targeting: returns the
/// maximum relative deviation of per-SDIMM counts from their mean. Values
/// near 0 mean uniform routing; a hot SDIMM (pattern leak) pushes it up.
pub fn target_skew(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    counts.iter().map(|&c| ((c as f64 - mean) / mean).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_erase_targets() {
        assert_eq!(
            shape_of(&Observable::LongCommand { sdimm: 0 }),
            shape_of(&Observable::LongCommand { sdimm: 3 })
        );
    }

    #[test]
    fn shapes_keep_sizes() {
        assert_ne!(
            shape_of(&Observable::MetaTransfer { sdimm: 0, bytes: 32 }),
            shape_of(&Observable::MetaTransfer { sdimm: 0, bytes: 64 })
        );
    }

    #[test]
    fn identical_shape_streams_are_indistinguishable() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        a.push(Observable::LongCommand { sdimm: 0 });
        a.push(Observable::InternalPath { sdimm: 0, lines: 50 });
        b.push(Observable::LongCommand { sdimm: 1 }); // different target: fine
        b.push(Observable::InternalPath { sdimm: 1, lines: 50 });
        assert_eq!(compare_shapes(&a, &b), ShapeVerdict::Indistinguishable);
    }

    #[test]
    fn extra_event_is_distinguishable() {
        let mut a = Recorder::new();
        let b = Recorder::new();
        a.push(Observable::ShortCommand { sdimm: 0 });
        match compare_shapes(&a, &b) {
            ShapeVerdict::Distinguishable { position: 0, a: Some(Shape::Short), b: None } => {}
            v => panic!("unexpected verdict {v:?}"),
        }
    }

    #[test]
    fn different_path_lengths_distinguishable() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        a.push(Observable::InternalPath { sdimm: 0, lines: 10 });
        b.push(Observable::InternalPath { sdimm: 0, lines: 11 });
        assert!(matches!(compare_shapes(&a, &b), ShapeVerdict::Distinguishable { .. }));
    }

    #[test]
    fn skew_zero_for_uniform() {
        assert!(target_skew(&[100, 100, 100, 100]) < 1e-9);
    }

    #[test]
    fn skew_high_for_hot_target() {
        assert!(target_skew(&[400, 0, 0, 0]) > 1.0);
    }

    #[test]
    fn unclocked_recorder_stamps_zero() {
        let mut r = Recorder::new();
        r.push(Observable::ShortCommand { sdimm: 0 });
        assert_eq!(r.stamps(), &[0]);
    }

    #[test]
    fn clocked_recorder_stamps_published_cycles() {
        let clock = SharedCycle::new();
        let mut r = Recorder::with_clock(clock.clone());
        clock.publish(40);
        r.push(Observable::ShortCommand { sdimm: 0 });
        clock.publish(96);
        r.push(Observable::LongCommand { sdimm: 1 });
        assert_eq!(r.stamps(), &[40, 96]);
        assert_eq!(
            r.timed_events(),
            vec![
                (40, Observable::ShortCommand { sdimm: 0 }),
                (96, Observable::LongCommand { sdimm: 1 }),
            ]
        );
    }

    #[test]
    fn shared_clock_is_shared_between_handles() {
        let a = SharedCycle::new();
        let b = a.clone();
        a.publish(123);
        assert_eq!(b.now(), 123);
    }

    #[test]
    fn long_counts_tally_by_target() {
        let mut r = Recorder::new();
        r.push(Observable::LongCommand { sdimm: 0 });
        r.push(Observable::LongCommand { sdimm: 1 });
        r.push(Observable::LongCommand { sdimm: 1 });
        r.push(Observable::ShortCommand { sdimm: 1 });
        assert_eq!(r.long_counts(2), vec![1, 2]);
    }
}
