//! The attacker's view of the protocols and its indistinguishability
//! check (§III-G).
//!
//! The attacker of the threat model sees: every command and data transfer
//! on the external DDR bus (encrypted payloads, but presence/size/target
//! SDIMM are visible), and every DRAM address on the untrusted on-DIMM
//! bus. The protocols' privacy argument is that this observable stream is
//! **deterministic in shape** — same number, kind, and target pattern of
//! messages per access — with the only data-dependent component being the
//! ORAM path addresses, which are uniformly random leaves.
//!
//! [`observables`] projects that stream out of the [`RequestTrace`] an
//! access returns, the trace the executor runs; [`Recorder`] collects
//! it; [`shape_of`] projects out everything the attacker could correlate
//! with the logical request; the tests (and the `obliviousness`
//! integration suite) assert that traces of *different* logical
//! workloads have identical shapes and uniform leaf usage.
//!
//! Shape equality is necessary but not sufficient: the event-driven
//! engine and the FR-FCFS scheduler add queueing jitter a bus observer
//! can time. The `sdimm-system` runner therefore stamps each request's
//! observables with the cycle it issued the request at, and
//! `crates/leakage` runs two-sample statistics over the stamped streams
//! of paired workloads.

use crate::trace::{Activity, RequestTrace};

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
    /// One DRAM activity on one SDIMM's internal bus: a path read, a
    /// path write-back, or a share of either (the attacker sees the
    /// addresses; we record the line count — the leaf itself is checked
    /// separately for uniformity).
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

/// What the attacker sees of one executed trace: one event per bus or
/// DRAM activity, in phase order; crypto work and power hints show
/// nothing. Matched exhaustively, like [`shape_of`], so a new `Activity`
/// does not compile until someone decides what the attacker sees of it.
pub fn observables(trace: &RequestTrace) -> impl Iterator<Item = Observable> + '_ {
    trace.iter_activities().filter_map(|act| match act {
        Activity::ExtShort { sdimm } => Some(Observable::ShortCommand { sdimm: *sdimm }),
        Activity::ExtTransfer { sdimm, bytes: _ } => {
            Some(Observable::LongCommand { sdimm: *sdimm })
        }
        Activity::ExtMeta { sdimm, bytes } => {
            Some(Observable::MetaTransfer { sdimm: *sdimm, bytes: *bytes })
        }
        Activity::Dram { channel, reads, writes } => Some(Observable::InternalPath {
            sdimm: *channel,
            lines: (reads.len() + writes.len()) as u64,
        }),
        Activity::Crypto { units: _ } | Activity::WakeRank { channel: _, rank: _ } => None,
    })
}

/// An observable event stream, collected from the traces a protocol's
/// accesses return.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Vec<Observable>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Appends one event.
    pub fn push(&mut self, ev: Observable) {
        self.events.push(ev);
    }

    /// Appends what the attacker sees of `trace` ([`observables`]).
    pub fn observe(&mut self, trace: &RequestTrace) {
        self.events.extend(observables(trace));
    }

    /// The captured events.
    pub fn events(&self) -> &[Observable] {
        &self.events
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
    let shape_at = |r: &Recorder, i: usize| r.events.get(i).map(shape_of);
    let n = a.events.len().max(b.events.len());
    let Some(position) = (0..n).find(|&i| shape_at(a, i) != shape_at(b, i)) else {
        return ShapeVerdict::Indistinguishable;
    };
    ShapeVerdict::Distinguishable { position, a: shape_at(a, position), b: shape_at(b, position) }
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
    use oram::types::{BlockId, Op, OramConfig};

    use super::*;
    use crate::{IndependentConfig, IndependentOram, Phase, Protocol, SplitConfig, SplitOram};

    #[test]
    fn observables_follow_the_activities_in_phase_order() {
        let trace = RequestTrace::new(vec![
            Phase { par: vec![Activity::ExtShort { sdimm: 1 }, Activity::Crypto { units: 4 }] },
            Phase {
                par: vec![
                    Activity::WakeRank { channel: 0, rank: 1 },
                    Activity::Dram { channel: 0, reads: vec![0, 64, 128], writes: vec![192] },
                    Activity::ExtMeta { sdimm: 0, bytes: 40 },
                    Activity::ExtTransfer { sdimm: 1, bytes: 32 },
                ],
            },
        ]);
        let seen: Vec<_> = observables(&trace).collect();
        assert_eq!(
            seen,
            [
                Observable::ShortCommand { sdimm: 1 },
                Observable::InternalPath { sdimm: 0, lines: 4 },
                Observable::MetaTransfer { sdimm: 0, bytes: 40 },
                Observable::LongCommand { sdimm: 1 },
            ]
        );
    }

    #[test]
    fn bus_events_carry_every_external_byte() {
        // Split, Independent and a low-power Indep-Split (whose traces
        // carry wake hints): one long command per block transfer, and
        // with the metadata transfers they carry every external byte.
        let tree = OramConfig { levels: 9, ..OramConfig::tiny() };
        let mut cfg = IndependentConfig::new(2, 2, &tree);
        cfg.low_power = true;
        let protocols: [Box<dyn Protocol>; 3] = [
            Box::new(SplitOram::new(SplitConfig::new(2, &tree), 128, 3)),
            Box::new(IndependentOram::new(IndependentConfig::new(2, 1, &tree), 128, 4)),
            Box::new(IndependentOram::new(cfg, 128, 5)),
        ];
        for mut oram in protocols {
            for i in 0..16 {
                let (_, trace) = oram.access(BlockId(i), Op::Read, None);
                let mut transfers = trace.iter_activities().filter_map(|a| match a {
                    Activity::ExtTransfer { bytes, .. } => Some(*bytes),
                    _ => None,
                });
                let shown: u64 = observables(&trace)
                    .map(|ev| match ev {
                        Observable::LongCommand { .. } => transfers.next().unwrap(),
                        Observable::MetaTransfer { bytes, .. } => bytes,
                        Observable::ShortCommand { .. } | Observable::InternalPath { .. } => 0,
                    })
                    .sum();
                assert_eq!(shown, trace.external_bytes());
                assert_eq!(transfers.next(), None, "a long command per transfer");
            }
        }
    }

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
    fn long_counts_tally_by_target() {
        let mut r = Recorder::new();
        r.push(Observable::LongCommand { sdimm: 0 });
        r.push(Observable::LongCommand { sdimm: 1 });
        r.push(Observable::LongCommand { sdimm: 1 });
        r.push(Observable::ShortCommand { sdimm: 1 });
        assert_eq!(r.long_counts(2), vec![1, 2]);
    }
}
