//! Indistinguishability tests (§III-G): the attacker-visible event
//! stream must depend only on the *number* of accesses, never on which
//! blocks were touched, the operation mix, or the access pattern. Every
//! stream here is projected from the traces the accesses return, as the
//! runner projects it from the traces it executes.

use oram::types::{BlockId, Op, OramConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::independent::{IndependentConfig, IndependentOram};
use sdimm::obliviousness::{compare_shapes, target_skew, Recorder, ShapeVerdict};
use sdimm::split::{SplitConfig, SplitOram};
use sdimm::Protocol;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run_with, Capture};
use sdimm_telemetry::Instruments;
use workloads::leakage::{pairs, required_blocks};

const BLOCKS: u64 = 512;
const N: usize = 64;

fn tree() -> OramConfig {
    OramConfig { levels: 10, ..OramConfig::default() }
}

/// Workload A: hammer one block with reads. Workload B: scan distinct
/// blocks with writes. Maximal contrast in logical behavior.
type Pattern = Vec<(u64, Op)>;

fn contrast_patterns() -> (Pattern, Pattern) {
    let a = (0..N).map(|_| (7u64, Op::Read)).collect();
    let b = (0..N).map(|i| (i as u64 * 3 % BLOCKS, Op::Write)).collect();
    (a, b)
}

/// What the attacker sees of `pattern` run on `oram`, every access
/// carrying `data`.
fn observe(mut oram: impl Protocol, pattern: &[(u64, Op)], data: Option<&[u8]>) -> Recorder {
    let mut rec = Recorder::new();
    for &(id, op) in pattern {
        rec.observe(&oram.access(BlockId(id), op, data).1);
    }
    rec
}

#[test]
fn independent_shapes_are_indistinguishable() {
    let run = |pattern: &[(u64, Op)], seed: u64| {
        let oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree()), BLOCKS, seed);
        // Drain randomness must be shape-neutral too: it is part of the
        // observable stream, so both runs use the same protocol RNG seed.
        observe(oram, pattern, Some(&[1u8; 8]))
    };
    let (a, b) = contrast_patterns();
    let ra = run(&a, 55);
    let rb = run(&b, 55);
    assert_eq!(
        compare_shapes(&ra, &rb),
        ShapeVerdict::Indistinguishable,
        "hot-block reads vs scan writes must look identical"
    );
}

#[test]
fn split_shapes_are_indistinguishable() {
    let run = |pattern: &[(u64, Op)]| {
        let oram = SplitOram::new(SplitConfig::new(2, &tree()), BLOCKS, 70);
        observe(oram, pattern, Some(&[2u8; 8]))
    };
    let (a, b) = contrast_patterns();
    assert_eq!(compare_shapes(&run(&a), &run(&b)), ShapeVerdict::Indistinguishable);
}

#[test]
fn indep_split_shapes_are_indistinguishable() {
    let run = |pattern: &[(u64, Op)]| {
        let oram = IndependentOram::new(IndependentConfig::new(2, 2, &tree()), BLOCKS, 80);
        observe(oram, pattern, Some(&[3u8; 8]))
    };
    let (a, b) = contrast_patterns();
    assert_eq!(compare_shapes(&run(&a), &run(&b)), ShapeVerdict::Indistinguishable);
}

#[test]
fn reads_and_writes_are_indistinguishable() {
    // ACCESS always carries one block (dummy on reads), so op type must
    // not alter the shape.
    let run = |op: Op| {
        let oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree()), BLOCKS, 91);
        let pattern: Pattern = (0..N as u64).map(|i| (i % BLOCKS, op)).collect();
        observe(oram, &pattern, Some(&[4u8; 8]))
    };
    assert_eq!(compare_shapes(&run(Op::Read), &run(Op::Write)), ShapeVerdict::Indistinguishable);
}

#[test]
fn sdimm_targeting_is_uniform_even_for_hot_block() {
    // A single hot block keeps remapping to random SDIMMs; long-command
    // counts must stay balanced (the APPEND fan-out guarantees it).
    let oram = IndependentOram::new(IndependentConfig::new(4, 1, &tree()), BLOCKS, 13);
    let rec = observe(oram, &[(3, Op::Read); 400], None);
    let skew = target_skew(&rec.long_counts(4));
    assert!(skew < 0.25, "hot-block workload skewed SDIMM targeting: {skew}");
}

#[test]
fn leaf_choice_is_uniform() {
    // The remapped leaves drive which internal paths the attacker sees;
    // they must cover the leaf space uniformly.
    let mut oram = SplitOram::new(SplitConfig::new(2, &tree()), BLOCKS, 19);
    let mut counts = vec![0u64; 4];
    let leaves = tree().leaf_count();
    for _ in 0..2_000 {
        oram.access(BlockId(5), Op::Read, None);
        let leaf = oram.trees()[0].leaf_of(BlockId(5));
        counts[(leaf.0 * 4 / leaves) as usize] += 1;
    }
    let skew = target_skew(&counts);
    assert!(skew < 0.2, "leaf quarters skewed: {counts:?}");
}

#[test]
fn different_length_workloads_are_distinguishable_only_by_length() {
    // Sanity for the checker itself: N accesses vs N+1 accesses differ,
    // and the first difference is at the end (a pure length leak).
    let run = |n: usize| {
        let oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree()), BLOCKS, 23);
        let mut rng = StdRng::seed_from_u64(2);
        let pattern: Pattern = (0..n).map(|_| (rng.gen_range(0..BLOCKS), Op::Read)).collect();
        observe(oram, &pattern, None)
    };
    let ra = run(16);
    let rb = run(17);
    match compare_shapes(&ra, &rb) {
        ShapeVerdict::Distinguishable { position, .. } => {
            assert!(position >= ra.events().len().min(rb.events().len()) - 1);
        }
        ShapeVerdict::Indistinguishable => panic!("length difference must be visible"),
    }
}

#[test]
fn runner_captures_indistinguishable_streams_on_every_machine() {
    // The leakage gate's pairs, on every machine kind: the runner's
    // capture is what the statistical gate reads, so its shape must hold
    // across each pair, and it must be empty without an external SDIMM
    // bus (the second field).
    let (warmup, measure) = (200, 400);
    let kinds = [
        (MachineKind::NonSecure { channels: 1 }, false),
        (MachineKind::PathOram { channels: 1 }, false),
        (MachineKind::Freecursive { channels: 1 }, false),
        (MachineKind::Independent { sdimms: 2, channels: 1 }, true),
        (MachineKind::Split { ways: 2, channels: 1 }, true),
        (MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }, true),
    ];
    let capture = Capture { observables: true, ..Capture::default() };
    for (kind, sdimm_bus) in kinds {
        let cfg = SystemConfig::small(kind);
        assert!(cfg.data_blocks >= required_blocks(warmup, measure));
        for pair in pairs(warmup, measure) {
            let what = format!("{} × {}", kind.name(), pair.name);
            let [a, b] = [&pair.a, &pair.b].map(|trace| {
                let instruments = Instruments::disabled();
                let (_, cap) = run_with(&cfg, trace, warmup, measure, &instruments, 0, capture);
                assert!(cap.observables.windows(2).all(|w| w[0].0 <= w[1].0), "{what}: stamps");
                let mut rec = Recorder::new();
                cap.observables.iter().for_each(|&(_, ev)| rec.push(ev));
                rec
            });
            if sdimm_bus {
                assert!(!a.events().is_empty(), "{what}: nothing captured");
                assert_eq!(compare_shapes(&a, &b), ShapeVerdict::Indistinguishable, "{what}");
            } else {
                assert!(a.events().is_empty() && b.events().is_empty(), "{what}: no SDIMM bus");
            }
        }
    }
}

mod shape_properties {
    use proptest::prelude::*;
    use sdimm::obliviousness::{
        compare_shapes, shape_of, Observable, Recorder, Shape, ShapeVerdict,
    };

    /// An arbitrary attacker-visible event, covering every variant.
    fn observable() -> impl Strategy<Value = Observable> {
        prop_oneof![
            (0usize..8).prop_map(|sdimm| Observable::ShortCommand { sdimm }),
            (0usize..8).prop_map(|sdimm| Observable::LongCommand { sdimm }),
            (0usize..8, 0u64..4096)
                .prop_map(|(sdimm, bytes)| Observable::MetaTransfer { sdimm, bytes }),
            (0usize..8, 0u64..256)
                .prop_map(|(sdimm, lines)| Observable::InternalPath { sdimm, lines }),
        ]
    }

    /// The same event retargeted at a different SDIMM. Exhaustive match:
    /// a new variant fails to compile here, same as in `shape_of`.
    fn relabel(ev: &Observable, sdimm: usize) -> Observable {
        match *ev {
            Observable::ShortCommand { sdimm: _ } => Observable::ShortCommand { sdimm },
            Observable::LongCommand { sdimm: _ } => Observable::LongCommand { sdimm },
            Observable::MetaTransfer { sdimm: _, bytes } => {
                Observable::MetaTransfer { sdimm, bytes }
            }
            Observable::InternalPath { sdimm: _, lines } => {
                Observable::InternalPath { sdimm, lines }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `shape_of` is total, and the payload it keeps is exactly the
        /// non-target data: sizes survive, the SDIMM label does not.
        #[test]
        fn every_observable_projects_to_a_shape(ev in observable()) {
            let shape = shape_of(&ev);
            match (ev, shape) {
                (Observable::ShortCommand { .. }, Shape::Short) => {}
                (Observable::LongCommand { .. }, Shape::Long) => {}
                (Observable::MetaTransfer { bytes, .. }, Shape::Meta(b)) => {
                    prop_assert_eq!(bytes, b)
                }
                (Observable::InternalPath { lines, .. }, Shape::Path(l)) => {
                    prop_assert_eq!(lines, l)
                }
                (ev, shape) => prop_assert!(false, "wrong projection {ev:?} -> {shape:?}"),
            }
        }

        /// Shape equality is invariant under SDIMM relabeling: targets
        /// are chosen uniformly at random by design, so two streams that
        /// differ only in which SDIMM each event hit must be
        /// shape-indistinguishable.
        #[test]
        fn shape_equality_is_invariant_under_sdimm_relabeling(
            events in proptest::collection::vec(observable(), 0..64),
            labels in proptest::collection::vec(0usize..8, 0..64),
        ) {
            let mut a = Recorder::new();
            let mut b = Recorder::new();
            for (i, ev) in events.iter().enumerate() {
                prop_assert_eq!(
                    shape_of(ev),
                    shape_of(&relabel(ev, labels.get(i).copied().unwrap_or(0)))
                );
                a.push(*ev);
                b.push(relabel(ev, labels.get(i).copied().unwrap_or(0)));
            }
            prop_assert!(matches!(compare_shapes(&a, &b), ShapeVerdict::Indistinguishable));
        }
    }
}
