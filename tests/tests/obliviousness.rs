//! Indistinguishability tests (§III-G): the attacker-visible event
//! stream must depend only on the *number* of accesses, never on which
//! blocks were touched, the operation mix, or the access pattern.

use oram::types::{BlockId, Op, OramConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::independent::{IndependentConfig, IndependentOram};
use sdimm::obliviousness::{compare_shapes, target_skew, Recorder, ShapeVerdict};
use sdimm::split::{SplitConfig, SplitOram};
use sdimm::Protocol;

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

#[test]
fn independent_shapes_are_indistinguishable() {
    let run = |pattern: &[(u64, Op)], seed: u64| {
        let mut oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree()), BLOCKS, seed);
        // Drain randomness must be shape-neutral too: it is part of the
        // observable stream, so both runs use the same protocol RNG seed.
        oram.set_recorder(Recorder::new());
        for (id, op) in pattern {
            oram.access(BlockId(*id), *op, Some(&[1u8; 8]));
        }
        oram.take_recorder().expect("attached")
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
        let mut oram = SplitOram::new(SplitConfig::new(2, &tree()), BLOCKS, 70);
        oram.set_recorder(Recorder::new());
        for (id, op) in pattern {
            oram.access(BlockId(*id), *op, Some(&[2u8; 8]));
        }
        oram.take_recorder().expect("attached")
    };
    let (a, b) = contrast_patterns();
    assert_eq!(compare_shapes(&run(&a), &run(&b)), ShapeVerdict::Indistinguishable);
}

#[test]
fn indep_split_shapes_are_indistinguishable() {
    let run = |pattern: &[(u64, Op)]| {
        let mut oram = IndependentOram::new(IndependentConfig::new(2, 2, &tree()), BLOCKS, 80);
        oram.set_recorder(Recorder::new());
        for (id, op) in pattern {
            oram.access(BlockId(*id), *op, Some(&[3u8; 8]));
        }
        oram.take_recorder().expect("attached")
    };
    let (a, b) = contrast_patterns();
    assert_eq!(compare_shapes(&run(&a), &run(&b)), ShapeVerdict::Indistinguishable);
}

#[test]
fn reads_and_writes_are_indistinguishable() {
    // ACCESS always carries one block (dummy on reads), so op type must
    // not alter the shape.
    let run = |op: Op| {
        let mut oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree()), BLOCKS, 91);
        oram.set_recorder(Recorder::new());
        for i in 0..N as u64 {
            oram.access(BlockId(i % BLOCKS), op, Some(&[4u8; 8]));
        }
        oram.take_recorder().expect("attached")
    };
    assert_eq!(compare_shapes(&run(Op::Read), &run(Op::Write)), ShapeVerdict::Indistinguishable);
}

#[test]
fn sdimm_targeting_is_uniform_even_for_hot_block() {
    // A single hot block keeps remapping to random SDIMMs; long-command
    // counts must stay balanced (the APPEND fan-out guarantees it).
    let mut oram = IndependentOram::new(IndependentConfig::new(4, 1, &tree()), BLOCKS, 13);
    oram.set_recorder(Recorder::new());
    for _ in 0..400 {
        oram.access(BlockId(3), Op::Read, None);
    }
    let rec = oram.take_recorder().expect("attached");
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
        let mut oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree()), BLOCKS, 23);
        oram.set_recorder(Recorder::new());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..n {
            oram.access(BlockId(rng.gen_range(0..BLOCKS)), Op::Read, None);
        }
        oram.take_recorder().expect("attached")
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
