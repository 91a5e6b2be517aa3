//! Property tests for ORAM structures: stash eviction legality, bucket
//! serialization, layout uniqueness, and PLB behavior.

use oram::bucket::{BlockEntry, Bucket};
use oram::geometry::{BucketIdx, Geometry};
use oram::layout::TreeLayout;
use oram::plb::{Plb, PlbKey};
use oram::stash::Stash;
use oram::types::{BlockId, Leaf, OramConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eviction always places blocks on their own path, never exceeds Z
    /// per level, and conserves blocks (evicted + remaining == initial).
    #[test]
    fn eviction_is_legal_and_conservative(
        leaves in proptest::collection::vec(0u64..256, 1..80),
        target in 0u64..256,
    ) {
        let geo = Geometry::new(8);
        let mut stash = Stash::new();
        for (i, leaf) in leaves.iter().enumerate() {
            stash.insert(BlockEntry { id: BlockId(i as u64), leaf: Leaf(*leaf), data: vec![] });
        }
        let before = stash.len();
        let per_level = stash.evict_for_path(&geo, Leaf(target), 4);
        let evicted: usize = per_level.iter().map(Vec::len).sum();
        prop_assert_eq!(evicted + stash.len(), before);
        for (level, blocks) in per_level.iter().enumerate() {
            prop_assert!(blocks.len() <= 4, "level {level} overfilled");
            let bucket = geo.bucket_at(Leaf(target), level as u32);
            for b in blocks {
                prop_assert!(geo.on_path(bucket, b.leaf));
            }
        }
    }

    /// Bucket serialization round-trips arbitrary occupancy patterns.
    #[test]
    fn bucket_serialization_roundtrips(
        entries in proptest::collection::vec((any::<u64>(), any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64)), 0..4),
        counter in any::<u64>(),
    ) {
        let mut b = Bucket::new(4);
        b.counter = counter;
        for (id, leaf, data) in &entries {
            // Ids must be unique within a bucket for take() semantics;
            // skip duplicates.
            if b.iter().any(|e| e.id == BlockId(*id)) { continue; }
            let _ = b.insert(BlockEntry { id: BlockId(*id), leaf: Leaf(*leaf), data: data.clone() });
        }
        let img = b.serialize(64);
        let back = Bucket::deserialize(&img, 4, 64);
        prop_assert_eq!(back.counter, counter);
        prop_assert_eq!(back.occupancy(), b.occupancy());
        for e in b.iter() {
            let got = back.iter().find(|x| x.id == e.id).expect("present");
            prop_assert_eq!(got.leaf, e.leaf);
            let mut padded = e.data.clone();
            padded.resize(64, 0);
            prop_assert_eq!(&got.data, &padded);
        }
    }

    /// Layout: path lines are unique within a path and stable across
    /// calls, for both layouts and arbitrary leaves.
    #[test]
    fn layouts_give_unique_stable_paths(levels in 6u32..12, leaf_seed in any::<u64>(),
                                        rank_localized in any::<bool>()) {
        let cfg = OramConfig { levels, ..OramConfig::tiny() };
        let layout = if rank_localized {
            TreeLayout::rank_localized(&cfg, 2, 1 << 24)
        } else {
            TreeLayout::subtree_packed(&cfg, 4)
        };
        let leaf = Leaf(leaf_seed % cfg.leaf_count());
        let lines = layout.path_lines(leaf);
        prop_assert_eq!(lines.clone(), layout.path_lines(leaf));
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), lines.len());
    }

    /// Two different buckets never share a line address.
    #[test]
    fn buckets_never_alias(a in 0u64..2000, b in 0u64..2000) {
        prop_assume!(a != b);
        let cfg = OramConfig { levels: 10, ..OramConfig::tiny() };
        let layout = TreeLayout::subtree_packed(&cfg, 4);
        let la = layout.bucket_lines(BucketIdx(a)).unwrap();
        let lb = layout.bucket_lines(BucketIdx(b)).unwrap();
        for x in &la {
            prop_assert!(!lb.contains(x), "buckets {a},{b} share line {x:#x}");
        }
    }

    /// PLB: after inserting a key it hits until evicted; capacity is
    /// never exceeded.
    #[test]
    fn plb_capacity_respected(keys in proptest::collection::vec((1u8..4, 0u64..512), 1..200)) {
        let mut plb = Plb::new(64, 8);
        let mut resident = 0usize;
        for (level, index) in keys {
            let key = PlbKey { level, index };
            if plb.insert(key, false).is_none() {
                resident += 1;
            }
            prop_assert!(plb.contains(key), "freshly inserted key missing");
        }
        prop_assert!(resident >= 1);
    }
}
