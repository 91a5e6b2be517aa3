//! Physical memory layout of the ORAM tree.
//!
//! Two layouts are provided:
//!
//! * [`TreeLayout::subtree_packed`] — the optimized baseline layout of
//!   Ren et al.: the tree is re-organized as a tree of small subtrees
//!   whose buckets occupy adjacent addresses, so reading a path gets
//!   row-buffer hits within each subtree.
//! * [`TreeLayout::rank_localized`] — the paper's low-power layout
//!   (Fig 5): the first `split_levels` levels live in the secure buffer's
//!   SRAM, and each of the `2^split_levels` large subtrees below is placed
//!   contiguously so it maps to exactly one rank; an `accessORAM` then
//!   touches a single rank and the others can stay in power-down.

use crate::geometry::{BucketIdx, Geometry};
use crate::types::{Leaf, OramConfig, BLOCK_BYTES};

/// How bucket indices map to line addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    SubtreePacked {
        /// Levels per packed subtree.
        subtree_levels: u32,
    },
    RankLocalized {
        /// Top levels held in buffer SRAM (2 for a quad-rank SDIMM).
        split_levels: u32,
        /// Bytes of one rank's contiguous region.
        rank_bytes: u64,
    },
}

/// Maps tree buckets to physical cache-line addresses.
#[derive(Debug, Clone)]
pub struct TreeLayout {
    geo: Geometry,
    lines_per_bucket: usize,
    cached_levels: u32,
    scheme: Scheme,
}

impl TreeLayout {
    /// The row-buffer-friendly baseline layout: subtrees of
    /// `subtree_levels` levels are packed into contiguous lines.
    ///
    /// With 4-level subtrees a packed subtree is 15 buckets × 5 lines =
    /// 75 lines = 4800 B, fitting one 8 KB DRAM row.
    pub fn subtree_packed(cfg: &OramConfig, subtree_levels: u32) -> Self {
        assert!(subtree_levels >= 1);
        TreeLayout {
            geo: Geometry::from_config(cfg),
            lines_per_bucket: cfg.lines_per_bucket(),
            cached_levels: cfg.cached_levels,
            scheme: Scheme::SubtreePacked { subtree_levels },
        }
    }

    /// The low-power layout: each of the `2^split_levels` subtrees under
    /// the split occupies one rank's contiguous `rank_bytes` region; the
    /// top `split_levels` levels are stored in the secure buffer.
    ///
    /// # Panics
    ///
    /// Panics if a subtree does not fit in `rank_bytes`.
    pub fn rank_localized(cfg: &OramConfig, split_levels: u32, rank_bytes: u64) -> Self {
        assert!(split_levels >= 1 && split_levels < cfg.levels);
        let subtree_buckets = (1u64 << (cfg.levels - split_levels + 1)) - 1;
        let need = subtree_buckets * cfg.lines_per_bucket() as u64 * BLOCK_BYTES as u64;
        assert!(need <= rank_bytes, "subtree needs {need} bytes but a rank provides {rank_bytes}");
        TreeLayout {
            geo: Geometry::from_config(cfg),
            lines_per_bucket: cfg.lines_per_bucket(),
            cached_levels: cfg.cached_levels.max(split_levels),
            scheme: Scheme::RankLocalized { split_levels, rank_bytes },
        }
    }

    /// Tree geometry this layout covers.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Levels that never generate memory traffic (on-chip/buffer cache).
    pub fn cached_levels(&self) -> u32 {
        self.cached_levels
    }

    /// Lines per bucket (Z + 1).
    pub fn lines_per_bucket(&self) -> usize {
        self.lines_per_bucket
    }

    /// The ordinal of a bucket in its layout order (0-based slot index).
    fn bucket_slot(&self, b: BucketIdx) -> u64 {
        match self.scheme {
            Scheme::SubtreePacked { subtree_levels } => {
                packed_slot(self.geo.levels(), subtree_levels, b.0)
            }
            Scheme::RankLocalized { split_levels, .. } => {
                let level = self.geo.level_of(b);
                assert!(
                    level >= split_levels,
                    "bucket above the split lives in buffer SRAM and has no address"
                );
                // Which of the 2^split_levels subtrees?
                let pos_in_level = b.0 + 1 - (1u64 << level);
                let depth_in_sub = level - split_levels;
                let sub = pos_in_level >> depth_in_sub;
                let within_level = pos_in_level & ((1u64 << depth_in_sub) - 1);
                // Heap index within the rank's subtree, then the same
                // row-buffer-friendly 4-level packing as the baseline
                // layout ("the new layout still keeps the buckets in a
                // small subtree close to each other", §III-E).
                let local_heap = ((1u64 << depth_in_sub) - 1) + within_level;
                let sub_tree_depth = self.geo.levels() - split_levels;
                let within_sub = packed_slot(sub_tree_depth, 4, local_heap);
                let sub_size = (1u64 << (sub_tree_depth + 1)) - 1;
                sub * sub_size + within_sub
            }
        }
    }

    /// Line addresses of one bucket's `Z + 1` lines, or `None` when the
    /// bucket lives in the on-chip/buffer cache.
    pub fn bucket_lines(&self, b: BucketIdx) -> Option<Vec<u64>> {
        let level = self.geo.level_of(b);
        if level < self.cached_levels {
            return None;
        }
        let slot = self.bucket_slot(b);
        let base = match self.scheme {
            Scheme::SubtreePacked { .. } => {
                slot * self.lines_per_bucket as u64 * BLOCK_BYTES as u64
            }
            Scheme::RankLocalized { split_levels, rank_bytes } => {
                // Rank index is the subtree index: top bits of the slot.
                let sub_levels = self.geo.levels() + 1 - split_levels;
                let sub_size = (1u64 << sub_levels) - 1;
                let rank = slot / sub_size;
                let within = slot % sub_size;
                rank * rank_bytes + within * self.lines_per_bucket as u64 * BLOCK_BYTES as u64
            }
        };
        Some((0..self.lines_per_bucket as u64).map(|i| base + i * BLOCK_BYTES as u64).collect())
    }

    /// Line addresses for an entire path (root→leaf), skipping cached
    /// levels; the bulk of an `accessORAM`'s traffic.
    pub fn path_lines(&self, revealed_leaf: Leaf) -> Vec<u64> {
        let mut out = Vec::with_capacity(
            (self.geo.levels() + 1 - self.cached_levels) as usize * self.lines_per_bucket,
        );
        for level in self.cached_levels..=self.geo.levels() {
            let b = self.geo.bucket_at(revealed_leaf, level);
            if let Some(lines) = self.bucket_lines(b) {
                out.extend(lines);
            }
        }
        out
    }

    /// For the rank-localized layout: the rank an access to `leaf` touches.
    ///
    /// Returns `None` for layouts that do not localize to ranks.
    pub fn rank_of(&self, leaf: Leaf) -> Option<usize> {
        match self.scheme {
            Scheme::RankLocalized { split_levels, .. } => {
                Some(self.geo.shard_of(leaf, 1usize << split_levels))
            }
            Scheme::SubtreePacked { .. } => None,
        }
    }

    /// The tree level of the bucket that owns line address `addr` — the
    /// inverse of [`bucket_lines`](Self::bucket_lines), used to
    /// attribute physically observed DRAM wear (hot rows) back to ORAM
    /// levels. Returns `None` for addresses outside the layout (for the
    /// rank-localized layout, the tail of a rank region past its
    /// subtree is unowned).
    pub fn level_of_line(&self, addr: u64) -> Option<u32> {
        let bucket_bytes = self.lines_per_bucket as u64 * BLOCK_BYTES as u64;
        match self.scheme {
            Scheme::SubtreePacked { subtree_levels } => {
                packed_level_of_slot(self.geo.levels(), subtree_levels, addr / bucket_bytes)
            }
            Scheme::RankLocalized { split_levels, rank_bytes } => {
                if addr / rank_bytes >= (1u64 << split_levels) {
                    return None;
                }
                let within = (addr % rank_bytes) / bucket_bytes;
                let sub_tree_depth = self.geo.levels() - split_levels;
                // Same 4-level packing as `bucket_slot`, offset by the
                // split the subtree hangs under.
                packed_level_of_slot(sub_tree_depth, 4, within).map(|l| l + split_levels)
            }
        }
    }

    /// Total bytes of memory the layout occupies (capacity planning).
    pub fn footprint_bytes(&self) -> u64 {
        match self.scheme {
            Scheme::SubtreePacked { .. } => {
                self.geo.bucket_count() * self.lines_per_bucket as u64 * BLOCK_BYTES as u64
            }
            Scheme::RankLocalized { split_levels, rank_bytes } => {
                (1u64 << split_levels) * rank_bytes
            }
        }
    }
}

/// Slot of heap-indexed bucket `heap_idx` in a tree of depth
/// `tree_depth` (leaves at that level) when the tree is re-organized as
/// a tree of `subtree_levels`-level subtrees packed contiguously
/// (Ren et al.'s row-buffer-friendly layout).
fn packed_slot(tree_depth: u32, subtree_levels: u32, heap_idx: u64) -> u64 {
    let level = 64 - (heap_idx + 1).leading_zeros() - 1;
    let tier = level / subtree_levels;
    let root_level = tier * subtree_levels;
    let depth_in_sub = level - root_level;
    let pos_in_level = heap_idx + 1 - (1u64 << level);
    let sub_pos = pos_in_level >> depth_in_sub; // subtree index within tier
    let within_level = pos_in_level & ((1u64 << depth_in_sub) - 1);
    let buckets_above = (1u64 << root_level) - 1;
    // Subtrees in this tier may be clipped by the tree bottom.
    let sub_levels = subtree_levels.min(tree_depth + 1 - root_level);
    let sub_size = (1u64 << sub_levels) - 1;
    let within_sub = ((1u64 << depth_in_sub) - 1) + within_level;
    buckets_above + sub_pos * sub_size + within_sub
}

/// Tree level of the bucket in slot `slot` of a packed layout — the
/// inverse of [`packed_slot`]. Walks the subtree tiers (each tier's
/// slots are contiguous, `2^root_level` subtrees of `sub_size` slots
/// after the `2^root_level - 1` slots above it); within a subtree the
/// slot order is itself heap order, so the depth is `⌊log₂(pos+1)⌋`.
/// `None` when `slot` is past the last bucket.
fn packed_level_of_slot(tree_depth: u32, subtree_levels: u32, slot: u64) -> Option<u32> {
    let mut root_level = 0u32;
    while root_level <= tree_depth {
        let sub_levels = subtree_levels.min(tree_depth + 1 - root_level);
        let sub_size = (1u64 << sub_levels) - 1;
        let tier_start = (1u64 << root_level) - 1;
        let tier_slots = (1u64 << root_level) * sub_size;
        if slot < tier_start + tier_slots {
            let within_sub = (slot - tier_start) % sub_size;
            let depth_in_sub = 64 - (within_sub + 1).leading_zeros() - 1;
            return Some(root_level + depth_in_sub);
        }
        root_level += subtree_levels;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg(levels: u32) -> OramConfig {
        OramConfig { levels, ..OramConfig::tiny() }
    }

    #[test]
    fn subtree_packed_addresses_are_unique() {
        let c = cfg(6);
        let l = TreeLayout::subtree_packed(&c, 3);
        let mut seen = HashSet::new();
        for b in 0..c.bucket_count() {
            let lines = l.bucket_lines(BucketIdx(b)).expect("nothing cached");
            for line in lines {
                assert!(seen.insert(line), "bucket {b} reuses line {line:#x}");
            }
        }
        assert_eq!(seen.len() as u64, c.bucket_count() * 5);
    }

    #[test]
    fn subtree_packing_keeps_subtrees_contiguous() {
        let c = cfg(6);
        let l = TreeLayout::subtree_packed(&c, 3);
        // The root subtree covers levels 0..=2 (buckets 0..=6); its 7
        // buckets must occupy the first 7 bucket slots.
        let mut max_line = 0;
        for b in 0..7u64 {
            let lines = l.bucket_lines(BucketIdx(b)).unwrap();
            max_line = max_line.max(*lines.last().unwrap());
        }
        assert_eq!(max_line, (7 * 5 - 1) * 64, "root subtree not contiguous");
    }

    #[test]
    fn path_lines_count_matches_formula() {
        let mut c = cfg(6);
        c.cached_levels = 2;
        let l = TreeLayout::subtree_packed(&c, 3);
        let lines = l.path_lines(Leaf(11));
        assert_eq!(lines.len(), (6 + 1 - 2) * 5);
    }

    #[test]
    fn cached_buckets_have_no_address() {
        let mut c = cfg(6);
        c.cached_levels = 2;
        let l = TreeLayout::subtree_packed(&c, 3);
        assert!(l.bucket_lines(BucketIdx(0)).is_none());
        assert!(l.bucket_lines(BucketIdx(2)).is_none());
        assert!(l.bucket_lines(BucketIdx(3)).is_some());
    }

    #[test]
    fn rank_localized_paths_stay_in_one_rank() {
        let c = cfg(8);
        let rank_bytes = 1u64 << 20;
        let l = TreeLayout::rank_localized(&c, 2, rank_bytes);
        for leaf in [0u64, 60, 130, 255] {
            let rank = l.rank_of(Leaf(leaf)).unwrap();
            for line in l.path_lines(Leaf(leaf)) {
                assert_eq!(
                    (line / rank_bytes) as usize,
                    rank,
                    "leaf {leaf}: line {line:#x} escaped rank {rank}"
                );
            }
        }
    }

    #[test]
    fn rank_localized_covers_four_ranks() {
        let c = cfg(8);
        let l = TreeLayout::rank_localized(&c, 2, 1 << 20);
        let ranks: HashSet<_> = (0..256u64).map(|i| l.rank_of(Leaf(i)).unwrap()).collect();
        assert_eq!(ranks.len(), 4);
    }

    #[test]
    fn rank_localized_addresses_unique() {
        let c = cfg(8);
        let l = TreeLayout::rank_localized(&c, 2, 1 << 20);
        let mut seen = HashSet::new();
        for b in 0..c.bucket_count() {
            if let Some(lines) = l.bucket_lines(BucketIdx(b)) {
                for line in lines {
                    assert!(seen.insert(line), "duplicate address {line:#x}");
                }
            }
        }
    }

    #[test]
    fn level_of_line_inverts_bucket_lines_on_both_layouts() {
        // Every line of every addressable bucket must attribute back to
        // the bucket's own level — on the packed baseline layout and on
        // the rank-localized low-power layout (whose address space has
        // unowned tails past each rank's subtree).
        let c = cfg(8);
        for l in [TreeLayout::subtree_packed(&c, 3), TreeLayout::rank_localized(&c, 2, 1 << 20)] {
            for b in 0..c.bucket_count() {
                let Some(lines) = l.bucket_lines(BucketIdx(b)) else { continue };
                let level = l.geometry().level_of(BucketIdx(b));
                for line in lines {
                    assert_eq!(
                        l.level_of_line(line),
                        Some(level),
                        "bucket {b} line {line:#x} misattributed"
                    );
                }
            }
        }
    }

    #[test]
    fn level_of_line_rejects_unowned_addresses() {
        let c = cfg(8);
        let packed = TreeLayout::subtree_packed(&c, 3);
        assert_eq!(packed.level_of_line(packed.footprint_bytes()), None);
        let rank = TreeLayout::rank_localized(&c, 2, 1 << 20);
        // The tail of rank 0's region past its subtree is unowned.
        assert_eq!(rank.level_of_line((1 << 20) - 64), None);
        // Past the last rank entirely.
        assert_eq!(rank.level_of_line(4 << 20), None);
    }

    #[test]
    #[should_panic(expected = "but a rank provides")]
    fn rank_region_too_small_rejected() {
        let c = cfg(12);
        // 2^11-ish buckets × 5 lines × 64 B per subtree >> 4 KB.
        let _ = TreeLayout::rank_localized(&c, 2, 4096);
    }

    #[test]
    fn footprint_is_positive_and_scales() {
        let small = TreeLayout::subtree_packed(&cfg(6), 3).footprint_bytes();
        let large = TreeLayout::subtree_packed(&cfg(8), 3).footprint_bytes();
        assert!(large > small * 3);
    }
}
