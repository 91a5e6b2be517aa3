//! The stash: a small controller-side buffer for blocks in transit.
//!
//! Path ORAM guarantees every block is either in the stash or on the path
//! to its leaf. The stash absorbs blocks read from a path and releases
//! them during write-back via greedy deepest-first eviction.

use std::collections::HashMap;

use sdimm_telemetry::{CellTrace, EventKind, LatencyHistogram};

use crate::bucket::BlockEntry;
use crate::geometry::Geometry;
use crate::types::{BlockId, Leaf};

/// Controller-side block buffer with occupancy tracking.
#[derive(Debug, Clone, Default)]
pub struct Stash {
    entries: HashMap<BlockId, BlockEntry>,
    /// High-water mark of occupancy, for overflow studies.
    peak: usize,
    /// Post-insert occupancy distribution, for overflow-probability
    /// studies (one sample per insert).
    occupancy: LatencyHistogram,
    /// Trace handle: one occupancy tick per insert, timestamped from the
    /// cell's clock. Disabled by default.
    trace: CellTrace,
    /// Backend index reported in stash ticks.
    trace_backend: u8,
}

impl Stash {
    /// An empty stash.
    pub fn new() -> Self {
        Stash::default()
    }

    /// Current number of blocks held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no blocks are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The post-insert occupancy distribution (one sample per insert).
    pub fn occupancy_hist(&self) -> &LatencyHistogram {
        &self.occupancy
    }

    /// Attaches a cell's trace handle; each insert then records an
    /// [`EventKind::StashTick`] tagged with `backend`, so a black-box
    /// dump shows the stash trajectory leading up to a bound breach.
    /// Disabled by default; one branch per insert.
    pub fn set_trace(&mut self, trace: CellTrace, backend: u8) {
        self.trace = trace;
        self.trace_backend = backend;
    }

    /// Inserts (or replaces) a block.
    pub fn insert(&mut self, entry: BlockEntry) {
        self.entries.insert(entry.id, entry);
        self.peak = self.peak.max(self.entries.len());
        self.occupancy.record(self.entries.len() as u64);
        self.trace.record(EventKind::StashTick {
            backend: self.trace_backend,
            occupancy: self.entries.len().min(u32::MAX as usize) as u32,
        });
    }

    /// Looks up a block without removing it.
    pub fn get(&self, id: BlockId) -> Option<&BlockEntry> {
        self.entries.get(&id)
    }

    /// Mutable lookup (used to update payload or remap the leaf).
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut BlockEntry> {
        self.entries.get_mut(&id)
    }

    /// Removes a block.
    pub fn remove(&mut self, id: BlockId) -> Option<BlockEntry> {
        self.entries.remove(&id)
    }

    /// Whether a block is present.
    pub fn contains(&self, id: BlockId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Iterates over resident blocks (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &BlockEntry> {
        self.entries.values()
    }

    /// Greedy write-back selection for a path to `leaf`: for each level
    /// from the **deepest** up, pick up to `z` stash blocks whose own leaf
    /// path still passes through that bucket, removing them from the
    /// stash. Returns, per level (index 0 = root), the chosen blocks.
    pub fn evict_for_path(
        &mut self,
        geo: &Geometry,
        revealed_leaf: Leaf,
        z: usize,
    ) -> Vec<Vec<BlockEntry>> {
        let depth = geo.levels();
        let mut result: Vec<Vec<BlockEntry>> = vec![Vec::new(); depth as usize + 1];
        // Deepest-first: blocks go as far down as their leaf allows.
        for level in (0..=depth).rev() {
            if self.entries.is_empty() {
                break;
            }
            let target = geo.bucket_at(revealed_leaf, level);
            let mut chosen: Vec<BlockId> = Vec::new();
            for e in self.entries.values() {
                if chosen.len() >= z {
                    break;
                }
                // lint: declassify(placement is decided controller-side: the bus still sees a full Z-block bucket write at every level of the revealed path, whichever stash entries fill it)
                if geo.bucket_at(e.leaf, level.min(depth)) == target && geo.on_path(target, e.leaf)
                {
                    chosen.push(e.id);
                }
            }
            for id in chosen {
                // lint: panic-ok(invariant: chosen from map)
                let e = self.entries.remove(&id).expect("chosen from map");
                result[level as usize].push(e);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, leaf: u64) -> BlockEntry {
        BlockEntry { id: BlockId(id), leaf: Leaf(leaf), data: Vec::new() }
    }

    #[test]
    fn insert_get_remove() {
        let mut s = Stash::new();
        s.insert(entry(1, 0));
        assert!(s.contains(BlockId(1)));
        assert_eq!(s.get(BlockId(1)).unwrap().leaf, Leaf(0));
        assert!(s.remove(BlockId(1)).is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn insert_replaces_same_id() {
        let mut s = Stash::new();
        s.insert(entry(5, 1));
        s.insert(BlockEntry { id: BlockId(5), leaf: Leaf(2), data: vec![9] });
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(BlockId(5)).unwrap().leaf, Leaf(2));
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut s = Stash::new();
        for i in 0..10 {
            s.insert(entry(i, 0));
        }
        for i in 0..10 {
            s.remove(BlockId(i));
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.peak(), 10);
        assert_eq!(s.occupancy_hist().count(), 10);
        assert_eq!(s.occupancy_hist().max(), 10);
    }

    #[test]
    fn eviction_respects_path_membership() {
        let geo = Geometry::new(3); // 8 leaves
        let mut s = Stash::new();
        s.insert(entry(1, 0)); // shares entire path with leaf 0
        s.insert(entry(2, 7)); // only the root is common with leaf 0
        let per_level = s.evict_for_path(&geo, Leaf(0), 4);
        // Block 1 must land at the leaf level; block 2 only at the root.
        assert!(per_level[3].iter().any(|e| e.id == BlockId(1)));
        assert!(per_level[0].iter().any(|e| e.id == BlockId(2)));
        assert!(s.is_empty());
    }

    #[test]
    fn eviction_is_deepest_first_and_capacity_bounded() {
        let geo = Geometry::new(3);
        let mut s = Stash::new();
        // Six blocks all mapped to leaf 0; Z = 4 at the deepest level, the
        // remaining two must settle higher up.
        for i in 0..6 {
            s.insert(entry(i, 0));
        }
        let per_level = s.evict_for_path(&geo, Leaf(0), 4);
        assert_eq!(per_level[3].len(), 4);
        assert_eq!(per_level.iter().map(Vec::len).sum::<usize>(), 6);
        assert!(s.is_empty());
    }

    #[test]
    fn eviction_never_places_block_off_its_path() {
        let geo = Geometry::new(4);
        let mut s = Stash::new();
        for i in 0..16 {
            s.insert(entry(i, i % 16));
        }
        let per_level = s.evict_for_path(&geo, Leaf(5), 4);
        for (level, blocks) in per_level.iter().enumerate() {
            let target = geo.bucket_at(Leaf(5), level as u32);
            for b in blocks {
                assert!(
                    geo.on_path(target, b.leaf),
                    "{:?} evicted to bucket off its own path",
                    b.id
                );
            }
        }
    }
}
