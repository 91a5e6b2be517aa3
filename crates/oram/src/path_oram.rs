//! The core Path ORAM algorithm (Stefanov et al., as summarized in §II-C).
//!
//! Every access: (1) look up and remap the block's leaf in the position
//! map, (2) read the whole path root→leaf into the stash, (3) return or
//! update the block, (4) greedily write blocks from the stash back onto
//! the same path. The invariant maintained throughout: a block mapped to
//! leaf `l` is in the stash or on the path from root to `l`.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bucket::{BlockEntry, Bucket};
use crate::geometry::{BucketIdx, Geometry};
use crate::integrity::SealedTree;
use crate::layout::TreeLayout;
use crate::plan::AccessPlan;
use crate::posmap::FlatPosMap;
use crate::stash::Stash;
use crate::types::{BlockId, Leaf, Op, OramConfig, BLOCK_BYTES};
use crate::wear::LevelWear;

/// Statistics kept by a Path ORAM instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Demand accesses served.
    pub accesses: u64,
    /// Background-eviction accesses performed.
    pub background_evictions: u64,
    /// Blocks moved tree→stash.
    pub blocks_fetched: u64,
    /// Blocks moved stash→tree.
    pub blocks_written_back: u64,
}

/// A complete single-tree Path ORAM with position map and stash.
///
/// The tree is stored sparsely: untouched buckets are implicit empties.
/// Payload bytes are carried end-to-end, so functional correctness (you
/// read what you wrote) is testable; the [`AccessPlan`] returned with each
/// access carries the line addresses for the timing simulator.
#[derive(Debug)]
pub struct PathOram {
    cfg: OramConfig,
    geo: Geometry,
    layout: TreeLayout,
    tree: HashMap<BucketIdx, Bucket>,
    /// When present, buckets live encrypted+MACed in this store instead of
    /// the plaintext `tree`; path fetch/write-back goes through the
    /// batched [`SealedTree::load_path`]/[`SealedTree::store_path`] APIs.
    sealed: Option<SealedTree>,
    stash: Stash,
    posmap: FlatPosMap,
    rng: StdRng,
    blocks: u64,
    stats: OramStats,
    /// Per-tree-level line read/write wear (the logical half of the
    /// reliability observatory; the DRAM channel tracks the physical
    /// half per row).
    level_wear: LevelWear,
}

impl PathOram {
    /// Creates an ORAM for `blocks` logical blocks under `cfg`, with the
    /// subtree-packed layout and a deterministic RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `blocks` exceeds half the tree's
    /// capacity (Path ORAM needs slack to keep the stash bounded).
    pub fn new(cfg: OramConfig, blocks: u64, seed: u64) -> Self {
        Self::with_id_space(cfg, blocks, blocks, seed)
    }

    /// Creates an ORAM whose position map covers `id_space` block ids but
    /// which is only expected to hold `expected_resident` blocks at once —
    /// the shape of a per-SDIMM subtree in the Independent protocol, where
    /// the global id space is shared but residency is partitioned.
    ///
    /// # Panics
    ///
    /// Panics if `expected_resident` exceeds half the tree capacity.
    pub fn with_id_space(
        cfg: OramConfig,
        id_space: u64,
        expected_resident: u64,
        seed: u64,
    ) -> Self {
        cfg.validate();
        assert!(
            expected_resident <= cfg.block_capacity() / 2,
            "utilization too high: {expected_resident} resident blocks in a tree holding {}",
            cfg.block_capacity()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let posmap = FlatPosMap::new(id_space, cfg.leaf_count(), &mut rng);
        let layout = TreeLayout::subtree_packed(&cfg, 4);
        PathOram {
            geo: Geometry::from_config(&cfg),
            layout,
            tree: HashMap::new(),
            sealed: None,
            stash: Stash::new(),
            posmap,
            rng,
            blocks: id_space,
            level_wear: LevelWear::new(cfg.levels),
            cfg,
            stats: OramStats::default(),
        }
    }

    /// Switches the tree to sealed (encrypted + MACed) storage keyed from
    /// `master`. From here on, every path fetch verifies and decrypts each
    /// bucket with one batched keystream sweep, and every write-back seals
    /// the whole path through [`SealedTree::store_path`].
    ///
    /// Sealed images are fixed-size (dummies indistinguishable from real
    /// blocks), so payloads shorter than [`BLOCK_BYTES`] come back
    /// zero-padded to full length after their first write-back — callers
    /// on this mode should write full blocks, as the wire layer does.
    ///
    /// # Panics
    ///
    /// Panics if any bucket has already been written in plaintext — enable
    /// sealing right after construction.
    pub fn enable_sealing(&mut self, master: [u8; 16]) {
        assert!(self.tree.is_empty(), "enable sealing before the first access");
        self.sealed = Some(SealedTree::new(self.cfg.z, BLOCK_BYTES, master));
    }

    /// True when buckets are stored sealed rather than in plaintext.
    pub fn is_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// The sealed store, when sealing is enabled. Verification hook: lets
    /// an external auditor read per-bucket PMMAC counters to check
    /// monotonicity without going through a decrypting load.
    pub fn sealed(&self) -> Option<&SealedTree> {
        self.sealed.as_ref()
    }

    /// Replaces the layout (e.g. with [`TreeLayout::rank_localized`]).
    ///
    /// # Panics
    ///
    /// Panics if the layout's geometry disagrees with the configuration.
    pub fn set_layout(&mut self, layout: TreeLayout) {
        assert_eq!(layout.geometry().levels(), self.cfg.levels);
        self.layout = layout;
    }

    /// The configuration in use.
    pub fn config(&self) -> &OramConfig {
        &self.cfg
    }

    /// Block ids the position map covers (`0..blocks()`).
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// The layout in use.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Attaches a cell's trace handle to the stash: every insert records
    /// an occupancy tick tagged with `backend`, so black-box dumps show
    /// the stash trajectory before a bound breach.
    pub fn set_trace(&mut self, trace: sdimm_telemetry::CellTrace, backend: u8) {
        self.stash.set_trace(trace, backend);
    }

    /// Peak stash occupancy.
    pub fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// The stash's post-insert occupancy distribution.
    pub fn stash_occupancy_hist(&self) -> &sdimm_telemetry::LatencyHistogram {
        self.stash.occupancy_hist()
    }

    /// Access statistics.
    pub fn stats(&self) -> OramStats {
        self.stats
    }

    /// Exports access counters and stash occupancy as a metrics registry
    /// (`accesses`, `stash_peak`, the `stash_occupancy` histogram, ...);
    /// callers absorb it under a per-instance prefix.
    pub fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        let mut m = sdimm_telemetry::MetricsRegistry::new();
        m.counter_add("accesses", self.stats.accesses);
        m.counter_add("background_evictions", self.stats.background_evictions);
        m.counter_add("blocks_fetched", self.stats.blocks_fetched);
        m.counter_add("blocks_written_back", self.stats.blocks_written_back);
        m.gauge_set("stash_len", self.stash.len() as f64);
        m.gauge_max("stash_peak", self.stash.peak() as f64);
        m.histogram_set("stash_occupancy", self.stash.occupancy_hist().clone());
        m.absorb("wear", &self.level_wear.to_metrics());
        m
    }

    /// Per-level wear counters (the logical view the observatory pairs
    /// with the DRAM tracker's physical per-row view).
    pub fn level_wear(&self) -> &LevelWear {
        &self.level_wear
    }

    /// Records one full path's read+write-back into the level-wear
    /// counters — called wherever a plan's `lines`
    /// are built, so logical wear always mirrors the planned traffic.
    fn record_path_wear(&mut self) {
        self.level_wear.record_path(
            self.layout.cached_levels(),
            self.geo.levels(),
            self.layout.lines_per_bucket() as u64,
        );
    }

    /// Current leaf of a block (test/verification hook; a real controller
    /// would never expose this).
    pub fn leaf_of(&self, id: BlockId) -> Leaf {
        self.posmap.get(id)
    }

    /// The `accessORAM(a, op, d')` interface: reads or writes block `id`,
    /// returning the block's (previous) contents and the traffic plan.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn access(
        &mut self,
        id: BlockId,
        op: Op,
        new_data: Option<&[u8]>,
    ) -> (Vec<u8>, AccessPlan) {
        assert!(id.0 < self.blocks, "block {id} out of range");
        // lint: declassify(Path ORAM invariant: the remap precedes the path read, so the old leaf is disclosed to memory exactly once per access and is independent of the block's future position)
        let (revealed_leaf, _new_leaf) = self.posmap.get_and_remap(id, &mut self.rng);
        let (data, plan) = self.access_on_path(id, op, new_data, revealed_leaf);
        self.stats.accesses += 1;
        (data, plan)
    }

    /// Variant used by the Independent-protocol SDIMM: the new leaf is
    /// chosen by the caller. When `keep_local` is true, `new_leaf` must be
    /// a leaf of **this** tree and the block stays resident; when false,
    /// the new leaf belongs to a different SDIMM's subtree, so the block
    /// is pulled out (before write-back, exactly as the protocol keeps it
    /// out of the local tree) and returned for transfer.
    pub fn access_with_remap(
        &mut self,
        id: BlockId,
        op: Op,
        new_data: Option<&[u8]>,
        new_leaf: Leaf,
        keep_local: bool,
    ) -> (Vec<u8>, Option<BlockEntry>, AccessPlan) {
        assert!(id.0 < self.blocks, "block {id} out of range");
        // lint: declassify(the caller-supplied remap is recorded before the path write-back, so this old leaf is disclosed to memory exactly once and never correlates with the block's next access)
        let revealed_leaf = self.posmap.get(id);
        let lines = self.layout.path_lines(revealed_leaf);
        self.record_path_wear();
        self.fetch_path(revealed_leaf);
        let data = self.serve(id, op, new_data);
        let moved = if keep_local {
            self.posmap.set(id, new_leaf);
            if let Some(e) = self.stash.get_mut(id) {
                e.leaf = new_leaf;
            }
            None
        } else {
            // Foreign leaf: never let it into the local posmap/evictor.
            self.stash.remove(id).map(|mut e| {
                e.leaf = new_leaf;
                e
            })
        };
        self.evict_path(revealed_leaf);
        self.stats.accesses += 1;
        let plan = AccessPlan { leaf: revealed_leaf, lines };
        (data, moved, plan)
    }

    /// Inserts a block arriving from outside (an `APPEND` in the
    /// Independent protocol). The caller must have set the posmap/leaf.
    pub fn append(&mut self, entry: BlockEntry) {
        self.posmap.set(entry.id, entry.leaf);
        self.stash.insert(entry);
    }

    /// Performs one path read + write-back for `id` along the already
    /// revealed (post-remap) leaf.
    fn access_on_path(
        &mut self,
        id: BlockId,
        op: Op,
        new_data: Option<&[u8]>,
        revealed_leaf: Leaf,
    ) -> (Vec<u8>, AccessPlan) {
        let lines = self.layout.path_lines(revealed_leaf);
        self.record_path_wear();
        self.fetch_path(revealed_leaf);
        let data = self.serve(id, op, new_data);
        self.evict_path(revealed_leaf);
        let plan = AccessPlan { leaf: revealed_leaf, lines };
        (data, plan)
    }

    /// Step 2: fetch every bucket on the path into the stash, refreshing
    /// each resident copy's leaf from the posmap (the requested block's
    /// remap may already be recorded there).
    fn fetch_path(&mut self, revealed_leaf: Leaf) {
        self.drain_path_into_stash(revealed_leaf, true, true);
    }

    /// Moves every block on the path into the stash. In sealed mode the
    /// whole path is verified and decrypted up front via
    /// [`SealedTree::load_path`] — one batched keystream sweep per
    /// resident bucket instead of a block-cipher call per 16-byte lane.
    ///
    /// `refresh_leaves`/`count_fetches` preserve the differing semantics
    /// of demand fetches (both true) and background evictions (both
    /// false): dummy accesses touch neither the posmap nor the
    /// demand-traffic statistics.
    fn drain_path_into_stash(
        &mut self,
        revealed_leaf: Leaf,
        refresh_leaves: bool,
        count_fetches: bool,
    ) {
        if let Some(sealed) = &self.sealed {
            let idxs: Vec<BucketIdx> =
                (0..=self.geo.levels()).map(|l| self.geo.bucket_at(revealed_leaf, l)).collect();
            // lint: panic-ok(invariant: sealed bucket failed verification)
            let loaded = sealed.load_path(&idxs).expect("sealed bucket failed verification");
            for mut bucket in loaded.into_iter().flatten() {
                for mut e in bucket.drain() {
                    if count_fetches {
                        self.stats.blocks_fetched += 1;
                    }
                    if refresh_leaves {
                        e.leaf = self.posmap.get(e.id);
                    }
                    self.stash.insert(e);
                }
            }
        } else {
            for level in 0..=self.geo.levels() {
                let b = self.geo.bucket_at(revealed_leaf, level);
                if let Some(bucket) = self.tree.get_mut(&b) {
                    for mut e in bucket.drain() {
                        if count_fetches {
                            self.stats.blocks_fetched += 1;
                        }
                        if refresh_leaves {
                            e.leaf = self.posmap.get(e.id);
                        }
                        self.stash.insert(e);
                    }
                }
            }
        }
    }

    /// Step 3: serve the operation out of the stash, materializing
    /// never-written blocks as zero-filled. Returns the block's contents
    /// after the operation.
    fn serve(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> Vec<u8> {
        if let Some(e) = self.stash.get_mut(id) {
            e.leaf = self.posmap.get(id);
            if op == Op::Write {
                e.data = new_data.unwrap_or_default().to_vec();
            }
            e.data.clone()
        } else {
            let data = match op {
                Op::Write => new_data.unwrap_or_default().to_vec(),
                Op::Read => vec![0; BLOCK_BYTES],
            };
            self.stash.insert(BlockEntry { id, leaf: self.posmap.get(id), data: data.clone() });
            data
        }
    }

    /// Step 4: greedy write-back onto the path.
    fn evict_path(&mut self, revealed_leaf: Leaf) {
        self.writeback_path(revealed_leaf, true);
    }

    /// Greedily writes stash blocks back onto the path. Background
    /// evictions pass `count_writebacks = false`: dummy-access traffic is
    /// accounted separately from demand write-backs.
    ///
    /// In sealed mode every level is re-sealed — even levels that ended up
    /// empty — because the fetched images were consumed; leaving a stale
    /// sealed copy behind would resurrect its blocks on the next fetch
    /// (and trip the replay check). The whole path goes through one
    /// [`SealedTree::store_path`] call so the serialization scratch buffer
    /// is reused and each bucket is one batched keystream sweep.
    fn writeback_path(&mut self, revealed_leaf: Leaf, count_writebacks: bool) {
        let per_level = self.stash.evict_for_path(&self.geo, revealed_leaf, self.cfg.z);
        if let Some(sealed) = &mut self.sealed {
            let mut path: Vec<(BucketIdx, Bucket)> = Vec::with_capacity(per_level.len());
            for (level, blocks) in per_level.into_iter().enumerate() {
                let bidx = self.geo.bucket_at(revealed_leaf, level as u32);
                let mut bucket = Bucket::new(self.cfg.z);
                for e in blocks {
                    if count_writebacks {
                        self.stats.blocks_written_back += 1;
                    }
                    // lint: panic-ok(invariant: evict_for_path respects Z)
                    bucket.insert(e).expect("evict_for_path respects Z");
                }
                path.push((bidx, bucket));
            }
            let refs: Vec<(BucketIdx, &Bucket)> = path.iter().map(|(i, b)| (*i, b)).collect();
            sealed.store_path(&refs);
        } else {
            for (level, blocks) in per_level.into_iter().enumerate() {
                if blocks.is_empty() {
                    continue;
                }
                let bidx = self.geo.bucket_at(revealed_leaf, level as u32);
                let bucket = self.tree.entry(bidx).or_insert_with(|| Bucket::new(self.cfg.z));
                for e in blocks {
                    if count_writebacks {
                        self.stats.blocks_written_back += 1;
                    }
                    // lint: panic-ok(invariant: evict_for_path respects Z)
                    bucket.insert(e).expect("evict_for_path respects Z");
                }
            }
        }
    }

    /// Performs a background eviction (a dummy access to a random path),
    /// as proposed by Ren et al. for stash pressure. Returns its plan.
    pub fn background_evict(&mut self) -> AccessPlan {
        // A dummy path is drawn fresh and uniformly: public by construction.
        let revealed_leaf = Leaf(self.rng.gen_range(0..self.cfg.leaf_count()));
        let lines = self.layout.path_lines(revealed_leaf);
        self.record_path_wear();
        self.drain_path_into_stash(revealed_leaf, false, false);
        self.writeback_path(revealed_leaf, false);
        self.stats.background_evictions += 1;
        AccessPlan { leaf: revealed_leaf, lines }
    }

    /// Whether the stash exceeds its configured limit (the controller
    /// should schedule background evictions).
    pub fn needs_background_evict(&self) -> bool {
        self.stash.len() > self.cfg.stash_limit
    }

    /// Verifies the Path ORAM invariant for every block: it must be in
    /// the stash or in a bucket on the path to its mapped leaf, and no
    /// block may appear twice. Test/debug hook; O(tree size).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn check_invariant(&self) {
        let mut seen: HashMap<BlockId, &'static str> = HashMap::new();
        for e in self.stash.iter() {
            if seen.insert(e.id, "stash").is_some() {
                panic!("{} present twice (stash duplicate)", e.id);
            }
        }
        for (bidx, bucket) in &self.tree {
            for e in bucket.iter() {
                if let Some(prev) = seen.insert(e.id, "tree") {
                    panic!("{} present in tree and {prev}", e.id);
                }
                let mapped = self.posmap.get(e.id);
                assert!(
                    self.geo.on_path(*bidx, mapped),
                    "{} sits in bucket {bidx:?} off its path to {mapped}",
                    e.id
                );
                assert_eq!(e.leaf, mapped, "{} carries stale leaf", e.id);
            }
        }
        if let Some(sealed) = &self.sealed {
            for bidx in sealed.indices() {
                let bucket = sealed
                    .load(bidx)
                    // lint: panic-ok(invariant: invariant: sealed bucket verifies)
                    .expect("invariant: sealed bucket verifies")
                    // lint: panic-ok(invariant: indices[] only yields residents)
                    .expect("indices() only yields residents");
                for e in bucket.iter() {
                    if let Some(prev) = seen.insert(e.id, "sealed tree") {
                        panic!("{} present in sealed tree and {prev}", e.id);
                    }
                    let mapped = self.posmap.get(e.id);
                    assert!(
                        self.geo.on_path(bidx, mapped),
                        "{} sits in sealed bucket {bidx:?} off its path to {mapped}",
                        e.id
                    );
                    assert_eq!(e.leaf, mapped, "{} carries stale leaf", e.id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oram() -> PathOram {
        PathOram::new(OramConfig::tiny(), 100, 42)
    }

    #[test]
    fn read_your_writes() {
        let mut o = oram();
        let payload = vec![7u8; 64];
        o.access(BlockId(5), Op::Write, Some(&payload));
        let (got, _) = o.access(BlockId(5), Op::Read, None);
        assert_eq!(got, payload);
    }

    #[test]
    fn writes_to_distinct_blocks_do_not_interfere() {
        let mut o = oram();
        for i in 0..50u64 {
            o.access(BlockId(i), Op::Write, Some(&[i as u8; 8]));
        }
        for i in 0..50u64 {
            let (got, _) = o.access(BlockId(i), Op::Read, None);
            assert_eq!(got, vec![i as u8; 8], "block {i} corrupted");
        }
    }

    #[test]
    fn uninitialized_read_returns_zeroes() {
        let mut o = oram();
        let (got, _) = o.access(BlockId(9), Op::Read, None);
        assert_eq!(got, vec![0u8; 64]);
    }

    #[test]
    fn access_remaps_leaf() {
        let mut o = oram();
        o.access(BlockId(1), Op::Write, Some(&[1]));
        let leaves: Vec<Leaf> = (0..20)
            .map(|_| {
                o.access(BlockId(1), Op::Read, None);
                o.leaf_of(BlockId(1))
            })
            .collect();
        let distinct: std::collections::HashSet<_> = leaves.iter().collect();
        assert!(distinct.len() > 5, "leaf must be re-randomized per access");
    }

    #[test]
    fn plan_reads_and_writes_whole_path() {
        let mut o = oram();
        let (_, plan) = o.access(BlockId(0), Op::Read, None);
        let expected = o.config().lines_per_access();
        assert_eq!(plan.total_lines(), expected);
    }

    #[test]
    fn invariant_holds_under_random_workload() {
        let mut o = oram();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..500 {
            let id = BlockId(rng.gen_range(0..100));
            if rng.gen_bool(0.5) {
                o.access(id, Op::Write, Some(&[step as u8]));
            } else {
                o.access(id, Op::Read, None);
            }
            if step % 50 == 0 {
                o.check_invariant();
            }
        }
        o.check_invariant();
    }

    #[test]
    fn stash_stays_bounded_under_load() {
        let mut o = oram();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2000 {
            let id = BlockId(rng.gen_range(0..100));
            o.access(id, Op::Read, None);
            if o.needs_background_evict() {
                o.background_evict();
            }
        }
        assert!(
            o.stash_peak()
                <= o.config().stash_limit + o.config().z * (o.config().levels as usize + 1),
            "stash peak {} looks unbounded",
            o.stash_peak()
        );
    }

    #[test]
    fn background_evict_reduces_or_holds_stash() {
        let mut o = oram();
        for i in 0..100u64 {
            o.access(BlockId(i), Op::Write, Some(&[0]));
        }
        let before = o.stash_len();
        o.background_evict();
        assert!(o.stash_len() <= before, "eviction must not grow the stash net of fetches");
        o.check_invariant();
    }

    #[test]
    fn stats_count_accesses() {
        let mut o = oram();
        o.access(BlockId(0), Op::Read, None);
        o.access(BlockId(1), Op::Write, Some(&[1]));
        o.background_evict();
        let s = o.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.background_evictions, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let mut o = oram();
        o.access(BlockId(100), Op::Read, None);
    }

    #[test]
    #[should_panic(expected = "utilization too high")]
    fn overfull_tree_rejected() {
        let cfg = OramConfig::tiny();
        let cap = cfg.block_capacity();
        let _ = PathOram::new(cfg, cap, 1);
    }

    fn sealed_oram() -> PathOram {
        let mut o = oram();
        o.enable_sealing([0x42; 16]);
        o
    }

    #[test]
    fn sealed_mode_read_your_writes() {
        let mut o = sealed_oram();
        assert!(o.is_sealed());
        // Full-size payloads: sealed images are fixed-size, so short
        // writes would come back zero-padded (see enable_sealing docs).
        let bytes = BLOCK_BYTES;
        for i in 0..30u64 {
            o.access(BlockId(i), Op::Write, Some(&vec![i as u8; bytes]));
        }
        for i in 0..30u64 {
            let (got, _) = o.access(BlockId(i), Op::Read, None);
            assert_eq!(got, vec![i as u8; bytes], "sealed block {i} corrupted");
        }
        o.check_invariant();
    }

    #[test]
    fn sealed_mode_matches_plaintext_results_and_stats() {
        // Sealing is pure at-rest transformation: served data, plans, and
        // stats must be identical to the plaintext tree under the same
        // seed and workload.
        let mut plain = oram();
        let mut sealed = sealed_oram();
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..300 {
            let id = BlockId(rng.gen_range(0..100));
            let payload = vec![step as u8; BLOCK_BYTES];
            let (a, pa) = if step % 3 == 0 {
                plain.access(id, Op::Write, Some(&payload))
            } else {
                plain.access(id, Op::Read, None)
            };
            let (b, pb) = if step % 3 == 0 {
                sealed.access(id, Op::Write, Some(&payload))
            } else {
                sealed.access(id, Op::Read, None)
            };
            assert_eq!(a, b, "data diverged at step {step}");
            assert_eq!(pa.leaf, pb.leaf, "leaf choice diverged at step {step}");
            if plain.needs_background_evict() {
                plain.background_evict();
                sealed.background_evict();
            }
        }
        assert_eq!(plain.stats(), sealed.stats());
        assert_eq!(plain.stash_len(), sealed.stash_len());
        sealed.check_invariant();
    }

    #[test]
    fn sealed_mode_background_evict_keeps_invariant() {
        let mut o = sealed_oram();
        for i in 0..80u64 {
            o.access(BlockId(i), Op::Write, Some(&[1u8; 8]));
        }
        let before = o.stash_len();
        o.background_evict();
        assert!(o.stash_len() <= before);
        o.check_invariant();
    }

    #[test]
    #[should_panic(expected = "before the first access")]
    fn enable_sealing_after_plaintext_writes_panics() {
        let mut o = oram();
        o.access(BlockId(0), Op::Write, Some(&[1]));
        o.enable_sealing([0; 16]);
    }

    #[test]
    fn append_after_foreign_remap_roundtrips() {
        // Simulates the Independent protocol's block migration: remove
        // from one ORAM, append to another.
        let mut a = PathOram::new(OramConfig::tiny(), 64, 1);
        let mut b = PathOram::new(OramConfig::tiny(), 64, 2);
        a.access(BlockId(3), Op::Write, Some(&[0xAB; 16]));
        let (data, moved, _) = a.access_with_remap(BlockId(3), Op::Read, None, Leaf(5), false);
        assert_eq!(data, vec![0xAB; 16], "served data must match regardless of migration");
        let mut moved = moved.expect("block leaves ORAM A");
        moved.leaf = Leaf(5);
        b.append(moved);
        let (got, _) = b.access(BlockId(3), Op::Read, None);
        assert_eq!(got, vec![0xAB; 16]);
        // A never-written block is served zero-filled into the stash, so
        // it always leaves too, carrying the new leaf and the served data.
        let (served, fresh, _) = a.access_with_remap(BlockId(9), Op::Read, None, Leaf(6), false);
        let fresh = fresh.expect("a never-written block leaves ORAM A");
        assert_eq!((fresh.id, fresh.leaf), (BlockId(9), Leaf(6)));
        assert_eq!(served, vec![0; BLOCK_BYTES]);
        assert_eq!(fresh.data, served);
        a.check_invariant();
        b.check_invariant();
    }
}
