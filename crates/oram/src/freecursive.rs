//! Freecursive ORAM (§II-D): recursive position maps with a PLB.
//!
//! The data ORAM (ORAM₀) stores program blocks. Its position map is too
//! large for the chip, so it is stored as blocks of ORAM₁; ORAM₁'s map in
//! ORAM₂; and so on, until the map fits on chip (Table II: five recursive
//! PosMaps). All levels share **one physical tree** (the unified design
//! Fletcher et al. advocate to avoid leakage between trees).
//!
//! Per CPU request, the frontend probes the PLB from level 1 upward; the
//! first hit (or the on-chip map) terminates the search, and one
//! `accessORAM` is issued per level walked, deepest (highest level)
//! first. Fetched posmap blocks enter the PLB; dirty PLB victims cost an
//! extra write-back access. The paper measures ≈1.4 `accessORAM`s per
//! last-level-cache miss with this arrangement.
//!
//! That walk lives in one place, [`Frontend`], which plans the
//! `accessORAM`s; every simulated ORAM machine runs its plans over its
//! own backend (`sdimm::Protocol`).

use crate::plb::{Plb, PlbKey, PlbStats};
use crate::types::{BlockId, Op, MAX_RECURSION, POSMAP_ENTRIES_PER_BLOCK};

/// Block-id space partitioning inside the unified tree: each recursion
/// level owns a contiguous id region.
#[derive(Debug, Clone)]
pub struct IdSpace {
    /// `region[i]` = first block id of recursion level `i` (level 0 =
    /// data). One extra terminal entry marks the end.
    bounds: Vec<u64>,
}

impl IdSpace {
    /// Computes level regions for `data_blocks` data blocks, shrinking
    /// by [`POSMAP_ENTRIES_PER_BLOCK`] per level for at most
    /// [`MAX_RECURSION`] levels.
    pub fn new(data_blocks: u64) -> Self {
        let mut bounds = vec![0u64];
        let mut level_blocks = data_blocks;
        let mut base = 0u64;
        for _ in 0..=MAX_RECURSION {
            base += level_blocks;
            bounds.push(base);
            level_blocks = level_blocks.div_ceil(POSMAP_ENTRIES_PER_BLOCK);
            if level_blocks <= 1 {
                break;
            }
        }
        IdSpace { bounds }
    }

    /// Number of recursion levels that live in memory (levels ≥ 1 whose
    /// blocks are ORAM-resident). Level counts: data level plus this.
    pub fn memory_levels(&self) -> usize {
        self.bounds.len() - 2
    }

    /// Total blocks across all in-memory levels.
    pub fn total_blocks(&self) -> u64 {
        // lint: panic-ok(invariant: non-empty)
        *self.bounds.last().expect("non-empty")
    }

    /// Blocks at recursion `level`.
    pub fn level_blocks(&self, level: usize) -> u64 {
        self.bounds[level + 1] - self.bounds[level]
    }

    /// Global block id of `index`-th block at `level`.
    ///
    /// # Panics
    ///
    /// Panics if the level or index is out of range.
    pub fn block_id(&self, level: usize, index: u64) -> BlockId {
        assert!(level + 1 < self.bounds.len(), "recursion level {level} out of range");
        assert!(index < self.level_blocks(level), "index {index} out of range at level {level}");
        BlockId(self.bounds[level] + index)
    }
}

/// One `accessORAM` the frontend wants executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Global block id within the unified tree's id space.
    pub id: BlockId,
    /// Operation to perform.
    pub op: Op,
    /// True for position-map traffic (fetch or write-back), false for the
    /// demand access carrying CPU data.
    pub is_posmap: bool,
}

/// Counters describing frontend behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreecursiveStats {
    /// CPU (LLC-miss) requests served.
    pub requests: u64,
    /// Total `accessORAM` operations planned (demand + posmap + PLB
    /// write-backs).
    pub accesses: u64,
    /// Accesses issued only to fetch position-map blocks.
    pub posmap_accesses: u64,
    /// Write-back accesses for dirty PLB evictions.
    pub plb_writebacks: u64,
}

impl FreecursiveStats {
    /// Mean `accessORAM`s per request (the paper's ≈1.4).
    pub fn accesses_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.accesses as f64 / self.requests as f64
        }
    }
}

/// The CPU-side Freecursive frontend: PLB + recursion planner.
///
/// It decides which `accessORAM`s each CPU request needs and leaves their
/// execution to a backend: the baselines' unified Path ORAM, or the
/// distributed SDIMM backends, where the frontend stays on the CPU
/// (§III-C: "the CPU manages the frontend of ORAM while SDIMMs accelerate
/// the backend").
#[derive(Debug)]
pub struct Frontend {
    plb: Plb,
    ids: IdSpace,
    stats: FreecursiveStats,
}

impl Frontend {
    /// Builds a frontend for `data_blocks` data blocks.
    pub fn new(data_blocks: u64) -> Self {
        Frontend {
            plb: Plb::table2(),
            ids: IdSpace::new(data_blocks),
            stats: FreecursiveStats::default(),
        }
    }

    /// Replaces the PLB (for size-sweep ablations).
    pub fn set_plb(&mut self, plb: Plb) {
        self.plb = plb;
    }

    /// The unified-tree id space (total block count etc.).
    pub fn id_space(&self) -> &IdSpace {
        &self.ids
    }

    /// Frontend statistics so far.
    pub fn stats(&self) -> FreecursiveStats {
        self.stats
    }

    /// PLB statistics so far.
    pub fn plb_stats(&self) -> PlbStats {
        self.plb.stats()
    }

    fn nth_parent(&self, index: u64, n: usize) -> u64 {
        let mut idx = index;
        for _ in 0..n {
            idx /= POSMAP_ENTRIES_PER_BLOCK;
        }
        idx
    }

    /// Plans the `accessORAM` sequence for a CPU request on data block
    /// `index`, in issue order: position-map fetches deepest recursion
    /// level first, each followed by the write-back of the dirty PLB
    /// victim its insertion evicts (if any), then the demand access.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid data block.
    pub fn plan_request(&mut self, index: u64, op: Op) -> Vec<PlannedAccess> {
        assert!(index < self.ids.level_blocks(0), "data block {index} out of range");
        self.stats.requests += 1;
        let mut out = Vec::new();

        // Walk the PLB from level 1 upward until a hit or the on-chip map.
        let memory_levels = self.ids.memory_levels();
        let mut walk_to = memory_levels;
        let mut idx = index;
        for level in 1..=memory_levels {
            idx /= POSMAP_ENTRIES_PER_BLOCK;
            if self.plb.lookup(PlbKey { level: level as u8, index: idx }) {
                walk_to = level - 1;
                break;
            }
        }

        let mut level = walk_to;
        while level >= 1 {
            let pm_index = self.nth_parent(index, level);
            out.push(PlannedAccess {
                id: self.ids.block_id(level, pm_index),
                op: Op::Read,
                is_posmap: true,
            });
            self.stats.posmap_accesses += 1;
            // Fetching a posmap block remaps it, dirtying its parent
            // (which is a PLB hit or on-chip by construction).
            if level < memory_levels {
                self.plb.mark_dirty(PlbKey {
                    level: level as u8 + 1,
                    index: pm_index / POSMAP_ENTRIES_PER_BLOCK,
                });
            }
            if let Some((victim, dirty)) =
                self.plb.insert(PlbKey { level: level as u8, index: pm_index }, true)
            {
                if dirty {
                    out.push(PlannedAccess {
                        id: self.ids.block_id(victim.level as usize, victim.index),
                        op: Op::Write,
                        is_posmap: true,
                    });
                    self.stats.plb_writebacks += 1;
                }
            }
            level -= 1;
        }

        // The remap of the data block dirties its level-1 posmap block.
        if memory_levels >= 1 {
            self.plb.mark_dirty(PlbKey { level: 1, index: self.nth_parent(index, 1) });
        }

        out.push(PlannedAccess { id: self.ids.block_id(0, index), op, is_posmap: false });
        self.stats.accesses += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_oram::PathOram;
    use crate::types::OramConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn frontend() -> Frontend {
        Frontend::new(8192)
    }

    /// Serves one CPU request the way a machine does: `f`'s plan on one
    /// unified tree, position-map accesses with empty payloads and the
    /// demand access with `data`. Returns the demand access's bytes.
    fn request(
        f: &mut Frontend,
        tree: &mut PathOram,
        index: u64,
        op: Op,
        data: Option<&[u8]>,
    ) -> Vec<u8> {
        let mut got = Vec::new();
        for p in f.plan_request(index, op) {
            let (bytes, _) = tree.access(p.id, p.op, if p.is_posmap { Some(&[]) } else { data });
            if !p.is_posmap {
                got = bytes;
            }
        }
        got
    }

    /// A frontend over `data_blocks` data blocks and a 10-level unified
    /// tree holding them with their position maps.
    fn unified(data_blocks: u64, seed: u64) -> (Frontend, PathOram) {
        let f = Frontend::new(data_blocks);
        let cfg = OramConfig { levels: 10, stash_limit: 100, ..OramConfig::default() };
        let tree = PathOram::new(cfg, f.id_space().total_blocks(), seed);
        (f, tree)
    }

    #[test]
    fn id_space_levels_shrink_by_fanout() {
        let ids = IdSpace::new(4096);
        assert_eq!(ids.level_blocks(0), 4096);
        assert_eq!(ids.level_blocks(1), 256);
        assert_eq!(ids.level_blocks(2), 16);
        assert_eq!(ids.memory_levels(), 2, "level 3 would be a single block: on-chip");
        assert_eq!(ids.total_blocks(), 4096 + 256 + 16);
    }

    #[test]
    fn id_space_regions_do_not_overlap() {
        let ids = IdSpace::new(1000);
        let a = ids.block_id(0, 999);
        let b = ids.block_id(1, 0);
        assert!(a < b);
    }

    #[test]
    fn read_your_writes_through_recursion() {
        let (mut f, mut tree) = unified(2048, 11);
        request(&mut f, &mut tree, 100, Op::Write, Some(&[0xCD; 32]));
        assert_eq!(request(&mut f, &mut tree, 100, Op::Read, None), vec![0xCD; 32]);
    }

    #[test]
    fn many_blocks_roundtrip() {
        // Position-map write-backs carry no payload, so they must never
        // land on a data block's id.
        let (mut f, mut tree) = unified(2048, 12);
        for i in (0..2048u64).step_by(97) {
            request(&mut f, &mut tree, i, Op::Write, Some(&[(i % 251) as u8; 8]));
        }
        for i in (0..2048u64).step_by(97) {
            let got = request(&mut f, &mut tree, i, Op::Read, None);
            assert_eq!(got, vec![(i % 251) as u8; 8], "block {i}");
        }
        tree.check_invariant();
    }

    #[test]
    fn plb_hit_rate_positive_with_locality() {
        let mut f = Frontend::new(4096);
        for i in 0..200u64 {
            f.plan_request(i % 64, Op::Read);
        }
        assert!(f.plb_stats().hit_rate() > 0.5, "locality should hit the PLB");
    }

    #[test]
    fn invariant_holds_after_mixed_workload() {
        let (mut f, mut tree) = unified(2048, 16);
        let mut rng = StdRng::seed_from_u64(6);
        for step in 0..300 {
            let idx = rng.gen_range(0..2048);
            if rng.gen_bool(0.3) {
                request(&mut f, &mut tree, idx, Op::Write, Some(&[step as u8]));
            } else {
                request(&mut f, &mut tree, idx, Op::Read, None);
            }
        }
        tree.check_invariant();
    }

    #[test]
    fn cold_request_walks_every_memory_level() {
        let mut f = frontend();
        let plan = f.plan_request(0, Op::Read);
        // 8192 data blocks, fan-out 16 ⇒ levels of 512 and 32 posmap
        // blocks (level of 2 is ≤... recursion stops when ≤1 block).
        let memory_levels = f.id_space().memory_levels();
        assert_eq!(plan.len(), memory_levels + 1);
        assert!(plan.last().map(|p| !p.is_posmap).unwrap_or(false));
        // Deepest level first.
        assert!(plan[0].id > plan[1].id);
    }

    #[test]
    fn warm_request_needs_single_access() {
        let mut f = frontend();
        f.plan_request(100, Op::Read);
        let plan = f.plan_request(100, Op::Write);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].op, Op::Write);
        assert!(!plan[0].is_posmap);
    }

    #[test]
    fn neighbor_blocks_share_posmap_blocks() {
        let mut f = frontend();
        f.plan_request(0, Op::Read);
        // Block 1 shares block 0's level-1 posmap block (fan-out 16).
        let plan = f.plan_request(1, Op::Read);
        assert_eq!(plan.len(), 1, "PLB hit expected for neighbor");
    }

    #[test]
    fn accesses_per_request_in_expected_band() {
        let mut f = frontend();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let region = rng.gen_range(0..16u64) * 512;
            f.plan_request(region + rng.gen_range(0..128u64), Op::Read);
        }
        let apr = f.stats().accesses_per_request();
        assert!(apr > 1.0 && apr < 2.0, "≈1.4 expected, got {apr}");
    }

    #[test]
    fn stats_add_up() {
        let mut f = frontend();
        let plan = f.plan_request(7, Op::Read);
        let s = f.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.accesses, plan.len() as u64);
        assert_eq!(s.posmap_accesses + s.plb_writebacks + 1, s.accesses);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        frontend().plan_request(8192, Op::Read);
    }
}
