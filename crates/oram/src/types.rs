//! Core identifiers and configuration for the ORAM layer.
//!
//! [`OramConfig`] holds the tree parameters runs vary (depth, Z, cached
//! levels, stash limit). The values the paper fixes are constants: the
//! 64-byte block ([`BLOCK_BYTES`]), 16 position-map entries per block
//! and five recursive position maps (Table II).

use std::fmt;

/// Logical identifier of a data or position-map block (the "physical
/// address `a`" in the paper's `accessORAM(a, op, d')` interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// A leaf identifier in `0..2^L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Leaf(pub u64);

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leaf{}", self.0)
    }
}

/// Operation requested through the `accessORAM` interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Fetch the block's current contents.
    Read,
    /// Replace the block's contents.
    Write,
}

/// Data block / cache line size in bytes (Table II: 64).
pub const BLOCK_BYTES: usize = 64;

/// Position-map entries per 64-byte position-map block (recursion
/// fan-out; 16 four-byte leaf entries per block).
pub const POSMAP_ENTRIES_PER_BLOCK: u64 = 16;

/// Maximum recursion depth for Freecursive position maps (Table II: 5).
pub const MAX_RECURSION: usize = 5;

/// Static parameters of one Path ORAM tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OramConfig {
    /// Tree depth: root at level 0, leaves at level `levels`, so there are
    /// `2^levels` leaves and `levels + 1` bucket levels.
    pub levels: u32,
    /// Blocks per bucket (Table II: Z = 4).
    pub z: usize,
    /// Number of top tree levels cached in the controller's on-chip ORAM
    /// cache (Fig 6/8/9 evaluate 0 and 7). Cached levels generate no
    /// memory traffic.
    pub cached_levels: u32,
    /// Stash capacity in blocks before background eviction kicks in
    /// (the paper cites ~200 entries).
    pub stash_limit: usize,
}

impl Default for OramConfig {
    fn default() -> Self {
        OramConfig { levels: 20, z: 4, cached_levels: 0, stash_limit: 200 }
    }
}

impl OramConfig {
    /// A small tree for unit tests (fast, still exercises all paths).
    pub fn tiny() -> Self {
        OramConfig { levels: 6, stash_limit: 64, ..OramConfig::default() }
    }

    /// Number of leaves (`2^levels`).
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.levels
    }

    /// Total bucket count (`2^(levels+1) - 1`).
    pub fn bucket_count(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Cache lines occupied by one bucket: Z data blocks plus one line of
    /// metadata (tags, leaf IDs, shared counter, MAC) — the `(Z + 1)` in
    /// the paper's `2(Z+1)L` per-access traffic formula.
    pub fn lines_per_bucket(&self) -> usize {
        self.z + 1
    }

    /// Memory lines touched by one uncached `accessORAM` (read + write of
    /// every bucket line on the path below the cached levels).
    pub fn lines_per_access(&self) -> usize {
        let levels_in_memory = (self.levels + 1 - self.cached_levels) as usize;
        2 * self.lines_per_bucket() * levels_in_memory
    }

    /// Blocks the tree can hold at 100% utilization.
    pub fn block_capacity(&self) -> u64 {
        self.bucket_count() * self.z as u64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unusable (zero Z, cached levels
    /// exceeding the tree, etc.). Called by constructors.
    pub fn validate(&self) {
        assert!(self.z >= 1, "Z must be at least 1");
        assert!(self.levels >= 1 && self.levels <= 40, "levels out of range");
        assert!(self.cached_levels <= self.levels, "cannot cache more levels than the tree has");
        assert!(self.stash_limit >= self.z, "stash must hold at least one bucket");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        OramConfig::default().validate();
        OramConfig::tiny().validate();
    }

    #[test]
    fn counts_match_geometry() {
        let c = OramConfig { levels: 3, ..OramConfig::default() };
        assert_eq!(c.leaf_count(), 8);
        assert_eq!(c.bucket_count(), 15);
        assert_eq!(c.block_capacity(), 60);
    }

    #[test]
    fn lines_per_access_matches_paper_formula() {
        // 2(Z+1)L with L = levels-in-memory (tree levels + 1 - cached).
        let c = OramConfig { levels: 27, cached_levels: 7, ..OramConfig::default() };
        assert_eq!(c.lines_per_access(), 2 * 5 * 21);
    }

    #[test]
    fn cached_levels_reduce_traffic() {
        let base = OramConfig { levels: 20, cached_levels: 0, ..OramConfig::default() };
        let cached = OramConfig { levels: 20, cached_levels: 7, ..OramConfig::default() };
        assert!(cached.lines_per_access() < base.lines_per_access());
    }

    #[test]
    #[should_panic(expected = "cannot cache more levels")]
    fn overcaching_rejected() {
        OramConfig { levels: 4, cached_levels: 5, ..OramConfig::default() }.validate();
    }

    #[test]
    fn display_forms() {
        assert_eq!(BlockId(7).to_string(), "blk7");
        assert_eq!(Leaf(3).to_string(), "leaf3");
    }
}
