//! The shared last-level cache (Table II: 2 MB, 64 B lines, 8-way,
//! 10-cycle access).
//!
//! The trace records are L1 misses; this LLC filters them. Misses (and
//! dirty evictions) are what reach the ORAM, so LLC behavior directly
//! sets the `accessORAM` rate.

/// Result of one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Dirty line evicted by the fill (its address), if any — it must be
    /// written back to memory.
    pub writeback: Option<u64>,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Hits served.
    pub hits: u64,
    /// Misses (fills).
    pub misses: u64,
    /// Dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl LlcStats {
    /// Miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// Cache line size in bytes: the DRAM line.
const LINE_BYTES: u64 = dram_sim::config::LINE_BYTES as u64;

/// A set-associative write-back, write-allocate cache.
#[derive(Debug)]
pub struct Llc {
    sets: Vec<Vec<Line>>,
    ways: usize,
    tick: u64,
    stats: LlcStats,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless the set count works out to a power of two.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / LINE_BYTES as usize;
        assert!(ways >= 1 && lines.is_multiple_of(ways));
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Llc { sets: vec![Vec::new(); sets], ways, tick: 0, stats: LlcStats::default() }
    }

    /// The Table II LLC: 2 MB, 8-way.
    pub fn table2() -> Self {
        Llc::new(2 * 1024 * 1024, 8)
    }

    /// Access latency in CPU cycles (Table II).
    pub const LATENCY_CPU_CYCLES: u64 = 10;

    /// Statistics so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / LINE_BYTES) as usize) & (self.sets.len() - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / LINE_BYTES / self.sets.len() as u64
    }

    /// Accesses `addr`; on a miss the line is filled (write-allocate) and
    /// a victim may be written back.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LlcAccess {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.ways;
        let sets_len = self.sets.len() as u64;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return LlcAccess { hit: true, writeback: None };
        }

        self.stats.misses += 1;
        let mut writeback = None;
        if set.len() >= ways {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                // lint: panic-ok(invariant: set not empty)
                .expect("set not empty");
            let victim = set.swap_remove(victim_idx);
            if victim.dirty {
                self.stats.writebacks += 1;
                writeback = Some((victim.tag * sets_len + set_idx as u64) * LINE_BYTES);
            }
        }
        set.push(Line { tag, dirty: is_write, lru: tick });
        LlcAccess { hit: false, writeback }
    }

    /// Warm-up access: identical replacement behavior, but does not
    /// disturb the measured statistics.
    pub fn warm(&mut self, addr: u64, is_write: bool) {
        let before = self.stats;
        let _ = self.access(addr, is_write);
        self.stats = before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = Llc::new(64 * 1024, 8);
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = Llc::new(64 * 64, 1); // 64 sets, direct-mapped
        let a = 0u64;
        let b = 64 * 64; // same set, different tag
        c.access(a, true);
        let res = c.access(b, false);
        assert!(!res.hit);
        assert_eq!(res.writeback, Some(a), "victim address must round-trip");
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Llc::new(64 * 64, 1);
        c.access(0, false);
        assert_eq!(c.access(64 * 64, false).writeback, None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = Llc::new(2 * 64, 2); // one... two lines per set
                                         // Set count = 1: all map to set 0.
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // refresh 0
        c.access(128, false); // evicts 64
        assert!(c.access(0, false).hit);
        assert!(!c.access(64, false).hit);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = Llc::new(64 * 64, 1);
        c.access(0, false);
        c.access(0, true); // dirty via hit
        let res = c.access(64 * 64, false);
        assert!(res.writeback.is_some());
    }

    #[test]
    fn warm_does_not_count() {
        let mut c = Llc::table2();
        c.warm(0, false);
        assert_eq!(c.stats().misses, 0);
        // …but the line is resident:
        assert!(c.access(0, false).hit);
    }

    #[test]
    fn table2_capacity() {
        let c = Llc::table2();
        assert_eq!(c.sets.len() * c.ways * 64, 2 * 1024 * 1024);
    }

    #[test]
    fn footprint_larger_than_cache_produces_misses() {
        let mut c = Llc::new(64 * 1024, 8);
        let mut misses = 0;
        for round in 0..2 {
            for i in 0..4096u64 {
                // 256 KB footprint vs 64 KB cache
                if !c.access(i * 64, false).hit {
                    misses += 1;
                }
            }
            if round == 0 {
                assert_eq!(misses, 4096);
            }
        }
        assert!(misses > 4096 + 3000, "thrashing footprint must keep missing");
    }
}
