//! The Independent ORAM protocol (§III-C).
//!
//! The address space is partitioned across SDIMMs by the most significant
//! bits of the leaf ID; each SDIMM runs a full `accessORAM` backend over
//! its own subtree. Per access: the CPU sends an encrypted `ACCESS`
//! command (always followed by one block — a dummy on reads) to the
//! owning SDIMM; the SDIMM walks its local path, generates a fresh random
//! *global* leaf, keeps or extracts the block depending on whether the
//! new leaf stays local, and hands the block (or a dummy) back through a
//! `PROBE`/`FETCH_RESULT` pair. Finally the CPU issues one `APPEND` to
//! **every** SDIMM — real payload to the block's new home, dummies
//! elsewhere — so the destination is never revealed. Incoming blocks park
//! in a transfer queue drained by stash vacancies or, with probability
//! `p`, by an extra local `accessORAM` (§IV-C).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oram::layout::TreeLayout;
use oram::path_oram::PathOram;
use oram::types::{BlockId, Leaf, Op, OramConfig};
use oram::wear::LevelWear;

use crate::obliviousness::{Observable, Recorder};
use crate::trace::{Activity, Phase, RequestTrace};
use crate::transfer_queue::TransferQueue;
use crate::Protocol;

/// Configuration for an Independent-protocol memory system.
#[derive(Debug, Clone)]
pub struct IndependentConfig {
    /// Number of SDIMMs (a power of two).
    pub sdimms: usize,
    /// Per-SDIMM subtree configuration (levels = global levels − log₂ N).
    pub subtree: OramConfig,
    /// Transfer-queue capacity in blocks (8 KB buffer ⇒ 128).
    pub transfer_capacity: usize,
    /// Forced-drain probability `p`.
    pub drain_probability: f64,
    /// Enable the low-power rank-localized layout (§III-E).
    pub low_power: bool,
}

impl IndependentConfig {
    /// Builds a config for `sdimms` SDIMMs sharing a *global* tree of
    /// `global_levels` levels: each SDIMM owns a subtree with
    /// `global_levels − log₂(sdimms)` levels.
    ///
    /// # Panics
    ///
    /// Panics unless `sdimms` is a power of two smaller than the tree.
    pub fn new(sdimms: usize, global: &OramConfig) -> Self {
        assert!(sdimms.is_power_of_two(), "SDIMM count must be a power of two");
        let log = sdimms.trailing_zeros();
        assert!(global.levels > log, "more SDIMMs than subtrees");
        let subtree = OramConfig { levels: global.levels - log, ..global.clone() };
        IndependentConfig {
            sdimms,
            subtree,
            transfer_capacity: 128,
            drain_probability: 0.1,
            low_power: false,
        }
    }

    /// Leaves per SDIMM subtree.
    pub fn local_leaves(&self) -> u64 {
        self.subtree.leaf_count()
    }

    /// Total leaves across the distributed tree.
    pub fn global_leaves(&self) -> u64 {
        self.local_leaves() * self.sdimms as u64
    }
}

/// One SDIMM's secure-buffer state for the Independent protocol.
#[derive(Debug)]
struct SdimmNode {
    oram: PathOram,
    queue: TransferQueue,
}

/// Per-protocol statistics for the off-DIMM traffic experiment (X1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndependentStats {
    /// `accessORAM` operations executed.
    pub accesses: u64,
    /// Blocks that migrated between SDIMMs.
    pub migrations: u64,
    /// Extra local accesses spent draining transfer queues.
    pub drain_accesses: u64,
    /// Total external-bus bytes.
    pub external_bytes: u64,
    /// Total external-bus commands.
    pub external_commands: u64,
    /// Total internal DRAM line operations.
    pub internal_lines: u64,
}

/// The distributed Independent ORAM: CPU-side router plus N secure
/// buffers.
#[derive(Debug)]
pub struct IndependentOram {
    cfg: IndependentConfig,
    nodes: Vec<SdimmNode>,
    /// CPU-side ground-truth position map over global leaves (in hardware
    /// this is the Freecursive recursion; the frontend models its traffic).
    posmap: Vec<Leaf>,
    rng: StdRng,
    stats: IndependentStats,
    recorder: Option<Recorder>,
}

impl IndependentOram {
    /// Creates the distributed ORAM for `blocks` logical blocks.
    ///
    /// # Panics
    ///
    /// Panics if per-SDIMM expected residency exceeds subtree capacity.
    pub fn new(cfg: IndependentConfig, blocks: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_sdimm = blocks / cfg.sdimms as u64 + 1;
        let mut nodes = Vec::with_capacity(cfg.sdimms);
        for i in 0..cfg.sdimms {
            let mut oram = PathOram::with_id_space(
                cfg.subtree.clone(),
                blocks,
                per_sdimm * 2, // headroom for imbalance
                seed ^ (0xD1D1 + i as u64),
            );
            if cfg.low_power {
                let rank_bytes = rank_region_bytes(&cfg.subtree);
                oram.set_layout(TreeLayout::rank_localized(&cfg.subtree, 2, rank_bytes));
            }
            nodes.push(SdimmNode {
                oram,
                queue: TransferQueue::new(cfg.transfer_capacity, cfg.drain_probability),
            });
        }
        let global_leaves = cfg.global_leaves();
        let posmap = (0..blocks).map(|_| Leaf(rng.gen_range(0..global_leaves))).collect();
        IndependentOram {
            cfg,
            nodes,
            posmap,
            rng,
            stats: IndependentStats::default(),
            recorder: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IndependentConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> IndependentStats {
        self.stats
    }

    /// Peak transfer-queue occupancy across SDIMMs.
    pub fn transfer_peak(&self) -> usize {
        self.nodes.iter().map(|n| n.queue.peak()).max().unwrap_or(0)
    }

    /// Total transfer-queue overflows (should be zero with drain enabled).
    pub fn transfer_overflows(&self) -> u64 {
        self.nodes.iter().map(|n| n.queue.overflows()).sum()
    }

    /// Stash occupancy of one SDIMM (tests).
    pub fn stash_len(&self, sdimm: usize) -> usize {
        self.nodes[sdimm].oram.stash_len()
    }

    /// Splits a global leaf into (owning SDIMM, local leaf).
    fn route(&self, global: Leaf) -> (usize, Leaf) {
        let local_leaves = self.cfg.local_leaves();
        ((global.0 / local_leaves) as usize, Leaf(global.0 % local_leaves))
    }

    fn record(&mut self, ev: Observable) {
        if let Some(rec) = &mut self.recorder {
            rec.push(ev);
        }
    }
}

impl Protocol for IndependentOram {
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
        let global_old = self.posmap[id.0 as usize];
        let (home, local_old) = self.route(global_old);

        // Step 1: encrypted ACCESS + one block (dummy on reads) to `home`.
        let mut phases = Vec::new();
        phases.push(Phase::one(Activity::ExtTransfer { sdimm: home, bytes: 64 }));
        self.record(Observable::LongCommand { sdimm: home });

        // Step 2–4 on the SDIMM: path fetch, remap, write-back.
        let global_new = Leaf(self.rng.gen_range(0..self.cfg.global_leaves()));
        let (dest, local_new) = self.route(global_new);
        let keep_local = dest == home;

        // The SDIMM sets the block's (local) leaf; posmap updated CPU-side.
        let node = &mut self.nodes[home];
        let (data, moved, plan) =
            node.oram.access_with_remap(id, op, new_data, local_new, keep_local);
        self.posmap[id.0 as usize] = global_new;
        self.stats.accesses += 1;

        // Path read, then write-back, as two phases: the buffer cannot
        // write a bucket before it has read and decrypted it, and the
        // read and write of one bucket hit the same lines (bundling them
        // would let the controller forward reads from queued writes).
        let mut read_phase = Phase::default();
        if self.cfg.low_power {
            if let Some(rank) = node.oram.layout().rank_of(local_old) {
                read_phase.par.push(Activity::WakeRank { channel: home, rank });
            }
        }
        let path_lines = plan.total_lines() as u64;
        read_phase.par.push(Activity::Dram {
            channel: home,
            reads: plan.lines.clone(),
            writes: Vec::new(),
        });
        read_phase.par.push(Activity::Crypto { units: plan.lines.len() as u32 });
        phases.push(read_phase);
        phases.push(Phase::one(Activity::Dram {
            channel: home,
            reads: Vec::new(),
            writes: plan.lines,
        }));
        // The secure buffer can accept its next ACCESS once the path
        // write-back retires; PROBE/FETCH_RESULT and the APPEND fan-out
        // are CPU-side actions.
        let backend_release_phase = phases.len() - 1;
        self.stats.internal_lines += path_lines;
        self.record(Observable::InternalPath { sdimm: home, lines: path_lines });

        // Step 5: PROBE then FETCH_RESULT — the response block (real data,
        // or a dummy when a write stayed local).
        phases.push(Phase {
            par: vec![
                Activity::ExtShort { sdimm: home },
                Activity::ExtTransfer { sdimm: home, bytes: 64 },
            ],
        });
        self.record(Observable::ShortCommand { sdimm: home });
        self.record(Observable::LongCommand { sdimm: home });
        let data_ready_phase = phases.len() - 1;

        // The departing block opens a vacancy its queue can exploit.
        if moved.is_some() {
            self.nodes[home].queue.vacancy();
        }

        // Step 6: APPEND to every SDIMM; only `dest` gets the real block.
        let mut append = Phase::default();
        for i in 0..self.cfg.sdimms {
            append.par.push(Activity::ExtTransfer { sdimm: i, bytes: 64 });
            self.record(Observable::LongCommand { sdimm: i });
        }
        phases.push(append);

        // The block left with its new local leaf already set.
        if let Some(entry) = moved {
            self.stats.migrations += 1;
            self.nodes[dest].queue.arrive();
            self.nodes[dest].oram.append(entry);
        }

        // Occasional forced drain: an extra local accessORAM at `dest`.
        if self.nodes[dest].queue.maybe_force_drain(&mut self.rng) {
            let plan = self.nodes[dest].oram.background_evict();
            self.stats.drain_accesses += 1;
            self.stats.internal_lines += plan.total_lines() as u64;
            self.record(Observable::InternalPath { sdimm: dest, lines: plan.total_lines() as u64 });
            phases.push(Phase::one(Activity::Dram {
                channel: dest,
                reads: plan.lines.clone(),
                writes: Vec::new(),
            }));
            phases.push(Phase::one(Activity::Dram {
                channel: dest,
                reads: Vec::new(),
                writes: plan.lines,
            }));
        }

        let mut trace = RequestTrace::new(phases);
        trace.data_ready_phase = data_ready_phase;
        trace.backend_release_phase = backend_release_phase;
        trace.backend = Some(home);
        self.stats.external_bytes += trace.external_bytes();
        self.stats.external_commands += trace.external_commands();
        (data, trace)
    }

    fn max_stash_len(&self) -> usize {
        self.nodes.iter().map(|n| n.oram.stash_len()).max().unwrap_or(0)
    }

    fn stash_peak(&self) -> usize {
        self.nodes.iter().map(|n| n.oram.stash_len().max(n.oram.stash_peak())).max().unwrap_or(0)
    }

    fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = Some(rec);
    }

    fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Backend tag = SDIMM index.
    fn set_trace(&mut self, trace: sdimm_telemetry::CellTrace) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.oram.set_trace(trace.clone(), i.min(u8::MAX as usize) as u8);
        }
    }

    /// Per-SDIMM ORAM metrics (`sdimm<i>.*`) plus transfer-queue peaks.
    fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        let mut m = sdimm_telemetry::MetricsRegistry::new();
        for (i, n) in self.nodes.iter().enumerate() {
            m.absorb(&format!("sdimm{i}"), &n.oram.metrics());
        }
        m.gauge_max("stash_peak", self.stash_peak() as f64);
        m.gauge_max("transfer_peak", self.transfer_peak() as f64);
        m.counter_add("transfer_overflows", self.transfer_overflows());
        m
    }

    /// Channel `sdimm`'s DRAM traffic is generated directly from that
    /// SDIMM's private tree layout, so the inversion is per-node.
    fn level_of_channel_line(&self, sdimm: usize, addr: u64) -> Option<u32> {
        self.nodes.get(sdimm)?.oram.layout().level_of_line(addr)
    }

    /// All trees share a geometry, so the merge is level-aligned.
    fn level_wear(&self) -> LevelWear {
        let mut total = LevelWear::default();
        for n in &self.nodes {
            total.merge(n.oram.level_wear());
        }
        total
    }

    fn check_invariants(&self) {
        for n in &self.nodes {
            n.oram.check_invariant();
        }
    }
}

/// Rank region sized to hold one 2-level-split subtree of `cfg`.
fn rank_region_bytes(cfg: &OramConfig) -> u64 {
    let subtree_buckets = (1u64 << (cfg.levels - 2 + 1)) - 1;
    let need = subtree_buckets * cfg.lines_per_bucket() as u64 * cfg.block_bytes as u64;
    need.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> IndependentOram {
        let global = OramConfig { levels: 8, ..OramConfig::tiny() };
        IndependentOram::new(IndependentConfig::new(2, &global), 256, 7)
    }

    #[test]
    fn read_your_writes_across_sdimms() {
        let mut o = small();
        for i in 0..64u64 {
            o.access(BlockId(i), Op::Write, Some(&[i as u8; 16]));
        }
        for i in 0..64u64 {
            let (got, _) = o.access(BlockId(i), Op::Read, None);
            assert_eq!(got, vec![i as u8; 16], "block {i}");
        }
        o.check_invariants();
    }

    #[test]
    fn blocks_migrate_between_sdimms() {
        let mut o = small();
        o.access(BlockId(0), Op::Write, Some(&[1]));
        for _ in 0..50 {
            o.access(BlockId(0), Op::Read, None);
        }
        assert!(o.stats().migrations > 10, "remaps should often cross SDIMMs");
    }

    #[test]
    fn every_access_appends_to_all_sdimms() {
        let mut o = small();
        let (_, trace) = o.access(BlockId(3), Op::Read, None);
        let appends =
            trace.iter_activities().filter(|a| matches!(a, Activity::ExtTransfer { .. })).count();
        // ACCESS + FETCH_RESULT + one APPEND per SDIMM.
        assert!(appends >= 2 + o.config().sdimms);
    }

    #[test]
    fn external_traffic_is_tiny_compared_to_internal() {
        let mut o = small();
        for i in 0..32u64 {
            o.access(BlockId(i), Op::Read, None);
        }
        let s = o.stats();
        let ext_lines = s.external_bytes / 64;
        assert!(
            ext_lines * 10 < s.internal_lines,
            "Independent should keep ≥90% of traffic on-DIMM: ext {ext_lines} vs int {}",
            s.internal_lines
        );
    }

    #[test]
    fn data_ready_before_appends() {
        let mut o = small();
        let (_, trace) = o.access(BlockId(1), Op::Read, None);
        assert!(trace.data_ready_phase < trace.phases.len() - 1);
    }

    #[test]
    fn no_transfer_overflows_with_drain() {
        let mut o = small();
        for i in 0..500u64 {
            o.access(BlockId(i % 200), Op::Read, None);
        }
        assert_eq!(o.transfer_overflows(), 0);
    }

    #[test]
    fn four_sdimms_route_by_top_bits() {
        let global = OramConfig { levels: 8, ..OramConfig::tiny() };
        let o = IndependentOram::new(IndependentConfig::new(4, &global), 128, 9);
        assert_eq!(o.route(Leaf(0)).0, 0);
        assert_eq!(o.route(Leaf(255)).0, 3);
        assert_eq!(o.route(Leaf(64)).0, 1);
        assert_eq!(o.route(Leaf(64)).1, Leaf(0));
    }

    #[test]
    fn low_power_traces_carry_wake_hints() {
        let global = OramConfig { levels: 10, ..OramConfig::tiny() };
        let mut cfg = IndependentConfig::new(2, &global);
        cfg.low_power = true;
        let mut o = IndependentOram::new(cfg, 128, 10);
        let (_, trace) = o.access(BlockId(5), Op::Read, None);
        assert!(
            trace.iter_activities().any(|a| matches!(a, Activity::WakeRank { .. })),
            "low-power mode must emit rank wake hints"
        );
    }
}
