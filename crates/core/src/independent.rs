//! The Independent ORAM protocol (§III-C) and, with Split's steps inside
//! each group, the combined Indep-Split architecture (§III-D, Fig 7e).
//!
//! The address space is partitioned across *groups* of SDIMMs by the most
//! significant bits of the leaf ID; each group runs a full `accessORAM`
//! backend over its own subtree, remaps the block to a fresh random
//! *global* leaf, and keeps or extracts it depending on whether the new
//! leaf stays local. With one SDIMM per group (INDEP-2, INDEP-4) that is
//! Independent's `ACCESS`, path walk and `PROBE`/`FETCH_RESULT`; with
//! `ways ≥ 2` (INDEP-SPLIT: 2 groups × 2-way) each bucket is byte-striped
//! over the group's SDIMMs, which run Split's steps ([`crate::split`]).
//! Finally the CPU issues one `APPEND` to **every** SDIMM — real payload
//! to the block's new home, dummies elsewhere — so the destination is
//! never revealed. Incoming blocks park in a transfer queue drained by
//! stash vacancies or, with probability `p`, by an extra local
//! `accessORAM` (§IV-C).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oram::layout::TreeLayout;
use oram::path_oram::PathOram;
use oram::plan::AccessPlan;
use oram::types::{BlockId, Leaf, Op, OramConfig, BLOCK_BYTES};

use crate::split::{stripe, striped_phases};
use crate::trace::{Activity, Phase, RequestTrace};
use crate::transfer_queue::TransferQueue;
use crate::Protocol;

/// Configuration of a routed (Independent or Indep-Split) memory system.
#[derive(Debug, Clone)]
pub struct IndependentConfig {
    /// Independent groups (a power of two), each owning a subtree.
    pub groups: usize,
    /// SDIMMs per group: 1 for the Independent protocol, otherwise the
    /// Split arity within a group (2, 4 or 8).
    pub ways: usize,
    /// Enable the low-power scheme (§III-E).
    pub low_power: bool,
    /// Per-group subtree (levels = global levels − log₂ groups).
    subtree: OramConfig,
}

impl IndependentConfig {
    /// Builds a config for `groups` groups of `ways` SDIMMs sharing a
    /// *global* tree of `global.levels` levels: each group owns a subtree
    /// with `global.levels − log₂(groups)` levels.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is a power of two smaller than the tree and
    /// `ways` is 1 or a supported split arity.
    pub fn new(groups: usize, ways: usize, global: &OramConfig) -> Self {
        assert!(groups.is_power_of_two(), "group count must be a power of two");
        assert!(matches!(ways, 1 | 2 | 4 | 8), "unsupported split arity {ways}");
        let log = groups.trailing_zeros();
        assert!(global.levels > log, "more groups than subtrees");
        let subtree = OramConfig { levels: global.levels - log, ..global.clone() };
        IndependentConfig { groups, ways, low_power: false, subtree }
    }

    /// Per-group subtree (levels = global levels − log₂ groups).
    pub fn subtree(&self) -> &OramConfig {
        &self.subtree
    }

    /// Total SDIMMs in the system.
    pub fn sdimms(&self) -> usize {
        self.groups * self.ways
    }

    /// Leaves per group subtree.
    pub fn local_leaves(&self) -> u64 {
        self.subtree.leaf_count()
    }

    /// Total leaves across the distributed tree.
    pub fn global_leaves(&self) -> u64 {
        self.local_leaves() * self.groups as u64
    }
}

/// The distributed ORAM: CPU-side router plus one backend per group.
#[derive(Debug)]
pub struct IndependentOram {
    cfg: IndependentConfig,
    /// Each group's subtree, by group.
    trees: Vec<PathOram>,
    /// Each group's transfer queue ([`TransferQueue::paper_default`]).
    queues: Vec<TransferQueue>,
    /// CPU-side ground-truth position map over global leaves (in hardware
    /// this is the Freecursive recursion; the frontend models its traffic).
    posmap: Vec<Leaf>,
    rng: StdRng,
}

impl IndependentOram {
    /// Creates the distributed ORAM for `blocks` logical blocks.
    ///
    /// # Panics
    ///
    /// Panics if per-group expected residency exceeds subtree capacity.
    pub fn new(cfg: IndependentConfig, blocks: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_group = blocks / cfg.groups as u64 + 1;
        // The seed salt differs by arity only because the pinned streams
        // of both protocols depend on it.
        let salt = if cfg.ways == 1 { 0xD1D1 } else { 0xA5A5 };
        let trees = (0..cfg.groups)
            .map(|g| {
                let mut oram = PathOram::with_id_space(
                    cfg.subtree().clone(),
                    blocks,
                    per_group * 2, // headroom for imbalance
                    seed ^ (salt + g as u64),
                );
                // Only a one-SDIMM group localizes its subtree in ranks;
                // striped groups keep the packed layout and hint rank 0
                // (the open question of DESIGN.md §6 item 7).
                if cfg.low_power && cfg.ways == 1 {
                    let rank_bytes = rank_region_bytes(cfg.subtree());
                    oram.set_layout(TreeLayout::rank_localized(cfg.subtree(), 2, rank_bytes));
                }
                oram
            })
            .collect();
        let queues = (0..cfg.groups).map(|_| TransferQueue::paper_default()).collect();
        let global_leaves = cfg.global_leaves();
        let posmap = (0..blocks).map(|_| Leaf(rng.gen_range(0..global_leaves))).collect();
        IndependentOram { cfg, trees, queues, posmap, rng }
    }

    /// The configuration.
    pub fn config(&self) -> &IndependentConfig {
        &self.cfg
    }

    /// Peak transfer-queue occupancy across groups.
    pub fn transfer_peak(&self) -> usize {
        self.queues.iter().map(TransferQueue::peak).max().unwrap_or(0)
    }

    /// Total transfer-queue overflows (should be zero with drain enabled).
    pub fn transfer_overflows(&self) -> u64 {
        self.queues.iter().map(TransferQueue::overflows).sum()
    }

    /// Splits a global leaf into (owning group, local leaf).
    fn route(&self, global: Leaf) -> (usize, Leaf) {
        let local_leaves = self.cfg.local_leaves();
        ((global.0 / local_leaves) as usize, Leaf(global.0 % local_leaves))
    }

    /// SDIMM indices belonging to `group`, in way order.
    fn members(&self, group: usize) -> Range<usize> {
        let k = self.cfg.ways;
        (group * k)..(group * k + k)
    }

    /// Independent's steps 1–5 on the one SDIMM of group `home`, whose
    /// path to `local_old` is `plan`: `ACCESS`, the path read, the
    /// write-back, then `PROBE`/`FETCH_RESULT`. Returns the phases, the
    /// data-ready phase and the phase whose completion frees the buffer.
    fn own_path_steps(
        &self,
        home: usize,
        local_old: Leaf,
        plan: AccessPlan,
    ) -> (Vec<Phase>, usize, usize) {
        // Step 1: encrypted ACCESS + one block (dummy on reads).
        let mut phases = Vec::new();
        phases.push(Phase::one(Activity::ExtTransfer { sdimm: home, bytes: 64 }));

        // Steps 2–4: path read, then write-back, as two phases: a bucket
        // is written only after it is read and decrypted, and bundling
        // would let the controller forward reads from queued writes.
        let mut read_phase = Phase::default();
        if self.cfg.low_power {
            if let Some(rank) = self.trees[home].layout().rank_of(local_old) {
                read_phase.par.push(Activity::WakeRank { channel: home, rank });
            }
        }
        read_phase.par.push(Activity::Dram {
            channel: home,
            reads: plan.lines.clone(),
            writes: Vec::new(),
        });
        read_phase.par.push(Activity::Crypto { units: plan.lines.len() as u32 });
        phases.push(read_phase);
        phases.push(Phase::one(Activity::Dram {
            channel: home,
            reads: vec![],
            writes: plan.lines,
        }));
        // The buffer accepts its next ACCESS once the write-back retires;
        // PROBE/FETCH_RESULT and the APPEND fan-out are CPU-side actions.
        let release = phases.len() - 1;

        // Step 5: PROBE then FETCH_RESULT — the response block (real data,
        // or a dummy when a write stayed local).
        phases.push(Phase {
            par: vec![
                Activity::ExtShort { sdimm: home },
                Activity::ExtTransfer { sdimm: home, bytes: 64 },
            ],
        });
        let data_ready = phases.len() - 1;
        (phases, data_ready, release)
    }
}

impl Protocol for IndependentOram {
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
        let k = self.cfg.ways;
        let global_old = self.posmap[id.0 as usize];
        let (home, local_old) = self.route(global_old);

        // The home group remaps the block to a fresh global leaf and sets
        // its local leaf; the posmap is updated CPU-side.
        let global_new = Leaf(self.rng.gen_range(0..self.cfg.global_leaves()));
        let (dest, local_new) = self.route(global_new);
        let keep_local = dest == home;
        let (data, moved, plan) =
            self.trees[home].access_with_remap(id, op, new_data, local_new, keep_local);
        self.posmap[id.0 as usize] = global_new;

        let (mut phases, data_ready_phase, backend_release_phase) = if k == 1 {
            self.own_path_steps(home, local_old, plan)
        } else {
            let (phases, data_ready) =
                striped_phases(&plan, self.members(home), self.cfg.subtree(), self.cfg.low_power);
            // The buffers are free after Split's last step, the write-back.
            let release = phases.len() - 1;
            (phases, data_ready, release)
        };

        // Step 6: APPEND to every SDIMM of every group, striped as k
        // pieces of 64/k bytes; only `dest`'s members get the real block.
        let mut append = Phase::default();
        for sdimm in 0..self.cfg.sdimms() {
            append.par.push(Activity::ExtTransfer { sdimm, bytes: 64 / k as u64 });
        }
        phases.push(append);

        // The departing block opens a vacancy home's queue can exploit,
        // and left with its new local leaf already set.
        if let Some(entry) = moved {
            self.queues[home].vacancy();
            self.queues[dest].arrive();
            self.trees[dest].append(entry);
        }

        // Occasional forced drain: an extra local accessORAM at `dest`,
        // striped over its members.
        if self.queues[dest].maybe_force_drain(&mut self.rng) {
            let plan = self.trees[dest].background_evict();
            let shares = stripe(&plan.lines, k, self.cfg.subtree().lines_per_bucket());
            let (mut reads, mut writes) = (Phase::default(), Phase::default());
            for (m, share) in self.members(dest).zip(shares) {
                reads.par.push(Activity::Dram { channel: m, reads: share.clone(), writes: vec![] });
                writes.par.push(Activity::Dram { channel: m, reads: vec![], writes: share });
            }
            phases.push(reads);
            phases.push(writes);
        }

        let mut trace = RequestTrace::new(phases);
        trace.data_ready_phase = data_ready_phase;
        trace.backend_release_phase = backend_release_phase;
        trace.backend = Some(home); // one backend per group
        (data, trace)
    }

    /// One subtree per group, so the backend id is the group index.
    fn trees(&self) -> &[PathOram] {
        &self.trees
    }

    fn trees_mut(&mut self) -> &mut [PathOram] {
        &mut self.trees
    }

    /// Per-group ORAM metrics plus transfer-queue peaks and overflows.
    fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        // The label differs by arity only because Independent's
        // `sdimm<i>.*` keys are hashed into a pinned ledger fingerprint.
        let label = if self.cfg.ways == 1 { "sdimm" } else { "group" };
        let mut m = sdimm_telemetry::MetricsRegistry::new();
        for (i, tree) in self.trees.iter().enumerate() {
            m.absorb(&format!("{label}{i}"), &tree.metrics());
        }
        m.gauge_max("stash_peak", self.stash_peak() as f64);
        m.gauge_max("transfer_peak", self.transfer_peak() as f64);
        m.counter_add("transfer_overflows", self.transfer_overflows());
        m
    }

    /// Channel `ch` is way `ch % ways` of group `ch / ways`, and every
    /// way of a group carries (a byte-striped share of) that group's own
    /// layout addresses — so the inversion goes through the owning
    /// group's layout.
    fn level_of_channel_line(&self, ch: usize, addr: u64) -> Option<u32> {
        self.trees.get(ch / self.cfg.ways)?.layout().level_of_line(addr)
    }
}

/// Rank region sized to hold one 2-level-split subtree of `cfg`.
fn rank_region_bytes(cfg: &OramConfig) -> u64 {
    let subtree_buckets = (1u64 << (cfg.levels - 2 + 1)) - 1;
    let need = subtree_buckets * cfg.lines_per_bucket() as u64 * BLOCK_BYTES as u64;
    need.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// INDEP-2 over an 8-level tree (one SDIMM per group).
    fn small() -> IndependentOram {
        let global = OramConfig { levels: 8, ..OramConfig::tiny() };
        IndependentOram::new(IndependentConfig::new(2, 1, &global), 256, 7)
    }

    /// INDEP-SPLIT: 2 groups × 2-way Split over a 9-level tree (its own
    /// tests are in `crate::indep_split`).
    fn combined() -> IndependentOram {
        let global = OramConfig { levels: 9, ..OramConfig::tiny() };
        IndependentOram::new(IndependentConfig::new(2, 2, &global), 256, 33)
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
        // The home an access claims as its backend changes exactly when
        // the previous access migrated the block.
        let homes: Vec<_> =
            (0..51).map(|_| o.access(BlockId(0), Op::Read, None).1.backend).collect();
        let migrations = homes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(migrations > 10, "remaps should often cross SDIMMs");
    }

    #[test]
    fn every_access_appends_to_all_sdimms() {
        let mut o = small();
        let (_, trace) = o.access(BlockId(3), Op::Read, None);
        let appends =
            trace.iter_activities().filter(|a| matches!(a, Activity::ExtTransfer { .. })).count();
        // ACCESS + FETCH_RESULT + one APPEND per SDIMM.
        assert!(appends >= 2 + o.config().sdimms());
    }

    #[test]
    fn external_traffic_is_tiny_compared_to_internal() {
        let mut o = small();
        let traces: Vec<_> = (0..32u64).map(|i| o.access(BlockId(i), Op::Read, None).1).collect();
        let ext_lines = traces.iter().map(|t| t.external_bytes()).sum::<u64>() / 64;
        let internal: u64 = traces.iter().map(|t| t.dram_lines()).sum();
        assert!(
            ext_lines * 10 < internal,
            "Independent should keep ≥90% of traffic on-DIMM: ext {ext_lines} vs int {internal}"
        );
    }

    #[test]
    fn data_ready_before_appends() {
        for mut o in [small(), combined()] {
            let (_, trace) = o.access(BlockId(1), Op::Read, None);
            assert!(trace.data_ready_phase < trace.phases.len() - 1);
        }
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
        let o = IndependentOram::new(IndependentConfig::new(4, 1, &global), 128, 9);
        assert_eq!(o.route(Leaf(0)).0, 0);
        assert_eq!(o.route(Leaf(255)).0, 3);
        assert_eq!(o.route(Leaf(64)).0, 1);
        assert_eq!(o.route(Leaf(64)).1, Leaf(0));
        assert_eq!(combined().members(1), 2..4);
    }

    #[test]
    fn low_power_traces_carry_wake_hints() {
        let global = OramConfig { levels: 10, ..OramConfig::tiny() };
        let mut cfg = IndependentConfig::new(2, 1, &global);
        cfg.low_power = true;
        let mut o = IndependentOram::new(cfg, 128, 10);
        let (_, trace) = o.access(BlockId(5), Op::Read, None);
        assert!(
            trace.iter_activities().any(|a| matches!(a, Activity::WakeRank { .. })),
            "low-power mode must emit rank wake hints"
        );
    }
}
