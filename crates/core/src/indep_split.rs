//! The combined Indep-Split architecture (§III-D, Fig 7e).
//!
//! With four SDIMMs, the tree is halved across two *groups* using the
//! Independent protocol, and within each group every `accessORAM` is
//! 2-way Split across the group's two SDIMMs. The paper finds this the
//! best of both: Independent-style parallelism across groups (two
//! accesses in flight), Split-style low latency within a group — 47.4%
//! faster than Freecursive on the 2-channel system.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oram::path_oram::PathOram;
use oram::types::{BlockId, Leaf, Op, OramConfig};
use oram::wear::LevelWear;

use crate::obliviousness::{Observable, Recorder};
use crate::split::{stripe, striped_phases};
use crate::trace::{Activity, Phase, RequestTrace};
use crate::transfer_queue::TransferQueue;
use crate::Protocol;

/// Configuration of the combined architecture.
#[derive(Debug, Clone)]
pub struct IndepSplitConfig {
    /// Number of Independent groups (each owns a subtree).
    pub groups: usize,
    /// SDIMMs per group (the Split arity within a group).
    pub ways: usize,
    /// Per-group subtree configuration.
    pub subtree: OramConfig,
    /// Transfer-queue capacity per group.
    pub transfer_capacity: usize,
    /// Forced-drain probability.
    pub drain_probability: f64,
    /// Enable the low-power rank-localized layout.
    pub low_power: bool,
}

impl IndepSplitConfig {
    /// The paper's 4-SDIMM arrangement over a global tree: 2 groups × 2-way
    /// Split.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is a power of two and `ways` a supported
    /// split arity.
    pub fn new(groups: usize, ways: usize, global: &OramConfig) -> Self {
        assert!(groups.is_power_of_two(), "group count must be a power of two");
        assert!(matches!(ways, 2 | 4 | 8), "unsupported split arity {ways}");
        let log = groups.trailing_zeros();
        assert!(global.levels > log, "more groups than subtrees");
        let subtree = OramConfig { levels: global.levels - log, ..global.clone() };
        IndepSplitConfig {
            groups,
            ways,
            subtree,
            transfer_capacity: 128,
            drain_probability: 0.1,
            low_power: false,
        }
    }

    /// Total SDIMMs in the system.
    pub fn sdimms(&self) -> usize {
        self.groups * self.ways
    }

    /// Leaves per group subtree.
    pub fn local_leaves(&self) -> u64 {
        self.subtree.leaf_count()
    }

    /// Total leaves.
    pub fn global_leaves(&self) -> u64 {
        self.local_leaves() * self.groups as u64
    }
}

/// Statistics for the combined protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndepSplitStats {
    /// `accessORAM` operations executed.
    pub accesses: u64,
    /// Blocks migrated between groups.
    pub migrations: u64,
    /// Forced transfer-queue drains.
    pub drain_accesses: u64,
    /// External-bus bytes.
    pub external_bytes: u64,
    /// External-bus commands.
    pub external_commands: u64,
    /// Internal DRAM line operations.
    pub internal_lines: u64,
}

#[derive(Debug)]
struct Group {
    oram: PathOram,
    queue: TransferQueue,
}

/// The combined Indep-Split ORAM.
#[derive(Debug)]
pub struct IndepSplitOram {
    cfg: IndepSplitConfig,
    groups: Vec<Group>,
    posmap: Vec<Leaf>,
    rng: StdRng,
    stats: IndepSplitStats,
    recorder: Option<Recorder>,
}

impl IndepSplitOram {
    /// Creates the combined ORAM for `blocks` logical blocks.
    pub fn new(cfg: IndepSplitConfig, blocks: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_group = blocks / cfg.groups as u64 + 1;
        let groups = (0..cfg.groups)
            .map(|g| Group {
                oram: PathOram::with_id_space(
                    cfg.subtree.clone(),
                    blocks,
                    per_group * 2,
                    seed ^ (0xA5A5 + g as u64),
                ),
                queue: TransferQueue::new(cfg.transfer_capacity, cfg.drain_probability),
            })
            .collect();
        let global_leaves = cfg.global_leaves();
        let posmap = (0..blocks).map(|_| Leaf(rng.gen_range(0..global_leaves))).collect();
        IndepSplitOram {
            cfg,
            groups,
            posmap,
            rng,
            stats: IndepSplitStats::default(),
            recorder: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IndepSplitConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> IndepSplitStats {
        self.stats
    }

    fn route(&self, global: Leaf) -> (usize, Leaf) {
        let local = self.cfg.local_leaves();
        ((global.0 / local) as usize, Leaf(global.0 % local))
    }

    /// SDIMM indices belonging to `group`.
    fn members(&self, group: usize) -> Range<usize> {
        let k = self.cfg.ways;
        (group * k)..(group * k + k)
    }

    fn record(&mut self, ev: Observable) {
        if let Some(rec) = &mut self.recorder {
            rec.push(ev);
        }
    }
}

impl Protocol for IndepSplitOram {
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
        let k = self.cfg.ways;

        let global_old = self.posmap[id.0 as usize];
        let (home, _local_old) = self.route(global_old);

        let global_new = Leaf(self.rng.gen_range(0..self.cfg.global_leaves()));
        let (dest, local_new) = self.route(global_new);
        let keep_local = dest == home;

        let (data, moved, plan) =
            self.groups[home].oram.access_with_remap(id, op, new_data, local_new, keep_local);
        self.posmap[id.0 as usize] = global_new;
        self.stats.accesses += 1;

        // Split-style steps within the home group.
        let (mut phases, data_ready_phase, internal_lines) = striped_phases(
            &plan,
            self.members(home),
            &self.cfg.subtree,
            self.cfg.low_power,
            &mut self.recorder,
        );
        self.stats.internal_lines += internal_lines;
        // The group's buffers are free after write-back; the APPEND
        // fan-out below is CPU-side.
        let backend_release_phase = phases.len() - 1;

        // Independent-style APPEND fan-out: one per group (striped across
        // the group's members as k pieces of 64/k bytes).
        let mut p7 = Phase::default();
        for g in 0..self.cfg.groups {
            for m in self.members(g) {
                p7.par.push(Activity::ExtTransfer { sdimm: m, bytes: 64 / k as u64 });
                self.record(Observable::LongCommand { sdimm: m });
            }
        }
        phases.push(p7);

        // The block left with its new local leaf already set.
        if let Some(entry) = moved {
            self.groups[home].queue.vacancy();
            self.stats.migrations += 1;
            self.groups[dest].queue.arrive();
            self.groups[dest].oram.append(entry);
        }

        if self.groups[dest].queue.maybe_force_drain(&mut self.rng) {
            let plan = self.groups[dest].oram.background_evict();
            self.stats.drain_accesses += 1;
            let shares = stripe(&plan.lines, k, self.cfg.subtree.lines_per_bucket());
            let mut pd = Phase::default();
            let mut pd_writes = Phase::default();
            for (m, share) in self.members(dest).zip(shares) {
                self.stats.internal_lines += 2 * share.len() as u64;
                self.record(Observable::InternalPath { sdimm: m, lines: 2 * share.len() as u64 });
                pd.par.push(Activity::Dram {
                    channel: m,
                    reads: share.clone(),
                    writes: Vec::new(),
                });
                pd_writes.par.push(Activity::Dram { channel: m, reads: Vec::new(), writes: share });
            }
            phases.push(pd);
            phases.push(pd_writes);
        }

        let mut trace = RequestTrace::new(phases);
        trace.data_ready_phase = data_ready_phase;
        trace.backend_release_phase = backend_release_phase;
        trace.backend = Some(home); // one backend per Independent group
        self.stats.external_bytes += trace.external_bytes();
        self.stats.external_commands += trace.external_commands();
        (data, trace)
    }

    fn max_stash_len(&self) -> usize {
        self.groups.iter().map(|g| g.oram.stash_len()).max().unwrap_or(0)
    }

    fn stash_peak(&self) -> usize {
        self.groups.iter().map(|g| g.oram.stash_peak()).max().unwrap_or(0)
    }

    fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = Some(rec);
    }

    fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Backend tag = group index.
    fn set_trace(&mut self, trace: sdimm_telemetry::CellTrace) {
        for (i, g) in self.groups.iter_mut().enumerate() {
            g.oram.set_trace(trace.clone(), i.min(u8::MAX as usize) as u8);
        }
    }

    /// Per-group ORAM metrics (`group<i>.*`) plus transfer-queue peaks.
    fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        let mut m = sdimm_telemetry::MetricsRegistry::new();
        for (i, g) in self.groups.iter().enumerate() {
            m.absorb(&format!("group{i}"), &g.oram.metrics());
        }
        m.gauge_max("stash_peak", self.stash_peak() as f64);
        m.gauge_max(
            "transfer_peak",
            self.groups.iter().map(|g| g.queue.peak()).max().unwrap_or(0) as f64,
        );
        m
    }

    /// Channel `ch` is way `ch % ways` of group `ch / ways`, and every
    /// way of a group carries a byte-striped share of that group's
    /// logical address stream — so the inversion goes through the
    /// owning group's layout.
    fn level_of_channel_line(&self, ch: usize, addr: u64) -> Option<u32> {
        self.groups.get(ch / self.cfg.ways)?.oram.layout().level_of_line(addr)
    }

    fn level_wear(&self) -> LevelWear {
        let mut total = LevelWear::default();
        for g in &self.groups {
            total.merge(g.oram.level_wear());
        }
        total
    }

    fn check_invariants(&self) {
        for g in &self.groups {
            g.oram.check_invariant();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn combined() -> IndepSplitOram {
        let global = OramConfig { levels: 9, ..OramConfig::tiny() };
        IndepSplitOram::new(IndepSplitConfig::new(2, 2, &global), 256, 33)
    }

    #[test]
    fn four_sdimms_total() {
        assert_eq!(combined().config().sdimms(), 4);
    }

    #[test]
    fn read_your_writes_across_groups() {
        let mut o = combined();
        for i in 0..64u64 {
            o.access(BlockId(i), Op::Write, Some(&[i as u8; 8]));
        }
        for i in 0..64u64 {
            let (got, _) = o.access(BlockId(i), Op::Read, None);
            assert_eq!(got, vec![i as u8; 8], "block {i}");
        }
        o.check_invariants();
    }

    #[test]
    fn access_engages_only_home_group_internally() {
        let mut o = combined();
        let (_, trace) = o.access(BlockId(0), Op::Read, None);
        let channels: std::collections::HashSet<usize> = trace
            .iter_activities()
            .filter_map(|a| match a {
                Activity::Dram { channel, .. } => Some(*channel),
                _ => None,
            })
            .collect();
        // Internal path work stays within one group of 2 (a forced drain
        // may add the other group).
        assert!(channels.len() <= 4);
        let groups: std::collections::HashSet<usize> = channels.iter().map(|c| c / 2).collect();
        assert!(groups.len() <= 2);
    }

    #[test]
    fn append_fanout_covers_all_groups() {
        let mut o = combined();
        let (_, trace) = o.access(BlockId(1), Op::Read, None);
        let last_ext: std::collections::HashSet<usize> = trace.phases
            [trace.phases.len().saturating_sub(2)..]
            .iter()
            .flat_map(|p| p.par.iter())
            .filter_map(|a| match a {
                Activity::ExtTransfer { sdimm, .. } => Some(*sdimm),
                _ => None,
            })
            .collect();
        assert!(last_ext.len() >= 2, "append must touch multiple SDIMMs: {last_ext:?}");
    }

    #[test]
    fn external_traffic_between_split_and_independent() {
        let global = OramConfig { levels: 9, ..OramConfig::tiny() };
        let mut combined = IndepSplitOram::new(IndepSplitConfig::new(2, 2, &global), 256, 34);
        for i in 0..32u64 {
            combined.access(BlockId(i), Op::Read, None);
        }
        let st = combined.stats();
        let frac = (st.external_bytes as f64 / 64.0) / st.internal_lines as f64;
        assert!(frac > 0.02 && frac < 0.5, "unexpected external fraction {frac}");
    }

    #[test]
    fn migrations_happen_between_groups() {
        let mut o = combined();
        o.access(BlockId(0), Op::Write, Some(&[1]));
        for _ in 0..60 {
            o.access(BlockId(0), Op::Read, None);
        }
        assert!(o.stats().migrations > 10);
    }
}
