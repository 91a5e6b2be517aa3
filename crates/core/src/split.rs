//! The Split ORAM protocol (§III-D).
//!
//! One logical ORAM tree is decomposed across `k` SDIMMs: every bucket is
//! byte-striped so each SDIMM holds `1/k` of each data block, tag, leaf
//! ID, and counter, plus its own MAC (so MAC overhead is k×, paid for
//! dramatically less dummy-block traffic). Unlike the Independent
//! protocol, the **CPU makes all ORAM decisions**: it reassembles the
//! path metadata, identifies the requested block, computes the eviction
//! assignment, and ships it back; only metadata and the requested block
//! cross the external bus, while the bulk path data shuffles locally and
//! concurrently inside every SDIMM — cutting per-access latency by ~k.
//!
//! Per access: `FETCH_DATA` (short) to all k → each SDIMM reads its data
//! share of the path into its local stash; conventional reads return the
//! metadata shares; the CPU reassembles, then `FETCH_STASH` retrieves the
//! requested block's k pieces; finally two `RECEIVE_LIST` messages carry
//! the eviction list and reassembled counters down, and the SDIMMs
//! re-encrypt, re-MAC, and write their shares of the path back.

use std::ops::Range;

use oram::path_oram::PathOram;
use oram::plan::AccessPlan;
use oram::types::{BlockId, Op, OramConfig};

use crate::trace::{Activity, Phase, RequestTrace};
use crate::Protocol;

/// Bytes of metadata per bucket (tags, leaf IDs, shared counter): one
/// cache line, the `+1` of the `(Z+1)` formula.
pub const META_BYTES_PER_BUCKET: u64 = 64;

/// Bytes of the eviction list + counters per `RECEIVE_LIST` message.
/// Modeled as: per bucket on the path, Z slot assignments (2 B each) plus
/// the reassembled 8 B counter.
pub fn receive_list_bytes(levels_in_memory: u64, z: u64) -> u64 {
    levels_in_memory * (2 * z + 8)
}

/// Configuration of a Split-protocol memory system.
#[derive(Debug, Clone)]
pub struct SplitConfig {
    /// Number of SDIMMs each bucket is striped across (2 or 4 evaluated).
    pub ways: usize,
    /// The logical (un-split) tree configuration.
    pub tree: OramConfig,
    /// Enable the low-power rank-localized layout.
    pub low_power: bool,
}

impl SplitConfig {
    /// A `ways`-way split of the tree described by `tree`.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a supported split arity (2, 4, or 8).
    pub fn new(ways: usize, tree: &OramConfig) -> Self {
        assert!(matches!(ways, 2 | 4 | 8), "unsupported split arity {ways}");
        SplitConfig { ways, tree: tree.clone(), low_power: false }
    }
}

/// The Split ORAM: one logical Path ORAM whose physical traffic is
/// striped over `k` internal channels.
///
/// Functionally the logical tree is a single [`PathOram`] — faithful,
/// because in this protocol the CPU reassembles full metadata and makes
/// every placement decision; the SDIMMs only hold byte-shares (the
/// byte-striping and counter-splitting machinery itself is implemented
/// and tested in `sdimm_crypto::pmmac`).
#[derive(Debug)]
pub struct SplitOram {
    cfg: SplitConfig,
    logical: PathOram,
}

impl SplitOram {
    /// Creates a `cfg.ways`-way Split ORAM holding `blocks` blocks.
    pub fn new(cfg: SplitConfig, blocks: u64, seed: u64) -> Self {
        let logical = PathOram::new(cfg.tree.clone(), blocks, seed);
        SplitOram { cfg, logical }
    }

    /// The configuration.
    pub fn config(&self) -> &SplitConfig {
        &self.cfg
    }
}

impl Protocol for SplitOram {
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
        let (data, plan) = self.logical.access(id, op, new_data);
        let (phases, data_ready_phase) =
            striped_phases(&plan, 0..self.cfg.ways, &self.cfg.tree, self.cfg.low_power);
        let mut trace = RequestTrace::new(phases);
        trace.data_ready_phase = data_ready_phase;
        trace.backend = Some(0); // one logical backend spans all SDIMMs
        (data, trace)
    }

    /// The one logical tree: its stash is the union of the SDIMM stash
    /// shares.
    fn trees(&self) -> &[PathOram] {
        std::slice::from_ref(&self.logical)
    }

    fn trees_mut(&mut self) -> &mut [PathOram] {
        std::slice::from_mut(&mut self.logical)
    }

    fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        self.logical.metrics()
    }

    /// Byte-striping hands every SDIMM a share of the *same* logical
    /// address stream, so the inversion goes through the single logical
    /// layout regardless of which channel carried the line.
    fn level_of_channel_line(&self, _channel: usize, addr: u64) -> Option<u32> {
        self.logical.layout().level_of_line(addr)
    }
}

/// Split's steps 1–6 for one `accessORAM` whose logical path traffic is
/// `plan`, with every bucket of `tree` byte-striped over the SDIMMs
/// `members` (in way order). Returns the phases and the phase after
/// which the requested block is on the CPU.
pub(crate) fn striped_phases(
    plan: &AccessPlan,
    members: Range<usize>,
    tree: &OramConfig,
    low_power: bool,
) -> (Vec<Phase>, usize) {
    let k = members.len();
    let per_bucket = tree.lines_per_bucket();
    let lm = (tree.levels + 1 - tree.cached_levels) as u64;
    let mut phases = Vec::new();

    // Step 1: FETCH_DATA to all SDIMMs (short commands).
    let mut p1 = Phase::default();
    for m in members.clone() {
        p1.par.push(Activity::ExtShort { sdimm: m });
    }
    phases.push(p1);

    // Step 2: every SDIMM reads its data share of the path into its
    // local stash, concurrently; decryption overlaps.
    let mut p2 = Phase::default();
    for (m, share) in members.clone().zip(stripe_data_lines(&plan.lines, k, per_bucket)) {
        if low_power {
            p2.par.push(Activity::WakeRank { channel: m, rank: 0 });
        }
        p2.par.push(Activity::Dram { channel: m, reads: share, writes: Vec::new() });
    }
    p2.par.push(Activity::Crypto { units: (plan.lines.len() / k.max(1)) as u32 });
    phases.push(p2);

    // Step 3: the CPU issues conventional reads for the metadata
    // shares: internal DRAM reads plus Lm × (64/k) bytes upstream per
    // SDIMM on the external bus. The CPU needs all of it before it
    // can reassemble tags/leaves/counters, so this is a distinct
    // protocol step.
    let meta_bytes = lm * META_BYTES_PER_BUCKET / k as u64;
    let mut p3 = Phase::default();
    for (m, share) in members.clone().zip(stripe_meta_lines(&plan.lines, k, per_bucket)) {
        p3.par.push(Activity::Dram { channel: m, reads: share, writes: Vec::new() });
        p3.par.push(Activity::ExtMeta { sdimm: m, bytes: meta_bytes });
    }
    phases.push(p3);

    // Steps 4+5: FETCH_STASH retrieves the requested block's k pieces
    // while the RECEIVE_LIST messages (eviction list + reassembled
    // counters) go back down.
    let list_bytes = receive_list_bytes(lm, tree.z as u64);
    let mut p4 = Phase::default();
    for m in members.clone() {
        p4.par.push(Activity::ExtTransfer { sdimm: m, bytes: 64 / k as u64 });
        p4.par.push(Activity::ExtMeta { sdimm: m, bytes: list_bytes });
    }
    phases.push(p4);
    let data_ready_phase = phases.len() - 1;

    // Step 6: concurrent local write-back with re-encryption/MAC.
    let mut p6 = Phase::default();
    for (m, share) in members.zip(stripe(&plan.lines, k, per_bucket)) {
        p6.par.push(Activity::Dram { channel: m, reads: Vec::new(), writes: share });
    }
    p6.par.push(Activity::Crypto { units: (plan.lines.len() / k.max(1)) as u32 });
    phases.push(p6);

    (phases, data_ready_phase)
}

/// Distributes each `per_bucket`-line chunk round-robin over `k` shares
/// with a rotating start, so every share gets `per_bucket/k` lines per
/// bucket on average (byte-striping divides all of a bucket's bits).
pub(crate) fn stripe(lines: &[u64], k: usize, per_bucket: usize) -> Vec<Vec<u64>> {
    let mut shares = vec![Vec::new(); k];
    for (bi, chunk) in lines.chunks(per_bucket).enumerate() {
        for (j, line) in chunk.iter().enumerate() {
            shares[(bi + j) % k].push(*line);
        }
    }
    shares
}

/// Shares of the *data* lines only (the first `per_bucket − 1` lines of
/// each bucket), striped round-robin.
fn stripe_data_lines(lines: &[u64], k: usize, per_bucket: usize) -> Vec<Vec<u64>> {
    let mut shares = vec![Vec::new(); k];
    for (bi, chunk) in lines.chunks(per_bucket).enumerate() {
        let data = &chunk[..chunk.len().saturating_sub(1)];
        for (j, line) in data.iter().enumerate() {
            shares[(bi + j) % k].push(*line);
        }
    }
    shares
}

/// Shares of the *metadata* lines (last line of each bucket): each SDIMM
/// stores `64/k` bytes of every bucket's metadata, packed so it reads
/// `buckets/k` full lines — modeled by dealing the per-bucket metadata
/// lines round-robin.
fn stripe_meta_lines(lines: &[u64], k: usize, per_bucket: usize) -> Vec<Vec<u64>> {
    let mut shares = vec![Vec::new(); k];
    for (bi, chunk) in lines.chunks(per_bucket).enumerate() {
        if let Some(meta) = chunk.last() {
            shares[bi % k].push(*meta);
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(ways: usize) -> SplitOram {
        let tree = OramConfig { levels: 8, ..OramConfig::tiny() };
        SplitOram::new(SplitConfig::new(ways, &tree), 256, 21)
    }

    #[test]
    fn read_your_writes() {
        let mut s = split(2);
        s.access(BlockId(9), Op::Write, Some(&[3u8; 64]));
        let (got, _) = s.access(BlockId(9), Op::Read, None);
        assert_eq!(got, vec![3u8; 64]);
        s.check_invariants();
    }

    #[test]
    fn all_sdimms_participate_every_access() {
        let mut s = split(4);
        let (_, trace) = s.access(BlockId(0), Op::Read, None);
        for i in 0..4 {
            assert!(
                trace
                    .iter_activities()
                    .any(|a| matches!(a, Activity::Dram { channel, .. } if *channel == i)),
                "SDIMM {i} idle during a Split access"
            );
        }
    }

    #[test]
    fn internal_work_splits_roughly_evenly() {
        let mut s = split(2);
        let (_, trace) = s.access(BlockId(1), Op::Read, None);
        let mut per_channel = [0usize; 2];
        for a in trace.iter_activities() {
            if let Activity::Dram { channel, reads, writes } = a {
                per_channel[*channel] += reads.len() + writes.len();
            }
        }
        let diff = per_channel[0].abs_diff(per_channel[1]);
        assert!(diff <= per_channel[0] / 2, "imbalanced stripe: {per_channel:?}");
    }

    #[test]
    fn external_traffic_is_metadata_scale() {
        let mut s = split(2);
        let traces: Vec<_> = (0..16u64).map(|i| s.access(BlockId(i), Op::Read, None).1).collect();
        let ext_lines = traces.iter().map(|t| t.external_bytes()).sum::<u64>() as f64 / 64.0;
        let frac = ext_lines / traces.iter().map(|t| t.dram_lines()).sum::<u64>() as f64;
        assert!(
            frac > 0.02 && frac < 0.35,
            "Split external traffic should be ~10% of path traffic, got {frac}"
        );
    }

    #[test]
    fn split_external_exceeds_independent_style_but_beats_baseline() {
        // Baseline moves the whole path over the external bus; Split only
        // metadata. Sanity-check the ratio.
        let mut s = split(2);
        let (_, trace) = s.access(BlockId(3), Op::Read, None);
        let baseline_lines = s.config().tree.lines_per_access() as f64;
        assert!(trace.external_line_equivalents() < baseline_lines / 3.0);
    }

    #[test]
    fn data_ready_before_writeback() {
        let mut s = split(2);
        let (_, trace) = s.access(BlockId(5), Op::Read, None);
        assert!(trace.data_ready_phase < trace.phases.len() - 1);
    }

    #[test]
    fn receive_list_size_model() {
        assert_eq!(receive_list_bytes(20, 4), 20 * 16);
    }

    #[test]
    #[should_panic(expected = "unsupported split arity")]
    fn three_way_split_rejected() {
        SplitConfig::new(3, &OramConfig::tiny());
    }
}
