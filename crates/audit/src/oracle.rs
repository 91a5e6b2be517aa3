//! ORAM oracle: lockstep shadow-memory checking of a machine's backend.
//!
//! [`lockstep`] drives an `sdimm::Protocol` backend, behind its optional
//! Freecursive frontend, with a deterministic request stream while
//! keeping the simplest possible model of the same memory — a plain
//! `HashMap` from block id to bytes. Each request is planned the way a
//! simulated machine plans it (`Machine::request_traces`): the
//! frontend's position-map accesses carry empty payloads, and the
//! demand access carries real bytes, which are compared with the map.
//! After every request the oracle re-checks from outside:
//!
//! * **read-your-writes**: a read returns exactly the last written
//!   bytes (zero-filled for never-written blocks);
//! * **stash bound**: no tree's stash holds more than its configured
//!   limit (the rule the runner's stash-breach black box applies);
//! * **traffic model**: every trace moves a positive whole multiple of
//!   one uncached access's `2(Z+1)(L+1−cached)` DRAM lines, and every
//!   line maps back to an uncached tree level, each level equally often;
//! * **PMMAC counter monotonicity**: on every sealed tree, no bucket's
//!   write counter ever decreases (a decrease is a replay);
//! * the trees' own Path ORAM invariant (no duplicates, every block on
//!   its path), every [`INVARIANT_PERIOD`] requests and at the end.
//!
//! The backend is whatever the caller built: `--audit` builds each
//! figure panel's machines with `sdimm_system::machine::build_oram`,
//! the function `Machine::new` runs them on, from the panel's own
//! configuration. Mismatch reports carry the machine, step, block, and
//! what diverged.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use oram::freecursive::{Frontend, PlannedAccess};
use oram::geometry::BucketIdx;
use oram::types::{BlockId, Op, BLOCK_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::trace::{Activity, RequestTrace};
use sdimm::Protocol;

/// The trivially-correct reference memory.
#[derive(Debug, Default)]
pub struct ShadowMem {
    map: HashMap<u64, Vec<u8>>,
    block_bytes: usize,
}

impl ShadowMem {
    /// A shadow for blocks of `block_bytes` bytes.
    pub fn new(block_bytes: usize) -> Self {
        ShadowMem { map: HashMap::new(), block_bytes }
    }

    /// Applies one `accessORAM` to the shadow and returns the bytes the
    /// real protocol must return: the stored (or zero) contents for a
    /// read, the new contents for a write. Mirrors `PathOram::serve`.
    pub fn apply(&mut self, id: u64, op: Op, new_data: Option<&[u8]>) -> Vec<u8> {
        match op {
            Op::Read => self.map.get(&id).cloned().unwrap_or_else(|| vec![0; self.block_bytes]),
            Op::Write => {
                let data = new_data.unwrap_or_default().to_vec();
                self.map.insert(id, data.clone());
                data
            }
        }
    }

    /// Blocks written so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A divergence between a backend and the shadow memory (or a violated
/// structural invariant observed from outside).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleMismatch {
    /// Machine under test.
    pub protocol: String,
    /// Request index in the deterministic stream.
    pub step: usize,
    /// Data block the request targeted.
    pub block: u64,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for OracleMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} step {} block {}: {}", self.protocol, self.step, self.block, self.detail)
    }
}

impl std::error::Error for OracleMismatch {}

/// Successful lockstep run statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Machine under test.
    pub protocol: String,
    /// Requests driven.
    pub steps: usize,
    /// How many were writes.
    pub writes: usize,
    /// Peak stash occupancy observed.
    pub stash_peak: usize,
}

/// Data blocks the requests draw their ids from: few enough that reads
/// keep hitting earlier writes.
pub const ORACLE_BLOCKS: u64 = 512;

/// How often the O(tree)-cost `check_invariants` hook runs.
pub const INVARIANT_PERIOD: usize = 64;

fn pattern(id: u64, step: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (id.wrapping_mul(31) ^ (step as u64).wrapping_mul(7) ^ i as u64) as u8)
        .collect()
}

/// Drives `steps` deterministic requests (half of them writes, ids from
/// the first [`ORACLE_BLOCKS`] data blocks, or all of them when there
/// are fewer) through `frontend`'s plans
/// on `backend`, checking every request as the module doc lists, and
/// returns the first divergence or a report on success. `name` labels
/// both.
///
/// # Panics
///
/// Panics if a tree's own `check_invariant` fires (those panics carry
/// their own description).
pub fn lockstep(
    name: &str,
    mut frontend: Option<&mut Frontend>,
    backend: &mut dyn Protocol,
    steps: usize,
    seed: u64,
) -> Result<OracleReport, OracleMismatch> {
    // Without a frontend the position map is on chip and the tree's ids
    // are the data blocks themselves.
    let data_blocks =
        frontend.as_deref().map_or(backend.trees()[0].blocks(), |f| f.id_space().level_blocks(0));
    let blocks = data_blocks.min(ORACLE_BLOCKS);
    let stash_limit = backend.trees()[0].config().stash_limit;
    let mut shadow = ShadowMem::new(BLOCK_BYTES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DDC0FFE);
    let mut counters: HashMap<(usize, BucketIdx), u64> = HashMap::new();
    let mut writes = 0;

    for step in 0..steps {
        let id = rng.gen_range(0..blocks);
        let op = if rng.gen_bool(0.5) { Op::Write } else { Op::Read };
        let data = pattern(id, step, BLOCK_BYTES);
        let new_data = (op == Op::Write).then_some(data.as_slice());
        writes += usize::from(op == Op::Write);
        let fail =
            |detail: String| OracleMismatch { protocol: name.to_string(), step, block: id, detail };

        let (got, traces) = serve(frontend.as_deref_mut(), backend, id, op, new_data);
        for trace in &traces {
            check_traffic(&*backend, trace).map_err(&fail)?;
        }
        let want = shadow.apply(id, op, new_data);
        if got != want {
            return Err(fail(format!(
                "returned {} bytes {:02x?}…, shadow expects {} bytes {:02x?}…",
                got.len(),
                &got[..got.len().min(8)],
                want.len(),
                &want[..want.len().min(8)],
            )));
        }

        if backend.max_stash_len() > stash_limit {
            return Err(fail(format!(
                "stash at {} after the request (limit {stash_limit})",
                backend.max_stash_len()
            )));
        }

        // PMMAC counter monotonicity: a decreasing counter is a replay.
        for (t, tree) in backend.trees().iter().enumerate() {
            let Some(sealed) = tree.sealed() else { continue };
            for idx in sealed.indices() {
                // lint: panic-ok(invariant: listed index)
                let counter = sealed.raw(idx).expect("listed index").counter;
                let prev = counters.insert((t, idx), counter).unwrap_or(0);
                if counter < prev {
                    return Err(fail(format!(
                        "tree {t} bucket {idx:?} counter went backwards: {prev} → {counter}"
                    )));
                }
            }
        }

        if step % INVARIANT_PERIOD == 0 {
            backend.check_invariants();
        }
    }
    backend.check_invariants();
    Ok(OracleReport { protocol: name.to_string(), steps, writes, stash_peak: backend.stash_peak() })
}

/// Serves one CPU request on data block `index` as a machine plans it
/// (`Machine::request_traces`): `frontend`'s plan, or the demand access
/// alone without one, each access on `backend` in order. Position-map
/// accesses carry empty payloads and the demand access carries
/// `new_data`. Returns the demand access's bytes and every access's
/// trace.
///
/// # Panics
///
/// Panics if `index` is outside the frontend's data blocks or the
/// backend's id space.
pub fn serve(
    frontend: Option<&mut Frontend>,
    backend: &mut dyn Protocol,
    index: u64,
    op: Op,
    new_data: Option<&[u8]>,
) -> (Vec<u8>, Vec<RequestTrace>) {
    let plan = match frontend {
        Some(f) => f.plan_request(index, op),
        None => vec![PlannedAccess { id: BlockId(index), op, is_posmap: false }],
    };
    let mut got = Vec::new();
    let mut traces = Vec::with_capacity(plan.len());
    for p in plan {
        let payload = if p.is_posmap { Some(&[][..]) } else { new_data };
        let (bytes, trace) = backend.access(p.id, p.op, payload);
        if !p.is_posmap {
            got = bytes;
        }
        traces.push(trace);
    }
    (got, traces)
}

/// The traffic model, per trace: a positive whole multiple of one
/// uncached access's lines, every line on an uncached level of tree 0's
/// shape (all trees share it), and every such level equally often, as
/// whole paths read and written back give.
fn check_traffic(backend: &dyn Protocol, trace: &RequestTrace) -> Result<(), String> {
    let tree = backend.trees()[0].config();
    let per_access = tree.lines_per_access() as u64;
    let lines = trace.dram_lines();
    if lines == 0 || !lines.is_multiple_of(per_access) {
        return Err(format!("trace moves {lines} DRAM lines, not a multiple of {per_access}"));
    }
    let mut per_level = BTreeMap::new();
    for a in trace.iter_activities() {
        let Activity::Dram { channel, reads, writes } = a else { continue };
        for &addr in reads.iter().chain(writes) {
            let Some(level) = backend.level_of_channel_line(*channel, addr) else {
                return Err(format!("channel {channel} line {addr:#x} maps to no tree level"));
            };
            *per_level.entry(level).or_insert(0u64) += 1;
        }
    }
    let count = per_level.values().next().copied();
    if !per_level.keys().copied().eq(tree.cached_levels..=tree.levels)
        || per_level.values().any(|&c| Some(c) != count)
    {
        let (first, last) = (tree.cached_levels, tree.levels);
        return Err(format!("lines per tree level {per_level:?}, not {first}..={last} evenly"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use oram::path_oram::PathOram;
    use oram::plb::Plb;
    use oram::types::OramConfig;
    use sdimm::{BaselineOram, IndependentConfig, IndependentOram, SplitConfig, SplitOram};

    use super::*;

    fn small_cfg() -> OramConfig {
        OramConfig { levels: 10, stash_limit: 64, ..OramConfig::default() }
    }

    /// A baseline backend over a fresh tree of `ORACLE_BLOCKS` blocks.
    fn baseline(seed: u64) -> BaselineOram {
        BaselineOram::new(PathOram::new(small_cfg(), ORACLE_BLOCKS, seed), 1)
    }

    #[test]
    fn shadow_mem_mirrors_serve_semantics() {
        let mut s = ShadowMem::new(64);
        assert_eq!(s.apply(3, Op::Read, None), vec![0u8; 64]);
        assert_eq!(s.apply(3, Op::Write, Some(&[7; 64])), vec![7u8; 64]);
        assert_eq!(s.apply(3, Op::Read, None), vec![7u8; 64]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn path_oram_lockstep_holds() {
        let rep = lockstep("path-oram", None, &mut baseline(1), 300, 1).expect("lockstep");
        assert_eq!(rep.steps, 300);
        assert!(rep.writes > 0);
    }

    #[test]
    fn sealed_path_oram_lockstep_holds_with_counter_check() {
        let mut tree = PathOram::new(small_cfg(), ORACLE_BLOCKS, 2);
        tree.enable_sealing([0x5D; 16]);
        let rep =
            lockstep("sealed", None, &mut BaselineOram::new(tree, 1), 150, 2).expect("lockstep");
        assert_eq!(rep.protocol, "sealed");
    }

    #[test]
    fn freecursive_lockstep_holds_including_tiny_plb() {
        for (seed, plb) in [(3, None), (4, Some(Plb::new(16, 4)))] {
            let mut frontend = Frontend::new(1024);
            if let Some(plb) = plb {
                frontend.set_plb(plb);
            }
            let blocks = frontend.id_space().total_blocks();
            let tree = PathOram::new(small_cfg(), blocks, seed);
            let mut backend = BaselineOram::new(tree, 2);
            lockstep("freecursive", Some(&mut frontend), &mut backend, 200, seed)
                .expect("lockstep");
        }
    }

    #[test]
    fn sdimm_protocols_lockstep_holds() {
        let cfg = small_cfg();
        let mut indep = IndependentOram::new(IndependentConfig::new(4, 1, &cfg), 512, 5);
        lockstep("independent", None, &mut indep, 200, 5).expect("independent");
        let mut split = SplitOram::new(SplitConfig::new(4, &cfg), 512, 6);
        lockstep("split", None, &mut split, 200, 6).expect("split");
        let mut combined = IndependentOram::new(IndependentConfig::new(2, 2, &cfg), 512, 7);
        lockstep("indep-split", None, &mut combined, 200, 7).expect("indep-split");
    }

    /// A baseline that drops every payload: the fault the byte check
    /// exists for, and one no timing number shows.
    #[derive(Debug)]
    struct Forgetful(BaselineOram);

    impl Protocol for Forgetful {
        fn access(&mut self, id: BlockId, op: Op, _: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
            self.0.access(id, op, Some(&[]))
        }

        fn trees(&self) -> &[PathOram] {
            self.0.trees()
        }

        fn trees_mut(&mut self) -> &mut [PathOram] {
            self.0.trees_mut()
        }

        fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
            self.0.metrics()
        }

        fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32> {
            self.0.level_of_channel_line(channel, addr)
        }
    }

    #[test]
    fn oracle_catches_a_lying_memory() {
        let m = lockstep("forgetful", None, &mut Forgetful(baseline(8)), 300, 8)
            .expect_err("a backend that drops payloads must diverge");
        assert_eq!(m.protocol, "forgetful");
        assert!(m.detail.contains("shadow expects"), "{m}");
    }
}
