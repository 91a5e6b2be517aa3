//! ORAM / protocol oracle: lockstep shadow-memory checking.
//!
//! The oracle drives an ORAM protocol with a deterministic request
//! stream while maintaining the simplest possible model of the same
//! memory — a plain `HashMap` from block id to bytes. After every
//! `accessORAM` the protocol's answer is compared byte-for-byte against
//! the map, and structural invariants are re-checked from outside:
//!
//! * **read-your-writes**: a read returns exactly the last written
//!   bytes (zero-filled for never-written blocks);
//! * **PosMap coherence**: the access fetched the path of the leaf the
//!   position map claimed for the block *before* the access, and every
//!   fetched line lies on that path;
//! * **stash bound**: occupancy returns under the configured limit once
//!   background eviction has run (and never explodes);
//! * **PMMAC counter monotonicity**: in sealed mode, no bucket's write
//!   counter ever decreases (a decrease is a replay);
//! * the ORAM's own `check_invariant` (no duplicates, every block on
//!   its path) is exercised periodically.
//!
//! Every supported protocol uses the same [`ShadowMem`]; mismatch
//! reports carry the protocol, step, block, and both byte strings.

use std::collections::HashMap;
use std::fmt;

use oram::geometry::BucketIdx;
use oram::plb::Plb;
use oram::types::{BlockId, Op, OramConfig, BLOCK_BYTES};
use oram::{FreecursiveOram, PathOram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::{IndependentConfig, IndependentOram, Protocol, SplitConfig, SplitOram};

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

/// Which protocol configuration to drive (the five `accessORAM`
/// implementations of the reproduction).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolKind {
    /// The plain Path ORAM backend. `sealed` additionally enables the
    /// PMMAC sealed store and the counter-monotonicity check.
    PathOram {
        /// Run with encryption/MAC sealing enabled.
        sealed: bool,
    },
    /// Freecursive frontend (recursive posmaps + PLB) over Path ORAM.
    /// `tiny_plb` shrinks the PLB to force eviction write-back traffic.
    Freecursive {
        /// Use a 16-entry PLB instead of the Table II PLB.
        tiny_plb: bool,
    },
    /// The Independent SDIMM protocol.
    Independent {
        /// SDIMM count (power of two).
        sdimms: usize,
    },
    /// The Split SDIMM protocol.
    Split {
        /// Byte-striping ways.
        ways: usize,
    },
    /// The combined Independent + Split protocol.
    IndepSplit {
        /// Independent groups.
        groups: usize,
        /// Split ways per group.
        ways: usize,
    },
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::PathOram { sealed: false } => write!(f, "path-oram"),
            ProtocolKind::PathOram { sealed: true } => write!(f, "path-oram-sealed"),
            ProtocolKind::Freecursive { tiny_plb: false } => write!(f, "freecursive"),
            ProtocolKind::Freecursive { tiny_plb: true } => write!(f, "freecursive-tiny-plb"),
            ProtocolKind::Independent { sdimms } => write!(f, "independent-{sdimms}"),
            ProtocolKind::Split { ways } => write!(f, "split-{ways}"),
            ProtocolKind::IndepSplit { groups, ways } => write!(f, "indep-split-{groups}x{ways}"),
        }
    }
}

/// A divergence between a protocol and the shadow memory (or a violated
/// structural invariant observed from outside).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleMismatch {
    /// Protocol under test.
    pub protocol: String,
    /// Request index in the deterministic stream.
    pub step: usize,
    /// Block the request targeted.
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
    /// Protocol under test.
    pub protocol: String,
    /// Requests driven.
    pub steps: usize,
    /// How many were writes.
    pub writes: usize,
    /// Peak stash occupancy observed.
    pub stash_peak: usize,
}

/// How often the O(tree)-cost `check_invariant` hook runs.
const INVARIANT_PERIOD: usize = 64;

/// Explosion guard for protocols that relieve stash pressure
/// probabilistically (forced drains): the stash may exceed its nominal
/// limit transiently but must stay within a small multiple of it.
const STASH_BLOWUP: usize = 8;

fn pattern(id: u64, step: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (id.wrapping_mul(31) ^ (step as u64).wrapping_mul(7) ^ i as u64) as u8)
        .collect()
}

/// Drives `steps` deterministic requests through the protocol while
/// checking every result against a [`ShadowMem`]. Returns the first
/// divergence, or a report on success.
///
/// # Panics
///
/// Panics if the ORAM's *internal* `check_invariant` hook fires (those
/// panics carry their own description), or if the configuration cannot
/// be constructed.
pub fn check_protocol(
    kind: &ProtocolKind,
    cfg: &OramConfig,
    blocks: u64,
    steps: usize,
    seed: u64,
) -> Result<OracleReport, OracleMismatch> {
    match kind {
        ProtocolKind::PathOram { sealed } => {
            check_path_oram(kind, cfg, blocks, steps, seed, *sealed)
        }
        ProtocolKind::Freecursive { tiny_plb } => {
            check_freecursive(kind, cfg, blocks, steps, seed, *tiny_plb)
        }
        ProtocolKind::Independent { sdimms } => {
            let oram = IndependentOram::new(IndependentConfig::new(*sdimms, 1, cfg), blocks, seed);
            check_request_trace_protocol(kind, cfg, blocks, steps, seed, oram)
        }
        ProtocolKind::Split { ways } => {
            let scfg = SplitConfig::new(*ways, cfg);
            let oram = SplitOram::new(scfg, blocks, seed);
            check_request_trace_protocol(kind, cfg, blocks, steps, seed, oram)
        }
        ProtocolKind::IndepSplit { groups, ways } => {
            let oram =
                IndependentOram::new(IndependentConfig::new(*groups, *ways, cfg), blocks, seed);
            check_request_trace_protocol(kind, cfg, blocks, steps, seed, oram)
        }
    }
}

/// Runs the oracle over every protocol configuration with a shared tree
/// shape, returning the reports (or the first divergence).
pub fn check_all_protocols(
    cfg: &OramConfig,
    blocks: u64,
    steps: usize,
    seed: u64,
) -> Result<Vec<OracleReport>, OracleMismatch> {
    let kinds = [
        ProtocolKind::PathOram { sealed: false },
        ProtocolKind::Freecursive { tiny_plb: false },
        ProtocolKind::Independent { sdimms: 4 },
        ProtocolKind::Split { ways: 4 },
        ProtocolKind::IndepSplit { groups: 2, ways: 2 },
    ];
    kinds.iter().map(|k| check_protocol(k, cfg, blocks, steps, seed)).collect()
}

/// Deterministic (id, op) stream shared by all drivers.
fn next_request(rng: &mut StdRng, blocks: u64, step: usize) -> (u64, Op, Vec<u8>, usize) {
    let id = rng.gen_range(0..blocks);
    let write = rng.gen_bool(0.5);
    let op = if write { Op::Write } else { Op::Read };
    (id, op, Vec::new(), step)
}

fn mismatch(kind: &ProtocolKind, step: usize, block: u64, detail: String) -> OracleMismatch {
    OracleMismatch { protocol: kind.to_string(), step, block, detail }
}

fn bytes_differ(
    kind: &ProtocolKind,
    step: usize,
    id: u64,
    got: &[u8],
    want: &[u8],
) -> OracleMismatch {
    mismatch(
        kind,
        step,
        id,
        format!(
            "returned {} bytes {:02x?}…, shadow expects {} bytes {:02x?}…",
            got.len(),
            &got[..got.len().min(8)],
            want.len(),
            &want[..want.len().min(8)],
        ),
    )
}

fn check_path_oram(
    kind: &ProtocolKind,
    cfg: &OramConfig,
    blocks: u64,
    steps: usize,
    seed: u64,
    sealed: bool,
) -> Result<OracleReport, OracleMismatch> {
    let mut oram = PathOram::new(cfg.clone(), blocks, seed);
    if sealed {
        oram.enable_sealing([0x5D; 16]);
    }
    let mut shadow = ShadowMem::new(BLOCK_BYTES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DDC0FFE);
    let mut counters: HashMap<BucketIdx, u64> = HashMap::new();
    let mut writes = 0;

    for step in 0..steps {
        let (id, op, _, _) = next_request(&mut rng, blocks, step);
        let data = pattern(id, step, BLOCK_BYTES);
        let new_data = if op == Op::Write {
            writes += 1;
            Some(data.as_slice())
        } else {
            None
        };

        // PosMap coherence: capture the claimed leaf before the access.
        let claimed = oram.leaf_of(BlockId(id));
        let (got, plan) = oram.access(BlockId(id), op, new_data);
        let want = shadow.apply(id, op, new_data);
        if got != want {
            return Err(bytes_differ(kind, step, id, &got, &want));
        }
        if plan.leaf != claimed {
            return Err(mismatch(
                kind,
                step,
                id,
                format!("fetched path of {} but the posmap claimed {claimed}", plan.leaf),
            ));
        }
        let path = oram.layout().path_lines(plan.leaf);
        if plan.lines != path {
            return Err(mismatch(
                kind,
                step,
                id,
                format!(
                    "fetched {} lines but the claimed path {} has {}",
                    plan.lines.len(),
                    plan.leaf,
                    path.len()
                ),
            ));
        }

        // Stash bound: after relief the occupancy is under the limit.
        while oram.needs_background_evict() {
            oram.background_evict();
        }
        if oram.stash_len() > cfg.stash_limit {
            return Err(mismatch(
                kind,
                step,
                id,
                format!(
                    "stash at {} after background eviction (limit {})",
                    oram.stash_len(),
                    cfg.stash_limit
                ),
            ));
        }

        // PMMAC counter monotonicity: a decreasing counter is a replay.
        if let Some(tree) = oram.sealed() {
            for idx in tree.indices().collect::<Vec<_>>() {
                // lint: panic-ok(invariant: listed index)
                let counter = tree.raw(idx).expect("listed index").counter;
                let prev = counters.insert(idx, counter).unwrap_or(0);
                if counter < prev {
                    return Err(mismatch(
                        kind,
                        step,
                        id,
                        format!("bucket {idx:?} counter went backwards: {prev} → {counter}"),
                    ));
                }
            }
        }

        if step % INVARIANT_PERIOD == 0 {
            oram.check_invariant();
        }
    }
    oram.check_invariant();
    Ok(OracleReport { protocol: kind.to_string(), steps, writes, stash_peak: oram.stash_peak() })
}

fn check_freecursive(
    kind: &ProtocolKind,
    cfg: &OramConfig,
    blocks: u64,
    steps: usize,
    seed: u64,
    tiny_plb: bool,
) -> Result<OracleReport, OracleMismatch> {
    let mut f = FreecursiveOram::new(cfg.clone(), blocks, seed);
    if tiny_plb {
        // Small and low-associativity: every few requests evict a dirty
        // posmap block, exercising the write-back path.
        f.set_plb(Plb::new(16, 4));
    }
    let mut shadow = ShadowMem::new(BLOCK_BYTES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DDC0FFE);
    let mut writes = 0;

    for step in 0..steps {
        let (id, op, _, _) = next_request(&mut rng, blocks, step);
        let data = pattern(id, step, BLOCK_BYTES);
        let new_data = if op == Op::Write {
            writes += 1;
            Some(data.as_slice())
        } else {
            None
        };
        let (got, plans) = f.request(id, op, new_data);
        let want = shadow.apply(id, op, new_data);
        if got != want {
            return Err(bytes_differ(kind, step, id, &got, &want));
        }
        for plan in &plans {
            let path = f.backend().layout().path_lines(plan.leaf);
            if plan.lines != path {
                return Err(mismatch(
                    kind,
                    step,
                    id,
                    format!("plan fetched lines off the path of {}", plan.leaf),
                ));
            }
        }
        // `request` relieves stash pressure before returning.
        if f.backend().stash_len() > cfg.stash_limit {
            return Err(mismatch(
                kind,
                step,
                id,
                format!(
                    "stash at {} after a fully-relieved request (limit {})",
                    f.backend().stash_len(),
                    cfg.stash_limit
                ),
            ));
        }
        if step % INVARIANT_PERIOD == 0 {
            f.backend().check_invariant();
        }
    }
    f.backend().check_invariant();
    Ok(OracleReport {
        protocol: kind.to_string(),
        steps,
        writes,
        stash_peak: f.backend().stash_peak(),
    })
}

/// Shared driver for the three SDIMM protocols.
fn check_request_trace_protocol<O: Protocol>(
    kind: &ProtocolKind,
    cfg: &OramConfig,
    blocks: u64,
    steps: usize,
    seed: u64,
    mut oram: O,
) -> Result<OracleReport, OracleMismatch> {
    let mut shadow = ShadowMem::new(BLOCK_BYTES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DDC0FFE);
    let mut writes = 0;

    for step in 0..steps {
        let (id, op, _, _) = next_request(&mut rng, blocks, step);
        let data = pattern(id, step, BLOCK_BYTES);
        let new_data = if op == Op::Write {
            writes += 1;
            Some(data.as_slice())
        } else {
            None
        };
        let (got, _) = oram.access(BlockId(id), op, new_data);
        let want = shadow.apply(id, op, new_data);
        if got != want {
            return Err(bytes_differ(kind, step, id, &got, &want));
        }
        // These protocols relieve stash pressure with probabilistic
        // forced drains, so the bound here is an explosion guard rather
        // than the hard limit.
        if oram.stash_peak() > cfg.stash_limit * STASH_BLOWUP {
            return Err(mismatch(
                kind,
                step,
                id,
                format!(
                    "stash peak {} exceeded the {}× explosion guard (limit {})",
                    oram.stash_peak(),
                    STASH_BLOWUP,
                    cfg.stash_limit
                ),
            ));
        }
        if step % INVARIANT_PERIOD == 0 {
            oram.check_invariants();
        }
    }
    oram.check_invariants();
    Ok(OracleReport { protocol: kind.to_string(), steps, writes, stash_peak: oram.stash_peak() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> OramConfig {
        OramConfig { levels: 8, stash_limit: 64, ..OramConfig::default() }
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
        let rep =
            check_protocol(&ProtocolKind::PathOram { sealed: false }, &small_cfg(), 256, 300, 1)
                .expect("lockstep");
        assert_eq!(rep.steps, 300);
        assert!(rep.writes > 0);
    }

    #[test]
    fn sealed_path_oram_lockstep_holds_with_counter_check() {
        let cfg = small_cfg();
        let rep = check_protocol(&ProtocolKind::PathOram { sealed: true }, &cfg, 128, 150, 2)
            .expect("lockstep");
        assert_eq!(rep.protocol, "path-oram-sealed");
    }

    #[test]
    fn freecursive_lockstep_holds_including_tiny_plb() {
        let cfg = OramConfig { levels: 10, stash_limit: 100, ..OramConfig::default() };
        check_protocol(&ProtocolKind::Freecursive { tiny_plb: false }, &cfg, 1024, 200, 3)
            .expect("lockstep");
        check_protocol(&ProtocolKind::Freecursive { tiny_plb: true }, &cfg, 1024, 200, 4)
            .expect("lockstep with PLB pressure");
    }

    #[test]
    fn sdimm_protocols_lockstep_holds() {
        let cfg = small_cfg();
        check_protocol(&ProtocolKind::Independent { sdimms: 4 }, &cfg, 256, 200, 5)
            .expect("independent");
        check_protocol(&ProtocolKind::Split { ways: 4 }, &cfg, 256, 200, 6).expect("split");
        check_protocol(&ProtocolKind::IndepSplit { groups: 2, ways: 2 }, &cfg, 256, 200, 7)
            .expect("indep-split");
    }

    #[test]
    fn oracle_catches_a_lying_memory() {
        // Sanity-check the checker itself: a shadow fed different bytes
        // must diverge.
        let mut shadow = ShadowMem::new(8);
        shadow.apply(1, Op::Write, Some(&[1; 8]));
        let got = vec![2u8; 8];
        assert_ne!(got, shadow.apply(1, Op::Read, None));
    }
}
