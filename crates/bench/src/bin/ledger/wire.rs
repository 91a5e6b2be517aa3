//! The `wire-kv` workload: one closed-loop client issuing a key-value
//! stream through `sdimm::buffer::WireSystem`, where every access runs
//! real sealed sessions and sealed buckets but no timing model. Plus the
//! layer probes of its traced run: the same stream replayed through a
//! standalone `oram::PathOram` (plain and sealed) and the `sdimm_crypto`
//! kernels the wire path is built from.

use std::collections::HashMap;
use std::hint::black_box;

use oram::path_oram::PathOram;
use oram::types::{BlockId, Op, OramConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::buffer::WireSystem;
use sdimm_crypto::aes::Aes128;
use sdimm_crypto::ctr::CtrCipher;
use sdimm_crypto::pmmac::BucketAuth;
use sdimm_crypto::session::{handshake, DeviceId};

use crate::clock;
use crate::stats::{fnv1a, median, FNV_OFFSET};
use crate::tracer::{Layer, Tracer};

/// Seed of the booted system's own randomness (session secrets, remaps).
/// Fixed: the benchmark's `--seed` reaches only the operation stream.
const SYSTEM_SEED: u64 = 1;

/// Tree key of the standalone sealed replay.
const REPLAY_SEAL: [u8; 16] = [0x5a; 16];

/// Sizes of a wire-kv run.
#[derive(Debug)]
pub struct WireModel {
    pub sdimms: usize,
    /// The global tree; each SDIMM holds one subtree of it.
    pub tree: OramConfig,
    pub blocks: u64,
    /// Accesses per repetition.
    pub ops: usize,
    /// Kernel iterations per batch of the crypto probes.
    pub kernel_iters: usize,
}

impl WireModel {
    /// The benchmark's configuration: 2 SDIMMs under a 20-level tree.
    pub fn benchmark() -> Self {
        WireModel {
            sdimms: 2,
            tree: OramConfig { levels: 20, ..OramConfig::default() },
            blocks: 1 << 18,
            ops: 7_000,
            kernel_iters: 10_000,
        }
    }

    /// The per-SDIMM subtree `WireSystem::boot` builds.
    fn subtree(&self) -> OramConfig {
        OramConfig { levels: self.tree.levels - self.sdimms.trailing_zeros(), ..self.tree.clone() }
    }

    pub fn boot(&self) -> WireSystem {
        WireSystem::boot(self.sdimms, &self.tree, self.blocks, SYSTEM_SEED)
    }
}

/// One access of the stream: a read, or a write of `Some(data)`.
#[derive(Debug)]
pub struct WireOp {
    pub id: u64,
    pub write: Option<[u8; 64]>,
}

/// The operation stream for `seed`: uniform block ids, half writes.
pub fn generate(model: &WireModel, seed: u64) -> Vec<WireOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..model.ops)
        .map(|_| {
            let id = rng.gen_range(0..model.blocks);
            let write = if rng.gen_bool(0.5) { Some(rng.gen::<[u8; 64]>()) } else { None };
            WireOp { id, write }
        })
        .collect()
}

/// Read-your-writes check against a shadow map: every read of a written
/// block must return the last value written.
#[derive(Debug, Default)]
struct Shadow {
    last: HashMap<u64, [u8; 64]>,
}

impl Shadow {
    /// Records `op`'s effect; true when `got` is what the op must return.
    fn check(&mut self, op: &WireOp, got: &[u8]) -> bool {
        match op.write {
            Some(data) => {
                self.last.insert(op.id, data);
                true
            }
            None => self.last.get(&op.id).is_none_or(|want| want[..] == *got),
        }
    }
}

/// Outcome of one pass of the stream over a freshly booted system.
#[derive(Debug)]
pub struct WireRep {
    /// Host ns per access (empty for a traced pass, whose spans time it).
    pub access_ns: Vec<u64>,
    pub wall_s: f64,
    /// FNV-1a over every returned block: equal passes return equal data.
    pub digest: u64,
    /// Accesses that errored or broke read-your-writes.
    pub failed: u64,
}

/// Runs `ops` against `sys`, spanning each access when `tracer` is given.
pub fn rep(sys: &mut WireSystem, ops: &[WireOp], mut tracer: Option<&mut Tracer>) -> WireRep {
    let mut shadow = Shadow::default();
    let mut out = WireRep {
        access_ns: Vec::with_capacity(if tracer.is_some() { 0 } else { ops.len() }),
        wall_s: 0.0,
        digest: FNV_OFFSET,
        failed: 0,
    };
    let start = clock::now();
    for op in ops {
        let (id, kind) = (BlockId(op.id), if op.write.is_some() { Op::Write } else { Op::Read });
        let got = match tracer.as_deref_mut() {
            Some(t) => t.span(Layer::WireAccess, || sys.access(id, kind, op.write)),
            None => {
                let t0 = clock::now();
                let got = sys.access(id, kind, op.write);
                out.access_ns.push(clock::ns_since(t0));
                got
            }
        };
        match got {
            Ok(data) => {
                out.digest = fnv1a(out.digest, &data);
                if !shadow.check(op, &data) {
                    out.failed += 1;
                }
            }
            Err(_) => {
                out.digest = fnv1a(out.digest, b"err");
                out.failed += 1;
            }
        }
    }
    out.wall_s = clock::secs_since(start);
    out
}

/// Replays `ops` through a standalone `PathOram` of the wire system's
/// subtree shape, plain or sealed. Returns host ns per access and the
/// accesses that broke read-your-writes.
pub fn path_replay(model: &WireModel, ops: &[WireOp], sealed: bool) -> (f64, u64) {
    let mut oram = PathOram::new(model.subtree(), model.blocks, SYSTEM_SEED);
    if sealed {
        oram.enable_sealing(REPLAY_SEAL);
    }
    let mut shadow = Shadow::default();
    let mut failed = 0;
    let start = clock::now();
    for op in ops {
        let kind = if op.write.is_some() { Op::Write } else { Op::Read };
        let (data, _plan) = oram.access(BlockId(op.id), kind, op.write.as_ref().map(|d| &d[..]));
        if !shadow.check(op, &data) {
            failed += 1;
        }
    }
    (clock::ns_since(start) as f64 / ops.len().max(1) as f64, failed)
}

/// Host cost of the crypto kernels under the wire path, each the median
/// of several batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CryptoCosts {
    pub aes128_block_ns: f64,
    pub ctr_keystream_line_ns: f64,
    /// Seal then open of one Z=4 bucket image (256 B).
    pub bucket_seal_open_ns: f64,
    /// Seal then open of one 64 B session message.
    pub session_seal_open_64b_ns: f64,
    /// Round trips that did not return their plaintext.
    pub failed: u64,
}

const KERNEL_BATCHES: usize = 5;

/// Median ns per iteration of `f` over [`KERNEL_BATCHES`] batches.
fn per_iter_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..KERNEL_BATCHES)
        .map(|_| {
            let start = clock::now();
            for i in 0..iters {
                f(i);
            }
            clock::ns_since(start) as f64 / iters.max(1) as f64
        })
        .collect();
    median(&batches)
}

pub fn crypto_kernels(iters: usize) -> CryptoCosts {
    let mut failed = 0;
    let aes = Aes128::new(&[0x2b; 16]);
    let mut block = [0u8; 16];
    // A dependent chain: each block encrypts the previous ciphertext.
    let aes128_block_ns = per_iter_ns(iters * 16, |_| block = aes.encrypt_block(black_box(block)));
    black_box(block);

    let ctr = CtrCipher::new(Aes128::new(&[0x3c; 16]), 7);
    let ctr_keystream_line_ns = per_iter_ns(iters * 4, |i| {
        black_box(ctr.keystream_line(black_box(i as u64)));
    });

    let auth = BucketAuth::new(&[0x11; 16], &[0x22; 16]);
    let bucket = [0xab_u8; 256];
    let bucket_seal_open_ns = per_iter_ns(iters / 2, |i| {
        let sealed = auth.seal(9, i as u64, black_box(&bucket));
        if auth.open(9, &sealed).map_or(true, |p| p[..] != bucket[..]) {
            failed += 1;
        }
    });

    let (mut cpu, mut buffer) = handshake(DeviceId([1; 16]), [3; 16], [4; 16]);
    let message = [0x5c_u8; 64];
    let session_seal_open_64b_ns = per_iter_ns(iters, |_| {
        let sealed = cpu.seal(black_box(&message));
        if buffer.open(&sealed).map_or(true, |p| p[..] != message[..]) {
            failed += 1;
        }
    });

    CryptoCosts {
        aes128_block_ns,
        ctr_keystream_line_ns,
        bucket_seal_open_ns,
        session_seal_open_64b_ns,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WireModel {
        WireModel {
            sdimms: 2,
            tree: OramConfig { levels: 8, ..OramConfig::tiny() },
            blocks: 64,
            ops: 300,
            kernel_iters: 8,
        }
    }

    #[test]
    fn stream_is_seeded_and_mixed() {
        let m = tiny();
        let a = generate(&m, 9);
        let writes = a.iter().filter(|o| o.write.is_some()).count();
        assert!((100..200).contains(&writes), "about half writes, got {writes}");
        assert!(a.iter().all(|o| o.id < m.blocks));
        let b = generate(&m, 9);
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id && x.write == y.write));
        assert!(generate(&m, 10).iter().zip(&a).any(|(x, y)| x.id != y.id));
    }

    #[test]
    fn passes_read_their_writes_and_repeat_exactly() {
        let m = tiny();
        let ops = generate(&m, 3);
        let first = rep(&mut m.boot(), &ops, None);
        assert_eq!(first.failed, 0);
        assert_eq!(first.access_ns.len(), ops.len());
        let mut t = Tracer::default();
        let traced = rep(&mut m.boot(), &ops, Some(&mut t));
        assert_eq!((traced.failed, traced.digest), (0, first.digest));
        assert_eq!(t.totals(Layer::WireAccess).calls, ops.len() as u64);
    }

    #[test]
    fn shadow_catches_a_stale_read() {
        let mut s = Shadow::default();
        let w = WireOp { id: 4, write: Some([1; 64]) };
        assert!(s.check(&w, &[0; 64]));
        let r = WireOp { id: 4, write: None };
        assert!(s.check(&r, &[1; 64]));
        assert!(!s.check(&r, &[0; 64]));
        assert!(s.check(&WireOp { id: 5, write: None }, &[7; 64]), "unwritten blocks are free");
    }

    #[test]
    fn layer_probes_run_clean() {
        let m = tiny();
        let ops = generate(&m, 4);
        for sealed in [false, true] {
            let (ns, failed) = path_replay(&m, &ops, sealed);
            assert!(ns > 0.0);
            assert_eq!(failed, 0, "sealed={sealed}");
        }
        let c = crypto_kernels(m.kernel_iters);
        assert_eq!(c.failed, 0);
        assert!(c.aes128_block_ns > 0.0 && c.session_seal_open_64b_ns > 0.0);
    }
}
