//! Property-based tests (proptest) over the core invariants: Path ORAM
//! consistency under arbitrary operation sequences, crypto round-trips
//! and tamper detection, split/reassemble inverses, geometry laws, and
//! trace-generator bounds.

use oram::geometry::Geometry;
use oram::types::{BlockId, Leaf, Op, OramConfig};
use oram::PathOram;
use proptest::prelude::*;
use sdimm_crypto::aes::Aes128;
use sdimm_crypto::ctr::CtrCipher;
use sdimm_crypto::mac::Cmac;
use sdimm_crypto::pmmac::{join_bytes, reassemble_counter, split_bytes, split_counter, BucketAuth};

const BLOCKS: u64 = 128;

#[derive(Debug, Clone)]
enum OramOp {
    Read(u64),
    Write(u64, Vec<u8>),
}

fn oram_op() -> impl Strategy<Value = OramOp> {
    prop_oneof![
        (0..BLOCKS).prop_map(OramOp::Read),
        (0..BLOCKS, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(id, data)| OramOp::Write(id, data)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Path ORAM behaves exactly like a HashMap under any op sequence,
    /// and its structural invariant holds afterwards.
    #[test]
    fn path_oram_matches_reference_map(ops in proptest::collection::vec(oram_op(), 1..120)) {
        let mut oram = PathOram::new(OramConfig { levels: 8, ..OramConfig::tiny() }, BLOCKS, 5);
        let mut reference: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for op in ops {
            match op {
                OramOp::Write(id, data) => {
                    oram.access(BlockId(id), Op::Write, Some(&data));
                    reference.insert(id, data);
                }
                OramOp::Read(id) => {
                    let (got, _) = oram.access(BlockId(id), Op::Read, None);
                    match reference.get(&id) {
                        Some(expect) => prop_assert_eq!(&got, expect),
                        None => prop_assert!(got.iter().all(|&b| b == 0)),
                    }
                }
            }
        }
        oram.check_invariant();
    }

    /// Every access plan covers exactly the configured path size, each
    /// line once.
    #[test]
    fn access_plans_are_path_shaped(id in 0..BLOCKS, cached in 0u32..4) {
        let cfg = OramConfig { levels: 8, cached_levels: cached, ..OramConfig::tiny() };
        let mut oram = PathOram::new(cfg.clone(), BLOCKS, 6);
        let (_, plan) = oram.access(BlockId(id), Op::Read, None);
        prop_assert_eq!(plan.total_lines(), cfg.lines_per_access());
        // No duplicate lines within the path.
        let mut sorted = plan.lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), plan.lines.len());
    }

    /// CTR encryption round-trips for arbitrary payloads and never fixes
    /// a non-empty plaintext.
    #[test]
    fn ctr_roundtrip(key in any::<[u8; 16]>(), counter in any::<u64>(),
                     data in proptest::collection::vec(any::<u8>(), 1..256)) {
        let cipher = CtrCipher::new(Aes128::new(&key), 7);
        let mut buf = data.clone();
        cipher.apply(counter, &mut buf);
        prop_assert_ne!(&buf, &data, "encryption must change the payload");
        cipher.apply(counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// CMAC verification accepts the genuine tag and rejects any
    /// single-byte corruption of the message.
    #[test]
    fn cmac_detects_any_single_byte_flip(
        key in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 1..64),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mac = Cmac::new(&key);
        let tag = mac.tag(&data);
        prop_assert!(mac.verify(&data, &tag));
        let mut tampered = data.clone();
        let pos = pos_seed % tampered.len();
        tampered[pos] ^= 1 << bit;
        prop_assert!(!mac.verify(&tampered, &tag));
    }

    /// PMMAC sealed buckets round-trip and reject counter tampering.
    #[test]
    fn pmmac_roundtrip_and_replay(bucket_id in any::<u64>(), counter in 0u64..1_000_000,
                                  data in proptest::collection::vec(any::<u8>(), 1..128)) {
        let auth = BucketAuth::new(&[1; 16], &[2; 16]);
        let sealed = auth.seal(bucket_id, counter, &data);
        prop_assert_eq!(auth.open(bucket_id, &sealed).unwrap(), data);
        let mut stale = sealed;
        stale.counter = stale.counter.wrapping_add(1);
        prop_assert!(auth.open(bucket_id, &stale).is_err());
    }

    /// Counter splitting is a bijection for every supported arity.
    #[test]
    fn counter_split_roundtrip(counter in any::<u64>()) {
        for n in [1usize, 2, 4, 8] {
            prop_assert_eq!(reassemble_counter(&split_counter(counter, n)), counter);
        }
    }

    /// Byte striping is a bijection and balances share sizes within one.
    #[test]
    fn byte_split_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200),
                            n in 1usize..6) {
        let parts = split_bytes(&data, n);
        prop_assert_eq!(join_bytes(&parts), data);
        let max = parts.iter().map(Vec::len).max().unwrap_or(0);
        let min = parts.iter().map(Vec::len).min().unwrap_or(0);
        prop_assert!(max - min <= 1, "stripe imbalance {max}-{min}");
    }

    /// Geometry: every bucket on a leaf's path is an ancestor chain and
    /// `on_path` agrees with `bucket_at`.
    #[test]
    fn geometry_paths_are_ancestor_chains(levels in 2u32..12, leaf_seed in any::<u64>()) {
        let geo = Geometry::new(levels);
        let leaf = Leaf(leaf_seed % geo.leaf_count());
        let path = geo.path(leaf);
        prop_assert_eq!(path.len() as u32, levels + 1);
        for w in path.windows(2) {
            prop_assert_eq!((w[1].0 - 1) / 2, w[0].0);
        }
        for b in &path {
            prop_assert!(geo.on_path(*b, leaf));
        }
    }

    /// shard_of is consistent with local-leaf reconstruction: the routing
    /// the Independent protocol uses.
    #[test]
    fn shard_routing_roundtrip(levels in 3u32..14, parts_log in 0u32..3, leaf_seed in any::<u64>()) {
        let geo = Geometry::new(levels);
        let parts = 1usize << parts_log;
        let leaf = Leaf(leaf_seed % geo.leaf_count());
        let shard = geo.shard_of(leaf, parts);
        let local_leaves = geo.leaf_count() / parts as u64;
        let reconstructed = shard as u64 * local_leaves + (leaf.0 % local_leaves);
        prop_assert_eq!(reconstructed, leaf.0);
    }

    /// Trace generation: records stay line-aligned inside the footprint
    /// with the requested length, for arbitrary generator seeds.
    #[test]
    fn traces_respect_bounds(seed in any::<u64>(), n in 1usize..400) {
        let trace = workloads::spec::generate("soplex-like", n, seed);
        prop_assert_eq!(trace.len(), n);
        for r in &trace.records {
            prop_assert_eq!(r.addr % 64, 0);
            prop_assert!(r.addr < trace.footprint_bytes);
        }
    }
}
