//! Cross-crate functional equivalence: the same logical workload must
//! return identical data through every machine's backend — the PATHORAM
//! and FREECURSIVE baselines and all three SDIMM protocols.

use oram::types::{BlockId, Op, OramConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::independent::{IndependentConfig, IndependentOram};
use sdimm::split::{SplitConfig, SplitOram};
use sdimm::Protocol;
use sdimm_audit::oracle::serve;
use sdimm_system::machine::{build_oram, MachineKind, SystemConfig};

const BLOCKS: u64 = 512;

/// A deterministic mixed read/write workload; returns the value every
/// read observed, so backends can be compared step by step.
fn workload(mut access: impl FnMut(u64, Op, Option<&[u8]>) -> Vec<u8>) -> Vec<(u64, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(1234);
    let mut log = Vec::new();
    for step in 0..800u64 {
        let id = rng.gen_range(0..BLOCKS);
        if rng.gen_bool(0.4) {
            let val = vec![(step % 251) as u8; 24];
            access(id, Op::Write, Some(&val));
        } else {
            let got = access(id, Op::Read, None);
            log.push((id, got));
        }
    }
    log
}

fn tree() -> OramConfig {
    OramConfig { levels: 10, ..OramConfig::default() }
}

/// The workload on `kind`'s frontend and backend, as its machine builds
/// them over [`tree`] and [`BLOCKS`] data blocks.
fn machine_reads(kind: MachineKind) -> Vec<(u64, Vec<u8>)> {
    let cfg =
        SystemConfig { oram: tree(), data_blocks: BLOCKS, seed: 9, ..SystemConfig::small(kind) };
    let (mut frontend, backend) = build_oram(&cfg);
    let mut backend = backend.expect("a secure machine has a backend");
    workload(|id, op, data| serve(frontend.as_mut(), backend.as_mut(), id, op, data).0)
}

#[test]
fn all_backends_agree_on_read_values() {
    // Reads of never-written blocks may surface as empty or zero-filled
    // depending on backend materialization; normalize both to "empty".
    let norm = |log: Vec<(u64, Vec<u8>)>| -> Vec<(u64, Vec<u8>)> {
        log.into_iter()
            .map(|(id, v)| {
                let v = if v.iter().all(|&b| b == 0) { Vec::new() } else { v };
                (id, v)
            })
            .collect()
    };
    let baseline = norm(machine_reads(MachineKind::PathOram { channels: 1 }));
    for kind in [
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ] {
        assert_eq!(baseline, norm(machine_reads(kind)), "{} diverged", kind.name());
    }
}

#[test]
fn invariants_hold_everywhere_after_workload() {
    let mut independent = IndependentOram::new(IndependentConfig::new(4, 1, &tree()), BLOCKS, 5);
    let mut split = SplitOram::new(SplitConfig::new(2, &tree()), BLOCKS, 5);
    let mut combined = IndependentOram::new(IndependentConfig::new(2, 2, &tree()), BLOCKS, 5);
    let mut rng = StdRng::seed_from_u64(77);
    for step in 0..500u64 {
        let id = BlockId(rng.gen_range(0..BLOCKS));
        let data = [step as u8; 8];
        independent.access(id, Op::Write, Some(&data));
        split.access(id, Op::Write, Some(&data));
        combined.access(id, Op::Write, Some(&data));
    }
    independent.check_invariants();
    split.check_invariants();
    combined.check_invariants();
}

#[test]
fn independent_transfer_queues_stay_bounded() {
    let mut oram = IndependentOram::new(IndependentConfig::new(4, 1, &tree()), BLOCKS, 6);
    let mut rng = StdRng::seed_from_u64(88);
    for _ in 0..2_000 {
        let id = BlockId(rng.gen_range(0..BLOCKS));
        oram.access(id, Op::Read, None);
    }
    assert_eq!(oram.transfer_overflows(), 0, "queue overflow under drain policy");
    assert!(oram.transfer_peak() < 128, "peak {} too close to cap", oram.transfer_peak());
}

#[test]
fn stash_bounded_across_protocols() {
    let mut split = SplitOram::new(SplitConfig::new(2, &tree()), BLOCKS, 3);
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..1_500 {
        split.access(BlockId(rng.gen_range(0..BLOCKS)), Op::Read, None);
    }
    assert!(split.max_stash_len() < 200, "split stash grew to {}", split.max_stash_len());
}
