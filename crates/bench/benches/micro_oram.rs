//! Microbenchmarks for the ORAM layer: raw accessORAM rate, stash
//! eviction, Freecursive requests (recursion + PLB), and the distributed
//! protocols' functional access rate.

use criterion::{criterion_group, criterion_main, Criterion};
use oram::types::{BlockId, Op, OramConfig};
use oram::{FreecursiveOram, PathOram};
use sdimm::independent::{IndependentConfig, IndependentOram};
use sdimm::split::{SplitConfig, SplitOram};
use sdimm::Protocol;

fn cfg() -> OramConfig {
    OramConfig { levels: 14, stash_limit: 200, ..OramConfig::default() }
}

fn bench_path_oram(c: &mut Criterion) {
    let mut oram = PathOram::new(cfg(), 4096, 1);
    let mut i = 0u64;
    c.bench_function("path_oram/access", |b| {
        b.iter(|| {
            i = (i + 1) % 4096;
            oram.access(BlockId(i), Op::Read, None)
        })
    });
}

fn bench_freecursive(c: &mut Criterion) {
    let mut oram = FreecursiveOram::new(cfg(), 4096, 2);
    let mut i = 0u64;
    c.bench_function("freecursive/request", |b| {
        b.iter(|| {
            i = (i + 7) % 4096;
            oram.request(i, Op::Read, None)
        })
    });
}

fn bench_independent(c: &mut Criterion) {
    let global = cfg();
    let mut oram = IndependentOram::new(IndependentConfig::new(2, &global), 4096, 3);
    let mut i = 0u64;
    c.bench_function("independent/access", |b| {
        b.iter(|| {
            i = (i + 13) % 4096;
            oram.access(BlockId(i), Op::Read, None)
        })
    });
}

fn bench_split(c: &mut Criterion) {
    let mut oram = SplitOram::new(SplitConfig::new(2, &cfg()), 4096, 4);
    let mut i = 0u64;
    c.bench_function("split/access", |b| {
        b.iter(|| {
            i = (i + 17) % 4096;
            oram.access(BlockId(i), Op::Read, None)
        })
    });
}

criterion_group!(benches, bench_path_oram, bench_freecursive, bench_independent, bench_split);
criterion_main!(benches);
