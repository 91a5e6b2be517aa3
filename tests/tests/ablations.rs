//! The design ablations of DESIGN.md §14, checked in simulated units.
//!
//! Each test computes the simulated quantity one design choice is meant
//! to improve — DRAM cycles and row-buffer hit rate, ORAM accesses per
//! request, stash peak, transfer-queue occupancy — at two or more
//! settings of that choice, and asserts the direction DESIGN.md claims.
//! Seeds are fixed, so the numbers repeat exactly, but no value is pinned
//! here: `golden_streams` pins the command streams, and these tests check
//! only which setting wins.
//! `cargo test -p sdimm-integration-tests --test ablations -- --nocapture`
//! prints the rows EXPERIMENTS.md quotes.

use dram_sim::channel::DramChannel;
use dram_sim::config::{ChannelConfig, Cycle, SchedulerPolicy};
use oram::freecursive::Frontend;
use oram::layout::TreeLayout;
use oram::plb::Plb;
use oram::{BlockId, Op, OramConfig, PathOram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::transfer_queue::TransferQueue;

/// What one replay of a batch of line reads cost the channel.
struct Replay {
    /// Finish cycle of the last read: the end of the replay.
    last_finish: Cycle,
    row_hit_rate: f64,
}

/// Replays `lines` (byte addresses) as reads, in order, on a fresh
/// Table II channel with refresh off. A full read queue backpressures
/// the replay: it ticks one cycle and retries, so every line is read.
/// The replay ends at the last completion's `finish`, not at
/// `DramChannel::now()`, which `run_until_idle` leaves rounded up to its
/// 10,000-cycle chunk.
fn replay(policy: SchedulerPolicy, lines: &[u64]) -> Replay {
    let mut cfg = ChannelConfig::table2();
    cfg.refresh_enabled = false;
    cfg.scheduler = policy;
    let mut ch = DramChannel::new(cfg);
    let mut done = Vec::new();
    for &addr in lines {
        while ch.enqueue_read(addr).is_none() {
            ch.tick(1);
            ch.drain_completions_into(&mut done);
        }
    }
    done.extend(ch.run_until_idle(1_000_000));
    assert_eq!(done.len(), lines.len(), "every line is read exactly once");
    Replay {
        last_finish: done.iter().map(|c| c.finish).max().expect("at least one line"),
        row_hit_rate: ch.stats().row_hit_rate(),
    }
}

#[test]
fn fr_fcfs_finishes_an_oram_burst_before_fcfs() {
    // 16 buckets of 5 adjacent lines each, at scattered rows: the line
    // pattern of one path read. Bucket by bucket, FCFS already finds
    // each bucket's row open; line by line across buckets it thrashes
    // rows, and FR-FCFS recovers the hits by reordering.
    let line = |bucket: u64, i: u64| bucket * 7919 * 320 + i * 64;
    let bucket_major: Vec<u64> = (0..16).flat_map(|b| (0..5).map(move |i| line(b, i))).collect();
    let interleaved: Vec<u64> = (0..5).flat_map(|i| (0..16).map(move |b| line(b, i))).collect();
    for (order, lines) in [("bucket by bucket", &bucket_major), ("line by line", &interleaved)] {
        let fr = replay(SchedulerPolicy::FrFcfs, lines);
        let fcfs = replay(SchedulerPolicy::Fcfs, lines);
        println!(
            "sched {order:16}: FR-FCFS {} cycles (hit rate {:.2}), FCFS {} cycles (hit rate {:.2})",
            fr.last_finish, fr.row_hit_rate, fcfs.last_finish, fcfs.row_hit_rate
        );
        assert!(
            fr.last_finish < fcfs.last_finish,
            "{order}: FR-FCFS must finish the burst before FCFS"
        );
        assert!(
            fr.row_hit_rate >= fcfs.row_hit_rate,
            "{order}: FR-FCFS must hit open rows at least as often as FCFS"
        );
    }
}

#[test]
fn subtree_packing_raises_row_hits_and_finishes_paths_sooner() {
    // Two trees with one seed read the same paths; only the placement of
    // their buckets in DRAM differs. Four levels per row is the baseline
    // layout (a 15-bucket subtree fills one 8 KB row).
    let cfg = OramConfig { levels: 14, ..OramConfig::default() };
    let mut flat = PathOram::new(cfg.clone(), 4096, 9);
    flat.set_layout(TreeLayout::subtree_packed(&cfg, 1));
    let mut packed = PathOram::new(cfg.clone(), 4096, 9);
    packed.set_layout(TreeLayout::subtree_packed(&cfg, 4));
    for access in 0..3 {
        let (_, flat_plan) = flat.access(BlockId(1), Op::Read, None);
        let (_, packed_plan) = packed.access(BlockId(1), Op::Read, None);
        assert_eq!(flat_plan.leaf, packed_plan.leaf, "both layouts read the same path");
        let f = replay(SchedulerPolicy::FrFcfs, &flat_plan.lines);
        let p = replay(SchedulerPolicy::FrFcfs, &packed_plan.lines);
        println!(
            "layout path {access} ({} lines): 4 levels/row {} cycles (hit rate {:.2}), \
             1 level/row {} cycles (hit rate {:.2})",
            packed_plan.lines.len(),
            p.last_finish,
            p.row_hit_rate,
            f.last_finish,
            f.row_hit_rate
        );
        assert!(p.row_hit_rate > f.row_hit_rate, "path {access}: packing must raise row hits");
        assert!(p.last_finish < f.last_finish, "path {access}: packing must finish sooner");
    }
}

#[test]
fn a_larger_plb_never_costs_more_accesses_per_request() {
    let rates = [64usize, 256, 1024].map(|entries| {
        let mut f = Frontend::new(8192);
        f.set_plb(Plb::new(entries, 8));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            f.plan_request(rng.gen_range(0..8192u64), Op::Read);
        }
        let rate = f.stats().accesses_per_request();
        println!("plb {entries:5} entries: {rate:.2} accesses per request");
        rate
    });
    assert!(rates.windows(2).all(|w| w[1] <= w[0]), "a larger PLB added accesses: {rates:?}");
    assert!(rates[2] < rates[0], "1,024 entries must save accesses over 64: {rates:?}");
}

#[test]
fn more_blocks_per_bucket_lower_the_stash_peak() {
    // A fixed block count, so a larger Z adds slack to the tree rather
    // than more blocks to place.
    const BLOCKS: u64 = 4096;
    let peaks = [2usize, 3, 4, 6].map(|z| {
        let cfg = OramConfig { levels: 12, z, ..OramConfig::default() };
        let mut oram = PathOram::new(cfg, BLOCKS, 17);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3_000 {
            oram.access(BlockId(rng.gen_range(0..BLOCKS)), Op::Read, None);
            if oram.needs_background_evict() {
                oram.background_evict();
            }
        }
        println!("z {z}: stash peak {}", oram.stash_peak());
        oram.stash_peak()
    });
    assert!(peaks[2] < peaks[0], "Z = 4 must peak below Z = 2: {peaks:?}");
}

#[test]
fn a_higher_drain_probability_trades_forced_drains_for_occupancy() {
    // The Fig 13b random walk: each step an arrival, a vacancy or
    // neither, then the forced-drain roll.
    let rows = [0.02f64, 0.1, 0.25].map(|p| {
        let mut q = TransferQueue::new(128, p);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            match rng.gen_range(0..4) {
                0 => {
                    q.arrive();
                }
                1 => {
                    q.vacancy();
                }
                _ => {}
            }
            q.maybe_force_drain(&mut rng);
        }
        println!(
            "drain p {p:4}: peak {}, forced drains {}, overflows {}",
            q.peak(),
            q.forced_drains(),
            q.overflows()
        );
        (q.peak(), q.forced_drains())
    });
    for w in rows.windows(2) {
        assert!(w[1].0 < w[0].0, "a higher p must lower the peak: {rows:?}");
        assert!(w[1].1 > w[0].1, "a higher p must force more drains: {rows:?}");
    }
}
