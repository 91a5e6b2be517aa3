//! Property tests for the DRAM model: address-mapper bijectivity, timing
//! monotonicity, conservation of requests through the channel, and
//! split-invariance of the event-driven tick, with and without rank
//! power management.

use dram_sim::address::{AddressMapper, Coords, Interleave};
use dram_sim::channel::{DramChannel, STARVATION_LIMIT};
use dram_sim::cmdlog::CmdLog;
use dram_sim::config::{ChannelConfig, PowerPolicy, SchedulerPolicy, Topology};
use dram_sim::spec::DramStandard;
use proptest::prelude::*;
use std::collections::VecDeque;

fn quiet() -> ChannelConfig {
    let mut cfg = ChannelConfig::table2();
    cfg.refresh_enabled = false;
    cfg
}

/// The spec tables the engine-level properties range over: one
/// group-less DDR3 baseline plus every new standard (bank-grouped DDR4
/// and HBM2, wide-burst LPDDR4).
const STANDARDS: [DramStandard; 4] = [
    DramStandard::Ddr3_1600,
    DramStandard::Ddr4_2400,
    DramStandard::Lpddr4_3200,
    DramStandard::Hbm2,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decode∘encode is the identity on line addresses for every scheme.
    #[test]
    fn mapper_is_bijective(line in 0u64..1_000_000,
                           scheme_pick in 0usize..3) {
        let scheme = [Interleave::RowRankBankCol, Interleave::BankInterleaved,
                      Interleave::RankContiguous][scheme_pick];
        let m = AddressMapper::new(Topology::table2_channel(), scheme);
        let addr = line * 64;
        prop_assert_eq!(m.encode(m.decode(addr)), addr);
    }

    /// Distinct line addresses decode to distinct coordinates.
    #[test]
    fn mapper_is_injective(a in 0u64..500_000, b in 0u64..500_000,
                           scheme_pick in 0usize..3) {
        prop_assume!(a != b);
        let scheme = [Interleave::RowRankBankCol, Interleave::BankInterleaved,
                      Interleave::RankContiguous][scheme_pick];
        let m = AddressMapper::new(Topology::table2_channel(), scheme);
        prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
    }

    /// Every enqueued request completes exactly once, under both
    /// scheduling policies, for arbitrary address mixes.
    #[test]
    fn requests_are_conserved(lines in proptest::collection::vec(0u64..1_000_000, 1..48),
                              writes in proptest::collection::vec(any::<bool>(), 48),
                              fcfs in any::<bool>()) {
        let mut cfg = quiet();
        cfg.scheduler = if fcfs { SchedulerPolicy::Fcfs } else { SchedulerPolicy::FrFcfs };
        let mut ch = DramChannel::new(cfg);
        let mut issued = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let addr = line * 64;
            let id = if writes[i % writes.len()] {
                ch.enqueue_write(addr)
            } else {
                ch.enqueue_read(addr)
            };
            match id {
                Some(id) => issued.push(id),
                None => {
                    ch.tick(1000);
                    ch.drain_completions();
                }
            }
        }
        let done = ch.run_until_idle(10_000_000);
        // Completions drained during back-pressure are not in `done`;
        // total conservation = issued count ≥ done count and channel idle.
        prop_assert!(ch.is_idle());
        prop_assert!(done.len() <= issued.len());
    }

    /// Latency is bounded below by the cold-access minimum and completions
    /// are time-ordered.
    #[test]
    fn latencies_are_sane(lines in proptest::collection::vec(0u64..100_000, 1..24)) {
        let mut ch = DramChannel::new(quiet());
        for line in &lines {
            while ch.enqueue_read(line * 64).is_none() {
                ch.tick(100);
                ch.drain_completions();
            }
        }
        let done = ch.run_until_idle(10_000_000);
        for w in done.windows(2) {
            prop_assert!(w[0].finish <= w[1].finish);
        }
        let t = dram_sim::config::Timing::ddr3_1600();
        let min = t.cl + t.t_burst; // row-hit floor
        for c in &done {
            prop_assert!(c.latency >= min, "latency {} under floor {min}", c.latency);
        }
    }
}

/// Enqueues the same read/write mix into `ch` (helper for the
/// split-invariance and deadline properties, which need two identically
/// loaded channels).
fn load(ch: &mut DramChannel, lines: &[u64], writes: &[bool]) {
    for (i, line) in lines.iter().enumerate() {
        let addr = line * 64;
        let id =
            if writes[i % writes.len()] { ch.enqueue_write(addr) } else { ch.enqueue_read(addr) };
        assert!(id.is_some(), "queues sized to hold the whole proptest batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-driven core's defining property: `tick(a); tick(b)` is
    /// byte-identical to `tick(a+b)` — same DDR command stream, same
    /// stats (including lazily-accrued stalled cycles), same
    /// completions — for arbitrary slicings, with refresh on or off,
    /// on every supported memory standard.
    #[test]
    fn channel_tick_is_split_invariant(
        lines in proptest::collection::vec(0u64..200_000, 1..32),
        writes in proptest::collection::vec(any::<bool>(), 32),
        splits in proptest::collection::vec(1u64..7_000, 2..10),
        refresh in any::<bool>(),
        spec_pick in 0usize..4,
    ) {
        let mut cfg = ChannelConfig::table2_for(STANDARDS[spec_pick]);
        cfg.refresh_enabled = refresh;
        let (log_a, log_b) = (CmdLog::enabled(), CmdLog::enabled());
        let mut a = DramChannel::new(cfg.clone());
        let mut b = DramChannel::new(cfg);
        a.set_cmd_log(log_a.clone());
        b.set_cmd_log(log_b.clone());
        load(&mut a, &lines, &writes);
        load(&mut b, &lines, &writes);

        a.tick(splits.iter().sum());
        let done_a = a.drain_completions();

        let mut done_b = Vec::new();
        for s in &splits {
            b.tick(*s);
            done_b.extend(b.drain_completions());
        }

        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(done_a, done_b);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(log_a.take(), log_b.take());
    }

    /// A deadline-limited drain is the unlimited drain truncated at the
    /// deadline: `run_until_idle(d)` yields exactly the completions and
    /// commands an unbounded run produces up to where the limited run
    /// stopped — the deadline can cut the schedule short but never
    /// reorder or alter it.
    #[test]
    fn deadline_drain_is_a_truncation(
        lines in proptest::collection::vec(0u64..200_000, 1..32),
        writes in proptest::collection::vec(any::<bool>(), 32),
        deadline in 1u64..40_000,
        refresh in any::<bool>(),
        spec_pick in 0usize..4,
    ) {
        let mut cfg = ChannelConfig::table2_for(STANDARDS[spec_pick]);
        cfg.refresh_enabled = refresh;
        let (log_a, log_c) = (CmdLog::enabled(), CmdLog::enabled());
        let mut a = DramChannel::new(cfg.clone());
        let mut c = DramChannel::new(cfg);
        a.set_cmd_log(log_a.clone());
        c.set_cmd_log(log_c.clone());
        load(&mut a, &lines, &writes);
        load(&mut c, &lines, &writes);

        let done_a = a.run_until_idle(deadline);
        let done_c = c.run_until_idle(10_000_000);
        prop_assert!(c.is_idle(), "unlimited run must drain fully");

        let cut = a.now();
        let done_c_cut: Vec<_> =
            done_c.into_iter().filter(|comp| comp.finish <= cut).collect();
        prop_assert_eq!(done_a, done_c_cut);
        // Commands issue at scheduler invocations, which a tick spanning
        // [t, cut) runs strictly below `cut`: the command truncation is
        // exclusive (completions above are inclusive — a request whose
        // data lands exactly at `cut` is drained by the final tick).
        let log_c_cut: Vec<_> =
            log_c.take().into_iter().filter(|r| r.cycle < cut).collect();
        prop_assert_eq!(log_a.take(), log_c_cut);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deep queues: a stream aimed at two banks of one rank, half of it
    /// at one hot row, keeps both queues full, crosses the write-drain
    /// high watermark, and ages queue heads past the starvation limit — on
    /// every standard, under both policies, with refresh on. Every
    /// request completes exactly once, slicing each feeding quantum into
    /// smaller ticks changes nothing, and in debug builds the scheduler
    /// checks each decision against its linear reference scan.
    #[test]
    fn deep_queues_are_conserved_and_split_invariant(
        ops in proptest::collection::vec((0usize..2, 0usize..12, 0usize..16, any::<bool>()), 800..1200),
        splits in proptest::collection::vec(1u64..80, 2..6),
        spec_pick in 0usize..4,
        fcfs in any::<bool>(),
    ) {
        let mut cfg = ChannelConfig::table2_for(STANDARDS[spec_pick]);
        cfg.refresh_enabled = true;
        cfg.scheduler = if fcfs { SchedulerPolicy::Fcfs } else { SchedulerPolicy::FrFcfs };
        let mapper = AddressMapper::new(cfg.topology.clone(), Interleave::RowRankBankCol);
        let (log_a, log_b) = (CmdLog::enabled(), CmdLog::enabled());
        let mut a = DramChannel::new(cfg.clone());
        let mut b = DramChannel::new(cfg.clone());
        a.set_cmd_log(log_a.clone());
        b.set_cmd_log(log_b.clone());

        // Half the requests hit row 0, so FR-FCFS keeps serving row hits
        // while conflicting heads wait.
        let addr = |&(bank, r, col, _): &(usize, usize, usize, bool)| {
            mapper.encode(Coords { rank: 0, bank, row: if r < 6 { 0 } else { r }, col })
        };
        let mut pending = [
            ops.iter().filter(|op| !op.3).map(addr).collect::<VecDeque<_>>(),
            ops.iter().filter(|op| op.3).map(addr).collect::<VecDeque<_>>(),
        ];
        let (mut issued, mut done_a, mut done_b) = (Vec::new(), Vec::new(), Vec::new());
        let (mut full, mut peak_writes) = ([false; 2], 0);
        while pending.iter().any(|p| !p.is_empty()) {
            // Top both queues up until each refuses a request.
            for (write, queue) in pending.iter_mut().enumerate() {
                while let Some(&addr) = queue.front() {
                    let (ia, ib) = if write == 1 {
                        (a.enqueue_write(addr), b.enqueue_write(addr))
                    } else {
                        (a.enqueue_read(addr), b.enqueue_read(addr))
                    };
                    prop_assert_eq!(ia, ib);
                    match ia {
                        Some(id) => {
                            issued.push(id);
                            queue.pop_front();
                        }
                        None => {
                            full[write] = true;
                            break;
                        }
                    }
                }
            }
            peak_writes = peak_writes.max(a.write_queue_len());
            a.tick(splits.iter().sum());
            done_a.extend(a.drain_completions());
            for s in &splits {
                b.tick(*s);
                done_b.extend(b.drain_completions());
            }
        }
        done_a.extend(a.run_until_idle(10_000_000));
        done_b.extend(b.run_until_idle(10_000_000));

        prop_assert!(full[0] && full[1], "both queues must fill");
        prop_assert!(peak_writes >= cfg.write_drain.hi, "write drain must trigger");
        prop_assert!(
            a.stats().read_latency_max > STARVATION_LIMIT,
            "a queue head must age past the starvation limit (spec {spec_pick}, fcfs {fcfs}, max {})",
            a.stats().read_latency_max
        );
        prop_assert!(a.is_idle());
        let mut completed: Vec<_> = done_a.iter().map(|c| c.id).collect();
        completed.sort_unstable();
        prop_assert_eq!(completed, issued, "every request completes exactly once");
        prop_assert_eq!(done_a, done_b);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(log_a.take(), log_b.take());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The power-managed side of the scheduler: an SDIMM internal channel
    /// on every standard, refresh on, under `PowerDown` or `AlwaysOn`,
    /// with random ranks pinned down (`force_rank_down`) and released
    /// (`wake_rank`) at the same points on both channels, requests fed in
    /// between. Every request completes exactly once, and slicing each
    /// quantum into smaller ticks changes no command, completion,
    /// statistic or energy counter. In debug builds the scheduler also
    /// checks its rank deadlines and counters at every invocation.
    #[test]
    fn power_managed_channel_is_conserved_and_split_invariant(
        lines in proptest::collection::vec(0u64..200_000, 1..32),
        writes in proptest::collection::vec(any::<bool>(), 32),
        pins in proptest::collection::vec((0usize..4, any::<bool>()), 1..16),
        splits in proptest::collection::vec(1u64..400, 2..6),
        idle_cycles in 1u64..400,
        power_down in any::<bool>(),
        spec_pick in 0usize..4,
    ) {
        let mut cfg = ChannelConfig::sdimm_internal_for(STANDARDS[spec_pick]);
        cfg.refresh_enabled = true;
        cfg.power_policy =
            if power_down { PowerPolicy::PowerDown { idle_cycles } } else { PowerPolicy::AlwaysOn };
        let ranks = cfg.topology.ranks;
        let (log_a, log_b) = (CmdLog::enabled(), CmdLog::enabled());
        let mut a = DramChannel::new(cfg.clone());
        let mut b = DramChannel::new(cfg);
        a.set_cmd_log(log_a.clone());
        b.set_cmd_log(log_b.clone());

        // At each pin point: pin or release one rank, enqueue the next
        // slice of requests, then run one quantum.
        let per = lines.len().div_ceil(pins.len());
        let (mut issued, mut done_a, mut done_b) = (Vec::new(), Vec::new(), Vec::new());
        for (step, &(rank, down)) in pins.iter().enumerate() {
            for ch in [&mut a, &mut b] {
                if down {
                    ch.force_rank_down(rank % ranks);
                } else {
                    ch.wake_rank(rank % ranks);
                }
            }
            for (i, line) in lines.iter().enumerate().skip(step * per).take(per) {
                let addr = line * 64;
                let (ia, ib) = if writes[i % writes.len()] {
                    (a.enqueue_write(addr), b.enqueue_write(addr))
                } else {
                    (a.enqueue_read(addr), b.enqueue_read(addr))
                };
                prop_assert_eq!(ia, ib);
                issued.extend(ia);
            }
            a.tick(splits.iter().sum());
            done_a.extend(a.drain_completions());
            for s in &splits {
                b.tick(*s);
                done_b.extend(b.drain_completions());
            }
        }
        done_a.extend(a.run_until_idle(10_000_000));
        done_b.extend(b.run_until_idle(10_000_000));

        prop_assert!(a.is_idle());
        let mut completed: Vec<_> = done_a.iter().map(|c| c.id).collect();
        completed.sort_unstable();
        prop_assert_eq!(completed, issued, "every request completes exactly once");
        prop_assert_eq!(done_a, done_b);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.energy_counters(), b.energy_counters());
        prop_assert_eq!(log_a.take(), log_b.take());
    }
}
