//! The differential correctness harness, end to end: every machine
//! kind's DRAM command streams replay cleanly through the independent
//! DDR3 auditor, every machine's own ORAM backend stays in lockstep with
//! the shadow-memory oracle, and auditing never perturbs timing.

use dram_sim::config::Cycle;
use oram::path_oram::PathOram;
use oram::plb::Plb;
use oram::types::{BlockId, Op, OramConfig, BLOCK_BYTES};
use oram::wear::LevelWear;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdimm::BaselineOram;
use sdimm_audit::oracle::{lockstep, OracleReport, ShadowMem, INVARIANT_PERIOD, ORACLE_BLOCKS};
use sdimm_audit::DdrAuditor;
use sdimm_system::machine::{build_oram, MachineKind, SystemConfig};
use sdimm_system::runner::{run, run_audited, run_with, Capture};
use sdimm_telemetry::{CycleProfiler, Instruments, LiveProgress, TraceSink};
use workloads::spec;

/// Runs a fig6-quick-style window on `kind` with command capture and
/// replays every channel's stream through the auditor. Returns
/// (replayed command count, refresh count, last command cycle).
fn audit_machine(kind: MachineKind) -> (u64, u64, Cycle) {
    let cfg = SystemConfig::small(kind);
    let trace = spec::generate("milc-like", 1200, 3);
    let (_result, capture) = run_audited(&cfg, &trace, 200, 400, TraceSink::disabled(), 0);
    assert!(!capture.streams.is_empty(), "machine must expose at least one channel");
    let mut commands = 0;
    let mut refreshes = 0;
    let mut last = 0;
    for (ch, stream) in capture.streams.iter().enumerate() {
        let summary = DdrAuditor::check_stream(&capture.channel_cfg, stream)
            .unwrap_or_else(|v| panic!("{} channel {ch}: {v}", kind.name()));
        commands += summary.commands;
        refreshes += summary.refreshes;
        last = last.max(summary.last_cycle);
    }
    (commands, refreshes, last)
}

#[test]
fn nonsecure_stream_replays_clean() {
    // Mostly LLC hits: traffic is light, but every command must replay.
    let (commands, _, _) = audit_machine(MachineKind::NonSecure { channels: 1 });
    assert!(commands > 100, "expected real traffic, got {commands} commands");
}

#[test]
fn freecursive_stream_replays_clean_with_refresh() {
    let (commands, refreshes, last) = audit_machine(MachineKind::Freecursive { channels: 1 });
    assert!(commands > 10_000, "ORAM traffic is heavy, got {commands}");
    assert!(last > 20_000, "run long enough to span refresh intervals, got {last}");
    assert!(refreshes > 0, "refresh is enabled on every machine; the capture missed it");
}

#[test]
fn independent_streams_replay_clean() {
    let (commands, _, _) = audit_machine(MachineKind::Independent { sdimms: 2, channels: 1 });
    assert!(commands > 10_000, "got {commands}");
}

#[test]
fn split_streams_replay_clean() {
    let (commands, _, _) = audit_machine(MachineKind::Split { ways: 2, channels: 1 });
    assert!(commands > 10_000, "got {commands}");
}

#[test]
fn indep_split_streams_replay_clean() {
    let (commands, _, _) =
        audit_machine(MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 });
    assert!(commands > 10_000, "got {commands}");
}

/// Every capture at once, on every machine kind: recording command
/// streams, observables and wear must not perturb a single headline
/// number, and a run that captures nothing returns nothing — even with
/// every instrument on, which takes the plain run's time jumps.
#[test]
fn audited_run_matches_plain_run_exactly() {
    let trace = spec::generate("soplex-like", 1200, 3);
    let everything = Capture { cmds: true, observables: true, wear_top_k: Some(4) };
    for kind in [
        MachineKind::NonSecure { channels: 1 },
        MachineKind::PathOram { channels: 1 },
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ] {
        let name = kind.name();
        let cfg = SystemConfig::small(kind);
        let plain = run(&cfg, &trace, 200, 400);
        let instrumented = Instruments {
            sink: TraceSink::with_blackbox(
                &std::env::temp_dir().join("sdimm-audit-bare").display().to_string(),
            ),
            profiler: CycleProfiler::enabled(),
            live: LiveProgress::enabled(),
        };
        let (bare, nothing) =
            run_with(&cfg, &trace, 200, 400, &instrumented, 0, Capture::default());
        assert!(!instrumented.sink.is_empty(), "{name}: the ring records");
        assert_eq!(plain.cycles, bare.cycles, "{name}: instruments must not perturb timing");
        assert_eq!(plain.llc_misses, bare.llc_misses, "{name}");
        assert_eq!(plain.miss_latency_p50, bare.miss_latency_p50, "{name}");
        assert_eq!(plain.miss_latency_p99, bare.miss_latency_p99, "{name}");
        assert_eq!(plain.energy.total_nj(), bare.energy.total_nj(), "{name}");
        assert_eq!(plain.metrics.to_json(), bare.metrics.to_json(), "{name}");
        assert!(nothing.streams.is_empty(), "{name}");
        assert!(nothing.observables.is_empty(), "{name}");
        assert!(nothing.wear.is_empty(), "{name}");
        assert_eq!(nothing.level_wear, LevelWear::default(), "{name}");
        assert!(nothing.hot_rows.is_empty(), "{name}");

        let (captured_run, captured) =
            run_with(&cfg, &trace, 200, 400, &Instruments::disabled(), 0, everything);
        assert_eq!(plain.cycles, captured_run.cycles, "{name}: capture must not perturb timing");
        assert_eq!(plain.llc_misses, captured_run.llc_misses, "{name}");
        assert_eq!(plain.dram_lines, captured_run.dram_lines, "{name}");
        assert_eq!(plain.miss_latency_p99, captured_run.miss_latency_p99, "{name}");
        assert_eq!(plain.energy.total_nj(), captured_run.energy.total_nj(), "{name}");

        assert_eq!(
            captured.streams.len(),
            kind.executor_channels(),
            "{name}: one stream per channel"
        );
        assert!(captured.streams.iter().any(|s| !s.is_empty()), "{name}: capture must record");
        assert_eq!(captured.wear.len(), kind.executor_channels(), "{name}");
        assert!(!captured.hot_rows.is_empty() && captured.hot_rows.len() <= 4, "{name}");
        // Every ORAM machine attributes each hot row to the tree levels
        // stored in it; NonSecure has no tree to attribute to.
        let tree = !matches!(kind, MachineKind::NonSecure { .. });
        for row in &captured.hot_rows {
            assert_eq!(!row.levels.is_empty(), tree, "{name}: hot row levels {:?}", row.levels);
        }
        assert_eq!(captured.level_wear != LevelWear::default(), tree, "{name}: level wear");
        let external_bus = matches!(
            kind,
            MachineKind::Independent { .. }
                | MachineKind::Split { .. }
                | MachineKind::IndepSplit { .. }
        );
        assert_eq!(!captured.observables.is_empty(), external_bus, "{name}: observables");
    }
}

/// One lockstep of `steps` requests on the frontend and backend that
/// `cfg`'s machine runs on, with `tune` applied to the frontend first.
fn machine_lockstep(
    cfg: &SystemConfig,
    steps: usize,
    seed: u64,
    tune: impl FnOnce(&mut oram::freecursive::Frontend),
) -> OracleReport {
    let name = format!("{}, low power {}", cfg.kind.name(), cfg.low_power);
    let (mut frontend, backend) = build_oram(cfg);
    let mut backend = backend.unwrap_or_else(|| panic!("{name}: no backend"));
    if let Some(f) = &mut frontend {
        tune(f);
    }
    lockstep(&name, frontend.as_mut(), backend.as_mut(), steps, seed)
        .unwrap_or_else(|m| panic!("{m}"))
}

/// Every machine kind with a backend, on 1 and 2 channels where the
/// figures run both, plus the low-power rows the golden streams pin and
/// two machines with fewer data blocks than the oracle draws from:
/// byte-exact lockstep, the stash bound and the per-trace traffic model
/// on each machine's own frontend and backend.
#[test]
fn oracle_holds_on_all_five_protocols() {
    let low_power = |kind| SystemConfig { low_power: true, ..SystemConfig::small(kind) };
    let few_blocks = |kind| SystemConfig { data_blocks: 300, ..SystemConfig::small(kind) };
    for cfg in [
        SystemConfig::small(MachineKind::PathOram { channels: 1 }),
        SystemConfig::small(MachineKind::PathOram { channels: 2 }),
        SystemConfig::small(MachineKind::Freecursive { channels: 1 }),
        SystemConfig::small(MachineKind::Freecursive { channels: 2 }),
        SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 }),
        SystemConfig::small(MachineKind::Independent { sdimms: 4, channels: 2 }),
        SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 }),
        SystemConfig::small(MachineKind::Split { ways: 4, channels: 2 }),
        SystemConfig::small(MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }),
        low_power(MachineKind::Independent { sdimms: 2, channels: 1 }),
        low_power(MachineKind::Split { ways: 2, channels: 1 }),
        low_power(MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }),
        few_blocks(MachineKind::PathOram { channels: 1 }),
        few_blocks(MachineKind::Freecursive { channels: 1 }),
    ] {
        let rep = machine_lockstep(&cfg, 250, 11, |_| {});
        assert_eq!(rep.steps, 250);
        assert!(rep.writes > 0, "{}: stream should mix reads and writes", rep.protocol);
    }
    let (frontend, backend) =
        build_oram(&SystemConfig::small(MachineKind::NonSecure { channels: 2 }));
    assert!(frontend.is_none() && backend.is_none(), "the non-secure machine has no ORAM");
}

#[test]
fn oracle_holds_with_pmmac_sealing() {
    let cfg = OramConfig { levels: 8, stash_limit: 64, ..OramConfig::default() };
    let mut tree = PathOram::new(cfg, ORACLE_BLOCKS, 13);
    tree.enable_sealing([0x5D; 16]);
    lockstep("sealed PATHORAM", None, &mut BaselineOram::new(tree, 1), 200, 13)
        .expect("sealed lockstep with monotone counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Path ORAM under stash pressure: small Z and a deep tree force
    /// frequent background evictions. Byte-for-byte lockstep must survive
    /// any seed, with the checks only a bare tree shows from outside:
    /// each access fetched the path of the leaf the position map claimed
    /// before it, its plan's lines are that path's, and the stash returns
    /// under its limit once background eviction has run.
    #[test]
    fn oracle_lockstep_survives_stash_pressure(seed in 0u64..1 << 16, steps in 60usize..160) {
        let cfg = OramConfig { levels: 11, z: 2, stash_limit: 32, ..OramConfig::default() };
        let mut oram = PathOram::new(cfg, 256, seed);
        let mut shadow = ShadowMem::new(BLOCK_BYTES);
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..steps {
            let id = BlockId(rng.gen_range(0..256));
            let data = [step as u8; BLOCK_BYTES];
            let (op, new_data) =
                if rng.gen_bool(0.5) { (Op::Write, Some(&data[..])) } else { (Op::Read, None) };
            let claimed = oram.leaf_of(id);
            let (got, plan) = oram.access(id, op, new_data);
            prop_assert_eq!(got, shadow.apply(id.0, op, new_data), "step {} {}", step, id);
            prop_assert_eq!(plan.leaf, claimed, "step {}: fetched another leaf's path", step);
            prop_assert_eq!(plan.lines, oram.layout().path_lines(claimed), "step {}", step);
            while oram.needs_background_evict() {
                oram.background_evict();
            }
            prop_assert!(oram.stash_len() <= 32, "step {}: stash {}", step, oram.stash_len());
            if step % INVARIANT_PERIOD == 0 {
                oram.check_invariant();
            }
        }
        oram.check_invariant();
    }

    /// Freecursive with a tiny PLB: dirty-victim write-backs interleave
    /// with demand accesses constantly; data must stay byte-exact.
    #[test]
    fn oracle_lockstep_survives_plb_flushes(seed in 0u64..1 << 16) {
        let cfg = SystemConfig { seed, ..SystemConfig::small(MachineKind::Freecursive { channels: 1 }) };
        machine_lockstep(&cfg, 120, seed, |f| f.set_plb(Plb::new(16, 4)));
    }

    /// Both SDIMM protocols match the shadow map under any seed.
    #[test]
    fn oracle_lockstep_holds_on_sdimm_protocols(seed in 0u64..1 << 16) {
        for kind in [
            MachineKind::Independent { sdimms: 2, channels: 1 },
            MachineKind::Split { ways: 2, channels: 1 },
        ] {
            machine_lockstep(&SystemConfig { seed, ..SystemConfig::small(kind) }, 120, seed, |_| {});
        }
    }
}
