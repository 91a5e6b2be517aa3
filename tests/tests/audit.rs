//! The differential correctness harness, end to end: every machine
//! kind's DRAM command streams replay cleanly through the independent
//! DDR3 auditor, every `accessORAM` protocol stays in lockstep with the
//! shadow-memory oracle, and auditing never perturbs timing.

use dram_sim::config::Cycle;
use oram::types::OramConfig;
use oram::wear::LevelWear;
use proptest::prelude::*;
use sdimm_audit::oracle::{check_all_protocols, check_protocol, ProtocolKind};
use sdimm_audit::DdrAuditor;
use sdimm_system::machine::{MachineKind, SystemConfig};
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

#[test]
fn oracle_holds_on_all_five_protocols() {
    let cfg = OramConfig { levels: 9, stash_limit: 100, ..OramConfig::default() };
    let reports = check_all_protocols(&cfg, 256, 250, 11).expect("all protocols in lockstep");
    assert_eq!(reports.len(), 5);
    for r in &reports {
        assert_eq!(r.steps, 250);
        assert!(r.writes > 0, "{}: stream should mix reads and writes", r.protocol);
    }
}

#[test]
fn oracle_holds_with_pmmac_sealing() {
    let cfg = OramConfig { levels: 8, stash_limit: 64, ..OramConfig::default() };
    check_protocol(&ProtocolKind::PathOram { sealed: true }, &cfg, 128, 200, 13)
        .expect("sealed lockstep with monotone counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Path ORAM under stash pressure: small Z and a deep tree force
    /// frequent background evictions; byte-for-byte lockstep and the
    /// post-eviction stash bound must survive any seed.
    #[test]
    fn oracle_lockstep_survives_stash_pressure(seed in 0u64..1 << 16, steps in 60usize..160) {
        let cfg = OramConfig { levels: 11, z: 2, stash_limit: 32, ..OramConfig::default() };
        let rep = check_protocol(&ProtocolKind::PathOram { sealed: false }, &cfg, 256, steps, seed)
            .expect("lockstep under pressure");
        prop_assert_eq!(rep.steps, steps);
    }

    /// Freecursive with a tiny PLB: dirty-victim write-backs interleave
    /// with demand accesses constantly; data must stay byte-exact.
    #[test]
    fn oracle_lockstep_survives_plb_flushes(seed in 0u64..1 << 16) {
        let cfg = OramConfig { levels: 10, stash_limit: 100, ..OramConfig::default() };
        check_protocol(&ProtocolKind::Freecursive { tiny_plb: true }, &cfg, 1024, 120, seed)
            .expect("lockstep under PLB eviction traffic");
    }

    /// Both SDIMM protocols match the shadow map under any seed.
    #[test]
    fn oracle_lockstep_holds_on_sdimm_protocols(seed in 0u64..1 << 16) {
        let cfg = OramConfig { levels: 9, stash_limit: 100, ..OramConfig::default() };
        check_protocol(&ProtocolKind::Independent { sdimms: 2 }, &cfg, 256, 120, seed)
            .expect("independent lockstep");
        check_protocol(&ProtocolKind::Split { ways: 2 }, &cfg, 256, 120, seed)
            .expect("split lockstep");
    }
}
