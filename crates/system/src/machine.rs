//! Machine configurations: one builder per evaluated design point.
//!
//! A [`Machine`] couples a functional ORAM backend (or none), the
//! CPU-side frontend, and the executor resources (channels, buses) for
//! one of the paper's design points: the non-secure baseline, Freecursive
//! on 1/2 channels, and the SDIMM organizations of Fig 7
//! (INDEP-2/SPLIT-2 on one channel, INDEP-4/SPLIT-4/INDEP-SPLIT on two).

use dram_sim::config::ChannelConfig;
use dram_sim::spec::DramStandard;
use oram::freecursive::{Frontend, PlannedAccess};
use oram::path_oram::PathOram;
use oram::types::{BlockId, Op, OramConfig, BLOCK_BYTES};
use oram::wear::LevelWear;
use sdimm::baseline::{interleave, BaselineOram};
use sdimm::independent::{IndependentConfig, IndependentOram};
use sdimm::split::{SplitConfig, SplitOram};
use sdimm::trace::{Activity, Phase, RequestTrace};
use sdimm::Protocol;

use crate::executor::Executor;

/// Which design point to build (Fig 7 naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// No ORAM: LLC misses go straight to DRAM.
    NonSecure {
        /// Main-memory channels.
        channels: usize,
    },
    /// Plain Path ORAM with the whole position map on chip: exactly one
    /// `accessORAM` per request (no recursion, no PLB). The
    /// secure-baseline bound the recursive designs are measured against.
    PathOram {
        /// Main-memory channels.
        channels: usize,
    },
    /// The Freecursive ORAM baseline.
    Freecursive {
        /// Main-memory channels.
        channels: usize,
    },
    /// Independent protocol over `sdimms` SDIMMs (`channels` external
    /// buses; `sdimms / channels` SDIMMs share each bus).
    Independent {
        /// SDIMM count (INDEP-2, INDEP-4).
        sdimms: usize,
        /// External buses.
        channels: usize,
    },
    /// Split protocol across `ways` SDIMMs.
    Split {
        /// Split arity (SPLIT-2, SPLIT-4).
        ways: usize,
        /// External buses.
        channels: usize,
    },
    /// The combined INDEP-SPLIT design (2 groups × 2-way split).
    IndepSplit {
        /// Independent groups.
        groups: usize,
        /// Split arity within a group.
        ways: usize,
        /// External buses.
        channels: usize,
    },
}

impl MachineKind {
    /// Short display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            MachineKind::NonSecure { channels } => format!("NONSECURE-{channels}ch"),
            MachineKind::PathOram { channels } => format!("PATHORAM-{channels}ch"),
            MachineKind::Freecursive { channels } => format!("FREECURSIVE-{channels}ch"),
            MachineKind::Independent { sdimms, .. } => format!("INDEP-{sdimms}"),
            MachineKind::Split { ways, .. } => format!("SPLIT-{ways}"),
            MachineKind::IndepSplit { .. } => "INDEP-SPLIT".to_string(),
        }
    }

    /// Number of DRAM channels the executor needs (main channels for
    /// baselines, one internal channel per SDIMM otherwise).
    pub fn executor_channels(&self) -> usize {
        match *self {
            MachineKind::NonSecure { channels }
            | MachineKind::PathOram { channels }
            | MachineKind::Freecursive { channels } => channels,
            MachineKind::Independent { sdimms, .. } => sdimms,
            MachineKind::Split { ways, .. } => ways,
            MachineKind::IndepSplit { groups, ways, .. } => groups * ways,
        }
    }

    /// The per-channel DRAM configuration this machine runs under
    /// `standard`: main-memory channels for the baselines, the
    /// SDIMM-internal channel otherwise. Exposed so a replay auditor can
    /// rebuild the exact constraint table the channels ran under.
    pub fn channel_config_for(&self, standard: DramStandard) -> ChannelConfig {
        match self {
            MachineKind::NonSecure { .. }
            | MachineKind::PathOram { .. }
            | MachineKind::Freecursive { .. } => ChannelConfig::table2_for(standard),
            _ => ChannelConfig::sdimm_internal_for(standard),
        }
    }
}

/// Full system parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Design point.
    pub kind: MachineKind,
    /// Global ORAM tree parameters (levels, Z, cached levels).
    pub oram: OramConfig,
    /// Logical data blocks the CPU addresses.
    pub data_blocks: u64,
    /// Memory standard every DRAM channel runs (timing, geometry, and
    /// burst shape come from its [`DramSpec`](dram_sim::spec::DramSpec)).
    pub standard: DramStandard,
    /// Enable the low-power rank-localized scheme.
    pub low_power: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl SystemConfig {
    /// A small-but-representative configuration for tests and quick runs:
    /// a 16-level tree with the Table II Z and block size.
    pub fn small(kind: MachineKind) -> Self {
        SystemConfig {
            kind,
            oram: OramConfig { levels: 16, cached_levels: 4, ..OramConfig::default() },
            data_blocks: 1 << 14,
            standard: DramStandard::default(),
            low_power: false,
            seed: 1,
        }
    }
}

/// A complete simulated machine: frontend + backend + executor.
#[derive(Debug)]
pub struct Machine {
    cfg: SystemConfig,
    /// The CPU-side Freecursive planner; `None` keeps the position map
    /// on chip (plain Path ORAM) or has none (non-secure).
    frontend: Option<Frontend>,
    /// The ORAM backend; `None` is the non-secure machine.
    backend: Option<Box<dyn Protocol>>,
    /// Cycle-level resources.
    pub executor: Executor,
}

impl Machine {
    /// Builds the machine for `cfg`: its frontend and backend from
    /// [`build_oram`], then the executor's channels and external buses.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g. more
    /// blocks than the tree holds).
    pub fn new(cfg: SystemConfig) -> Self {
        let kind = cfg.kind;
        let n_exec = kind.executor_channels();
        let ch_cfg = kind.channel_config_for(cfg.standard);
        let (frontend, backend) = build_oram(&cfg);
        // The SDIMM designs share `channels` external buses; the
        // baselines have none.
        let buses = match kind {
            MachineKind::Independent { channels, .. }
            | MachineKind::Split { channels, .. }
            | MachineKind::IndepSplit { channels, .. } => bus_assignment(n_exec, channels),
            _ => Vec::new(),
        };
        let executor = Executor::new(n_exec, ch_cfg, &buses);

        Machine { cfg, frontend, backend, executor }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Mean `accessORAM`s per request so far (≈1.4 in the paper), or 0
    /// for the non-secure machine.
    pub fn accesses_per_request(&self) -> f64 {
        self.frontend.as_ref().map(|f| f.stats().accesses_per_request()).unwrap_or(0.0)
    }

    /// Current stash occupancy (the maximum across the backend's ORAM
    /// instances — the value the per-instance stash bound applies to),
    /// or 0 for the non-secure machine.
    pub fn stash_len(&self) -> usize {
        self.backend.as_ref().map_or(0, |b| b.max_stash_len())
    }

    /// Attaches a cell's trace handle to the executor (phase
    /// completions, backend decisions, in-flight changes, per-channel DDR
    /// commands) and to every backend stash (occupancy ticks).
    pub fn set_trace(&mut self, trace: sdimm_telemetry::CellTrace) {
        self.executor.set_trace(trace.clone());
        if let Some(b) = &mut self.backend {
            b.set_trace(trace);
        }
    }

    /// Attaches a cycle-attribution profiler, rooting this machine's
    /// folded stacks at `protocol;<machine-name>`.
    pub fn set_profiler(&mut self, profiler: sdimm_telemetry::CycleProfiler) {
        let name = self.cfg.kind.name();
        self.executor.set_profiler(profiler, &name);
    }

    /// Peak stash occupancy across the backend's ORAM instance(s), or 0
    /// for the non-secure machine.
    pub fn stash_peak(&self) -> usize {
        self.backend.as_ref().map_or(0, |b| b.stash_peak())
    }

    /// PLB (PosMap Lookaside Buffer) hit rate, or 0 for the non-secure
    /// machine.
    pub fn plb_hit_rate(&self) -> f64 {
        self.frontend.as_ref().map(|f| f.plb_stats().hit_rate()).unwrap_or(0.0)
    }

    /// Exports the whole machine's metrics: frontend PLB counters
    /// (`plb.*`), backend ORAM stats (`oram.*`), and executor/channel
    /// stats (`exec.*`, `dram.chan<i>.*`).
    pub fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        let mut m = self.executor.metrics();
        if let Some(f) = &self.frontend {
            let plb = f.plb_stats();
            m.counter_add("plb.hits", plb.hits);
            m.counter_add("plb.misses", plb.misses);
            m.counter_add("plb.dirty_evictions", plb.dirty_evictions);
            m.gauge_set("plb.hit_rate", plb.hit_rate());
            m.gauge_set("frontend.accesses_per_request", f.stats().accesses_per_request());
        }
        if let Some(b) = &self.backend {
            m.absorb("oram", &b.metrics());
        }
        // Set without a backend too (as 0): every snapshot carries it.
        m.gauge_max("oram.stash_peak", self.stash_peak() as f64);
        m
    }

    /// Enables the per-row wear/disturbance tracker on every DRAM
    /// channel (off by default; switch on before traffic).
    pub fn enable_wear(&mut self) {
        self.executor.enable_wear();
    }

    /// Attributes a channel-local line address (as seen by DRAM channel
    /// `channel`) back to the ORAM tree level whose bucket owns it, or
    /// `None` when the machine has no tree (NonSecure) or the address is
    /// outside the tree. Each backend inverts its own channel-address
    /// dialect ([`Protocol::level_of_channel_line`]).
    pub fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32> {
        self.backend.as_ref()?.level_of_channel_line(channel, addr)
    }

    /// Per-tree-level wear merged across the backend's ORAM instance(s)
    /// (empty for the non-secure machine).
    pub fn level_wear(&self) -> LevelWear {
        self.backend.as_ref().map(|b| b.level_wear()).unwrap_or_default()
    }

    /// Builds the request-trace chain for one LLC miss (or LLC
    /// write-back) at byte address `addr`: one trace per `accessORAM`
    /// the frontend plans (posmap walks, PLB write-backs, then the demand
    /// access). The parts must execute in order — each depends on the
    /// previous one's result — but each claims only its *own* backend,
    /// so accesses from different CPU requests overlap whenever their
    /// backends differ.
    pub fn request_traces(&mut self, addr: u64, is_write: bool) -> Vec<RequestTrace> {
        let Some(oram) = &mut self.backend else {
            // Non-secure: the one line, interleaved like the baselines'.
            let (channel, local) = interleave(addr, self.executor.channel_count());
            return vec![RequestTrace::new(vec![Phase::one(Activity::Dram {
                channel,
                reads: if is_write { vec![] } else { vec![local] },
                writes: if is_write { vec![local] } else { vec![] },
            })])];
        };
        let op = if is_write { Op::Write } else { Op::Read };
        let index = (addr / BLOCK_BYTES as u64) % self.cfg.data_blocks;
        // The frontend's plan, or the demand access alone when the
        // position map is on chip (plain Path ORAM).
        let plan = match &mut self.frontend {
            Some(f) => f.plan_request(index, op),
            None => vec![PlannedAccess { id: BlockId(index), op, is_posmap: false }],
        };
        plan.into_iter().map(|p| oram.access(p.id, p.op, Some(&[])).1).collect()
    }
}

/// Builds the functional half of the machine `cfg` describes: the
/// CPU-side Freecursive frontend (`None` keeps the position map on chip,
/// as PATHORAM does, or has none) and the ORAM backend (`None` is the
/// non-secure machine). [`Machine::new`] runs its machines on these, and
/// the shadow oracle (`sdimm_audit::oracle`) lockstep-checks the same
/// pair built from a figure panel's own configuration.
///
/// # Panics
///
/// Panics if the configuration is internally inconsistent (e.g. more
/// blocks than the tree holds).
pub fn build_oram(cfg: &SystemConfig) -> (Option<Frontend>, Option<Box<dyn Protocol>>) {
    let frontend = match cfg.kind {
        MachineKind::NonSecure { .. } | MachineKind::PathOram { .. } => None,
        _ => Some(Frontend::new(cfg.data_blocks)),
    };
    // The frontend's unified id space also holds the posmap levels.
    let blocks = frontend.as_ref().map_or(cfg.data_blocks, |f| f.id_space().total_blocks());

    // Independent is the routed protocol with one SDIMM per group.
    let routed = |groups, ways| -> Box<dyn Protocol> {
        let mut icfg = IndependentConfig::new(groups, ways, &cfg.oram);
        icfg.low_power = cfg.low_power;
        Box::new(IndependentOram::new(icfg, blocks, cfg.seed))
    };
    let backend: Option<Box<dyn Protocol>> = match cfg.kind {
        MachineKind::NonSecure { .. } => None,
        MachineKind::PathOram { channels } | MachineKind::Freecursive { channels } => {
            let tree = PathOram::new(cfg.oram.clone(), blocks, cfg.seed);
            Some(Box::new(BaselineOram::new(tree, channels)))
        }
        MachineKind::Independent { sdimms, .. } => Some(routed(sdimms, 1)),
        MachineKind::Split { ways, .. } => {
            let mut scfg = SplitConfig::new(ways, &cfg.oram);
            scfg.low_power = cfg.low_power;
            Some(Box::new(SplitOram::new(scfg, blocks, cfg.seed)))
        }
        MachineKind::IndepSplit { groups, ways, .. } => Some(routed(groups, ways)),
    };
    (frontend, backend)
}

/// Assigns `sdimms` SDIMMs to `buses` external buses round-robin by
/// contiguous groups (2 DIMMs per channel, as in the evaluation).
fn bus_assignment(sdimms: usize, buses: usize) -> Vec<usize> {
    assert!(buses >= 1 && sdimms >= buses, "need at least one SDIMM per bus");
    let per = sdimms / buses;
    (0..sdimms).map(|i| (i / per).min(buses - 1)).collect()
}

#[cfg(test)]
mod tests {
    use dram_sim::config::LINE_BYTES;

    use super::*;

    #[test]
    fn bus_assignment_groups_contiguously() {
        assert_eq!(bus_assignment(4, 2), vec![0, 0, 1, 1]);
        assert_eq!(bus_assignment(2, 1), vec![0, 0]);
        assert_eq!(bus_assignment(2, 2), vec![0, 1]);
    }

    #[test]
    fn oram_block_is_one_dram_line() {
        // `oram` and `dram_sim` each own a 64-byte constant; a layout's
        // line addresses and the channels' decode agree only while the
        // two are equal.
        assert_eq!(BLOCK_BYTES, LINE_BYTES);
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(MachineKind::Independent { sdimms: 4, channels: 2 }.name(), "INDEP-4");
        assert_eq!(MachineKind::Split { ways: 2, channels: 1 }.name(), "SPLIT-2");
        assert_eq!(
            MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }.name(),
            "INDEP-SPLIT"
        );
    }

    #[test]
    fn nonsecure_trace_is_single_line() {
        let mut m = Machine::new(SystemConfig::small(MachineKind::NonSecure { channels: 2 }));
        let parts = m.request_traces(0x4000, false);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].dram_lines(), 1);
        assert_eq!(parts[0].external_bytes(), 0);
        // No tree: its line maps back to no level. The secure machines'
        // lines are checked by the shadow oracle's traffic model.
        let Some(Activity::Dram { channel, reads, .. }) = parts[0].iter_activities().next() else {
            panic!("the non-secure trace is one DRAM activity");
        };
        assert_eq!(m.level_of_channel_line(*channel, reads[0]), None);
    }

    #[test]
    fn freecursive_traces_move_whole_paths() {
        let mut m = Machine::new(SystemConfig::small(MachineKind::Freecursive { channels: 1 }));
        let parts = m.request_traces(0x4000, false);
        let per_access = m.config().oram.lines_per_access() as u64;
        for t in &parts {
            assert_eq!(t.dram_lines(), per_access, "each part is one whole access");
            assert_eq!(t.backend, Some(0));
        }
        assert!(!parts.is_empty());
    }

    #[test]
    fn independent_traces_are_light_on_external_bus() {
        let mut m =
            Machine::new(SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 }));
        // Warm the PLB so we compare single accesses.
        m.request_traces(0x1000, false);
        let parts = m.request_traces(0x1000, false);
        assert_eq!(parts.len(), 1, "warm request needs only the demand access");
        let baseline_lines = m.config().oram.lines_per_access() as f64;
        assert!(parts[0].external_line_equivalents() < baseline_lines * 0.15);
        assert!(parts[0].dram_lines() > 0);
    }

    #[test]
    fn split_engages_all_ways() {
        let mut m = Machine::new(SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 }));
        let parts = m.request_traces(0x2000, false);
        let mut channels = std::collections::HashSet::new();
        for t in &parts {
            for a in t.iter_activities() {
                if let Activity::Dram { channel, .. } = a {
                    channels.insert(*channel);
                }
            }
        }
        assert_eq!(channels.len(), 2);
    }

    #[test]
    fn indep_split_builds_with_four_sdimms() {
        let m = Machine::new(SystemConfig::small(MachineKind::IndepSplit {
            groups: 2,
            ways: 2,
            channels: 2,
        }));
        assert_eq!(m.executor.channel_count(), 4);
    }

    #[test]
    fn split_low_power_traces_carry_wake_hints() {
        let mut cfg = SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 });
        cfg.low_power = true;
        let mut m = Machine::new(cfg);
        let parts = m.request_traces(0x3000, false);
        assert!(
            parts
                .iter()
                .flat_map(|t| t.iter_activities())
                .any(|a| matches!(a, Activity::WakeRank { .. })),
            "low-power Split must emit rank hints"
        );
    }

    #[test]
    fn protocol_backends_differ_across_requests() {
        // Independent: different leaves route to different backends, so a
        // sample of requests must claim more than one backend id.
        let mut m =
            Machine::new(SystemConfig::small(MachineKind::Independent { sdimms: 4, channels: 2 }));
        let mut backends = std::collections::HashSet::new();
        for i in 0..32u64 {
            for t in m.request_traces(i * 64 * 131, false) {
                backends.extend(t.backend);
            }
        }
        assert!(backends.len() >= 3, "expected several backends, got {backends:?}");
    }

    #[test]
    fn writeback_traces_look_like_demand_traces() {
        let mut m = Machine::new(SystemConfig::small(MachineKind::Freecursive { channels: 1 }));
        let rd: u64 = m.request_traces(0x5000, false).iter().map(|t| t.dram_lines()).sum();
        let wr: u64 = m.request_traces(0x5000, true).iter().map(|t| t.dram_lines()).sum();
        // Same PLB-warm address: both are single accesses of a full path.
        assert_eq!(rd % m.config().oram.lines_per_access() as u64, 0);
        assert_eq!(wr % m.config().oram.lines_per_access() as u64, 0);
    }

    #[test]
    fn accesses_per_request_reported() {
        let mut m = Machine::new(SystemConfig::small(MachineKind::Freecursive { channels: 1 }));
        for i in 0..50 {
            m.request_traces(i * 64, false);
        }
        let apr = m.accesses_per_request();
        assert!((1.0..3.0).contains(&apr), "apr {apr}");
    }
}
