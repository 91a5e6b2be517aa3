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
use oram::types::{BlockId, Op, OramConfig};
use oram::wear::LevelWear;
use sdimm::indep_split::{IndepSplitConfig, IndepSplitOram};
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
    /// SDIMM-internal channel otherwise, refresh enabled in both.
    /// Exposed so a replay auditor can rebuild the exact constraint
    /// table the channels ran under.
    pub fn channel_config_for(&self, standard: DramStandard) -> ChannelConfig {
        let mut ch_cfg = match self {
            MachineKind::NonSecure { .. }
            | MachineKind::PathOram { .. }
            | MachineKind::Freecursive { .. } => ChannelConfig::table2_for(standard),
            _ => ChannelConfig::sdimm_internal_for(standard),
        };
        ch_cfg.refresh_enabled = true;
        ch_cfg
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

/// The functional backend behind a machine.
#[derive(Debug)]
enum Backend {
    NonSecure,
    /// Path ORAM over the main-memory channels: plain (on-chip posmap,
    /// one access per request) when the machine has no frontend,
    /// Freecursive when it has one.
    Baseline {
        oram: Box<PathOram>,
        channels: usize,
    },
    /// One of the SDIMM protocols.
    Sdimm(Box<dyn Protocol>),
}

/// A complete simulated machine: frontend + backend + executor.
#[derive(Debug)]
pub struct Machine {
    cfg: SystemConfig,
    frontend: Option<Frontend>,
    backend: Backend,
    /// Cycle-level resources.
    pub executor: Executor,
}

impl Machine {
    /// Builds the machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g. more
    /// blocks than the tree holds).
    pub fn new(cfg: SystemConfig) -> Self {
        let kind = cfg.kind;
        let n_exec = kind.executor_channels();
        let ch_cfg = kind.channel_config_for(cfg.standard);
        let frontend = match kind {
            MachineKind::NonSecure { .. } | MachineKind::PathOram { .. } => None,
            _ => Some(Frontend::new(&cfg.oram, cfg.data_blocks)),
        };
        // The frontend's unified id space also holds the posmap levels.
        let blocks = frontend.as_ref().map_or(cfg.data_blocks, |f| f.id_space().total_blocks());

        let (backend, buses) = match kind {
            MachineKind::NonSecure { channels } => (Backend::NonSecure, channels),
            MachineKind::PathOram { channels } | MachineKind::Freecursive { channels } => {
                let oram = Box::new(PathOram::new(cfg.oram.clone(), blocks, cfg.seed));
                (Backend::Baseline { oram, channels }, channels)
            }
            MachineKind::Independent { sdimms, channels } => {
                let mut icfg = IndependentConfig::new(sdimms, &cfg.oram);
                icfg.low_power = cfg.low_power;
                let oram = IndependentOram::new(icfg, blocks, cfg.seed);
                (Backend::Sdimm(Box::new(oram)), channels)
            }
            MachineKind::Split { ways, channels } => {
                let mut scfg = SplitConfig::new(ways, &cfg.oram);
                scfg.low_power = cfg.low_power;
                let oram = SplitOram::new(scfg, blocks, cfg.seed);
                (Backend::Sdimm(Box::new(oram)), channels)
            }
            MachineKind::IndepSplit { groups, ways, channels } => {
                let mut ccfg = IndepSplitConfig::new(groups, ways, &cfg.oram);
                ccfg.low_power = cfg.low_power;
                let oram = IndepSplitOram::new(ccfg, blocks, cfg.seed);
                (Backend::Sdimm(Box::new(oram)), channels)
            }
        };
        let executor = if matches!(backend, Backend::Sdimm(_)) {
            let mut ex = Executor::new(n_exec, ch_cfg, &bus_assignment(n_exec, buses));
            ex.set_lowpower_ranks(cfg.low_power);
            ex
        } else {
            Executor::new(n_exec, ch_cfg, &[])
        };

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
        match &self.backend {
            Backend::NonSecure => 0,
            Backend::Baseline { oram, .. } => oram.stash_len(),
            Backend::Sdimm(o) => o.max_stash_len(),
        }
    }

    /// Attaches a cycle-stamping observable recorder to the backend's
    /// external-bus tap, fed from the executor's shared clock. Only the
    /// SDIMM protocols emit [`sdimm::obliviousness::Observable`] events
    /// (the baselines have no external SDIMM bus), so this is a no-op
    /// for NonSecure/PathOram/Freecursive machines.
    pub fn set_observable_recorder(&mut self) {
        if let Backend::Sdimm(o) = &mut self.backend {
            o.set_recorder(sdimm::obliviousness::Recorder::with_clock(
                self.executor.shared_clock(),
            ));
        }
    }

    /// Takes the observable recorder back from the backend, when one was
    /// attached and the backend has an external bus to observe.
    pub fn take_observable_recorder(&mut self) -> Option<sdimm::obliviousness::Recorder> {
        match &mut self.backend {
            Backend::Sdimm(o) => o.take_recorder(),
            _ => None,
        }
    }

    /// Attaches a cell's trace handle to the executor (phase
    /// completions, backend decisions, in-flight changes, per-channel DDR
    /// commands) and to every backend stash (occupancy ticks).
    pub fn set_trace(&mut self, trace: sdimm_telemetry::CellTrace) {
        self.executor.set_trace(trace.clone());
        match &mut self.backend {
            Backend::NonSecure => {}
            Backend::Baseline { oram, .. } => oram.set_trace(trace, 0),
            Backend::Sdimm(o) => o.set_trace(trace),
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
        match &self.backend {
            Backend::NonSecure => 0,
            Backend::Baseline { oram, .. } => oram.stash_peak(),
            Backend::Sdimm(o) => o.stash_peak(),
        }
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
        match &self.backend {
            Backend::NonSecure => {}
            Backend::Baseline { oram, .. } => m.absorb("oram", &oram.metrics()),
            Backend::Sdimm(o) => m.absorb("oram", &o.metrics()),
        }
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
    /// outside the tree. Each backend speaks a different channel-address
    /// dialect, so the inversion is per-design:
    ///
    /// * baselines interleave the single tree's *global* lines across
    ///   channels (`global = local * channels + channel`, the inverse of
    ///   [`Machine::split_lines`]);
    /// * Independent sends each SDIMM's private layout addresses to its
    ///   own channel;
    /// * Split/IndepSplit byte-stripe one logical layout's addresses
    ///   over the member ways.
    pub fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32> {
        let unsplit = |channels: usize| ((addr / 64) * channels as u64 + channel as u64) * 64;
        match &self.backend {
            Backend::NonSecure => None,
            Backend::Baseline { oram, channels } => oram.layout().level_of_line(unsplit(*channels)),
            Backend::Sdimm(o) => o.level_of_channel_line(channel, addr),
        }
    }

    /// Per-tree-level wear merged across the backend's ORAM instance(s)
    /// (empty for the non-secure machine).
    pub fn level_wear(&self) -> LevelWear {
        match &self.backend {
            Backend::NonSecure => LevelWear::default(),
            Backend::Baseline { oram, .. } => oram.level_wear().clone(),
            Backend::Sdimm(o) => o.level_wear(),
        }
    }

    /// Maps a physical line address onto (channel, channel-local address)
    /// for baseline machines: consecutive lines interleave across the
    /// channels.
    fn split_lines(lines: &[u64], channels: usize) -> Vec<(usize, Vec<u64>)> {
        let mut per: Vec<Vec<u64>> = vec![Vec::new(); channels];
        for &addr in lines {
            let line = addr / 64;
            let ch = (line % channels as u64) as usize;
            per[ch].push((line / channels as u64) * 64);
        }
        per.into_iter().enumerate().filter(|(_, v)| !v.is_empty()).collect()
    }

    /// Builds the request-trace chain for one LLC miss (or LLC
    /// write-back) at byte address `addr`: one trace per `accessORAM`
    /// the frontend plans (posmap walks, PLB write-backs, then the demand
    /// access). The parts must execute in order — each depends on the
    /// previous one's result — but each claims only its *own* backend,
    /// so accesses from different CPU requests overlap whenever their
    /// backends differ.
    pub fn request_traces(&mut self, addr: u64, is_write: bool) -> Vec<RequestTrace> {
        let op = if is_write { Op::Write } else { Op::Read };
        match &mut self.backend {
            Backend::NonSecure => {
                let channels = self.executor.channel_count();
                let line = addr / 64;
                let ch = (line % channels as u64) as usize;
                let local = (line / channels as u64) * 64;
                vec![RequestTrace::new(vec![Phase::one(Activity::Dram {
                    channel: ch,
                    reads: if is_write { vec![] } else { vec![local] },
                    writes: if is_write { vec![local] } else { vec![] },
                })])]
            }
            Backend::Baseline { oram, channels } => {
                let index = (addr / 64) % self.cfg.data_blocks;
                Self::plan(self.frontend.as_mut(), index, op)
                    .into_iter()
                    .map(|p| {
                        let (_, plan) = oram.access(p.id, p.op, Some(&[]));
                        Self::baseline_path_trace(&plan, *channels)
                    })
                    .collect()
            }
            Backend::Sdimm(oram) => {
                let index = (addr / 64) % self.cfg.data_blocks;
                Self::plan(self.frontend.as_mut(), index, op)
                    .into_iter()
                    .map(|p| oram.access(p.id, p.op, Some(&[])).1)
                    .collect()
            }
        }
    }

    /// The `accessORAM`s one CPU request on data block `index` needs: the
    /// frontend's plan, or the demand access alone when the position map
    /// is on chip (plain Path ORAM).
    fn plan(frontend: Option<&mut Frontend>, index: u64, op: Op) -> Vec<PlannedAccess> {
        match frontend {
            Some(f) => f.plan_request(index, op),
            None => vec![PlannedAccess { id: BlockId(index), op, is_posmap: false }],
        }
    }

    /// One whole-path `accessORAM` over the baseline main-memory
    /// channels: path read (+decrypt) then path write-back, serialized
    /// on the single ORAM controller. Shared by the plain-PathOram and
    /// Freecursive backends.
    fn baseline_path_trace(plan: &oram::plan::AccessPlan, channels: usize) -> RequestTrace {
        let mut phases = Vec::new();
        let mut read_phase = Phase::default();
        for (ch, lines) in Self::split_lines(&plan.read_lines, channels) {
            read_phase.par.push(Activity::Dram { channel: ch, reads: lines, writes: vec![] });
        }
        read_phase.par.push(Activity::Crypto { units: plan.read_lines.len() as u32 });
        phases.push(read_phase);
        let mut write_phase = Phase::default();
        for (ch, lines) in Self::split_lines(&plan.write_lines, channels) {
            write_phase.par.push(Activity::Dram { channel: ch, reads: vec![], writes: lines });
        }
        phases.push(write_phase);
        let mut t = RequestTrace::new(phases);
        // Data is ready after the path read; write-back drains
        // behind it inside the serialized backend.
        t.data_ready_phase = t.phases.len().saturating_sub(2);
        t.backend = Some(0);
        t
    }
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
    use super::*;

    #[test]
    fn bus_assignment_groups_contiguously() {
        assert_eq!(bus_assignment(4, 2), vec![0, 0, 1, 1]);
        assert_eq!(bus_assignment(2, 1), vec![0, 0]);
        assert_eq!(bus_assignment(2, 2), vec![0, 1]);
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
