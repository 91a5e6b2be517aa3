//! The trace-replay runner: warm-up then cycle-measured execution.
//!
//! Mirrors the paper's methodology (§IV-A): L1-miss records are replayed
//! through the LLC; after a warm-up window that only touches the LLC,
//! the measured window runs cycle-accurately. The CPU model is an
//! in-order core with a 128-entry ROB: a miss can issue once its
//! inter-arrival gap has elapsed and the number of outstanding misses is
//! below the window the ROB supports; dirty LLC evictions generate
//! write requests that do not block retirement.

use std::collections::HashMap;

use dram_sim::address::Coords;
use dram_sim::config::Cycle;
use dram_sim::power::EnergyBreakdown;
use dram_sim::wear::{RowWear, WearSnapshot};
use sdimm::obliviousness::{observables, Observable};
use sdimm_telemetry::{
    imbalance, CellTrace, Instruments, LatencyHistogram, MetricsRegistry, TraceSink,
};
use workloads::Trace;

use crate::executor::ExecEvent;
use crate::llc::Llc;
use crate::machine::{Machine, SystemConfig};

/// CPU cycles per memory-bus cycle (1.6 GHz core vs 800 MHz bus).
pub const CPU_PER_MEM_CYCLE: u64 = 2;

/// ROB capacity in instructions (Table II: 128-entry re-order buffer).
/// The core can only run this far ahead of its oldest incomplete miss,
/// so achievable memory-level parallelism is the number of misses that
/// fit in this window — the property separating the Independent and
/// Split protocols.
pub const ROB_INSTRS: u64 = 128;

/// Miss-status registers: a hard cap on outstanding LLC misses.
pub const MSHR_LIMIT: usize = 16;

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Machine name (e.g. `INDEP-4`).
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// Memory-bus cycles the measured window took.
    pub cycles: Cycle,
    /// Trace records retired in the measured window.
    pub records: u64,
    /// LLC misses in the measured window.
    pub llc_misses: u64,
    /// Mean memory latency per LLC miss (bus cycles, issue → data ready).
    pub mean_miss_latency: f64,
    /// Median miss latency (bus cycles).
    pub miss_latency_p50: u64,
    /// 90th-percentile miss latency (bus cycles).
    pub miss_latency_p90: u64,
    /// 99th-percentile miss latency (bus cycles).
    pub miss_latency_p99: u64,
    /// accessORAMs per LLC request (paper: ≈1.4).
    pub accesses_per_request: f64,
    /// Peak stash occupancy over the run (0 for baselines).
    pub stash_peak: u64,
    /// PLB hit rate over the run (0 for baselines).
    pub plb_hit_rate: f64,
    /// Energy over the measured window.
    pub energy: EnergyBreakdown,
    /// External-bus bytes (0 for baselines).
    pub external_bus_bytes: u64,
    /// Total DRAM line transfers issued.
    pub dram_lines: u64,
    /// Full metrics snapshot of the run (channel latency histograms,
    /// PLB/stash stats, executor attribution, run-level distributions).
    pub metrics: MetricsRegistry,
}

impl RunResult {
    /// Cycles per record: the normalized execution-time metric of
    /// Figs 6/8/9/11.
    pub fn cycles_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.cycles as f64 / self.records as f64
        }
    }

    /// Energy per record in nJ (Fig 10's metric, normalized elsewhere).
    pub fn energy_per_record_nj(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.energy.total_nj() / self.records as f64
        }
    }
}

/// Runs `trace` on a machine built from `cfg`: `warmup` records touch
/// only the LLC, then `measure` records run cycle-accurately.
///
/// # Panics
///
/// Panics if the trace is shorter than `warmup + measure`.
pub fn run(cfg: &SystemConfig, trace: &Trace, warmup: usize, measure: usize) -> RunResult {
    run_with(cfg, trace, warmup, measure, &Instruments::disabled(), 0, Capture::default()).0
}

/// [`run`] with a [`TraceSink`] attached under process id `pid`, also
/// recording every DRAM command each channel issues so the run can be
/// replayed through an independent constraint checker (`sdimm-audit`).
///
/// # Panics
///
/// Panics if the trace is shorter than `warmup + measure`.
pub fn run_audited(
    cfg: &SystemConfig,
    trace: &Trace,
    warmup: usize,
    measure: usize,
    sink: TraceSink,
    pid: u32,
) -> (RunResult, Captured) {
    let capture = Capture { cmds: true, ..Capture::default() };
    run_with(cfg, trace, warmup, measure, &Instruments::with_sink(sink), pid, capture)
}

/// What a run records beyond its [`RunResult`]. Everything is off by
/// default; each capture attaches before any request reaches a channel,
/// so what it records is complete from cycle 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capture {
    /// Every DRAM command each channel issues ([`Captured::streams`]):
    /// the replay auditor's input and the on-DIMM attacker vantage.
    pub cmds: bool,
    /// The cycle-stamped observable stream ([`Captured::observables`]):
    /// the bus attacker's vantage on the SDIMM protocols.
    pub observables: bool,
    /// Per-row wear tracking on every channel, reporting the given
    /// number of hottest rows ([`Captured::wear`] and the fields after it).
    pub wear_top_k: Option<usize>,
}

/// What one run recorded, per its [`Capture`]. Fields the run did not
/// ask for are empty. Fully deterministic: the same config and trace
/// reproduce every field exactly.
#[derive(Debug)]
pub struct Captured {
    /// Channel configuration shared by every channel of the machine
    /// (the auditor's timing table, the touch grid's rank and bank
    /// counts, the standard whose hammer threshold applies).
    pub channel_cfg: dram_sim::config::ChannelConfig,
    /// Per-channel DRAM command streams in channel order, complete from
    /// the first command each channel ever issued (replaying a stream
    /// that starts mid-flight would check against unknown bank state).
    pub streams: Vec<Vec<dram_sim::cmdlog::CmdRecord>>,
    /// What the attacker sees of every executed trace ([`observables`]),
    /// stamped with the cycle its request issued at. Empty for machines
    /// without an external SDIMM bus (NonSecure, PathOram, Freecursive).
    pub observables: Vec<(Cycle, Observable)>,
    /// Per-channel wear snapshots (measured window only).
    pub wear: Vec<WearSnapshot>,
    /// Per-tree-level wear merged across the backend's ORAM instances.
    pub level_wear: oram::wear::LevelWear,
    /// The `wear_top_k` hottest rows across all channels, ACTs descending
    /// (ties by channel then physical order).
    pub hot_rows: Vec<HotRow>,
}

/// One of the hottest physical rows of a run, attributed both ways: by
/// DRAM coordinates (channel/rank/bank/row) and by the ORAM tree levels
/// whose bucket lines live in that row.
#[derive(Debug, Clone)]
pub struct HotRow {
    /// Owning DRAM channel.
    pub channel: usize,
    /// Physical identity and lifetime ACT/WR counts.
    pub row: RowWear,
    /// Distinct ORAM tree levels mapped into the row (sorted; empty for
    /// machines without a tree or rows outside it).
    pub levels: Vec<u32>,
}

/// Harvests per-channel wear snapshots and attributes each channel's
/// `top_k` hottest rows to ORAM tree levels by re-encoding every line
/// of the row through the channel's own address mapper. Runs while the
/// machine is still alive (level attribution needs the backend's
/// layouts) and fills the wear fields of `captured`.
fn harvest_wear(machine: &Machine, top_k: usize, captured: &mut Captured) {
    for i in 0..machine.executor.channel_count() {
        let ch = machine.executor.channel(i);
        // lint: panic-ok(invariant: run_with enables wear before traffic when wear_top_k is set)
        let snap = ch.wear().expect("wear enabled before traffic").snapshot();
        let cols = ch.config().topology.lines_per_row();
        for row in snap.hottest(top_k) {
            let mut levels: Vec<u32> = (0..cols)
                .filter_map(|col| {
                    let addr = ch.mapper().encode(Coords {
                        rank: row.id.rank,
                        bank: row.id.bank,
                        row: row.id.row,
                        col,
                    });
                    machine.level_of_channel_line(i, addr)
                })
                .collect();
            levels.sort_unstable();
            levels.dedup();
            captured.hot_rows.push(HotRow { channel: i, row, levels });
        }
        captured.wear.push(snap);
    }
    captured.hot_rows.sort_by(|a, b| {
        b.row.acts.cmp(&a.row.acts).then(a.channel.cmp(&b.channel)).then(a.row.id.cmp(&b.row.id))
    });
    captured.hot_rows.truncate(top_k);
    captured.level_wear = machine.level_wear();
}

/// Dumps `cell`'s black box for a stash-bound breach: the runner calls
/// this the moment a machine's stash occupancy escapes the configured
/// bound, naming the cycle the breaching access was issued at, and it
/// fires at most once per cell (the cell's dump latch, which a later
/// panic of the cell respects too). Returns the `(report, trace-slice)`
/// paths when the dump was written, `None` when the sink has no
/// black-box prefix, the cell already dumped, or the write failed
/// (failure is reported on stderr — the run itself must not die because
/// a diagnostic could not be saved).
pub fn dump_stash_breach(
    cell: &CellTrace,
    machine: &str,
    cycle: Cycle,
    occupancy: usize,
    bound: usize,
) -> Option<(String, String)> {
    if !cell.arm_dump() {
        return None;
    }
    let reason = format!(
        "[stash-bound] cycle {cycle} machine {machine}: \
         occupancy {occupancy} blocks, bound {bound} blocks"
    );
    match cell.dump_blackbox(&reason)? {
        Ok((txt, json)) => {
            eprintln!("flight recorder: {reason}; dumped {txt} and {json}");
            Some((txt, json))
        }
        Err(e) => {
            eprintln!("flight recorder: {reason}; dump failed: {e}");
            None
        }
    }
}

/// The one run loop behind [`run`] and [`run_audited`]: [`run`], with
/// the full [`Instruments`] bundle attached (the cell's event ring,
/// recorded under process id `pid`, and its black box; cycle-attribution
/// profiler; live-dashboard state) and whatever `capture` asks for
/// recorded. Disabled instruments and captures cost one branch per
/// touch point, and no instrument perturbs timing: an instrumented run
/// takes the same event-driven time jumps as a plain one.
///
/// # Panics
///
/// Panics if the trace is shorter than `warmup + measure`.
pub fn run_with(
    cfg: &SystemConfig,
    trace: &Trace,
    warmup: usize,
    measure: usize,
    instruments: &Instruments,
    pid: u32,
    capture: Capture,
) -> (RunResult, Captured) {
    assert!(
        trace.records.len() >= warmup + measure,
        "trace too short: {} < {}",
        trace.records.len(),
        warmup + measure
    );
    let mut machine = Machine::new(cfg.clone());
    // Wear tracking and command logs attach before any request touches
    // a channel, so lifetime counts and streams agree from cycle 0.
    if capture.wear_top_k.is_some() {
        machine.enable_wear();
    }
    let cmd_logs = if capture.cmds { machine.executor.attach_cmd_logs() } else { Vec::new() };
    let observe = capture.observables && machine.executor.has_bus();
    let mut observed: Vec<(Cycle, Observable)> = Vec::new();
    // The cell records into its own ring under its own pid, stamped from
    // this machine's clock; the events reach the sink when the machine
    // and `cell` drop at the end of the run.
    let cell = instruments.sink.cell(pid, machine.executor.shared_clock());
    if cell.is_enabled() {
        instruments.sink.process_name(pid, &format!("{} / {}", cfg.kind.name(), trace.name));
        machine.set_trace(cell.clone());
    }
    let blackbox = instruments.sink.blackbox_prefix().is_some();
    if instruments.profiler.is_enabled() {
        machine.set_profiler(instruments.profiler.clone());
    }
    let live = instruments.live.clone();
    if live.is_enabled() {
        live.cell_started(&format!("{}.{}", trace.name, cfg.kind.name()));
    }
    let mut llc = Llc::table2();

    // Warm-up: LLC state only (the paper fast-forwards 1M accesses).
    for r in &trace.records[..warmup] {
        llc.warm(r.addr, r.is_write);
    }
    // Warm-up must not leak into measured stats: clear everything the
    // executor and its channels accumulated (today the warm-up touches
    // only the LLC, but this keeps the boundary explicit and guarded).
    machine.executor.reset_stats();

    // Measured window.
    //
    // The core model: instruction position advances by each record's gap;
    // a miss occupies a ROB slot until its (final chained part's) data
    // returns, and the core can run at most `ROB_INSTRS` instructions past
    // its oldest incomplete miss. Dependent (pointer-chase) records
    // additionally wait for the previous miss's data. Dirty-LLC
    // write-backs go out through the store buffer: they consume memory
    // bandwidth but no ROB slot. Each LLC request expands into a chain of
    // `accessORAM` traces executed in order; part k+1 is submitted when
    // part k's data is ready, and each part serializes only on its own
    // ORAM backend.
    struct Chain {
        parts: std::collections::VecDeque<sdimm::trace::RequestTrace>,
        instr_pos: u64,
        issued_at: Cycle,
        is_writeback: bool,
    }
    let mut chains: HashMap<crate::executor::ExecId, Chain> = HashMap::new();
    let mut miss_latency = LatencyHistogram::new();
    let mut latency_sum: u64 = 0;
    let mut latency_count: u64 = 0;
    let mut dram_lines: u64 = 0;
    let mut retired: u64 = 0;
    let mut instr_pos: u64 = 0;
    let mut next_issue_at: Cycle = 0;
    let mut last_miss: Option<crate::executor::ExecId> = None;

    let records = &trace.records[warmup..warmup + measure];
    let mut idx = 0usize;

    let rob_len = |chains: &HashMap<crate::executor::ExecId, Chain>| {
        chains.values().filter(|c| !c.is_writeback).count()
    };

    while retired < measure as u64 {
        let now = machine.executor.now();

        // Issue as many records as the ROB window, MSHRs, gaps, and
        // dependences allow.
        while idx < records.len() && rob_len(&chains) < MSHR_LIMIT && now >= next_issue_at {
            let r = records[idx];
            let window_open = chains
                .values()
                .filter(|c| !c.is_writeback)
                .map(|c| c.instr_pos)
                .min()
                .is_none_or(|oldest| instr_pos.saturating_sub(oldest) < ROB_INSTRS);
            if !window_open {
                break;
            }
            if r.depends_on_prev {
                if let Some(prev) = last_miss {
                    if chains.contains_key(&prev) {
                        break; // the chased pointer has not returned yet
                    }
                }
            }
            idx += 1;
            instr_pos += r.gap as u64 + 1;
            next_issue_at = now.saturating_add((r.gap as u64) / CPU_PER_MEM_CYCLE);
            let res = llc.access(r.addr, r.is_write);
            if res.hit {
                // Served on-chip; its 10-cycle latency overlaps the gap.
                retired += 1;
                continue;
            }
            let mut parts: std::collections::VecDeque<_> =
                machine.request_traces(r.addr, r.is_write).into();
            dram_lines += parts.iter().map(|t| t.dram_lines()).sum::<u64>();
            if observe {
                observed.extend(parts.iter().flat_map(observables).map(|ev| (now, ev)));
            }
            // lint: panic-ok(invariant: at least the demand access)
            let first = parts.pop_front().expect("at least the demand access");
            let id = machine.executor.submit(first);
            chains.insert(id, Chain { parts, instr_pos, issued_at: now, is_writeback: false });
            last_miss = Some(id);
            // A dirty victim drains through the store buffer.
            if let Some(victim) = res.writeback {
                let mut wparts: std::collections::VecDeque<_> =
                    machine.request_traces(victim, true).into();
                dram_lines += wparts.iter().map(|t| t.dram_lines()).sum::<u64>();
                if observe {
                    observed.extend(wparts.iter().flat_map(observables).map(|ev| (now, ev)));
                }
                // lint: panic-ok(invariant: non-empty)
                let wfirst = wparts.pop_front().expect("non-empty");
                let wid = machine.executor.submit(wfirst);
                chains.insert(
                    wid,
                    Chain { parts: wparts, instr_pos, issued_at: now, is_writeback: true },
                );
            }
        }

        // Stash-bound breach: the protocols' post-access relief must keep
        // every stash within the configured bound; if one escapes, dump
        // the cell's black box once with an actual-vs-expected reason so
        // the run is debuggable without a rerun. Occupancy changes only
        // inside `request_traces`, so probing after the issue loop sees
        // every breach at the cycle its access was issued.
        if blackbox && machine.stash_len() > cfg.oram.stash_limit {
            let (occupancy, bound) = (machine.stash_len(), cfg.oram.stash_limit);
            dump_stash_breach(&cell, &cfg.kind.name(), now, occupancy, bound);
        }

        // Advance time. The loop observes the executor on an absolute
        // 16-cycle grid (one fixed tick per iteration, historically);
        // jump over stretches where neither a new issue nor an executor
        // event can occur. Both bounds are conservative lower bounds, so
        // an early stop is a no-op poll on the same grid — every event
        // is still polled, and every record still issued, at the exact
        // cycle the fixed-quantum loop would have used. The floor is this
        // loop's own next grid point: any horizon at or below it aligns
        // up to the same 16-cycle poll, so the executor may stop refining
        // there.
        let mut h = machine.executor.next_event_horizon_clamped(now.saturating_add(16));
        if idx < records.len() && next_issue_at > now {
            h = h.min(next_issue_at);
        }
        let dt = if h == Cycle::MAX {
            // No event can ever occur: everything retired and nothing is
            // left to issue (any blocked issue keeps a chain alive, which
            // keeps the horizon finite). This is the loop's final
            // iteration; take the historical 16-cycle step so the stopped
            // clock matches the fixed-quantum engine's final reading
            // exactly.
            16
        } else {
            let target = h.max(now.saturating_add(1));
            let rem = target % 16;
            let aligned = if rem == 0 { target } else { target.saturating_add(16 - rem) };
            // Cap the jump so a (hypothetical) unbounded horizon cannot
            // wedge the loop in a single enormous tick.
            aligned.saturating_sub(now).min(65_536)
        };
        machine.executor.tick(dt);
        for ev in machine.executor.poll() {
            if let ExecEvent::DataReady { id, at } = ev {
                if let Some(mut chain) = chains.remove(&id) {
                    match chain.parts.pop_front() {
                        Some(next) => {
                            // Continue the chain under a fresh exec id.
                            let nid = machine.executor.submit(next);
                            if last_miss == Some(id) {
                                last_miss = Some(nid);
                            }
                            chains.insert(nid, chain);
                        }
                        None => {
                            if !chain.is_writeback {
                                let lat = at.saturating_sub(chain.issued_at);
                                miss_latency.record(lat);
                                live.record_miss(lat);
                                latency_sum += lat;
                                latency_count += 1;
                                retired += 1;
                            }
                        }
                    }
                }
            }
        }

        // All records consumed and every chain finished: stop the clock
        // (trailing protocol cleanup does not delay the program).
        if idx >= records.len() && chains.is_empty() {
            break;
        }
    }

    let cycles = machine.executor.now();
    let energy = machine.executor.energy();
    let stash_peak = machine.stash_peak() as u64;
    if live.is_enabled() {
        live.observe_stash_peak(stash_peak);
        live.cell_finished();
    }
    let plb_hit_rate = machine.plb_hit_rate();
    let mut captured = Captured {
        channel_cfg: cfg.kind.channel_config_for(cfg.standard),
        streams: cmd_logs.iter().map(|l| l.take()).collect(),
        observables: observed,
        wear: Vec::new(),
        level_wear: oram::wear::LevelWear::default(),
        hot_rows: Vec::new(),
    };
    if let Some(k) = capture.wear_top_k {
        harvest_wear(&machine, k, &mut captured);
    }
    let mut metrics = machine.metrics();
    for (i, s) in captured.wear.iter().enumerate() {
        let p = format!("dram.chan{i}.wear");
        metrics.gauge_set(&format!("{p}.peak_window"), s.peak_window as f64);
        metrics.gauge_set(
            &format!("{p}.rank_act_max_over_mean"),
            imbalance::max_over_mean(&s.per_rank_acts),
        );
        metrics.gauge_set(&format!("{p}.rank_act_gini"), imbalance::gini(&s.per_rank_acts));
    }
    metrics.counter_add("run.cycles", cycles);
    metrics.counter_add("run.records", measure as u64);
    metrics.counter_add("run.llc_misses", llc.stats().misses);
    metrics.counter_add("run.dram_lines", dram_lines);
    metrics.histogram_set("run.miss_latency", miss_latency.clone());
    metrics.gauge_set("run.energy_nj", energy.total_nj());
    let result = RunResult {
        machine: cfg.kind.name(),
        workload: trace.name.clone(),
        cycles,
        records: measure as u64,
        llc_misses: llc.stats().misses,
        mean_miss_latency: if latency_count == 0 {
            0.0
        } else {
            latency_sum as f64 / latency_count as f64
        },
        miss_latency_p50: miss_latency.percentile(0.50),
        miss_latency_p90: miss_latency.percentile(0.90),
        miss_latency_p99: miss_latency.percentile(0.99),
        accesses_per_request: machine.accesses_per_request(),
        stash_peak,
        plb_hit_rate,
        energy,
        external_bus_bytes: machine.executor.bus_bytes(),
        dram_lines,
        metrics,
    };
    (result, captured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineKind;
    use workloads::spec;

    fn quick(kind: MachineKind) -> RunResult {
        let cfg = SystemConfig::small(kind);
        let trace = spec::generate("milc-like", 1200, 3);
        run(&cfg, &trace, 200, 400)
    }

    #[test]
    fn nonsecure_run_completes() {
        let r = quick(MachineKind::NonSecure { channels: 1 });
        assert!(r.cycles > 0);
        assert!(r.llc_misses > 0);
        assert_eq!(r.records, 400);
    }

    #[test]
    fn freecursive_much_slower_than_nonsecure() {
        let ns = quick(MachineKind::NonSecure { channels: 1 });
        let fc = quick(MachineKind::Freecursive { channels: 1 });
        let slowdown = fc.cycles_per_record() / ns.cycles_per_record();
        assert!(
            slowdown > 3.0,
            "ORAM should cost several ×: got {slowdown} ({} vs {})",
            fc.cycles,
            ns.cycles
        );
    }

    #[test]
    fn sdimm_designs_beat_freecursive() {
        let fc = quick(MachineKind::Freecursive { channels: 1 });
        let indep = quick(MachineKind::Independent { sdimms: 2, channels: 1 });
        let split = quick(MachineKind::Split { ways: 2, channels: 1 });
        assert!(
            indep.cycles < fc.cycles,
            "INDEP-2 {} should beat Freecursive {}",
            indep.cycles,
            fc.cycles
        );
        assert!(
            split.cycles < fc.cycles,
            "SPLIT-2 {} should beat Freecursive {}",
            split.cycles,
            fc.cycles
        );
    }

    #[test]
    fn external_bus_traffic_tiny_for_independent() {
        let indep = quick(MachineKind::Independent { sdimms: 2, channels: 1 });
        let ext_lines = indep.external_bus_bytes / 64;
        assert!(ext_lines < indep.dram_lines / 5, "ext {ext_lines} vs dram {}", indep.dram_lines);
    }

    #[test]
    fn energy_populated() {
        let r = quick(MachineKind::Freecursive { channels: 1 });
        assert!(r.energy.total_nj() > 0.0);
        assert!(r.energy_per_record_nj() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 });
        let trace = spec::generate("soplex-like", 1200, 3);
        let a = run(&cfg, &trace, 200, 400);
        let b = run(&cfg, &trace, 200, 400);
        assert_eq!(a.cycles, b.cycles, "same seed and trace must reproduce exactly");
        assert_eq!(a.llc_misses, b.llc_misses);
        assert_eq!(a.dram_lines, b.dram_lines);
    }

    #[test]
    fn low_mlp_trace_runs_on_split() {
        let cfg = SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 });
        let trace = spec::generate("GemsFDTD-like", 1200, 3);
        let r = run(&cfg, &trace, 200, 400);
        assert_eq!(r.records, 400);
        assert!(r.mean_miss_latency > 0.0);
    }

    #[test]
    fn miss_latency_percentiles_are_ordered() {
        let r = quick(MachineKind::Freecursive { channels: 1 });
        assert!(r.miss_latency_p50 > 0);
        assert!(r.miss_latency_p50 <= r.miss_latency_p90);
        assert!(r.miss_latency_p90 <= r.miss_latency_p99);
        assert!(r.miss_latency_p99 as f64 >= r.mean_miss_latency * 0.5);
    }

    #[test]
    fn oram_run_reports_stash_and_plb() {
        let r = quick(MachineKind::Independent { sdimms: 2, channels: 1 });
        assert!(r.stash_peak > 0, "stash peak should be populated");
        assert!(r.plb_hit_rate > 0.0 && r.plb_hit_rate <= 1.0, "plb {}", r.plb_hit_rate);
        assert!(r.metrics.histogram("run.miss_latency").is_some());
        assert!(r.metrics.gauge("oram.stash_peak") > 0.0);
        let json = r.metrics.to_json();
        sdimm_telemetry::json::validate(&json).expect("metrics snapshot is valid JSON");
    }

    #[test]
    fn baseline_run_has_empty_oram_metrics() {
        let r = quick(MachineKind::NonSecure { channels: 1 });
        assert_eq!(r.stash_peak, 0);
        assert_eq!(r.plb_hit_rate, 0.0);
        assert!(r.metrics.histogram("dram.chan0.read_latency").is_some());
    }

    #[test]
    fn traced_run_matches_untraced_and_exports_spans() {
        let cfg = SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 });
        let trace = spec::generate("milc-like", 1200, 3);
        let plain = run(&cfg, &trace, 200, 400);
        let sink = TraceSink::with_capacity(1 << 16);
        let instruments = Instruments::with_sink(sink.clone());
        let (traced, _) = run_with(&cfg, &trace, 200, 400, &instruments, 7, Capture::default());
        assert_eq!(plain.cycles, traced.cycles, "tracing must not perturb timing");
        assert!(!sink.is_empty(), "sink should have captured events");
        let json = sink.export_chrome_json().expect("enabled sink exports");
        sdimm_telemetry::json::validate(&json).expect("chrome trace is valid JSON");
    }

    fn hammer(cfg: &SystemConfig, trace: &Trace, top_k: usize) -> (RunResult, Captured) {
        let capture = Capture { cmds: true, wear_top_k: Some(top_k), ..Capture::default() };
        run_with(cfg, trace, 200, 400, &Instruments::disabled(), 0, capture)
    }

    #[test]
    fn hammer_capture_reports_wear_and_level_imbalance() {
        let cfg = SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 });
        let trace = spec::generate("hotrow-adv", 1200, 3);
        let (r, cap) = hammer(&cfg, &trace, 8);
        assert_eq!(r.records, 400);

        // The engine's lifetime totals equal the per-channel stats
        // counters (same hooks, two exports).
        let snap_acts: u64 = cap.wear.iter().map(|s| s.total_acts).sum();
        let stat_acts: u64 = (0..cap.wear.len())
            .map(|i| r.metrics.counter(&format!("dram.chan{i}.activations")))
            .sum();
        assert_eq!(snap_acts, stat_acts, "wear snapshot and ChannelStats must agree");
        assert!(snap_acts > 0, "an ORAM run must activate rows");

        // Per-bucket wear falls geometrically from the shallowest
        // in-memory level to the leaves (cached levels absorb none).
        let per_bucket = cap.level_wear.per_bucket_writes();
        let first =
            cap.level_wear.writes().iter().position(|&w| w > 0).expect("some level absorbs writes");
        let leaf = per_bucket.len() - 1;
        assert!(first < leaf);
        assert!(
            per_bucket[first] > 4.0 * per_bucket[leaf],
            "root-side {} should dwarf leaf {}",
            per_bucket[first],
            per_bucket[leaf]
        );

        // Hot rows carry both attributions and respect the cap.
        assert!(!cap.hot_rows.is_empty() && cap.hot_rows.len() <= 8);
        assert!(cap.hot_rows.windows(2).all(|w| w[0].row.acts >= w[1].row.acts));
        assert!(
            cap.hot_rows.iter().any(|h| !h.levels.is_empty()),
            "hot rows of an ORAM machine should map into the tree"
        );

        // Streams captured for the replay auditor's recount.
        assert_eq!(cap.streams.len(), cap.wear.len());
        assert!(cap.streams.iter().any(|s| !s.is_empty()));

        // The wear gauges land in the metrics snapshot.
        assert!(r.metrics.gauge("dram.chan0.wear.peak_window") >= 0.0);
    }

    #[test]
    fn hammer_runs_are_deterministic_and_unperturbed() {
        let cfg = SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 });
        let trace = spec::generate("uniform-adv", 1200, 3);
        let plain = run(&cfg, &trace, 200, 400);
        let (a, ca) = hammer(&cfg, &trace, 4);
        let (b, cb) = hammer(&cfg, &trace, 4);
        assert_eq!(plain.cycles, a.cycles, "wear tracking must not perturb timing");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(ca.wear.len(), cb.wear.len());
        for (x, y) in ca.wear.iter().zip(cb.wear.iter()) {
            assert_eq!(x.total_acts, y.total_acts);
            assert_eq!(x.peak_window, y.peak_window);
            assert_eq!(x.rows, y.rows);
        }
        assert_eq!(ca.level_wear, cb.level_wear);
    }

    #[test]
    #[should_panic(expected = "trace too short")]
    fn short_trace_rejected() {
        let cfg = SystemConfig::small(MachineKind::NonSecure { channels: 1 });
        let trace = spec::generate("milc-like", 100, 3);
        run(&cfg, &trace, 90, 20);
    }
}
