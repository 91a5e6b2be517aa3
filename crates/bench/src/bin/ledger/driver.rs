//! The traced copy of `sdimm_system::runner::run`.
//!
//! Spans can only be recorded from outside the layers, so the traced run
//! drives the machine itself: the same warm-up, the same issue / tick /
//! poll loop and the same result harvesting as `runner::run`, with a span
//! around every call into the LLC, the machine and the executor. It is
//! valid only while it reproduces `runner::run` exactly, which every
//! traced run checks through [`Fingerprint`] (and the unit tests check on
//! every machine kind).

use std::collections::{HashMap, VecDeque};

use sdimm::trace::RequestTrace;
use sdimm_system::executor::{ExecEvent, ExecId};
use sdimm_system::llc::Llc;
use sdimm_system::machine::{Machine, SystemConfig};
use sdimm_system::runner::{RunResult, CPU_PER_MEM_CYCLE, MSHR_LIMIT, ROB_INSTRS};
use sdimm_telemetry::LatencyHistogram;
use workloads::Trace;

use crate::stats::{fnv1a, FNV_OFFSET};
use crate::tracer::{Layer, Tracer};

/// The simulated outputs of one run that must never move with host-speed
/// work: a changed fingerprint means the model changed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub llc_misses: u64,
    pub dram_lines: u64,
    pub miss_p50: u64,
    pub miss_p99: u64,
    /// The measured window's total energy in nJ (compared exactly).
    pub energy_nj: f64,
    /// FNV-1a of `RunResult::metrics.to_json()`.
    pub metrics_fnv: u64,
}

impl Fingerprint {
    pub fn of(r: &RunResult) -> Self {
        Fingerprint {
            cycles: r.cycles,
            llc_misses: r.llc_misses,
            dram_lines: r.dram_lines,
            miss_p50: r.miss_latency_p50,
            miss_p99: r.miss_latency_p99,
            energy_nj: r.energy.total_nj(),
            metrics_fnv: fnv1a(FNV_OFFSET, r.metrics.to_json().as_bytes()),
        }
    }
}

/// Work counted at the layer boundaries of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles the executor advanced through `tick`.
    pub tick_cycles: u64,
    /// Request traces `request_traces` returned.
    pub request_parts: u64,
    /// LLC hits among measured accesses.
    pub llc_hits: u64,
}

/// An LLC request expanded into its chain of `accessORAM` traces.
struct Chain {
    parts: VecDeque<RequestTrace>,
    instr_pos: u64,
    issued_at: u64,
    is_writeback: bool,
}

/// `runner::run(cfg, trace, warmup, measure)`, with spans.
///
/// # Panics
///
/// Panics if the trace is shorter than `warmup + measure`, like the runner.
pub fn run_traced(
    cfg: &SystemConfig,
    trace: &Trace,
    warmup: usize,
    measure: usize,
    t: &mut Tracer,
) -> (RunResult, Counts) {
    assert!(trace.records.len() >= warmup + measure, "trace too short");
    let mut machine = t.span(Layer::MachineNew, || Machine::new(cfg.clone()));
    t.enter(Layer::Runner);
    let mut counts = Counts::default();
    let mut llc = Llc::table2();
    for r in &trace.records[..warmup] {
        llc.warm(r.addr, r.is_write);
    }
    machine.executor.reset_stats();

    let mut chains: HashMap<ExecId, Chain> = HashMap::new();
    let mut miss_latency = LatencyHistogram::new();
    let mut latency_sum: u64 = 0;
    let mut latency_count: u64 = 0;
    let mut dram_lines: u64 = 0;
    let mut retired: u64 = 0;
    let mut instr_pos: u64 = 0;
    let mut next_issue_at: u64 = 0;
    let mut last_miss: Option<ExecId> = None;
    let records = &trace.records[warmup..warmup + measure];
    let mut idx = 0usize;
    let rob_len =
        |chains: &HashMap<ExecId, Chain>| chains.values().filter(|c| !c.is_writeback).count();

    while retired < measure as u64 {
        let now = machine.executor.now();
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
            if r.depends_on_prev && last_miss.is_some_and(|prev| chains.contains_key(&prev)) {
                break;
            }
            idx += 1;
            instr_pos += r.gap as u64 + 1;
            next_issue_at = now.saturating_add((r.gap as u64) / CPU_PER_MEM_CYCLE);
            let res = t.span(Layer::LlcAccess, || llc.access(r.addr, r.is_write));
            if res.hit {
                retired += 1;
                continue;
            }
            let mut parts: VecDeque<_> =
                t.span(Layer::RequestTraces, || machine.request_traces(r.addr, r.is_write)).into();
            counts.request_parts += parts.len() as u64;
            dram_lines += parts.iter().map(|p| p.dram_lines()).sum::<u64>();
            let first = parts.pop_front().expect("at least the demand access");
            let id = t.span(Layer::Submit, || machine.executor.submit(first));
            chains.insert(id, Chain { parts, instr_pos, issued_at: now, is_writeback: false });
            last_miss = Some(id);
            if let Some(victim) = res.writeback {
                let mut wparts: VecDeque<_> =
                    t.span(Layer::RequestTraces, || machine.request_traces(victim, true)).into();
                counts.request_parts += wparts.len() as u64;
                dram_lines += wparts.iter().map(|p| p.dram_lines()).sum::<u64>();
                let wfirst = wparts.pop_front().expect("non-empty");
                let wid = t.span(Layer::Submit, || machine.executor.submit(wfirst));
                chains.insert(
                    wid,
                    Chain { parts: wparts, instr_pos, issued_at: now, is_writeback: true },
                );
            }
        }

        // The runner's 16-cycle poll grid and horizon jump, verbatim.
        let mut h = t.span(Layer::Horizon, || {
            machine.executor.next_event_horizon_clamped(now.saturating_add(16))
        });
        if idx < records.len() && next_issue_at > now {
            h = h.min(next_issue_at);
        }
        let dt = if h == u64::MAX {
            16
        } else {
            let target = h.max(now.saturating_add(1));
            let rem = target % 16;
            let aligned = if rem == 0 { target } else { target.saturating_add(16 - rem) };
            aligned.saturating_sub(now).min(65_536)
        };
        t.span(Layer::Tick, || machine.executor.tick(dt));
        counts.tick_cycles = counts.tick_cycles.saturating_add(dt);
        for ev in t.span(Layer::Poll, || machine.executor.poll()) {
            let ExecEvent::DataReady { id, at } = ev else { continue };
            let Some(mut chain) = chains.remove(&id) else { continue };
            match chain.parts.pop_front() {
                Some(next) => {
                    let nid = t.span(Layer::Submit, || machine.executor.submit(next));
                    if last_miss == Some(id) {
                        last_miss = Some(nid);
                    }
                    chains.insert(nid, chain);
                }
                None if !chain.is_writeback => {
                    let lat = at.saturating_sub(chain.issued_at);
                    miss_latency.record(lat);
                    latency_sum += lat;
                    latency_count += 1;
                    retired += 1;
                }
                None => {}
            }
        }
        if idx >= records.len() && chains.is_empty() {
            break;
        }
    }

    // Result harvesting in the runner's order (energy first: it settles
    // the channels' power-state accounting).
    let cycles = machine.executor.now();
    let energy = machine.executor.energy();
    let stash_peak = machine.stash_peak() as u64;
    let plb_hit_rate = machine.plb_hit_rate();
    let mut metrics = machine.metrics();
    metrics.counter_add("run.cycles", cycles);
    metrics.counter_add("run.records", measure as u64);
    metrics.counter_add("run.llc_misses", llc.stats().misses);
    metrics.counter_add("run.dram_lines", dram_lines);
    metrics.histogram_set("run.miss_latency", miss_latency.clone());
    metrics.gauge_set("run.energy_nj", energy.total_nj());
    counts.llc_hits = llc.stats().hits;
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
    t.exit();
    (result, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdimm_system::machine::MachineKind;
    use sdimm_system::runner;

    #[test]
    fn traced_driver_reproduces_the_runner_on_every_machine_kind() {
        let kinds = [
            MachineKind::NonSecure { channels: 2 },
            MachineKind::PathOram { channels: 1 },
            MachineKind::Freecursive { channels: 1 },
            MachineKind::Independent { sdimms: 4, channels: 2 },
            MachineKind::Split { ways: 2, channels: 1 },
            MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
        ];
        // Pointer chasing and write-backs both occur in this profile.
        let trace = workloads::spec::generate("GemsFDTD-like", 300, 5);
        for kind in kinds {
            let cfg = SystemConfig::small(kind);
            let plain = runner::run(&cfg, &trace, 100, 200);
            let mut t = Tracer::default();
            let (traced, counts) = run_traced(&cfg, &trace, 100, 200, &mut t);
            assert_eq!(Fingerprint::of(&plain), Fingerprint::of(&traced), "{}", kind.name());
            assert_eq!(plain.metrics.to_json(), traced.metrics.to_json(), "{}", kind.name());
            assert_eq!(plain.mean_miss_latency, traced.mean_miss_latency);
            assert_eq!(plain.miss_latency_p90, traced.miss_latency_p90);
            assert_eq!(plain.external_bus_bytes, traced.external_bus_bytes);
            assert_eq!(t.totals(Layer::Runner).calls, 1);
            assert_eq!(t.totals(Layer::LlcAccess).calls, 200);
            assert_eq!(counts.llc_hits + plain.llc_misses, 200);
            assert!(counts.request_parts >= t.totals(Layer::RequestTraces).calls);
            assert_eq!(counts.tick_cycles, traced.cycles, "ticks advance the whole window");
        }
    }
}
