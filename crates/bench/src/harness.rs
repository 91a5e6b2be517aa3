//! Parallel experiment matrices: the ordered worker pool `par_map` and
//! the figure panel's matrix `run_matrix` built on it.

use std::sync::atomic::{AtomicUsize, Ordering};

use sdimm_audit::ddr::{violation_recorder, DdrAuditor, BLACKBOX_CONTEXT};
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run_with, Capture, Captured, RunResult};
use sdimm_telemetry::Instruments;
use workloads::spec;

use crate::scale::Scale;

/// Runs `work(index, job)` for every job on a pool of scoped workers
/// and returns the results in job order.
///
/// Concurrency is bounded by the machine's cores: workers pull the next
/// job index from a shared cursor, so a large matrix never spawns more
/// threads than that. A worker's panic propagates to the caller.
pub(crate) fn par_map<J: Sync, T: Send>(
    jobs: &[J],
    work: impl Fn(usize, &J) -> T + Sync,
) -> Vec<T> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    par_map_on(cores, jobs, work)
}

/// [`par_map`] on at most `workers` workers.
fn par_map_on<J: Sync, T: Send>(
    workers: usize,
    jobs: &[J],
    work: impl Fn(usize, &J) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(jobs.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // The cursor only hands out indices; results come
                        // back through `join`, so no ordering is needed.
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { return out };
                        out.push((idx, work(idx, job)));
                    }
                })
            })
            .collect();
        pool.into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, t)| t).collect()
}

/// One measured cell of an experiment matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Key of the figure panel the cell belongs to.
    pub panel: String,
    /// Workload name.
    pub workload: String,
    /// Machine/design-point name.
    pub machine: String,
    /// The full run result.
    pub result: RunResult,
}

/// Runs every (workload × machine) combination of figure panel `panel`
/// on [`par_map`] and returns the cells in deterministic
/// (workload-major) order.
///
/// `make_cfg` builds the system configuration for a machine kind —
/// letting callers vary cached levels, low-power mode, etc. Each cell
/// gets its own trace process id (`pid_base` + its matrix order), named
/// `"<machine> / <workload>"`, and records into a ring of its own, so
/// the run's Chrome trace shows the whole matrix side by side.
///
/// With `audit`, every cell's DRAM command streams are replayed through
/// [`DdrAuditor`] inside the worker as the cell finishes and dropped
/// there, so memory stays bounded by one cell's traffic per worker
/// rather than the whole matrix's. Without it the log is empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_matrix(
    panel: &str,
    workload_names: &[&str],
    kinds: &[MachineKind],
    scale: Scale,
    make_cfg: impl Fn(MachineKind) -> SystemConfig + Sync,
    instruments: &Instruments,
    pid_base: u32,
    audit: bool,
) -> (Vec<Cell>, DdrAuditLog) {
    let jobs: Vec<(usize, &str, MachineKind)> = workload_names
        .iter()
        .enumerate()
        .flat_map(|(wi, wname)| kinds.iter().map(move |&kind| (wi, *wname, kind)))
        .collect();
    instruments.live.add_cells(jobs.len());
    let capture = Capture { cmds: audit, ..Capture::default() };

    let (cells, logs): (Vec<Cell>, Vec<DdrAuditLog>) =
        par_map(&jobs, |order, &(wi, wname, kind)| {
            let trace = spec::generate(wname, scale.trace_len(), 42 + wi as u64);
            let pid = pid_base + order as u32;
            let (result, captured) = run_with(
                &make_cfg(kind),
                &trace,
                scale.warmup(),
                scale.measure(),
                instruments,
                pid,
                capture,
            );
            let cell = Cell {
                panel: panel.to_string(),
                workload: wname.to_string(),
                machine: kind.name(),
                result,
            };
            let log = if audit {
                audit_cell(&cell, &captured, instruments, pid)
            } else {
                DdrAuditLog::default()
            };
            (cell, log)
        })
        .into_iter()
        .unzip();

    // Merged in matrix order, so violation and black-box lines read the
    // same on every run whatever order the workers finished in.
    let mut log = DdrAuditLog::default();
    for cell_log in logs {
        log.merge(cell_log);
    }
    (cells, log)
}

/// Aggregate result of replaying a matrix's DRAM command streams
/// through the differential DDR3 auditor.
#[derive(Debug, Clone, Default)]
pub(crate) struct DdrAuditLog {
    /// Matrix cells audited.
    pub cells: u64,
    /// DDR commands replayed across every channel of every cell.
    pub commands: u64,
    /// Refresh commands observed (a zero here on a long run means the
    /// capture itself is broken — refresh is always on in the machines).
    pub refreshes: u64,
    /// One formatted line per violating cell (empty on a clean matrix).
    pub violations: Vec<String>,
    /// Flight-recorder black-box dumps written for violating cells
    /// (one formatted `path` line per dump; empty on a clean matrix).
    pub blackbox_dumps: Vec<String>,
}

impl DdrAuditLog {
    fn merge(&mut self, other: DdrAuditLog) {
        self.cells += other.cells;
        self.commands += other.commands;
        self.refreshes += other.refreshes;
        self.violations.extend(other.violations);
        self.blackbox_dumps.extend(other.blackbox_dumps);
    }
}

/// Replays one cell's captured command streams through [`DdrAuditor`].
/// A violating channel gets a black box cut from its captured stream
/// (not the cell's ring: the context window is present even if the ring
/// was disabled or had wrapped past the offending commands).
fn audit_cell(
    cell: &Cell,
    captured: &Captured,
    instruments: &Instruments,
    pid: u32,
) -> DdrAuditLog {
    let mut log = DdrAuditLog { cells: 1, ..DdrAuditLog::default() };
    for (ch, stream) in captured.streams.iter().enumerate() {
        let (idx, v) = match DdrAuditor::check_stream_indexed(&captured.channel_cfg, stream) {
            Ok(summary) => {
                log.commands += summary.commands;
                log.refreshes += summary.refreshes;
                continue;
            }
            Err(violation) => violation,
        };
        let line = format!("{} / {} channel {ch}: {v}", cell.machine, cell.workload);
        let recorder =
            violation_recorder(stream, ch.min(u8::MAX as usize) as u8, idx, BLACKBOX_CONTEXT);
        let prefix = match instruments.sink.blackbox_prefix() {
            Some(prefix) => format!("{prefix}-violation-pid{pid}"),
            None => format!("audit-violation-pid{pid}"),
        };
        match recorder.dump_to_files(&prefix, &line, 0) {
            Some(Ok((txt, json))) => log.blackbox_dumps.extend([txt, json]),
            Some(Err(e)) => log.blackbox_dumps.push(format!("(dump to {prefix} failed: {e})")),
            None => {}
        }
        log.violations.push(line);
    }
    log
}

/// Geometric mean of a slice (0.0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdimm_telemetry::TraceSink;

    #[test]
    fn par_map_returns_results_in_job_order_and_runs_each_job_once() {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        let jobs: Vec<u64> = (0..4 * workers as u64).collect();
        let calls: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = par_map(&jobs, |idx, &job| {
            calls[idx].fetch_add(1, Ordering::Relaxed);
            // Uneven work, heaviest first, so workers finish out of order.
            let spin = (jobs.len() - idx) * 20_000;
            std::hint::black_box((0..spin).fold(0usize, |a, x| a ^ x));
            (idx, job * 3)
        });
        let expected: Vec<(usize, u64)> = jobs.iter().map(|&j| (j as usize, j * 3)).collect();
        assert_eq!(out, expected);
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn traced_matrix_exports_equal_bytes_and_every_cell() {
        let kinds = [
            MachineKind::NonSecure { channels: 1 },
            MachineKind::Freecursive { channels: 1 },
            MachineKind::Independent { sdimms: 2, channels: 1 },
            MachineKind::Split { ways: 2, channels: 1 },
        ];
        let trace = spec::generate("milc-like", 700, 3);
        // Rings far smaller than a cell's output, so each cell shows only
        // if it keeps its own newest events.
        let export = || {
            let instruments = Instruments::with_sink(TraceSink::with_capacity(1024));
            par_map_on(2, &kinds, |pid, &kind| {
                let cfg = SystemConfig::small(kind);
                run_with(&cfg, &trace, 200, 400, &instruments, pid as u32, Capture::default());
            });
            instruments.sink.export_chrome_json().expect("an enabled sink exports")
        };
        let first = export();
        assert!(first == export(), "two equal runs must export equal bytes");
        for pid in 0..kinds.len() {
            let track = format!("\"pid\": {pid}, \"tid\"");
            let records = first.lines().filter(|l| l.contains(&track) && !l.contains("\"M\""));
            let records = records.count();
            assert!(records >= 1024, "pid {pid} keeps its newest events, has {records} records");
        }
    }

    #[test]
    fn par_map_of_no_jobs_is_empty() {
        let out: Vec<u8> = par_map(&[] as &[u8], |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixes() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }
}
