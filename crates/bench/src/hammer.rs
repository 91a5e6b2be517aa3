//! The reliability-observatory driver: runs the protocol × standard ×
//! adversary matrix with the per-row wear tracker enabled, has the
//! replay auditor independently recount activations from the command
//! log, and renders the RowHammer threat report (DESIGN.md §15).
//!
//! Used by the `hammer_report` binary, which writes the byte-stable
//! `BENCH_hammer.json` and exits nonzero when the engine's wear counts
//! and the auditor's recount disagree — numbers the recount does not
//! reproduce never ship.

use dram_sim::spec::DramStandard;
use sdimm_audit::recount::{check_against_snapshot, recount_channel};
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{self, Capture};
use sdimm_telemetry::json::Value;
use sdimm_telemetry::{Instruments, TraceSink};
use workloads::{spec, Trace};

use crate::harness::par_map;
use crate::provenance::Provenance;
use crate::Scale;

/// Hottest rows reported per cell.
pub const TOP_K: usize = 10;

/// One design point of the hammer matrix.
#[derive(Debug, Clone, Copy)]
pub struct HammerPoint {
    /// Machine under pressure.
    pub kind: MachineKind,
    /// Memory standard (sets the disturbance threshold and refresh wheel).
    pub standard: DramStandard,
    /// Low-power rank-localized layout (the rank-subtree pressure view).
    pub low_power: bool,
}

/// The matrix the gate runs: the secure baseline and one SDIMM protocol
/// on two memory standards (DDR3's generous disturbance budget vs
/// DDR4's tight one), plus the low-power layout cell whose rank-local
/// subtrees concentrate pressure instead of spreading it.
pub fn gate_points() -> Vec<HammerPoint> {
    let p = |kind, standard, low_power| HammerPoint { kind, standard, low_power };
    vec![
        p(MachineKind::PathOram { channels: 1 }, DramStandard::Ddr3_1600, false),
        p(MachineKind::PathOram { channels: 1 }, DramStandard::Ddr4_2400, false),
        p(MachineKind::Independent { sdimms: 2, channels: 1 }, DramStandard::Ddr3_1600, false),
        p(MachineKind::Independent { sdimms: 2, channels: 1 }, DramStandard::Ddr4_2400, false),
        p(MachineKind::Independent { sdimms: 2, channels: 1 }, DramStandard::Ddr3_1600, true),
    ]
}

/// The adversarial workloads every point runs: the concentrated attack
/// and its uniform control.
pub fn gate_workloads() -> Vec<&'static str> {
    workloads::adversarial::ADVERSARIAL.to_vec()
}

/// One hot row, both attributions attached.
#[derive(Debug, Clone)]
pub struct HotRowReport {
    /// DRAM channel the row lives on.
    pub channel: usize,
    /// Physical rank.
    pub rank: usize,
    /// Physical bank.
    pub bank: usize,
    /// Physical row.
    pub row: usize,
    /// Lifetime ACTs attributed to the row (measured window).
    pub acts: u64,
    /// Lifetime write CAS attributed to the row.
    pub writes: u64,
    /// Distinct ORAM tree levels whose bucket lines live in the row.
    pub levels: Vec<u32>,
}

/// One cell of the report: machine × standard × workload.
#[derive(Debug, Clone)]
pub struct HammerCell {
    /// Machine name (e.g. `INDEP-2`).
    pub machine: String,
    /// Standard name (e.g. `ddr4_2400`).
    pub standard: &'static str,
    /// Workload name.
    pub workload: String,
    /// Rank-localized low-power layout active.
    pub low_power: bool,
    /// Per-standard adjacent-row activation budget.
    pub hammer_threshold: u64,
    /// Total ACTs across every channel (measured window).
    pub total_acts: u64,
    /// Total write CAS across every channel.
    pub total_writes: u64,
    /// Largest disturbance window any victim accumulated.
    pub peak_window: u64,
    /// Threshold crossings raised by the engine.
    pub alarms: u64,
    /// ACTs per rank, summed element-wise across channels.
    pub per_rank_acts: Vec<u64>,
    /// Max/mean of `per_rank_acts` (1.0 = perfectly balanced).
    pub rank_act_max_over_mean: f64,
    /// Gini coefficient of `per_rank_acts`.
    pub rank_act_gini: f64,
    /// Line writes per ORAM tree level (empty for treeless machines).
    pub level_line_writes: Vec<u64>,
    /// Per-bucket write load per level (`writes[l] / 2^l`).
    pub per_bucket_writes: Vec<f64>,
    /// Shallowest in-memory level's per-bucket load over the leaf
    /// level's — the wear-imbalance headline (0 when no tree).
    pub root_leaf_ratio: f64,
    /// The `TOP_K` hottest rows, ACTs descending.
    pub hot_rows: Vec<HotRowReport>,
    /// The replay auditor re-derived identical per-row counts from the
    /// command stream.
    pub audit_acts_match: bool,
    /// First recount discrepancy, when `audit_acts_match` is false.
    pub audit_error: Option<String>,
}

impl HammerCell {
    /// Whether the peak window reached the standard's threshold.
    pub fn threshold_crossed(&self) -> bool {
        self.peak_window >= self.hammer_threshold
    }

    fn to_value(&self) -> Value {
        let hot_rows = self.hot_rows.iter().map(|h| {
            Value::object([
                ("channel", h.channel.into()),
                ("rank", h.rank.into()),
                ("bank", h.bank.into()),
                ("row", h.row.into()),
                ("acts", h.acts.into()),
                ("writes", h.writes.into()),
                ("levels", h.levels.iter().copied().collect()),
            ])
        });
        let mut members = vec![
            ("machine", self.machine.as_str().into()),
            ("standard", self.standard.into()),
            ("workload", self.workload.as_str().into()),
            ("low_power", self.low_power.into()),
            ("hammer_threshold", self.hammer_threshold.into()),
            ("total_acts", self.total_acts.into()),
            ("total_writes", self.total_writes.into()),
            ("peak_window", self.peak_window.into()),
            ("threshold_crossed", self.threshold_crossed().into()),
            ("alarms", self.alarms.into()),
            ("per_rank_acts", self.per_rank_acts.iter().copied().collect()),
            ("rank_act_max_over_mean", self.rank_act_max_over_mean.into()),
            ("rank_act_gini", self.rank_act_gini.into()),
            ("level_line_writes", self.level_line_writes.iter().copied().collect()),
            ("per_bucket_writes", self.per_bucket_writes.iter().copied().collect()),
            ("root_leaf_ratio", self.root_leaf_ratio.into()),
            ("hot_rows", hot_rows.collect()),
            ("audit_acts_match", self.audit_acts_match.into()),
        ];
        if let Some(e) = &self.audit_error {
            members.push(("audit_error", e.as_str().into()));
        }
        Value::object(members)
    }
}

/// The full report.
#[derive(Debug)]
pub struct HammerReport {
    /// Build provenance, including the scale the matrix ran at.
    pub provenance: Provenance,
    /// Cells in matrix order (points outer, workloads inner).
    pub cells: Vec<HammerCell>,
}

/// Runs one cell and assembles its report row.
fn run_cell(cfg: &SystemConfig, trace: &Trace, warmup: usize, measure: usize) -> HammerCell {
    let capture = Capture { cmds: true, wear_top_k: Some(TOP_K), ..Capture::default() };
    let (_, cap) =
        runner::run_with(cfg, trace, warmup, measure, &Instruments::disabled(), 0, capture);

    // Aggregate channel snapshots (every channel shares the topology).
    let mut per_rank_acts = vec![0u64; cap.channel_cfg.topology.ranks];
    let (mut total_acts, mut total_writes, mut peak_window, mut alarms) = (0, 0, 0, 0);
    for s in &cap.wear {
        total_acts += s.total_acts;
        total_writes += s.total_writes;
        peak_window = peak_window.max(s.peak_window);
        alarms += s.alarms;
        for (r, &a) in s.per_rank_acts.iter().enumerate() {
            per_rank_acts[r] += a;
        }
    }

    // Independent recount: the auditor re-derives every channel's
    // per-row counts from the recorded command stream alone.
    let mut audit_error = None;
    for (i, stream) in cap.streams.iter().enumerate() {
        let rc = recount_channel(stream);
        if let Err(e) = check_against_snapshot(&rc, &cap.wear[i]) {
            audit_error = Some(format!("channel {i}: {e}"));
            break;
        }
    }

    let level_line_writes = cap.level_wear.writes().to_vec();
    let per_bucket_writes = cap.level_wear.per_bucket_writes();
    let root_leaf_ratio = match level_line_writes.iter().position(|&w| w > 0) {
        Some(first) => {
            let leaf = per_bucket_writes.len() - 1;
            if per_bucket_writes[leaf] > 0.0 {
                per_bucket_writes[first] / per_bucket_writes[leaf]
            } else {
                0.0
            }
        }
        None => 0.0,
    };

    HammerCell {
        machine: cfg.kind.name(),
        standard: cfg.standard.name(),
        workload: trace.name.clone(),
        low_power: cfg.low_power,
        hammer_threshold: cap.channel_cfg.standard.spec().hammer_threshold,
        total_acts,
        total_writes,
        peak_window,
        alarms,
        rank_act_max_over_mean: sdimm_telemetry::imbalance::max_over_mean(&per_rank_acts),
        rank_act_gini: sdimm_telemetry::imbalance::gini(&per_rank_acts),
        per_rank_acts,
        level_line_writes,
        per_bucket_writes,
        root_leaf_ratio,
        hot_rows: cap
            .hot_rows
            .iter()
            .map(|h| HotRowReport {
                channel: h.channel,
                rank: h.row.id.rank,
                bank: h.row.id.bank,
                row: h.row.id.row,
                acts: h.row.acts,
                writes: h.row.writes,
                levels: h.levels.clone(),
            })
            .collect(),
        audit_acts_match: audit_error.is_none(),
        audit_error,
    }
}

/// Runs the full matrix at `scale` on the shared worker pool (cells in
/// matrix order: points outer, workloads inner). Each cell's progress
/// line is printed up front, in that order, so stderr is byte-stable.
pub fn run_report(points: &[HammerPoint], workloads: &[&str], scale: Scale) -> HammerReport {
    let jobs: Vec<(&HammerPoint, &str)> =
        points.iter().flat_map(|p| workloads.iter().map(move |&w| (p, w))).collect();
    for (point, workload) in &jobs {
        eprintln!(
            "hammer: {} × {} × {}{} ...",
            point.kind.name(),
            point.standard.name(),
            workload,
            if point.low_power { " (low-power)" } else { "" }
        );
    }
    let cells = par_map(&jobs, |_, &(point, workload)| {
        let cfg =
            SystemConfig { low_power: point.low_power, ..scale.config(point.kind, point.standard) };
        let trace = spec::generate(workload, scale.trace_len(), 3);
        run_cell(&cfg, &trace, scale.warmup(), scale.measure())
    });
    HammerReport { provenance: Provenance::new(scale, "pathoram,independent"), cells }
}

impl HammerReport {
    /// True when every cell's engine counts survived the independent
    /// recount — the report's ship/no-ship criterion.
    pub fn audit_pass(&self) -> bool {
        self.cells.iter().all(|c| c.audit_acts_match)
    }

    /// The report as a byte-stable JSON value (fixed key order, one
    /// float format).
    pub fn to_value(&self) -> Value {
        Value::object([
            ("schema", "sdimm-hammer-v1".into()),
            ("scale", self.provenance.scale.name().into()),
            ("provenance", self.provenance.to_value()),
            ("audit_pass", self.audit_pass().into()),
            ("cells", self.cells.iter().map(HammerCell::to_value).collect()),
        ])
    }

    /// Emits one Perfetto slice per cell plus an instant per hot row
    /// (category `hammer`) into `sink`'s side table under `pid` —
    /// annotation on a synthetic timeline. The runs' own hammer alarms
    /// are ring events on each traced cell's `dram.hammer` track.
    pub fn annotate(&self, sink: &TraceSink, pid: u32) {
        if !sink.is_enabled() {
            return;
        }
        sink.process_name(pid, "reliability observatory");
        sink.thread_name(pid, 0, "hammer cells");
        for (i, c) in self.cells.iter().enumerate() {
            let verdict = if c.threshold_crossed() { "CROSSED" } else { "under" };
            let label = format!(
                "{} × {} × {}: peak {} / {} [{verdict}]",
                c.machine, c.standard, c.workload, c.peak_window, c.hammer_threshold
            );
            let t0 = i as u64 * 10;
            sink.span("hammer", &label, pid, 0, t0, t0 + 8);
            for (j, h) in c.hot_rows.iter().take(3).enumerate() {
                sink.instant(
                    "hammer",
                    &format!(
                        "{}: hot row ch{} rank{} bank{} 0x{:05x} ({} acts, levels {:?})",
                        c.machine, h.channel, h.rank, h.bank, h.row, h.acts, h.levels
                    ),
                    pid,
                    0,
                    t0 + j as u64,
                );
            }
        }
    }

    /// Prints the human verdict table.
    pub fn print_table(&self) {
        println!(
            "\nReliability observatory ({} scale, top {TOP_K} rows per cell)",
            self.provenance.scale.name()
        );
        println!(
            "{:<14} {:<12} {:<12} {:<5} {:>12} {:>10} {:>9} {:>7} {:>10} audit",
            "machine",
            "standard",
            "workload",
            "lp",
            "peak_window",
            "threshold",
            "crossed",
            "alarms",
            "root/leaf"
        );
        for c in &self.cells {
            println!(
                "{:<14} {:<12} {:<12} {:<5} {:>12} {:>10} {:>9} {:>7} {:>10.1} {}",
                c.machine,
                c.standard,
                c.workload,
                if c.low_power { "yes" } else { "no" },
                c.peak_window,
                c.hammer_threshold,
                if c.threshold_crossed() { "YES" } else { "no" },
                c.alarms,
                c.root_leaf_ratio,
                if c.audit_acts_match { "ok" } else { "MISMATCH" }
            );
            if let Some(e) = &c.audit_error {
                println!("{:<14}   recount: {e}", "");
            }
        }
        println!("audit: {}", if self.audit_pass() { "PASS" } else { "FAIL" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_matrix_covers_two_standards_and_the_low_power_view() {
        let points = gate_points();
        let standards: std::collections::BTreeSet<_> =
            points.iter().map(|p| p.standard.name()).collect();
        assert!(standards.len() >= 2, "matrix must span memory standards");
        assert!(points.iter().any(|p| p.low_power), "rank-subtree pressure cell required");
        assert!(points.iter().any(|p| matches!(p.kind, MachineKind::PathOram { .. })));
        assert!(points.iter().any(|p| matches!(p.kind, MachineKind::Independent { .. })));
        assert_eq!(gate_workloads().len(), 2);
    }

    /// One small cell end to end through `run_cell`: the recount
    /// agrees, the tree shows root-heavy wear, and the JSON is stable
    /// and valid.
    #[test]
    fn small_cell_recounts_and_serializes() {
        let cfg = SystemConfig {
            kind: MachineKind::Independent { sdimms: 2, channels: 1 },
            oram: oram::types::OramConfig {
                levels: 16,
                cached_levels: 4,
                ..oram::types::OramConfig::default()
            },
            data_blocks: 1 << 14,
            standard: DramStandard::Ddr4_2400,
            low_power: false,
            seed: 1,
        };
        let trace = spec::generate("hotrow-adv", 1200, 3);
        let report = HammerReport {
            provenance: Provenance::new(Scale::Quick, "independent"),
            cells: vec![run_cell(&cfg, &trace, 200, 400)],
        };
        assert!(report.audit_pass(), "engine wear counts must survive the independent recount");
        // Per-bucket load halves with every level below the first
        // uncached one: 2^(levels - cached_levels - 1).
        assert_eq!(report.cells[0].root_leaf_ratio, 2048.0);
        let json = report.to_value().render();
        assert_eq!(json, report.to_value().render(), "serialization is deterministic");
        let doc = sdimm_telemetry::json::parse(&json).expect("report is valid JSON");
        let cell = &doc.get("cells").and_then(Value::as_array).expect("cells")[0];
        assert_eq!(cell.get("root_leaf_ratio").and_then(Value::as_f64), Some(2048.0));

        let sink = TraceSink::enabled();
        report.annotate(&sink, 99);
        let trace_json = sink.export_chrome_json().expect("sink enabled");
        sdimm_telemetry::json::validate(&trace_json).expect("valid trace json");
        assert!(trace_json.contains("hot row"));
    }
}
