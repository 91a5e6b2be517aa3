//! The figure session every matrix binary runs on (see the crate doc
//! for how a binary uses it). A figure is a sequence of panels, each
//! one workload × machine matrix; between panels the session keeps what
//! the binaries would otherwise each repeat: process ids continue from
//! one panel to the next, `--audit` checks each panel as it finishes,
//! `--leakage` covers every machine the panels named, and the metrics
//! snapshot keys each cell by its panel.

use dram_sim::spec::DramStandard;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_telemetry::json::Value;
use sdimm_telemetry::{Instruments, MetricsRegistry};

use crate::cli::{write_or_die, TelemetryArgs};
use crate::harness::{self, Cell};
use crate::live::LiveView;
use crate::{audit, leakage, Scale};

/// Stacks shown in the profiler's top-k table after a profiled run.
const PROFILE_TOP_K: usize = 10;

/// One figure binary's run: its flags, instruments, scale and every
/// panel run so far.
#[derive(Debug)]
pub struct Figure {
    args: TelemetryArgs,
    instruments: Instruments,
    scale: Scale,
    panels: Panels,
    _live: LiveView,
}

impl Figure {
    /// Opens the session of binary `bin`: parses the shared flags (exit 2
    /// on a bad one), builds their instruments (and the black box's panic
    /// hook), starts the live view and reads `SDIMM_BENCH_SCALE` (exit 2
    /// on a bad value).
    pub fn start(bin: &str) -> Figure {
        let args = TelemetryArgs::from_env(bin);
        let instruments = args.instruments();
        let live = LiveView::spawn(instruments.live.clone());
        let scale = Scale::from_env();
        Figure { args, instruments, scale, panels: Panels::default(), _live: live }
    }

    /// The run scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The memory standard `--standard` names (DDR3-1600 by default).
    pub fn standard(&self) -> DramStandard {
        self.args.standard
    }

    /// Runs panel `key`: every `workloads` × `kinds` cell on the worker
    /// pool, configured by `make_cfg`, with process ids continuing from
    /// the previous panel. Returns the panel's cells in workload-major
    /// order.
    ///
    /// With `--audit`, replays every cell's DDR streams and runs one
    /// oracle lockstep per distinct protocol of the panel. On a violation
    /// it writes the requested outputs for every cell run so far and
    /// exits 1.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty, has a dot, or names an earlier panel:
    /// the key starts each of the panel's metrics snapshot keys.
    pub fn panel(
        &mut self,
        key: &str,
        workloads: &[&str],
        kinds: &[MachineKind],
        make_cfg: impl Fn(MachineKind) -> SystemConfig + Sync,
    ) -> &[Cell] {
        let first_pid = self.panels.open(key, kinds);
        let (cells, ddr) = harness::run_matrix(
            key,
            workloads,
            kinds,
            self.scale,
            make_cfg,
            &self.instruments,
            first_pid,
            self.args.audit,
        );
        let start = self.panels.cells.len();
        self.panels.cells.extend(cells);
        if self.args.audit && !audit::check_panel(&ddr, kinds) {
            self.write_outputs();
            eprintln!("audit: FAILED — see violations above");
            // Sanctioned exit: the audit gate failing must fail the run.
            #[allow(clippy::disallowed_methods)]
            std::process::exit(1);
        }
        &self.panels.cells[start..]
    }

    /// Ends the session: runs `--leakage` over every machine kind the
    /// panels named, in first-seen order, then writes the requested
    /// outputs.
    pub fn finish(self) {
        if let Some(path) = &self.args.leakage {
            let (kinds, sink) = (&self.panels.kinds, &self.instruments.sink);
            leakage::write_report(path, kinds, self.scale, self.args.standard, sink);
        }
        self.write_outputs();
    }

    /// Writes whichever outputs were requested: the metrics snapshot of
    /// every cell, the Chrome trace, and/or the folded cycle-attribution
    /// profile (with its top-k table on stdout), each through
    /// [`write_or_die`].
    fn write_outputs(&self) {
        let args = &self.args;
        if let Some(path) = &args.metrics_json {
            write_or_die(path, &self.panels.snapshot().to_json(), "metrics snapshot");
            println!("\nmetrics snapshot written to {path}");
        }
        if let Some(path) = &args.trace_json {
            let sink = &self.instruments.sink;
            let Some(json) = sink.export_chrome_json() else {
                eprintln!("--trace-json {path}: the event ring is disabled, nothing to export");
                // Sanctioned exit: a requested output that cannot be produced must fail the run.
                #[allow(clippy::disallowed_methods)]
                std::process::exit(1);
            };
            write_or_die(path, &json, "chrome trace");
            println!(
                "chrome trace written to {path} ({} events, {} dropped) — open in Perfetto",
                sink.len(),
                sink.dropped()
            );
        }
        if let Some(path) = &args.profile_folded {
            self.write_profile(path);
        }
        if let Some(prefix) = &args.flight_recorder {
            println!(
                "flight recorder armed ({} cells, prefix {prefix}): dumps written only on audit \
                 violation, stash breach, or panic",
                self.panels.cells.len()
            );
        }
    }

    /// Folded-profile output: the collapsed-stack file, its
    /// `.meta.json` sidecar (sampled-cycle total for validation), and
    /// the top-k attribution table on stdout.
    fn write_profile(&self, path: &str) {
        let profiler = &self.instruments.profiler;
        let Some(folded) = profiler.export_folded() else {
            eprintln!("--profile-folded {path}: profiler is disabled, nothing to export");
            // Sanctioned exit: a requested output that cannot be produced must fail the run.
            #[allow(clippy::disallowed_methods)]
            std::process::exit(1);
        };
        write_or_die(path, &folded, "folded profile");
        let sampled = profiler.sampled_cycles();
        let meta = Value::object([
            ("sampled_cycles", sampled.into()),
            ("sample_interval", profiler.interval().into()),
            ("stacks", profiler.stack_count().into()),
        ]);
        let meta_path = format!("{path}.meta.json");
        write_or_die(&meta_path, &meta.render(), "profile metadata");
        println!(
            "\nfolded profile written to {path} ({} stacks, {sampled} sampled cycles; \
             meta in {meta_path})",
            profiler.stack_count()
        );
        println!("cycle attribution (top {PROFILE_TOP_K}):");
        for (stack, weight) in profiler.top_k(PROFILE_TOP_K) {
            let share = if sampled > 0 { weight as f64 / sampled as f64 * 100.0 } else { 0.0 };
            println!("  {weight:>14} cyc  {share:5.1}%  {stack}");
        }
    }
}

/// What a figure keeps across its panels: the panel keys used, the
/// machine kinds named (each once, in first-seen order) and every cell
/// run so far.
#[derive(Debug, Default)]
struct Panels {
    keys: Vec<String>,
    kinds: Vec<MachineKind>,
    cells: Vec<Cell>,
}

impl Panels {
    /// Registers panel `key` over `kinds` and returns its first process
    /// id: one past the last cell of the panels before it.
    fn open(&mut self, key: &str, kinds: &[MachineKind]) -> u32 {
        assert!(!key.is_empty() && !key.contains('.'), "panel key `{key}` must be a dot-free name");
        assert!(!self.keys.iter().any(|k| k == key), "panel key `{key}` is used twice");
        self.keys.push(key.to_string());
        for kind in kinds {
            if !self.kinds.contains(kind) {
                self.kinds.push(*kind);
            }
        }
        self.cells.len() as u32
    }

    /// Every cell's metrics in one registry, namespaced
    /// `"<panel>.<workload>.<machine>."`, so no two cells share a key and
    /// the figure stays one flat JSON document with byte-stable key
    /// order.
    fn snapshot(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for c in &self.cells {
            merged.absorb(&format!("{}.{}.{}", c.panel, c.workload, c.machine), &c.result.metrics);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdimm_system::runner;
    use workloads::spec;

    const FC1: MachineKind = MachineKind::Freecursive { channels: 1 };
    const FC2: MachineKind = MachineKind::Freecursive { channels: 2 };
    const SPLIT2: MachineKind = MachineKind::Split { ways: 2, channels: 1 };
    const INDEP_SPLIT: MachineKind = MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 };

    /// One copy of a test-sized run per kind, tagged as panel `key`.
    fn cells(key: &str, kinds: &[MachineKind], records: usize) -> Vec<Cell> {
        let cfg = SystemConfig::small(MachineKind::NonSecure { channels: 1 });
        let trace = spec::generate("milc-like", 100 + records + 16, 42);
        let result = runner::run(&cfg, &trace, 100, records);
        let cell = |kind: &MachineKind| Cell {
            panel: key.to_string(),
            workload: "milc-like".to_string(),
            machine: kind.name(),
            result: result.clone(),
        };
        kinds.iter().map(cell).collect()
    }

    #[test]
    fn panels_sharing_a_cell_keep_one_key_set_each() {
        let mut panels = Panels::default();
        for (key, records) in [("cache7", 200), ("cache0", 300)] {
            panels.open(key, &[FC1]);
            panels.cells.extend(cells(key, &[FC1], records));
        }
        let snap = panels.snapshot();
        assert_eq!(snap.counter("cache7.milc-like.FREECURSIVE-1ch.run.records"), 200);
        assert_eq!(snap.counter("cache0.milc-like.FREECURSIVE-1ch.run.records"), 300);
        assert_eq!(snap.counter("milc-like.FREECURSIVE-1ch.run.records"), 0);
    }

    #[test]
    fn process_ids_continue_across_panels() {
        let mut panels = Panels::default();
        assert_eq!(panels.open("1ch", &[FC1, SPLIT2]), 0);
        panels.cells.extend(cells("1ch", &[FC1, SPLIT2], 50));
        assert_eq!(panels.open("2ch", &[FC2]), 2);
        panels.cells.extend(cells("2ch", &[FC2], 50));
        assert_eq!(panels.open("3ch", &[]), 3);
    }

    #[test]
    fn kinds_are_remembered_once_in_first_seen_order() {
        // fig10: the single-channel panel, then the double-channel one.
        let mut fig10 = Panels::default();
        let single = [MachineKind::NonSecure { channels: 1 }, FC1, SPLIT2];
        let double = [MachineKind::NonSecure { channels: 2 }, FC2, INDEP_SPLIT];
        fig10.open("1ch", &single);
        fig10.open("2ch", &double);
        assert_eq!(fig10.kinds, [&single[..], &double[..]].concat());

        // fig11: a 1ch and a 2ch panel per tree depth.
        let mut fig11 = Panels::default();
        for levels in [14, 16, 18, 20] {
            fig11.open(&format!("L{levels}-1ch"), &[FC1, SPLIT2]);
            fig11.open(&format!("L{levels}-2ch"), &[FC2, INDEP_SPLIT]);
        }
        assert_eq!(fig11.kinds, [FC1, SPLIT2, FC2, INDEP_SPLIT]);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn a_repeated_panel_key_is_rejected() {
        let mut panels = Panels::default();
        panels.open("cache7", &[FC1]);
        panels.open("cache7", &[FC1]);
    }

    #[test]
    #[should_panic(expected = "dot-free")]
    fn a_dotted_panel_key_is_rejected() {
        Panels::default().open("x.1", &[FC1]);
    }
}
