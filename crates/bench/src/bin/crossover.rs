//! `crossover` — secure-protocol slowdown vs memory standard
//! (DESIGN.md §12, EXPERIMENTS.md "Protocol crossover").
//!
//! Sweeps the four headline standards (DDR3-1600, DDR4-2400,
//! LPDDR4-3200, HBM2) over a fixed protocol set (non-secure baseline,
//! Freecursive, Independent×2, Split×2) and a three-workload subset
//! ([`wl::CROSSOVER`]), then reports each protocol's geomean slowdown
//! vs the non-secure baseline *on the same standard*. The question the
//! figure answers: do the paper's protocol rankings survive a change of
//! memory standard, or do bank-group penalties and burst shape move the
//! Independent/Split crossover point?
//!
//! The sweep itself is fixed — the shared `--standard` flag is accepted
//! (it parameterizes the optional `--leakage` side run) but does not
//! narrow the sweep. All other telemetry flags behave as in the other
//! figure binaries; `--audit` replays every command stream through the
//! per-standard differential auditor.
//!
//! Writes `BENCH_crossover.json` into the invoking directory. The
//! report carries provenance plus cycle-derived values only (no wall
//! clock), so two back-to-back runs on one checkout are byte-identical
//! — check.sh verifies exactly that.

use dram_sim::spec::DramStandard;
use sdimm_bench::cli::write_or_die;
use sdimm_bench::provenance::Provenance;
use sdimm_bench::{harness, table, Figure};
use sdimm_system::machine::MachineKind;
use sdimm_telemetry::json::Value;
use workloads::spec as wl;

/// Report written into the invoking directory, following the
/// `BENCH_crypto.json` / `BENCH_sim.json` naming convention.
const REPORT_PATH: &str = "BENCH_crossover.json";

/// The standards the figure sweeps, in presentation order. DDR3-800 is
/// deliberately absent: it shares DDR3-1600's constraint structure and
/// adds no crossover information.
const STANDARDS: [DramStandard; 4] = [
    DramStandard::Ddr3_1600,
    DramStandard::Ddr4_2400,
    DramStandard::Lpddr4_3200,
    DramStandard::Hbm2,
];

/// The protocol set, baseline first (slowdowns normalize against index
/// 0). Single-channel keeps the quick sweep affordable; the crossover
/// is about per-channel timing structure, not channel count.
fn kinds() -> [MachineKind; 4] {
    [
        MachineKind::NonSecure { channels: 1 },
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ]
}

/// One standard's column: per-machine geomean cycles-per-record and the
/// slowdown vs the non-secure baseline on that same standard.
struct Column {
    standard: DramStandard,
    /// `(machine name, geomean cycles/record, slowdown)` in [`kinds`] order.
    rows: Vec<(String, f64, f64)>,
}

fn main() {
    let mut fig = Figure::start("crossover");
    let scale = fig.scale();
    let kinds = kinds();

    let mut columns = Vec::new();
    for standard in STANDARDS {
        let cells =
            fig.panel(standard.name(), &wl::CROSSOVER, &kinds, |kind| scale.config(kind, standard));
        table::print_normalized(
            &format!("Crossover: slowdown vs non-secure on {}", standard.name()),
            cells,
            &kinds[0].name(),
            |c| c.result.cycles_per_record(),
        );
        let rows: Vec<(String, f64)> = kinds
            .iter()
            .map(|k| {
                let name = k.name();
                let vals: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.machine == name)
                    .map(|c| c.result.cycles_per_record())
                    .collect();
                (name, harness::geomean(&vals))
            })
            .collect();
        let base = rows[0].1;
        columns.push(Column {
            standard,
            rows: rows.into_iter().map(|(n, v)| (n, v, v / base)).collect(),
        });
    }

    print_crossover_table(&kinds, &columns);

    let prov = Provenance::new(scale, "nonsecure,freecursive,indep2,split2");
    write_or_die(REPORT_PATH, &report(&prov, &columns).render(), "crossover report");
    println!("\ncrossover report written to {REPORT_PATH}");

    fig.finish();
}

/// The machine × standard summary table: one slowdown per cell, so the
/// crossover (which secure protocol wins where) is readable at a glance.
fn print_crossover_table(kinds: &[MachineKind], columns: &[Column]) {
    println!("\nProtocol crossover: geomean slowdown vs non-secure, per memory standard");
    print!("  {:<16}", "machine");
    for col in columns {
        print!("{:>13}", col.standard.name());
    }
    println!();
    for (ki, kind) in kinds.iter().enumerate() {
        print!("  {:<16}", kind.name());
        for col in columns {
            print!("{:>12.2}x", col.rows[ki].2);
        }
        println!();
    }
}

/// The report: provenance, the workload subset, then one entry per
/// standard with per-machine geomean cycles/record and slowdown.
/// Cycle-derived values only, so it is byte-stable across runs.
fn report(prov: &Provenance, columns: &[Column]) -> Value {
    let standards = columns.iter().map(|col| {
        let machines = col.rows.iter().map(|(name, cpr, slowdown)| {
            Value::object([
                ("machine", name.as_str().into()),
                ("geomean_cycles_per_record", (*cpr).into()),
                ("slowdown_vs_nonsecure", (*slowdown).into()),
            ])
        });
        Value::object([("standard", col.standard.name().into()), ("machines", machines.collect())])
    });
    Value::object([
        ("provenance", prov.to_value()),
        ("workloads", wl::CROSSOVER.join(",").into()),
        ("standards", standards.collect()),
    ])
}
