//! `leakage_gate` — the CI gate of the timing-leakage observatory
//! (DESIGN.md §11).
//!
//! Runs the full protocol × workload-pair matrix at the configured
//! scale, prints the verdict table, writes the byte-stable report JSON,
//! and exits nonzero unless **both** halves of the acceptance criterion
//! hold: every secure protocol (PathOram, Freecursive, Independent,
//! Split, IndepSplit) is statistically indistinguishable on every pair,
//! *and* the NonSecure baseline is detected as distinguishable on every
//! pair — the power check proving the statistics aren't vacuously
//! passing everything.
//!
//! ```text
//! leakage_gate [--report <path>]     default: target/leakage-report.json
//! ```
//!
//! Scale follows `SDIMM_BENCH_SCALE` (`quick` default). The run is
//! fully deterministic: fixed workload pairs, fixed simulator seeds,
//! fixed bootstrap seed — two back-to-back runs produce byte-identical
//! reports (check.sh verifies exactly that).

use dram_sim::spec::DramStandard;
use sdimm_bench::cli::write_or_die;
use sdimm_bench::{leakage, Scale};

fn main() {
    let mut report_path = "target/leakage-report.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => {
                report_path = args.next().unwrap_or_else(|| {
                    eprintln!("leakage_gate: --report requires a path argument");
                    // Sanctioned exit: CLI usage error in a binary entry path.
                    #[allow(clippy::disallowed_methods)]
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "leakage_gate: unknown argument `{other}`\n\
                     usage: leakage_gate [--report <path>]"
                );
                // Sanctioned exit: CLI usage error in a binary entry path.
                #[allow(clippy::disallowed_methods)]
                std::process::exit(2);
            }
        }
    }

    let scale = Scale::from_env();
    // The gate pins the reference DDR3-1600 configuration: its acceptance
    // baseline (byte-stable report, indistinguishability verdicts) is
    // defined on the paper's Table II memory system.
    let report = leakage::run_report(&leakage::gate_kinds(), scale, DramStandard::default());
    leakage::print_table(&report);

    write_or_die(&report_path, &report.to_value().render(), "leakage report");
    println!("leakage report written to {report_path}");

    if !report.gate_pass() {
        eprintln!(
            "leakage_gate: FAIL — {} secure protocol leak(s), {} power failure(s)",
            report.secure_failures(),
            report.power_failures()
        );
        // Sanctioned exit: the gate's entire purpose is a nonzero exit
        // on a security regression.
        #[allow(clippy::disallowed_methods)]
        std::process::exit(1);
    }
    println!("leakage_gate: PASS");
}
