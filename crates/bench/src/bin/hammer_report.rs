//! `hammer_report` — the reliability observatory's figure bin
//! (DESIGN.md §15).
//!
//! Runs the protocol × standard × adversary matrix with the per-row
//! wear tracker enabled, prints the RowHammer verdict table, writes the
//! byte-stable `BENCH_hammer.json`, and exits nonzero when any cell's
//! engine wear counts disagree with the replay auditor's independent
//! activation recount from the command log.
//!
//! ```text
//! hammer_report [--report <path>] [--trace <path>]
//! ```
//!
//! `--report` defaults to `target/BENCH_hammer.json`. `--trace` writes
//! a Chrome-trace annotation of the verdicts and hottest rows. Scale
//! follows `SDIMM_BENCH_SCALE` (`quick` default). Fully deterministic:
//! two back-to-back runs produce byte-identical reports (check.sh
//! verifies exactly that).

use sdimm_bench::cli::write_or_die;
use sdimm_bench::{hammer, Scale};
use sdimm_telemetry::TraceSink;

fn main() {
    let mut report_path = "target/BENCH_hammer.json".to_string();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => {
                report_path = args.next().unwrap_or_else(|| {
                    eprintln!("hammer_report: --report requires a path argument");
                    // Sanctioned exit: CLI usage error in a binary entry path.
                    #[allow(clippy::disallowed_methods)]
                    std::process::exit(2);
                });
            }
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("hammer_report: --trace requires a path argument");
                    // Sanctioned exit: CLI usage error in a binary entry path.
                    #[allow(clippy::disallowed_methods)]
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "hammer_report: unknown argument `{other}`\n\
                     usage: hammer_report [--report <path>] [--trace <path>]"
                );
                // Sanctioned exit: CLI usage error in a binary entry path.
                #[allow(clippy::disallowed_methods)]
                std::process::exit(2);
            }
        }
    }

    let scale = Scale::from_env();
    let report = hammer::run_report(&hammer::gate_points(), &hammer::gate_workloads(), scale);
    report.print_table();

    write_or_die(&report_path, &report.to_value().render(), "hammer report");
    println!("hammer report written to {report_path}");

    if let Some(path) = trace_path {
        let sink = TraceSink::enabled();
        report.annotate(&sink, 9_100);
        let json = sink.export_chrome_json().expect("an enabled sink exports");
        write_or_die(&path, &json, "hammer trace");
        println!("hammer annotation trace written to {path}");
    }

    if !report.audit_pass() {
        eprintln!("hammer_report: FAIL — engine wear counts diverge from the replay recount");
        // Sanctioned exit: the gate's purpose is a nonzero exit when
        // the observatory's numbers cannot be independently reproduced.
        #[allow(clippy::disallowed_methods)]
        std::process::exit(1);
    }
    println!("hammer_report: PASS");
}
