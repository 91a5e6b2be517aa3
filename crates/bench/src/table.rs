//! Plain-text table formatting for the figure binaries.

use crate::harness::{geomean, Cell};

/// A panel's cells as a table: rows = workloads, columns = machines,
/// both in first-seen order.
struct Grid<'a> {
    cells: &'a [Cell],
    workloads: Vec<&'a str>,
    machines: Vec<&'a str>,
}

impl<'a> Grid<'a> {
    fn new(cells: &'a [Cell]) -> Self {
        let mut grid = Grid { cells, workloads: Vec::new(), machines: Vec::new() };
        for c in cells {
            if !grid.workloads.contains(&c.workload.as_str()) {
                grid.workloads.push(&c.workload);
            }
            if !grid.machines.contains(&c.machine.as_str()) {
                grid.machines.push(&c.machine);
            }
        }
        grid
    }

    fn cell(&self, workload: &str, machine: &str) -> Option<&'a Cell> {
        self.cells.iter().find(|c| c.workload == workload && c.machine == machine)
    }

    /// Prints `heading`, a header row naming the machines, and one row
    /// per workload whose entries are `entry(column, cell)`, right-aligned
    /// to the column width (`-` where the matrix has no cell).
    fn print(&self, heading: &str, mut entry: impl FnMut(usize, &'a Cell) -> String) {
        println!("\n== {heading} ==");
        print!("{:<18}", "workload");
        for m in &self.machines {
            print!("{m:>16}");
        }
        println!();
        for w in &self.workloads {
            print!("{w:<18}");
            for (col, m) in self.machines.iter().enumerate() {
                match self.cell(w, m) {
                    Some(c) => print!("{:>16}", entry(col, c)),
                    None => print!("{:>16}", "-"),
                }
            }
            println!();
        }
    }
}

/// Prints a figure as a table: rows = workloads, columns = machines,
/// values = `metric(cell)` normalized to the `baseline` machine's value
/// for the same workload (the papers' "normalized execution time" style),
/// with a geometric-mean footer row.
pub fn print_normalized(
    title: &str,
    cells: &[Cell],
    baseline: &str,
    metric: impl Fn(&Cell) -> f64,
) {
    let grid = Grid::new(cells);
    let mut per_machine: Vec<Vec<f64>> = vec![Vec::new(); grid.machines.len()];
    grid.print(title, |col, c| {
        let base = grid.cell(&c.workload, baseline).map(&metric).unwrap_or(1.0);
        let norm = if base > 0.0 { metric(c) / base } else { 0.0 };
        per_machine[col].push(norm);
        format!("{norm:.3}")
    });
    print!("{:<18}", "geomean");
    for col in &per_machine {
        print!("{:>16.3}", geomean(col));
    }
    println!();
}

/// Prints the miss-latency distribution table: rows = workloads,
/// columns = machines, each value `p50/p90/p99` in bus cycles (from the
/// per-run miss-latency histogram). Column layout matches
/// [`print_normalized`] so figure output lines up vertically.
pub fn print_latency_percentiles(title: &str, cells: &[Cell]) {
    let heading = format!("{title} (miss latency p50/p90/p99, bus cycles)");
    Grid::new(cells).print(&heading, |_, c| {
        let r = &c.result;
        format!("{}/{}/{}", r.miss_latency_p50, r.miss_latency_p90, r.miss_latency_p99)
    });
}

/// Prints a raw (un-normalized) metric table.
pub fn print_raw(title: &str, cells: &[Cell], unit: &str, metric: impl Fn(&Cell) -> f64) {
    Grid::new(cells).print(&format!("{title} ({unit})"), |_, c| format!("{:.1}", metric(c)));
}
