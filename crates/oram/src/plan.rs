//! Access plans: the memory traffic generated by one `accessORAM`.
//!
//! The functional ORAM layer is decoupled from the timing simulator: an
//! access produces an [`AccessPlan`] listing every cache-line address that
//! must be read and written. The system simulator replays the plan against
//! `dram-sim` to obtain cycle-accurate latency and energy.

use crate::types::Leaf;

/// The line-granularity memory traffic of one `accessORAM` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// The (old) leaf whose path was touched.
    pub leaf: Leaf,
    /// Line addresses of the path, root → leaf, skipping cached levels:
    /// each is read, then written back re-encrypted.
    pub lines: Vec<u64>,
}

impl AccessPlan {
    /// Total number of line transfers in the plan: every line is read
    /// once and written once.
    pub fn total_lines(&self) -> usize {
        2 * self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_counts_both_directions() {
        let p = AccessPlan { leaf: Leaf(0), lines: vec![0, 64, 128] };
        assert_eq!(p.total_lines(), 6);
    }
}
