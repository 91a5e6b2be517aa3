//! Physical-address decomposition for a channel.
//!
//! The mapper slices a line-aligned channel-local address into
//! (rank, bank, row, column) coordinates. The baseline ORAM layout of
//! Ren et al. \[10\] packs each small subtree into adjacent addresses so a
//! path read enjoys row-buffer hits; the interleaving scheme chosen here
//! decides how that contiguity maps onto banks and ranks.

use crate::config::{Topology, LINE_BYTES};

/// Decoded DRAM coordinates for one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coords {
    /// Rank index on the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column index (cache-line slot within the row).
    pub col: usize,
}

/// Bit-interleaving scheme for the address mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interleave {
    /// `row : rank : bank : column` — consecutive lines fill a row before
    /// switching banks; adjacent rows land on different banks/ranks.
    /// Maximizes row-buffer locality for streaming (the ORAM subtree
    /// layout wants this).
    #[default]
    RowRankBankCol,
    /// `row : column-high : rank : bank : column-low` — fine-grained bank
    /// interleaving for maximum parallelism, lower row locality.
    BankInterleaved,
    /// `rank : row : bank : column` — all of a rank's address space is
    /// contiguous. The paper's low-power layout ("each rank contains one
    /// whole subtree") uses this so one ORAM access touches one rank.
    RankContiguous,
}

/// Maps line-aligned channel-local addresses to DRAM coordinates.
#[derive(Debug, Clone)]
pub struct AddressMapper {
    topo: Topology,
    scheme: Interleave,
}

impl AddressMapper {
    /// Creates a mapper for `topo` using `scheme`.
    pub fn new(topo: Topology, scheme: Interleave) -> Self {
        AddressMapper { topo, scheme }
    }

    /// The interleaving scheme in use.
    pub fn scheme(&self) -> Interleave {
        self.scheme
    }

    /// Decodes a byte address (line-aligned or not) into coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds channel capacity.
    pub fn decode(&self, addr: u64) -> Coords {
        let line = (addr as usize) / LINE_BYTES;
        assert!(
            line < self.topo.capacity_lines(),
            "address {addr:#x} beyond channel capacity ({} lines)",
            self.topo.capacity_lines()
        );
        let cols = self.topo.lines_per_row();
        let banks = self.topo.banks;
        let ranks = self.topo.ranks;
        let rows = self.topo.rows;
        match self.scheme {
            Interleave::RowRankBankCol => {
                let col = line % cols;
                let rest = line / cols;
                let bank = rest % banks;
                let rest = rest / banks;
                let rank = rest % ranks;
                let row = rest / ranks;
                debug_assert!(row < rows);
                Coords { rank, bank, row, col }
            }
            Interleave::BankInterleaved => {
                // Low 4 columns stay together (a 4-line ORAM bucket), then
                // banks, then ranks, then the remaining columns, then rows.
                let lo_bits = 4usize;
                let col_lo = line % lo_bits.max(1);
                let rest = line / lo_bits;
                let bank = rest % banks;
                let rest = rest / banks;
                let rank = rest % ranks;
                let rest = rest / ranks;
                let col_hi = rest % (cols / lo_bits);
                let row = rest / (cols / lo_bits);
                debug_assert!(row < rows);
                Coords { rank, bank, row, col: col_hi * lo_bits + col_lo }
            }
            Interleave::RankContiguous => {
                let col = line % cols;
                let rest = line / cols;
                let bank = rest % banks;
                let rest = rest / banks;
                let row = rest % rows;
                let rank = rest / rows;
                debug_assert!(rank < ranks);
                Coords { rank, bank, row, col }
            }
        }
    }

    /// Encodes coordinates back into a line-aligned byte address
    /// (inverse of [`decode`](Self::decode)).
    pub fn encode(&self, c: Coords) -> u64 {
        let cols = self.topo.lines_per_row();
        let banks = self.topo.banks;
        let ranks = self.topo.ranks;
        let rows = self.topo.rows;
        let line = match self.scheme {
            Interleave::RowRankBankCol => {
                ((c.row * ranks + c.rank) * banks + c.bank) * cols + c.col
            }
            Interleave::BankInterleaved => {
                let lo_bits = 4usize;
                let col_lo = c.col % lo_bits;
                let col_hi = c.col / lo_bits;
                ((((c.row * (cols / lo_bits) + col_hi) * ranks + c.rank) * banks + c.bank)
                    * lo_bits)
                    + col_lo
            }
            Interleave::RankContiguous => ((c.rank * rows + c.row) * banks + c.bank) * cols + c.col,
        };
        (line * LINE_BYTES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::table2_channel()
    }

    #[test]
    fn decode_encode_roundtrip_all_schemes() {
        for scheme in
            [Interleave::RowRankBankCol, Interleave::BankInterleaved, Interleave::RankContiguous]
        {
            let m = AddressMapper::new(topo(), scheme);
            for line in [0u64, 1, 63, 64, 12345, 999_999, 4_000_000] {
                let addr = line * 64;
                let c = m.decode(addr);
                assert_eq!(m.encode(c), addr, "scheme {scheme:?} line {line}");
            }
        }
    }

    #[test]
    fn row_rank_bank_col_keeps_row_streaks() {
        let m = AddressMapper::new(topo(), Interleave::RowRankBankCol);
        let a = m.decode(0);
        let b = m.decode(64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.rank, b.rank);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn bank_interleaved_spreads_buckets_across_banks() {
        let m = AddressMapper::new(topo(), Interleave::BankInterleaved);
        // Lines 0..3 share a bank (one bucket); line 4 moves to the next bank.
        let a = m.decode(0);
        let b = m.decode(3 * 64);
        let c = m.decode(4 * 64);
        assert_eq!(a.bank, b.bank);
        assert_ne!(a.bank, c.bank);
    }

    #[test]
    fn rank_contiguous_isolates_ranks() {
        let m = AddressMapper::new(topo(), Interleave::RankContiguous);
        let per_rank_lines = (topo().capacity_lines() / topo().ranks) as u64;
        let last_of_rank0 = m.decode((per_rank_lines - 1) * 64);
        let first_of_rank1 = m.decode(per_rank_lines * 64);
        assert_eq!(last_of_rank0.rank, 0);
        assert_eq!(first_of_rank1.rank, 1);
    }

    #[test]
    #[should_panic(expected = "beyond channel capacity")]
    fn decode_rejects_out_of_range() {
        let m = AddressMapper::new(topo(), Interleave::RowRankBankCol);
        m.decode(topo().capacity_bytes() as u64);
    }

    #[test]
    fn coords_stay_in_bounds_exhaustive_sample() {
        let t = topo();
        for scheme in
            [Interleave::RowRankBankCol, Interleave::BankInterleaved, Interleave::RankContiguous]
        {
            let m = AddressMapper::new(t.clone(), scheme);
            let step = (t.capacity_lines() / 1000).max(1) as u64;
            for line in (0..t.capacity_lines() as u64).step_by(step as usize) {
                let c = m.decode(line * 64);
                assert!(
                    c.rank < t.ranks
                        && c.bank < t.banks
                        && c.row < t.rows
                        && c.col < t.lines_per_row()
                );
            }
        }
    }
}
