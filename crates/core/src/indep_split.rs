//! Tests of the Indep-Split architecture (§III-D, Fig 7e): two groups of a
//! 2-way Split each, served by the one routed protocol,
//! [`crate::independent::IndependentOram`] built with `ways == 2`. The
//! one-way (Independent) cases live in `independent`'s own tests.

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use oram::types::{BlockId, Op, OramConfig};

    use crate::independent::{IndependentConfig, IndependentOram};
    use crate::trace::Activity;
    use crate::Protocol;

    /// INDEP-SPLIT: 2 groups × 2-way Split over a 9-level tree.
    fn combined() -> IndependentOram {
        let global = OramConfig { levels: 9, ..OramConfig::tiny() };
        IndependentOram::new(IndependentConfig::new(2, 2, &global), 256, 33)
    }

    #[test]
    fn four_sdimms_total() {
        assert_eq!(combined().config().sdimms(), 4);
    }

    #[test]
    fn read_your_writes_across_groups() {
        let mut o = combined();
        for i in 0..64u64 {
            o.access(BlockId(i), Op::Write, Some(&[i as u8; 8]));
        }
        for i in 0..64u64 {
            let (got, _) = o.access(BlockId(i), Op::Read, None);
            assert_eq!(got, vec![i as u8; 8], "block {i}");
        }
        o.check_invariants();
    }

    #[test]
    fn access_engages_only_home_group_internally() {
        let mut o = combined();
        let (_, trace) = o.access(BlockId(0), Op::Read, None);
        let groups: HashSet<usize> = trace.phases[..=trace.backend_release_phase]
            .iter()
            .flat_map(|p| p.par.iter())
            .filter_map(|a| match a {
                Activity::Dram { channel, .. } => Some(channel / 2),
                _ => None,
            })
            .collect();
        assert_eq!(groups.len(), 1, "path work stays in the home group");
    }

    #[test]
    fn append_fanout_covers_all_groups() {
        // Striped groups append 64/k-byte pieces to every member of every
        // group.
        let mut o = combined();
        let (_, trace) = o.access(BlockId(1), Op::Read, None);
        let append = trace.phases[trace.backend_release_phase + 1].par.iter();
        let pieces: Vec<_> = append
            .filter_map(|a| match a {
                Activity::ExtTransfer { sdimm, bytes } => Some((*sdimm, *bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(pieces, [(0, 32), (1, 32), (2, 32), (3, 32)]);
    }

    #[test]
    fn external_traffic_between_split_and_independent() {
        let global = OramConfig { levels: 9, ..OramConfig::tiny() };
        let mut o = IndependentOram::new(IndependentConfig::new(2, 2, &global), 256, 34);
        let traces: Vec<_> = (0..32u64).map(|i| o.access(BlockId(i), Op::Read, None).1).collect();
        let ext_lines = traces.iter().map(|t| t.external_bytes()).sum::<u64>() as f64 / 64.0;
        let frac = ext_lines / traces.iter().map(|t| t.dram_lines()).sum::<u64>() as f64;
        assert!(frac > 0.02 && frac < 0.5, "unexpected external fraction {frac}");
    }

    #[test]
    fn migrations_happen_between_groups() {
        let mut o = combined();
        o.access(BlockId(0), Op::Write, Some(&[1]));
        // The home group changes exactly when the block migrated.
        let homes: Vec<_> =
            (0..61).map(|_| o.access(BlockId(0), Op::Read, None).1.backend).collect();
        assert!(homes.windows(2).filter(|w| w[0] != w[1]).count() > 10);
    }
}
