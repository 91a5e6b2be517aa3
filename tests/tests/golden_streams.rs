//! Pinned DDR command-stream digests.
//!
//! Runs a small fixed workload through one machine of each protocol
//! family with command capture attached and compares an FNV-1a digest of
//! every channel's complete command stream, plus the run's cycle and
//! command counts, against values pinned here. The replay auditor checks
//! that a stream is *legal*; these digests check that it is *the same
//! stream* — any scheduler or tick-loop change that reorders, adds or
//! drops a single command fails this test.
//!
//! Three standards cover the scheduler's timing classes: group-less
//! DDR3-1600 (the paper's Table II), DDR4-2400 with bank groups
//! (tRRD_L/tCCD_L), and HBM2 (bank groups, short bursts). After an
//! intentional change to the model, copy the `got` lines of the failure
//! message into the table.

use dram_sim::cmdlog::CmdRecord;
use dram_sim::spec::DramStandard;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::run_audited;
use sdimm_telemetry::TraceSink;
use workloads::spec;

/// FNV-1a over the debug rendering of every command record.
fn digest(records: &[CmdRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for b in format!("{:?}|{}|{:?};", r.cycle, r.rank, r.cmd).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One line per machine: name, simulated cycles, command count and one
/// digest per channel.
fn stream_lines(standard: DramStandard) -> Vec<String> {
    let trace = spec::generate("milc-like", 1200, 3);
    let kinds: [(&str, MachineKind); 4] = [
        ("nonsecure-1ch", MachineKind::NonSecure { channels: 1 }),
        ("freecursive-1ch", MachineKind::Freecursive { channels: 1 }),
        ("indep-2", MachineKind::Independent { sdimms: 2, channels: 1 }),
        ("split-2", MachineKind::Split { ways: 2, channels: 1 }),
    ];
    kinds
        .into_iter()
        .map(|(name, kind)| {
            let cfg = SystemConfig { standard, ..SystemConfig::small(kind) };
            let (result, capture) = run_audited(&cfg, &trace, 200, 400, TraceSink::disabled(), 0);
            let cmds: usize = capture.streams.iter().map(Vec::len).sum();
            let mut line = format!("{name} cycles={} cmds={cmds}", result.cycles);
            for (i, s) in capture.streams.iter().enumerate() {
                line.push_str(&format!(" ch{i}={:016x}", digest(s)));
            }
            line
        })
        .collect()
}

fn check(standard: DramStandard, pinned: &[&str]) {
    let got = stream_lines(standard);
    assert_eq!(got, pinned, "{standard:?} command streams changed; got:\n{}", got.join("\n"));
}

#[test]
fn ddr3_1600_streams_match_pinned_digests() {
    check(
        DramStandard::Ddr3_1600,
        &[
            "nonsecure-1ch cycles=17968 cmds=866 ch0=a7b05e7a10d986e4",
            "freecursive-1ch cycles=388464 cmds=93943 ch0=4f51e16e83c9d00f",
            "indep-2 cycles=256352 cmds=94906 ch0=96b6fb67865129a9 ch1=9711a9dfd4adbf47",
            "split-2 cycles=265872 cmds=101815 ch0=09fe91c0ace5db7d ch1=0739fcc28f7640d9",
        ],
    );
}

#[test]
fn ddr4_2400_streams_match_pinned_digests() {
    check(
        DramStandard::Ddr4_2400,
        &[
            "nonsecure-1ch cycles=18256 cmds=788 ch0=0054e034ecad5bd4",
            "freecursive-1ch cycles=532048 cmds=93511 ch0=f7c8903025596e2a",
            "indep-2 cycles=336976 cmds=94123 ch0=04063eaca3c6649f ch1=f0c4d86bca5c8915",
            "split-2 cycles=322800 cmds=99930 ch0=b7f6add563c88959 ch1=b17f3046150a7d09",
        ],
    );
}

#[test]
fn hbm2_streams_match_pinned_digests() {
    check(
        DramStandard::Hbm2,
        &[
            "nonsecure-1ch cycles=18672 cmds=1045 ch0=af78bc6d33ddb100",
            "freecursive-1ch cycles=340848 cmds=100337 ch0=fcfdaa3579769a38",
            "indep-2 cycles=212320 cmds=102077 ch0=cf360e90f34c061d ch1=15bd2a23724fbf9d",
            "split-2 cycles=243840 cmds=114267 ch0=1bca2a3616630dd9 ch1=021f34bcd85d7345",
        ],
    );
}
