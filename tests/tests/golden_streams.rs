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
/// digest per channel. The `-lp` rows run the §III-E low-power scheme,
/// so their streams carry the rank power-down and wake-up commands.
fn stream_lines(standard: DramStandard) -> Vec<String> {
    let trace = spec::generate("milc-like", 1200, 3);
    let kinds: [(&str, MachineKind, bool); 10] = [
        ("nonsecure-1ch", MachineKind::NonSecure { channels: 1 }, false),
        ("pathoram-1ch", MachineKind::PathOram { channels: 1 }, false),
        ("freecursive-1ch", MachineKind::Freecursive { channels: 1 }, false),
        ("indep-2", MachineKind::Independent { sdimms: 2, channels: 1 }, false),
        ("indep-4", MachineKind::Independent { sdimms: 4, channels: 2 }, false),
        ("split-2", MachineKind::Split { ways: 2, channels: 1 }, false),
        ("indep-split", MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }, false),
        ("indep-2-lp", MachineKind::Independent { sdimms: 2, channels: 1 }, true),
        ("split-2-lp", MachineKind::Split { ways: 2, channels: 1 }, true),
        ("indep-split-lp", MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }, true),
    ];
    kinds
        .into_iter()
        .map(|(name, kind, low_power)| {
            let cfg = SystemConfig { standard, low_power, ..SystemConfig::small(kind) };
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
            "pathoram-1ch cycles=228288 cmds=55230 ch0=55573e5fa62fd78d",
            "freecursive-1ch cycles=388464 cmds=93943 ch0=4f51e16e83c9d00f",
            "indep-2 cycles=256352 cmds=94906 ch0=96b6fb67865129a9 ch1=9711a9dfd4adbf47",
            "indep-4 cycles=177424 cmds=87169 ch0=7481513cbb035956 ch1=425f596810fd6722 ch2=78b7d92f618c57ca ch3=5d1abcd2d26f1445",
            "split-2 cycles=265872 cmds=101815 ch0=09fe91c0ace5db7d ch1=0739fcc28f7640d9",
            "indep-split cycles=160928 cmds=101493 ch0=d3873e67f02cd45e ch1=56c23463eb05e04e ch2=e0b4a403bc39394d ch3=fc9a5fb69043b37d",
            "indep-2-lp cycles=265008 cmds=107038 ch0=5f8c91abd1336600 ch1=2e7d4e6588399ab3",
            "split-2-lp cycles=275760 cmds=130837 ch0=adc100518fb2a069 ch1=aa8ea6d32bf53596",
            "indep-split-lp cycles=166304 cmds=125850 ch0=c16aa7550ac5116e ch1=e3f9334c1316b497 ch2=1a68159c9a1d233f ch3=4048ae8ec14a395f",
        ],
    );
}

#[test]
fn ddr4_2400_streams_match_pinned_digests() {
    check(
        DramStandard::Ddr4_2400,
        &[
            "nonsecure-1ch cycles=18256 cmds=788 ch0=0054e034ecad5bd4",
            "pathoram-1ch cycles=313120 cmds=55016 ch0=f0fefb21709340f4",
            "freecursive-1ch cycles=532048 cmds=93511 ch0=f7c8903025596e2a",
            "indep-2 cycles=336976 cmds=94123 ch0=04063eaca3c6649f ch1=f0c4d86bca5c8915",
            "indep-4 cycles=236256 cmds=86676 ch0=e13c70dc7b213c61 ch1=ec91977c1b4c686c ch2=aa717561a1989b0c ch3=7bba227a4ba5beb8",
            "split-2 cycles=322800 cmds=99930 ch0=b7f6add563c88959 ch1=b17f3046150a7d09",
            "indep-split cycles=194368 cmds=99661 ch0=837584dd7a580976 ch1=93af47b1df060bc1 ch2=d49d1bbdcb9488e2 ch3=5ffbb808eba722a4",
            "indep-2-lp cycles=330864 cmds=105474 ch0=8930678de44ff1ab ch1=9d84948eff34f198",
            "split-2-lp cycles=326640 cmds=126939 ch0=e56df4f1ee7d0577 ch1=9cf86e456cf9b459",
            "indep-split-lp cycles=196304 cmds=120910 ch0=179932cc33492b08 ch1=8cb3bca1528ad39a ch2=10ad237113dcce90 ch3=d55fe71c789225f1",
        ],
    );
}

#[test]
fn hbm2_streams_match_pinned_digests() {
    check(
        DramStandard::Hbm2,
        &[
            "nonsecure-1ch cycles=18672 cmds=1045 ch0=af78bc6d33ddb100",
            "pathoram-1ch cycles=200416 cmds=59089 ch0=7d2d855fa767193d",
            "freecursive-1ch cycles=340848 cmds=100337 ch0=fcfdaa3579769a38",
            "indep-2 cycles=212320 cmds=102077 ch0=cf360e90f34c061d ch1=15bd2a23724fbf9d",
            "indep-4 cycles=153184 cmds=93118 ch0=07d1903a611746bd ch1=91fb6fa50956f9ad ch2=deb32f19fd1d1dae ch3=abe131b0d887e01d",
            "split-2 cycles=243840 cmds=114267 ch0=1bca2a3616630dd9 ch1=021f34bcd85d7345",
            "indep-split cycles=148256 cmds=115134 ch0=30fd5e318a6ab907 ch1=2bae7c28de4e4ed2 ch2=e8018ad02dee9fc8 ch3=93d1242ba8b5c02a",
            "indep-2-lp cycles=211504 cmds=118179 ch0=54083bc9b192f235 ch1=c587eb8873a42a26",
            "split-2-lp cycles=252976 cmds=156997 ch0=9db59fbe3b5b6ae7 ch1=1d046586b8efa9e2",
            "indep-split-lp cycles=153680 cmds=154934 ch0=b365cffc775d7515 ch1=e275d9ea3e4fa331 ch2=e5a221695925473a ch3=b2dbd98378369138",
        ],
    );
}
