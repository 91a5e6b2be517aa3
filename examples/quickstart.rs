//! Quickstart: store and fetch secret blocks through a distributed
//! SDIMM ORAM, then look at what an attacker on the bus would see.
//!
//! Run with: `cargo run -p sdimm-examples --bin quickstart`

use oram::types::{BlockId, Op, OramConfig};
use sdimm::independent::{IndependentConfig, IndependentOram};
use sdimm::obliviousness::Recorder;
use sdimm::Protocol;

fn main() {
    // A 2^10-leaf global tree partitioned across two Secure DIMMs.
    let tree = OramConfig { levels: 10, ..OramConfig::default() };
    let mut oram = IndependentOram::new(IndependentConfig::new(2, 1, &tree), 1024, 42);
    // What an attacker on the buses sees of every access.
    let mut view = Recorder::new();

    // Write a few secrets.
    println!("writing 8 blocks through the Independent protocol...");
    for i in 0..8u64 {
        let payload = format!("secret value #{i}");
        view.observe(&oram.access(BlockId(i), Op::Write, Some(payload.as_bytes())).1);
    }

    // Read them back — every access rerandomizes the block's location.
    for i in 0..8u64 {
        let (data, trace) = oram.access(BlockId(i), Op::Read, None);
        view.observe(&trace);
        println!(
            "block {i}: {:<18} | {:>3} DRAM lines on-DIMM, {:>3} bytes off-DIMM",
            String::from_utf8_lossy(&data),
            trace.dram_lines(),
            trace.external_bytes(),
        );
    }

    // The attacker's view: per-SDIMM long-command counts must be uniform
    // (every access APPENDs to every SDIMM) and path lengths constant.
    let counts = view.long_counts(2);
    println!("\nattacker-visible long commands per SDIMM: {counts:?}");
    println!(
        "target skew (0 = perfectly uniform): {:.3}",
        sdimm::obliviousness::target_skew(&counts)
    );
    oram.check_invariants();
    println!("Path ORAM invariants verified on both SDIMMs.");
}
