//! A tiny oblivious key-value store over the Split ORAM — the in-memory
//! database use case the paper's introduction motivates (high-capacity
//! cloud databases whose access patterns must not leak).
//!
//! Keys hash to ORAM blocks; every `get`/`put` is a full `accessORAM`,
//! so an observer cannot tell a hot key from a cold one, a read from a
//! write, or even whether two operations touched the same key.
//!
//! Run with: `cargo run -p sdimm-examples --bin secure_kv` (exits 1 if
//! a hot-key workload and a key scan look different on the bus).

use std::process::ExitCode;

use oram::types::{BlockId, Op, OramConfig};
use sdimm::obliviousness::{compare_shapes, Recorder, ShapeVerdict};
use sdimm::split::{SplitConfig, SplitOram};
use sdimm::Protocol;

/// Fixed-size value slot inside one 64-byte block: 8-byte key hash +
/// 1-byte length + up to 55 bytes of value.
const VALUE_MAX: usize = 55;

struct ObliviousKv {
    oram: SplitOram,
    slots: u64,
    /// What an attacker on the buses saw of every access so far.
    view: Recorder,
}

impl ObliviousKv {
    fn new(slots: u64) -> Self {
        let tree = OramConfig { levels: 11, ..OramConfig::default() };
        let oram = SplitOram::new(SplitConfig::new(2, &tree), slots, 7);
        ObliviousKv { oram, slots, view: Recorder::new() }
    }

    fn slot_of(&self, key: &str) -> BlockId {
        // FNV-1a keeps the example dependency-free.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        BlockId(h % self.slots)
    }

    fn put(&mut self, key: &str, value: &str) {
        assert!(value.len() <= VALUE_MAX, "value too large for one block");
        let mut block = vec![0u8; 64];
        block[..8].copy_from_slice(&self.slot_of(key).0.to_le_bytes());
        block[8] = value.len() as u8;
        block[9..9 + value.len()].copy_from_slice(value.as_bytes());
        let (_, trace) = self.oram.access(self.slot_of(key), Op::Write, Some(&block));
        self.view.observe(&trace);
    }

    fn get(&mut self, key: &str) -> Option<String> {
        let (block, trace) = self.oram.access(self.slot_of(key), Op::Read, None);
        self.view.observe(&trace);
        if block.len() < 9 || block.iter().all(|&b| b == 0) {
            return None;
        }
        let len = block[8] as usize;
        Some(String::from_utf8_lossy(&block[9..9 + len]).into_owned())
    }
}

fn main() -> ExitCode {
    let mut kv = ObliviousKv::new(2048);

    println!("populating the oblivious KV store...");
    kv.put("alice/balance", "1402.77");
    kv.put("bob/balance", "11.03");
    kv.put("carol/ssn", "REDACTED-BY-DESIGN");

    println!("alice/balance = {:?}", kv.get("alice/balance"));
    println!("bob/balance   = {:?}", kv.get("bob/balance"));
    println!("carol/ssn     = {:?}", kv.get("carol/ssn"));
    println!("missing key   = {:?}", kv.get("eve/balance"));

    // Demonstrate indistinguishability: a workload that hammers one hot
    // key produces exactly the same observable shape as one that scans
    // distinct keys.
    let shape_of = |keys: &[&str]| {
        let mut kv = ObliviousKv::new(2048);
        kv.put("seed", "x");
        kv.view = Recorder::new();
        for k in keys {
            kv.get(k);
        }
        kv.view
    };
    let hot = shape_of(&["alice/balance"; 16]);
    let scan = shape_of(&[
        "k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10", "k11", "k12",
        "k13", "k14", "k15",
    ]);
    match compare_shapes(&hot, &scan) {
        ShapeVerdict::Indistinguishable => {
            println!("\n16 hot-key reads and a 16-key scan are indistinguishable on the bus.");
            ExitCode::SUCCESS
        }
        v => {
            eprintln!("\nUNEXPECTED LEAK: {v:?}");
            ExitCode::FAILURE
        }
    }
}
