//! Scratch diagnostic: per-protocol service latency (MLP=1) and
//! saturated throughput (MLP=16).

use dram_sim::spec::DramStandard;
use sdimm_system::executor::ExecEvent;
use sdimm_system::machine::{Machine, MachineKind};

fn probe(kind: MachineKind) {
    let scale = sdimm_bench::Scale::from_env();
    let cfg = scale.config(kind, DramStandard::default());
    let mut m = Machine::new(cfg.clone());
    // Warm PLB.
    for i in 0..64u64 {
        for t in m.request_traces(i * 64, false) {
            m.executor.submit(t);
        }
    }
    m.executor.run_until_quiescent(10_000_000);
    m.executor.poll();

    // MLP=1 latency.
    let mut lat_sum = 0u64;
    for i in 0..50u64 {
        let start = m.executor.now();
        for t in m.request_traces((i * 64) % (cfg.data_blocks * 64), false) {
            m.executor.submit(t);
            loop {
                m.executor.tick(8);
                let evs = m.executor.poll();
                if evs.iter().any(|e| matches!(e, ExecEvent::DataReady { .. })) {
                    break;
                }
            }
        }
        lat_sum = lat_sum.saturating_add(m.executor.now().saturating_sub(start));
        m.executor.run_until_quiescent(1_000_000);
        m.executor.poll();
    }

    // MLP=16 throughput: 400 requests, 16 outstanding.
    let t0 = m.executor.now();
    let mut submitted = 0u64;
    let mut done = 0u64;
    let mut inflight = 0u64;
    let mut total_parts = 0u64;
    while submitted < 400 || done < total_parts {
        while inflight < 16 && submitted < 400 {
            for t in m.request_traces((submitted * 997 * 64) % (cfg.data_blocks * 64), false) {
                m.executor.submit(t);
                inflight += 1;
                total_parts += 1;
            }
            submitted += 1;
        }
        m.executor.tick(16);
        for ev in m.executor.poll() {
            if matches!(ev, ExecEvent::Done { .. }) {
                done += 1;
                inflight -= 1;
            }
        }
    }
    let thr_cycles = m.executor.now().saturating_sub(t0) / 400;
    println!(
        "{:<16} latency(MLP=1) = {:>5} cycles   service/request(MLP=16) = {:>5} cycles",
        cfg.kind.name(),
        lat_sum / 50,
        thr_cycles
    );
}

fn main() {
    for kind in [
        MachineKind::Freecursive { channels: 2 },
        MachineKind::Independent { sdimms: 4, channels: 2 },
        MachineKind::Split { ways: 4, channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ] {
        probe(kind);
    }
}
