//! Scratch diagnostic: energy breakdown with and without low-power mode.

use dram_sim::spec::DramStandard;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::run;
use workloads::spec;

fn main() {
    let scale = sdimm_bench::Scale::from_env();
    let trace = spec::generate("milc-like", scale.trace_len(), 42);
    let kind = MachineKind::Independent { sdimms: 2, channels: 1 };
    for low_power in [false, true] {
        let cfg = SystemConfig { low_power, ..scale.config(kind, DramStandard::default()) };
        let r = run(&cfg, &trace, scale.warmup(), scale.measure());
        let e = &r.energy;
        println!(
            "low_power={low_power}: cycles={} act={:.0} burst={:.0} refresh={:.0} background={:.0} io={:.0} (uJ)",
            r.cycles,
            e.activate_nj / 1000.0,
            e.burst_nj / 1000.0,
            e.refresh_nj / 1000.0,
            e.background_nj / 1000.0,
            e.io_nj / 1000.0
        );
    }
}
