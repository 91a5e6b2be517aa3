//! Table II: simulator parameters in effect.

use dram_sim::config::{Timing, Topology, WRITE_DRAIN_HI, WRITE_QUEUE_CAPACITY};
use oram::types::{OramConfig, BLOCK_BYTES, MAX_RECURSION};
use sdimm_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let t = Timing::ddr3_1600();
    let topo = Topology::table2_channel();
    let oram = scale.oram(7);
    let paper = OramConfig::default();

    println!("== Table II: simulator parameters ==");
    println!("-- Cycle-accurate simulation --");
    println!("L2/LLC:                    2MB / 64B lines / 8-way shared, 10-cycle");
    println!("-- DRAM device parameters (DDR3-1600, MT41J256M8-class) --");
    println!("ranks per channel:         {}", topo.ranks);
    println!("banks per rank:            {}", topo.banks);
    println!("rows per bank:             {}", topo.rows);
    println!("row-buffer size:           {} bytes", topo.row_bytes);
    println!("channel width:             72 bits (9 x8 devices/rank)");
    println!("bus frequency:             1600 MT/s (800 MHz clock)");
    println!("CL/tRCD/tRP:               {}/{}/{} cycles", t.cl, t.t_rcd, t.t_rp);
    println!("tRAS/tRC/tFAW:             {}/{}/{} cycles", t.t_ras, t.t_rc, t.t_faw);
    println!("tWR/tWTR/tRTRS:            {}/{}/{} cycles", t.t_wr, t.t_wtr, t.t_rtrs);
    println!(
        "write queue:               {WRITE_QUEUE_CAPACITY} entries, drain at {WRITE_DRAIN_HI}"
    );
    println!("-- Freecursive parameters --");
    println!("PLB size:                  64KB (1024 blocks, 8-way)");
    println!("blocks per bucket (Z):     {}", paper.z);
    println!("data block size:           {BLOCK_BYTES} bytes");
    println!("encryption latency:        21 cycles");
    println!("number of recursive maps:  {MAX_RECURSION}");
    println!("-- This run's scale ({scale:?}) --");
    println!("ORAM tree levels:          {}", oram.levels);
    println!("cached ORAM levels:        {}", oram.cached_levels);
    println!("data blocks:               {}", scale.data_blocks());
    println!("warmup/measured records:   {}/{}", scale.warmup(), scale.measure());
}
