//! The secure baselines the SDIMM designs are measured against (§II-D):
//! one Path ORAM tree behind the on-chip controller, its lines
//! interleaved over the main-memory channels. PATHORAM-nch and
//! FREECURSIVE-nch differ only in their frontend (an on-chip position
//! map, or `oram::freecursive::Frontend`'s recursion).

use dram_sim::config::LINE_BYTES;
use oram::path_oram::PathOram;
use oram::plan::AccessPlan;
use oram::types::{BlockId, Op};

use crate::trace::{Activity, Phase, RequestTrace};
use crate::Protocol;

/// Maps byte address `addr` onto (channel, channel-local address):
/// consecutive lines interleave over `channels` main-memory channels.
#[inline]
pub fn interleave(addr: u64, channels: usize) -> (usize, u64) {
    let line = addr / LINE_BYTES as u64;
    let channels = channels as u64;
    ((line % channels) as usize, (line / channels) * LINE_BYTES as u64)
}

/// A baseline's backend: one Path ORAM tree over interleaved
/// main-memory channels.
#[derive(Debug)]
pub struct BaselineOram {
    tree: PathOram,
    channels: usize,
}

impl BaselineOram {
    /// Interleaves `tree`'s lines over `channels` main-memory channels.
    pub fn new(tree: PathOram, channels: usize) -> Self {
        BaselineOram { tree, channels }
    }

    /// The whole-path trace of `plan`: the path read with its
    /// decryption, after which the data is ready, then the write-back,
    /// which drains behind it inside the one serialized backend.
    fn path_trace(&self, plan: &AccessPlan) -> RequestTrace {
        let mut per_channel = vec![Vec::new(); self.channels];
        for &addr in &plan.lines {
            let (channel, local) = interleave(addr, self.channels);
            per_channel[channel].push(local);
        }
        let (mut read, mut write) = (Phase::default(), Phase::default());
        for (channel, lines) in per_channel.into_iter().enumerate() {
            if !lines.is_empty() {
                read.par.push(Activity::Dram { channel, reads: lines.clone(), writes: Vec::new() });
                write.par.push(Activity::Dram { channel, reads: Vec::new(), writes: lines });
            }
        }
        read.par.push(Activity::Crypto { units: plan.lines.len() as u32 });
        let mut trace = RequestTrace::new(vec![read, write]);
        trace.data_ready_phase = 0;
        trace.backend = Some(0);
        trace
    }
}

impl Protocol for BaselineOram {
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
        let (data, plan) = self.tree.access(id, op, new_data);
        (data, self.path_trace(&plan))
    }

    fn trees(&self) -> &[PathOram] {
        std::slice::from_ref(&self.tree)
    }

    fn trees_mut(&mut self) -> &mut [PathOram] {
        std::slice::from_mut(&mut self.tree)
    }

    fn metrics(&self) -> sdimm_telemetry::MetricsRegistry {
        self.tree.metrics()
    }

    /// The inverse of [`interleave`]: channel `channel`'s local line
    /// `addr / LINE_BYTES` is the tree's line
    /// `local_line × channels + channel`.
    fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32> {
        let line = LINE_BYTES as u64;
        let global = ((addr / line) * self.channels as u64 + channel as u64) * line;
        self.tree.layout().level_of_line(global)
    }
}
