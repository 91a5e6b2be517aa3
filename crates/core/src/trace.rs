//! Request traces: the timing contract between the ORAM protocols and the
//! cycle-level executor.
//!
//! Each `accessORAM` (or protocol step) produces a [`RequestTrace`]: an
//! ordered list of [`Phase`]s, where every [`Activity`] inside one phase
//! may proceed in parallel and the next phase starts only when the
//! current one has fully completed. The system simulator executes traces
//! against shared resources — the external DDR bus ([`dram_sim::bus::Bus`])
//! and the per-SDIMM internal channels ([`dram_sim::channel::DramChannel`])
//! — so contention between concurrent requests emerges naturally.

use dram_sim::config::Cycle;

/// Fixed AES pipeline latency charged per encryption/decryption step
/// (Table II: 21 cycles).
pub const CRYPTO_LATENCY: Cycle = 21;

/// One unit of work inside a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Activity {
    /// A short (command-only) transfer on the external bus to `sdimm`.
    ExtShort {
        /// Target SDIMM index.
        sdimm: usize,
    },
    /// A long command on the external bus: a command plus one block or
    /// one block share (direction does not matter for occupancy).
    ExtTransfer {
        /// Target/source SDIMM index.
        sdimm: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A metadata transfer on the external bus (Split's metadata shares
    /// and eviction lists). It occupies the bus exactly like an
    /// [`ExtTransfer`](Activity::ExtTransfer); the attacker tells the
    /// two apart by their size.
    ExtMeta {
        /// Target/source SDIMM index.
        sdimm: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// DRAM work on an internal (or baseline main-memory) channel.
    Dram {
        /// Channel index (SDIMM index for internal channels).
        channel: usize,
        /// Line addresses to read.
        reads: Vec<u64>,
        /// Line addresses to write.
        writes: Vec<u64>,
    },
    /// Fixed-latency cryptographic work (`units` pipelined AES ops charge
    /// one pipeline fill plus a beat per unit).
    Crypto {
        /// Number of pipelined crypto operations.
        units: u32,
    },
    /// Power hint: wake `rank` on `channel` now and pin the channel's
    /// other ranks in power-down (the low-power technique of §III-E).
    /// Only a protocol built with `low_power` emits it.
    WakeRank {
        /// Channel whose rank set is managed.
        channel: usize,
        /// Rank the upcoming access will use.
        rank: usize,
    },
}

impl Activity {
    /// Latency of a crypto activity: pipeline fill plus one cycle per
    /// additional unit.
    pub fn crypto_cycles(units: u32) -> Cycle {
        CRYPTO_LATENCY + units.saturating_sub(1) as Cycle
    }
}

/// A set of activities that proceed concurrently.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Phase {
    /// The concurrent activities.
    pub par: Vec<Activity>,
}

impl Phase {
    /// A phase with a single activity.
    pub fn one(a: Activity) -> Self {
        Phase { par: vec![a] }
    }

    /// The dominant resource class of this phase, as a profiler stack
    /// frame, plus the DRAM channel when the dominant class is DRAM.
    ///
    /// Phases mix activities (a path read issues DRAM work while the
    /// crypto pipeline decrypts), so the cycle-attribution profiler
    /// charges the whole phase to the class that bounds it: DRAM beats
    /// bus transfers beats crypto beats command-only chatter.
    pub fn profile_frame(&self) -> (&'static str, Option<usize>) {
        let mut best: (&'static str, Option<usize>) = ("idle", None);
        let mut best_rank = 0u8;
        for act in &self.par {
            let (rank, frame) = match act {
                Activity::Dram { channel, .. } => (4, ("dram", Some(*channel))),
                Activity::ExtTransfer { .. } | Activity::ExtMeta { .. } => (3, ("ext_bus", None)),
                Activity::Crypto { .. } => (2, ("crypto", None)),
                Activity::ExtShort { .. } => (1, ("ext_cmd", None)),
                Activity::WakeRank { .. } => (1, ("power", None)),
            };
            if rank > best_rank {
                best_rank = rank;
                best = frame;
            }
        }
        best
    }
}

/// The full timing footprint of one protocol operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// Ordered phases; phase *k+1* begins when phase *k* completes.
    pub phases: Vec<Phase>,
    /// Index of the phase whose completion delivers the requested data to
    /// the CPU (later phases are cleanup the CPU need not wait on).
    pub data_ready_phase: usize,
    /// The ORAM backend this operation occupies, if any. A Path ORAM
    /// backend serializes its `accessORAM`s (stash and path updates are
    /// sequential), so the executor runs traces with the same backend id
    /// one at a time — the mechanism behind "high parallelism" for the
    /// Independent protocol (one backend per SDIMM) vs "low parallelism"
    /// for Split (one logical backend). `None` (plain DRAM) never blocks.
    pub backend: Option<usize>,
    /// Index of the phase whose completion releases the backend: the
    /// controller is free once the path write-back finishes, even though
    /// CPU-side cleanup (APPEND fan-out, probes) may still be in flight.
    pub backend_release_phase: usize,
}

impl RequestTrace {
    /// A trace with every phase counting toward data readiness.
    pub fn new(phases: Vec<Phase>) -> Self {
        let data_ready_phase = phases.len().saturating_sub(1);
        RequestTrace {
            backend_release_phase: data_ready_phase,
            phases,
            data_ready_phase,
            backend: None,
        }
    }

    /// Total external-bus bytes across all phases.
    pub fn external_bytes(&self) -> u64 {
        self.iter_activities()
            .map(|a| match a {
                Activity::ExtTransfer { bytes, .. } | Activity::ExtMeta { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total DRAM line operations (reads + writes) across all channels.
    pub fn dram_lines(&self) -> u64 {
        self.iter_activities()
            .map(|a| match a {
                Activity::Dram { reads, writes, .. } => (reads.len() + writes.len()) as u64,
                _ => 0,
            })
            .sum()
    }

    /// Equivalent external traffic measured in 64-byte line transfers,
    /// the unit of the paper's off-DIMM access-count comparison (§IV-B).
    pub fn external_line_equivalents(&self) -> f64 {
        self.external_bytes() as f64 / 64.0
    }

    /// Iterates over all activities of all phases.
    pub fn iter_activities(&self) -> impl Iterator<Item = &Activity> {
        self.phases.iter().flat_map(|p| p.par.iter())
    }

    /// The protocol role of phase `idx`, as a profiler stack frame:
    /// everything up to and including the data-ready phase is the
    /// latency-critical `path_read`, phases up to the backend release
    /// are the `writeback`, and anything after (APPEND fan-out, probes)
    /// is `cleanup`.
    pub fn phase_role(&self, idx: usize) -> &'static str {
        if idx <= self.data_ready_phase {
            "path_read"
        } else if idx <= self.backend_release_phase {
            "writeback"
        } else {
            "cleanup"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RequestTrace {
        RequestTrace::new(vec![
            Phase::one(Activity::ExtTransfer { sdimm: 0, bytes: 64 }),
            Phase {
                par: vec![
                    Activity::Dram { channel: 0, reads: vec![0, 64], writes: vec![0] },
                    Activity::Crypto { units: 4 },
                ],
            },
            Phase::one(Activity::ExtShort { sdimm: 0 }),
        ])
    }

    #[test]
    fn aggregates_count_correctly() {
        let t = sample();
        assert_eq!(t.external_bytes(), 64);
        assert_eq!(t.dram_lines(), 3);
        assert!((t.external_line_equivalents() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn default_data_ready_is_last_phase() {
        assert_eq!(sample().data_ready_phase, 2);
    }

    #[test]
    fn crypto_latency_is_pipelined() {
        assert_eq!(Activity::crypto_cycles(1), CRYPTO_LATENCY);
        assert_eq!(Activity::crypto_cycles(10), CRYPTO_LATENCY + 9);
    }

    #[test]
    fn profile_frame_picks_the_bounding_resource() {
        let t = sample();
        assert_eq!(t.phases[0].profile_frame(), ("ext_bus", None));
        assert_eq!(t.phases[1].profile_frame(), ("dram", Some(0)));
        assert_eq!(t.phases[2].profile_frame(), ("ext_cmd", None));
        assert_eq!(Phase::default().profile_frame(), ("idle", None));
    }

    #[test]
    fn phase_role_tracks_data_ready_and_release_markers() {
        let mut t = sample();
        t.data_ready_phase = 0;
        t.backend_release_phase = 1;
        assert_eq!(t.phase_role(0), "path_read");
        assert_eq!(t.phase_role(1), "writeback");
        assert_eq!(t.phase_role(2), "cleanup");
    }
}
