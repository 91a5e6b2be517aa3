//! `sdimm-telemetry` — the unified observability layer of the SDIMM stack.
//!
//! Three pieces, composable and dependency-free:
//!
//! * [`histogram::LatencyHistogram`] — a log-bucketed (HDR-lite) latency
//!   histogram: fixed memory, O(1) record, exact merge, and percentile
//!   queries (p50/p90/p99/max). Embedded directly in hot-path stats
//!   blocks such as `dram_sim`'s `ChannelStats`.
//! * [`registry::MetricsRegistry`] — a named collection of counters,
//!   gauges, and histograms with a stable (sorted-key) JSON snapshot
//!   serializer, so every bench binary can dump machine-readable metrics.
//! * [`trace::TraceSink`] — a cheaply clonable handle to the run's
//!   trace store. Each simulated cell records small `Copy` [`Event`]s
//!   (DDR commands, ORAM phase completions, stash ticks, backend
//!   decisions, in-flight changes) into a bounded ring of its own,
//!   through a [`CellTrace`] stamped from the executor's
//!   [`SharedCycle`], and hands them to the sink when it ends. The
//!   events render two ways: a Chrome trace-event export loadable in
//!   Perfetto, and the black box ([`recorder`]) that a stash breach, a
//!   DDR violation or a panic writes for one cell. The disabled sink is
//!   a `None` handle: every record call is a single branch, so
//!   instrumentation can stay compiled-in unconditionally.
//!
//! The simulator's cycle counters stand in for the trace timebase (one
//! cycle = one microsecond in the exported trace), which keeps exported
//! timelines deterministic across runs.
//!
//! Two more run-introspection subsystems sit beside the trace:
//!
//! * [`profile::CycleProfiler`] — a simulated-time sampling profiler
//!   accumulating folded stacks (`protocol;Split;path_read;dram;ch0`)
//!   for flamegraph tooling; deterministic because it never consults
//!   wall clocks.
//! * [`dashboard::LiveProgress`] — shared state behind the opt-in
//!   `--live` stderr status line; print-free except for one sanctioned
//!   choke-point writer.
//!
//! [`instruments::Instruments`] bundles all handles for threading
//! through the runner.

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod dashboard;
pub mod histogram;
pub mod imbalance;
pub mod instruments;
pub mod json;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use dashboard::{LiveProgress, LiveSnapshot};
pub use histogram::LatencyHistogram;
pub use instruments::Instruments;
pub use profile::CycleProfiler;
pub use recorder::{BackendDecision, DdrCmdKind, DdrEvent, Event, EventKind};
pub use registry::{MetricValue, MetricsRegistry};
pub use trace::{CellTrace, SharedCycle, TraceSink};
