//! The [`Instruments`] bundle: every observability handle a simulation
//! run can carry, in one cheaply clonable struct.
//!
//! PR 2 threaded a single [`TraceSink`] through the stack; this PR adds
//! three more handles (flight recorder hub, cycle profiler, live
//! dashboard). Rather than growing every `run_*` signature by three
//! parameters, the stack passes one `Instruments` value. Every handle
//! follows the same discipline: the disabled form is a `None` inside,
//! so a fully disabled bundle costs one branch per instrumentation
//! site and nothing else.

use crate::dashboard::LiveProgress;
use crate::profile::CycleProfiler;
use crate::recorder::FlightRecorderHub;
use crate::trace::TraceSink;

/// Bundle of all observability handles for a run.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Chrome trace-event sink (PR 2).
    pub sink: TraceSink,
    /// Per-cell flight recorders for black-box dumps.
    pub flight: FlightRecorderHub,
    /// Folded-stack cycle-attribution profiler.
    pub profiler: CycleProfiler,
    /// Live dashboard shared state.
    pub live: LiveProgress,
}

impl Instruments {
    /// A bundle with every subsystem disabled.
    pub fn disabled() -> Self {
        Instruments {
            sink: TraceSink::disabled(),
            flight: FlightRecorderHub::disabled(),
            profiler: CycleProfiler::disabled(),
            live: LiveProgress::disabled(),
        }
    }

    /// A bundle carrying only a trace sink (what `runner::run_audited`
    /// attaches).
    pub fn with_sink(sink: TraceSink) -> Self {
        Instruments { sink, ..Instruments::disabled() }
    }

    /// True when at least one subsystem records anything.
    pub fn any_enabled(&self) -> bool {
        self.sink.is_enabled()
            || self.flight.is_enabled()
            || self.profiler.is_enabled()
            || self.live.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_reports_nothing_enabled() {
        let i = Instruments::disabled();
        assert!(!i.any_enabled());
        assert!(Instruments::default().sink.export_chrome_json().is_none());
    }

    #[test]
    fn with_sink_enables_only_the_sink() {
        let i = Instruments::with_sink(TraceSink::enabled());
        assert!(i.any_enabled());
        assert!(i.sink.is_enabled());
        assert!(!i.flight.is_enabled() && !i.profiler.is_enabled() && !i.live.is_enabled());
    }
}
