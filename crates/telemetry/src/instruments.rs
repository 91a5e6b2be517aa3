//! The [`Instruments`] bundle: every observability handle a simulation
//! run can carry, in one cheaply clonable struct.
//!
//! The stack passes one `Instruments` value instead of one parameter per
//! subsystem. Every handle follows the same discipline: the disabled
//! form is a `None` inside, so a fully disabled bundle costs one branch
//! per instrumentation site and nothing else.

use crate::dashboard::LiveProgress;
use crate::profile::CycleProfiler;
use crate::trace::TraceSink;

/// Bundle of all observability handles for a run.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// The run's trace sink: each cell records into a ring of its own
    /// under its own trace pid. A sink built with a black-box prefix
    /// ([`TraceSink::with_blackbox`], [`TraceSink::blackbox_only`]) arms
    /// every cell's black box.
    pub sink: TraceSink,
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
            profiler: CycleProfiler::disabled(),
            live: LiveProgress::disabled(),
        }
    }

    /// A bundle carrying only a trace sink (what `runner::run_audited`
    /// attaches).
    pub fn with_sink(sink: TraceSink) -> Self {
        Instruments { sink, ..Instruments::disabled() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_reports_nothing_enabled() {
        let i = Instruments::disabled();
        assert!(!i.sink.is_enabled() && i.sink.blackbox_prefix().is_none());
        assert!(!i.profiler.is_enabled() && !i.live.is_enabled());
        assert!(Instruments::default().sink.export_chrome_json().is_none());
    }

    #[test]
    fn with_sink_enables_only_the_sink() {
        let i = Instruments::with_sink(TraceSink::enabled());
        assert!(i.sink.is_enabled());
        assert!(i.sink.blackbox_prefix().is_none());
        assert!(!i.profiler.is_enabled() && !i.live.is_enabled());
    }
}
