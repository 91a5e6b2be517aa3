//! Host-time spans around calls into each layer.
//!
//! The traced run wraps every call the benchmark makes into a layer's
//! public API in a span: name, start, end and the enclosing span. Every
//! call feeds the per-layer aggregates (calls, total and self time);
//! only the first [`SPAN_SAMPLE`] spans are kept raw, for the Perfetto
//! export. A layer's self time is its spans' total minus the part its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

use crate::clock;

/// Raw spans kept per traced run (the aggregates cover every call).
pub const SPAN_SAMPLE: usize = 100_000;

/// A layer boundary the benchmark records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Generate,
    MachineNew,
    Runner,
    LlcAccess,
    RequestTraces,
    Submit,
    Horizon,
    Tick,
    Poll,
    WireBoot,
    WireAccess,
}

impl Layer {
    const COUNT: usize = Layer::WireAccess as usize + 1;

    /// The span name, which is also the per-layer metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Generate => "workloads.generate",
            Layer::MachineNew => "system.machine.new",
            Layer::Runner => "system.runner",
            Layer::LlcAccess => "system.llc.access",
            Layer::RequestTraces => "system.machine.request_traces",
            Layer::Submit => "system.executor.submit",
            Layer::Horizon => "system.executor.horizon",
            Layer::Tick => "system.executor.tick",
            Layer::Poll => "system.executor.poll",
            Layer::WireBoot => "core.wire_boot",
            Layer::WireAccess => "core.wire_access",
        }
    }
}

/// Aggregate of every span of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Time covered by this layer's child spans.
    pub child_ns: u64,
}

impl Totals {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Mean self time per call in ns (0 without calls).
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns() as f64 / self.calls as f64
        }
    }
}

#[derive(Debug)]
struct Open {
    id: u64,
    layer: Layer,
    start_ns: u64,
}

#[derive(Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    totals: [Totals; Layer::COUNT],
    open: Vec<Open>,
    next_id: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: clock::now(),
            totals: [Totals::default(); Layer::COUNT],
            open: Vec::new(),
            next_id: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span of `layer`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Opens a span of `layer`; close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: Layer) {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open { id, layer, start_ns: clock::ns_since(self.origin) });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (unbalanced enter/exit is a bug here).
    pub fn exit(&mut self) {
        let end_ns = clock::ns_since(self.origin);
        let o = self.open.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(o.start_ns);
        let t = &mut self.totals[o.layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        let parent = self.open.last().map(|p| {
            self.totals[p.layer as usize].child_ns += dur;
            p.id
        });
        // Ids grow in entry order, so a sampled span's parent (entered
        // earlier) is always sampled too.
        if o.id < SPAN_SAMPLE as u64 {
            self.spans.push(Span {
                id: o.id,
                parent,
                layer: o.layer,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }

    /// Aggregates of `layer` so far.
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    /// The sampled spans as a Chrome trace-event document (loadable in
    /// Perfetto), one process named `process`.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = format!(
            "{{\"traceEvents\": [\n{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \
             \"args\": {{\"name\": \"{}\"}}}}",
            sdimm_telemetry::json::escape(process)
        );
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Chrome trace timestamps are microseconds; keep ns precision.
            let _ = write!(
                out,
                ",\n{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"ledger\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"span\": {}, \"parent\": {}}}}}",
                s.layer.name(),
                s.start_ns as f64 / 1000.0,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
                s.id,
                parent
            );
        }
        let dropped = self.next_id.saturating_sub(self.spans.len() as u64);
        let _ =
            write!(out, "\n], \"displayTimeUnit\": \"ns\", \"droppedSpanCount\": {dropped}}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_spans_export() {
        let mut t = Tracer::default();
        t.enter(Layer::Runner);
        t.span(Layer::Tick, || std::hint::black_box((0..1000u64).sum::<u64>()));
        t.span(Layer::Poll, || ());
        t.exit();
        t.span(Layer::Runner, || ());
        let runner = t.totals(Layer::Runner);
        let tick = t.totals(Layer::Tick);
        let poll = t.totals(Layer::Poll);
        assert_eq!(runner.calls, 2);
        assert_eq!((tick.calls, poll.calls), (1, 1));
        assert_eq!(runner.child_ns, tick.total_ns + poll.total_ns);
        assert_eq!(runner.self_ns(), runner.total_ns - runner.child_ns);
        let json = t.chrome_json("unit \"test\"");
        sdimm_telemetry::json::validate(&json).expect("valid chrome trace");
        assert!(json.contains("\"parent\": 0"), "children name their parent span: {json}");
        assert!(json.contains("\"droppedSpanCount\": 0"));
    }
}
