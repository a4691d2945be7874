//! Structured tracing, pipeline metrics and machine-readable run reports
//! for the HCA toolchain.
//!
//! The central type is [`Obs`], a cheap cloneable observer handle threaded
//! through the pipeline (driver → SEE tiers → mapper → coherency →
//! scheduling). A **disabled** handle is a `None` — every call site pays one
//! branch and allocates nothing, so instrumented code costs effectively
//! nothing in ordinary runs. An **enabled** handle:
//!
//! * times phases via RAII [`Span`] guards and folds the wall-clock totals
//!   into a metrics registry;
//! * accumulates namespaced counters and histograms
//!   (`"see.states_pruned"`, `"mapper.copies_per_wire"`, …);
//! * fans events out to any number of [`PipelineObserver`] sinks — JSONL
//!   ([`JsonlSink`]), Chrome `trace_event` ([`ChromeTraceSink`]), stderr
//!   ([`StderrSink`]) or in-memory ([`MemorySink`]);
//! * snapshots everything into a serialisable [`RunMetrics`] for
//!   `--metrics-out` files and `BENCH_*.json` reports.
//!
//! ```
//! use hca_obs::{MemorySink, Obs};
//!
//! let obs = Obs::enabled();
//! let sink = MemorySink::new();
//! obs.add_sink(Box::new(sink.clone()));
//! {
//!     let _span = obs.span("see", "tier").with_arg("level", 2u64);
//!     obs.counter_add("see.states_explored", 17);
//! }
//! let metrics = obs.snapshot().unwrap();
//! assert_eq!(metrics.counter("see.states_explored"), Some(17));
//! assert_eq!(sink.events().len(), 1);
//! ```

#![forbid(unsafe_code)]

mod event;
mod metrics;
mod sink;
pub mod trace;

pub use event::{ArgValue, Event};
pub use metrics::{Counter, Histogram, PhaseTiming, RunMetrics, StackTiming};
pub use sink::{ChromeTraceSink, JsonlSink, MemorySink, PipelineObserver, StderrSink};
pub use trace::{SearchTracer, TraceRecord};

use metrics::Registry;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Paths of the enabled spans currently open on this thread, outermost
    /// first — the source of the hierarchical [`StackTiming`] rows. Worker
    /// threads root their own stacks at whatever span they open first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct Inner {
    epoch: Instant,
    sinks: Mutex<Vec<Box<dyn PipelineObserver>>>,
    registry: Mutex<Registry>,
}

/// Observer handle. Clone freely; clones share sinks and metrics.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// A disabled observer: every operation is a cheap no-op.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled observer with no sinks yet (metrics are still collected).
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                sinks: Mutex::new(Vec::new()),
                registry: Mutex::new(Registry::default()),
            })),
        }
    }

    /// Is this handle collecting anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a sink; it receives every subsequent event.
    pub fn add_sink(&self, sink: Box<dyn PipelineObserver>) {
        if let Some(inner) = &self.inner {
            inner.sinks.lock().unwrap().push(sink);
        }
    }

    /// Microseconds since this observer was created.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Open a timed span; the phase timing (flat and per span stack) is
    /// recorded and a completion event emitted when the guard drops.
    #[inline]
    pub fn span(&self, phase: &'static str, name: &'static str) -> Span {
        match &self.inner {
            Some(_) => {
                let (path, depth) = SPAN_STACK.with(|s| {
                    let mut s = s.borrow_mut();
                    let path = match s.last() {
                        Some(parent) => format!("{parent};{phase}.{name}"),
                        None => format!("{phase}.{name}"),
                    };
                    s.push(path.clone());
                    (path, s.len() - 1)
                });
                Span {
                    obs: self.clone(),
                    phase,
                    name,
                    start_us: self.now_us(),
                    t0: Instant::now(),
                    args: Vec::new(),
                    path,
                    depth,
                }
            }
            None => Span {
                obs: Obs::disabled(),
                phase,
                name,
                start_us: 0,
                t0: Instant::now(),
                args: Vec::new(),
                path: String::new(),
                depth: 0,
            },
        }
    }

    /// Emit an instant event.
    pub fn instant(&self, phase: &str, name: &str, args: Vec<(String, ArgValue)>) {
        if self.inner.is_some() {
            let mut ev = Event::instant(self.now_us(), phase, name);
            ev.args = args;
            self.emit(&ev);
        }
    }

    /// Emit a log event; the message closure runs only when enabled, so
    /// formatting costs nothing on the disabled path.
    #[inline]
    pub fn log(&self, phase: &str, name: &str, msg: impl FnOnce() -> String) {
        if self.inner.is_some() {
            let mut ev = Event::instant(self.now_us(), phase, name);
            ev.msg = Some(msg());
            self.emit(&ev);
        }
    }

    /// Add `delta` to the counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().unwrap().counter_add(name, delta);
        }
    }

    /// Raise the counter `name` to at least `value` — for high-water marks
    /// (byte footprints, peak sizes) where summing across records would
    /// overstate the figure.
    #[inline]
    pub fn counter_max(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().unwrap().counter_max(name, value);
        }
    }

    /// Record one observation of magnitude `value` in histogram `name`.
    #[inline]
    pub fn histogram_record(&self, name: &str, value: usize) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().unwrap().histogram_record(name, value);
        }
    }

    /// Merge dense bucket counts (index = magnitude) into histogram `name`.
    pub fn histogram_merge(&self, name: &str, buckets: &[u64]) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .unwrap()
                .histogram_merge(name, buckets);
        }
    }

    /// Snapshot the collected metrics; `None` when disabled.
    pub fn snapshot(&self) -> Option<RunMetrics> {
        self.inner
            .as_ref()
            .map(|inner| inner.registry.lock().unwrap().snapshot())
    }

    /// Flush all sinks (end of run) and return the final metrics snapshot.
    pub fn finish(&self) -> Option<RunMetrics> {
        if let Some(inner) = &self.inner {
            for sink in inner.sinks.lock().unwrap().iter_mut() {
                sink.flush();
            }
        }
        self.snapshot()
    }

    fn emit(&self, event: &Event) {
        if let Some(inner) = &self.inner {
            for sink in inner.sinks.lock().unwrap().iter_mut() {
                sink.on_event(event);
            }
        }
    }
}

/// RAII guard for a timed pipeline phase. Records `phase.name` wall time and
/// emits a completion event on drop.
pub struct Span {
    obs: Obs,
    phase: &'static str,
    name: &'static str,
    start_us: u64,
    t0: Instant,
    args: Vec<(String, ArgValue)>,
    /// `;`-joined chain of enclosing span keys (empty when disabled).
    path: String,
    /// This span's index in the thread-local stack at creation time.
    depth: usize,
}

impl Span {
    /// Attach an argument to the completion event (builder style).
    pub fn with_arg(mut self, key: impl Into<String>, value: impl Into<ArgValue>) -> Self {
        if self.obs.is_enabled() {
            self.args.push((key.into(), value.into()));
        }
        self
    }

    /// Attach an argument to the completion event.
    pub fn arg(&mut self, key: impl Into<String>, value: impl Into<ArgValue>) {
        if self.obs.is_enabled() {
            self.args.push((key.into(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = &self.obs.inner else {
            return;
        };
        // Unwind the thread-local stack to where this span entered it; the
        // path itself was captured at creation, so out-of-order drops can
        // at worst shorten a sibling's recorded children, never corrupt.
        SPAN_STACK.with(|s| s.borrow_mut().truncate(self.depth));
        let wall_us = self.t0.elapsed().as_micros() as u64;
        let key = format!("{}.{}", self.phase, self.name);
        {
            let mut reg = inner.registry.lock().unwrap();
            reg.record_span(&key, wall_us);
            reg.record_stack(&self.path, wall_us);
        }
        let ev = Event {
            ts_us: self.start_us,
            phase: self.phase.to_string(),
            name: self.name.to_string(),
            dur_us: Some(wall_us),
            args: std::mem::take(&mut self.args),
            msg: None,
        };
        self.obs.emit(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let _span = obs.span("see", "tier").with_arg("level", 1u64);
            obs.counter_add("c", 5);
            obs.histogram_record("h", 2);
            obs.log("see", "x", || unreachable!("must not format when disabled"));
        }
        assert!(obs.snapshot().is_none());
        assert!(obs.finish().is_none());
    }

    #[test]
    fn spans_record_timings_and_emit_events() {
        let obs = Obs::enabled();
        let sink = MemorySink::new();
        obs.add_sink(Box::new(sink.clone()));
        {
            let _a = obs.span("driver", "see").with_arg("level", 0u64);
            let _b = obs.span("driver", "see");
        }
        let m = obs.snapshot().unwrap();
        let timing = &m.phases[0];
        assert_eq!(timing.phase, "driver.see");
        assert_eq!(timing.calls, 2);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.dur_us.is_some()));
        // Inner span (dropped first) carries no args; outer carries one.
        assert!(events.iter().any(|e| e.args.is_empty()));
        assert!(events
            .iter()
            .any(|e| e.args == vec![("level".to_string(), ArgValue::U64(0))]));
    }

    #[test]
    fn counters_and_histograms_aggregate_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        obs.counter_add("see.states", 2);
        clone.counter_add("see.states", 3);
        clone.histogram_merge("copies", &[0, 4]);
        obs.histogram_record("copies", 1);
        let m = obs.finish().unwrap();
        assert_eq!(m.counter("see.states"), Some(5));
        assert_eq!(m.histogram("copies"), Some(&[0, 5][..]));
    }

    #[test]
    fn log_events_reach_sinks_with_message() {
        let obs = Obs::enabled();
        let sink = MemorySink::new();
        obs.add_sink(Box::new(sink.clone()));
        obs.log("sched", "modulo", || "II 4: empty window".to_string());
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].msg.as_deref(), Some("II 4: empty window"));
        assert_eq!(events[0].dur_us, None);
    }

    #[test]
    fn nested_spans_record_hierarchical_stacks() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("driver", "run");
            {
                let _mid = obs.span("driver", "see");
                let _leaf = obs.span("see", "tier");
            }
            let _sibling = obs.span("driver", "mapper");
        }
        let m = obs.snapshot().unwrap();
        let stacks: Vec<&str> = m.stacks.iter().map(|s| s.stack.as_str()).collect();
        assert!(stacks.contains(&"driver.run"), "{stacks:?}");
        assert!(stacks.contains(&"driver.run;driver.see"), "{stacks:?}");
        assert!(
            stacks.contains(&"driver.run;driver.see;see.tier"),
            "{stacks:?}"
        );
        assert!(stacks.contains(&"driver.run;driver.mapper"), "{stacks:?}");
        // The collapsed export contains only leaf/self frames.
        let collapsed = m.collapsed_stacks();
        assert!(collapsed.contains("driver.run;driver.see;see.tier "));
    }

    #[test]
    fn counter_max_is_a_high_water_mark_across_clones() {
        let obs = Obs::enabled();
        obs.counter_max("memo.bytes", 10);
        obs.clone().counter_max("memo.bytes", 512);
        obs.counter_max("memo.bytes", 44);
        assert_eq!(obs.snapshot().unwrap().counter("memo.bytes"), Some(512));
    }
}
