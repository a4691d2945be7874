//! Event sinks: where [`Event`]s go once emitted.
//!
//! * [`JsonlSink`] — one JSON object per line, streamable, `tail -f`-able.
//! * [`ChromeTraceSink`] — a `chrome://tracing` / Perfetto-compatible
//!   `trace_event` JSON file, written on flush.
//! * [`StderrSink`] — human-readable lines, used by `hca -v`.
//! * [`MemorySink`] — in-process buffer for tests.

use crate::event::{ArgValue, Event};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A consumer of pipeline events.
///
/// Implementations must be `Send`: the observer handle is shared and the
/// sink list lives behind a mutex.
pub trait PipelineObserver: Send {
    /// Receive one event. Called synchronously from the emitting thread.
    fn on_event(&mut self, event: &Event);

    /// Flush buffered output (end of run). Default: no-op.
    fn flush(&mut self) {}
}

/// Human-readable stderr logging: every event, spans included.
#[derive(Default)]
pub struct StderrSink;

impl StderrSink {
    /// A stderr sink.
    pub fn new() -> Self {
        StderrSink
    }
}

impl PipelineObserver for StderrSink {
    fn on_event(&mut self, event: &Event) {
        let mut line = format!("[{}.{}]", event.phase, event.name);
        if let Some(dur) = event.dur_us {
            line.push_str(&format!(" {dur}us"));
        }
        for (k, v) in &event.args {
            line.push_str(&format!(" {k}={v}"));
        }
        if let Some(msg) = &event.msg {
            line.push_str(": ");
            line.push_str(msg);
        }
        eprintln!("{line}");
    }
}

/// Shared in-memory event buffer (clone the sink, keep a handle).
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

impl PipelineObserver for MemorySink {
    fn on_event(&mut self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// One serialised [`Event`] per line.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Stream to a file at `path` (created/truncated).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: BufWriter::new(Box::new(file)),
        })
    }

    /// Stream to an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::new(writer),
        }
    }
}

impl PipelineObserver for JsonlSink {
    fn on_event(&mut self, event: &Event) {
        let _ = writeln!(self.out, "{}", jsonl_event_json(event));
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Render one event as a single JSONL object. Hand-built (like the Chrome
/// rendering) so `args` is a flat `{"key": scalar}` object — `jq`-friendly —
/// rather than the externally tagged [`ArgValue`] serde form.
fn jsonl_event_json(ev: &Event) -> String {
    let mut s = String::with_capacity(96);
    s.push_str(&format!("{{\"ts_us\":{},\"phase\":", ev.ts_us));
    push_json_str(&mut s, &ev.phase);
    s.push_str(",\"name\":");
    push_json_str(&mut s, &ev.name);
    if let Some(dur) = ev.dur_us {
        s.push_str(&format!(",\"dur_us\":{dur}"));
    }
    s.push_str(",\"args\":{");
    let mut first = true;
    for (k, v) in &ev.args {
        if !first {
            s.push(',');
        }
        first = false;
        push_json_str(&mut s, k);
        s.push(':');
        push_arg_value(&mut s, v);
    }
    s.push('}');
    if let Some(msg) = &ev.msg {
        s.push_str(",\"msg\":");
        push_json_str(&mut s, msg);
    }
    s.push('}');
    s
}

/// Buffers events and writes a Chrome `trace_event` JSON array on flush.
///
/// Span events become complete (`"ph":"X"`) slices; instants and logs become
/// instant (`"ph":"i"`) markers. The output loads directly in
/// `chrome://tracing` and <https://ui.perfetto.dev>.
pub struct ChromeTraceSink {
    out: Option<Box<dyn Write + Send>>,
    events: Vec<Event>,
}

impl ChromeTraceSink {
    /// Write the trace to `path` when flushed (created/truncated now, so an
    /// unwritable path fails early).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(ChromeTraceSink {
            out: Some(Box::new(file)),
            events: Vec::new(),
        })
    }

    /// Write the trace to an arbitrary writer when flushed.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        ChromeTraceSink {
            out: Some(Box::new(writer)),
            events: Vec::new(),
        }
    }

    fn write_all(&mut self) -> io::Result<()> {
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        let mut body = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&trace_event_json(ev));
        }
        body.push_str("]}\n");
        out.write_all(body.as_bytes())?;
        out.flush()
    }
}

impl PipelineObserver for ChromeTraceSink {
    fn on_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn flush(&mut self) {
        let _ = self.write_all();
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        let _ = self.write_all();
    }
}

/// Render one event in `trace_event` form. Hand-built so arguments flatten
/// to bare JSON scalars regardless of how [`ArgValue`] serialises.
fn trace_event_json(ev: &Event) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"name\":");
    push_json_str(&mut s, &ev.name);
    s.push_str(",\"cat\":");
    push_json_str(&mut s, &ev.phase);
    match ev.dur_us {
        Some(dur) => {
            s.push_str(&format!(",\"ph\":\"X\",\"ts\":{},\"dur\":{dur}", ev.ts_us));
        }
        None => {
            s.push_str(&format!(",\"ph\":\"i\",\"ts\":{},\"s\":\"t\"", ev.ts_us));
        }
    }
    s.push_str(",\"pid\":1,\"tid\":1,\"args\":{");
    let mut first = true;
    for (k, v) in &ev.args {
        if !first {
            s.push(',');
        }
        first = false;
        push_json_str(&mut s, k);
        s.push(':');
        push_arg_value(&mut s, v);
    }
    if let Some(msg) = &ev.msg {
        if !first {
            s.push(',');
        }
        s.push_str("\"msg\":");
        push_json_str(&mut s, msg);
    }
    s.push_str("}}");
    s
}

fn push_arg_value(s: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => s.push_str(&n.to_string()),
        ArgValue::I64(n) => s.push_str(&n.to_string()),
        ArgValue::F64(x) if x.is_finite() => s.push_str(&format!("{x}")),
        ArgValue::F64(_) => s.push_str("null"),
        ArgValue::Str(t) => push_json_str(s, t),
        ArgValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
    }
}

fn push_json_str(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared byte buffer usable as a `Write + Send` target.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_emits_one_parseable_line_per_event() {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        sink.on_event(&Event::instant(1, "see", "start").arg("level", 2u64));
        sink.on_event(&Event::instant(2, "see", "end"));
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let ev = serde_json::from_str_value(line).unwrap();
            assert_eq!(ev.field("phase").as_str(), Some("see"));
        }
        // Args flatten to bare scalars, same as the Chrome rendering.
        let first = serde_json::from_str_value(lines[0]).unwrap();
        assert_eq!(first.field("args").field("level").as_u64(), Some(2));
    }

    #[test]
    fn chrome_sink_writes_valid_trace_event_json() {
        let buf = SharedBuf::default();
        let mut sink = ChromeTraceSink::new(Box::new(buf.clone()));
        sink.on_event(&Event {
            ts_us: 5,
            phase: "mapper".into(),
            name: "distribute \"x\"".into(),
            dur_us: Some(40),
            args: vec![
                ("wires".into(), ArgValue::U64(3)),
                ("ratio".into(), ArgValue::F64(0.5)),
            ],
            msg: None,
        });
        sink.on_event(&Event::instant(9, "driver", "fallback").arg("why", "margin"));
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // The file must be plain JSON our own parser accepts, with the
        // trace_event skeleton Chrome expects.
        let v = serde_json::from_str_value(&text).unwrap();
        let events = v.field("traceEvents").as_seq().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field("ph").as_str(), Some("X"));
        assert_eq!(events[0].field("dur").as_u64(), Some(40));
        assert_eq!(events[1].field("ph").as_str(), Some("i"));
        assert_eq!(
            events[0].field("args").field("wires").as_u64(),
            Some(3),
            "args must flatten to bare scalars"
        );
    }

    #[test]
    fn memory_sink_buffers() {
        let sink = MemorySink::new();
        let mut writer = sink.clone();
        writer.on_event(&Event::instant(0, "a", "b"));
        assert_eq!(sink.events().len(), 1);
    }
}
