//! The benchmark's own spans: opened around calls into each crate's public
//! functions, kept in memory, and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span of the same trace;
/// spans of one operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span list. Traces recorded on different threads share an
/// epoch so their timestamps are comparable after [`Trace::merge`].
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in microseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        span.duration_us()
    }

    /// Run `f` inside a span named `name`.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Append another trace's spans, re-basing their parent indexes.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().fold(0.0, |a, b| a + b)
    }

    /// The span list as JSON: `{"spans":[{"name",..,"parent",..},..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.op, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge() {
        let mut t = Trace::new(Instant::now());
        let op = t.open("op", 7, None);
        t.record("child", 7, Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(op);
        assert_eq!(t.durations_us("child").len(), 1);
        let child = t.total_us("child");
        assert!(child >= 2000.0 && t.total_us("op") >= child);

        let mut other = Trace::new(Instant::now());
        let p = other.open("op", 8, None);
        other.record("child", 8, Some(p), || ());
        other.close(p);
        t.merge(other);
        assert_eq!(t.spans[3].parent, Some(2));
        assert!(t.to_json().contains("\"parent\":2"));
    }
}
