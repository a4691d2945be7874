//! The search-trace recorder: a compact JSONL schema for per-step SEE
//! decisions, replayed later by `hca explain`.
//!
//! Where [`Obs`](crate::Obs) aggregates (counters, phase totals), a
//! [`SearchTracer`] keeps the *sequence*: one [`TraceRecord`] per
//! sub-problem, search tier, placement step and MII attribution. The handle follows the same zero-cost contract as `Obs` —
//! a disabled tracer is a `None` and [`SearchTracer::record`] never runs
//! its closure, so instrumented hot paths pay one branch and nothing else.
//!
//! Records stream to a JSONL file when the tracer was opened with
//! [`SearchTracer::to_file`], and are always retained in memory for
//! [`SearchTracer::records`]. [`read_jsonl`] / [`read_jsonl_file`] are the
//! matching readers, so a trace written in one process can be explained in
//! another.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Record kinds, as stored in [`TraceRecord::kind`]. Readers skip kinds
/// they do not know, such as the `memo` records older traces carry.
pub mod kind {
    /// Driver: a sub-problem enters the solver (fields: `problem`, `depth`,
    /// `ws`, `ili_in`, `ili_out`).
    pub const SUB: &str = "sub";
    /// Engine: one placement step of one SEE tier (`step`, `node`, `beam`,
    /// rejection deltas, top-`k` `cands`, `ns`).
    pub const STEP: &str = "step";
    /// Driver: outcome of one escalation tier (`ok`, `est_mii`, `cost`,
    /// `copies`, route counters; `why` carries the error on failure).
    pub const TIER: &str = "tier";
    /// Driver: a sub-problem is solved (`tier` = winning tier, `est_mii`
    /// plus its `mii_rec`/`mii_issue`/`mii_arc` components, `why` = the
    /// binding constraint).
    pub const SOLVED: &str = "solved";
    /// Driver: run-level MII attribution from the final MII report
    /// (`why` = binding constraint of the final MII).
    pub const MII: &str = "mii";
}

/// The fallback pseudo-tier used when every SEE tier failed and a
/// deterministic fallback produced the sub-problem's outcome.
pub const FALLBACK_TIER: u32 = 99;

/// The pseudo-tier used when the portfolio's exact branch-and-bound backend
/// beat every beam tier and produced the sub-problem's outcome.
pub const EXACT_TIER: u32 = 98;

/// One line of the search trace. A flat record: `kind` says which fields
/// are meaningful (see [`kind`]); the rest default to zero/empty so the
/// schema can grow without breaking old traces, and fields an older schema
/// wrote but this one dropped are ignored on read.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Record kind — one of the [`kind`] constants.
    pub kind: String,
    /// Sub-problem id (the driver's dotted decomposition path; empty for
    /// run-level records).
    #[serde(default)]
    pub problem: String,
    /// Decomposition depth of the sub-problem.
    #[serde(default)]
    pub depth: u32,
    /// Escalation tier (0-based; [`FALLBACK_TIER`] for fallback outcomes).
    #[serde(default)]
    pub tier: u32,
    /// Placement-step index within one SEE run (`step` records).
    #[serde(default)]
    pub step: u32,
    /// DDG node placed in this step (`step` records).
    #[serde(default)]
    pub node: u32,
    /// Frontier width after all filtering in this step.
    #[serde(default)]
    pub beam: u32,
    /// States materialised in this step / tier.
    #[serde(default)]
    pub explored: u64,
    /// States dropped by beam truncation in this step.
    #[serde(default)]
    pub pruned_beam: u64,
    /// Candidates rejected by the cost-margin rule in this step.
    #[serde(default)]
    pub rej_margin: u64,
    /// Candidates rejected by branch-factor truncation in this step.
    #[serde(default)]
    pub rej_branch: u64,
    /// True when this step went through the Route Allocator rescue path.
    #[serde(default)]
    pub rescued: bool,
    /// Wall-clock nanoseconds of this step (or tier, for `tier` records).
    #[serde(default)]
    pub ns: u64,
    /// Top-k scored candidates of this step as `(cluster, cost)`, best
    /// first, truncated to [`TOP_K`].
    #[serde(default)]
    pub cands: Vec<(u32, f64)>,
    /// Did the tier succeed (`tier` records)?
    #[serde(default)]
    pub ok: bool,
    /// Estimated MII (`tier`/`solved`) or final MII (`mii`).
    #[serde(default)]
    pub est_mii: u32,
    /// Recurrence-bound MII component.
    #[serde(default)]
    pub mii_rec: u32,
    /// Issue-pressure MII component (cluster issue load).
    #[serde(default)]
    pub mii_issue: u32,
    /// Arc/wire-pressure MII component.
    #[serde(default)]
    pub mii_arc: u32,
    /// Objective value of the tier's outcome.
    #[serde(default)]
    pub cost: f64,
    /// Copy operations in the tier's outcome.
    #[serde(default)]
    pub copies: u32,
    /// Working-set size (`sub` records).
    #[serde(default)]
    pub ws: u32,
    /// Glue-in wires of the sub-problem's ILI.
    #[serde(default)]
    pub ili_in: u32,
    /// Glue-out wires of the sub-problem's ILI.
    #[serde(default)]
    pub ili_out: u32,
    /// Route-table BFS searches executed by the tier.
    #[serde(default)]
    pub route_bfs: u64,
    /// Routing queries answered from the static route table.
    #[serde(default)]
    pub route_hits: u64,
    /// Reason text: tier error, or the name of the MII component that
    /// bound the estimate (`recurrence`/`issue`/`arc`).
    #[serde(default)]
    pub why: String,
}

/// Candidates kept per `step` record.
pub const TOP_K: usize = 8;

struct TracerInner {
    records: Mutex<Vec<TraceRecord>>,
    writer: Mutex<Option<BufWriter<File>>>,
}

impl TracerInner {
    /// Stream `rec` to the writer, if any, and keep it in memory.
    fn push(&self, rec: TraceRecord) {
        if let Some(w) = lock_recover(&self.writer).as_mut() {
            if let Ok(line) = serde_json::to_string(&rec) {
                let _ = writeln!(w, "{line}");
            }
        }
        lock_recover(&self.records).push(rec);
    }
}

/// Recover a tracer guard even when a previous holder panicked. Both
/// mutexes only guard append-only state (a record vector, a buffered
/// writer) whose invariants hold at every await point, so a panicking
/// traced request must not disable tracing for every later request of a
/// long-running process.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Scope pre-filled onto records by a [`SearchTracer::scoped`] handle.
#[derive(Debug)]
struct TraceScope {
    problem: String,
    depth: u32,
    tier: u32,
}

/// Cheap cloneable search-trace handle. Clones share the record buffer and
/// the JSONL writer; [`SearchTracer::scoped`] derives a handle that stamps
/// its sub-problem/tier onto every record, so the engine never needs to
/// know where in the decomposition it runs.
#[derive(Clone, Default)]
pub struct SearchTracer {
    inner: Option<Arc<TracerInner>>,
    scope: Option<Arc<TraceScope>>,
}

impl SearchTracer {
    /// A disabled tracer: [`record`](Self::record) never runs its closure.
    pub fn disabled() -> Self {
        SearchTracer::default()
    }

    /// An enabled in-memory tracer.
    pub fn enabled() -> Self {
        SearchTracer {
            inner: Some(Arc::new(TracerInner {
                records: Mutex::new(Vec::new()),
                writer: Mutex::new(None),
            })),
            scope: None,
        }
    }

    /// An enabled tracer that additionally streams each record to `path`
    /// as one JSON object per line.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(SearchTracer {
            inner: Some(Arc::new(TracerInner {
                records: Mutex::new(Vec::new()),
                writer: Mutex::new(Some(BufWriter::new(file))),
            })),
            scope: None,
        })
    }

    /// Is this handle recording anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle that stamps `problem`/`depth`/`tier` onto every record it
    /// emits (records keep their own `problem` if they set one).
    pub fn scoped(&self, problem: &str, depth: u32, tier: u32) -> SearchTracer {
        SearchTracer {
            inner: self.inner.clone(),
            scope: self.inner.as_ref().map(|_| {
                Arc::new(TraceScope {
                    problem: problem.to_string(),
                    depth,
                    tier,
                })
            }),
        }
    }

    /// Move every record of `buffer` onto this tracer's stream, in the
    /// order they were recorded, leaving `buffer` empty. Concurrent
    /// searches each record into an in-memory tracer of their own
    /// ([`enabled`](Self::enabled), then [`scoped`](Self::scoped)) and
    /// their owner appends the buffers in a fixed order, so the stream does
    /// not depend on which search ran first; dropping a buffer instead
    /// discards the records of a search whose result was not used.
    pub fn append(&self, buffer: &SearchTracer) {
        let (Some(inner), Some(from)) = (&self.inner, &buffer.inner) else {
            return;
        };
        let records = std::mem::take(&mut *lock_recover(&from.records));
        for rec in records {
            inner.push(rec);
        }
    }

    /// Append one record; `f` runs only when the tracer is enabled.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> TraceRecord) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut rec = f();
        if let Some(scope) = &self.scope {
            if rec.problem.is_empty() {
                rec.problem = scope.problem.clone();
            }
            rec.depth = scope.depth;
            rec.tier = scope.tier;
        }
        inner.push(rec);
    }

    /// Snapshot of every record so far, in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(inner) => lock_recover(&inner.records).clone(),
            None => Vec::new(),
        }
    }

    /// Flush the streaming writer (no-op for in-memory tracers).
    pub fn flush(&self) -> io::Result<()> {
        if let Some(inner) = &self.inner {
            if let Some(w) = lock_recover(&inner.writer).as_mut() {
                w.flush()?;
            }
        }
        Ok(())
    }

    /// Deliberately poison both tracer mutexes (a panic while each guard is
    /// held), for tests pinning the poison-recovery behaviour.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.records.lock().unwrap();
            panic!("poison records");
        }));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.writer.lock().unwrap();
            panic!("poison writer");
        }));
    }

    /// Write every in-memory record to `path` as JSONL (independent of the
    /// streaming writer).
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut out = String::new();
        for rec in self.records() {
            let line = serde_json::to_string(&rec)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            out.push_str(&line);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Parse a JSONL trace back into records (blank lines are skipped).
pub fn read_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Read and parse a JSONL trace file.
pub fn read_jsonl_file(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    read_jsonl(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = SearchTracer::disabled();
        assert!(!t.is_enabled());
        t.record(|| unreachable!("closure must not run when disabled"));
        assert!(t.records().is_empty());
        // A scope derived from a disabled tracer stays disabled.
        let s = t.scoped("0.1", 1, 2);
        assert!(!s.is_enabled());
        s.record(|| unreachable!());
    }

    #[test]
    fn scoped_handles_stamp_problem_and_tier() {
        let t = SearchTracer::enabled();
        let s = t.scoped("0.2", 1, 3);
        s.record(|| TraceRecord {
            kind: kind::STEP.to_string(),
            step: 7,
            ..TraceRecord::default()
        });
        // Explicit problem wins over the scope.
        s.record(|| TraceRecord {
            kind: kind::SOLVED.to_string(),
            problem: "explicit".to_string(),
            ..TraceRecord::default()
        });
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].problem, "0.2");
        assert_eq!(recs[0].depth, 1);
        assert_eq!(recs[0].tier, 3);
        assert_eq!(recs[0].step, 7);
        assert_eq!(recs[1].problem, "explicit");
    }

    #[test]
    fn buffered_records_reach_the_stream_only_when_appended() {
        let dir = std::env::temp_dir().join("hca_obs_trace_buffer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buffered.jsonl");
        let t = SearchTracer::to_file(&path).unwrap();
        let step = |i| TraceRecord {
            kind: kind::STEP.to_string(),
            step: i,
            ..TraceRecord::default()
        };
        let buffer = |tier| SearchTracer::enabled().scoped("0.1", 1, tier);
        let (a, b) = (buffer(0), buffer(1));
        b.record(|| step(0));
        a.record(|| step(0));
        a.record(|| step(1));
        b.record(|| step(1));
        assert!(t.records().is_empty(), "buffers leaked into the stream");
        // Appended in the owner's order, each buffer in recording order and
        // stamped with its scope.
        t.append(&a);
        t.append(&b);
        let recs = t.records();
        let got: Vec<(u32, u32)> = recs.iter().map(|r| (r.tier, r.step)).collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(recs.iter().all(|r| r.problem == "0.1" && r.depth == 1));
        // Appending moves: a second append adds nothing.
        t.append(&a);
        assert_eq!(t.records().len(), 4);
        t.flush().unwrap();
        assert_eq!(read_jsonl_file(&path).unwrap(), recs);
        std::fs::remove_file(&path).ok();
        // Disabled tracers neither give nor take records.
        let off = SearchTracer::disabled();
        let c = buffer(2);
        c.record(|| step(0));
        off.append(&c);
        t.append(&off);
        assert_eq!(t.records().len(), 4);
    }

    #[test]
    fn jsonl_round_trip_preserves_records() {
        let t = SearchTracer::enabled();
        t.record(|| TraceRecord {
            kind: kind::STEP.to_string(),
            problem: "0".to_string(),
            step: 3,
            node: 12,
            beam: 8,
            explored: 40,
            pruned_beam: 32,
            rescued: true,
            ns: 12345,
            cands: vec![(0, 1.5), (3, 2.25)],
            why: "margin".to_string(),
            ..TraceRecord::default()
        });
        t.record(|| TraceRecord {
            kind: kind::SOLVED.to_string(),
            problem: "0".to_string(),
            est_mii: 4,
            mii_rec: 3,
            mii_issue: 4,
            mii_arc: 2,
            cost: -1.75,
            why: "issue".to_string(),
            ..TraceRecord::default()
        });
        let mut text = String::new();
        for r in t.records() {
            text.push_str(&serde_json::to_string(&r).unwrap());
            text.push('\n');
        }
        let back = read_jsonl(&text).unwrap();
        assert_eq!(back, t.records());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("hca_obs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let t = SearchTracer::to_file(&path).unwrap();
        t.record(|| TraceRecord {
            kind: kind::SUB.to_string(),
            problem: "0.1".to_string(),
            ws: 17,
            ..TraceRecord::default()
        });
        t.flush().unwrap();
        let back = read_jsonl_file(&path).unwrap();
        assert_eq!(back, t.records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poisoned_tracer_keeps_recording() {
        let dir = std::env::temp_dir().join("hca_obs_trace_poison_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("poisoned.jsonl");
        let t = SearchTracer::to_file(&path).unwrap();
        t.record(|| TraceRecord {
            kind: kind::SUB.to_string(),
            problem: "before".to_string(),
            ..TraceRecord::default()
        });
        // A traced request panicked while holding both tracer locks: every
        // later record/records/flush must recover, not cascade the panic.
        t.poison_for_test();
        t.record(|| TraceRecord {
            kind: kind::SUB.to_string(),
            problem: "after".to_string(),
            ..TraceRecord::default()
        });
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].problem, "after");
        t.flush().unwrap();
        let back = read_jsonl_file(&path).unwrap();
        assert_eq!(back.len(), 2, "writer lost records after poisoning");
        std::fs::remove_file(&path).ok();
    }
}
