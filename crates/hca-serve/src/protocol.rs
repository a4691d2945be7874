//! The `hca serve` wire protocol: JSON lines, one request or response
//! object per line, over TCP or a Unix socket.
//!
//! Requests carry a client-chosen `id` that the response echoes, so a
//! client may pipeline requests on one connection (responses come back in
//! request order — the connection handler is sequential; concurrency comes
//! from multiple connections and from `compile_batch` fan-out).
//!
//! ```text
//! → {"id":1,"op":"ping"}
//! ← {"id":1,"ok":true,"result":"pong"}
//! → {"id":2,"op":"compile","kernel":"fir2dim"}
//! ← {"id":2,"ok":true,"result":{"kernel":"fir2dim","final_mii":3,...,"digest":"5ad0…"}}
//! → {"id":3,"op":"compile_batch","jobs":[{"kernel":"fir2dim"},{"kernel":"idcthor"}]}
//! ← {"id":3,"ok":true,"result":[{"ok":true,"result":{...}},{"ok":true,"result":{...}}]}
//! → {"id":4,"op":"stats"}
//! ← {"id":4,"ok":true,"result":{"memo_hits":17,"memo_misses":40,...}}
//! → {"id":5,"op":"shutdown"}
//! ← {"id":5,"ok":true,"result":"snapshot saved: 40 entries"}
//! ```
//!
//! A malformed line still gets a response (`ok:false`, `id:0` when the id
//! could not be parsed) — a daemon must never answer garbage with silence.
//!
//! Both sides send each line with `write_line`: one write per line, so
//! the newline never trails in a second TCP segment that waits out the
//! peer's delayed ACK.

use hca_core::HcaResult;
use hca_ddg::Ddg;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Send one protocol line: `body` and its `\n` terminator go out in a
/// single `write_all`, then the writer is flushed. On an unbuffered socket
/// `writeln!` would issue two writes, and the lone trailing newline stalls
/// until the peer's delayed ACK (~40 ms on Linux).
pub(crate) fn write_line(w: &mut impl Write, body: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(body.len() + 1);
    buf.extend_from_slice(body.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// One request line. `op` selects the operation; the remaining fields are
/// op-specific and ignored elsewhere.
#[derive(Serialize, Deserialize, Clone, Debug, Default)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    #[serde(default)]
    pub id: u64,
    /// `ping` | `compile` | `compile_batch` | `stats` | `crash` | `shutdown`.
    pub op: String,
    /// (`compile`) the job to run.
    #[serde(flatten)]
    pub job: CompileSpec,
    /// (`compile_batch`) the jobs to fan out across the worker set.
    #[serde(default)]
    pub jobs: Vec<CompileSpec>,
}

/// One compilation job: a kernel by name or an inline DDG, plus the target
/// machine.
#[derive(Serialize, Deserialize, Clone, Debug, Default)]
pub struct CompileSpec {
    /// Built-in kernel name (`fir2dim`, `biquad`, `synthetic:512:0xB5E7`, …).
    /// Mutually exclusive with [`ddg`](CompileSpec::ddg).
    #[serde(default)]
    pub kernel: Option<String>,
    /// Inline DDG (the `hca export --json` schema). Takes precedence over
    /// [`kernel`](CompileSpec::kernel) when both are present.
    #[serde(default)]
    pub ddg: Option<Ddg>,
    /// Machine spec: `N,M,K` MUX capacities of the standard 64-CN fabric,
    /// or a full `ARITIES@CAPS` hierarchy spec. Default `8,8,8`.
    #[serde(default)]
    pub machine: Option<String>,
}

/// One response line.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct Response {
    /// The request's correlation id (0 when the request was unparsable).
    pub id: u64,
    /// Did the operation succeed?
    pub ok: bool,
    /// Error message when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
    /// Op-specific payload: a [`CompileSummary`], a `Vec<ItemResult>`, a
    /// [`StatsReport`], or a plain string.
    #[serde(default)]
    pub result: Option<serde_json::Value>,
}

impl Response {
    /// A success response with a serialisable payload.
    pub fn ok(id: u64, result: &impl Serialize) -> Response {
        Response {
            id,
            ok: true,
            error: None,
            result: Some(result.serialize()),
        }
    }

    /// A failure response.
    pub fn err(id: u64, error: impl Into<String>) -> Response {
        Response {
            id,
            ok: false,
            error: Some(error.into()),
            result: None,
        }
    }

    /// Deserialise the payload as `T` (for clients that know the op).
    pub fn parse_result<T: Deserialize>(&self) -> Result<T, String> {
        let v = self.result.as_ref().ok_or("response carries no result")?;
        T::deserialize(v).map_err(|e| format!("unexpected result shape: {e}"))
    }
}

/// One item of a `compile_batch` response: the per-job outcome, in job
/// order. A panicked worker fails only its own item.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct ItemResult {
    /// Did this job succeed?
    pub ok: bool,
    /// Error message when `ok` is false (a typed compile error, or
    /// `worker panicked on item N: …` when the worker blew up).
    #[serde(default)]
    pub error: Option<String>,
    /// The summary when `ok` is true.
    #[serde(default)]
    pub result: Option<CompileSummary>,
}

/// The served digest of one compilation — everything a client needs to
/// check bit-identity against a direct [`hca_core::run_hca`] call without
/// shipping the full placement over the wire.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct CompileSummary {
    /// The job's kernel name (or `inline` for inline DDGs).
    pub kernel: String,
    /// DDG size, original nodes.
    pub nodes: usize,
    /// Final achieved MII (§4.2 cost model).
    pub final_mii: u32,
    /// Unified-machine theoretical optimum.
    pub theoretical_mii: u32,
    /// Coherency-checker verdict.
    pub legal: bool,
    /// `recv` primitives materialised.
    pub recvs: usize,
    /// Sub-problems solved.
    pub subproblems: usize,
    /// FNV-1a/64 over the full solution (sorted placement, route ops,
    /// final-program placement, MII report, stats) — two runs produced the
    /// same bits iff the digests match, up to 64-bit collision odds.
    pub digest: String,
}

/// Cache and traffic counters served by the `stats` op.
#[derive(Serialize, Deserialize, Clone, Debug, Default)]
pub struct StatsReport {
    /// Lifetime memo-cache hits (across every request since start).
    pub memo_hits: u64,
    /// Lifetime memo-cache misses.
    pub memo_misses: u64,
    /// Lifetime LRU evictions.
    pub memo_evictions: u64,
    /// Entries inserted since start.
    pub memo_insertions: u64,
    /// Solved sub-problems not cached because their key was seen for the
    /// first time (the cache admits an entry on its second solve).
    pub memo_deferred: u64,
    /// Cached sub-problems right now.
    pub memo_entries: usize,
    /// Approximate cache footprint, bytes.
    pub memo_bytes: usize,
    /// Configured byte budget.
    pub memo_budget: usize,
    /// Requests handled since start (all ops).
    pub requests: u64,
    /// Requests answered with `ok:false`.
    pub errors: u64,
    /// Entries restored from the startup snapshot (0 = cold start).
    pub snapshot_entries: usize,
}

/// FNV-1a/64 running state.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Summarise a full HCA result for the wire, with a digest strong enough
/// that `served.digest == direct.digest` pins bit-identity of the solution
/// (used by `tests/determinism.rs` and the serve CI job).
pub fn summarise(kernel: &str, ddg: &Ddg, res: &HcaResult) -> CompileSummary {
    let mut h = Fnv::new();
    // Placement, in node-id order (the map's iteration order is an
    // implementation detail; the sorted view is canonical).
    let mut placed: Vec<(u32, u32)> = res.placement.iter().map(|(n, c)| (n.0, c.0)).collect();
    placed.sort_unstable();
    h.u64(placed.len() as u64);
    for (n, c) in placed {
        h.u64(u64::from(n));
        h.u64(u64::from(c));
    }
    // The final program's own placement covers route/recv materialisation
    // order — any drift in the post pass changes the digest.
    h.u64(res.final_program.placement.len() as u64);
    for c in &res.final_program.placement {
        h.u64(u64::from(c.0));
    }
    for v in [
        res.mii.mii_rec,
        res.mii.mii_res,
        res.mii.theoretical,
        res.mii.ini_mii,
        res.mii.max_cls_mii,
        res.mii.wire_mii,
        res.mii.final_mii_rec,
        res.mii.final_mii,
    ] {
        h.u64(u64::from(v));
    }
    for v in [
        res.stats.subproblems,
        res.stats.see_states,
        res.stats.routed_nodes,
        res.stats.forwards,
        res.stats.wires,
    ] {
        h.u64(v as u64);
    }
    h.u64(u64::from(res.is_legal()));
    CompileSummary {
        kernel: kernel.to_string(),
        nodes: ddg.num_nodes(),
        final_mii: res.mii.final_mii,
        theoretical_mii: res.mii.theoretical,
        legal: res.is_legal(),
        recvs: res.final_program.num_recvs(),
        subproblems: res.stats.subproblems,
        digest: format!("{:016x}", h.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_compile() {
        let line = r#"{"id":7,"op":"compile","kernel":"fir2dim","machine":"8,8,8"}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.op, "compile");
        assert_eq!(req.job.kernel.as_deref(), Some("fir2dim"));
        assert_eq!(req.job.machine.as_deref(), Some("8,8,8"));
        let back = serde_json::to_string(&req).unwrap();
        let again: Request = serde_json::from_str(&back).unwrap();
        assert_eq!(again.job.kernel.as_deref(), Some("fir2dim"));
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_line_in_one_write() {
        let mut w = RecordingWriter::default();
        let lines = [
            r#"{"id":1,"op":"ping"}"#,
            r#"{"id":2,"ok":true,"result":"pong"}"#,
        ];
        for line in lines {
            write_line(&mut w, line).unwrap();
        }
        assert_eq!(w.writes.len(), lines.len(), "one write call per line");
        for (sent, line) in w.writes.iter().zip(lines) {
            assert_eq!(sent, format!("{line}\n").as_bytes());
            assert_eq!(sent.iter().filter(|&&b| b == b'\n').count(), 1);
        }
    }

    #[test]
    fn request_missing_id_defaults_to_zero() {
        let req: Request = serde_json::from_str(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(req.id, 0);
        assert_eq!(req.op, "ping");
    }

    #[test]
    fn response_payload_round_trip() {
        let stats = StatsReport {
            memo_hits: 3,
            requests: 9,
            ..StatsReport::default()
        };
        let resp = Response::ok(4, &stats);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.ok);
        let parsed: StatsReport = back.parse_result().unwrap();
        assert_eq!(parsed.memo_hits, 3);
        assert_eq!(parsed.requests, 9);
    }

    #[test]
    fn error_response_shape() {
        let resp = Response::err(0, "bad json");
        let line = serde_json::to_string(&resp).unwrap();
        assert!(line.contains("\"ok\":false"));
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.error.as_deref(), Some("bad json"));
        assert!(back.result.is_none() || matches!(back.result, Some(serde_json::Value::Null)));
    }
}
