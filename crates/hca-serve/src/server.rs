//! The daemon: accept loop, per-connection handlers, request dispatch,
//! snapshot lifecycle.
//!
//! Concurrency model: one OS thread per connection (clients are expected
//! in the tens, not the tens of thousands), each handling its requests
//! sequentially so responses come back in request order. `compile_batch`
//! fans its jobs across the [`hca_par`] worker set with per-item panic
//! isolation ([`hca_par::try_par_map`]) — a job whose worker panics fails
//! *that job only*; survivors keep their deterministic slots and the
//! daemon keeps serving. All connections share one byte-budgeted
//! [`Memo`] cache, so near-duplicate traffic turns into cache hits
//! whatever connection it arrives on.
//!
//! The accept loop polls a non-blocking listener and a stop flag, and
//! joins the handlers that have finished on every pass; connection readers
//! poll with a short read timeout, and a reply write that stalls for
//! [`WRITE_TIMEOUT`] ends its connection. A `shutdown` request flips the
//! flag, every thread drains within a poll interval (a blocked writer
//! within the write timeout), and the cache is snapshotted to disk
//! (versioned; a stale snapshot is discarded on the next start, never
//! trusted).

use crate::kernels::resolve_kernel;
use crate::protocol::{
    summarise, write_line, CompileSpec, ItemResult, Request, Response, StatsReport,
};
use hca_arch::DspFabric;
use hca_core::{run_hca_shared, HcaConfig, Memo};
use hca_ddg::Ddg;
use hca_obs::Obs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    Tcp(String),
    /// A Unix-domain socket path (removed and re-created on bind).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Snapshot file: loaded on start (discarded when stale), written on
    /// clean shutdown. `None` disables persistence.
    pub snapshot: Option<PathBuf>,
    /// Byte budget of the shared memo cache.
    pub memo_budget: usize,
    /// The solving configuration every request runs under.
    pub hca: HcaConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            snapshot: None,
            memo_budget: Memo::DEFAULT_BUDGET,
            hca: HcaConfig::default(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    memo: Memo,
    hca: HcaConfig,
    stop: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    snapshot_entries: usize,
}

impl Shared {
    fn stats(&self) -> StatsReport {
        StatsReport {
            memo_hits: self.memo.hits(),
            memo_misses: self.memo.misses(),
            memo_evictions: self.memo.evictions(),
            memo_insertions: self.memo.insertions(),
            memo_deferred: self.memo.deferred(),
            memo_entries: self.memo.entries(),
            memo_bytes: self.memo.approx_bytes(),
            memo_budget: self.memo.budget(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            snapshot_entries: self.snapshot_entries,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A bound (but not yet running) daemon. [`Server::bind`] loads the
/// snapshot and claims the address; [`Server::run`] serves until a
/// `shutdown` request, then snapshots and returns the final stats.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    snapshot: Option<PathBuf>,
    local_addr: String,
}

/// Accept-loop poll interval; also bounds how long shutdown drains.
const POLL: Duration = Duration::from_millis(25);

/// Longest a reply write may block before the daemon gives up on the
/// connection: a client that pipelines requests and never reads its
/// replies cannot pin a handler (and with it shutdown) for longer.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request line the daemon reads, in bytes, newline included. An
/// inline DDG of tens of thousands of nodes fits; a longer line is answered
/// with an error and the connection is closed, so one client cannot grow a
/// handler's buffer without bound.
pub const MAX_LINE_BYTES: usize = 8 << 20;

impl Server {
    /// Bind the listen address and load the snapshot (if configured and
    /// valid — a stale or unreadable snapshot logs one warning and the
    /// cache starts cold).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let mut snapshot_entries = 0;
        let memo = match &cfg.snapshot {
            Some(path) if path.exists() => match Memo::load(path, cfg.memo_budget) {
                Ok(m) => {
                    snapshot_entries = m.entries();
                    eprintln!(
                        "hca-serve: restored {} cached sub-problems from {}",
                        snapshot_entries,
                        path.display()
                    );
                    m
                }
                Err(why) => {
                    eprintln!("hca-serve: ignoring snapshot ({why}); starting cold");
                    Memo::new(cfg.memo_budget)
                }
            },
            _ => Memo::new(cfg.memo_budget),
        };
        let (listener, local_addr) = match &cfg.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let local = l.local_addr()?.to_string();
                (Listener::Tcp(l), local)
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A previous unclean exit leaves the socket file behind;
                // re-binding it is this daemon's claim.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), path.display().to_string())
            }
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                memo,
                hca: cfg.hca,
                stop: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                snapshot_entries,
            }),
            snapshot: cfg.snapshot,
            local_addr,
        })
    }

    /// The bound address — for TCP, `ip:port` with the real port even when
    /// the config asked for `:0`.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Serve until a `shutdown` request (or [`Server::stop_handle`] flips),
    /// then drain connections, snapshot the cache, and return final stats.
    pub fn run(self) -> std::io::Result<StatsReport> {
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        while !self.shared.stop.load(Ordering::SeqCst) {
            // A finished handler keeps its thread stack mapped until it is
            // joined: join now, not at shutdown.
            for h in handles.extract_if(.., |h| h.is_finished()) {
                let _ = h.join();
            }
            let handler = match &self.listener {
                Listener::Tcp(l) => l.accept().and_then(|(stream, _)| {
                    stream.set_nonblocking(false)?;
                    // Replies are single complete lines: send each at once.
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(POLL))?;
                    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
                    let shared = Arc::clone(&self.shared);
                    Ok(std::thread::spawn(move || {
                        handle_connection(&shared, &stream, stream.try_clone());
                    }))
                }),
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().and_then(|(stream, _)| {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(POLL))?;
                    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
                    let shared = Arc::clone(&self.shared);
                    Ok(std::thread::spawn(move || {
                        handle_connection(&shared, &stream, stream.try_clone());
                    }))
                }),
            };
            match handler {
                Ok(h) => handles.push(h),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => return Err(e),
            }
        }
        // Connection readers poll the stop flag between timeouts, so every
        // handler exits within ~one interval even if its client lingers; a
        // handler blocked on a client that stopped reading gives up after
        // `WRITE_TIMEOUT`.
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.snapshot {
            match self.shared.memo.save(path) {
                Ok(n) => eprintln!(
                    "hca-serve: snapshot saved: {} entries to {}",
                    n,
                    path.display()
                ),
                Err(e) => eprintln!("hca-serve: snapshot failed: {e}"),
            }
        }
        #[cfg(unix)]
        if let Listener::Unix(_) = &self.listener {
            let _ = std::fs::remove_file(&self.local_addr);
        }
        Ok(self.shared.stats())
    }

    /// A handle that makes [`Server::run`] return (equivalent to a client
    /// `shutdown` request) — for embedding the daemon in tests and benches.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// See [`Server::stop_handle`].
pub struct StopHandle {
    shared: Arc<Shared>,
}

impl StopHandle {
    /// Request shutdown; the accept loop exits within one poll interval.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

/// Serve one connection: JSON-lines requests in, responses out, in order.
/// Generic over the stream so TCP and Unix sockets share the code.
///
/// Lines are read as bytes and decoded only once complete: a read timeout
/// that splits a multi-byte character keeps the partial bytes, and a line
/// that is not UTF-8 gets an error reply instead of ending the connection.
fn handle_connection<R: std::io::Read>(
    shared: &Shared,
    reader: R,
    writer: std::io::Result<impl Write>,
) {
    let Ok(mut writer) = writer else { return };
    let mut reader = BufReader::new(reader);
    let mut line: Vec<u8> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // One byte past the limit tells an oversized line from a full one.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                let oversized = line.len() > MAX_LINE_BYTES;
                let (resp, shutdown) = if oversized {
                    let msg = format!("bad request: line exceeds {MAX_LINE_BYTES} bytes");
                    (Response::err(0, msg), false)
                } else {
                    match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => {
                            line.clear();
                            continue;
                        }
                        Ok(text) => dispatch(shared, text),
                        Err(e) => (
                            Response::err(0, format!("bad request: not UTF-8: {e}")),
                            false,
                        ),
                    }
                };
                line.clear();
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if !resp.ok {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
                let Ok(body) = serde_json::to_string(&resp) else {
                    return;
                };
                // A failed or timed-out write ends the connection.
                if write_line(&mut writer, &body).is_err() {
                    return;
                }
                if shutdown {
                    shared.stop.store(true, Ordering::SeqCst);
                    return;
                }
                if oversized {
                    return;
                }
            }
            // Timeout polls: partial bytes stay buffered in `line`, the
            // next read appends the rest of the request.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Decode and execute one request line. Returns the response and whether
/// this request asked the daemon to shut down.
fn dispatch(shared: &Shared, line: &str) -> (Response, bool) {
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            // Fish the id out of the raw JSON if there is one, so even a
            // malformed request correlates with its error.
            let id = serde_json::from_str_value(line)
                .ok()
                .and_then(|v| v.field("id").as_u64())
                .unwrap_or(0);
            return (Response::err(id, format!("bad request: {e}")), false);
        }
    };
    let id = req.id;
    match req.op.as_str() {
        "ping" => (Response::ok(id, &"pong"), false),
        "stats" => (Response::ok(id, &shared.stats()), false),
        "compile" => {
            // Single jobs run through the same panic-isolating dispatch as
            // batches: a panicking solve fails this request, not the daemon.
            let items = run_jobs(shared, std::slice::from_ref(&req.job));
            let item = items.into_iter().next().expect("one job in, one out");
            match (item.ok, item.result, item.error) {
                (true, Some(summary), _) => (Response::ok(id, &summary), false),
                (_, _, err) => (
                    Response::err(id, err.unwrap_or_else(|| "compile failed".into())),
                    false,
                ),
            }
        }
        "compile_batch" => {
            if req.jobs.is_empty() {
                return (Response::err(id, "compile_batch needs jobs"), false);
            }
            let items = run_jobs(shared, &req.jobs);
            (Response::ok(id, &items), false)
        }
        "crash" => {
            // Diagnostic op: deliberately panic inside the worker dispatch,
            // proving to operators (and the CI serve job) that a panicking
            // request degrades only itself.
            let jobs = [()];
            let caught = hca_par::try_par_map(&jobs, |()| -> () {
                panic!("deliberate crash requested by client");
            });
            let msg = match &caught[0] {
                Err(p) => p.to_string(),
                Ok(()) => "crash op failed to crash".to_string(),
            };
            (Response::err(id, msg), false)
        }
        "shutdown" => (Response::ok(id, &"shutting down; snapshot on exit"), true),
        other => (Response::err(id, format!("unknown op `{other}`")), false),
    }
}

/// Fan `jobs` across the worker set with per-item panic isolation; one
/// [`ItemResult`] per job, in job order.
fn run_jobs(shared: &Shared, jobs: &[CompileSpec]) -> Vec<ItemResult> {
    hca_par::try_par_map(jobs, |job| compile_one(shared, job))
        .into_iter()
        .map(|worker| match worker {
            Ok(Ok(summary)) => ItemResult {
                ok: true,
                error: None,
                result: Some(summary),
            },
            Ok(Err(e)) => ItemResult {
                ok: false,
                error: Some(e),
                result: None,
            },
            Err(panic) => ItemResult {
                ok: false,
                error: Some(panic.to_string()),
                result: None,
            },
        })
        .collect()
}

/// Resolve and solve one job against the shared cache.
fn compile_one(
    shared: &Shared,
    job: &CompileSpec,
) -> Result<crate::protocol::CompileSummary, String> {
    let (name, ddg): (String, Ddg) = match (&job.ddg, &job.kernel) {
        (Some(ddg), _) => ("inline".to_string(), ddg.clone()),
        (None, Some(kernel)) => resolve_kernel(kernel)?,
        (None, None) => return Err("compile needs `kernel` or `ddg`".into()),
    };
    let fabric = parse_machine(job.machine.as_deref())?;
    let res = run_hca_shared(&ddg, &fabric, &shared.hca, &Obs::disabled(), &shared.memo)
        .map_err(|e| e.to_string())?;
    Ok(summarise(&name, &ddg, &res))
}

/// Parse a machine spec: `N,M,K` / `N` MUX capacities of the standard
/// 64-CN fabric, or a full `ARITIES@CAPS` hierarchy spec.
pub fn parse_machine(spec: Option<&str>) -> Result<DspFabric, String> {
    let Some(spec) = spec else {
        return Ok(DspFabric::standard(8, 8, 8));
    };
    if spec.contains('@') {
        return DspFabric::parse(spec);
    }
    let parts: Vec<usize> = spec
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad machine spec `{spec}`"))?;
    match parts.as_slice() {
        [n] => Ok(DspFabric::standard(*n, *n, *n)),
        [n, m, k] => Ok(DspFabric::standard(*n, *m, *k)),
        _ => Err(format!("bad machine spec `{spec}`")),
    }
}
