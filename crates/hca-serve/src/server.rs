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
//! The accept loop blocks in `accept` and joins the handlers that have
//! finished on every accept; connection readers poll a stop flag with a
//! short read timeout, and a reply write that stalls for [`WRITE_TIMEOUT`]
//! ends its connection. A `shutdown` request (or a [`StopHandle`]) flips
//! the flag and then connects once to the daemon's own address, which
//! wakes the blocked `accept`; every thread drains within a poll interval
//! (a blocked writer within the write timeout), and the cache is
//! snapshotted to disk (versioned; a stale snapshot is discarded on the
//! next start, never trusted).
//!
//! While a handler runs a request it holds an [`hca_par::occupy`] guard:
//! concurrent requests each hold a core, and maps lend helpers only to the
//! cores left over. The `stats` op reports lifetime sums of four stage
//! times of compile requests: decode, resolve, solve and encode + write.

use crate::kernels::resolve_kernel;
use crate::protocol::{
    summarise, write_line, CompileSpec, ItemResult, Request, Response, StatsReport,
};
use hca_arch::DspFabric;
use hca_core::{run_hca_shared, HcaConfig, Memo};
use hca_ddg::Ddg;
use hca_obs::Obs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Where a stop connects to wake the blocked `accept`.
enum Wake {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Lifetime sums of compile requests' stage times, in nanoseconds.
#[derive(Default)]
struct StageTimes {
    requests: AtomicU64,
    decode: AtomicU64,
    resolve: AtomicU64,
    solve: AtomicU64,
    encode: AtomicU64,
}

/// Add the nanoseconds since `t0` to `sum`.
fn add_since(sum: &AtomicU64, t0: Instant) {
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    sum.fetch_add(ns, Ordering::Relaxed);
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    memo: Memo,
    hca: HcaConfig,
    stop: AtomicBool,
    wake: Wake,
    requests: AtomicU64,
    errors: AtomicU64,
    stages: StageTimes,
    snapshot_entries: usize,
}

impl Shared {
    /// Flip the stop flag, then connect once to the daemon's own address
    /// so a blocked `accept` returns and sees it. A failed connect means
    /// the listener is already gone.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        match &self.wake {
            Wake::Tcp(addr) => drop(TcpStream::connect_timeout(addr, POLL)),
            #[cfg(unix)]
            Wake::Unix(path) => drop(UnixStream::connect(path)),
        }
    }

    fn stats(&self) -> StatsReport {
        let us = |ns: &AtomicU64| ns.load(Ordering::Relaxed) / 1_000;
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
            timed_requests: self.stages.requests.load(Ordering::Relaxed),
            decode_us: us(&self.stages.decode),
            resolve_us: us(&self.stages.resolve),
            solve_us: us(&self.stages.solve),
            encode_us: us(&self.stages.encode),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A connection `accept` returned.
enum Accepted {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
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

/// Connection readers' poll interval; bounds how long shutdown drains.
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
        let (listener, local_addr, wake) = match &cfg.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let local = l.local_addr()?;
                // A daemon bound to every interface wakes itself on loopback.
                let mut wake = local;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake.ip() {
                        std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                (Listener::Tcp(l), local.to_string(), Wake::Tcp(wake))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A previous unclean exit leaves the socket file behind;
                // re-binding it is this daemon's claim.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (
                    Listener::Unix(l),
                    path.display().to_string(),
                    Wake::Unix(path.clone()),
                )
            }
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                memo,
                hca: cfg.hca,
                stop: AtomicBool::new(false),
                wake,
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                stages: StageTimes::default(),
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
            // Blocks until a client connects or a stop wakes it; the waking
            // connection (or any that races a stop) is dropped unserved.
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(stream, _)| Accepted::Tcp(stream)),
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().map(|(stream, _)| Accepted::Unix(stream)),
            };
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let handler = accepted.and_then(|accepted| match accepted {
                Accepted::Tcp(stream) => {
                    // Replies are single complete lines: send each at once.
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(POLL))?;
                    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
                    let shared = Arc::clone(&self.shared);
                    Ok(std::thread::spawn(move || {
                        handle_connection(&shared, &stream, stream.try_clone());
                    }))
                }
                #[cfg(unix)]
                Accepted::Unix(stream) => {
                    stream.set_read_timeout(Some(POLL))?;
                    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
                    let shared = Arc::clone(&self.shared);
                    Ok(std::thread::spawn(move || {
                        handle_connection(&shared, &stream, stream.try_clone());
                    }))
                }
            });
            match handler {
                Ok(h) => handles.push(h),
                // A client that reset before its connection was accepted.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) => {}
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
    /// Request shutdown: wakes the accept loop, which then drains the
    /// connections (within one poll interval) and returns.
    pub fn stop(&self) {
        self.shared.stop();
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
                let _core = hca_par::occupy();
                let oversized = line.len() > MAX_LINE_BYTES;
                let (resp, after) = if oversized {
                    let msg = format!("bad request: line exceeds {MAX_LINE_BYTES} bytes");
                    (Response::err(0, msg), After::Serve)
                } else {
                    match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => {
                            line.clear();
                            continue;
                        }
                        Ok(text) => dispatch(shared, text),
                        Err(e) => (
                            Response::err(0, format!("bad request: not UTF-8: {e}")),
                            After::Serve,
                        ),
                    }
                };
                line.clear();
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if !resp.ok {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
                let t0 = Instant::now();
                let Ok(body) = serde_json::to_string(&resp) else {
                    return;
                };
                // A failed or timed-out write ends the connection.
                if write_line(&mut writer, &body).is_err() {
                    return;
                }
                match after {
                    After::Serve => {}
                    After::Time => {
                        add_since(&shared.stages.encode, t0);
                        shared.stages.requests.fetch_add(1, Ordering::Relaxed);
                    }
                    After::Stop => {
                        shared.stop();
                        return;
                    }
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

/// What a handler does once it has written a reply.
enum After {
    Serve,
    /// Count the reply's encode + write time in the compile stage times.
    Time,
    /// Stop the daemon.
    Stop,
}

/// Decode and execute one request line.
fn dispatch(shared: &Shared, line: &str) -> (Response, After) {
    let t0 = Instant::now();
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            // Fish the id out of the raw JSON if there is one, so even a
            // malformed request correlates with its error.
            let id = serde_json::from_str_value(line)
                .ok()
                .and_then(|v| v.field("id").as_u64())
                .unwrap_or(0);
            return (Response::err(id, format!("bad request: {e}")), After::Serve);
        }
    };
    let decode_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let id = req.id;
    let compiled = |resp: Response| {
        shared.stages.decode.fetch_add(decode_ns, Ordering::Relaxed);
        (resp, After::Time)
    };
    match req.op.as_str() {
        "ping" => (Response::ok(id, &"pong"), After::Serve),
        "stats" => (Response::ok(id, &shared.stats()), After::Serve),
        "compile" => {
            // Single jobs run through the same panic-isolating dispatch as
            // batches: a panicking solve fails this request, not the daemon.
            let items = run_jobs(shared, std::slice::from_ref(&req.job));
            let item = items.into_iter().next().expect("one job in, one out");
            let resp = match (item.ok, item.result, item.error) {
                (true, Some(summary), _) => Response::ok(id, &summary),
                (_, _, err) => Response::err(id, err.unwrap_or_else(|| "compile failed".into())),
            };
            compiled(resp)
        }
        "compile_batch" => {
            if req.jobs.is_empty() {
                return (Response::err(id, "compile_batch needs jobs"), After::Serve);
            }
            let items = run_jobs(shared, &req.jobs);
            compiled(Response::ok(id, &items))
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
            (Response::err(id, msg), After::Serve)
        }
        "shutdown" => (
            Response::ok(id, &"shutting down; snapshot on exit"),
            After::Stop,
        ),
        other => (
            Response::err(id, format!("unknown op `{other}`")),
            After::Serve,
        ),
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
    let t0 = Instant::now();
    let resolved = resolve_job(job);
    add_since(&shared.stages.resolve, t0);
    let (name, ddg, fabric) = resolved?;
    let t0 = Instant::now();
    let solved = run_hca_shared(&ddg, &fabric, &shared.hca, &Obs::disabled(), &shared.memo)
        .map(|res| summarise(&name, &ddg, &res))
        .map_err(|e| e.to_string());
    add_since(&shared.stages.solve, t0);
    solved
}

/// A job's kernel name, DDG and machine.
fn resolve_job(job: &CompileSpec) -> Result<(String, Ddg, DspFabric), String> {
    let (name, ddg) = match (&job.ddg, &job.kernel) {
        (Some(ddg), _) => ("inline".to_string(), ddg.clone()),
        (None, Some(kernel)) => resolve_kernel(kernel)?,
        (None, None) => return Err("compile needs `kernel` or `ddg`".into()),
    };
    Ok((name, ddg, parse_machine(job.machine.as_deref())?))
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
