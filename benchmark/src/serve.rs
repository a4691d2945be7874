//! `serve-neardup`: an in-process `hca_serve::Server` with a cold cache,
//! driven over TCP by two closed-loop client connections of the benchmark's
//! own. Every served digest is checked against a direct `run_hca` of the
//! same kernel.

use crate::calibrate;
use crate::layers::{self, ObsTotals};
use crate::stats::{geomean, median, percentile};
use crate::trace::Trace;
use crate::workloads::{
    ms_since, peak_rss_mb, probe_level0, quality_metrics, Options, Quality, Report, Tally, SETUPS,
    TRIP,
};
use hca_arch::DspFabric;
use hca_core::{run_hca, run_hca_shared, HcaConfig, HcaResult, Memo};
use hca_ddg::{Ddg, DdgAnalysis};
use hca_obs::Obs;
use hca_sched::{modulo_schedule, KernelSchedule};
use hca_serve::{resolve_kernel, summarise, CompileSummary, Server, ServerConfig, StopHandle};
use hca_sim::verify_execution;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Concurrent client connections (one per core of the reference host).
const CLIENTS: usize = 2;

/// Requests per client per round.
const ROUND_LEN: usize = 10;

/// Every `ROUND_LEN`-th request is a never-repeating kernel: it takes the
/// slot of the mix's last entry.
const FRESH_SLOT: usize = 9;

/// The layer metrics only this workload produces.
pub const LAYER_METRICS: [&str; 6] = [
    "serve.request_us_p50",
    "serve.ping_us_p50",
    "serve.solve_us_p50",
    "serve.transport_us_p50",
    "serve.memo_hit_pct",
    "serve.errors",
];

/// The near-duplicate mix of `bench_serve` without its last entry, whose
/// slot the fresh kernel takes. Kernels repeat within and across rounds,
/// so a working cross-request cache hits from their second occurrence on.
const MIX: [&str; FRESH_SLOT] = [
    "fir2dim",
    "idcthor",
    "fir8",
    "biquad",
    "dot_product",
    "synthetic:96",
    "synthetic:96:0xB5E8",
    "fir2dim",
    "matvec8",
];

/// The kernel client `c` sends at position `k` of round `round` (the
/// warm-up is round 0) and its mix index, `None` for a fresh request: each
/// client walks the round from offset `c`, and the fresh slot carries a
/// 48-node synthetic whose seed, derived from the run's seed, no other
/// request uses.
fn request(seed: u64, round: usize, c: usize, k: usize) -> (Option<usize>, String) {
    let pos = (c + k) % ROUND_LEN;
    if pos == FRESH_SLOT {
        let serial = (round * CLIENTS + c) as u64;
        (None, format!("synthetic:48:{}", seed.wrapping_add(serial)))
    } else {
        (Some(pos), MIX[pos].to_string())
    }
}

/// A JSON-lines connection that writes each request line with a single
/// `write_all` on a `TCP_NODELAY` socket, so the client adds no Nagle or
/// delayed-ACK stall of its own to a round trip.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .and_then(|()| stream.try_clone())
            .map_err(|e| format!("configure {addr}: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::new(reader),
            next_id: 1,
        })
    }

    /// Send `{"id":N,<fields>}` and return the `result` of an `ok` response
    /// whose id echoes N.
    fn call(&mut self, fields: &str) -> Result<Value, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = format!("{{\"id\":{id},{fields}}}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
        let v = serde_json::from_str_value(&resp).map_err(|e| format!("bad response: {e}"))?;
        if v.field("id").as_u64() != Some(id) {
            return Err(format!("response id {:?} for request {id}", v.field("id")));
        }
        if v.field("ok") != &Value::Bool(true) {
            let why = v.field("error").as_str().unwrap_or("no error message");
            return Err(format!("ok:false: {why}"));
        }
        Ok(v.field("result").clone())
    }

    /// Compile `kernel`; returns the served digest of a legal result.
    fn compile(&mut self, kernel: &str) -> Result<String, String> {
        let name = serde_json::to_string(kernel).map_err(|e| e.to_string())?;
        let summary = self
            .call(&format!("\"op\":\"compile\",\"kernel\":{name}"))
            .map_err(|e| format!("{kernel}: {e}"))?;
        if summary.field("legal") != &Value::Bool(true) {
            return Err(format!("{kernel}: served an illegal clusterisation"));
        }
        summary
            .field("digest")
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{kernel}: served summary has no digest"))
    }
}

/// Direct `run_hca` of a served kernel name: the independent reference.
fn direct(
    kernel: &str,
    fabric: &DspFabric,
    cfg: &HcaConfig,
) -> Result<(Ddg, HcaResult, CompileSummary), String> {
    let (name, ddg) = resolve_kernel(kernel)?;
    let res = run_hca(&ddg, fabric, cfg).map_err(|e| format!("{kernel}: {e}"))?;
    let summary = summarise(&name, &ddg, &res);
    if !summary.legal {
        return Err(format!("{kernel}: direct compile is illegal"));
    }
    Ok((ddg, res, summary))
}

/// The reference of a repeated kernel: its direct compile, with the
/// generated code scheduled and simulated for the quality metrics.
fn reference(
    kernel: &str,
    fabric: &DspFabric,
    cfg: &HcaConfig,
) -> Result<(CompileSummary, Quality), String> {
    let (ddg, res, summary) = direct(kernel, fabric, cfg)?;
    let sched = modulo_schedule(&res.final_program, fabric, res.mii.final_mii)
        .map_err(|e| format!("{kernel}: {e}"))?;
    let folded = KernelSchedule::fold(&res.final_program, fabric, &sched);
    let report = verify_execution(&ddg, &res.final_program, fabric, &folded, TRIP)
        .map_err(|e| format!("{kernel}: simulation: {e}"))?;
    let quality = Quality {
        final_mii: summary.final_mii,
        theoretical_mii: summary.theoretical_mii,
        recvs: summary.recvs,
        nodes: summary.nodes,
        cycles: report.cycles,
        ii_excess: sched.ii.saturating_sub(res.mii.final_mii),
    };
    Ok((summary, quality))
}

/// A run's generated inputs and the direct references for them.
struct Inputs {
    seed: u64,
    fabric: DspFabric,
    cfg: HcaConfig,
    /// Direct compile of every repeated kernel, by name.
    refs: BTreeMap<String, (CompileSummary, Quality)>,
}

/// The daemon under test and the benchmark's connections to it.
struct Daemon {
    conns: Vec<Conn>,
    stop: StopHandle,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Close the connections, stop the daemon and wait for it.
    fn shut_down(self) -> Result<(), String> {
        drop(self.conns);
        self.stop.stop();
        match self.thread.join() {
            Ok(outcome) => outcome,
            Err(_) => Err("the serve daemon thread panicked".into()),
        }
    }
}

/// What the clients did in some rounds.
#[derive(Default)]
struct ClientLog {
    /// (mix index, `None` when fresh; round-trip ms) of passing untraced
    /// requests.
    plain: Vec<(Option<usize>, f64)>,
    /// Round-trip ms of passing traced requests.
    traced: Vec<f64>,
    /// Kernels of traced requests, keyed (round, position, client) so the
    /// merged list follows the order requests were issued in.
    traced_kernels: Vec<((usize, usize, usize), String)>,
    /// Never-repeating kernels served, with their served digests.
    fresh: Vec<(String, String)>,
    tally: Tally,
    trace: Option<Trace>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.plain.extend(other.plain);
        self.traced.extend(other.traced);
        self.traced_kernels.extend(other.traced_kernels);
        self.fresh.extend(other.fresh);
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        if let Some(t) = other.trace {
            match &mut self.trace {
                Some(mine) => mine.merge(t),
                None => self.trace = Some(t),
            }
        }
    }
}

/// Client `c`'s rounds: only the warm-up round when `timed` is `None`,
/// otherwise whole rounds until the run has measured long enough.
fn client_rounds(
    conn: &mut Conn,
    c: usize,
    inp: &Inputs,
    opts: &Options,
    timed: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog {
        trace: timed.filter(|_| opts.trace).map(Trace::new),
        ..ClientLog::default()
    };
    let mut round = 0;
    loop {
        let traced = timed.is_some() && opts.traced_round(round);
        let serial = round + usize::from(timed.is_some());
        for k in 0..ROUND_LEN {
            let (pos, kernel) = request(inp.seed, serial, c, k);
            let op = ((serial * ROUND_LEN + k) * CLIENTS + c) as u64;
            let t0 = Instant::now();
            let span = match (&mut log.trace, traced) {
                (Some(t), true) => Some(t.open("serve.request", op, None)),
                _ => None,
            };
            let served = conn.compile(&kernel);
            let ms = ms_since(t0);
            if let (Some(t), Some(span)) = (&mut log.trace, span) {
                t.close(span);
                let ping = t.open("serve.ping", op, None);
                let pong = conn.call("\"op\":\"ping\"");
                t.close(ping);
                log.tally.check(pong.map(drop));
            }
            let checked = served.and_then(|digest| {
                if pos.is_none() {
                    log.fresh.push((kernel.clone(), digest));
                    return Ok(());
                }
                match inp.refs.get(&kernel) {
                    Some((r, _)) if r.digest == digest => Ok(()),
                    Some((r, _)) => Err(format!(
                        "{kernel}: served digest {digest} differs from the direct compile's {}",
                        r.digest
                    )),
                    None => Err(format!("{kernel}: no direct reference")),
                }
            });
            if log.tally.check(checked).is_some() && timed.is_some() {
                if traced {
                    log.traced.push(ms);
                    log.traced_kernels.push(((serial, k, c), kernel));
                } else {
                    log.plain.push((pos, ms));
                }
            }
        }
        round += 1;
        match timed {
            Some(start) if opts.more_rounds(start, round) => {}
            _ => return log,
        }
    }
}

/// Run `client_rounds` on every connection concurrently; merged log.
fn drive(conns: &mut [Conn], inp: &Inputs, opts: &Options, timed: Option<Instant>) -> ClientLog {
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || client_rounds(conn, c, inp, opts, timed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = ClientLog::default();
    for log in logs {
        merged.absorb(log);
    }
    merged
}

/// Compute the references, boot the daemon cold on 127.0.0.1:0, connect,
/// and run the untimed warm-up round. Also returns the set-up's duration
/// in seconds, calibrated like the direct workloads' set-ups: it is mostly
/// the reference compiles and the warm-up round's cold solves.
fn setup(opts: &Options, log: &mut ClientLog) -> Result<(Inputs, Daemon, f64), String> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let server_cfg = ServerConfig::default();
    let mut inp = Inputs {
        seed: opts.seed,
        fabric: DspFabric::standard(8, 8, 8),
        cfg: server_cfg.hca,
        refs: BTreeMap::new(),
    };
    for kernel in MIX {
        if !inp.refs.contains_key(kernel) {
            samples.push(calibrate::sample_ms());
            if let Some(r) = log.tally.check(reference(kernel, &inp.fabric, &inp.cfg)) {
                inp.refs.insert(kernel.to_string(), r);
            }
        }
    }
    let server = Server::bind(server_cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut daemon = Daemon {
        conns: Vec::new(),
        stop: server.stop_handle(),
        thread: std::thread::spawn(move || {
            server
                .run()
                .map(drop)
                .map_err(|e| format!("serve daemon: {e}"))
        }),
    };
    match (0..CLIENTS).map(|_| Conn::connect(&addr)).collect() {
        Ok(conns) => daemon.conns = conns,
        Err(e) => {
            log.tally.check(daemon.shut_down());
            return Err(e);
        }
    }
    log.absorb(drive(&mut daemon.conns, &inp, opts, None));
    let calibration_s = samples.iter().sum::<f64>() / 1e3;
    let secs = (t0.elapsed().as_secs_f64() - calibration_s) / calibrate::factor(&samples);
    Ok((inp, daemon, secs))
}

/// Replay the traced requests in issue order through `run_hca_shared` on
/// the benchmark's own cache, warmed like the daemon's by the warm-up
/// round: the solve time without protocol, queueing or socket, plus the
/// core layers' phases and counters on the cache's read path.
fn replay(inp: &Inputs, kernels: &[String], trace: &mut Trace, obs_totals: &mut ObsTotals) {
    let memo = Memo::new(Memo::DEFAULT_BUDGET);
    for c in 0..CLIENTS {
        for k in 0..ROUND_LEN {
            let (_, kernel) = request(inp.seed, 0, c, k);
            if let Ok((_, ddg)) = resolve_kernel(&kernel) {
                let _ = run_hca_shared(&ddg, &inp.fabric, &inp.cfg, &Obs::disabled(), &memo);
            }
        }
    }
    for (i, kernel) in kernels.iter().enumerate() {
        let op = (1 << 32) + i as u64;
        let root = trace.open("op", op, None);
        let solve = trace.open("serve.solve", op, Some(root));
        let obs = Obs::enabled();
        let ddg = resolve_kernel(kernel).ok().map(|(name, ddg)| {
            let res = trace.record("core.run_hca", op, Some(solve), || {
                run_hca_shared(&ddg, &inp.fabric, &inp.cfg, &obs, &memo)
            });
            if let Ok(res) = &res {
                summarise(&name, &ddg, res);
            }
            ddg
        });
        trace.close(solve);
        if let Some(m) = obs.finish() {
            obs_totals.add(&m);
        }
        if let Some(ddg) = ddg {
            let analysis = trace.record("ddg.analysis", op, Some(root), || {
                DdgAnalysis::compute(&ddg)
            });
            if let Ok(a) = &analysis {
                probe_level0(&ddg, a, &inp.fabric, &inp.cfg, trace, op, root);
            }
        }
        trace.close(root);
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let mut log = ClientLog::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state: Option<(Inputs, Daemon)> = None;
    for _ in 0..SETUPS {
        let (inp, daemon, secs) = setup(opts, &mut log)?;
        setup_s.push(secs);
        if let Some((_, previous)) = state.replace((inp, daemon)) {
            log.tally.check(previous.shut_down());
        }
    }
    let (inp, mut daemon) = state.expect("at least one set-up");

    let start = Instant::now();
    log.absorb(drive(&mut daemon.conns, &inp, opts, Some(start)));
    let wall_s = start.elapsed().as_secs_f64();
    let stats = daemon.conns[0].call("\"op\":\"stats\"");
    let stats = log.tally.check(stats).unwrap_or(Value::Null);
    log.tally.check(daemon.shut_down());
    // Never-repeating kernels are checked once the timed phase is over.
    for (kernel, digest) in &log.fresh {
        let served = direct(kernel, &inp.fabric, &inp.cfg).and_then(|(_, _, r)| {
            if r.digest == *digest {
                Ok(())
            } else {
                Err(format!(
                    "{kernel}: served digest {digest} differs from the direct compile's {}",
                    r.digest
                ))
            }
        });
        if let Err(why) = served {
            log.tally.fail(&why);
        }
    }
    let ClientLog {
        plain,
        traced,
        mut traced_kernels,
        tally,
        trace,
        ..
    } = log;

    let mut notes = vec![
        format!(
            "mix: {}; every {ROUND_LEN}th request is a fresh synthetic:48",
            MIX.join(" ")
        ),
        format!(
            "{CLIENTS} closed-loop clients; {} untraced requests, {} traced, in {wall_s:.1} s",
            plain.len(),
            traced.len()
        ),
    ];
    let counter = |name: &str| stats.field(name).as_f64().unwrap_or(0.0);
    let refs: Vec<Quality> = inp.refs.values().map(|(_, q)| q.clone()).collect();
    let mut trace = trace.unwrap_or_else(|| Trace::new(start));
    let metrics = if opts.trace {
        traced_kernels.sort();
        let kernels: Vec<String> = traced_kernels.into_iter().map(|(_, k)| k).collect();
        let mut obs_totals = ObsTotals::default();
        replay(&inp, &kernels, &mut trace, &mut obs_totals);
        let mut m = layers::common(kernels.len(), &obs_totals, &trace);
        let request_p50 = median(&trace.durations_us("serve.request"));
        let solve_p50 = median(&trace.durations_us("serve.solve"));
        let hits = counter("memo_hits");
        let lookups = hits + counter("memo_misses");
        let plain_mean = plain.iter().map(|p| p.1).sum::<f64>() / plain.len() as f64;
        let traced_mean = traced.iter().sum::<f64>() / traced.len() as f64;
        m.extend([
            (
                "sched.ii_excess",
                refs.iter().map(|q| f64::from(q.ii_excess)).sum(),
            ),
            ("sim.stores_checked", 0.0),
            ("sim.mismatches", 0.0),
            ("serve.request_us_p50", request_p50),
            (
                "serve.ping_us_p50",
                median(&trace.durations_us("serve.ping")),
            ),
            ("serve.solve_us_p50", solve_p50),
            ("serve.transport_us_p50", request_p50 - solve_p50),
            (
                "serve.memo_hit_pct",
                if lookups > 0.0 {
                    100.0 * hits / lookups
                } else {
                    0.0
                },
            ),
            ("serve.errors", counter("errors")),
            (
                "trace_overhead_pct",
                100.0 * (traced_mean / plain_mean - 1.0),
            ),
        ]);
        m
    } else {
        let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for &(pos, ms) in &plain {
            let kind = pos.map_or("synthetic:48:*", |i| MIX[i]);
            by_kind.entry(kind).or_default().push(ms);
        }
        let medians: Vec<f64> = by_kind.values().map(|v| median(v)).collect();
        // The tail of the repeated (cache-hit) requests. Fresh requests sit
        // far above them (solve plus stall, 85-140 ms against 44 ms), so a
        // pooled p90 lands on the boundary between the two modes or inside
        // the CPU-bound miss mode, and moved 9-30% between runs.
        let repeated: Vec<f64> = plain
            .iter()
            .filter(|p| p.0.is_some())
            .map(|p| p.1)
            .collect();
        let mut m = BTreeMap::from([
            ("compile_ms_geomean", geomean(&medians)),
            ("compile_ms_p90", percentile(&repeated, 90.0)),
            ("compiles_per_s", plain.len() as f64 / wall_s),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        quality_metrics(&refs, &mut m);
        notes.push(format!(
            "compile_ms_p90 over {} repeated-kernel samples; daemon memo {} hits / {} misses",
            repeated.len(),
            counter("memo_hits"),
            counter("memo_misses")
        ));
        m
    };
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        trace: opts.trace.then_some(trace),
    })
}
