//! **Serve load generator** — boots an in-process `hca serve` daemon,
//! hammers it from concurrent client connections with a near-duplicate
//! kernel mix, and reports requests/s with p50/p99 latency plus the
//! daemon's cache counters. The whole point of the daemon is cross-request
//! memoisation, so `--expect-hits` turns "the cache actually hit" into an
//! exit code for CI.
//!
//! ```text
//! cargo run --release -p hca-bench --bin bench_serve
//! cargo run --release -p hca-bench --bin bench_serve -- \
//!     --requests 400 --clients 8 --snapshot /tmp/serve.snap --expect-hits
//! ```

use hca_serve::{Client, CompileSpec, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Instant;

/// The request mix: near-duplicate traffic, the daemon's target workload.
/// Every kernel appears many times per run, so a working cross-request
/// cache must hit from the third occurrence on (the daemon's cache admits
/// a sub-problem on its second solve).
const MIX: &[&str] = &[
    "fir2dim",
    "idcthor",
    "fir8",
    "biquad",
    "dot_product",
    "synthetic:96",
    "synthetic:96:0xB5E8",
    "fir2dim",
    "matvec8",
    "synthetic:96",
];

struct Args {
    requests: usize,
    clients: usize,
    snapshot: Option<PathBuf>,
    expect_hits: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let num = |flag: &str, default: usize| -> usize {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    Args {
        requests: num("--requests", 200).max(1),
        clients: num("--clients", 4).clamp(1, 64),
        snapshot: argv
            .iter()
            .position(|a| a == "--snapshot")
            .and_then(|i| argv.get(i + 1))
            .map(PathBuf::from),
        expect_hits: argv.iter().any(|a| a == "--expect-hits"),
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn main() {
    let args = parse_args();

    let server = Server::bind(ServerConfig {
        snapshot: args.snapshot.clone(),
        ..ServerConfig::default()
    })
    .expect("bench_serve: bind");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || server.run().expect("bench_serve: server run"));

    let per_client = args.requests.div_ceil(args.clients);
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for c in 0..args.clients {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || -> Vec<u64> {
            let mut client = Client::connect_tcp(&addr).expect("bench_serve: connect");
            let mut lat_us = Vec::with_capacity(per_client);
            for i in 0..per_client {
                // Interleave the mix across clients so identical jobs land
                // on different connections — cross-connection hits are the
                // claim under test, not same-connection ones.
                let kernel = MIX[(c + i) % MIX.len()];
                let spec = CompileSpec {
                    kernel: Some(kernel.to_string()),
                    ..CompileSpec::default()
                };
                let t = Instant::now();
                let summary = client.compile(spec).expect("bench_serve: compile");
                lat_us.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
                assert!(
                    summary.legal,
                    "bench_serve: {kernel} served an illegal result"
                );
            }
            lat_us
        }));
    }
    let mut lat_us: Vec<u64> = Vec::new();
    for w in workers {
        lat_us.extend(w.join().expect("bench_serve: client thread"));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut tail = Client::connect_tcp(&addr).expect("bench_serve: stats connect");
    let stats = tail.stats().expect("bench_serve: stats");
    drop(tail);
    stop.stop();
    daemon.join().expect("bench_serve: daemon thread");

    lat_us.sort_unstable();
    let total = lat_us.len();
    let rps = total as f64 / (wall_ms / 1e3);
    let p50 = percentile(&lat_us, 50.0);
    let p99 = percentile(&lat_us, 99.0);
    let lookups = stats.memo_hits + stats.memo_misses;
    let hit_pct = if lookups > 0 {
        stats.memo_hits as f64 / lookups as f64 * 100.0
    } else {
        0.0
    };

    println!(
        "bench_serve: {total} requests, {c} clients, {wall_ms:.0} ms wall",
        c = args.clients
    );
    println!("  throughput   {rps:>10.1} req/s");
    println!("  latency p50  {:>10.2} ms", p50 as f64 / 1e3);
    println!("  latency p99  {:>10.2} ms", p99 as f64 / 1e3);
    println!(
        "  memo         {} hits / {} misses ({hit_pct:.1}% of {lookups} lookups), \
         {} deferred, {} evictions, {} entries, {} bytes",
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_deferred,
        stats.memo_evictions,
        stats.memo_entries,
        stats.memo_bytes
    );
    if stats.snapshot_entries > 0 {
        println!(
            "  snapshot     {} entries restored at boot",
            stats.snapshot_entries
        );
    }

    if args.expect_hits && stats.memo_hits == 0 {
        eprintln!(
            "bench_serve FAILED: --expect-hits but the shared cache never hit \
             ({} misses over {} requests of a near-duplicate mix)",
            stats.memo_misses, total
        );
        std::process::exit(1);
    }
}
