//! **Bench regression gate** — diffs a fresh run of the fixed gate workload
//! (full HCA over the four Table-1 kernels, a 512-node synthetic scaling
//! case, and `+race` portfolio variants of the paper kernels) against the
//! checked-in `BENCH_baseline.json` and exits non-zero when any case
//! regresses by more than the tolerance (default 25% wall-clock).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hca-bench --bin bench_gate            # compare
//! cargo run --release -p hca-bench --bin bench_gate -- --record   # rebaseline
//! cargo run --release -p hca-bench --bin bench_gate -- --tolerance 40
//! cargo run --release -p hca-bench --bin bench_gate -- --interleave 7
//! ```
//!
//! By default each case takes the best of three back-to-back runs to damp
//! scheduler noise. `--interleave N` instead runs N *rounds that alternate
//! over the cases* (case1, …, caseK, case1, …), so slow host drift (thermal
//! throttling, a background job) spreads across every case instead of
//! biasing whichever case ran last; the per-case wall-clock is then the
//! **median** of its N samples, and `--record` keeps the per-case **maximum**
//! as the conservative baseline. All round samples land in
//! `BENCH_history.jsonl`. Absolute numbers are machine-specific, so CI runs
//! this job as non-blocking and the baseline documents the reference
//! machine's trajectory rather than a portable truth.

use hca_core::{run_hca, run_hca_obs, HcaConfig, PortfolioConfig};
use hca_obs::Obs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One measured case of the gate workload.
#[derive(Serialize, Deserialize)]
struct GateCase {
    /// Kernel name.
    case: String,
    /// Representative wall-clock, milliseconds: best-of-three by default,
    /// the per-case median under `--interleave` (maximum when recording a
    /// baseline — see the module docs).
    millis: f64,
    /// Every raw sample behind `millis`, in measurement order. Only
    /// populated by `--interleave` runs; absent in best-of-three records.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    rounds: Vec<f64>,
    /// Key pipeline counters from one additional *observed* run (the timed
    /// runs stay unobserved). Absent in baselines recorded before this
    /// field existed.
    #[serde(default)]
    counters: BTreeMap<String, u64>,
}

/// The counters each history record keeps: enough to attribute a
/// wall-clock trend shift without storing a full `RunMetrics`.
const HISTORY_COUNTERS: &[&str] = &[
    "see.states_explored",
    "see.states_pruned",
    "see.steps",
    "see.route_bfs_runs",
    "see.route_cache_hits",
    "see.route_table_bytes",
    "see.peak_frontier_bytes",
    "see.arc_table_bytes",
    "see.state_arena_bytes",
    "see.state_clones",
    "driver.subproblems",
    "driver.memo_hits",
    "driver.memo_misses",
    "driver.memo_evictions",
    "driver.memo_bytes",
    "driver.memo_entries",
    "driver.fallbacks",
    "portfolio.bounds_computed",
    "portfolio.bound_exits",
    "portfolio.exact_runs",
    "portfolio.exact_wins",
    "portfolio.exact_proofs",
    "portfolio.exact_timeouts",
    "portfolio.gap_known",
    "portfolio.gap_sum",
    "portfolio.guard_runs",
    "portfolio.guard_kept_beam",
];

/// One appended line of `BENCH_history.jsonl` — the bench trajectory.
#[derive(Serialize)]
struct HistoryRecord {
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
    commit: String,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    unix_ms: u64,
    /// Was this invocation a `--record` rebaseline?
    record: bool,
    /// The fresh measurements of this invocation.
    cases: Vec<GateCase>,
}

/// The checked-in baseline file.
#[derive(Serialize, Deserialize)]
struct Baseline {
    /// Allowed wall-clock regression, percent.
    tolerance_pct: f64,
    /// Reference measurements.
    cases: Vec<GateCase>,
}

/// `BENCH_baseline.json` at the repository root.
fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

/// The median of an interleaved sample set: middle element for odd counts,
/// mean of the two middles for even ones.
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Run the fixed gate workload and return one wall-clock figure per kernel:
/// best-of-3 back-to-back runs by default, or the median of `interleave`
/// rounds that alternate over the cases. Beyond the four paper kernels, a
/// seeded 512-node synthetic DAG stresses the sub-problem memoization and
/// frontier caches at a size where the Table-1 loops barely exercise them,
/// and `+race` variants of the paper kernels time the exact/beam portfolio
/// (and feed its `portfolio.*` counters into the history trajectory).
fn measure(interleave: Option<usize>) -> Vec<GateCase> {
    let fabric = hca_bench::paper_fabric();
    let base = HcaConfig::default();
    let race = HcaConfig {
        portfolio: PortfolioConfig::race(),
        ..HcaConfig::default()
    };
    let mut workload: Vec<(String, hca_ddg::Ddg, HcaConfig)> = hca_kernels::table1_kernels()
        .into_iter()
        .map(|k| (k.name.to_string(), k.ddg, base))
        .collect();
    for (n, ddg) in hca_kernels::synthetic::scaling_family(&[512], 0xB5E7) {
        workload.push((format!("synthetic{n}"), ddg, base));
    }
    for k in hca_kernels::table1_kernels() {
        workload.push((format!("{}+race", k.name), k.ddg, race));
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); workload.len()];
    match interleave {
        Some(rounds) => {
            // Round-robin over the cases so slow host drift spreads evenly
            // instead of biasing whichever case ran last.
            for _ in 0..rounds.max(1) {
                for (i, (name, ddg, config)) in workload.iter().enumerate() {
                    let t0 = Instant::now();
                    let res = run_hca(ddg, &fabric, config);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    assert!(res.is_ok(), "{name}: HCA failed in the gate workload");
                    samples[i].push(ms);
                }
            }
        }
        None => {
            for (i, (name, ddg, config)) in workload.iter().enumerate() {
                for _ in 0..3 {
                    let t0 = Instant::now();
                    let res = run_hca(ddg, &fabric, config);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    assert!(res.is_ok(), "{name}: HCA failed in the gate workload");
                    samples[i].push(ms);
                }
            }
        }
    }
    let mut cases = Vec::new();
    for ((name, ddg, config), samples) in workload.iter().zip(samples) {
        // One extra observed run (outside the timing loop, so the observer
        // cannot skew `millis`) supplies the history counters.
        let obs = Obs::enabled();
        let res = run_hca_obs(ddg, &fabric, config, &obs);
        assert!(res.is_ok(), "{name}: observed HCA run failed");
        let metrics = obs.finish().unwrap_or_default();
        let counters = HISTORY_COUNTERS
            .iter()
            .filter_map(|&n| Some((n.to_string(), metrics.counter(n)?)))
            .collect();
        let (millis, rounds) = if interleave.is_some() {
            (median(&samples), samples)
        } else {
            (
                samples.iter().copied().fold(f64::INFINITY, f64::min),
                Vec::new(),
            )
        };
        cases.push(GateCase {
            case: name.clone(),
            millis,
            rounds,
            counters,
        });
    }
    cases
}

/// `BENCH_history.jsonl` at the repository root: one line per `bench_gate`
/// invocation, appended — the machine's performance trajectory over time.
fn history_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.jsonl")
}

/// Append this invocation's measurements to the bench trajectory. Failures
/// are warnings: the gate verdict must not depend on the history file.
fn append_history(cases: &[GateCase], record: bool) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    let rec = HistoryRecord {
        commit,
        unix_ms,
        record,
        cases: cases
            .iter()
            .map(|c| GateCase {
                case: c.case.clone(),
                millis: c.millis,
                rounds: c.rounds.clone(),
                counters: c.counters.clone(),
            })
            .collect(),
    };
    let line = match serde_json::to_string(&rec) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("warning: cannot serialise history record: {e}");
            return;
        }
    };
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history_path())
        .and_then(|mut f| writeln!(f, "{line}"));
    match appended {
        Ok(()) => eprintln!("(appended to {})", history_path().display()),
        Err(e) => eprintln!("warning: cannot append {}: {e}", history_path().display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let tolerance_override = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok());
    let interleave = args
        .iter()
        .position(|a| a == "--interleave")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());

    let fresh = measure(interleave);
    append_history(&fresh, record);

    if record {
        let mut cases = fresh;
        if interleave.is_some() {
            // A baseline is a promise future runs are diffed against; keep
            // the conservative per-case maximum so host noise on the
            // reference machine does not manufacture regressions later.
            for c in &mut cases {
                c.millis = c.rounds.iter().copied().fold(c.millis, f64::max);
            }
        }
        let baseline = Baseline {
            tolerance_pct: tolerance_override.unwrap_or(25.0),
            cases,
        };
        let body = serde_json::to_string_pretty(&baseline).expect("serialisable baseline");
        std::fs::write(baseline_path(), body + "\n").expect("write baseline");
        println!(
            "recorded {} cases to {}",
            baseline.cases.len(),
            baseline_path().display()
        );
        return;
    }

    let text = std::fs::read_to_string(baseline_path()).unwrap_or_else(|e| {
        eprintln!(
            "cannot read {} ({e}); run with --record to create it",
            baseline_path().display()
        );
        std::process::exit(2);
    });
    let baseline: Baseline = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!(
            "malformed baseline {} ({e}); run with --record to recreate it",
            baseline_path().display()
        );
        std::process::exit(2);
    });
    let tolerance = tolerance_override.unwrap_or(baseline.tolerance_pct);

    println!(
        "{:<20} {:>12} {:>12} {:>9}  (tolerance {tolerance:.0}%)",
        "case", "baseline ms", "fresh ms", "delta"
    );
    let mut regressed = false;
    for new in &fresh {
        let Some(old) = baseline.cases.iter().find(|c| c.case == new.case) else {
            println!(
                "{:<20} {:>12} {:>12.1} {:>9}",
                new.case, "—", new.millis, "new"
            );
            continue;
        };
        if !old.millis.is_finite() || old.millis <= 0.0 {
            eprintln!(
                "baseline entry {:?} has unusable wall-clock {} ms; \
                 run with --record to rebaseline",
                new.case, old.millis
            );
            std::process::exit(2);
        }
        let delta_pct = (new.millis - old.millis) / old.millis * 100.0;
        let flag = if delta_pct > tolerance {
            regressed = true;
            "  REGRESSION"
        } else {
            ""
        };
        println!(
            "{:<20} {:>12.1} {:>12.1} {:>+8.1}%{flag}",
            new.case, old.millis, new.millis, delta_pct
        );
    }
    hca_bench::dump_bench_json(
        "bench_gate",
        &fresh
            .iter()
            .map(|c| (c.case.clone(), c.millis))
            .collect::<Vec<_>>(),
    );
    if regressed {
        eprintln!("bench gate FAILED: wall-clock regression beyond {tolerance:.0}%");
        std::process::exit(1);
    }
    println!("bench gate OK");
}
