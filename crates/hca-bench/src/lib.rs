//! Shared plumbing for the experiment harnesses (`src/bin/*`) and the
//! criterion benches (`benches/*`). Each binary regenerates one table or
//! figure of the paper's evaluation — see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for recorded results.

#![forbid(unsafe_code)]

use hca_arch::DspFabric;
use hca_core::{run_hca_portfolio_obs, HcaResult, Table1Row};
use hca_kernels::Kernel;
use hca_obs::{Obs, RunMetrics};
use serde::Serialize;
use std::path::PathBuf;

/// The evaluation machine: 64-CN DSPFabric with the paper's best bandwidth
/// (N = M = K = 8, §5).
pub fn paper_fabric() -> DspFabric {
    DspFabric::standard(8, 8, 8)
}

/// Run the full HCA portfolio on one kernel under an observer and build its
/// Table-1 row; the row's `metrics` field carries the run's phase timings
/// and counters.
pub fn clusterize_obs(
    kernel: &Kernel,
    fabric: &DspFabric,
    obs: &Obs,
) -> Option<(HcaResult, Table1Row)> {
    let res = run_hca_portfolio_obs(&kernel.ddg, fabric, obs).ok()?;
    let row = Table1Row::from_result(kernel.name, &kernel.ddg, &res);
    Some((res, row))
}

/// One entry of a `BENCH_*.json` report: a named case, its wall-clock, and
/// the observer's snapshot (per-phase timings + pipeline counters).
#[derive(Serialize)]
pub struct BenchCase {
    /// What was run, e.g. a kernel name or `"8,4,2/fir2dim"`.
    pub case: String,
    /// End-to-end wall-clock of the case, milliseconds.
    pub millis: f64,
    /// Per-phase timings and counters collected while the case ran.
    pub metrics: RunMetrics,
}

/// Run one benchmark case under a fresh metrics-only observer, timing it and
/// appending a [`BenchCase`] to `out`. Returns the closure's result.
pub fn bench_case<T>(
    name: impl Into<String>,
    out: &mut Vec<BenchCase>,
    f: impl FnOnce(&Obs) -> T,
) -> T {
    let obs = Obs::enabled();
    let t0 = std::time::Instant::now();
    let result = f(&obs);
    out.push(BenchCase {
        case: name.into(),
        millis: t0.elapsed().as_secs_f64() * 1e3,
        metrics: obs.finish().unwrap_or_default(),
    });
    result
}

/// Write the machine-readable benchmark report as
/// `target/experiments/BENCH_<bin>.json`.
pub fn dump_bench_json<T: Serialize>(bin: &str, value: &T) {
    dump_json(&format!("BENCH_{bin}"), value);
}

/// Where experiment JSON dumps go (`target/experiments/`).
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Serialise a result set for EXPERIMENTS.md.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialisable");
    std::fs::write(&path, body).expect("write experiment dump");
    eprintln!("(wrote {})", path.display());
}
