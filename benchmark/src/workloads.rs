//! What every workload shares: options, the per-run tally and report, the
//! generated-code quality of a kernel, the level-0 layer probe, and peak
//! memory.

use crate::stats::geomean;
use crate::trace::Trace;
use hca_arch::DspFabric;
use hca_core::decompose::{effective_spec, level_constraints, level_pg};
use hca_core::mii::theoretical_mii;
use hca_core::HcaConfig;
use hca_ddg::{Ddg, DdgAnalysis};
use hca_mapper::{map_level, MapOptions};
use hca_pg::Ili;
use hca_see::{See, SeeConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper-table1",
    "dsp-exact",
    "synthetic-large",
    "serve-neardup",
];

/// Loop iterations every generated kernel is simulated for.
pub const TRIP: u64 = 32;

/// Set-ups per run; `setup_s` is their median and the last one is kept.
pub const SETUPS: usize = 3;

/// One run's settings.
pub struct Options {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Options {
    /// Whole rounds continue until the run has measured for `seconds` and,
    /// in a traced run, has done both an untraced and a traced round.
    pub fn more_rounds(&self, start: Instant, rounds_done: usize) -> bool {
        start.elapsed() < self.seconds || rounds_done < if self.trace { 2 } else { 1 }
    }

    /// Rounds alternate untraced/traced in a traced run; the untraced ones
    /// are the base of `trace_overhead_pct`.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }
}

/// What a workload run hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub trace: Option<Trace>,
}

/// Operations attempted and failed; failures are printed as they happen.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; its value when it passed.
    pub fn check<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome.map_err(|why| self.fail(&why)).ok()
    }

    /// Fail an operation counted earlier, by a check made after it.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("FAILED: {why}");
    }
}

/// The generated-code quality of one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct Quality {
    pub final_mii: u32,
    pub theoretical_mii: u32,
    pub recvs: usize,
    pub nodes: usize,
    /// Simulated cycles for [`TRIP`] iterations.
    pub cycles: u64,
    /// Scheduled II minus the MII bound.
    pub ii_excess: u32,
}

/// `mii_ratio_geomean`, `cycles_per_iter_geomean` and `recvs_per_node` over
/// a workload's distinct kernels.
pub fn quality_metrics(qs: &[Quality], metrics: &mut BTreeMap<&'static str, f64>) {
    let ratios: Vec<f64> = qs
        .iter()
        .map(|q| f64::from(q.final_mii) / f64::from(q.theoretical_mii))
        .collect();
    let cycles: Vec<f64> = qs.iter().map(|q| q.cycles as f64 / TRIP as f64).collect();
    let recvs: usize = qs.iter().map(|q| q.recvs).sum();
    let nodes: usize = qs.iter().map(|q| q.nodes).sum();
    metrics.insert("mii_ratio_geomean", geomean(&ratios));
    metrics.insert("cycles_per_iter_geomean", geomean(&cycles));
    metrics.insert("recvs_per_node", recvs as f64 / nodes as f64);
}

/// Time the first hierarchy level from outside the driver: tier-0 SEE on
/// the root sub-problem (`see.run_level0`), then the Mapper on its outcome
/// (`mapper.level0`), each in its own span under `parent`.
pub fn probe_level0(
    ddg: &Ddg,
    analysis: &DdgAnalysis,
    fabric: &DspFabric,
    cfg: &HcaConfig,
    trace: &mut Trace,
    op: u64,
    parent: usize,
) {
    let theo = theoretical_mii(analysis.mii_rec, ddg, fabric);
    let see_cfg = SeeConfig {
        issue_cap: cfg.issue_cap_slack.map(|s| theo + s),
        ..cfg.see
    };
    let pg = level_pg(fabric, 0, &Ili::root());
    let outcome = trace.record("see.run_level0", op, Some(parent), || {
        See::new(ddg, analysis, &pg, level_constraints(fabric, 0), see_cfg).run(None)
    });
    if let Ok(outcome) = outcome {
        let opts = MapOptions {
            balance_split: 2 < fabric.depth(),
        };
        let _ = trace.record("mapper.level0", op, Some(parent), || {
            map_level(&outcome.assigned, effective_spec(fabric, 0), opts)
        });
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Run one workload.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    match workload {
        "serve-neardup" => crate::serve::run(opts),
        w if WORKLOADS.contains(&w) => crate::direct::run(w, opts),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_geomeans() {
        let q = |final_mii, theoretical_mii, cycles| Quality {
            final_mii,
            theoretical_mii,
            recvs: 3,
            nodes: 10,
            cycles,
            ii_excess: 0,
        };
        let mut m = BTreeMap::new();
        quality_metrics(&[q(4, 2, 64), q(8, 4, 256)], &mut m);
        assert!((m["mii_ratio_geomean"] - 2.0).abs() < 1e-12);
        assert!((m["cycles_per_iter_geomean"] - 4.0).abs() < 1e-12);
        assert!((m["recvs_per_node"] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rounds_cover_the_run_length_and_one_traced_round() {
        let plain = Options {
            seed: 0,
            seconds: Duration::ZERO,
            trace: false,
        };
        let start = Instant::now();
        assert!(plain.more_rounds(start, 0));
        assert!(!plain.more_rounds(start, 1));
        let traced = Options {
            trace: true,
            ..plain
        };
        assert!(traced.more_rounds(start, 1));
        assert!(!traced.more_rounds(start, 2));
        assert!(!traced.traced_round(0) && traced.traced_round(1));
    }
}
