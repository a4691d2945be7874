//! The three direct workloads: one closed-loop caller drives the toolchain
//! in-process. An operation compiles one kernel — `run_hca`, then
//! `modulo_schedule` and `KernelSchedule::fold` — and is checked outside
//! its timed window: coherency-legal, simulated output equal to the
//! reference interpreter's, and the same solution digest as the set-up
//! compile of that kernel.
//!
//! Their inputs are pinned. HCA's cost and output swing with mere node
//! renumbering (one 24-node synthetic compiled 2x slower; the large graphs'
//! MII-ratio geomean ranged from 4.5 to 9.2 over ten renumberings), so
//! seeded graphs would bury a 10% change in input noise.

use crate::calibrate;
use crate::layers::{self, ObsTotals};
use crate::stats::{geomean, median, percentile};
use crate::trace::Trace;
use crate::workloads::{
    ms_since, peak_rss_mb, probe_level0, quality_metrics, Options, Quality, Report, Tally, SETUPS,
    TRIP,
};
use hca_arch::DspFabric;
use hca_core::{run_hca, run_hca_obs, HcaConfig, HcaResult, PortfolioConfig};
use hca_ddg::{Ddg, DdgAnalysis};
use hca_kernels::dspstone;
use hca_kernels::synthetic::{generate, scaling_family, SyntheticSpec};
use hca_obs::Obs;
use hca_sched::{modulo_schedule, KernelSchedule, ModuloSchedule};
use hca_serve::summarise;
use hca_sim::{verify_execution, SimError, SimReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Generator seed of the pinned synthetic graphs.
const PINNED_SEED: u64 = 0xB5E7;

/// Node counts of `dsp-exact`'s synthetics: small enough that the exact
/// backend runs on most of their sub-problems.
const DSP_SYNTHETIC_NODES: [usize; 8] = [12, 16, 20, 24, 28, 32, 36, 40];

/// Node counts of `synthetic-large`.
const LARGE_NODES: [usize; 3] = [256, 512, 768];

struct Kernel {
    name: String,
    ddg: Ddg,
}

/// The kernels and solver configuration of a direct workload.
fn kernels(workload: &str) -> (Vec<Kernel>, HcaConfig) {
    let kernel = |name: &str, ddg| Kernel {
        name: name.to_string(),
        ddg,
    };
    match workload {
        "paper-table1" => (
            hca_kernels::table1_kernels()
                .into_iter()
                .map(|k| kernel(k.name, k.ddg))
                .collect(),
            HcaConfig::default(),
        ),
        "dsp-exact" => {
            let mut ks = vec![
                kernel("fir8", dspstone::fir(8)),
                kernel("biquad", dspstone::biquad()),
                kernel("matvec8", dspstone::matvec_row(8)),
                kernel("dot_product", dspstone::dot_product()),
                kernel("n_real_updates", dspstone::n_real_updates(4)),
                kernel("convolution", dspstone::convolution(8)),
                kernel("lms", dspstone::lms(8)),
                kernel("matrix1x3", dspstone::matrix1x3()),
            ];
            for nodes in DSP_SYNTHETIC_NODES {
                let spec = SyntheticSpec {
                    nodes,
                    seed: PINNED_SEED ^ nodes as u64,
                    ..SyntheticSpec::default()
                };
                ks.push(kernel(&format!("synthetic{nodes}"), generate(&spec)));
            }
            // The deterministic portfolio, never `race`: its wall-clock
            // deadline would make outputs depend on timing.
            let cfg = HcaConfig {
                portfolio: PortfolioConfig::exact_small(),
                ..HcaConfig::default()
            };
            (ks, cfg)
        }
        _ => (
            scaling_family(&LARGE_NODES, PINNED_SEED)
                .into_iter()
                .map(|(n, ddg)| kernel(&format!("synthetic{n}"), ddg))
                .collect(),
            HcaConfig::default(),
        ),
    }
}

struct Compiled {
    res: HcaResult,
    sched: ModuloSchedule,
    folded: KernelSchedule,
}

/// What a passing check learned about one compile.
struct Checked {
    digest: String,
    quality: Quality,
    stores_checked: usize,
}

fn compile(k: &Kernel, fabric: &DspFabric, cfg: &HcaConfig) -> Result<Compiled, String> {
    let res = run_hca(&k.ddg, fabric, cfg).map_err(|e| format!("{}: {e}", k.name))?;
    let sched = modulo_schedule(&res.final_program, fabric, res.mii.final_mii)
        .map_err(|e| format!("{}: {e}", k.name))?;
    let folded = KernelSchedule::fold(&res.final_program, fabric, &sched);
    Ok(Compiled { res, sched, folded })
}

fn simulate(k: &Kernel, c: &Compiled, fabric: &DspFabric) -> Result<SimReport, SimError> {
    verify_execution(&k.ddg, &c.res.final_program, fabric, &c.folded, TRIP)
}

/// Check one compile given its simulation outcome. `reference` is the
/// set-up compile of the same kernel (`None` while setting up).
fn check(
    k: &Kernel,
    c: &Compiled,
    sim: Result<SimReport, SimError>,
    reference: Option<&Checked>,
) -> Result<Checked, String> {
    if !c.res.is_legal() {
        return Err(format!(
            "{}: illegal clusterisation ({} undelivered values, {} topology errors)",
            k.name,
            c.res.coherency.violations.len(),
            c.res.coherency.topology_errors.len()
        ));
    }
    let report = sim.map_err(|e| format!("{}: simulation: {e}", k.name))?;
    let checked = Checked {
        digest: summarise(&k.name, &k.ddg, &c.res).digest,
        quality: Quality {
            final_mii: c.res.mii.final_mii,
            theoretical_mii: c.res.mii.theoretical,
            recvs: c.res.final_program.num_recvs(),
            nodes: k.ddg.num_nodes(),
            cycles: report.cycles,
            ii_excess: c.sched.ii.saturating_sub(c.res.mii.final_mii),
        },
        stores_checked: report.stores_checked,
    };
    match reference {
        Some(r) if r.digest != checked.digest => Err(format!(
            "{}: digest {} differs from the set-up compile's {}",
            k.name, checked.digest, r.digest
        )),
        _ => Ok(checked),
    }
}

struct Setup {
    kernels: Vec<Kernel>,
    cfg: HcaConfig,
    fabric: DspFabric,
    /// The checked warm-up compile of each kernel; later compiles must
    /// reproduce its digest.
    refs: Vec<Option<Checked>>,
}

/// One untraced round over the kernels.
struct Round {
    /// Compile milliseconds per kernel; `None` when skipped or failed.
    ms: Vec<Option<f64>>,
    checked: Vec<Option<Checked>>,
    /// Host-speed factor of the round (see [`calibrate`]).
    factor: f64,
    /// Time spent calibrating, milliseconds.
    calibration_ms: f64,
}

/// Compile every kernel once, each right after a calibration sample, and
/// check it after its timed window. With `refs`, kernels whose set-up
/// compile failed are skipped and the others must reproduce its digest.
fn plain_round(
    kernels: &[Kernel],
    fabric: &DspFabric,
    cfg: &HcaConfig,
    refs: Option<&[Option<Checked>]>,
    tally: &mut Tally,
) -> Round {
    let mut round = Round {
        ms: Vec::with_capacity(kernels.len()),
        checked: Vec::with_capacity(kernels.len()),
        factor: 1.0,
        calibration_ms: 0.0,
    };
    let mut samples = Vec::with_capacity(kernels.len());
    for (i, k) in kernels.iter().enumerate() {
        let reference = match refs.map(|r| r[i].as_ref()) {
            Some(None) => {
                round.ms.push(None);
                round.checked.push(None);
                continue;
            }
            Some(r) => r,
            None => None,
        };
        samples.push(calibrate::sample_ms());
        let t0 = Instant::now();
        let out = compile(k, fabric, cfg);
        let ms = ms_since(t0);
        let checked = tally.check(out.and_then(|c| {
            let sim = simulate(k, &c, fabric);
            check(k, &c, sim, reference)
        }));
        round.ms.push(checked.as_ref().map(|_| ms));
        round.checked.push(checked);
    }
    if !samples.is_empty() {
        round.factor = calibrate::factor(&samples);
        round.calibration_ms = samples.iter().sum();
    }
    round
}

/// Generate the inputs and run the checked warm-up round. Returns the
/// set-up and its calibrated duration in seconds.
fn setup(workload: &str, tally: &mut Tally) -> (Setup, f64) {
    let t0 = Instant::now();
    let (kernels, cfg) = kernels(workload);
    let fabric = DspFabric::standard(8, 8, 8);
    let warm = plain_round(&kernels, &fabric, &cfg, None, tally);
    let secs = (t0.elapsed().as_secs_f64() - warm.calibration_ms / 1e3) / warm.factor;
    let s = Setup {
        kernels,
        cfg,
        fabric,
        refs: warm.checked,
    };
    (s, secs)
}

/// Per-layer state of a traced run.
struct Traced {
    trace: Trace,
    obs: ObsTotals,
    ops: usize,
    stores_checked: usize,
    sim_failures: usize,
}

/// One traced operation: the same compile and check as an untraced one,
/// in spans, plus the `ddg.analysis` and level-0 probes. Returns the check
/// and the compile's own time (its three compile spans) in milliseconds.
fn traced_op(
    k: &Kernel,
    s: &Setup,
    reference: &Checked,
    t: &mut Traced,
) -> (Result<Checked, String>, f64) {
    let op = t.ops as u64;
    t.ops += 1;
    let trace = &mut t.trace;
    let root = trace.open("op", op, None);
    let analysis = trace.record("ddg.analysis", op, Some(root), || {
        DdgAnalysis::compute(&k.ddg)
    });
    let obs = Obs::enabled();
    let span = trace.open("core.run_hca", op, Some(root));
    let res = run_hca_obs(&k.ddg, &s.fabric, &s.cfg, &obs);
    let mut compile_us = trace.close(span);
    if let Some(m) = obs.finish() {
        t.obs.add(&m);
    }
    let out = res.map_err(|e| format!("{}: {e}", k.name)).and_then(|res| {
        let span = trace.open("sched.modulo", op, Some(root));
        let sched = modulo_schedule(&res.final_program, &s.fabric, res.mii.final_mii);
        compile_us += trace.close(span);
        let sched = sched.map_err(|e| format!("{}: {e}", k.name))?;
        let span = trace.open("sched.fold", op, Some(root));
        let folded = KernelSchedule::fold(&res.final_program, &s.fabric, &sched);
        compile_us += trace.close(span);
        Ok(Compiled { res, sched, folded })
    });
    if let Ok(a) = &analysis {
        probe_level0(&k.ddg, a, &s.fabric, &s.cfg, trace, op, root);
    }
    let checked = out.and_then(|c| {
        let sim = trace.record("sim.verify", op, Some(root), || simulate(k, &c, &s.fabric));
        if sim.is_err() {
            t.sim_failures += 1;
        }
        check(k, &c, sim, Some(reference))
    });
    t.trace.close(root);
    if let Ok(c) = &checked {
        t.stores_checked += c.stores_checked;
    }
    (checked, compile_us / 1e3)
}

pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let (s, secs) = setup(workload, &mut tally);
        setup_s.push(secs);
        state = Some(s);
    }
    let s = state.expect("at least one set-up");
    let n = s.kernels.len();

    // Per kernel: raw and calibrated milliseconds of untraced compiles, and
    // (traced run) raw milliseconds of traced ones.
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut calibrated: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut factors = Vec::new();
    let start = Instant::now();
    let mut t = Traced {
        trace: Trace::new(start),
        obs: ObsTotals::default(),
        ops: 0,
        stores_checked: 0,
        sim_failures: 0,
    };
    let mut rounds = 0;
    while opts.more_rounds(start, rounds) {
        if opts.traced_round(rounds) {
            for (i, k) in s.kernels.iter().enumerate() {
                // A kernel whose set-up compile failed is already counted.
                if let Some(reference) = &s.refs[i] {
                    let (checked, ms) = traced_op(k, &s, reference, &mut t);
                    if tally.check(checked).is_some() {
                        traced[i].push(ms);
                    }
                }
            }
        } else {
            let round = plain_round(&s.kernels, &s.fabric, &s.cfg, Some(&s.refs), &mut tally);
            for (i, ms) in round.ms.iter().enumerate() {
                if let Some(ms) = *ms {
                    raw[i].push(ms);
                    calibrated[i].push(ms / round.factor);
                }
            }
            factors.push(round.factor);
        }
        rounds += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();

    let names: Vec<&str> = s.kernels.iter().map(|k| k.name.as_str()).collect();
    let pooled = calibrated.concat();
    let mut notes = vec![
        format!("kernels: {}", names.join(" ")),
        format!(
            "{rounds} rounds in {measured_s:.1} s; {} untraced compiles, {} traced; \
             host-speed factor {:.3} (median of rounds)",
            pooled.len(),
            t.ops,
            median(&factors)
        ),
    ];
    let qualities: Vec<Quality> = s.refs.iter().flatten().map(|r| r.quality.clone()).collect();
    let metrics = if opts.trace {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (mut raw_sum, mut traced_sum) = (0.0, 0.0);
        for (p, q) in raw.iter().zip(&traced) {
            if !p.is_empty() && !q.is_empty() {
                raw_sum += mean(p);
                traced_sum += mean(q);
            }
        }
        notes.push(format!(
            "see.self_us is {:.1}% of the summed hca-core phase time",
            t.obs.see_share_pct()
        ));
        let mut m = layers::common(t.ops, &t.obs, &t.trace);
        let ops = t.ops.max(1) as f64;
        m.extend([
            (
                "sched.ii_excess",
                qualities.iter().map(|q| f64::from(q.ii_excess)).sum(),
            ),
            ("sim.stores_checked", t.stores_checked as f64 / ops),
            ("sim.mismatches", t.sim_failures as f64),
            ("trace_overhead_pct", 100.0 * (traced_sum / raw_sum - 1.0)),
        ]);
        m.extend(crate::serve::LAYER_METRICS.map(|name| (name, 0.0)));
        m
    } else {
        for ((name, samples), r) in names.iter().zip(&raw).zip(&s.refs) {
            if let Some(r) = r {
                let q = &r.quality;
                notes.push(format!(
                    "{name:<16} {:>9.3} ms raw median of {:>3} | MII {}/{} | {:.3} cycles/iter | {} recvs",
                    median(samples),
                    samples.len(),
                    q.final_mii,
                    q.theoretical_mii,
                    q.cycles as f64 / TRIP as f64,
                    q.recvs
                ));
            }
        }
        let medians: Vec<f64> = calibrated
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        let busy_s = pooled.iter().sum::<f64>() / 1e3;
        let mut m = BTreeMap::from([
            ("compile_ms_geomean", geomean(&medians)),
            ("compile_ms_p90", percentile(&pooled, 90.0)),
            ("compiles_per_s", pooled.len() as f64 / busy_s),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        quality_metrics(&qualities, &mut m);
        notes.push(format!(
            "compile_ms_p90 over {} samples; calibrated set-ups {}",
            pooled.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.3} s"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        m
    };
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        trace: opts.trace.then_some(t.trace),
    })
}
