//! The fuzz gauntlet: one random kernel through every check, and the
//! campaign driver that runs seeds in bulk, shrinks failures and writes
//! reproducers to disk.
//!
//! Per-seed stages, in order:
//!
//! 1. `run_hca` under [`ValidationLevel::Strict`] — any typed error fails;
//! 2. result invariants — complete placement, `final_mii ≥ theoretical`,
//!    legal coherency report;
//! 3. differential coherency — the production checker and the independent
//!    fixpoint checker must agree on every edge;
//! 4. flat-ICA oracle (≤ `max_nodes` small graphs) — the oracle optimum
//!    must be ≥ the theoretical bound, and HCA's `final_mii` must stay
//!    within the stated quality envelope of the flat optimum;
//! 5. apply/undo journal round-trip — bit-exact state restoration;
//! 6. determinism — a 1-thread and an N-thread run must agree on every
//!    placement, copy primitive and statistic.

use crate::gen::random_kernel;
use crate::journal::journal_roundtrip_check;
use crate::oracle::{flat_optimal_mii, OracleConfig, OracleVerdict};
use crate::reach::{coherency_violations_fixpoint, differential_coherency};
use hca_arch::DspFabric;
use hca_core::{run_hca, HcaConfig, HcaResult, PortfolioConfig, PortfolioMode};
use hca_ddg::Ddg;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which gauntlet stage rejected a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum CheckKind {
    /// `run_hca` returned a typed error (or panicked) under Strict.
    Run,
    /// A result invariant does not hold.
    Invariant,
    /// The two coherency implementations disagree on an edge.
    Differential,
    /// The flat-ICA oracle contradicts the result.
    Oracle,
    /// The apply/undo journal failed to restore a state bit-exactly.
    Journal,
    /// 1-thread and N-thread runs diverge.
    Determinism,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::Run => "run",
            CheckKind::Invariant => "invariant",
            CheckKind::Differential => "differential",
            CheckKind::Oracle => "oracle",
            CheckKind::Journal => "journal",
            CheckKind::Determinism => "determinism",
        };
        f.write_str(s)
    }
}

/// One gauntlet rejection.
#[derive(Clone, Debug)]
pub struct GauntletFailure {
    /// The stage that rejected the kernel.
    pub kind: CheckKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// Gauntlet knobs.
#[derive(Clone, Copy, Debug)]
pub struct GauntletConfig {
    /// Oracle search limits (graphs above `oracle.max_nodes` skip stage 4).
    pub oracle: OracleConfig,
    /// Quality envelope: require `final_mii ≤ factor · opt + slack`.
    pub quality_factor: u32,
    /// Additive slack of the quality envelope (absorbs receive/route
    /// overhead the optimistic oracle does not model).
    pub quality_slack: u32,
    /// Worker count of the N-thread determinism run.
    pub threads: usize,
    /// Sub-problem solver of every HCA run ([`HcaConfig::portfolio`]);
    /// beam-only by default.
    pub solver: PortfolioMode,
}

impl Default for GauntletConfig {
    fn default() -> Self {
        GauntletConfig {
            oracle: OracleConfig::default(),
            quality_factor: 3,
            quality_slack: 8,
            threads: 4,
            solver: PortfolioMode::BeamOnly,
        }
    }
}

/// What one clean gauntlet pass established.
#[derive(Clone, Copy, Debug, Default)]
pub struct GauntletReport {
    /// Oracle stage outcome: `None` when the graph was too large.
    pub oracle: Option<OracleVerdict>,
    /// HCA's final MII.
    pub final_mii: u32,
}

/// Compare the observable output of two runs field by field.
fn diff_results(a: &HcaResult, b: &HcaResult) -> Option<String> {
    if a.placement != b.placement {
        return Some("placements diverge".into());
    }
    if a.mii != b.mii {
        return Some(format!("MII reports diverge: {:?} vs {:?}", a.mii, b.mii));
    }
    if a.stats != b.stats {
        return Some(format!(
            "statistics diverge: {:?} vs {:?}",
            a.stats, b.stats
        ));
    }
    if a.final_program.placement != b.final_program.placement {
        return Some("final-program placements diverge".into());
    }
    if a.final_program.recv_nodes != b.final_program.recv_nodes {
        return Some("recv primitives diverge".into());
    }
    if a.final_program.route_nodes != b.final_program.route_nodes {
        return Some("route primitives diverge".into());
    }
    None
}

/// Run one kernel through the whole gauntlet. `seed` only re-seeds the
/// journal stage's RNG, so the check is reproducible per kernel.
pub fn gauntlet(
    ddg: &Ddg,
    fabric: &DspFabric,
    cfg: &GauntletConfig,
    seed: u64,
) -> Result<GauntletReport, GauntletFailure> {
    let fail = |kind, detail: String| Err(GauntletFailure { kind, detail });
    let hca_cfg = HcaConfig {
        portfolio: PortfolioConfig { mode: cfg.solver },
        ..HcaConfig::strict()
    };

    // 1. Strict HCA run (single-threaded for reproducibility; the
    //    determinism stage covers the parallel path).
    hca_par::set_thread_override(Some(1));
    let run = run_hca(ddg, fabric, &hca_cfg);
    hca_par::set_thread_override(None);
    let res = match run {
        Ok(r) => r,
        Err(e) => return fail(CheckKind::Run, format!("run_hca(Strict): {e}")),
    };

    // 2. Result invariants.
    if res.placement.len() != ddg.num_nodes() {
        return fail(
            CheckKind::Invariant,
            format!(
                "placement covers {} of {} nodes",
                res.placement.len(),
                ddg.num_nodes()
            ),
        );
    }
    if res.mii.final_mii < res.mii.theoretical {
        return fail(
            CheckKind::Invariant,
            format!(
                "final_mii {} below theoretical {}",
                res.mii.final_mii, res.mii.theoretical
            ),
        );
    }
    if !res.is_legal() {
        return fail(
            CheckKind::Invariant,
            format!("Strict run returned an illegal result: {:?}", res.coherency),
        );
    }

    // 3. Differential coherency (both checkers over every edge), plus the
    //    fixpoint checker's own verdict on the final topology.
    let place = res.placement.clone();
    let placement = move |n| place[&n];
    let disagreements = differential_coherency(fabric, &res.topology, ddg, &placement);
    if !disagreements.is_empty() {
        return fail(CheckKind::Differential, disagreements.join("; "));
    }
    let fx_violations = coherency_violations_fixpoint(fabric, &res.topology, ddg, &placement);
    if !fx_violations.is_empty() {
        return fail(
            CheckKind::Differential,
            format!("fixpoint checker reports undelivered values: {fx_violations:?}"),
        );
    }

    // 4. Flat-ICA oracle.
    let oracle = flat_optimal_mii(ddg, fabric, &cfg.oracle);
    if let Some(verdict) = oracle {
        let opt = verdict.mii();
        if opt < res.mii.theoretical {
            return fail(
                CheckKind::Oracle,
                format!(
                    "oracle optimum {opt} below theoretical bound {}",
                    res.mii.theoretical
                ),
            );
        }
        // Quality envelope. The oracle is exact only for `Exact`; an
        // `Upper` verdict can only make this check *more* lenient to HCA,
        // so it stays sound.
        let envelope = cfg.quality_factor * opt + cfg.quality_slack;
        if res.mii.final_mii > envelope {
            return fail(
                CheckKind::Oracle,
                format!(
                    "final_mii {} outside quality envelope {envelope} (flat optimum {opt}, {verdict:?})",
                    res.mii.final_mii
                ),
            );
        }
    }

    // 5. Journal round-trip.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    if let Err(e) = journal_roundtrip_check(ddg, 4, &mut rng) {
        return fail(CheckKind::Journal, e);
    }

    // 6. Thread-count determinism.
    hca_par::set_thread_override(Some(cfg.threads.max(2)));
    let par = run_hca(ddg, fabric, &hca_cfg);
    hca_par::set_thread_override(None);
    match par {
        Ok(par_res) => {
            if let Some(diff) = diff_results(&res, &par_res) {
                return fail(CheckKind::Determinism, diff);
            }
        }
        Err(e) => {
            return fail(
                CheckKind::Determinism,
                format!("parallel run failed where sequential succeeded: {e}"),
            );
        }
    }

    Ok(GauntletReport {
        oracle,
        final_mii: res.mii.final_mii,
    })
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of seeds to run.
    pub count: usize,
    /// First seed; seed *i* of the campaign is `base_seed + i`.
    pub base_seed: u64,
    /// Largest kernel the generator may emit.
    pub max_nodes: usize,
    /// Gauntlet knobs.
    pub gauntlet: GauntletConfig,
    /// Where shrunk reproducers are written (`None` disables writing).
    pub out_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            count: 500,
            base_seed: 1,
            max_nodes: 24,
            gauntlet: GauntletConfig::default(),
            out_dir: Some(PathBuf::from("fuzz-failures")),
        }
    }
}

/// One campaign failure, after shrinking.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// The failing seed.
    pub seed: u64,
    /// The stage that rejected it.
    pub kind: CheckKind,
    /// Evidence from the *shrunk* reproducer.
    pub detail: String,
    /// Node/edge size of the shrunk reproducer.
    pub shrunk_nodes: usize,
    /// Where the reproducer was written, when `out_dir` was set.
    pub path: Option<PathBuf>,
}

/// Aggregate campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Seeds run.
    pub runs: usize,
    /// Seeds whose oracle stage produced an exact optimum.
    pub oracle_exact: usize,
    /// Seeds whose oracle stage hit the step budget.
    pub oracle_upper: usize,
    /// Worst observed `final_mii / flat-optimum` ratio over oracle-checked
    /// seeds, as (final_mii, optimum).
    pub worst_ratio: Option<(u32, u32)>,
    /// Every failure, shrunk.
    pub failures: Vec<FailureRecord>,
}

/// JSON reproducer written next to the campaign.
#[derive(Serialize)]
struct Reproducer {
    seed: u64,
    kind: CheckKind,
    detail: String,
    ddg: Ddg,
}

/// Run `cfg.count` seeded kernels through the gauntlet, shrinking every
/// failure to a minimal reproducer (same stage still failing) and writing
/// it to `cfg.out_dir`.
pub fn run_campaign(fabric: &DspFabric, cfg: &CampaignConfig) -> CampaignSummary {
    let mut summary = CampaignSummary::default();
    for i in 0..cfg.count {
        let seed = cfg.base_seed + i as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let ddg = random_kernel(&mut rng, cfg.max_nodes);
        summary.runs += 1;
        match gauntlet(&ddg, fabric, &cfg.gauntlet, seed) {
            Ok(report) => {
                if let Some(verdict) = report.oracle {
                    match verdict {
                        OracleVerdict::Exact(_) => summary.oracle_exact += 1,
                        OracleVerdict::Upper(_) => summary.oracle_upper += 1,
                    }
                    let opt = verdict.mii().max(1);
                    let worse = match summary.worst_ratio {
                        None => true,
                        Some((m, o)) => {
                            u64::from(report.final_mii) * u64::from(o)
                                > u64::from(m) * u64::from(opt)
                        }
                    };
                    if worse {
                        summary.worst_ratio = Some((report.final_mii, opt));
                    }
                }
            }
            Err(failure) => {
                let kind = failure.kind;
                let fails = |g: &Ddg| match gauntlet(g, fabric, &cfg.gauntlet, seed) {
                    Ok(_) => false,
                    Err(f) => f.kind == kind,
                };
                let shrunk = crate::shrink::shrink(&ddg, &fails);
                let detail = match gauntlet(&shrunk, fabric, &cfg.gauntlet, seed) {
                    Err(f) => f.detail,
                    Ok(_) => failure.detail.clone(),
                };
                let path = cfg
                    .out_dir
                    .as_deref()
                    .and_then(|dir| write_reproducer(dir, seed, kind, &detail, &shrunk).ok());
                summary.failures.push(FailureRecord {
                    seed,
                    kind,
                    detail,
                    shrunk_nodes: shrunk.num_nodes(),
                    path,
                });
            }
        }
    }
    summary
}

/// Serialise one shrunk reproducer as JSON under `dir`.
fn write_reproducer(
    dir: &Path,
    seed: u64,
    kind: CheckKind,
    detail: &str,
    ddg: &Ddg,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("seed-{seed}-{kind}.json"));
    let body = serde_json::to_string_pretty(&Reproducer {
        seed,
        kind,
        detail: detail.to_string(),
        ddg: ddg.clone(),
    })
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, body + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the global thread override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn smoke_campaign_is_clean() {
        let _g = LOCK.lock().unwrap();
        // Debug-mode smoke: a small machine and few seeds keep this fast;
        // the CI fuzz job and the EXPERIMENTS campaign run the full-size
        // sweep in release mode.
        let fabric = DspFabric::two_level(4, 4, 4);
        let cfg = CampaignConfig {
            count: 10,
            base_seed: 100,
            max_nodes: 10,
            out_dir: None,
            ..CampaignConfig::default()
        };
        let summary = run_campaign(&fabric, &cfg);
        assert_eq!(summary.runs, 10);
        assert!(
            summary.failures.is_empty(),
            "failures: {:#?}",
            summary.failures
        );
        assert!(summary.oracle_exact > 0);
    }

    #[test]
    fn gauntlet_passes_on_a_fixed_kernel() {
        let _g = LOCK.lock().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let ddg = random_kernel(&mut rng, 8);
        let fabric = DspFabric::two_level(4, 4, 4);
        let report = gauntlet(&ddg, &fabric, &GauntletConfig::default(), 7)
            .unwrap_or_else(|f| panic!("{}: {}", f.kind, f.detail));
        assert!(report.final_mii >= 1);
    }
}
