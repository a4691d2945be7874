//! The exact-small never-worse guard replays the beam ladders its
//! exact-assisted run recorded instead of re-solving them (DESIGN.md §5k).
//! A replayed guard must still produce exactly what a clean beam-only run
//! produces: when the guard keeps the beam result, the exact-small compile
//! and a plain beam-only `run_hca` must share one solution digest, which
//! covers the placement, the MII report and the run statistics (including
//! `see_states`, so a replay that skipped the tiers a bound exit left out
//! fails here).

use hca_obs::{Obs, RunMetrics};
use hca_repro::arch::DspFabric;
use hca_repro::ddg::Ddg;
use hca_repro::hca::{run_hca, run_hca_obs, HcaConfig, PortfolioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn exact_small() -> HcaConfig {
    HcaConfig {
        portfolio: PortfolioConfig::exact_small(),
        ..HcaConfig::default()
    }
}

/// One observed exact-small compile: its solution digest and metrics.
fn compile_exact_small(name: &str, ddg: &Ddg, fabric: &DspFabric) -> (String, RunMetrics) {
    let res = run_hca_obs(ddg, fabric, &exact_small(), &Obs::enabled())
        .unwrap_or_else(|e| panic!("{name}: exact-small run failed: {e}"));
    let digest = hca_serve::summarise(name, ddg, &res).digest;
    (
        digest,
        res.metrics.expect("enabled observer snapshots metrics"),
    )
}

/// Kernels on which the guard keeps the beam result, so the exact-small
/// output *is* the replayed guard run's output.
#[test]
fn guard_kept_beam_results_match_a_clean_beam_only_run() {
    let cases = [
        (
            DspFabric::two_level(4, 4, 4),
            &[(20084, 16), (20233, 16), (20034, 24), (20166, 48)][..],
        ),
        (
            DspFabric::standard(8, 8, 8),
            &[(20136, 24), (20279, 24), (20087, 48)][..],
        ),
    ];
    for (fabric, seeds) in cases {
        for &(seed, max_nodes) in seeds {
            let name = format!(
                "seed {seed} (max {max_nodes} nodes, {} CNs)",
                fabric.num_cns()
            );
            let ddg = hca_repro::check::random_kernel(&mut StdRng::seed_from_u64(seed), max_nodes);
            let (digest, m) = compile_exact_small(&name, &ddg, &fabric);
            assert_eq!(
                m.counter("portfolio.guard_kept_beam"),
                Some(1),
                "{name}: the guard must keep the beam result: {:?}",
                m.counters
            );
            assert!(
                m.counter("portfolio.guard_replays").unwrap_or(0) > 0,
                "{name}: the guard replayed no ladder"
            );
            let beam = run_hca(&ddg, &fabric, &HcaConfig::default())
                .unwrap_or_else(|e| panic!("{name}: beam-only run failed: {e}"));
            assert_eq!(
                digest,
                hca_serve::summarise(&name, &ddg, &beam).digest,
                "{name}: the replayed guard's result differs from a clean beam-only run"
            );
        }
    }
}

/// On DSPstone kernels with exact wins the guard still runs, but replays
/// ladders instead of searching them again.
#[test]
fn guard_replays_ladders_on_dspstone_kernels() {
    let fabric = DspFabric::standard(8, 8, 8);
    for (name, ddg) in [
        ("fir8", hca_repro::kernels::dspstone::fir(8)),
        ("matvec8", hca_repro::kernels::dspstone::matvec_row(8)),
    ] {
        let (_, m) = compile_exact_small(name, &ddg, &fabric);
        assert_eq!(m.counter("portfolio.guard_runs"), Some(1), "{name}");
        assert!(
            m.counter("portfolio.guard_replays").unwrap_or(0) > 0,
            "{name}: the guard replayed no ladder: {:?}",
            m.counters
        );
    }
}
