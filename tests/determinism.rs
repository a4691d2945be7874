//! Thread-count invariance of the whole pipeline.
//!
//! The `hca-par` pool guarantees results are merged in input order, and the
//! driver folds escalation tiers in tier order and merges siblings in
//! member order, so scheduling decides only *who* computes, never *what*
//! comes out (each SEE run steps its beam on one thread). These tests pin
//! that contract: a full `table1` run at pool widths 1, 2 and 4 must agree
//! on every assignment, every copy primitive, the final MII, and the
//! search statistics (timing excluded — wall-clock is the one thing
//! allowed to differ). Width 2 leaves a single helper permit for nested
//! maps to compete for.

use hca_repro::arch::DspFabric;
use hca_repro::hca::{run_hca, HcaConfig, HcaResult};
use hca_repro::see::{See, SeeConfig};

/// Serialises tests in this file: the thread override is process-global.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run the full pipeline on every Table-1 kernel at a given pool width.
fn run_table1(threads: usize) -> Vec<(&'static str, HcaResult)> {
    hca_par::set_thread_override(Some(threads));
    let fabric = DspFabric::standard(8, 8, 8);
    let out = hca_repro::kernels::table1_kernels()
        .into_iter()
        .map(|kernel| {
            let res = run_hca(&kernel.ddg, &fabric, &HcaConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            (kernel.name, res)
        })
        .collect();
    hca_par::set_thread_override(None);
    out
}

#[test]
fn table1_pipeline_is_thread_count_invariant() {
    let _g = OVERRIDE_LOCK.lock().unwrap();
    let seq = run_table1(1);
    for width in [2, 4] {
        let par = run_table1(width);
        for ((name, a), (_, b)) in seq.iter().zip(par.iter()) {
            let at = format!("{name} at width {width}");
            assert_eq!(a.placement, b.placement, "{at}: placements diverge");
            assert_eq!(a.mii, b.mii, "{at}: MII reports diverge");
            assert_eq!(a.stats, b.stats, "{at}: run statistics diverge");
            assert_eq!(
                a.final_program.placement, b.final_program.placement,
                "{at}: final-program placements diverge"
            );
            assert_eq!(
                a.final_program.recv_nodes, b.final_program.recv_nodes,
                "{at}: copy (recv) primitives diverge"
            );
            assert_eq!(
                a.final_program.route_nodes, b.final_program.route_nodes,
                "{at}: route primitives diverge"
            );
            assert!(a.is_legal(), "{name}: sequential run illegal");
            assert!(b.is_legal(), "{at}: parallel run illegal");
        }
    }
}

/// Exact-small ladders start all their tiers at once and cancel the tiers
/// above a proven exit, so which tiers run — and how far — depends on
/// timing above one thread; beam-only ladders run every tier, in whatever
/// order the pool takes them. The fold must not care: under both solver
/// modes, fir2dim and the DSPstone kernels must agree at widths 1, 2 and 4
/// on every output bit and on the fold's portfolio and SEE counters.
/// Speculation is the one thing allowed to differ, and on one thread there
/// is none.
#[test]
fn exact_small_pipeline_is_thread_count_invariant() {
    use hca_repro::hca::{run_hca_obs, PortfolioConfig};
    const FOLDED: [&str; 6] = [
        "portfolio.bound_exits",
        "portfolio.exact_runs",
        "portfolio.guard_runs",
        "portfolio.guard_replays",
        "see.steps",
        "see.states_explored",
    ];
    let _g = OVERRIDE_LOCK.lock().unwrap();
    let fabric = DspFabric::standard(8, 8, 8);
    let exact_small = HcaConfig {
        portfolio: PortfolioConfig::exact_small(),
        ..HcaConfig::default()
    };
    for (mode, config) in [
        ("beam-only", HcaConfig::default()),
        ("exact-small", exact_small),
    ] {
        let kernels = std::iter::once("fir2dim").chain(hca_repro::kernels::DSPSTONE_NAMES);
        for name in kernels {
            let ddg = hca_repro::kernels::builtin(name).expect("built-in kernel");
            let runs: Vec<(usize, HcaResult)> = [1, 2, 4]
                .into_iter()
                .map(|width| {
                    hca_par::set_thread_override(Some(width));
                    let res = run_hca_obs(&ddg, &fabric, &config, &hca_obs::Obs::enabled());
                    hca_par::set_thread_override(None);
                    (
                        width,
                        res.unwrap_or_else(|e| panic!("{name} {mode} at width {width}: {e}")),
                    )
                })
                .collect();
            let (_, a) = &runs[0];
            let counter =
                |r: &HcaResult, c: &str| r.metrics.as_ref().and_then(|m| m.counter(c)).unwrap_or(0);
            assert_eq!(
                counter(a, "portfolio.discarded_steps"),
                0,
                "{name} {mode}: one thread discarded speculative steps"
            );
            assert!(a.is_legal(), "{name} {mode}: sequential run illegal");
            assert!(counter(a, "see.steps") > 0, "{name} {mode}: no SEE steps");
            for (width, b) in &runs[1..] {
                let at = format!("{name} {mode} at width {width}");
                assert_eq!(a.placement, b.placement, "{at}: placements diverge");
                assert_eq!(a.mii, b.mii, "{at}: MII reports diverge");
                assert_eq!(a.stats, b.stats, "{at}: run statistics diverge");
                assert_eq!(
                    a.final_program.placement, b.final_program.placement,
                    "{at}: final-program placements diverge"
                );
                assert_eq!(
                    a.final_program.recv_nodes, b.final_program.recv_nodes,
                    "{at}: copy (recv) primitives diverge"
                );
                assert_eq!(
                    a.final_program.route_nodes, b.final_program.route_nodes,
                    "{at}: route primitives diverge"
                );
                for c in FOLDED {
                    assert_eq!(counter(a, c), counter(b, c), "{at}: counter {c} diverges");
                }
            }
        }
    }
}

#[test]
fn see_stats_accounting_holds() {
    use hca_repro::arch::ResourceTable;
    use hca_repro::ddg::analysis::DdgAnalysis;
    use hca_repro::pg::{ArchConstraints, Pg};

    let constraints = ArchConstraints {
        max_in_neighbors: 4,
        max_out_neighbors: None,
        out_node_max_in: 1,
        copy_latency: 1,
    };
    for kernel in hca_repro::kernels::table1_kernels() {
        let analysis = DdgAnalysis::compute(&kernel.ddg).unwrap();
        let pg = Pg::complete(8, ResourceTable::of_cns(8));
        let see = See::new(
            &kernel.ddg,
            &analysis,
            &pg,
            constraints,
            SeeConfig::default(),
        );
        let stats = see
            .run(None)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name))
            .stats;
        // Every scored candidate is either pruned or survives into a
        // beam — the delta-state rework must not break this accounting.
        // (`beam_occupancy_sum` is the exact running total; the vector
        // is a bounded sample of it.)
        assert_eq!(
            stats.states_explored,
            stats.states_pruned + stats.beam_occupancy_sum,
            "{}: explored != pruned + Σ occupancy",
            kernel.name
        );
        // The scorer is mutation-free: reintroducing a per-candidate state
        // clone in the hot loop must fail here, not show up as a perf cliff.
        assert_eq!(
            stats.state_clones, 0,
            "{}: trial clones in the hot loop",
            kernel.name
        );
    }
}

/// A result served by the `hca serve` daemon must be bit-identical to a
/// direct `run_hca` call — cache cold *and* cache hot, in both solver
/// modes. The protocol digest covers the sorted placement, the final
/// program's placement, the full MII report and the search statistics, so
/// matching digests pin matching bits. The exact-small pass runs fir2dim
/// and the DSPstone kernels, where exact wins and guard re-runs happen.
#[test]
fn served_results_match_direct_runs_cold_and_hot() {
    let _g = OVERRIDE_LOCK.lock().unwrap();
    let table1: Vec<&str> = hca_repro::kernels::table1_kernels()
        .iter()
        .map(|k| k.name)
        .collect();
    assert_served_matches_direct(HcaConfig::default(), &table1);
    let exact_small = HcaConfig {
        portfolio: hca_repro::hca::PortfolioConfig::exact_small(),
        ..HcaConfig::default()
    };
    assert_served_matches_direct(
        exact_small,
        &[
            "fir2dim",
            "fir8",
            "biquad",
            "matvec8",
            "dot_product",
            "n_real_updates",
            "convolution",
            "lms",
            "matrix1x3",
        ],
    );
}

fn assert_served_matches_direct(hca: HcaConfig, kernels: &[&str]) {
    use hca_serve::{Client, CompileSpec, Server, ServerConfig};

    let fabric = DspFabric::standard(8, 8, 8);
    let mode = hca.portfolio.mode;

    // Direct reference digests, no daemon involved.
    let direct: Vec<(&str, String)> = kernels
        .iter()
        .map(|&name| {
            let (_, ddg) = hca_serve::resolve_kernel(name).unwrap();
            let res = run_hca(&ddg, &fabric, &hca).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, hca_serve::summarise(name, &ddg, &res).digest)
        })
        .collect();

    let server = Server::bind(ServerConfig {
        hca,
        ..ServerConfig::default()
    })
    .expect("bind serve daemon");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("serve daemon run"));
    let mut client = Client::connect_tcp(&addr).expect("connect to serve daemon");

    // Two passes: the first populates the shared cache (all misses), the
    // second must be served from it — and both must equal the direct run.
    for pass in ["cold", "hot"] {
        for (name, want_digest) in &direct {
            let served = client
                .compile(CompileSpec {
                    kernel: Some((*name).to_string()),
                    ..CompileSpec::default()
                })
                .unwrap_or_else(|e| panic!("{name} ({pass}, {mode:?}): serve failed: {e}"));
            assert_eq!(
                &served.digest, want_digest,
                "{name}: {pass} served digest diverges from the direct run ({mode:?})"
            );
            assert!(
                served.legal,
                "{name}: {pass} served result illegal ({mode:?})"
            );
        }
    }
    let stats = client.stats().expect("serve stats");
    assert!(
        stats.memo_hits > 0,
        "hot pass must hit the shared cache ({mode:?}): {stats:?}"
    );
    client.shutdown().expect("serve shutdown");
    daemon.join().expect("serve daemon thread");
}

/// Hammering one shared, sharded memo from many OS threads at once must
/// not change a single output bit: every concurrent run of a kernel must
/// equal the sequential reference run of that kernel.
#[test]
fn shared_memo_is_deterministic_under_concurrent_hammering() {
    use hca_repro::hca::{run_hca_shared, Memo};
    use hca_repro::kernels;
    use std::sync::Arc;

    let _g = OVERRIDE_LOCK.lock().unwrap();
    let fabric = DspFabric::standard(8, 8, 8);
    let config = HcaConfig::default();
    let obs = hca_obs::Obs::disabled();

    // A near-duplicate mix: repeats guarantee cross-thread cache traffic.
    let mix: Vec<(String, hca_repro::ddg::Ddg)> = kernels::table1_kernels()
        .into_iter()
        .map(|k| (k.name.to_string(), k.ddg))
        .chain([
            ("biquad".to_string(), kernels::dspstone::biquad()),
            ("fir8".to_string(), kernels::dspstone::fir(8)),
        ])
        .collect();

    // Sequential reference, its own private cache.
    let reference: Vec<HcaResult> = {
        let memo = Memo::new(Memo::DEFAULT_BUDGET);
        mix.iter()
            .map(|(name, ddg)| {
                run_hca_shared(ddg, &fabric, &config, &obs, &memo)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
            .collect()
    };

    // 8 threads × the whole mix, all against ONE shared cache.
    let shared = Arc::new(Memo::new(Memo::DEFAULT_BUDGET));
    let mix = Arc::new(mix);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let shared = Arc::clone(&shared);
            let mix = Arc::clone(&mix);
            let fabric = fabric.clone();
            std::thread::spawn(move || -> Vec<HcaResult> {
                let obs = hca_obs::Obs::disabled();
                mix.iter()
                    // Stagger starting points so threads collide on
                    // *different* kernels at any instant.
                    .cycle()
                    .skip(t % mix.len())
                    .take(mix.len())
                    .map(|(name, ddg)| {
                        run_hca_shared(ddg, &fabric, &config, &obs, &shared)
                            .unwrap_or_else(|e| panic!("thread {t} {name}: {e}"))
                    })
                    .collect()
            })
        })
        .collect();

    for (t, h) in handles.into_iter().enumerate() {
        let results = h.join().expect("hammer thread");
        for (i, res) in results.into_iter().enumerate() {
            let slot = (t + i) % mix.len();
            let (name, _) = &mix[slot];
            let want = &reference[slot];
            assert_eq!(
                res.placement, want.placement,
                "thread {t} {name}: placement diverges from sequential"
            );
            assert_eq!(res.mii, want.mii, "thread {t} {name}: MII diverges");
            assert_eq!(res.stats, want.stats, "thread {t} {name}: stats diverge");
            assert_eq!(
                res.final_program.placement, want.final_program.placement,
                "thread {t} {name}: final program diverges"
            );
        }
    }
    assert!(
        shared.hits() > 0,
        "concurrent hammering must produce cache hits"
    );
}
