//! Memoization transparency: the cross-sub-problem memo cache must be
//! invisible in every observable output.
//!
//! The memo key in `hca-core/src/memo.rs` is argued sound by construction
//! (it encodes everything the solver reads, up to a renumbering the solver
//! is equivariant under). This suite is the empirical referee: across a
//! fuzzed population of random kernels, a run with the cache enabled must
//! reproduce the cache-disabled run bit-for-bit — placements, MII report,
//! search statistics, final program and legality verdict.

use hca_repro::arch::DspFabric;
use hca_repro::check::gen::random_kernel;
use hca_repro::hca::{run_hca, HcaConfig, HcaResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serialises tests in this file: the thread override is process-global.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run_with_memo(
    ddg: &hca_repro::ddg::Ddg,
    fabric: &DspFabric,
    memo: bool,
) -> Result<HcaResult, String> {
    let config = HcaConfig {
        memo,
        ..HcaConfig::default()
    };
    run_hca(ddg, fabric, &config).map_err(|e| e.to_string())
}

/// Compare every observable field of two runs; panic with context on any
/// divergence. Wall-clock inside `SeeStats` is excluded the same way the
/// determinism suite excludes it: `step_time_ns` lengths must match but
/// values may differ — everything else in `stats` is compared exactly.
fn assert_equivalent(name: &str, on: &HcaResult, off: &HcaResult) {
    assert_eq!(on.placement, off.placement, "{name}: placements diverge");
    assert_eq!(on.mii, off.mii, "{name}: MII reports diverge");
    assert_eq!(on.stats, off.stats, "{name}: run statistics diverge");
    assert_eq!(
        on.final_program.placement, off.final_program.placement,
        "{name}: final-program placements diverge"
    );
    assert_eq!(
        on.final_program.recv_nodes, off.final_program.recv_nodes,
        "{name}: copy (recv) primitives diverge"
    );
    assert_eq!(
        on.final_program.route_nodes, off.final_program.route_nodes,
        "{name}: route primitives diverge"
    );
    assert_eq!(
        on.is_legal(),
        off.is_legal(),
        "{name}: legality verdicts diverge"
    );
}

/// The headline gate from the issue: ≥100 fuzzed kernels, memo on vs. off,
/// bit-identical results (or the identical typed error).
#[test]
fn memo_on_off_bit_equality_under_fuzz() {
    let _g = OVERRIDE_LOCK.lock().unwrap();
    // Single-threaded runs keep each comparison reproducible; the
    // determinism suite separately pins thread-count invariance.
    hca_par::set_thread_override(Some(1));
    let fabric = DspFabric::standard(8, 8, 8);
    for seed in 0..110u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE00 + seed);
        let ddg = random_kernel(&mut rng, 48);
        let name = format!("seed {seed} ({} nodes)", ddg.num_nodes());
        let on = run_with_memo(&ddg, &fabric, true);
        let off = run_with_memo(&ddg, &fabric, false);
        match (on, off) {
            (Ok(on), Ok(off)) => assert_equivalent(&name, &on, &off),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{name}: error messages diverge");
            }
            (on, off) => panic!(
                "{name}: outcome kinds diverge (memo-on ok={}, memo-off ok={})",
                on.is_ok(),
                off.is_ok()
            ),
        }
    }
    hca_par::set_thread_override(None);
}

/// Memo transparency must also hold under the parallel driver, where hit
/// and miss counts vary with scheduling but results must not.
#[test]
fn memo_is_transparent_under_parallel_table1() {
    let _g = OVERRIDE_LOCK.lock().unwrap();
    hca_par::set_thread_override(Some(4));
    let fabric = DspFabric::standard(8, 8, 8);
    for kernel in hca_repro::kernels::table1_kernels() {
        let on = run_with_memo(&kernel.ddg, &fabric, true)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let off = run_with_memo(&kernel.ddg, &fabric, false)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert_equivalent(kernel.name, &on, &off);
        assert!(on.is_legal(), "{}: memoized run illegal", kernel.name);
    }
    hca_par::set_thread_override(None);
}

/// Byte-budget eviction must be as invisible as the cache itself: a run
/// whose cache is squeezed hard enough to evict mid-run must still
/// reproduce the uncached run bit-for-bit — eviction may only ever cost
/// time, never change an answer.
#[test]
fn eviction_under_a_tiny_budget_never_changes_results() {
    use hca_repro::hca::{run_hca_shared, Memo};
    use hca_repro::kernels;

    let _g = OVERRIDE_LOCK.lock().unwrap();
    hca_par::set_thread_override(Some(1));
    let fabric = DspFabric::standard(8, 8, 8);
    let config = HcaConfig::default();
    let obs = hca_obs::Obs::disabled();

    // A workload big enough to fill a cache: the Table-1 kernels plus a
    // synthetic DAG, run back-to-back against one shared memo.
    let mut mix: Vec<(String, hca_repro::ddg::Ddg)> = kernels::table1_kernels()
        .into_iter()
        .map(|k| (k.name.to_string(), k.ddg))
        .collect();
    for (n, ddg) in kernels::synthetic::scaling_family(&[128], 0xB5E7) {
        mix.push((format!("synthetic{n}"), ddg));
    }

    // Pass 1: unbounded cache measures the workload's natural footprint.
    let roomy = Memo::new(Memo::DEFAULT_BUDGET);
    let reference: Vec<HcaResult> = mix
        .iter()
        .map(|(name, ddg)| {
            run_hca_shared(ddg, &fabric, &config, &obs, &roomy)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();
    let footprint = roomy.approx_bytes();
    assert!(footprint > 0, "workload must populate the cache");

    // Pass 2: a quarter of the footprint forces eviction churn mid-run.
    let tiny = Memo::new(footprint / 4);
    for ((name, ddg), want) in mix.iter().zip(&reference) {
        let got = run_hca_shared(ddg, &fabric, &config, &obs, &tiny)
            .unwrap_or_else(|e| panic!("{name} (tiny budget): {e}"));
        assert_equivalent(&format!("{name} under eviction"), &got, want);
    }
    assert!(
        tiny.approx_bytes() <= tiny.budget(),
        "cache must respect its byte budget: {} > {}",
        tiny.approx_bytes(),
        tiny.budget()
    );
    assert!(
        tiny.evictions() > 0 || tiny.insertions() < roomy.insertions(),
        "a quarter-footprint budget must visibly constrain the cache \
         (evictions {} / insertions {} vs roomy {})",
        tiny.evictions(),
        tiny.insertions(),
        roomy.insertions()
    );
    hca_par::set_thread_override(None);
}

/// A cache handed to `run_hca_shared` admits a sub-problem on its second
/// solve only, so a stream of never-repeating kernels leaves next to
/// nothing behind: most misses are deferred, not inserted.
#[test]
fn handed_in_cache_keeps_one_off_kernels_out() {
    use hca_repro::hca::{run_hca_shared, Memo};

    let _g = OVERRIDE_LOCK.lock().unwrap();
    let fabric = DspFabric::standard(8, 8, 8);
    let config = HcaConfig::default();
    let obs = hca_obs::Obs::disabled();
    let memo = Memo::new(Memo::DEFAULT_BUDGET);
    for seed in 0..20u64 {
        let kernel = format!("synthetic:48:{seed}");
        let (_, ddg) = hca_serve::resolve_kernel(&kernel).unwrap();
        run_hca_shared(&ddg, &fabric, &config, &obs, &memo)
            .unwrap_or_else(|e| panic!("{kernel}: {e}"));
    }
    assert!(
        memo.entries() * 4 <= memo.misses() as usize,
        "one-off kernels filled the cache: {} entries for {} misses ({} deferred)",
        memo.entries(),
        memo.misses(),
        memo.deferred()
    );
    assert!(memo.deferred() > 0);
}

/// A repeated kernel is cached from its second solve on: the third call is
/// answered by one root hit, and every call serves the direct run's bits.
#[test]
fn handed_in_cache_answers_the_third_call_at_the_root() {
    use hca_repro::hca::{run_hca_shared, Memo};

    let _g = OVERRIDE_LOCK.lock().unwrap();
    let fabric = DspFabric::standard(8, 8, 8);
    let config = HcaConfig::default();
    let obs = hca_obs::Obs::disabled();
    let (name, ddg) = hca_serve::resolve_kernel("fir2dim").unwrap();
    let direct = run_hca(&ddg, &fabric, &config).unwrap();
    let want = hca_serve::summarise(&name, &ddg, &direct).digest;

    let memo = Memo::new(Memo::DEFAULT_BUDGET);
    let mut counts = Vec::new();
    for call in 1..=3 {
        let res = run_hca_shared(&ddg, &fabric, &config, &obs, &memo)
            .unwrap_or_else(|e| panic!("call {call}: {e}"));
        let got = hca_serve::summarise(&name, &ddg, &res).digest;
        assert_eq!(got, want, "call {call}: digest diverges from run_hca");
        counts.push((memo.hits(), memo.misses()));
    }
    let (hits2, misses2) = counts[1];
    let (hits3, misses3) = counts[2];
    assert_eq!(
        (hits3 - hits2, misses3 - misses2),
        (1, 0),
        "the third call must be exactly one root hit (counts after each call: {counts:?})"
    );
}
