//! Equivalence of the run-level passes against independent references:
//!
//! * the coherency checker's one-propagation-per-value pass against the
//!   round-robin fixpoint oracle of `hca-check`, edge for edge, on real
//!   topologies and on copies with one wire removed;
//! * the per-SCC MIIRec search against a whole-graph binary search with
//!   Bellman–Ford probes, on input DDGs and on final programs, including
//!   graphs that must fail with `ZeroDistanceCycle`.
//!
//! Corpus: the 12 built-in kernels and fuzz kernels
//! (`random_kernel(seed, 48)`), each compiled once with the default
//! configuration on the standard machine.

use hca_repro::arch::{CnId, DspFabric, Topology};
use hca_repro::check::{coherency_violations_fixpoint, random_kernel};
use hca_repro::ddg::analysis::{self, DdgError};
use hca_repro::ddg::{Ddg, NodeId, Opcode};
use hca_repro::hca::coherency::{check_coherency, value_delivered};
use hca_repro::hca::{run_hca, HcaConfig, HcaResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Fuzz seeds compiled for the corpus.
const COMPILED_SEEDS: u64 = 150;

/// Fuzz kernels whose input DDG alone feeds the MIIRec comparison.
const INPUT_SEEDS: u64 = 300;

/// Wire-removed copies checked per compiled kernel.
const BROKEN_COPIES: usize = 4;

struct Compiled {
    name: String,
    ddg: Ddg,
    res: HcaResult,
}

fn fabric() -> DspFabric {
    DspFabric::standard(8, 8, 8)
}

/// Every built-in kernel and the first [`COMPILED_SEEDS`] fuzz seeds,
/// compiled once per test binary.
fn corpus() -> &'static [Compiled] {
    static CORPUS: OnceLock<Vec<Compiled>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let names = hca_repro::kernels::TABLE1_NAMES
            .iter()
            .chain(&hca_repro::kernels::DSPSTONE_NAMES);
        let builtins = names.map(|&name| {
            let ddg = hca_repro::kernels::builtin(name).expect("built-in name");
            (name.to_string(), ddg)
        });
        let fuzz = (0..COMPILED_SEEDS).map(|seed| {
            let ddg = random_kernel(&mut StdRng::seed_from_u64(seed), 48);
            (format!("fuzz seed {seed}"), ddg)
        });
        builtins
            .chain(fuzz)
            .map(|(name, ddg)| {
                let res = run_hca(&ddg, &fabric(), &HcaConfig::default())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                Compiled { name, ddg, res }
            })
            .collect()
    })
}

/// `topo` with one wire, picked by `rng`, removed; `None` when it has none.
fn without_one_wire(topo: &Topology, rng: &mut StdRng) -> Option<Topology> {
    let mut wires: Vec<(Vec<usize>, usize)> = topo
        .iter()
        .flat_map(|(path, g)| (0..g.wires.len()).map(move |i| (path.clone(), i)))
        .collect();
    if wires.is_empty() {
        return None;
    }
    // Group iteration order is a hash order: sort before picking.
    wires.sort();
    let (path, i) = wires[rng.gen_range(0..wires.len())].clone();
    let mut broken = topo.clone();
    broken.group_mut(&path).wires.remove(i);
    Some(broken)
}

/// The checker and the oracle agree on `topo`: the same violations in the
/// same order, and the same delivery verdict on every cross-CN edge (the
/// oracle's verdict on an edge is whether its violations list it).
/// Returns the number of violations.
fn assert_checkers_agree(c: &Compiled, topo: &Topology, what: &str) -> usize {
    let f = fabric();
    let place = |n: NodeId| c.res.placement[&n];
    let report = check_coherency(&f, topo, &c.ddg, &place);
    let got: Vec<(u32, CnId, CnId)> = report
        .violations
        .iter()
        .map(|v| (v.edge.0, v.src, v.dst))
        .collect();
    let want: Vec<(u32, CnId, CnId)> = coherency_violations_fixpoint(&f, topo, &c.ddg, &place)
        .into_iter()
        .map(|(e, src, dst)| (e.0, src, dst))
        .collect();
    assert_eq!(got, want, "{}, {what}: violations differ", c.name);
    for (eid, e) in c.ddg.edge_ids().zip(c.ddg.edges()) {
        let (cu, cw) = (place(e.src), place(e.dst));
        if cu == cw || c.ddg.node(e.src).op == Opcode::Const {
            continue;
        }
        let fixpoint = !want.iter().any(|v| v.0 == eid.0);
        assert_eq!(
            value_delivered(&f, topo, e.src, cu, cw),
            fixpoint,
            "{}, {what}: value {} {cu} -> {cw}",
            c.name,
            e.src
        );
    }
    got.len()
}

#[test]
fn coherency_matches_the_fixpoint_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let (mut topologies, mut violations) = (0, 0);
    for c in corpus() {
        assert!(c.res.is_legal(), "{}: illegal compile", c.name);
        assert_eq!(
            assert_checkers_agree(c, &c.res.topology, "real topology"),
            0
        );
        topologies += 1;
        for copy in 0..BROKEN_COPIES {
            let Some(broken) = without_one_wire(&c.res.topology, &mut rng) else {
                break;
            };
            violations += assert_checkers_agree(c, &broken, &format!("broken copy {copy}"));
            topologies += 1;
        }
    }
    // Removing a wire must break something somewhere, or the broken copies
    // test nothing.
    assert!(topologies > 700, "{topologies} topologies checked");
    assert!(
        violations > 100,
        "only {violations} violations over the broken copies"
    );
}

/// The whole-graph search the per-SCC one replaced: binary search of II
/// over `[1, Σ latency + 1]`, each probe a Bellman–Ford over every edge.
fn whole_graph_mii_rec(ddg: &Ddg) -> Result<u32, DdgError> {
    let n = ddg.num_nodes();
    // A positive cycle keeps relaxing past n rounds.
    let positive_cycle = |ii: i64| {
        if n == 0 {
            return false;
        }
        let mut dist = vec![0i64; n];
        for _ in 0..n {
            let mut changed = false;
            for e in ddg.edges() {
                let cand = dist[e.src.index()] + i64::from(e.latency) - ii * i64::from(e.distance);
                if cand > dist[e.dst.index()] {
                    dist[e.dst.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        true
    };
    let total: i64 = ddg.edges().iter().map(|e| i64::from(e.latency)).sum();
    if positive_cycle(total + 1) {
        return Err(DdgError::ZeroDistanceCycle);
    }
    let (mut lo, mut hi) = (1i64, total + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if positive_cycle(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(u32::try_from(lo).expect("MII fits u32"))
}

fn assert_mii_rec_agrees(ddg: &Ddg, what: &str) -> Result<u32, DdgError> {
    let want = whole_graph_mii_rec(ddg);
    assert_eq!(analysis::mii_rec(ddg), want, "{what}");
    want
}

#[test]
fn mii_rec_per_scc_matches_whole_graph_search() {
    for c in corpus() {
        assert_mii_rec_agrees(&c.ddg, &format!("{} input", c.name)).expect("analysable input");
        assert_mii_rec_agrees(&c.res.final_program.ddg, &format!("{} final", c.name))
            .expect("schedulable final program");
    }
    let (mut larger, mut zero_distance) = (0, 0);
    for seed in 0..INPUT_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ddg = random_kernel(&mut rng, 48);
        assert_mii_rec_agrees(&ddg, &format!("fuzz seed {seed}")).expect("analysable");
        let n = ddg.num_nodes() as u32;
        // Extra recurrences merge cycles into larger SCCs.
        let mut merged = ddg.clone();
        for _ in 0..3 {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            merged.add_edge(
                NodeId(a),
                NodeId(b),
                rng.gen_range(0..9),
                rng.gen_range(1..4),
            );
        }
        if assert_mii_rec_agrees(&merged, &format!("fuzz seed {seed} + recurrences")).is_ok() {
            larger += 1;
        }
        // Closing an intra-iteration edge backwards with distance 0 makes a
        // cycle no II satisfies when its latency is positive.
        let flow: Vec<_> = ddg.edges().iter().filter(|e| e.distance == 0).collect();
        if let Some(e) = flow.get(rng.gen_range(0..flow.len().max(1))) {
            let mut closed = ddg.clone();
            closed.add_edge(e.dst, e.src, rng.gen_range(0..2), 0);
            let what = format!("fuzz seed {seed} + zero-distance back edge");
            if assert_mii_rec_agrees(&closed, &what).is_err() {
                zero_distance += 1;
            }
        }
    }
    assert!(larger > 100, "only {larger} merged graphs were analysable");
    assert!(
        zero_distance > 100,
        "only {zero_distance} graphs hit ZeroDistanceCycle"
    );
}
