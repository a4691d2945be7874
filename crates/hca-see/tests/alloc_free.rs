//! The SEE scoring loop performs no heap allocation when the DDG and PG
//! lists fit their inline capacities: building a [`NodeView`], scoring
//! every candidate with [`score_if_assignable`] and filtering the
//! [`CandList`] all run on inline `SmallVec` storage. A whole [`See::run`]
//! still allocates (per-step vectors, survivor materialisation), but less
//! than once per explored state.
//!
//! A counting global allocator measures this. Counts are per thread, so
//! tests running in parallel in this binary cannot pollute each other.
//!
//! [`NodeView`]: hca_see::NodeView

use hca_arch::ResourceTable;
use hca_ddg::{Ddg, DdgAnalysis, DdgBuilder, NodeId, Opcode};
use hca_pg::{ArchConstraints, Pg};
use hca_see::filters::CandidateFilter;
use hca_see::statics::PgStatics;
use hca_see::{
    node_view, score_if_assignable, CandList, CostWeights, PartialState, See, SeeConfig, SeeContext,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to [`System`], counting allocations made on the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn constraints() -> ArchConstraints {
    ArchConstraints {
        max_in_neighbors: 3,
        max_out_neighbors: None,
        out_node_max_in: 1,
        copy_latency: 1,
    }
}

/// `lanes` parallel load → (mul, add) ladders of `depth` rungs, each rung
/// also reading its neighbour lane, with a loop-carried accumulator per
/// lane. Every node has at most 3 operands and 4 users, within the DDG's
/// inline adjacency capacity (4).
fn ladder(lanes: usize, depth: usize) -> Ddg {
    let mut b = DdgBuilder::default();
    let mut row: Vec<NodeId> = (0..lanes).map(|_| b.node(Opcode::Load)).collect();
    for _ in 0..depth {
        let next: Vec<NodeId> = (0..lanes)
            .map(|l| {
                let m = b.op_with(Opcode::Mul, &[row[l], row[(l + 1) % lanes]]);
                b.op_with(Opcode::Add, &[m, row[l]])
            })
            .collect();
        row = next;
    }
    for (l, &v) in row.iter().enumerate() {
        let acc = b.op_with(Opcode::Add, &[v]);
        b.carried(acc, acc, 1);
        if l % 2 == 0 {
            b.op_with(Opcode::Store, &[acc]);
        }
    }
    b.finish()
}

#[test]
fn node_view_scoring_and_candidate_filter_do_not_allocate() {
    let ddg = ladder(4, 4);
    let an = DdgAnalysis::compute(&ddg).unwrap();
    // Four clusters: at most 4 candidates per node (CandList holds 8) and 3
    // potential neighbours per cluster (the PG lists hold 8).
    let pg = Pg::complete(4, ResourceTable::of_cns(2));
    let ctx = SeeContext {
        ddg: &ddg,
        analysis: &an,
        pg: &pg,
        constraints: constraints(),
        weights: CostWeights::default(),
        issue_cap: None,
        statics: PgStatics::build(&pg),
    };
    let filter = CandidateFilter::default();
    let mut st = PartialState::initial(&ctx, &[]);
    let (mut scored, mut counted) = (0usize, 0u64);
    // Greedy placement in topological order, so later nodes see assigned
    // producers and consumers and existing copies on their arcs. Only the
    // scoring loop is counted; `apply_assign` (outside it) may allocate.
    for n in an.topo.iter().copied() {
        let before = allocs();
        let view = node_view(&ctx, &st, n);
        let mut cands = CandList::new();
        for c in view.candidates() {
            if let Some(cost) = score_if_assignable(&ctx, &st, &view, n, c) {
                cands.push((c, cost));
            }
        }
        scored += cands.len();
        filter.apply(&mut cands);
        counted += allocs() - before;
        let &(best, _) = cands.first().expect("every ladder node has a candidate");
        st.apply_assign(&ctx, n, best);
    }
    assert!(
        scored > ddg.num_nodes(),
        "fixture scored only {scored} candidates"
    );
    assert_eq!(
        counted, 0,
        "the scoring loop allocated {counted} times over {scored} candidates"
    );
}

#[test]
fn a_whole_run_allocates_less_than_once_per_explored_state() {
    let ddg = ladder(6, 6);
    let an = DdgAnalysis::compute(&ddg).unwrap();
    let pg = Pg::complete(4, ResourceTable::of_cns(4));
    let see = See::new(&ddg, &an, &pg, constraints(), SeeConfig::default());
    let before = allocs();
    let out = see.run(None).expect("ladder clusterises");
    let made = allocs() - before;
    let explored = out.stats.states_explored as u64;
    // Debug builds also replay every scored candidate through the journalled
    // apply/undo path, whose spilled arc lists allocate. With a heap-backed
    // scoring loop this run makes 4-7 allocations per explored state.
    let per_state = if cfg!(debug_assertions) { 2 } else { 1 };
    assert!(
        made < per_state * explored,
        "See::run allocated {made} times for {explored} explored states"
    );
}
