//! Graph analyses: topological order, ASAP/ALAP levels, SCCs, MIIRec.
//!
//! `MIIRec` — the recurrence-constrained minimum initiation interval — is the
//! largest `ceil(Σ latency / Σ distance)` over all dependence cycles (Rau,
//! MICRO '94; used as the data-constraint term of the paper's §4.2 cost
//! model). We compute it exactly, one strongly connected component at a
//! time (every cycle lies inside one SCC): binary-search the candidate II
//! and test whether a cycle of positive weight exists under edge weights
//! `latency − II · distance` (Bellman–Ford style relaxation over the SCC's
//! own edges).

use crate::graph::{Ddg, NodeId};
use rustc_hash::FxHashSet;
use std::fmt;

/// Why a DDG is not analysable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DdgError {
    /// A dependence cycle exists whose total iteration distance is zero:
    /// the loop body can never be scheduled.
    ZeroDistanceCycle,
}

impl fmt::Display for DdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdgError::ZeroDistanceCycle => {
                write!(f, "dependence cycle with zero iteration distance")
            }
        }
    }
}

impl std::error::Error for DdgError {}

/// ASAP / ALAP levels of the intra-iteration subgraph.
#[derive(Clone, Debug)]
pub struct AsapAlap {
    /// Earliest start time (longest-latency path from any DAG source).
    pub asap: Vec<u32>,
    /// Latest start time that still meets the critical path.
    pub alap: Vec<u32>,
    /// Longest-latency path from the node to any DAG sink.
    pub height: Vec<u32>,
    /// Critical-path length of the intra-iteration DAG.
    pub critical_path: u32,
}

impl AsapAlap {
    /// Scheduling slack of a node (`alap − asap`); 0 on the critical path.
    #[inline]
    pub fn slack(&self, n: NodeId) -> u32 {
        self.alap[n.index()] - self.asap[n.index()]
    }
}

/// Bundle of per-DDG analyses, computed once and shared by later passes.
#[derive(Clone, Debug)]
pub struct DdgAnalysis {
    /// Topological order of the intra-iteration DAG.
    pub topo: Vec<NodeId>,
    /// ASAP/ALAP/height levels.
    pub levels: AsapAlap,
    /// SCC id per node (over the *full* graph, carried edges included).
    pub scc: Vec<u32>,
    /// Number of SCCs.
    pub num_sccs: u32,
    /// Recurrence-constrained MII.
    pub mii_rec: u32,
}

impl DdgAnalysis {
    /// Run every analysis on `ddg`.
    pub fn compute(ddg: &Ddg) -> Result<Self, DdgError> {
        let topo = intra_topo_order(ddg).ok_or(DdgError::ZeroDistanceCycle)?;
        let levels = asap_alap(ddg, &topo);
        let (scc, num_sccs) = tarjan_scc(ddg);
        let mii_rec = mii_rec_in_sccs(ddg, &scc, num_sccs)?;
        Ok(DdgAnalysis {
            topo,
            levels,
            scc,
            num_sccs,
            mii_rec,
        })
    }

    /// Nodes belonging to a non-trivial SCC (a recurrence).
    pub fn recurrence_nodes(&self, ddg: &Ddg) -> FxHashSet<NodeId> {
        let mut size = vec![0u32; self.num_sccs as usize];
        for n in ddg.node_ids() {
            size[self.scc[n.index()] as usize] += 1;
        }
        // A single node is still a recurrence if it has a self-loop.
        let mut out = FxHashSet::default();
        for n in ddg.node_ids() {
            let s = self.scc[n.index()];
            let self_loop = ddg.succ_edges(n).any(|(_, e)| e.dst == n);
            if size[s as usize] > 1 || self_loop {
                out.insert(n);
            }
        }
        out
    }
}

/// Kahn topological sort over intra-iteration (distance-0) edges.
///
/// Returns `None` when the distance-0 subgraph has a cycle (ill-formed loop).
pub fn intra_topo_order(ddg: &Ddg) -> Option<Vec<NodeId>> {
    let n = ddg.num_nodes();
    let mut indeg = vec![0u32; n];
    for e in ddg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut queue: Vec<NodeId> = ddg.node_ids().filter(|v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for (_, e) in ddg.succ_edges(v) {
            if e.distance == 0 {
                indeg[e.dst.index()] -= 1;
                if indeg[e.dst.index()] == 0 {
                    queue.push(e.dst);
                }
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// ASAP/ALAP levels over the intra-iteration DAG, given its topo order.
pub fn asap_alap(ddg: &Ddg, topo: &[NodeId]) -> AsapAlap {
    let n = ddg.num_nodes();
    let mut asap = vec![0u32; n];
    for &v in topo {
        for (_, e) in ddg.succ_edges(v) {
            if e.distance == 0 {
                let t = asap[v.index()] + e.latency;
                if t > asap[e.dst.index()] {
                    asap[e.dst.index()] = t;
                }
            }
        }
    }
    let mut height = vec![0u32; n];
    for &v in topo.iter().rev() {
        for (_, e) in ddg.succ_edges(v) {
            if e.distance == 0 {
                let t = height[e.dst.index()] + e.latency;
                if t > height[v.index()] {
                    height[v.index()] = t;
                }
            }
        }
    }
    let critical_path = ddg
        .node_ids()
        .map(|v| asap[v.index()] + height[v.index()])
        .max()
        .unwrap_or(0);
    let alap = (0..n).map(|i| critical_path - height[i]).collect();
    AsapAlap {
        asap,
        alap,
        height,
        critical_path,
    }
}

/// Tarjan's strongly-connected components over the full graph
/// (loop-carried edges included). Returns `(scc_id_per_node, scc_count)`.
///
/// Iterative formulation — multimedia DDGs are small but callers also feed
/// synthetic graphs of thousands of nodes, so no recursion.
pub fn tarjan_scc(ddg: &Ddg) -> (Vec<u32>, u32) {
    const UNVISITED: u32 = u32::MAX;
    const UNASSIGNED: u32 = u32::MAX;
    let n = ddg.num_nodes();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    // A visited node is on the Tarjan stack until its SCC is assigned.
    let mut scc = vec![UNASSIGNED; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut scc_count = 0u32;

    // Flat successor array (full graph, carried edges included): the
    // successors of `v` are `succ[first[v]..first[v + 1]]`.
    let mut first = Vec::with_capacity(n + 1);
    let mut succ = Vec::with_capacity(ddg.num_edges());
    for v in ddg.node_ids() {
        first.push(succ.len());
        succ.extend(ddg.succs(v).map(NodeId::index));
    }
    first.push(succ.len());

    // Explicit DFS state: (node, iterator position over its succ edge list).
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);

        while let Some(&(v, ei)) = call.last() {
            if first[v] + ei < first[v + 1] {
                call.last_mut().expect("frame exists").1 += 1;
                let w = succ[first[v] + ei];
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    call.push((w, 0));
                } else if scc[w] == UNASSIGNED {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        scc[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    (scc, scc_count)
}

/// One dependence edge inside SCC `scc`.
#[derive(Clone, Copy)]
struct SccEdge {
    scc: u32,
    src: u32,
    dst: u32,
    latency: i64,
    distance: i64,
}

/// True when a cycle with positive total weight `latency − ii·distance`
/// exists among the edges of one SCC of `nodes` nodes — i.e. when `ii`
/// violates one of its recurrences. `dist` is scratch space indexed by
/// node.
fn has_positive_cycle(edges: &[SccEdge], nodes: u32, dist: &mut [i64], ii: i64) -> bool {
    // Every node of the SCC has an edge out of it inside the SCC.
    for e in edges {
        dist[e.src as usize] = 0;
    }
    // Longest-path Bellman–Ford from a virtual source connected to all nodes
    // with weight 0; a positive cycle keeps relaxing past `nodes` rounds.
    for round in 0..nodes {
        let mut changed = false;
        for e in edges {
            let cand = dist[e.src as usize] + e.latency - ii * e.distance;
            if cand > dist[e.dst as usize] {
                dist[e.dst as usize] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == nodes - 1 {
            return true;
        }
    }
    false
}

/// Exact recurrence-constrained MII: the smallest `II ≥ 1` such that every
/// dependence cycle satisfies `Σ latency ≤ II · Σ distance`.
///
/// Errors with [`DdgError::ZeroDistanceCycle`] if some cycle has total
/// distance 0 and positive total latency (no II can satisfy it).
pub fn mii_rec(ddg: &Ddg) -> Result<u32, DdgError> {
    let (scc, num_sccs) = tarjan_scc(ddg);
    mii_rec_in_sccs(ddg, &scc, num_sccs)
}

/// [`mii_rec`] given the graph's SCCs (as [`tarjan_scc`] returns them).
///
/// Each SCC with an internal edge is searched over its own edges only.
/// The search range runs from the largest MII found so far (already
/// feasible for the SCC, or the SCC is skipped) to the SCC's own
/// `Σ latency + 1`: a cycle of distance ≥ 1 cannot outweigh that, so a
/// positive cycle left there has distance 0.
fn mii_rec_in_sccs(ddg: &Ddg, scc: &[u32], num_sccs: u32) -> Result<u32, DdgError> {
    let mut edges: Vec<SccEdge> = ddg
        .edges()
        .iter()
        .filter(|e| scc[e.src.index()] == scc[e.dst.index()])
        .map(|e| SccEdge {
            scc: scc[e.src.index()],
            src: e.src.0,
            dst: e.dst.0,
            latency: i64::from(e.latency),
            distance: i64::from(e.distance),
        })
        .collect();
    if edges.is_empty() {
        return Ok(1); // no cycle at all
    }
    edges.sort_unstable_by_key(|e| e.scc);
    let mut size = vec![0u32; num_sccs as usize];
    for &c in scc {
        size[c as usize] += 1;
    }

    let mut best = 1i64;
    let mut dist = vec![0i64; ddg.num_nodes()];
    // An SCC without internal edges (a lone node, no self-loop) has no
    // cycle and no group here.
    for edges in edges.chunk_by(|a, b| a.scc == b.scc) {
        let nodes = size[edges[0].scc as usize];
        if !has_positive_cycle(edges, nodes, &mut dist, best) {
            continue;
        }
        let hi = edges.iter().map(|e| e.latency).sum::<i64>() + 1;
        if best >= hi || has_positive_cycle(edges, nodes, &mut dist, hi) {
            return Err(DdgError::ZeroDistanceCycle);
        }
        // Monotone: larger II ⇒ weights only shrink. Binary search the
        // smallest feasible II in (best, hi].
        let mut lo = best + 1;
        let mut hi = hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if has_positive_cycle(edges, nodes, &mut dist, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        best = lo;
    }
    Ok(u32::try_from(best).expect("MII fits u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::op::{LatencyModel, Opcode};

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Const);
        let c = b.node(Opcode::Add);
        let d = b.node(Opcode::Add);
        b.flow(a, c);
        b.flow(c, d);
        b.flow(a, d);
        let g = b.finish();
        let topo = intra_topo_order(&g).unwrap();
        let pos: Vec<usize> = g
            .node_ids()
            .map(|n| topo.iter().position(|&t| t == n).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn topo_order_ignores_carried_backedges() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        b.flow(a, c);
        b.carried(c, a, 1); // back-edge, loop-carried
        let g = b.finish();
        assert!(intra_topo_order(&g).is_some());
    }

    #[test]
    fn intra_cycle_detected() {
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Add, None);
        let c = g.add_node(Opcode::Add, None);
        g.add_edge(a, c, 1, 0);
        g.add_edge(c, a, 1, 0);
        assert!(intra_topo_order(&g).is_none());
        assert_eq!(mii_rec(&g), Err(DdgError::ZeroDistanceCycle));
    }

    #[test]
    fn asap_alap_diamond() {
        // a(load,8) -> b(add,1) -> d ; a -> c(mul,2) -> d
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Load);
        let x = b.node(Opcode::Add);
        let y = b.node(Opcode::Mul);
        let d = b.node(Opcode::Store);
        b.flow(a, x);
        b.flow(a, y);
        b.flow(x, d);
        b.flow(y, d);
        let g = b.finish();
        let topo = intra_topo_order(&g).unwrap();
        let lv = asap_alap(&g, &topo);
        assert_eq!(lv.asap[a.index()], 0);
        assert_eq!(lv.asap[x.index()], 8);
        assert_eq!(lv.asap[y.index()], 8);
        assert_eq!(lv.asap[d.index()], 10); // via mul (lat 2)
        assert_eq!(lv.critical_path, 10);
        // add path has 1 cycle of slack
        assert_eq!(lv.slack(x), 1);
        assert_eq!(lv.slack(y), 0);
        assert_eq!(lv.slack(a), 0);
        assert_eq!(lv.slack(d), 0);
    }

    #[test]
    fn scc_groups_recurrence() {
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        let lone = b.node(Opcode::Add);
        b.flow(a, c);
        b.carried(c, a, 1);
        b.flow(c, lone);
        let g = b.finish();
        let (scc, count) = tarjan_scc(&g);
        assert_eq!(count, 2);
        assert_eq!(scc[a.index()], scc[c.index()]);
        assert_ne!(scc[a.index()], scc[lone.index()]);
    }

    #[test]
    fn mii_rec_acyclic_is_one() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Load);
        let c = b.node(Opcode::Add);
        b.flow(a, c);
        assert_eq!(mii_rec(&b.finish()).unwrap(), 1);
    }

    #[test]
    fn mii_rec_self_loop() {
        // acc = acc + x, mac latency 2, distance 1 -> MIIRec = 2
        let mut b = DdgBuilder::default();
        let acc = b.node(Opcode::Mac);
        b.carried(acc, acc, 1);
        assert_eq!(mii_rec(&b.finish()).unwrap(), 2);
    }

    #[test]
    fn mii_rec_distance_divides() {
        // cycle latency 5 over distance 2 -> ceil(5/2)=3
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Add, None);
        let c = g.add_node(Opcode::Add, None);
        g.add_edge(a, c, 3, 0);
        g.add_edge(c, a, 2, 2);
        assert_eq!(mii_rec(&g).unwrap(), 3);
    }

    #[test]
    fn mii_rec_takes_max_over_cycles() {
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Add, None);
        let b2 = g.add_node(Opcode::Add, None);
        // cycle 1: lat 2 / dist 1 = 2
        g.add_edge(a, a, 2, 1);
        // cycle 2: lat 7 / dist 1 = 7
        g.add_edge(a, b2, 4, 0);
        g.add_edge(b2, a, 3, 1);
        assert_eq!(mii_rec(&g).unwrap(), 7);
    }

    #[test]
    fn mii_rec_zero_latency_cycle_ok() {
        // zero-latency, zero-distance cycles are impossible to build through
        // the public API (self-loop guard), but a 2-node zero-latency carried
        // cycle is fine and gives MII 1.
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Add, None);
        let c = g.add_node(Opcode::Add, None);
        g.add_edge(a, c, 0, 0);
        g.add_edge(c, a, 0, 1);
        assert_eq!(mii_rec(&g).unwrap(), 1);
    }

    #[test]
    fn analysis_bundle() {
        let mut b = DdgBuilder::default();
        let acc = b.node(Opcode::Mac);
        let x = b.node(Opcode::Load);
        b.flow(x, acc);
        b.carried(acc, acc, 1);
        let g = b.finish();
        let an = DdgAnalysis::compute(&g).unwrap();
        assert_eq!(an.mii_rec, 2);
        assert_eq!(an.topo.len(), 2);
        let rec = an.recurrence_nodes(&g);
        assert!(rec.contains(&acc));
        assert!(!rec.contains(&x));
    }

    #[test]
    fn empty_graph_analysable() {
        let g = Ddg::new();
        let an = DdgAnalysis::compute(&g).unwrap();
        assert_eq!(an.mii_rec, 1);
        assert_eq!(an.levels.critical_path, 0);
    }
}
