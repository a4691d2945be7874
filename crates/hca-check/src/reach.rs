//! Fixpoint reachability over the configured topology — an independent
//! re-implementation of the coherency question answered by
//! `hca_core::coherency` (which propagates each value forward from its
//! producer over a per-check index of the wires). Here the same two
//! predicates are computed as the least fixpoint of a monotone system,
//! swept round-robin over every member path of the machine:
//!
//! * `emit[p]` — value `v` can be driven onto member `p`'s output wires;
//! * `recv[p]` — `v` is delivered into `p` from its parent group.
//!
//! Both implementations must agree on every edge; a disagreement means one
//! of them is wrong, which is exactly what [`differential_coherency`] is
//! fuzzed for.

use hca_arch::topology::WireSource;
use hca_arch::{CnId, DspFabric, Topology};
use hca_ddg::{Ddg, EdgeId, NodeId, Opcode};
use rustc_hash::FxHashMap;

/// All member paths of the fabric (length 1 ..= depth), in a fixed order.
fn member_paths(fabric: &DspFabric) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut frontier: Vec<Vec<usize>> = vec![vec![]];
    for d in 0..fabric.depth() {
        let arity = fabric.level(d).arity;
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for p in &frontier {
            for m in 0..arity {
                let mut child = p.clone();
                child.push(m);
                out.push(child.clone());
                next.push(child);
            }
        }
        frontier = next;
    }
    out
}

struct Fixpoint<'a> {
    fabric: &'a DspFabric,
    topo: &'a Topology,
    value: NodeId,
    paths: Vec<Vec<usize>>,
    index: FxHashMap<Vec<usize>, usize>,
    emit: Vec<bool>,
    recv: Vec<bool>,
}

impl<'a> Fixpoint<'a> {
    fn new(fabric: &'a DspFabric, topo: &'a Topology, value: NodeId, producer: CnId) -> Self {
        let paths = member_paths(fabric);
        let index: FxHashMap<Vec<usize>, usize> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        let mut emit = vec![false; paths.len()];
        let recv = vec![false; paths.len()];
        let producer_path = fabric.cn_path(producer);
        emit[index[&producer_path]] = true;
        let mut fx = Fixpoint {
            fabric,
            topo,
            value,
            paths,
            index,
            emit,
            recv,
        };
        fx.solve();
        fx
    }

    /// One evaluation of `recv[p]` under the current assignment.
    fn eval_recv(&self, i: usize) -> bool {
        let p = &self.paths[i];
        let (g_path, m) = (&p[..p.len() - 1], p[p.len() - 1]);
        let Some(g) = self.topo.group(g_path) else {
            return false;
        };
        g.wires
            .iter()
            .filter(|w| w.carries(self.value) && w.receivers.contains(&m))
            .any(|w| match w.src {
                WireSource::Member(s) => {
                    let mut sib = g_path.to_vec();
                    sib.push(s);
                    self.emit[self.index[&sib]]
                }
                WireSource::Parent => {
                    // The group itself must have the value delivered from
                    // above; the root has no parent to receive from.
                    !g_path.is_empty() && self.recv[self.index[g_path]]
                }
            })
    }

    /// One evaluation of `emit[p]` under the current assignment.
    fn eval_emit(&self, i: usize) -> bool {
        let p = &self.paths[i];
        if p.len() == self.fabric.depth() {
            // A CN that is not the producer can only re-emit what it
            // received (the producer's entry was seeded true).
            return self.recv[i];
        }
        let Some(g) = self.topo.group(p) else {
            return false;
        };
        g.wires
            .iter()
            .filter(|w| w.to_parent && w.carries(self.value))
            .any(|w| match w.src {
                WireSource::Member(s) => {
                    let mut child = p.clone();
                    child.push(s);
                    self.emit[self.index[&child]]
                }
                WireSource::Parent => self.recv[i],
            })
    }

    /// Iterate to the least fixpoint. The system is monotone (predicates
    /// only flip false → true), so a round-robin sweep terminates.
    fn solve(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.paths.len() {
                if !self.recv[i] && self.eval_recv(i) {
                    self.recv[i] = true;
                    changed = true;
                }
                if !self.emit[i] && self.eval_emit(i) {
                    self.emit[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// Does value `v`, produced on CN `src`, arrive at CN `dst`? Same question
/// as `hca_core::coherency::value_delivered`, answered by a round-robin
/// sweep over every member path instead of forward propagation.
pub fn value_delivered_fixpoint(
    fabric: &DspFabric,
    topo: &Topology,
    v: NodeId,
    src: CnId,
    dst: CnId,
) -> bool {
    if src == dst {
        return true;
    }
    let fx = Fixpoint::new(fabric, topo, v, src);
    let dst_path = fabric.cn_path(dst);
    fx.recv[fx.index[&dst_path]]
}

/// Cross-CN dependences whose value the fixpoint checker says is *not*
/// delivered (Const producers excluded, like the production checker).
pub fn coherency_violations_fixpoint(
    fabric: &DspFabric,
    topo: &Topology,
    ddg: &Ddg,
    placement: &dyn Fn(NodeId) -> CnId,
) -> Vec<(EdgeId, CnId, CnId)> {
    let mut out = Vec::new();
    for eid in ddg.edge_ids() {
        let e = ddg.edge(eid);
        if ddg.node(e.src).op == Opcode::Const {
            continue;
        }
        let (cu, cw) = (placement(e.src), placement(e.dst));
        if cu != cw && !value_delivered_fixpoint(fabric, topo, e.src, cu, cw) {
            out.push((eid, cu, cw));
        }
    }
    out
}

/// Differential check: run both coherency implementations over every
/// dependence edge and report each disagreement as a human-readable line.
/// An empty result means the checkers agree edge-for-edge (it does *not*
/// mean the clusterisation is legal — both may agree it is not).
pub fn differential_coherency(
    fabric: &DspFabric,
    topo: &Topology,
    ddg: &Ddg,
    placement: &dyn Fn(NodeId) -> CnId,
) -> Vec<String> {
    let mut out = Vec::new();
    for eid in ddg.edge_ids() {
        let e = ddg.edge(eid);
        if ddg.node(e.src).op == Opcode::Const {
            continue;
        }
        let (cu, cw) = (placement(e.src), placement(e.dst));
        if cu == cw {
            continue;
        }
        let checker = hca_core::coherency::value_delivered(fabric, topo, e.src, cu, cw);
        let fixpoint = value_delivered_fixpoint(fabric, topo, e.src, cu, cw);
        if checker != fixpoint {
            out.push(format!(
                "edge {eid:?} (value {} {cu} -> {cw}): checker says {checker}, fixpoint says {fixpoint}",
                e.src
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::topology::ConfiguredWire;

    fn wire(src: WireSource, rec: &[usize], up: bool, vals: &[u32]) -> ConfiguredWire {
        ConfiguredWire {
            src,
            receivers: rec.to_vec(),
            to_parent: up,
            values: vals.iter().map(|&v| NodeId(v)).collect(),
        }
    }

    #[test]
    fn agrees_with_memoized_on_sibling_delivery() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        t.group_mut(&[0, 0])
            .wires
            .push(wire(WireSource::Member(0), &[2], false, &[7]));
        let src = f.cn_of_path(&[0, 0, 0]);
        for (dst_path, want) in [([0, 0, 2], true), ([0, 0, 1], false)] {
            let dst = f.cn_of_path(&dst_path);
            assert_eq!(value_delivered_fixpoint(&f, &t, NodeId(7), src, dst), want);
            assert_eq!(
                hca_core::coherency::value_delivered(&f, &t, NodeId(7), src, dst),
                want
            );
        }
    }

    #[test]
    fn full_cross_set_chain_delivers() {
        let f = DspFabric::standard(8, 8, 8);
        let v = NodeId(3);
        let mut t = Topology::new();
        t.group_mut(&[0, 0])
            .wires
            .push(wire(WireSource::Member(0), &[], true, &[3]));
        t.group_mut(&[0])
            .wires
            .push(wire(WireSource::Member(0), &[], true, &[3]));
        t.group_mut(&[])
            .wires
            .push(wire(WireSource::Member(0), &[1], false, &[3]));
        t.group_mut(&[1])
            .wires
            .push(wire(WireSource::Parent, &[2], false, &[3]));
        t.group_mut(&[1, 2])
            .wires
            .push(wire(WireSource::Parent, &[3], false, &[3]));
        let src = f.cn_of_path(&[0, 0, 0]);
        assert!(value_delivered_fixpoint(
            &f,
            &t,
            v,
            src,
            f.cn_of_path(&[1, 2, 3])
        ));
        let mut t2 = t.clone();
        t2.group_mut(&[1]).wires.clear();
        assert!(!value_delivered_fixpoint(
            &f,
            &t2,
            v,
            src,
            f.cn_of_path(&[1, 2, 3])
        ));
    }

    #[test]
    fn cyclic_claims_stay_unreachable() {
        // Mutual pass-through claims with no real source must resolve to
        // false — the least fixpoint never flips them.
        let f = DspFabric::standard(8, 8, 8);
        let v = NodeId(9);
        let mut t = Topology::new();
        let g = t.group_mut(&[0, 0]);
        g.wires
            .push(wire(WireSource::Member(1), &[2, 3], false, &[9]));
        g.wires.push(wire(WireSource::Member(2), &[1], false, &[9]));
        let src = f.cn_of_path(&[3, 3, 3]);
        assert!(!value_delivered_fixpoint(
            &f,
            &t,
            v,
            src,
            f.cn_of_path(&[0, 0, 3])
        ));
    }
}
