//! The coherency checker (paper §4.1, end): "a coherency checker verifies if
//! the DDG is compatible with the topology itself. More precisely it checks
//! for the presence of a communication path on the final architecture
//! between each pair of clusters that contains dependent nodes of the DDG."
//!
//! Reachability over the configured hierarchy is defined by two rules per
//! value `v`:
//!
//! * `can_emit(m)` — `v` can be driven onto member `m`'s output wires:
//!   `m` is the producing CN, a non-producing CN that received `v`, or a
//!   group whose child topology carries `v` up on a `to_parent` wire;
//! * `delivered(m)` — `v` enters `m` from its parent group: some configured
//!   wire there carries `v`, lists `m` as receiver, and is itself properly
//!   sourced (a sibling that can emit, or a glue wire from above).
//!
//! The checker computes the least fixpoint of these rules forward, once per
//! produced value: starting from the producer, each fact that becomes true
//! fires the wires carrying `v` that it feeds. Mutual pass-through claims
//! with no real source are never reached, so they stay *unreachable*.
//! The topology is indexed once per check — every member path of the
//! fabric gets a dense id, and every value the list of wires carrying it —
//! so a dependence is answered by one flag lookup.

use hca_arch::topology::WireSource;
use hca_arch::{CnId, DspFabric, Topology};
use hca_ddg::{Ddg, EdgeId, NodeId, Opcode};
use std::fmt;

/// One unsatisfied dependence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The dependence edge whose value never arrives.
    pub edge: EdgeId,
    /// Producer CN.
    pub src: CnId,
    /// Consumer CN.
    pub dst: CnId,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "edge {:?}: value does not reach {} from {}",
            self.edge, self.dst, self.src
        )
    }
}

/// Checker outcome.
#[derive(Clone, Debug, Default)]
pub struct CoherencyReport {
    /// Budget violations reported by [`Topology::validate`], as text.
    pub topology_errors: Vec<String>,
    /// Dependences whose value is not routed.
    pub violations: Vec<Violation>,
}

impl CoherencyReport {
    /// Is the clusterisation legal?
    pub fn is_legal(&self) -> bool {
        self.topology_errors.is_empty() && self.violations.is_empty()
    }
}

/// A [`Topology`] indexed for reachability queries over one fabric.
///
/// Facts: member path `p` with dense id `i` has two, `2i` is `can_emit(p)`
/// and `2i + 1` is `delivered(p)`. A wire's source fact is its source
/// member's `can_emit`, or for a glue wire its group's `delivered`; when
/// the source fact holds, the wire makes its target facts hold: `delivered`
/// of each receiver, and `can_emit` of its group when it continues upward.
struct Reach {
    /// Dense id of the first CN path; CN `c` has id `first_cn + c`.
    first_cn: usize,
    /// Target facts of wire `w`: `targets[wires[w].clone()]`.
    wires: Vec<std::ops::Range<usize>>,
    targets: Vec<u32>,
    /// `(source fact, wire)` of the wires carrying value `v`, sorted by
    /// source: `by_value[carried[v]..carried[v + 1]]`.
    carried: Vec<usize>,
    by_value: Vec<(u32, u32)>,
    /// Per fact: the propagation stamp that made it true.
    stamp: Vec<u32>,
    now: u32,
    work: Vec<u32>,
}

/// Dense id of a member path: the root is 0, then the paths of each length
/// in lexicographic order. `None` when the path leaves the fabric.
fn member_id(first: &[usize], fabric: &DspFabric, path: &[usize]) -> Option<usize> {
    let mut flat = 0usize;
    for (d, &ix) in path.iter().enumerate() {
        let arity = fabric.levels.get(d)?.arity;
        if ix >= arity {
            return None;
        }
        flat = flat * arity + ix;
    }
    Some(first[path.len()] + flat)
}

impl Reach {
    fn new(fabric: &DspFabric, topo: &Topology) -> Reach {
        // first[l]: dense id of the first member path of length l.
        let mut first = vec![0usize, 1];
        let mut width = 1usize;
        for spec in &fabric.levels {
            width *= spec.arity;
            first.push(first[first.len() - 1] + width);
        }
        let depth = fabric.depth();
        let mut reach = Reach {
            first_cn: first[depth],
            wires: Vec::new(),
            targets: Vec::new(),
            carried: Vec::new(),
            by_value: Vec::new(),
            stamp: vec![0; 2 * first[depth + 1]],
            now: 0,
            work: Vec::new(),
        };
        // Index every wire of every group that addresses a real group; a
        // wire naming a member the group does not have is skipped
        // (`Topology::validate` reports it).
        let mut carried_by: Vec<(u32, (u32, u32))> = Vec::new();
        for (path, group) in topo.iter() {
            if path.len() >= depth {
                continue;
            }
            let Some(g) = member_id(&first, fabric, path) else {
                continue;
            };
            let arity = fabric.level(path.len()).arity;
            let child = |m: usize| {
                (m < arity).then(|| first[path.len() + 1] + (g - first[path.len()]) * arity + m)
            };
            for w in &group.wires {
                let source = match w.src {
                    WireSource::Member(s) => match child(s) {
                        Some(c) => 2 * c,
                        None => continue,
                    },
                    // The root has no parent: its glue wires never fire.
                    WireSource::Parent if path.is_empty() => continue,
                    WireSource::Parent => 2 * g + 1,
                };
                let begin = reach.targets.len();
                reach.targets.extend(
                    w.receivers
                        .iter()
                        .filter_map(|&r| child(r))
                        .map(|c| (2 * c + 1) as u32),
                );
                if w.to_parent && !path.is_empty() {
                    reach.targets.push((2 * g) as u32);
                }
                let id = reach.wires.len() as u32;
                reach.wires.push(begin..reach.targets.len());
                carried_by.extend(w.values.iter().map(|v| (v.0, (source as u32, id))));
            }
        }
        // Group the wires by carried value (a counting sort).
        let values = carried_by
            .iter()
            .map(|&(v, _)| v as usize + 1)
            .max()
            .unwrap_or(0);
        reach.carried = vec![0; values + 1];
        for &(v, _) in &carried_by {
            reach.carried[v as usize + 1] += 1;
        }
        for v in 0..values {
            reach.carried[v + 1] += reach.carried[v];
        }
        let mut next = reach.carried.clone();
        reach.by_value = vec![(0, 0); carried_by.len()];
        for (v, wire) in carried_by {
            reach.by_value[next[v as usize]] = wire;
            next[v as usize] += 1;
        }
        for v in 0..values {
            reach.by_value[reach.carried[v]..reach.carried[v + 1]].sort_unstable();
        }
        reach
    }

    /// Propagate value `v` forward from its producer CN to the least
    /// fixpoint; afterwards [`Reach::delivered`] answers for this value.
    fn propagate(&mut self, v: NodeId, producer: CnId) {
        self.now += 1;
        let wires: &[(u32, u32)] = match self.carried.get(v.index()..v.index() + 2) {
            Some(range) => &self.by_value[range[0]..range[1]],
            None => &[],
        };
        let Reach {
            first_cn,
            wires: all,
            targets,
            stamp,
            now,
            work,
            ..
        } = self;
        let mut set = |fact: u32, work: &mut Vec<u32>| {
            if stamp[fact as usize] != *now {
                stamp[fact as usize] = *now;
                work.push(fact);
            }
        };
        set((2 * (*first_cn + producer.index())) as u32, work);
        while let Some(fact) = work.pop() {
            // A CN that received the value can re-emit it.
            if fact % 2 == 1 && fact as usize / 2 >= *first_cn {
                set(fact - 1, work);
            }
            let fed = wires.partition_point(|&(source, _)| source < fact);
            for &(_, w) in wires[fed..]
                .iter()
                .take_while(|&&(source, _)| source == fact)
            {
                for &target in &targets[all[w as usize].clone()] {
                    set(target, work);
                }
            }
        }
    }

    /// Did the last propagated value arrive at CN `dst`?
    fn delivered(&self, dst: CnId) -> bool {
        self.stamp[2 * (self.first_cn + dst.index()) + 1] == self.now
    }
}

/// Does value `v`, produced on CN `src`, arrive at CN `dst` over the
/// configured topology (multi-hop forwarding included)?
pub fn value_delivered(
    fabric: &DspFabric,
    topo: &Topology,
    v: NodeId,
    src: CnId,
    dst: CnId,
) -> bool {
    if src == dst {
        return true;
    }
    let mut reach = Reach::new(fabric, topo);
    reach.propagate(v, src);
    reach.delivered(dst)
}

/// Run the full coherency check over every dependence of `ddg`.
///
/// `placement` maps each DDG node to its CN (the post-pass output covers
/// machine-inserted nodes too, but checking the *original* DDG suffices: the
/// recv nodes sit on the consumer's CN by construction). Violations come in
/// DDG edge order.
pub fn check_coherency(
    fabric: &DspFabric,
    topo: &Topology,
    ddg: &Ddg,
    placement: &dyn Fn(NodeId) -> CnId,
) -> CoherencyReport {
    let mut report = CoherencyReport::default();
    if let Err(e) = topo.validate(fabric) {
        report.topology_errors.push(e.to_string());
    }
    let mut reach = Reach::new(fabric, topo);
    for v in ddg.node_ids() {
        if ddg.node(v).op == Opcode::Const {
            continue; // constants are replicated at configuration time
        }
        let cu = placement(v);
        let mut propagated = false;
        for (eid, e) in ddg.succ_edges(v) {
            let cw = placement(e.dst);
            if cu == cw {
                continue;
            }
            if !propagated {
                reach.propagate(v, cu);
                propagated = true;
            }
            if !reach.delivered(cw) {
                report.violations.push(Violation {
                    edge: eid,
                    src: cu,
                    dst: cw,
                });
            }
        }
    }
    report.violations.sort_by_key(|v| v.edge);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::topology::ConfiguredWire;
    use hca_ddg::{DdgBuilder, Opcode};

    fn wire(src: WireSource, rec: &[usize], up: bool, vals: &[u32]) -> ConfiguredWire {
        ConfiguredWire {
            src,
            receivers: rec.to_vec(),
            to_parent: up,
            values: vals.iter().map(|&v| NodeId(v)).collect(),
        }
    }

    #[test]
    fn sibling_delivery() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        t.group_mut(&[0, 0])
            .wires
            .push(wire(WireSource::Member(0), &[2], false, &[7]));
        let src = f.cn_of_path(&[0, 0, 0]);
        assert!(value_delivered(
            &f,
            &t,
            NodeId(7),
            src,
            f.cn_of_path(&[0, 0, 2])
        ));
        assert!(!value_delivered(
            &f,
            &t,
            NodeId(7),
            src,
            f.cn_of_path(&[0, 0, 1])
        ));
        assert!(!value_delivered(
            &f,
            &t,
            NodeId(8),
            src,
            f.cn_of_path(&[0, 0, 2])
        ));
    }

    #[test]
    fn full_cross_set_chain() {
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
        assert!(value_delivered(&f, &t, v, src, f.cn_of_path(&[1, 2, 3])));
        // Break one link and delivery fails.
        let mut t2 = t.clone();
        t2.group_mut(&[1]).wires.clear();
        assert!(!value_delivered(&f, &t2, v, src, f.cn_of_path(&[1, 2, 3])));
    }

    #[test]
    fn forwarded_value_via_sibling_cn() {
        // Producer CN 0 → sibling CN 1 (which forwards) → CN 2. Delivery to
        // CN 2 must route through CN 1's re-emission.
        let f = DspFabric::standard(8, 8, 8);
        let v = NodeId(5);
        let mut t = Topology::new();
        let g = t.group_mut(&[0, 0]);
        g.wires.push(wire(WireSource::Member(0), &[1], false, &[5]));
        g.wires.push(wire(WireSource::Member(1), &[2], false, &[5]));
        let src = f.cn_of_path(&[0, 0, 0]);
        assert!(value_delivered(&f, &t, v, src, f.cn_of_path(&[0, 0, 2])));
    }

    #[test]
    fn cyclic_claims_resolve_to_unreachable() {
        // CN 1 claims to emit v because CN 2 sends it, and vice versa — but
        // nobody actually produces v in this group.
        let f = DspFabric::standard(8, 8, 8);
        let v = NodeId(9);
        let mut t = Topology::new();
        let g = t.group_mut(&[0, 0]);
        g.wires
            .push(wire(WireSource::Member(1), &[2, 3], false, &[9]));
        g.wires.push(wire(WireSource::Member(2), &[1], false, &[9]));
        // Producer sits in a different cluster with no wires at all.
        let src = f.cn_of_path(&[3, 3, 3]);
        assert!(!value_delivered(&f, &t, v, src, f.cn_of_path(&[0, 0, 3])));
    }

    #[test]
    fn check_coherency_reports_violations() {
        let f = DspFabric::standard(8, 8, 8);
        let mut b = DdgBuilder::default();
        let u = b.node(Opcode::Add);
        let w = b.node(Opcode::Add);
        b.flow(u, w);
        let ddg = b.finish();
        let (ca, cb) = (f.cn_of_path(&[0, 0, 0]), f.cn_of_path(&[0, 0, 1]));
        let placement = move |n: NodeId| if n == u { ca } else { cb };

        // No wires at all: one violation.
        let t = Topology::new();
        let rep = check_coherency(&f, &t, &ddg, &placement);
        assert!(!rep.is_legal());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].dst, cb);

        // Configure the wire: legal.
        let mut t2 = Topology::new();
        t2.group_mut(&[0, 0])
            .wires
            .push(wire(WireSource::Member(0), &[1], false, &[0]));
        let rep2 = check_coherency(&f, &t2, &ddg, &placement);
        assert!(rep2.is_legal(), "{:?}", rep2);
    }

    #[test]
    fn check_coherency_surfaces_budget_errors() {
        let f = DspFabric::standard(8, 8, 8);
        let ddg = DdgBuilder::default().finish();
        let mut t = Topology::new();
        // CN leaf groups allow 2 input ports; use 3.
        for s in 1..=3usize {
            t.group_mut(&[0, 0])
                .wires
                .push(wire(WireSource::Member(s), &[0], false, &[s as u32]));
        }
        let rep = check_coherency(&f, &t, &ddg, &|_| CnId(0));
        assert!(!rep.is_legal());
        assert_eq!(rep.topology_errors.len(), 1);
    }
}
