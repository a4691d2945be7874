//! Precomputed static lookups over one sub-problem's Pattern Graph.
//!
//! `Pg` answers `is_potential` by scanning a small adjacency list and
//! `outputs_carrying` by walking every output node's value list into a
//! fresh `Vec` — fine for construction-time queries, but both sit on the
//! `isAssignable` / route-admissibility hot path, where they run once per
//! (state, candidate, edge). The PG is immutable for the whole SEE run, so
//! one build pass turns both into O(1) reads: a flat bit matrix for arc
//! potential and a dense per-value row table for output wires.
//!
//! On top of those, this module numbers the PG's potential arcs once
//! ([`ArcIndex`]) — the arc-indexed copy table in
//! [`PartialState`](crate::state::PartialState) stores per-arc value lists
//! in dense slots keyed by these ids — and precomputes per-resource-class
//! *candidate bitmasks* (one `u64` word block over PG node ids) that the
//! `isAssignable` probe ANDs in bulk before any per-candidate work.

use crate::neighbors::NeighborSets;
use hca_ddg::{NodeId, ResourceClass};
use hca_pg::{Pg, PgNodeId, PgNodeKind};
use smallvec::SmallVec;
use std::sync::Arc;

/// Dense numbering of the PG's potential arcs, fixed for one SEE run.
///
/// `ids` is an n×n matrix mapping `(src, dst)` to the arc's id
/// (`u32::MAX` = not a potential arc); `pairs[id]` maps back. Ids are
/// assigned in ascending `(src, dst)` order, so iterating arcs by id visits
/// them deterministically. Shared behind an [`Arc`] by every
/// [`PartialState`](crate::state::PartialState) of the run, so a state
/// clone bumps a refcount instead of copying the matrix.
#[derive(Debug)]
pub struct ArcIndex {
    n: usize,
    ids: Vec<u32>,
    pairs: Vec<(PgNodeId, PgNodeId)>,
}

impl ArcIndex {
    /// Number the potential arcs of `pg` in ascending `(src, dst)` order.
    fn build(pg: &Pg) -> Self {
        let n = pg.num_nodes();
        let mut ids = vec![u32::MAX; n * n];
        let mut pairs = Vec::new();
        for src in pg.node_ids() {
            let mut dsts: SmallVec<[PgNodeId; 16]> =
                pg.potential_succs(src).iter().copied().collect();
            dsts.sort_unstable();
            for dst in dsts {
                ids[src.index() * n + dst.index()] = pairs.len() as u32;
                pairs.push((src, dst));
            }
        }
        ArcIndex { n, ids, pairs }
    }

    /// Arc id of `src → dst`, or `None` when the arc is not potential.
    #[inline]
    pub fn arc_id(&self, src: PgNodeId, dst: PgNodeId) -> Option<u32> {
        let id = self.ids[src.index() * self.n + dst.index()];
        (id != u32::MAX).then_some(id)
    }

    /// Number of potential arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.pairs.len()
    }

    /// The `(src, dst)` endpoints of arc `id`.
    #[inline]
    pub fn pair(&self, id: u32) -> (PgNodeId, PgNodeId) {
        self.pairs[id as usize]
    }

    /// Heap bytes held by the id matrix and the pair list.
    pub fn heap_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
            + self.pairs.len() * std::mem::size_of::<(PgNodeId, PgNodeId)>()
    }
}

/// Bitmask word index/mask for PG node `id` at the given row stride.
#[inline]
fn bit_slot(id: PgNodeId) -> (usize, u64) {
    (id.index() / 64, 1u64 << (id.index() % 64))
}

/// O(1) views of the immutable PG topology, built once per SEE run and
/// shared (read-only) by every state of the search.
pub struct PgStatics {
    /// Potential-arc bit matrix: row = src, bit = dst.
    potential: NeighborSets,
    /// Transposed potential-arc matrix: row = dst, bit = src — the consumer
    /// half of the candidate-mask AND ("which clusters reach `cs`?").
    potential_in: NeighborSets,
    /// Output special nodes whose wire carries value `v`, indexed by
    /// `v.index()`; values past the table (never on any wire) read as empty.
    outputs_of: Vec<SmallVec<[PgNodeId; 2]>>,
    /// Dense numbering of the potential arcs (see [`ArcIndex`]).
    arcs: Arc<ArcIndex>,
    /// Per-resource-class executability mask over PG node ids: bit `c` set
    /// iff `c` is a real cluster whose resource table can execute ops of
    /// that class (`can_execute` is purely class-based, so this is exact).
    /// Indexed by [`class_lane`].
    exec_mask: [Vec<u64>; 3],
    /// Words per mask row (= `n.div_ceil(64).max(1)`).
    stride: usize,
}

/// Lane of [`PgStatics::exec_mask`] for a resource class.
#[inline]
pub(crate) fn class_lane(class: ResourceClass) -> usize {
    match class {
        ResourceClass::Alu => 0,
        ResourceClass::AddrGen => 1,
        ResourceClass::Receive => 2,
    }
}

impl PgStatics {
    /// Build the lookup tables from `pg`'s potential arcs and output wires.
    pub fn build(pg: &Pg) -> Self {
        let n = pg.num_nodes();
        let stride = n.div_ceil(64).max(1);
        let mut potential = NeighborSets::new(n);
        let mut potential_in = NeighborSets::new(n);
        for src in pg.node_ids() {
            for &dst in pg.potential_succs(src) {
                potential.insert(src.index(), dst);
                potential_in.insert(dst.index(), src);
            }
        }
        let mut outputs_of: Vec<SmallVec<[PgNodeId; 2]>> = Vec::new();
        for id in pg.output_ids() {
            if let PgNodeKind::Output { values, .. } = &pg.node(id).kind {
                for &v in values {
                    if outputs_of.len() <= v.index() {
                        outputs_of.resize(v.index() + 1, SmallVec::new());
                    }
                    outputs_of[v.index()].push(id);
                }
            }
        }
        let mut exec_mask = [vec![0u64; stride], vec![0u64; stride], vec![0u64; stride]];
        for c in pg.cluster_ids() {
            let node = pg.node(c);
            if !node.kind.is_cluster() || node.rt.issue == 0 {
                continue;
            }
            let (w, m) = bit_slot(c);
            for class in [
                ResourceClass::Alu,
                ResourceClass::AddrGen,
                ResourceClass::Receive,
            ] {
                if node.rt.capacity(class) > 0 {
                    exec_mask[class_lane(class)][w] |= m;
                }
            }
        }
        PgStatics {
            potential,
            potential_in,
            outputs_of,
            arcs: Arc::new(ArcIndex::build(pg)),
            exec_mask,
            stride,
        }
    }

    /// Is `src → dst` a potential pattern? (Bit test; equals
    /// [`Pg::is_potential`].)
    #[inline]
    pub fn is_potential(&self, src: PgNodeId, dst: PgNodeId) -> bool {
        self.potential.contains(src.index(), dst)
    }

    /// Output nodes whose wire must carry value `v`, in ascending node-id
    /// order (the same order [`Pg::outputs_carrying`] yields).
    #[inline]
    pub fn outputs_carrying(&self, v: NodeId) -> &[PgNodeId] {
        self.outputs_of.get(v.index()).map_or(&[], |row| row)
    }

    /// The run's shared potential-arc numbering.
    #[inline]
    pub fn arc_index(&self) -> &Arc<ArcIndex> {
        &self.arcs
    }

    /// Words per candidate-mask row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Bit words of the clusters able to execute ops of `class`.
    #[inline]
    pub fn exec_mask(&self, class: ResourceClass) -> &[u64] {
        &self.exec_mask[class_lane(class)]
    }

    /// Bit words of `src`'s potential successors ("where can `src` send?").
    #[inline]
    pub fn potential_row_words(&self, src: PgNodeId) -> &[u64] {
        self.potential.row_words(src.index())
    }

    /// Bit words of `dst`'s potential predecessors ("who can reach `dst`?").
    #[inline]
    pub fn potential_in_row_words(&self, dst: PgNodeId) -> &[u64] {
        self.potential_in.row_words(dst.index())
    }

    /// Heap bytes of the arc table and candidate-mask machinery — reported
    /// as the `see.arc_table_bytes` counter.
    pub fn arc_table_bytes(&self) -> usize {
        self.arcs.heap_bytes()
            + self.potential.heap_bytes()
            + self.potential_in.heap_bytes()
            + self.exec_mask.iter().map(|m| m.len() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::ResourceTable;
    use hca_pg::{Ili, IliWire};

    #[test]
    fn matches_pg_queries() {
        let mut pg = Pg::complete(4, ResourceTable::of_cns(2));
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![NodeId(9)])],
            outputs: vec![
                IliWire::new(vec![NodeId(3), NodeId(7)]),
                IliWire::new(vec![NodeId(7)]),
            ],
        });
        let st = PgStatics::build(&pg);
        for a in pg.node_ids() {
            for b in pg.node_ids() {
                assert_eq!(st.is_potential(a, b), pg.is_potential(a, b), "{a}->{b}");
            }
        }
        for v in 0..12u32 {
            let v = NodeId(v);
            assert_eq!(st.outputs_carrying(v), &pg.outputs_carrying(v)[..], "{v:?}");
        }
        // Out-of-table values read as empty instead of panicking.
        assert!(st.outputs_carrying(NodeId(1000)).is_empty());
    }

    #[test]
    fn arc_index_numbers_exactly_the_potential_arcs() {
        let mut pg = Pg::complete(4, ResourceTable::of_cns(2));
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![NodeId(9)])],
            outputs: vec![IliWire::new(vec![NodeId(3)])],
        });
        let st = PgStatics::build(&pg);
        let idx = st.arc_index();
        let mut count = 0usize;
        let mut last = None;
        for a in pg.node_ids() {
            for b in pg.node_ids() {
                match idx.arc_id(a, b) {
                    Some(id) => {
                        assert!(pg.is_potential(a, b), "{a}->{b} numbered but not potential");
                        assert_eq!(idx.pair(id), (a, b), "round-trip");
                        // Ids are assigned in ascending (src, dst) order.
                        assert!(last.is_none_or(|l| l < id), "id order broken at {a}->{b}");
                        last = Some(id);
                        count += 1;
                    }
                    None => assert!(!pg.is_potential(a, b), "{a}->{b} potential but unnumbered"),
                }
            }
        }
        assert_eq!(count, idx.num_arcs());
        assert!(st.arc_table_bytes() > 0);
    }

    #[test]
    fn exec_masks_match_can_execute() {
        use hca_arch::Rcp;
        // RCP: odd clusters have no address generator.
        let rcp = Rcp::figure1();
        let pg = Pg::from_rcp(&rcp);
        let st = PgStatics::build(&pg);
        for class in [
            ResourceClass::Alu,
            ResourceClass::AddrGen,
            ResourceClass::Receive,
        ] {
            let mask = st.exec_mask(class);
            for id in pg.node_ids() {
                let node = pg.node(id);
                let expect =
                    node.kind.is_cluster() && node.rt.issue > 0 && node.rt.capacity(class) > 0;
                let (w, m) = bit_slot(id);
                assert_eq!(mask[w] & m != 0, expect, "{id} class {class:?}");
            }
        }
    }
}
