//! Partial-solution state of the beam search.
//!
//! Each node of the exploration space (paper Figure 5) is a *partial
//! solution*: an assignment of a prefix of the priority list plus the copy
//! flow it induces. The state keeps incremental statistics (per-cluster
//! resource usage, receive counts, arc pressures, in-neighbour sets) so that
//! evaluating one more assignment is O(degree), not O(graph).
//!
//! The containers are struct-of-arrays over dense ids: the copy table is an
//! arc-indexed slot array ([`ArcVals`]), the per-node resource counters one
//! contiguous lane-major block ([`Loads`]), and the neighbour sets flat bit
//! matrices. A state clone is therefore a handful of `memcpy`s, equality a
//! handful of slice compares, and the engine's arena can recycle a freed
//! state's buffers via `clone_from` without reallocating.

use crate::cost::CostWeights;
use crate::neighbors::NeighborSets;
use crate::statics::ArcIndex;
use hca_ddg::{Ddg, DdgAnalysis, NodeId};
use hca_pg::{ArchConstraints, AssignedPg, Pg, PgNodeId, PgNodeKind};
use rustc_hash::FxHashSet;
use smallvec::SmallVec;
use std::sync::Arc;

/// Immutable context shared by every state of one SEE run.
pub struct SeeContext<'a> {
    /// The loop's DDG.
    pub ddg: &'a Ddg,
    /// Pre-computed analyses (levels, SCCs, MIIRec).
    pub analysis: &'a DdgAnalysis,
    /// The Pattern Graph of this sub-problem.
    pub pg: &'a Pg,
    /// Reconfiguration constraints at this level.
    pub constraints: ArchConstraints,
    /// Objective-function weights.
    pub weights: CostWeights,
    /// Optional hard cap on per-issue-slot load (a target-II ceiling); used
    /// by `isAssignable` to reject pathological imbalance early.
    pub issue_cap: Option<u32>,
    /// O(1) lookups (arc potential, output wires) over the immutable `pg`.
    pub statics: crate::statics::PgStatics,
}

/// Inline value slots per arc. Real copy flows almost never put more than
/// two distinct values on one pattern before the arc-pressure cost term
/// dominates; deeper lists overflow into the sorted [`ArcVals`] spill.
pub const ARC_CAP: usize = 2;

/// Sentinel filling unused inline slots, so two tables with the same logical
/// content are bytewise equal regardless of push/pop history.
const EMPTY_SLOT: NodeId = NodeId(u32::MAX);

/// Spill/sort key of an arc: `src` in the high word, `dst` in the low.
#[inline]
fn arc_key(src: PgNodeId, dst: PgNodeId) -> u64 {
    (u64::from(src.0) << 32) | u64::from(dst.0)
}

/// Values on each real arc, as a flat arc-indexed slot table.
///
/// The PG's potential arcs are numbered once per run ([`ArcIndex`], shared
/// behind an [`Arc`]); arc `id` owns `ARC_CAP` inline slots in `slots` and a
/// length in `lens`. The rare deeper lists — and the defensive case of a
/// copy on a *non*-potential arc — live in `spill`, a small vec sorted by
/// [`arc_key`]. The representation is canonical: unused inline slots hold
/// [`EMPTY_SLOT`], and a spill entry exists iff the arc's values exceed its
/// inline capacity — so `PartialEq` is three slice/vec compares and no
/// mutation-history noise can leak into state equality.
///
/// Value lists are LIFO: the journals only ever pop the most recent push,
/// which is what keeps the canonical form O(1) to maintain.
#[derive(Debug)]
pub struct ArcVals {
    index: Arc<ArcIndex>,
    slots: Vec<NodeId>,
    lens: Vec<u16>,
    spill: Vec<(u64, Vec<NodeId>)>,
}

impl Clone for ArcVals {
    fn clone(&self) -> Self {
        ArcVals {
            index: Arc::clone(&self.index),
            slots: self.slots.clone(),
            lens: self.lens.clone(),
            spill: self.spill.clone(),
        }
    }

    /// Reuse the existing buffers (the engine's state arena recycles freed
    /// states, so same-shape clones must not reallocate).
    fn clone_from(&mut self, src: &Self) {
        self.index = Arc::clone(&src.index);
        self.slots.clone_from(&src.slots);
        self.lens.clone_from(&src.lens);
        // Element-wise, so each spilled arc keeps its value buffer (a
        // tuple's `clone_from` would clone the inner `Vec` afresh).
        self.spill.truncate(src.spill.len());
        let kept = self.spill.len();
        for (dst, s) in self.spill.iter_mut().zip(&src.spill) {
            dst.0 = s.0;
            dst.1.clone_from(&s.1);
        }
        self.spill.extend_from_slice(&src.spill[kept..]);
    }
}

impl PartialEq for ArcVals {
    /// Content equality; states of one run share one `ArcIndex`, so the
    /// numbering never differs and only the value payload is compared.
    fn eq(&self, other: &Self) -> bool {
        self.lens == other.lens && self.slots == other.slots && self.spill == other.spill
    }
}
impl Eq for ArcVals {}

impl ArcVals {
    /// Empty table over `index`'s arc numbering.
    pub fn new(index: Arc<ArcIndex>) -> Self {
        let n = index.num_arcs();
        ArcVals {
            slots: vec![EMPTY_SLOT; n * ARC_CAP],
            lens: vec![0; n],
            spill: Vec::new(),
            index,
        }
    }

    #[inline]
    fn spill_pos(&self, key: u64) -> Result<usize, usize> {
        self.spill.binary_search_by_key(&key, |e| e.0)
    }

    /// Number of values on arc `src → dst`.
    #[inline]
    pub fn len(&self, src: PgNodeId, dst: PgNodeId) -> usize {
        match self.index.arc_id(src, dst) {
            Some(id) => usize::from(self.lens[id as usize]),
            None => self
                .spill_pos(arc_key(src, dst))
                .map_or(0, |i| self.spill[i].1.len()),
        }
    }

    /// Is arc `src → dst` empty?
    #[inline]
    pub fn is_empty(&self, src: PgNodeId, dst: PgNodeId) -> bool {
        self.len(src, dst) == 0
    }

    /// Does arc `src → dst` carry value `v`?
    #[inline]
    pub fn contains(&self, src: PgNodeId, dst: PgNodeId, v: NodeId) -> bool {
        match self.index.arc_id(src, dst) {
            Some(id) => {
                let idx = id as usize;
                let len = usize::from(self.lens[idx]);
                let inline = &self.slots[idx * ARC_CAP..idx * ARC_CAP + len.min(ARC_CAP)];
                if inline.contains(&v) {
                    return true;
                }
                len > ARC_CAP
                    && self
                        .spill_pos(arc_key(src, dst))
                        .is_ok_and(|i| self.spill[i].1.contains(&v))
            }
            None => self
                .spill_pos(arc_key(src, dst))
                .is_ok_and(|i| self.spill[i].1.contains(&v)),
        }
    }

    /// Append `v` to arc `src → dst` (caller guarantees it is not already
    /// present) and return its position — the arc's length before the push.
    fn push(&mut self, src: PgNodeId, dst: PgNodeId, v: NodeId) -> u32 {
        match self.index.arc_id(src, dst) {
            Some(id) => {
                let idx = id as usize;
                let len = usize::from(self.lens[idx]);
                if len < ARC_CAP {
                    self.slots[idx * ARC_CAP + len] = v;
                } else {
                    let key = arc_key(src, dst);
                    match self.spill_pos(key) {
                        Ok(i) => self.spill[i].1.push(v),
                        Err(i) => self.spill.insert(i, (key, vec![v])),
                    }
                }
                self.lens[idx] = (len + 1) as u16;
                len as u32
            }
            None => {
                let key = arc_key(src, dst);
                match self.spill_pos(key) {
                    Ok(i) => {
                        let vs = &mut self.spill[i].1;
                        vs.push(v);
                        (vs.len() - 1) as u32
                    }
                    Err(i) => {
                        self.spill.insert(i, (key, vec![v]));
                        0
                    }
                }
            }
        }
    }

    /// Pop the most recent value of arc `src → dst` (journals unwind LIFO).
    fn pop_last(&mut self, src: PgNodeId, dst: PgNodeId) {
        match self.index.arc_id(src, dst) {
            Some(id) => {
                let idx = id as usize;
                let len = usize::from(self.lens[idx]);
                debug_assert!(len > 0, "pop from empty arc {src}->{dst}");
                if len > ARC_CAP {
                    let i = self
                        .spill_pos(arc_key(src, dst))
                        .expect("overflowing arc has a spill entry");
                    self.spill[i].1.pop().expect("spill entry is non-empty");
                    if self.spill[i].1.is_empty() {
                        self.spill.remove(i);
                    }
                } else {
                    self.slots[idx * ARC_CAP + len - 1] = EMPTY_SLOT;
                }
                self.lens[idx] = (len - 1) as u16;
            }
            None => {
                let i = self
                    .spill_pos(arc_key(src, dst))
                    .expect("journalled arc exists");
                self.spill[i].1.pop().expect("journalled copy exists");
                if self.spill[i].1.is_empty() {
                    self.spill.remove(i);
                }
            }
        }
    }

    /// Visit every non-empty arc with its values in insertion order. Arc
    /// visiting order is unspecified (indexed arcs first, then off-index
    /// spill arcs) — the cold-path callers sort. The slice passed for
    /// an overflowing arc is assembled in a scratch buffer.
    pub fn for_each_arc<F: FnMut(PgNodeId, PgNodeId, &[NodeId])>(&self, mut f: F) {
        let mut buf: SmallVec<[NodeId; 8]> = SmallVec::new();
        for id in 0..self.index.num_arcs() {
            let len = usize::from(self.lens[id]);
            if len == 0 {
                continue;
            }
            let (src, dst) = self.index.pair(id as u32);
            let inline = &self.slots[id * ARC_CAP..id * ARC_CAP + len.min(ARC_CAP)];
            if len <= ARC_CAP {
                f(src, dst, inline);
            } else {
                buf.clear();
                buf.extend_from_slice(inline);
                let i = self
                    .spill_pos(arc_key(src, dst))
                    .expect("overflowing arc has a spill entry");
                buf.extend_from_slice(&self.spill[i].1);
                f(src, dst, &buf);
            }
        }
        for (key, vs) in &self.spill {
            let (src, dst) = (PgNodeId((key >> 32) as u32), PgNodeId(*key as u32));
            if self.index.arc_id(src, dst).is_none() {
                f(src, dst, vs);
            }
        }
    }

    /// Heap bytes held by this state's table (the shared `ArcIndex` is
    /// accounted once per run as `see.arc_table_bytes`, not per state).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.len() * size_of::<NodeId>()
            + self.lens.len() * size_of::<u16>()
            + self
                .spill
                .iter()
                .map(|(_, vs)| size_of::<(u64, Vec<NodeId>)>() + vs.len() * size_of::<NodeId>())
                .sum::<usize>()
    }
}

/// Per-PG-node resource counters as one lane-major contiguous block:
/// `[issue | alu | ag | recv]`, `n` words per lane. One allocation, so a
/// state clone copies all four former `Vec<u32>` columns in a single
/// `memcpy` and `clone_from` into an arena-recycled state reallocates
/// nothing.
#[derive(Debug, PartialEq, Eq)]
pub struct Loads {
    words: Vec<u32>,
    n: usize,
}

impl Clone for Loads {
    fn clone(&self) -> Self {
        Loads {
            words: self.words.clone(),
            n: self.n,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.words.clone_from(&src.words);
        self.n = src.n;
    }
}

macro_rules! loads_lane {
    ($lane:expr, $get:ident, $get_mut:ident, $all:ident) => {
        #[doc = concat!("Lane `", stringify!($get), "` of PG node `i`.")]
        #[inline]
        pub fn $get(&self, i: usize) -> u32 {
            self.words[$lane * self.n + i]
        }

        #[doc = concat!("Mutable lane `", stringify!($get), "` of PG node `i`.")]
        #[inline]
        pub fn $get_mut(&mut self, i: usize) -> &mut u32 {
            &mut self.words[$lane * self.n + i]
        }

        #[doc = concat!("The whole `", stringify!($get), "` lane, dense over PG node ids.")]
        #[inline]
        pub fn $all(&self) -> &[u32] {
            &self.words[$lane * self.n..($lane + 1) * self.n]
        }
    };
}

impl Loads {
    /// Zeroed counters for a PG with `n` nodes.
    pub fn new(n: usize) -> Self {
        Loads {
            words: vec![0; 4 * n],
            n,
        }
    }

    loads_lane!(0, issue, issue_mut, issue_all);
    loads_lane!(1, alu, alu_mut, alu_all);
    loads_lane!(2, ag, ag_mut, ag_all);
    loads_lane!(3, recv, recv_mut, recv_all);

    /// Heap bytes held by the counter block.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u32>()
    }
}

/// A partial cluster assignment plus its incremental statistics.
///
/// Every mutation goes through [`place`], [`add_copy`] / [`charge_issue`] —
/// they maintain the incremental aggregates (`mii_issue`, `mii_arc`,
/// `util_sq_sum`) that make [`estimated_mii`] and the objective O(1)
/// instead of an O(clusters + arcs) rebuild per candidate. Loads only ever
/// grow, so the aggregates are running maxima/sums; [`undo_assign`] restores
/// them from a snapshot taken by [`apply_assign_logged`].
///
/// [`place`]: PartialState::place
/// [`add_copy`]: PartialState::add_copy
/// [`charge_issue`]: PartialState::charge_issue
/// [`estimated_mii`]: PartialState::estimated_mii
/// [`undo_assign`]: PartialState::undo_assign
/// [`apply_assign_logged`]: PartialState::apply_assign_logged
#[derive(Debug)]
pub struct PartialState {
    /// `DDG̅` so far (includes pre-assigned external producers on input
    /// nodes), dense over the DDG's node ids: `assignment[n]` is the cluster
    /// holding `n`. A flat vector keeps [`cluster_of`] — the single hottest
    /// read in `is_assignable` — one array load, and makes a state clone a
    /// `memcpy` instead of a hash-table rebuild.
    ///
    /// [`cluster_of`]: PartialState::cluster_of
    pub assignment: Vec<Option<PgNodeId>>,
    /// Values on each real arc (flat arc-indexed slot table).
    pub copies: ArcVals,
    /// Per-node resource counters (issue slots incl. receives, ALU ops,
    /// address-generator ops, receive primitives) in one contiguous block.
    pub loads: Loads,
    /// Distinct real in-neighbours per PG node (flat bit matrix: one
    /// allocation, memcpy clone, O(1) membership).
    pub in_neighbors: NeighborSets,
    /// Distinct real out-neighbours per PG node.
    pub out_neighbors: NeighborSets,
    /// Total (value, destination) copy pairs.
    pub total_copies: u32,
    /// Copies whose endpoints sit in one SCC (they stretch a recurrence).
    pub recurrence_copies: u32,
    /// Accumulated critical-path penalty (copies on low-slack edges).
    pub critical_penalty: f64,
    /// Route-through hops added by the Route Allocator.
    pub routed_hops: u32,
    /// Pass-through forwards performed at this level: an external value
    /// entering on a glue-in wire and leaving on a glue-out wire is re-emitted
    /// by the named cluster (one issue slot for the `Route` op).
    pub forwards: Vec<(NodeId, PgNodeId)>,
    /// Cached objective value.
    pub cost: f64,
    /// Running max of per-cluster resource-pressure ceilings (issue, ALU,
    /// address-gen). `u32::MAX` poisons states that put AG work on an
    /// AG-less cluster. Maintained by the mutators; never decreases.
    pub(crate) mii_issue: u32,
    /// Running max of per-arc value pressure (every value on one pattern
    /// consumes a transport slot).
    pub(crate) mii_arc: u32,
    /// Running Σ (issue_load / issue_slots)² over issue-capable clusters.
    pub(crate) util_sq_sum: f64,
    /// Number of issue-capable clusters (constant per context; cached at
    /// [`PartialState::initial`] so the mean stays O(1)).
    pub(crate) util_clusters: u32,
}

impl Clone for PartialState {
    fn clone(&self) -> Self {
        PartialState {
            assignment: self.assignment.clone(),
            copies: self.copies.clone(),
            loads: self.loads.clone(),
            in_neighbors: self.in_neighbors.clone(),
            out_neighbors: self.out_neighbors.clone(),
            total_copies: self.total_copies,
            recurrence_copies: self.recurrence_copies,
            critical_penalty: self.critical_penalty,
            routed_hops: self.routed_hops,
            forwards: self.forwards.clone(),
            cost: self.cost,
            mii_issue: self.mii_issue,
            mii_arc: self.mii_arc,
            util_sq_sum: self.util_sq_sum,
            util_clusters: self.util_clusters,
        }
    }

    /// Overwrite an arena-recycled state in place: every container
    /// `clone_from`s into its existing buffer (same-shape states of one run
    /// reallocate nothing).
    fn clone_from(&mut self, src: &Self) {
        self.assignment.clone_from(&src.assignment);
        self.copies.clone_from(&src.copies);
        self.loads.clone_from(&src.loads);
        self.in_neighbors.clone_from(&src.in_neighbors);
        self.out_neighbors.clone_from(&src.out_neighbors);
        self.total_copies = src.total_copies;
        self.recurrence_copies = src.recurrence_copies;
        self.critical_penalty = src.critical_penalty;
        self.routed_hops = src.routed_hops;
        self.forwards.clone_from(&src.forwards);
        self.cost = src.cost;
        self.mii_issue = src.mii_issue;
        self.mii_arc = src.mii_arc;
        self.util_sq_sum = src.util_sq_sum;
        self.util_clusters = src.util_clusters;
    }
}

/// Undo record of one copy created by [`PartialState::apply_assign_logged`].
#[derive(Clone, Copy, Debug)]
struct CopyUndo {
    /// The arc the value was pushed onto.
    arc: (PgNodeId, PgNodeId),
    /// Did this copy open the `src → dst` in-neighbour entry?
    new_in_neighbor: bool,
    /// Did this copy open the `src → dst` out-neighbour entry?
    new_out_neighbor: bool,
    /// Did the destination (a real cluster) pay the receive issue slot?
    charged_recv: bool,
}

/// One reversible mutation recorded by a [`StateTxn`].
#[derive(Debug)]
enum TxnOp {
    /// A [`PartialState::place`] call (node, cluster).
    Place(NodeId, PgNodeId),
    /// A copy creation ([`PartialState::add_copy_logged`] returned `Some`).
    Copy(CopyUndo),
    /// A bare [`PartialState::charge_issue`] call (cluster, slots).
    Charge(PgNodeId, u32),
}

/// Open-ended transaction journal for the Route Allocator's trial mutations.
///
/// [`AssignUndo`] reverts exactly one `apply_assign_logged`; routing instead
/// performs an arbitrary interleaving of placements, copies and issue
/// charges while probing a candidate cluster, then either keeps or discards
/// the whole attempt. The journal records each mutation plus a snapshot of
/// every scalar aggregate (including `routed_hops` and the floats, where
/// `(a + x) - x` is not guaranteed to equal `a`), so
/// [`PartialState::txn_rollback`] restores the pre-trial state bit-exactly —
/// this is what replaces the per-candidate `st.clone()` in the route paths.
#[derive(Debug)]
pub struct StateTxn {
    ops: Vec<TxnOp>,
    forwards_len: usize,
    total_copies: u32,
    recurrence_copies: u32,
    critical_penalty: f64,
    routed_hops: u32,
    mii_issue: u32,
    mii_arc: u32,
    util_sq_sum: f64,
    cost: f64,
}

/// Journal reverting one [`PartialState::apply_assign_logged`] call.
///
/// Collections are rolled back operation by operation (each copy pops the
/// value it pushed); the scalar aggregates — including the floats, where
/// `(a + x) - x` is not guaranteed to equal `a` — are restored from a
/// snapshot, so an apply→undo round-trip is bit-exact.
#[derive(Debug)]
pub struct AssignUndo {
    node: NodeId,
    cluster: PgNodeId,
    copies: SmallVec<[CopyUndo; 4]>,
    total_copies: u32,
    recurrence_copies: u32,
    critical_penalty: f64,
    mii_issue: u32,
    mii_arc: u32,
    util_sq_sum: f64,
    cost: f64,
}

impl PartialState {
    /// Initial state: nothing assigned except the PG's own special input
    /// nodes, to which the externally-produced values are bound (so that the
    /// generic copy machinery treats "receive from the father" exactly like
    /// "receive from a sibling cluster", §4.1).
    ///
    /// `working_set` lists the nodes this sub-problem will assign itself:
    /// a value that is *produced here* must never be sourced from an input
    /// wire, even when a merged parent wire happens to carry it back in —
    /// doing so creates a circular cross-level dependency (the parent wire's
    /// content ultimately comes from this very group's emission).
    pub fn initial(ctx: &SeeContext<'_>, working_set: &[NodeId]) -> Self {
        let n = ctx.pg.num_nodes();
        // Dense assignment capacity: every DDG node, plus any id carried on
        // a glue wire (defensive — wire values normally are DDG nodes).
        let mut ddg_cap = ctx.ddg.num_nodes();
        for id in ctx.pg.input_ids().chain(ctx.pg.output_ids()) {
            match &ctx.pg.node(id).kind {
                PgNodeKind::Input { values, .. } | PgNodeKind::Output { values, .. } => {
                    for &v in values {
                        ddg_cap = ddg_cap.max(v.index() + 1);
                    }
                }
                _ => {}
            }
        }
        let util_clusters = ctx
            .pg
            .cluster_ids()
            .filter(|&id| ctx.pg.node(id).rt.issue > 0)
            .count() as u32;
        let mut st = PartialState {
            assignment: vec![None; ddg_cap],
            copies: ArcVals::new(Arc::clone(ctx.statics.arc_index())),
            loads: Loads::new(n),
            in_neighbors: NeighborSets::new(n),
            out_neighbors: NeighborSets::new(n),
            total_copies: 0,
            recurrence_copies: 0,
            critical_penalty: 0.0,
            routed_hops: 0,
            forwards: Vec::new(),
            cost: 0.0,
            mii_issue: 0,
            mii_arc: 0,
            util_sq_sum: 0.0,
            util_clusters,
        };
        let ws: FxHashSet<NodeId> = working_set.iter().copied().collect();
        for id in ctx.pg.input_ids() {
            if let PgNodeKind::Input { values, .. } = &ctx.pg.node(id).kind {
                for &v in values {
                    if !ws.contains(&v) {
                        st.assignment[v.index()] = Some(id);
                    }
                }
            }
        }
        st
    }

    /// Cluster currently holding `n`, if assigned.
    #[inline]
    pub fn cluster_of(&self, n: NodeId) -> Option<PgNodeId> {
        self.assignment.get(n.index()).copied().flatten()
    }

    /// Pressure (value count) of the real arc `src → dst`.
    #[inline]
    pub fn arc_pressure(&self, src: PgNodeId, dst: PgNodeId) -> u32 {
        self.copies.len(src, dst) as u32
    }

    /// How many of `c`'s in-neighbours are glue-in (special input) nodes.
    pub fn glue_in_neighbors(&self, ctx: &SeeContext<'_>, c: PgNodeId) -> usize {
        self.in_neighbors
            .iter(c.index())
            .filter(|&s| !ctx.pg.node(s).kind.is_cluster())
            .count()
    }

    /// Per-cluster cap on *directly bound* glue-in wires: half the input
    /// ports, rounded down but at least one. Hoarding the other half for
    /// sibling arcs keeps relay aggregation possible — without this, a
    /// cluster that binds both of its ports to parent wires walls itself off
    /// from the rest of the group and the search dead-ends.
    pub fn glue_in_cap(ctx: &SeeContext<'_>) -> usize {
        ((ctx.constraints.max_in_neighbors as usize) / 2).max(1)
    }

    /// Record value `v` on arc `src → dst` (no-op when already present).
    /// Updates receive counts, in-neighbour sets and copy statistics.
    ///
    /// `via_edge_slack`/`in_recurrence` carry the DDG-edge context used by
    /// the cost criteria; pass `None` for routing hops that correspond to no
    /// DDG edge.
    pub fn add_copy(
        &mut self,
        ctx: &SeeContext<'_>,
        v: NodeId,
        src: PgNodeId,
        dst: PgNodeId,
        via_edge_slack: Option<u32>,
        in_recurrence: bool,
    ) -> bool {
        self.add_copy_logged(ctx, v, src, dst, via_edge_slack, in_recurrence)
            .is_some()
    }

    /// [`add_copy`](PartialState::add_copy), returning the undo record the
    /// delta-scoring engine journals (`None` when the copy already existed).
    fn add_copy_logged(
        &mut self,
        ctx: &SeeContext<'_>,
        v: NodeId,
        src: PgNodeId,
        dst: PgNodeId,
        via_edge_slack: Option<u32>,
        in_recurrence: bool,
    ) -> Option<CopyUndo> {
        if self.copies.contains(src, dst, v) {
            return None;
        }
        let pos = self.copies.push(src, dst, v);
        self.mii_arc = self.mii_arc.max(pos + 1);
        self.total_copies += 1;
        let new_in_neighbor = self.in_neighbors.insert(dst.index(), src);
        let new_out_neighbor = self.out_neighbors.insert(src.index(), dst);
        // Receiving a value costs one issue slot on the destination cluster
        // (the rcv primitive, §2.2) — but only on real clusters: special
        // output nodes model the parent boundary and execute nothing.
        let charged_recv = ctx.pg.node(dst).kind.is_cluster();
        if charged_recv {
            *self.loads.recv_mut(dst.index()) += 1;
            self.charge_issue(ctx, dst, 1);
        }
        if in_recurrence {
            self.recurrence_copies += 1;
        }
        if let Some(slack) = via_edge_slack {
            // A copy on a tight edge stretches the schedule: weigh it by how
            // little slack the edge has to absorb the transport latency.
            let lat = f64::from(ctx.constraints.copy_latency);
            let room = f64::from(slack);
            self.critical_penalty += (lat / (1.0 + room)).min(lat);
        }
        Some(CopyUndo {
            arc: (src, dst),
            new_in_neighbor,
            new_out_neighbor,
            charged_recv,
        })
    }

    /// Pop the journalled copy `cu` (shared by [`undo_assign`] and
    /// [`txn_rollback`]): pop the arc's last value, close any
    /// neighbour entries the copy opened and refund the receive charge.
    ///
    /// [`undo_assign`]: PartialState::undo_assign
    /// [`txn_rollback`]: PartialState::txn_rollback
    fn undo_copy(&mut self, cu: &CopyUndo) {
        let (src, dst) = cu.arc;
        self.copies.pop_last(src, dst);
        if cu.new_in_neighbor {
            self.in_neighbors.remove(dst.index(), src);
        }
        if cu.new_out_neighbor {
            self.out_neighbors.remove(src.index(), dst);
        }
        if cu.charged_recv {
            *self.loads.recv_mut(dst.index()) -= 1;
            *self.loads.issue_mut(dst.index()) -= 1;
        }
    }

    /// Reverse one [`place`](PartialState::place) (shared by the journals).
    fn undo_place(&mut self, ctx: &SeeContext<'_>, n: NodeId, c: PgNodeId) {
        self.assignment[n.index()] = None;
        let i = c.index();
        *self.loads.issue_mut(i) -= 1;
        match ctx.ddg.node(n).op.resource_class() {
            hca_ddg::ResourceClass::Alu => *self.loads.alu_mut(i) -= 1,
            hca_ddg::ResourceClass::AddrGen => *self.loads.ag_mut(i) -= 1,
            hca_ddg::ResourceClass::Receive => {}
        }
    }

    /// Charge `slots` extra issue slots on cluster `c`, maintaining the
    /// incremental MII and utilisation aggregates. Every issue-load mutation
    /// outside [`place`](PartialState::place) must go through here.
    pub fn charge_issue(&mut self, ctx: &SeeContext<'_>, c: PgNodeId, slots: u32) {
        let i = c.index();
        let rt = ctx.pg.node(c).rt;
        let old = self.loads.issue(i);
        let new = old + slots;
        *self.loads.issue_mut(i) = new;
        if rt.issue > 0 {
            self.mii_issue = self.mii_issue.max(new.div_ceil(rt.issue));
            let denom = f64::from(rt.issue);
            let ou = f64::from(old) / denom;
            let nu = f64::from(new) / denom;
            self.util_sq_sum += nu * nu - ou * ou;
        }
    }

    /// Book `n` onto cluster `c` and charge its resources — without creating
    /// any copies. The Route Allocator uses this directly and routes the
    /// flows itself; everyone else goes through [`apply_assign`].
    ///
    /// [`apply_assign`]: PartialState::apply_assign
    pub fn place(&mut self, ctx: &SeeContext<'_>, n: NodeId, c: PgNodeId) {
        debug_assert!(
            ctx.pg.node(c).kind.is_cluster(),
            "assigning to special node"
        );
        debug_assert!(self.assignment[n.index()].is_none(), "{n} already assigned");
        self.assignment[n.index()] = Some(c);
        self.charge_issue(ctx, c, 1);
        let i = c.index();
        let rt = ctx.pg.node(c).rt;
        match ctx.ddg.node(n).op.resource_class() {
            hca_ddg::ResourceClass::Alu => {
                let ops = self.loads.alu_mut(i);
                *ops += 1;
                let ops = *ops;
                if rt.alu > 0 {
                    self.mii_issue = self.mii_issue.max(ops.div_ceil(rt.alu));
                }
            }
            hca_ddg::ResourceClass::AddrGen => {
                let ops = self.loads.ag_mut(i);
                *ops += 1;
                let ops = *ops;
                if rt.addr_gen > 0 {
                    self.mii_issue = self.mii_issue.max(ops.div_ceil(rt.addr_gen));
                } else {
                    // AG work on an AG-less cluster: infeasible, poison.
                    self.mii_issue = u32::MAX;
                }
            }
            hca_ddg::ResourceClass::Receive => {}
        }
    }

    /// Assign DDG node `n` to cluster `c`, creating every induced copy:
    /// from each assigned producer of `n`'s operands, towards each assigned
    /// consumer of `n`'s value, and towards output special nodes listing it.
    ///
    /// The caller must have verified assignability; this method only applies.
    pub fn apply_assign(&mut self, ctx: &SeeContext<'_>, n: NodeId, c: PgNodeId) {
        let _ = self.apply_assign_logged(ctx, n, c);
    }

    /// [`apply_assign`](PartialState::apply_assign), returning the journal
    /// that [`undo_assign`](PartialState::undo_assign) reverts. This is the
    /// delta-scoring hot path: the engine applies a candidate to the live
    /// frontier state, reads `cost`, and undoes — no clone per trial.
    pub fn apply_assign_logged(
        &mut self,
        ctx: &SeeContext<'_>,
        n: NodeId,
        c: PgNodeId,
    ) -> AssignUndo {
        let mut undo = AssignUndo {
            node: n,
            cluster: c,
            copies: SmallVec::new(),
            total_copies: self.total_copies,
            recurrence_copies: self.recurrence_copies,
            critical_penalty: self.critical_penalty,
            mii_issue: self.mii_issue,
            mii_arc: self.mii_arc,
            util_sq_sum: self.util_sq_sum,
            cost: self.cost,
        };
        self.place(ctx, n, c);
        let scc = &ctx.analysis.scc;
        // Operand flows into n. Constants never travel: the configuration
        // loader replicates them into every register file before the loop
        // starts (§2.2's reconfiguration phase), so they cost neither a wire
        // nor a receive.
        for (_, e) in ctx.ddg.pred_edges(n) {
            if ctx.ddg.node(e.src).op == hca_ddg::Opcode::Const {
                continue;
            }
            if let Some(cp) = self.cluster_of(e.src) {
                if cp != c {
                    let slack = edge_slack(ctx, e);
                    let rec = scc[e.src.index()] == scc[e.dst.index()]
                        && ctx.pg.node(cp).kind.is_cluster();
                    undo.copies
                        .extend(self.add_copy_logged(ctx, e.src, cp, c, Some(slack), rec));
                }
            }
        }
        // n's value flows to already-assigned consumers.
        if ctx.ddg.node(n).op != hca_ddg::Opcode::Const {
            for (_, e) in ctx.ddg.succ_edges(n) {
                if e.dst == n {
                    continue; // self recurrence needs no transport
                }
                if let Some(cs) = self.cluster_of(e.dst) {
                    if cs != c && ctx.pg.node(cs).kind.is_cluster() {
                        let slack = edge_slack(ctx, e);
                        let rec = scc[e.src.index()] == scc[e.dst.index()];
                        undo.copies
                            .extend(self.add_copy_logged(ctx, n, c, cs, Some(slack), rec));
                    }
                }
            }
        }
        // n's value flows up through every output wire listing it.
        for &o in ctx.statics.outputs_carrying(n) {
            undo.copies
                .extend(self.add_copy_logged(ctx, n, c, o, None, false));
        }
        self.cost = crate::cost::objective(ctx, self);
        undo
    }

    /// Revert one [`apply_assign_logged`](PartialState::apply_assign_logged)
    /// (the most recent — journals must unwind LIFO). Collections roll back
    /// op by op; scalar aggregates restore from the snapshot, so the state
    /// is bit-identical to before the apply.
    pub fn undo_assign(&mut self, ctx: &SeeContext<'_>, undo: AssignUndo) {
        for cu in undo.copies.iter().rev() {
            self.undo_copy(cu);
        }
        self.undo_place(ctx, undo.node, undo.cluster);
        self.total_copies = undo.total_copies;
        self.recurrence_copies = undo.recurrence_copies;
        self.critical_penalty = undo.critical_penalty;
        self.mii_issue = undo.mii_issue;
        self.mii_arc = undo.mii_arc;
        self.util_sq_sum = undo.util_sq_sum;
        self.cost = undo.cost;
    }

    /// Open a routing transaction: snapshot every scalar aggregate of the
    /// current state. Mutations made through the `*_txn` methods are
    /// journalled into it; [`txn_rollback`](PartialState::txn_rollback)
    /// reverts them LIFO and restores the snapshot bit-exactly.
    pub fn txn_begin(&self) -> StateTxn {
        StateTxn {
            ops: Vec::new(),
            forwards_len: self.forwards.len(),
            total_copies: self.total_copies,
            recurrence_copies: self.recurrence_copies,
            critical_penalty: self.critical_penalty,
            routed_hops: self.routed_hops,
            mii_issue: self.mii_issue,
            mii_arc: self.mii_arc,
            util_sq_sum: self.util_sq_sum,
            cost: self.cost,
        }
    }

    /// Journalled [`place`](PartialState::place).
    pub fn place_txn(&mut self, ctx: &SeeContext<'_>, n: NodeId, c: PgNodeId, txn: &mut StateTxn) {
        self.place(ctx, n, c);
        txn.ops.push(TxnOp::Place(n, c));
    }

    /// Journalled [`add_copy`](PartialState::add_copy). Returns `true` when
    /// a new copy was created (`false` = the value was already on the arc).
    pub fn add_copy_txn(
        &mut self,
        ctx: &SeeContext<'_>,
        v: NodeId,
        src: PgNodeId,
        dst: PgNodeId,
        via_edge_slack: Option<u32>,
        in_recurrence: bool,
        txn: &mut StateTxn,
    ) -> bool {
        match self.add_copy_logged(ctx, v, src, dst, via_edge_slack, in_recurrence) {
            Some(cu) => {
                txn.ops.push(TxnOp::Copy(cu));
                true
            }
            None => false,
        }
    }

    /// Journalled [`charge_issue`](PartialState::charge_issue).
    pub fn charge_issue_txn(
        &mut self,
        ctx: &SeeContext<'_>,
        c: PgNodeId,
        slots: u32,
        txn: &mut StateTxn,
    ) {
        self.charge_issue(ctx, c, slots);
        txn.ops.push(TxnOp::Charge(c, slots));
    }

    /// Revert every mutation journalled since
    /// [`txn_begin`](PartialState::txn_begin) (LIFO) and restore the scalar
    /// snapshot. The state is bit-identical to before the transaction.
    ///
    /// Direct scalar mutations made during the trial (`routed_hops`, `cost`)
    /// need no journal entries — they are covered by the snapshot.
    pub fn txn_rollback(&mut self, ctx: &SeeContext<'_>, txn: StateTxn) {
        for op in txn.ops.into_iter().rev() {
            match op {
                TxnOp::Place(n, c) => self.undo_place(ctx, n, c),
                TxnOp::Copy(cu) => self.undo_copy(&cu),
                TxnOp::Charge(c, slots) => {
                    *self.loads.issue_mut(c.index()) -= slots;
                }
            }
        }
        self.forwards.truncate(txn.forwards_len);
        self.total_copies = txn.total_copies;
        self.recurrence_copies = txn.recurrence_copies;
        self.critical_penalty = txn.critical_penalty;
        self.routed_hops = txn.routed_hops;
        self.mii_issue = txn.mii_issue;
        self.mii_arc = txn.mii_arc;
        self.util_sq_sum = txn.util_sq_sum;
        self.cost = txn.cost;
    }

    /// The objective's aggregate inputs as currently accumulated — the
    /// bridge between this state and [`crate::cost::objective_from_parts`].
    #[inline]
    pub(crate) fn cost_inputs(&self) -> crate::cost::CostInputs {
        crate::cost::CostInputs {
            total_copies: self.total_copies,
            recurrence_copies: self.recurrence_copies,
            critical_penalty: self.critical_penalty,
            routed_hops: self.routed_hops,
            mii_issue: self.mii_issue,
            mii_arc: self.mii_arc,
            util_sq_sum: self.util_sq_sum,
            util_clusters: self.util_clusters,
        }
    }

    /// Estimated final MII of the partial solution (§4.2): the max of the
    /// DDG's MIIRec, the per-cluster issue pressure (instructions plus
    /// receives over issue slots, and per-class pressure), and the worst arc
    /// pressure (every value on one pattern consumes a transport slot).
    ///
    /// O(1): reads the running aggregates the mutators maintain. Loads and
    /// arc pressures only ever grow within one state's lifetime, so running
    /// maxima are exact; AG work on an AG-less cluster poisons `mii_issue`
    /// to `u32::MAX`.
    pub fn estimated_mii(&self, ctx: &SeeContext<'_>) -> u32 {
        ctx.analysis
            .mii_rec
            .max(self.mii_issue)
            .max(self.mii_arc)
            .max(1)
    }

    /// Highest per-issue-slot utilisation across clusters.
    pub fn max_utilization(&self, ctx: &SeeContext<'_>) -> f64 {
        let mut worst: f64 = 0.0;
        for id in ctx.pg.cluster_ids() {
            let rt = ctx.pg.node(id).rt;
            if rt.issue > 0 {
                worst = worst.max(f64::from(self.loads.issue(id.index())) / f64::from(rt.issue));
            }
        }
        worst
    }

    /// Mean *squared* per-issue-slot utilisation — the load-balance
    /// criterion. Convexity matters: below the recurrence-MII bound the
    /// pressure term is flat (packing one cluster and spreading both meet
    /// MIIRec), but concentrated placements explode into receive storms and
    /// port contention one hierarchy level down. The squared term keeps a
    /// spreading gradient alive everywhere.
    #[inline]
    pub fn utilization_sq_mean(&self, _ctx: &SeeContext<'_>) -> f64 {
        // O(1): `util_sq_sum` is maintained incrementally by `charge_issue`.
        if self.util_clusters == 0 {
            0.0
        } else {
            self.util_sq_sum / f64::from(self.util_clusters)
        }
    }

    /// Approximate heap footprint of this state in bytes — used by the
    /// engine to track peak frontier memory for the throughput benches.
    /// Counts element payloads plus a flat per-container overhead; exactness
    /// is not the point, comparability across beam widths is.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        bytes += self.assignment.len() * size_of::<Option<PgNodeId>>();
        bytes += self.copies.heap_bytes();
        bytes += self.loads.heap_bytes();
        bytes += self.in_neighbors.heap_bytes() + self.out_neighbors.heap_bytes();
        bytes += self.forwards.len() * size_of::<(NodeId, PgNodeId)>();
        bytes
    }

    /// Freeze into the [`AssignedPg`] handed to the Mapper.
    pub fn into_assigned(self, pg: &Pg) -> AssignedPg {
        let mut copies = hca_pg::CopyMap::default();
        self.copies.for_each_arc(|s, d, vs| {
            copies.insert((s, d), vs.to_vec());
        });
        let assignment = self
            .assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &slot)| slot.map(|c| (NodeId(i as u32), c)))
            .collect();
        AssignedPg {
            pg: pg.clone(),
            assignment,
            copies,
            forwards: self.forwards,
        }
    }
}

/// Slack of a dependence edge: how many cycles of transport latency the edge
/// can absorb without stretching the schedule. Intra-iteration edges use the
/// ALAP/ASAP slack of the consumer; loop-carried edges get slack
/// proportional to `II · distance` headroom (approximated with MIIRec).
pub(crate) fn edge_slack(ctx: &SeeContext<'_>, e: hca_ddg::DdgEdge) -> u32 {
    if e.distance == 0 {
        let lv = &ctx.analysis.levels;
        lv.alap[e.dst.index()].saturating_sub(lv.asap[e.src.index()] + e.latency)
    } else {
        (ctx.analysis.mii_rec * e.distance).saturating_sub(e.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::ResourceTable;
    use hca_ddg::{DdgBuilder, Opcode};
    use hca_pg::{Ili, IliWire};

    fn ctx_fixture(ddg: &Ddg, _pg: &Pg) -> (DdgAnalysis, ArchConstraints) {
        let an = DdgAnalysis::compute(ddg).unwrap();
        let cons = ArchConstraints {
            max_in_neighbors: 4,
            max_out_neighbors: None,
            out_node_max_in: 1,
            copy_latency: 1,
        };
        (an, cons)
    }

    #[test]
    fn initial_state_binds_input_values() {
        let mut b = DdgBuilder::default();
        let ext = b.node(Opcode::Load);
        let _ = b.node(Opcode::Add);
        let ddg = b.finish();
        let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![ext])],
            outputs: vec![],
        });
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let st = PartialState::initial(&ctx, &[]);
        let inp = pg.input_ids().next().unwrap();
        assert_eq!(st.cluster_of(ext), Some(inp));
    }

    #[test]
    fn apply_assign_creates_copies_and_recv() {
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q = b.node(Opcode::Add);
        b.flow(p, q);
        let ddg = b.finish();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, p, PgNodeId(0));
        assert_eq!(st.total_copies, 0);
        st.apply_assign(&ctx, q, PgNodeId(1));
        assert_eq!(st.total_copies, 1);
        assert_eq!(st.arc_pressure(PgNodeId(0), PgNodeId(1)), 1);
        // q's cluster pays the receive issue slot on top of its own op.
        assert_eq!(st.loads.issue(1), 2);
        assert_eq!(st.loads.recv(1), 1);
        assert!(st.in_neighbors.contains(1, PgNodeId(0)));
    }

    #[test]
    fn copies_deduplicate_per_value_and_arc() {
        // p feeds two consumers on the same remote cluster: one copy.
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q1 = b.node(Opcode::Add);
        let q2 = b.node(Opcode::Add);
        b.flow(p, q1);
        b.flow(p, q2);
        let ddg = b.finish();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, p, PgNodeId(0));
        st.apply_assign(&ctx, q1, PgNodeId(1));
        st.apply_assign(&ctx, q2, PgNodeId(1));
        assert_eq!(st.total_copies, 1);
        assert_eq!(st.loads.recv(1), 1);
    }

    #[test]
    fn recurrence_copies_counted() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        b.flow(a, c);
        b.carried(c, a, 1);
        let ddg = b.finish();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, a, PgNodeId(0));
        st.apply_assign(&ctx, c, PgNodeId(1));
        // Both the a→c and the carried c→a flow cross clusters inside one SCC.
        assert_eq!(st.total_copies, 2);
        assert_eq!(st.recurrence_copies, 2);
    }

    #[test]
    fn estimated_mii_tracks_issue_pressure() {
        let mut b = DdgBuilder::default();
        let nodes: Vec<NodeId> = (0..6).map(|_| b.node(Opcode::Add)).collect();
        let ddg = b.finish();
        let pg = Pg::complete(2, ResourceTable::of_cns(1)); // single-issue
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        for (i, &n) in nodes.iter().enumerate() {
            st.apply_assign(&ctx, n, PgNodeId((i % 2) as u32));
        }
        assert_eq!(st.estimated_mii(&ctx), 3); // 3 ops per single-issue CN
        assert!((st.max_utilization(&ctx) - 3.0).abs() < 1e-9);
    }

    /// Field-by-field equality, with floats compared bit-for-bit: undo
    /// restores scalar snapshots, so even rounding noise must vanish.
    fn assert_states_identical(a: &PartialState, b: &PartialState) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.copies, b.copies);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.in_neighbors, b.in_neighbors);
        assert_eq!(a.out_neighbors, b.out_neighbors);
        assert_eq!(a.total_copies, b.total_copies);
        assert_eq!(a.recurrence_copies, b.recurrence_copies);
        assert_eq!(a.critical_penalty.to_bits(), b.critical_penalty.to_bits());
        assert_eq!(a.routed_hops, b.routed_hops);
        assert_eq!(a.forwards, b.forwards);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.mii_issue, b.mii_issue);
        assert_eq!(a.mii_arc, b.mii_arc);
        assert_eq!(a.util_sq_sum.to_bits(), b.util_sq_sum.to_bits());
        assert_eq!(a.util_clusters, b.util_clusters);
    }

    #[test]
    fn apply_undo_round_trips_exactly() {
        // A shape that exercises every journal entry: cross-cluster flows
        // (copies + recv loads), a carried edge (recurrence copies), and a
        // shared producer (copy dedup) — then trial-assign each remaining
        // node on each cluster and undo, demanding the pre-trial state back
        // bit-for-bit.
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q1 = b.node(Opcode::Add);
        let q2 = b.node(Opcode::Add);
        let r = b.node(Opcode::Add);
        b.flow(p, q1);
        b.flow(p, q2);
        b.flow(q1, r);
        b.carried(r, p, 1);
        let ddg = b.finish();
        let pg = Pg::complete(3, ResourceTable::of_cns(2));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, p, PgNodeId(0));
        st.apply_assign(&ctx, q1, PgNodeId(1));

        for node in [q2, r] {
            for cluster in 0..3u32 {
                let before = st.clone();
                let undo = st.apply_assign_logged(&ctx, node, PgNodeId(cluster));
                assert!(st.cluster_of(node).is_some(), "trial assignment landed");
                st.undo_assign(&ctx, undo);
                assert_states_identical(&before, &st);
            }
            // Commit one for real so the next node's trials see deeper state.
            st.apply_assign(&ctx, node, PgNodeId(2));
        }
        assert_eq!(st.total_copies, 4);
    }

    #[test]
    fn arc_overflow_spills_and_round_trips() {
        // Push one value past the inline arc capacity so the spill path runs,
        // then unwind back through it: the canonical form (sentinel slots,
        // spill entry iff len > cap) must make the round-trip bit-exact.
        let mut b = DdgBuilder::default();
        let producers: Vec<NodeId> = (0..ARC_CAP as u32 + 1)
            .map(|_| b.node(Opcode::Add))
            .collect();
        let q = b.node(Opcode::Add);
        for &p in &producers {
            b.flow(p, q);
        }
        let ddg = b.finish();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        for &p in &producers {
            st.apply_assign(&ctx, p, PgNodeId(0));
        }
        let before = st.clone();
        let undo = st.apply_assign_logged(&ctx, q, PgNodeId(1));
        // All producers copy onto the single 0→1 arc: one value deep in spill.
        let arc = (PgNodeId(0), PgNodeId(1));
        assert_eq!(st.arc_pressure(arc.0, arc.1), ARC_CAP as u32 + 1);
        for &p in &producers {
            assert!(st.copies.contains(arc.0, arc.1, p), "{p} on the arc");
        }
        assert_eq!(st.mii_arc, ARC_CAP as u32 + 1);
        let mut seen = Vec::new();
        st.copies.for_each_arc(|s, d, vs| {
            assert_eq!((s, d), arc);
            seen = vs.to_vec();
        });
        assert_eq!(seen, producers, "insertion order preserved across spill");
        st.undo_assign(&ctx, undo);
        assert_states_identical(&before, &st);
    }

    #[test]
    fn txn_rollback_round_trips_exactly() {
        // A routing-flavoured trial: place a node, thread a value through an
        // intermediate hop (two copies), charge a forward slot, bump the
        // scalar hop counter and overwrite the cached cost — then roll back
        // and demand the pre-trial state bit-for-bit.
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q = b.node(Opcode::Add);
        b.flow(p, q);
        let ddg = b.finish();
        let pg = Pg::complete(3, ResourceTable::of_cns(2));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, p, PgNodeId(0));
        let before = st.clone();

        let mut txn = st.txn_begin();
        st.place_txn(&ctx, q, PgNodeId(2), &mut txn);
        assert!(st.add_copy_txn(&ctx, p, PgNodeId(0), PgNodeId(1), None, false, &mut txn));
        assert!(st.add_copy_txn(&ctx, p, PgNodeId(1), PgNodeId(2), None, false, &mut txn));
        // Re-adding the same value on the same arc is a no-op …
        assert!(!st.add_copy_txn(&ctx, p, PgNodeId(0), PgNodeId(1), None, false, &mut txn));
        st.charge_issue_txn(&ctx, PgNodeId(1), 1, &mut txn);
        st.forwards.push((p, PgNodeId(1)));
        st.routed_hops += 1;
        st.cost = crate::cost::objective(&ctx, &st);
        assert_ne!(st.total_copies, before.total_copies);

        st.txn_rollback(&ctx, txn);
        assert_states_identical(&before, &st);
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        // The arena overwrites recycled states with `clone_from`; the result
        // must be indistinguishable from a fresh clone, whatever divergent
        // content the recycled state accumulated.
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q = b.node(Opcode::Add);
        let r = b.node(Opcode::Add);
        b.flow(p, q);
        b.flow(q, r);
        let ddg = b.finish();
        let pg = Pg::complete(3, ResourceTable::of_cns(2));
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut a = PartialState::initial(&ctx, &[]);
        a.apply_assign(&ctx, p, PgNodeId(0));
        a.apply_assign(&ctx, q, PgNodeId(1));
        let mut recycled = PartialState::initial(&ctx, &[]);
        recycled.apply_assign(&ctx, p, PgNodeId(2));
        recycled.apply_assign(&ctx, r, PgNodeId(0));
        recycled.clone_from(&a);
        assert_states_identical(&a, &recycled);
    }

    #[test]
    fn output_node_copy_has_no_recv_cost() {
        let mut b = DdgBuilder::default();
        let k = b.node(Opcode::Add);
        let ddg = b.finish();
        let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
        pg.attach_ili(&Ili {
            inputs: vec![],
            outputs: vec![IliWire::new(vec![k])],
        });
        let (an, cons) = ctx_fixture(&ddg, &pg);
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: cons,
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let out = pg.output_ids().next().unwrap();
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, k, PgNodeId(0));
        assert_eq!(st.arc_pressure(PgNodeId(0), out), 1);
        assert_eq!(st.loads.recv(out.index()), 0);
        assert_eq!(st.loads.issue(out.index()), 0);
    }
}
