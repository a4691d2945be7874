//! The `isAssignable` interface (paper §3).
//!
//! "For each node c of the PG, SEE checks if the current node n is
//! Assignable to c, by taking into account the resource consumption and the
//! availability of communication patterns."
//!
//! The implementation mirrors the paper's example policy: a cluster is a
//! valid candidate only when every already-assigned neighbour can reach it
//! *directly* over a potential pattern without violating the MUX input
//! budgets; the escape hatch for over-constrained situations is the Route
//! Allocator (the no-candidates action), not this check.
//!
//! The query is split in two. [`node_view`] folds everything that depends
//! only on `(state, n)` — not on the candidate — into a *candidate bitmask*
//! (one `u64` word block over PG node ids): executability of the opcode,
//! reachability from every assigned producer, reachability to every assigned
//! consumer, and the output-wire co-location rule are each one bulk AND of
//! precomputed rows. [`assignable_dynamic`] then checks only the genuinely
//! per-candidate arithmetic (port counting, issue pressure) for the
//! candidates that survive the mask.

use crate::state::{PartialState, SeeContext};
use hca_ddg::NodeId;
use hca_pg::PgNodeId;
use smallvec::SmallVec;

/// The parts of the `isAssignable` query that depend only on `(state, n)`,
/// not on the candidate cluster. The engine probes every cluster of the PG
/// against the same state, so walking the DDG's pred/succ edges and reading
/// `cluster_of` once per state — instead of once per (state, candidate) —
/// takes the O(clusters · degree) edge traffic out of the hottest loop, and
/// the candidate bitmask removes the per-candidate reachability probes too.
pub struct NodeView {
    /// One entry per assigned non-const operand edge, in DDG edge order,
    /// carrying everything the per-candidate copy bookkeeping needs: the
    /// producer's cluster, the travelling value, and the edge's slack and
    /// recurrence flags (candidate-independent, so computed once here
    /// instead of once per cluster probe).
    producers: SmallVec<[ProducerEdge; 4]>,
    /// One entry per assigned real-cluster result edge (empty for constants
    /// — they are replicated at configuration time), in DDG edge order.
    consumers: SmallVec<[ConsumerEdge; 4]>,
    /// Candidate bitmask over PG node ids: bit `c` survives iff `c` passes
    /// every candidate-independent check (executability, producer/consumer
    /// reachability, output co-location). Always a subset of the cluster
    /// ids, so iterating its set bits visits candidates in ascending order.
    mask: SmallVec<[u64; 4]>,
    /// Producer-side aggregates for the scorer's fast path (`None` when two
    /// producers carry the same value over the same arc, which would make
    /// the trial's dedup observable). See [`score_if_assignable`].
    fast: Option<ProdFast>,
}

/// Candidate-independent producer totals: when a candidate has no existing
/// traffic from any producer cluster, every operand induces exactly one
/// fresh copy, so the trial's whole producer pass reduces to these numbers.
struct ProdFast {
    /// Distinct producer clusters with their multiplicities, in first-seen
    /// (DDG edge) order.
    distinct: SmallVec<[(PgNodeId, u32); 4]>,
    /// Largest multiplicity — the arc position count (`mii_arc`) a fresh
    /// arc would reach.
    max_group: u32,
    /// Number of producers (= copies created on the fast path).
    copies: u32,
    /// How many of those copies sit inside a recurrence.
    recurrence: u32,
    /// `st.critical_penalty` folded with every producer's latency term in
    /// edge order — the exact value the trial's sequential `+=` reaches,
    /// precomputed once per view instead of once per candidate.
    critical: f64,
}

/// Candidate-independent context of one assigned operand edge.
#[derive(Clone, Copy)]
pub(crate) struct ProducerEdge {
    /// Cluster holding the producer.
    pub cluster: PgNodeId,
    /// The value that would travel (the producer DDG node).
    pub value: NodeId,
    /// [`crate::state::edge_slack`] of the DDG edge.
    pub slack: u32,
    /// Copy would sit inside a recurrence SCC (and the producer is a real
    /// cluster) — exactly the `rec` flag `apply_assign_logged` computes.
    pub recurrence: bool,
}

/// Candidate-independent context of one assigned result edge.
#[derive(Clone, Copy)]
pub(crate) struct ConsumerEdge {
    /// Cluster holding the consumer.
    pub cluster: PgNodeId,
    /// [`crate::state::edge_slack`] of the DDG edge.
    pub slack: u32,
    /// Copy would sit inside a recurrence SCC.
    pub recurrence: bool,
}

impl NodeView {
    /// Does candidate `c` survive the static mask?
    #[inline]
    pub fn allows(&self, c: PgNodeId) -> bool {
        let bit = c.index();
        self.mask[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Surviving candidates, in ascending cluster-id order (the same order
    /// the engine used to probe `cluster_ids()` in).
    pub fn candidates(&self) -> impl Iterator<Item = PgNodeId> + '_ {
        self.mask.iter().enumerate().flat_map(|(wi, &w)| {
            let base = (wi * 64) as u32;
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| PgNodeId(base + w.trailing_zeros()))
        })
    }
}

/// AND `row | extra_bit` into `mask` — "candidate c is fine if the row
/// allows it, or if c *is* the node itself" (a producer/consumer on c needs
/// no arc at all).
#[inline]
fn and_row_with_self(mask: &mut [u64], row: &[u64], this: PgNodeId) {
    let bit = this.index();
    for (wi, (m, &r)) in mask.iter_mut().zip(row).enumerate() {
        let own = if bit / 64 == wi {
            1u64 << (bit % 64)
        } else {
            0
        };
        *m &= r | own;
    }
}

/// Collect the candidate-independent operand/result placements of `n` in
/// `st` and fold them into the candidate bitmask (see [`NodeView`]).
pub fn node_view(ctx: &SeeContext<'_>, st: &PartialState, n: NodeId) -> NodeView {
    // (i) Executability: real cluster, issue slots, the opcode's resource
    // class present — all static per PG, precomputed as one mask row.
    let mut mask: SmallVec<[u64; 4]> = ctx
        .statics
        .exec_mask(ctx.ddg.node(n).op.resource_class())
        .iter()
        .copied()
        .collect();
    let mut view = NodeView {
        producers: SmallVec::new(),
        consumers: SmallVec::new(),
        mask: SmallVec::new(),
        fast: None,
    };
    let scc = &ctx.analysis.scc;
    for (_, e) in ctx.ddg.pred_edges(n) {
        if ctx.ddg.node(e.src).op == hca_ddg::Opcode::Const {
            continue; // constants are preloaded, not transported
        }
        if let Some(cp) = st.cluster_of(e.src) {
            // (ii, static part) every assigned producer must reach the
            // candidate directly — or already live on it.
            and_row_with_self(&mut mask, ctx.statics.potential_row_words(cp), cp);
            view.producers.push(ProducerEdge {
                cluster: cp,
                value: e.src,
                slack: crate::state::edge_slack(ctx, e),
                recurrence: scc[e.src.index()] == scc[e.dst.index()]
                    && ctx.pg.node(cp).kind.is_cluster(),
            });
        }
    }
    if ctx.ddg.node(n).op != hca_ddg::Opcode::Const {
        for (_, e) in ctx.ddg.succ_edges(n) {
            if e.dst == n {
                continue;
            }
            let Some(cs) = st.cluster_of(e.dst) else {
                continue;
            };
            if ctx.pg.node(cs).kind.is_cluster() {
                // (iii, static part) the candidate must reach every assigned
                // consumer — or be that consumer's cluster.
                and_row_with_self(&mut mask, ctx.statics.potential_in_row_words(cs), cs);
                view.consumers.push(ConsumerEdge {
                    cluster: cs,
                    slack: crate::state::edge_slack(ctx, e),
                    recurrence: scc[e.src.index()] == scc[e.dst.index()],
                });
            }
        }
    }
    // (v) Output special nodes listing n's value: unary fan-in
    // (`outNode_MaxIn`) — the wire can be fed by c only if every value
    // already on it comes from c too (Figure 10c forces co-location).
    for &o in ctx.statics.outputs_carrying(n) {
        let len = st.in_neighbors.len(o.index());
        let cap = ctx.constraints.out_node_max_in as usize;
        if len > cap {
            // Already over budget: no candidate can feed this wire.
            mask.iter_mut().for_each(|w| *w = 0);
        } else if len == cap {
            // Budget exhausted: only the wire's existing feeders survive.
            for (m, &r) in mask.iter_mut().zip(st.in_neighbors.row_words(o.index())) {
                *m &= r;
            }
        }
        // len < cap: one more feeder always fits — no constraint.
    }
    view.mask = mask;
    view.fast = prod_fast(ctx, st, &view.producers);
    view
}

/// Fold the producer edges into [`ProdFast`] aggregates, or `None` when two
/// producers would push the same `(cluster, value)` pair (the one case
/// where the trial's arc-level dedup changes the outcome).
fn prod_fast(
    ctx: &SeeContext<'_>,
    st: &PartialState,
    producers: &[ProducerEdge],
) -> Option<ProdFast> {
    let mut f = ProdFast {
        distinct: SmallVec::new(),
        max_group: 0,
        copies: producers.len() as u32,
        recurrence: 0,
        critical: st.critical_penalty,
    };
    let lat = f64::from(ctx.constraints.copy_latency);
    for (idx, p) in producers.iter().enumerate() {
        if producers[..idx]
            .iter()
            .any(|q| q.cluster == p.cluster && q.value == p.value)
        {
            return None;
        }
        match f.distinct.iter_mut().find(|(cp, _)| *cp == p.cluster) {
            Some((_, g)) => *g += 1,
            None => f.distinct.push((p.cluster, 1)),
        }
        if p.recurrence {
            f.recurrence += 1;
        }
        let room = f64::from(p.slack);
        f.critical += (lat / (1.0 + room)).min(lat);
    }
    f.max_group = f.distinct.iter().map(|&(_, g)| g).max().unwrap_or(0);
    Some(f)
}

/// Can `n` be assigned to `c` in state `st` without breaking resources or
/// reconfiguration constraints?
pub fn is_assignable(ctx: &SeeContext<'_>, st: &PartialState, n: NodeId, c: PgNodeId) -> bool {
    is_assignable_from(ctx, st, &node_view(ctx, st, n), n, c)
}

/// [`is_assignable`] against a prebuilt [`NodeView`] of the same `(st, n)`:
/// the static candidate mask first, then the per-candidate arithmetic.
pub fn is_assignable_from(
    ctx: &SeeContext<'_>,
    st: &PartialState,
    view: &NodeView,
    n: NodeId,
    c: PgNodeId,
) -> bool {
    view.allows(c) && assignable_dynamic(ctx, st, view, n, c)
}

/// The per-candidate half of `isAssignable`: port counting and issue
/// pressure, for a candidate that already survived [`NodeView::allows`]
/// (which covers executability, reachability and output co-location).
pub fn assignable_dynamic(
    ctx: &SeeContext<'_>,
    st: &PartialState,
    view: &NodeView,
    _n: NodeId,
    c: PgNodeId,
) -> bool {
    let max_in = ctx.constraints.max_in_neighbors as usize;

    // (ii) Operand availability: count the *new* in-neighbours and values
    // assigning here would add to c.
    let mut new_in_c: SmallVec<[PgNodeId; 4]> = SmallVec::new();
    let mut new_values_to_c = 0u32;
    for p in &view.producers {
        let (cp, src) = (p.cluster, p.value);
        if cp == c {
            continue;
        }
        if st.copies.is_empty(cp, c)
            && !st.in_neighbors.contains(c.index(), cp)
            && !new_in_c.contains(&cp)
        {
            new_in_c.push(cp);
        }
        if !st.copies.contains(cp, c, src) {
            new_values_to_c += 1;
        }
    }
    if st.in_neighbors.len(c.index()) + new_in_c.len() > max_in {
        return false;
    }

    // (iii) Result availability: every assigned consumer's cluster needs a
    // spare input port where the arc is new.
    let mut new_out: SmallVec<[PgNodeId; 4]> = SmallVec::new();
    for s in &view.consumers {
        let cs = s.cluster;
        if cs == c {
            continue;
        }
        if !st.in_neighbors.contains(cs.index(), c) {
            if st.in_neighbors.len(cs.index()) + 1 > max_in {
                return false;
            }
            if !new_out.contains(&cs) {
                new_out.push(cs);
            }
        }
    }

    // (iv) Optional out-neighbour budget (unlimited on DSPFabric: broadcast).
    if let Some(limit) = ctx.constraints.max_out_neighbors {
        let outs = st.out_neighbors.len(c.index())
            + new_out
                .iter()
                .filter(|&&d| !st.out_neighbors.contains(c.index(), d))
                .count();
        if outs > limit as usize {
            return false;
        }
    }

    // (vi) Optional issue-pressure ceiling: the op itself plus the receives
    // it forces on c must stay under `cap · issue_slots`.
    if let Some(cap) = ctx.issue_cap {
        let budget = cap.saturating_mul(ctx.pg.node(c).rt.issue);
        if st.loads.issue(c.index()) + 1 + new_values_to_c > budget {
            return false;
        }
    }

    true
}

/// Trial-local aggregate accumulator behind [`score_assign`]: the objective
/// inputs a hypothetical assignment would produce, tracked in locals so the
/// state itself is never touched. Every floating-point operation replays the
/// exact sequence `apply_assign_logged` would execute (same operands, same
/// order), which is what makes the score bit-identical to apply-read-undo.
struct ScoreTrial {
    total_copies: u32,
    recurrence_copies: u32,
    critical_penalty: f64,
    mii_issue: u32,
    mii_arc: u32,
    util_sq_sum: f64,
    /// Issue loads of the clusters this trial has charged, `(node index,
    /// load)` — seeded lazily from the state on first touch.
    issue: SmallVec<[(u32, u32); 4]>,
    /// Copies this trial has created, `(src, dst, value)` in creation
    /// order — the dedup and position context `ArcVals::push` would have.
    added: SmallVec<[(PgNodeId, PgNodeId, NodeId); 8]>,
}

impl ScoreTrial {
    /// Mirror of [`PartialState::charge_issue`] over trial-local loads.
    fn charge_issue(&mut self, ctx: &SeeContext<'_>, st: &PartialState, c: PgNodeId, slots: u32) {
        let i = c.index();
        let rt = ctx.pg.node(c).rt;
        let slot = self.issue.iter().position(|&(ci, _)| ci == i as u32);
        let old = match slot {
            Some(s) => self.issue[s].1,
            None => st.loads.issue(i),
        };
        let new = old + slots;
        match slot {
            Some(s) => self.issue[s].1 = new,
            None => self.issue.push((i as u32, new)),
        }
        if rt.issue > 0 {
            self.mii_issue = self.mii_issue.max(new.div_ceil(rt.issue));
            let denom = f64::from(rt.issue);
            let ou = f64::from(old) / denom;
            let nu = f64::from(new) / denom;
            self.util_sq_sum += nu * nu - ou * ou;
        }
    }

    /// Mirror of `PartialState::add_copy_logged`, minus the structural
    /// bookkeeping (signature, neighbour sets, receive counters) that the
    /// objective never reads. Returns whether the value is absent from the
    /// arc *in the underlying state* — the quantity the issue-cap screen
    /// counts (deliberately ignoring trial-local dedup, exactly like
    /// `assignable_dynamic`'s `new_values_to_c` probe against `st`).
    fn add_copy(
        &mut self,
        ctx: &SeeContext<'_>,
        st: &PartialState,
        v: NodeId,
        src: PgNodeId,
        dst: PgNodeId,
        via_edge_slack: Option<u32>,
        in_recurrence: bool,
    ) -> bool {
        if st.copies.contains(src, dst, v) {
            return false; // already present: apply would have been a no-op
        }
        if self
            .added
            .iter()
            .any(|&(a, b, x)| a == src && b == dst && x == v)
        {
            return true; // new to the state, but this trial already added it
        }
        let pos = st.copies.len(src, dst)
            + self
                .added
                .iter()
                .filter(|&&(a, b, _)| a == src && b == dst)
                .count();
        self.added.push((src, dst, v));
        self.mii_arc = self.mii_arc.max(pos as u32 + 1);
        self.total_copies += 1;
        if ctx.pg.node(dst).kind.is_cluster() {
            self.charge_issue(ctx, st, dst, 1);
        }
        if in_recurrence {
            self.recurrence_copies += 1;
        }
        if let Some(slack) = via_edge_slack {
            let lat = f64::from(ctx.constraints.copy_latency);
            let room = f64::from(slack);
            self.critical_penalty += (lat / (1.0 + room)).min(lat);
        }
        true
    }
}

/// Fused dynamic screen + mutation-free scorer: the objective `n @ c`
/// would score in `st`, or `None` when `c` fails the per-candidate
/// screens — exactly the conditions [`assignable_dynamic`] checks. One
/// pass over the view's edges serves both: the port/budget counting and
/// the trial's copy bookkeeping share the producer/consumer iteration and
/// the copy-table probes, which is what the old
/// screen-then-apply-read-undo sequence paid for twice.
///
/// The accept/reject decision is bit-identical to `assignable_dynamic`
/// and the returned score is bit-identical to
/// `apply_assign_logged` + `cost` + `undo_assign`: the trial replays the
/// aggregate updates of `place` + every induced copy against trial-local
/// accumulators (same operations, same order). The engine asserts both
/// equivalences in debug builds. The caller must have screened `c`
/// through [`NodeView::allows`] first.
pub fn score_if_assignable(
    ctx: &SeeContext<'_>,
    st: &PartialState,
    view: &NodeView,
    n: NodeId,
    c: PgNodeId,
) -> Option<f64> {
    let max_in = ctx.constraints.max_in_neighbors as usize;
    let inputs = st.cost_inputs();
    let mut t = ScoreTrial {
        total_copies: inputs.total_copies,
        recurrence_copies: inputs.recurrence_copies,
        critical_penalty: inputs.critical_penalty,
        mii_issue: inputs.mii_issue,
        mii_arc: inputs.mii_arc,
        util_sq_sum: inputs.util_sq_sum,
        issue: SmallVec::new(),
        added: SmallVec::new(),
    };
    // `place`: one issue slot plus the class-specific op counter.
    t.charge_issue(ctx, st, c, 1);
    let i = c.index();
    let rt = ctx.pg.node(c).rt;
    match ctx.ddg.node(n).op.resource_class() {
        hca_ddg::ResourceClass::Alu => {
            let ops = st.loads.alu(i) + 1;
            if rt.alu > 0 {
                t.mii_issue = t.mii_issue.max(ops.div_ceil(rt.alu));
            }
        }
        hca_ddg::ResourceClass::AddrGen => {
            let ops = st.loads.ag(i) + 1;
            if rt.addr_gen > 0 {
                t.mii_issue = t.mii_issue.max(ops.div_ceil(rt.addr_gen));
            } else {
                t.mii_issue = u32::MAX; // AG work on an AG-less cluster
            }
        }
        hca_ddg::ResourceClass::Receive => {}
    }
    // (ii) Operand availability + operand copy bookkeeping, one pass: count
    // the *new* in-neighbours assigning here would add to c while recording
    // the copies the operands induce. Early rejects are safe mid-trial —
    // nothing was mutated, the trial is all locals.
    //
    // Fast path: when no producer sits on `c` and every producer arc into
    // `c` is still empty, every operand induces exactly one fresh copy at
    // position 0..group-1 of its arc, so the whole pass collapses to the
    // view's precomputed [`ProdFast`] totals — only the issue charges (whose
    // floats depend on `c`'s current load) are replayed. The slow loop below
    // stays the reference semantics for the leftover cases.
    let mut new_values_to_c = 0u32;
    let mut fast_done = false;
    if let Some(f) = &view.fast {
        let mut clean = true;
        let mut new_in = 0usize;
        for &(cp, _) in &f.distinct {
            if cp == c || !st.copies.is_empty(cp, c) {
                clean = false;
                break;
            }
            if !st.in_neighbors.contains(i, cp) {
                new_in += 1;
            }
        }
        if clean {
            fast_done = true;
            if st.in_neighbors.len(i) + new_in > max_in {
                return None;
            }
            for _ in 0..f.copies {
                t.charge_issue(ctx, st, c, 1);
            }
            t.mii_arc = t.mii_arc.max(f.max_group);
            t.total_copies += f.copies;
            t.recurrence_copies += f.recurrence;
            t.critical_penalty = f.critical;
            new_values_to_c = f.copies;
        }
    }
    if !fast_done {
        let mut new_in_c: SmallVec<[PgNodeId; 4]> = SmallVec::new();
        for p in &view.producers {
            let cp = p.cluster;
            if cp == c {
                continue;
            }
            if st.copies.is_empty(cp, c)
                && !st.in_neighbors.contains(c.index(), cp)
                && !new_in_c.contains(&cp)
            {
                new_in_c.push(cp);
            }
            if t.add_copy(ctx, st, p.value, cp, c, Some(p.slack), p.recurrence) {
                new_values_to_c += 1;
            }
        }
        if st.in_neighbors.len(c.index()) + new_in_c.len() > max_in {
            return None;
        }
    }
    // (vi) Optional issue-pressure ceiling: the op itself plus the receives
    // it forces on c.
    if let Some(cap) = ctx.issue_cap {
        let budget = cap.saturating_mul(rt.issue);
        if st.loads.issue(i) + 1 + new_values_to_c > budget {
            return None;
        }
    }
    // (iii) Result availability + result copy bookkeeping: every assigned
    // consumer's cluster needs a spare input port where the arc is new.
    let mut new_out: SmallVec<[PgNodeId; 4]> = SmallVec::new();
    for s in &view.consumers {
        let cs = s.cluster;
        if cs == c {
            continue;
        }
        if !st.in_neighbors.contains(cs.index(), c) {
            if st.in_neighbors.len(cs.index()) + 1 > max_in {
                return None;
            }
            if !new_out.contains(&cs) {
                new_out.push(cs);
            }
        }
        t.add_copy(ctx, st, n, c, cs, Some(s.slack), s.recurrence);
    }
    // (iv) Optional out-neighbour budget (unlimited on DSPFabric).
    if let Some(limit) = ctx.constraints.max_out_neighbors {
        let outs = st.out_neighbors.len(c.index())
            + new_out
                .iter()
                .filter(|&&d| !st.out_neighbors.contains(c.index(), d))
                .count();
        if outs > limit as usize {
            return None;
        }
    }
    // Output wires carry no screens here (the mask folded the fan-in rule).
    for &o in ctx.statics.outputs_carrying(n) {
        t.add_copy(ctx, st, n, c, o, None, false);
    }
    Some(crate::cost::objective_from_parts(
        ctx,
        &crate::cost::CostInputs {
            total_copies: t.total_copies,
            recurrence_copies: t.recurrence_copies,
            critical_penalty: t.critical_penalty,
            routed_hops: inputs.routed_hops,
            mii_issue: t.mii_issue,
            mii_arc: t.mii_arc,
            util_sq_sum: t.util_sq_sum,
            util_clusters: inputs.util_clusters,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use hca_arch::{Rcp, ResourceTable};
    use hca_ddg::{Ddg, DdgAnalysis, DdgBuilder, Opcode};
    use hca_pg::{ArchConstraints, Ili, IliWire, Pg};

    fn mk_ctx<'a>(ddg: &'a Ddg, an: &'a DdgAnalysis, pg: &'a Pg, max_in: u32) -> SeeContext<'a> {
        SeeContext {
            ddg,
            analysis: an,
            pg,
            constraints: ArchConstraints {
                max_in_neighbors: max_in,
                max_out_neighbors: None,
                out_node_max_in: 1,
                copy_latency: 1,
            },
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(pg),
        }
    }

    #[test]
    fn rejects_special_nodes_and_missing_resources() {
        let mut b = DdgBuilder::default();
        let ld = b.node(Opcode::Load);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        // RCP: odd clusters have no AG.
        let rcp = Rcp::figure1();
        let pg = Pg::from_rcp(&rcp);
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let st = PartialState::initial(&ctx, &[]);
        assert!(is_assignable(&ctx, &st, ld, PgNodeId(0)));
        assert!(!is_assignable(&ctx, &st, ld, PgNodeId(1))); // no AG
    }

    #[test]
    fn candidates_iterate_exactly_the_assignable_clusters() {
        // The mask + dynamic split must agree with probing every cluster.
        let mut b = DdgBuilder::default();
        let ld = b.node(Opcode::Load);
        let add = b.node(Opcode::Add);
        b.flow(ld, add);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let rcp = Rcp::figure1();
        let pg = Pg::from_rcp(&rcp);
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, ld, PgNodeId(0));
        let view = node_view(&ctx, &st, add);
        let via_mask: Vec<PgNodeId> = view
            .candidates()
            .filter(|&c| assignable_dynamic(&ctx, &st, &view, add, c))
            .collect();
        let via_probe: Vec<PgNodeId> = pg
            .cluster_ids()
            .filter(|&c| is_assignable(&ctx, &st, add, c))
            .collect();
        assert_eq!(via_mask, via_probe);
        assert!(!via_probe.is_empty(), "fixture should have candidates");
    }

    #[test]
    fn figure6_no_candidates_scenario() {
        // Figure 6a in spirit: every cluster's input budget is exhausted by
        // already-instantiated connections (C_k listens to C_{k+2}), and the
        // new node n has operands on C0 and C1 — so every candidate would
        // need an input arc that no cluster can still afford.
        let mut b = DdgBuilder::default();
        let senders: Vec<_> = (0..4).map(|_| b.node(Opcode::Add)).collect();
        let receivers: Vec<_> = (0..4).map(|_| b.node(Opcode::Add)).collect();
        for k in 0..4 {
            b.flow(senders[k], receivers[k]);
        }
        let n = b.node(Opcode::Add);
        b.flow(receivers[0], n); // operand i on C0
        b.flow(receivers[1], n); // operand j on C1
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(4, ResourceTable::of_cns(4));
        let ctx = mk_ctx(&ddg, &an, &pg, 1);
        let mut st = PartialState::initial(&ctx, &[]);
        for k in 0..4u32 {
            st.apply_assign(&ctx, senders[k as usize], PgNodeId((k + 2) % 4));
            st.apply_assign(&ctx, receivers[k as usize], PgNodeId(k));
        }
        // Each cluster now listens to exactly one source: its port is full.
        for k in 0..4 {
            assert_eq!(st.in_neighbors.len(k), 1);
        }
        for c in pg.cluster_ids() {
            assert!(!is_assignable(&ctx, &st, n, c), "cluster {c}");
        }
    }

    #[test]
    fn existing_arc_does_not_consume_new_port() {
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q1 = b.node(Opcode::Add);
        let q2 = b.node(Opcode::Add);
        b.flow(p, q1);
        b.flow(p, q2);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let ctx = mk_ctx(&ddg, &an, &pg, 1);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, p, PgNodeId(0));
        st.apply_assign(&ctx, q1, PgNodeId(1));
        // Arc 0→1 is already real; q2 re-uses it.
        assert!(is_assignable(&ctx, &st, q2, PgNodeId(1)));
    }

    #[test]
    fn successor_port_budget_checked() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Add);
        let z = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        b.flow(a, z);
        b.flow(n, z);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(3, ResourceTable::of_cns(4));
        let ctx = mk_ctx(&ddg, &an, &pg, 1);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, a, PgNodeId(0));
        st.apply_assign(&ctx, z, PgNodeId(1)); // consumes 1's only port for 0
                                               // Assigning n to cluster 2 would need a second in-neighbour on 1.
        assert!(!is_assignable(&ctx, &st, n, PgNodeId(2)));
        // Assigning n next to z is fine (no copy at all)…
        assert!(is_assignable(&ctx, &st, n, PgNodeId(1)));
        // …and so is joining the producer cluster 0 (arc 0→1 already real).
        assert!(is_assignable(&ctx, &st, n, PgNodeId(0)));
    }

    #[test]
    fn out_node_unary_fanin_blocks_second_cluster() {
        let mut b = DdgBuilder::default();
        let k = b.node(Opcode::Add);
        let h = b.node(Opcode::Add);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
        pg.attach_ili(&Ili {
            inputs: vec![],
            outputs: vec![IliWire::new(vec![k, h])],
        });
        let ctx = mk_ctx(&ddg, &an, &pg, 4);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, k, PgNodeId(0));
        // h must co-locate with k (Figure 10c).
        assert!(is_assignable(&ctx, &st, h, PgNodeId(0)));
        assert!(!is_assignable(&ctx, &st, h, PgNodeId(1)));
    }

    #[test]
    fn issue_cap_limits_pile_up() {
        let mut b = DdgBuilder::default();
        let xs: Vec<_> = (0..3).map(|_| b.node(Opcode::Add)).collect();
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(1));
        let mut ctx = mk_ctx(&ddg, &an, &pg, 4);
        ctx.issue_cap = Some(2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, xs[0], PgNodeId(0));
        st.apply_assign(&ctx, xs[1], PgNodeId(0));
        assert!(!is_assignable(&ctx, &st, xs[2], PgNodeId(0)));
        assert!(is_assignable(&ctx, &st, xs[2], PgNodeId(1)));
    }

    /// A small deterministic LCG so the fuzz sweep needs no RNG crate in
    /// this crate's dev-deps.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// The mutation-free scorer against the reference apply-read-undo
    /// sequence, over fuzzed DDGs (duplicate operand edges, recurrences,
    /// AG-less issue caps) and fuzzed partial states: the accept/reject
    /// decision must equal [`assignable_dynamic`] and every accepted score
    /// must be bit-identical to the post-apply cost. 120 seeds keeps both
    /// the fast producer path and the slow reference loop covered.
    #[test]
    fn scorer_matches_apply_read_undo_on_fuzzed_states() {
        for seed in 0..120u64 {
            let mut rng = Lcg(0x5EED_0000 ^ (seed.wrapping_mul(0x9E37_79B9)));
            let mut b = DdgBuilder::default();
            let n_nodes = 6 + (rng.next() % 18) as usize;
            let ids: Vec<_> = (0..n_nodes)
                .map(|_| {
                    b.node(match rng.next() % 4 {
                        0 => Opcode::Load,
                        1 => Opcode::Mul,
                        _ => Opcode::Add,
                    })
                })
                .collect();
            for j in 1..n_nodes {
                for _ in 0..=(rng.next() % 2) {
                    // Duplicate (src, dst) pairs are deliberate: two operand
                    // edges carrying the same value force the trial's
                    // arc-level dedup (the one case the fast path must bail
                    // on).
                    b.flow(ids[(rng.next() as usize) % j], ids[j]);
                }
                if rng.next().is_multiple_of(8) {
                    b.carried(ids[j], ids[(rng.next() as usize) % j], 1);
                }
            }
            let ddg = b.finish();
            let an = DdgAnalysis::compute(&ddg).unwrap();
            let clusters = 2 + (rng.next() % 5) as usize;
            let pg = Pg::complete(clusters, ResourceTable::of_cns(4));
            let mut ctx = mk_ctx(&ddg, &an, &pg, 2 + (rng.next() % 3) as u32);
            if rng.next().is_multiple_of(2) {
                ctx.issue_cap = Some(2 + (rng.next() % 3) as u32);
            }
            let order: Vec<_> = ddg.node_ids().collect();
            let mut st = PartialState::initial(&ctx, &order);
            for &n in &order {
                if rng.next().is_multiple_of(4) {
                    continue; // leave holes: unassigned producers/consumers
                }
                let view = node_view(&ctx, &st, n);
                let mut legal = Vec::new();
                for c in view.candidates() {
                    let scored = score_if_assignable(&ctx, &st, &view, n, c);
                    assert_eq!(
                        scored.is_some(),
                        assignable_dynamic(&ctx, &st, &view, n, c),
                        "seed {seed}: screen diverges for {n:?} @ {c:?}"
                    );
                    if let Some(cost) = scored {
                        let undo = st.apply_assign_logged(&ctx, n, c);
                        assert_eq!(
                            cost.to_bits(),
                            st.cost.to_bits(),
                            "seed {seed}: score diverges from apply for {n:?} @ {c:?}"
                        );
                        st.undo_assign(&ctx, undo);
                        legal.push(c);
                    }
                }
                if let Some(&c) = legal.get((rng.next() as usize) % legal.len().max(1)) {
                    st.apply_assign(&ctx, n, c);
                }
            }
        }
    }

    #[test]
    fn max_out_neighbors_enforced_when_set() {
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q1 = b.node(Opcode::Add);
        let q2 = b.node(Opcode::Add);
        b.flow(p, q1);
        b.flow(p, q2);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(3, ResourceTable::of_cns(4));
        let mut ctx = mk_ctx(&ddg, &an, &pg, 4);
        ctx.constraints.max_out_neighbors = Some(1);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, q1, PgNodeId(1));
        st.apply_assign(&ctx, q2, PgNodeId(2));
        // p on cluster 0 would need two out-neighbours.
        assert!(!is_assignable(&ctx, &st, p, PgNodeId(0)));
        assert!(is_assignable(&ctx, &st, p, PgNodeId(1)));
    }
}
