//! The SEE driver: beam search over partial assignments.

use crate::cost::CostWeights;
use crate::filters::{CandList, CandidateFilter, CandidatePruning, NodeFilter};
use crate::route::route_assign_commit;
use crate::route_table::RouteTable;
use crate::state::{PartialState, SeeContext};
use hca_ddg::{Ddg, DdgAnalysis, NodeId, PriorityOrder, PriorityPolicy};
use hca_pg::{ArchConstraints, AssignedPg, Pg, PgNodeId};
use std::fmt;
use std::time::Instant;

/// Tunables of one SEE run.
#[derive(Clone, Copy, Debug)]
pub struct SeeConfig {
    /// Frontier size kept by the node filter.
    pub beam_width: usize,
    /// Candidates kept per (state, node) by the candidate filter.
    pub branch_factor: usize,
    /// Candidate-filter cost margin over the best candidate.
    pub candidate_margin: f64,
    /// Objective-function weights.
    pub weights: CostWeights,
    /// Order in which unassigned nodes are consumed.
    pub priority: PriorityPolicy,
    /// Run the Route Allocator as the no-candidates action.
    pub enable_router: bool,
    /// Intermediate hops the Route Allocator may spend per flow.
    pub max_route_hops: usize,
    /// Optional per-issue-slot load ceiling (see [`SeeContext::issue_cap`]).
    pub issue_cap: Option<u32>,
}

impl Default for SeeConfig {
    fn default() -> Self {
        SeeConfig {
            beam_width: 8,
            branch_factor: 3,
            candidate_margin: 16.0,
            weights: CostWeights::default(),
            priority: PriorityPolicy::DataflowOrder,
            enable_router: true,
            max_route_hops: 3,
            issue_cap: None,
        }
    }
}

impl SeeConfig {
    /// Configuration for the exact backend's pass-through planner: no
    /// candidate-margin or branch-factor truncation and an effectively
    /// unbounded frontier, so [`See::run_exact`]'s root enumeration is
    /// complete. Never use for beam runs — the frontier would explode.
    pub fn exhaustive() -> Self {
        SeeConfig {
            beam_width: usize::MAX / 2,
            branch_factor: usize::MAX / 2,
            candidate_margin: f64::INFINITY,
            ..SeeConfig::default()
        }
    }
}

/// Why the SEE failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeeError {
    /// Neither a direct candidate nor a routed placement exists for the node
    /// in any frontier state.
    NoCandidates {
        /// The node that could not be placed.
        node: NodeId,
    },
    /// The working set contains a node the DDG does not.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
    /// The stop hook ([`See::with_stop`]) asked the run to end before it
    /// finished placing the working set.
    Cancelled,
}

impl fmt::Display for SeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeeError::NoCandidates { node } => {
                write!(f, "no candidate cluster for {node} (routing exhausted)")
            }
            SeeError::UnknownNode { node } => write!(f, "{node} not in the DDG"),
            SeeError::Cancelled => write!(f, "cancelled by the stop hook"),
        }
    }
}

impl std::error::Error for SeeError {}

/// Arena of retired [`PartialState`]s, recycled into survivor
/// materialisation. Beam search retires states in bulk every step (beam
/// truncation, failed rescues, parents without surviving children) and
/// immediately allocates near-identical ones; `take_clone_of` turns that
/// churn into `clone_from` onto a retired state's buffers, so the steady
/// state of the main loop performs no state-sized allocations at all.
///
/// A SEE run steps its beam on one thread, so the high-water footprint
/// (reported as `see.state_arena_bytes`) is deterministic.
#[derive(Default)]
pub(crate) struct StatePool {
    free: Vec<PartialState>,
    /// `approx_bytes` of each pooled state, parallel to `free`.
    sizes: Vec<usize>,
    /// Current pooled footprint in bytes.
    bytes: usize,
    /// Peak pooled footprint over the run.
    high_water: usize,
}

impl StatePool {
    /// Retire `st` into the arena.
    fn put(&mut self, st: PartialState) {
        let b = st.approx_bytes();
        self.bytes += b;
        self.high_water = self.high_water.max(self.bytes);
        self.sizes.push(b);
        self.free.push(st);
    }

    /// A state bit-identical to `src`: recycled buffers when the arena has
    /// a retiree (`clone_from` — no fresh allocation when capacities fit),
    /// a plain deep clone otherwise.
    fn take_clone_of(&mut self, src: &PartialState) -> PartialState {
        match (self.free.pop(), self.sizes.pop()) {
            (Some(mut st), Some(b)) => {
                self.bytes -= b;
                st.clone_from(src);
                st
            }
            _ => src.clone(),
        }
    }
}

/// Cap on the per-step sample vectors kept in [`SeeStats`]
/// (`beam_occupancy`, `step_time_ns`): the first `STEP_SAMPLE_CAP`
/// placement steps are sampled, everything is *always* folded into the
/// exact running totals (`steps`, `beam_occupancy_sum`,
/// `step_time_total_ns`), so statistics stay bounded on arbitrarily large
/// DDGs without losing the aggregate invariants.
pub const STEP_SAMPLE_CAP: usize = 4096;

/// Run statistics, for the scaling/ablation experiments and the
/// observability layer (`hca-obs` run reports).
///
/// Counter invariant, checked by tests: every state materialised in the
/// main loop is either pruned by the node filter or survives into a
/// frontier, so `states_explored == states_pruned + beam_occupancy_sum`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeeStats {
    /// Partial solutions materialised across the whole run.
    pub states_explored: usize,
    /// Partial solutions dropped by the node filter (beam truncation).
    pub states_pruned: usize,
    /// Candidates rejected by the candidate filter's cost margin.
    pub cand_rejected_margin: usize,
    /// Candidates rejected by branch-factor truncation.
    pub cand_rejected_branch: usize,
    /// Frontier states offered to the Route Allocator after a no-candidate
    /// step (each is one rescue retry).
    pub route_attempts: usize,
    /// Nodes placed through the Route Allocator.
    pub routed_nodes: usize,
    /// Total extra hops those placements cost.
    pub routed_hops: u32,
    /// Placement steps executed (exact, never truncated).
    pub steps: usize,
    /// Σ frontier width over *all* placement steps (exact; the right-hand
    /// side of the `explored == pruned + occupancy` invariant).
    pub beam_occupancy_sum: usize,
    /// Total wall-clock nanoseconds across all placement steps (exact).
    pub step_time_total_ns: u64,
    /// Frontier width after beam filtering — a *sample* of the first
    /// [`STEP_SAMPLE_CAP`] placement steps (one entry per step up to the
    /// cap). Use [`SeeStats::beam_occupancy_sum`] for exact totals.
    pub beam_occupancy: Vec<usize>,
    /// Wall-clock nanoseconds per placement step (expansion + filtering +
    /// materialisation) — a sample of the first [`STEP_SAMPLE_CAP`] steps.
    /// Use [`SeeStats::step_time_total_ns`] for the exact total.
    pub step_time_ns: Vec<u64>,
    /// Peak of Σ [`PartialState::approx_bytes`] over the post-filter
    /// frontiers — the search's working-set high-water mark.
    pub peak_frontier_bytes: usize,
    /// Approximate heap footprint of the run's static [`RouteTable`]
    /// (all-pairs distance matrix + counters).
    pub route_table_bytes: usize,
    /// Admissible-path searches actually executed by the Route Allocator.
    pub route_bfs_runs: usize,
    /// Routing queries answered (or candidates rejected) from the static
    /// [`RouteTable`] without running a search.
    pub route_cache_hits: usize,
    /// Deep [`PartialState`] clones taken on *trial* paths (candidate
    /// scoring, rescue routing, forward planning). The journalled in-place
    /// trial machinery replaced every one of them, so this is structurally
    /// zero — tests assert it, making a reintroduced per-trial clone fail
    /// loudly. Arena misses during survivor materialisation are not trial
    /// clones and are excluded.
    pub state_clones: usize,
    /// Heap bytes of the run's static arc numbering and candidate-mask
    /// tables ([`PgStatics::arc_table_bytes`](crate::statics::PgStatics)).
    pub arc_table_bytes: usize,
    /// High-water heap footprint of the state arena (retired `PartialState`
    /// buffers awaiting reuse by survivor materialisation).
    pub state_arena_bytes: usize,
}

impl SeeStats {
    /// Fold one placement step into the stats: exact totals always, the
    /// per-step sample vectors only up to [`STEP_SAMPLE_CAP`] entries.
    pub fn record_step(&mut self, occupancy: usize, ns: u64) {
        self.steps += 1;
        self.beam_occupancy_sum += occupancy;
        self.step_time_total_ns += ns;
        if self.beam_occupancy.len() < STEP_SAMPLE_CAP {
            self.beam_occupancy.push(occupancy);
            self.step_time_ns.push(ns);
        }
    }
}

/// Result of a successful SEE run.
#[derive(Clone, Debug)]
pub struct SeeOutcome {
    /// The assigned Pattern Graph (`DDG̅` + `cpy` labels).
    pub assigned: AssignedPg,
    /// Final objective value.
    pub cost: f64,
    /// Estimated MII of the clusterised working set (§4.2):
    /// `max(mii_rec, mii_issue, mii_arc, 1)`. The component fields below
    /// say which constraint bound it — the basis of `hca explain`'s MII
    /// attribution.
    pub est_mii: u32,
    /// Issue-pressure component of the estimate (peak cluster issue load).
    pub mii_issue: u32,
    /// Arc/wire-pressure component of the estimate.
    pub mii_arc: u32,
    /// Search statistics.
    pub stats: SeeStats,
}

/// The Space Exploration Engine.
pub struct See<'a> {
    pub(crate) ctx: SeeContext<'a>,
    pub(crate) config: SeeConfig,
    /// Static all-pairs reachability of `ctx.pg`, shared by every routing
    /// query of the run (also owns the run's routing counters).
    pub(crate) rt: RouteTable,
    /// Search-trace recorder; disabled by default (one branch per step).
    tracer: hca_obs::SearchTracer,
    /// Cancellation hook polled at the top of every placement step; `None`
    /// by default.
    stop: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl<'a> See<'a> {
    /// Prepare a run over `ddg` (restricted later to a working set) against
    /// the Pattern Graph `pg` under `constraints`.
    pub fn new(
        ddg: &'a Ddg,
        analysis: &'a DdgAnalysis,
        pg: &'a Pg,
        constraints: ArchConstraints,
        config: SeeConfig,
    ) -> Self {
        let ctx = SeeContext {
            ddg,
            analysis,
            pg,
            constraints,
            weights: config.weights,
            issue_cap: config.issue_cap,
            statics: crate::statics::PgStatics::build(pg),
        };
        let rt = RouteTable::build(pg);
        See {
            ctx,
            config,
            rt,
            tracer: hca_obs::SearchTracer::disabled(),
            stop: None,
        }
    }

    /// Attach a search-trace recorder (builder style). Every placement step
    /// of subsequent [`run`](See::run)s emits one
    /// [`TraceRecord`](hca_obs::TraceRecord); a disabled tracer keeps the
    /// hot loop at a single branch.
    pub fn with_tracer(mut self, tracer: hca_obs::SearchTracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a stop hook (builder style). [`run`](See::run) calls it at
    /// the top of every placement step and returns
    /// [`SeeError::Cancelled`] as soon as it answers `true`, so a run whose
    /// result can no longer matter stops within one step. Without a hook a
    /// run always goes to completion.
    pub fn with_stop(mut self, stop: &'a (dyn Fn() -> bool + Sync)) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Assign the `working_set` (the whole DDG when `None`).
    pub fn run(&self, working_set: Option<&[NodeId]>) -> Result<SeeOutcome, SeeError> {
        if let Some(ws) = working_set {
            for &n in ws {
                if n.index() >= self.ctx.ddg.num_nodes() {
                    return Err(SeeError::UnknownNode { node: n });
                }
            }
        }
        let order = PriorityOrder::compute(
            self.ctx.ddg,
            self.ctx.analysis,
            working_set,
            self.config.priority,
        );
        let cand_filter = CandidateFilter {
            branch_factor: self.config.branch_factor,
            margin: self.config.candidate_margin,
        };
        let node_filter = NodeFilter {
            beam_width: self.config.beam_width,
        };

        let ws_nodes: Vec<NodeId> = order.nodes().to_vec();
        let mut frontier = vec![PartialState::initial(&self.ctx, &ws_nodes)];
        let mut stats = SeeStats::default();
        // Routing counters are per-run: clear whatever an earlier (possibly
        // failed) run on this instance left behind.
        let _ = self.rt.take_counters();

        // Arena of retired states, recycled into materialisation.
        let mut pool = StatePool::default();

        // Pass-through values are resolved *first*: routing an external value
        // to its forwarding cluster while every port is still free always
        // succeeds, and the unary fan-in constraint then steers the wire's
        // remaining (internal) values onto the same feeder during the main
        // loop. Resolving them last instead would find the feeder cluster
        // already walled in by unrelated port usage.
        frontier = self.resolve_forwards(frontier, &mut pool)?;
        node_filter.apply(&mut frontier);
        let trace_on = self.tracer.is_enabled();
        // Per-step buffers, cleared every step so their capacity carries over.
        let mut scored: Vec<(CandList, CandidatePruning)> = Vec::new();
        let mut merged: Vec<(usize, PgNodeId, f64)> = Vec::new();
        let mut uses: Vec<usize> = Vec::new();
        let mut parents: Vec<Option<PartialState>> = Vec::new();

        for (step_idx, &n) in (0u32..).zip(order.nodes()) {
            if self.stop.is_some_and(|stop| stop()) {
                return Err(SeeError::Cancelled);
            }
            let step_t0 = Instant::now();
            // Pre-step counter snapshot so the trace can report per-step
            // deltas; only taken when a tracer is attached.
            let pre = if trace_on {
                Some((
                    stats.states_explored,
                    stats.states_pruned,
                    stats.cand_rejected_margin,
                    stats.cand_rejected_branch,
                ))
            } else {
                None
            };
            let mut top_cands: Vec<(u32, f64)> = Vec::new();
            let mut rescued_step = false;
            // Score every (state, cluster) candidate without cloning the
            // state, one frontier state after another on this thread. A
            // step is too small to pay for a thread spawn (at most
            // `beam_width` states, each scoring a handful of clusters);
            // parallelism lives in the driver, which runs a sub-problem's
            // escalation tiers and its sibling sub-problems on the pool.
            let scoring = frontier.iter_mut().map(|st| {
                // Operand/result placements are candidate-independent:
                // read them once per state, not once per cluster probe.
                // The view's bitmask AND already folded every static
                // screen (executability, producer/consumer potential,
                // output fan-in), so the scoring below touches only the
                // clusters that survive it — in the same ascending id
                // order the full probe scanned — and re-checks just the
                // port/budget conditions that depend on mutable state.
                let view = crate::assignable::node_view(&self.ctx, st, n);
                let mut cands: CandList = CandList::new();
                for c in view.candidates() {
                    // Mutation-free trial: one pass re-checks the dynamic
                    // screens and replays apply's aggregate arithmetic
                    // against locals, bit-exact with the journalled
                    // apply-read-undo path (asserted below).
                    let scored = crate::assignable::score_if_assignable(&self.ctx, st, &view, n, c);
                    #[cfg(debug_assertions)]
                    {
                        debug_assert_eq!(
                            scored.is_some(),
                            crate::assignable::assignable_dynamic(&self.ctx, st, &view, n, c),
                            "fused screen disagrees with assignable_dynamic for {n:?} @ {c:?}"
                        );
                        if let Some(cost) = scored {
                            let undo = st.apply_assign_logged(&self.ctx, n, c);
                            debug_assert_eq!(
                                cost.to_bits(),
                                st.cost.to_bits(),
                                "score_if_assignable diverged from apply for {n:?} @ {c:?}"
                            );
                            st.undo_assign(&self.ctx, undo);
                        }
                    }
                    let Some(cost) = scored else { continue };
                    cands.push((c, cost));
                }
                let pruning = cand_filter.apply(&mut cands);
                (cands, pruning)
            });
            scored.clear();
            scored.extend(scoring);

            // Merge deterministically as (parent, cluster, cost) tuples, in
            // (frontier order, per-state candidate order).
            merged.clear();
            for (si, (cands, pruning)) in scored.iter().enumerate() {
                stats.cand_rejected_margin += pruning.by_margin;
                stats.cand_rejected_branch += pruning.by_branch;
                merged.extend(cands.iter().map(|&(c, cost)| (si, c, cost)));
            }

            if merged.is_empty() {
                // No-candidates action (paper §3): route from the best states.
                if !self.config.enable_router {
                    return Err(SeeError::NoCandidates { node: n });
                }
                stats.route_attempts += frontier.len();
                // Trials run in place (journalled + rolled back) and the
                // winning candidate per state is *committed* in place — the
                // parent was about to be discarded anyway, so the rescue path
                // performs zero state clones. A state the router cannot
                // rescue comes back bit-identical (rolled back) and retires
                // to the arena.
                let ok: Vec<bool> = frontier
                    .iter_mut()
                    .map(|st| {
                        route_assign_commit(&self.ctx, &self.rt, st, n, self.config.max_route_hops)
                    })
                    .collect();
                let mut rescued: Vec<PartialState> = Vec::with_capacity(frontier.len());
                for (st, ok) in frontier.drain(..).zip(ok) {
                    if ok {
                        rescued.push(st);
                    } else {
                        pool.put(st);
                    }
                }
                if rescued.is_empty() {
                    return Err(SeeError::NoCandidates { node: n });
                }
                stats.routed_nodes += rescued.len();
                stats.states_explored += rescued.len();
                // The node filter: stable sort, then beam-width truncation.
                rescued.sort_by(|a, b| a.cost.total_cmp(&b.cost));
                if trace_on {
                    rescued_step = true;
                    top_cands = rescued
                        .iter()
                        .take(hca_obs::trace::TOP_K)
                        .map(|st| (st.cluster_of(n).map_or(u32::MAX, |c| c.0), st.cost))
                        .collect();
                }
                let kept = rescued.len().min(node_filter.beam_width);
                stats.states_pruned += rescued.len() - kept;
                for st in rescued.drain(kept..) {
                    pool.put(st);
                }
                frontier = rescued;
            } else {
                // Beam-filter on the scored tuples (same stable sort the
                // node filter uses), then materialise *only* the survivors.
                stats.states_explored += merged.len();
                merged.sort_by(|a, b| a.2.total_cmp(&b.2));
                if trace_on {
                    top_cands = merged
                        .iter()
                        .take(hca_obs::trace::TOP_K)
                        .map(|&(_, c, cost)| (c.0, cost))
                        .collect();
                }
                let kept = merged.len().min(node_filter.beam_width);
                stats.states_pruned += merged.len() - kept;
                merged.truncate(kept);
                // The last child of each parent takes it by move; earlier
                // children copy onto recycled arena states. Applying the
                // logged assignment replays the scored trial bit-exactly
                // (undo restored the parent state).
                uses.clear();
                uses.resize(frontier.len(), 0);
                for &(si, _, _) in &merged {
                    uses[si] += 1;
                }
                parents.clear();
                parents.extend(frontier.drain(..).map(Some));
                for &(si, c, _) in &merged {
                    uses[si] -= 1;
                    let mut child = if uses[si] == 0 {
                        parents[si].take().expect("last use moves the parent")
                    } else {
                        pool.take_clone_of(
                            parents[si].as_ref().expect("parent live until last use"),
                        )
                    };
                    child.apply_assign(&self.ctx, n, c);
                    frontier.push(child);
                }
                // Parents whose every child was beam-pruned retire.
                for p in parents.drain(..).flatten() {
                    pool.put(p);
                }
            }

            let frontier_bytes: usize = frontier.iter().map(PartialState::approx_bytes).sum();
            stats.peak_frontier_bytes = stats.peak_frontier_bytes.max(frontier_bytes);
            let step_ns = u64::try_from(step_t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stats.record_step(frontier.len(), step_ns);
            if trace_on {
                let (e0, p0, m0, b0) = pre.expect("snapshot taken when tracing");
                self.tracer.record(|| hca_obs::TraceRecord {
                    kind: hca_obs::trace::kind::STEP.to_string(),
                    step: step_idx,
                    node: n.0,
                    beam: frontier.len() as u32,
                    explored: (stats.states_explored - e0) as u64,
                    pruned_beam: (stats.states_pruned - p0) as u64,
                    rej_margin: (stats.cand_rejected_margin - m0) as u64,
                    rej_branch: (stats.cand_rejected_branch - b0) as u64,
                    rescued: rescued_step,
                    ns: step_ns,
                    cands: std::mem::take(&mut top_cands),
                    ..hca_obs::TraceRecord::default()
                });
            }
        }

        // First state with minimal cost (`min_by` keeps the first minimum).
        let best_idx = frontier
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .map(|(i, _)| i)
            .expect("frontier never empties after a successful loop");
        let best = frontier.swap_remove(best_idx);
        stats.routed_hops = best.routed_hops;
        // Fold the run's routing counters in. Each skip/search event happens
        // deterministically per candidate, so these sums are reproducible.
        let (bfs_runs, cache_hits) = self.rt.take_counters();
        stats.route_bfs_runs = bfs_runs;
        stats.route_cache_hits = cache_hits;
        stats.route_table_bytes = self.rt.approx_bytes();
        stats.arc_table_bytes = self.ctx.statics.arc_table_bytes();
        stats.state_arena_bytes = pool.high_water;
        let cost = best.cost;
        let est_mii = best.estimated_mii(&self.ctx);
        let (mii_issue, mii_arc) = (best.mii_issue, best.mii_arc);
        Ok(SeeOutcome {
            assigned: best.into_assigned(self.ctx.pg),
            cost,
            est_mii,
            mii_issue,
            mii_arc,
            stats,
        })
    }

    /// Deterministic *layered fallback*: the working set is cut into
    /// `arity` contiguous chunks of its SCC-condensation topological order
    /// (so all dataflow between chunks points forward), chunk `i` goes to
    /// the `i`-th cluster of a relay chain, glue wires are seated at (or
    /// before) their earliest consumer's chunk, and every value rides the
    /// chain forward to its consumers and output wires. Unlike
    /// [`chain_fallback`](See::chain_fallback) this spreads the issue load
    /// across all members; it fails (returns `None`) when a loop-carried
    /// dependence points backward across chunks or the wires cannot be
    /// seated — the caller then drops to the single-host chain.
    pub fn layered_fallback(&self, working_set: Option<&[NodeId]>) -> Option<SeeOutcome> {
        use hca_pg::PgNodeKind;
        let ctx = &self.ctx;
        let ws: Vec<NodeId> = match working_set {
            Some(w) => w.to_vec(),
            None => ctx.ddg.node_ids().collect(),
        };
        let chain: Vec<PgNodeId> = ctx.pg.cluster_ids().collect();
        let arity = chain.len();
        if arity == 0
            || chain
                .windows(2)
                .any(|w| !ctx.statics.is_potential(w[0], w[1]))
        {
            return None;
        }

        // SCC-contiguous topological order of the working set.
        let topo_pos: rustc_hash::FxHashMap<NodeId, usize> = ctx
            .analysis
            .topo
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        let scc = &ctx.analysis.scc;
        let mut scc_first: rustc_hash::FxHashMap<u32, usize> = rustc_hash::FxHashMap::default();
        for &n in &ws {
            let e = scc_first.entry(scc[n.index()]).or_insert(usize::MAX);
            *e = (*e).min(topo_pos[&n]);
        }
        let mut ordered = ws.clone();
        ordered.sort_by_key(|&n| (scc_first[&scc[n.index()]], scc[n.index()], topo_pos[&n]));

        // Chunk without splitting SCCs; balanced by node count.
        let target = ordered.len().div_ceil(arity).max(1);
        let mut chunk_of: rustc_hash::FxHashMap<NodeId, usize> = rustc_hash::FxHashMap::default();
        let mut chunk = 0usize;
        let mut in_chunk = 0usize;
        for (i, &n) in ordered.iter().enumerate() {
            let scc_boundary = i == 0 || scc[n.index()] != scc[ordered[i - 1].index()];
            if in_chunk >= target && scc_boundary && chunk + 1 < arity {
                chunk += 1;
                in_chunk = 0;
            }
            if !ctx.pg.node(chain[chunk]).rt.can_execute(ctx.ddg.node(n).op) {
                return None; // heterogeneous machine: let the caller decide
            }
            chunk_of.insert(n, chunk);
            in_chunk += 1;
        }
        // Loop-carried dependences must not point backward across chunks.
        for e in ctx.ddg.edges() {
            if let (Some(&cu), Some(&cv)) = (chunk_of.get(&e.src), chunk_of.get(&e.dst)) {
                if cv < cu {
                    return None;
                }
            }
        }

        // Seat the consumed glue wires at (or before) their earliest
        // consumer's chunk. Port budget: one chain-in port everywhere but
        // the head.
        let ws_set: rustc_hash::FxHashSet<NodeId> = ws.iter().copied().collect();
        let max_in = ctx.constraints.max_in_neighbors as usize;
        let mut wires: Vec<(PgNodeId, Vec<NodeId>, usize)> = Vec::new(); // (input, values, earliest)
        for inp in ctx.pg.input_ids() {
            let PgNodeKind::Input { values, .. } = &ctx.pg.node(inp).kind else {
                unreachable!()
            };
            let mut needed = Vec::new();
            let mut earliest = arity - 1; // pass-through can exit anywhere
            for &v in values {
                if ws_set.contains(&v) {
                    continue; // produced here — never sourced from a wire
                }
                let consumed: Vec<usize> = ctx
                    .ddg
                    .succ_edges(v)
                    .filter(|(_, e)| ws_set.contains(&e.dst))
                    .map(|(_, e)| chunk_of[&e.dst])
                    .collect();
                let pass = !ctx.statics.outputs_carrying(v).is_empty();
                if consumed.is_empty() && !pass {
                    continue;
                }
                if let Some(&min) = consumed.iter().min() {
                    earliest = earliest.min(min);
                }
                needed.push(v);
            }
            if !needed.is_empty() {
                wires.push((inp, needed, earliest));
            }
        }
        wires.sort_by_key(|(_, _, e)| *e);
        let mut seat_load = vec![0usize; arity];
        let mut seats: Vec<usize> = Vec::with_capacity(wires.len());
        for (_, _, earliest) in &wires {
            let mut placed = None;
            for (i, load) in seat_load.iter_mut().enumerate().take(earliest + 1) {
                let cap = if i == 0 {
                    max_in
                } else {
                    max_in.saturating_sub(1)
                };
                if *load < cap {
                    *load += 1;
                    placed = Some(i);
                    break;
                }
            }
            seats.push(placed?);
        }

        // Apply: glue copies, chain forwarding, placements, outputs.
        let mut st = PartialState::initial(ctx, &ws);
        let mut avail: rustc_hash::FxHashMap<NodeId, usize> = rustc_hash::FxHashMap::default();
        for ((inp, values, _), &seat) in wires.iter().zip(&seats) {
            for &v in values {
                st.add_copy(ctx, v, *inp, chain[seat], None, false);
                avail.insert(v, seat);
            }
        }
        let carry_forward = |st: &mut PartialState,
                             avail: &mut rustc_hash::FxHashMap<NodeId, usize>,
                             v: NodeId,
                             to: usize| {
            let from = avail[&v];
            for k in from..to {
                st.add_copy(ctx, v, chain[k], chain[k + 1], None, false);
                st.routed_hops += 1;
            }
            if to > from {
                avail.insert(v, to);
            }
        };
        for &n in &ordered {
            let here = chunk_of[&n];
            st.place(ctx, n, chain[here]);
            for (_, e) in ctx.ddg.pred_edges(n) {
                if ctx.ddg.node(e.src).op == hca_ddg::Opcode::Const {
                    continue;
                }
                if let Some(&from) = avail.get(&e.src) {
                    if from < here {
                        carry_forward(&mut st, &mut avail, e.src, here);
                    }
                } else if let Some(&cu) = chunk_of.get(&e.src) {
                    if cu < here {
                        avail.insert(e.src, cu);
                        carry_forward(&mut st, &mut avail, e.src, here);
                    }
                }
            }
            avail.entry(n).or_insert(here);
        }
        for o in ctx.pg.output_ids() {
            let PgNodeKind::Output { values, .. } = &ctx.pg.node(o).kind else {
                unreachable!()
            };
            // Unary fan-in: one feeder — the latest chunk any value sits in.
            let feeder = values
                .iter()
                .filter_map(|v| avail.get(v).copied().or_else(|| chunk_of.get(v).copied()))
                .max()
                .unwrap_or(0);
            for &v in values {
                let known = avail.contains_key(&v) || chunk_of.contains_key(&v);
                if !known {
                    continue; // value never arrives; constraints::check will flag it
                }
                avail.entry(v).or_insert_with(|| chunk_of[&v]);
                carry_forward(&mut st, &mut avail, v, feeder);
                st.add_copy(ctx, v, chain[feeder], o, None, false);
                if ctx.pg.input_carrying(v).is_some() && !chunk_of.contains_key(&v) {
                    st.charge_issue(ctx, chain[feeder], 1);
                    st.forwards.push((v, chain[feeder]));
                }
            }
        }

        st.cost = crate::cost::objective(&self.ctx, &st);
        let cost = st.cost;
        let est_mii = st.estimated_mii(&self.ctx);
        let (mii_issue, mii_arc) = (st.mii_issue, st.mii_arc);
        let routed_hops = st.routed_hops;
        Some(SeeOutcome {
            assigned: st.into_assigned(ctx.pg),
            cost,
            est_mii,
            mii_issue,
            mii_arc,
            stats: SeeStats {
                states_explored: 1,
                // One state built, one state kept: keeps the documented
                // `explored == pruned + occupancy` split exact for
                // fallback outcomes too.
                steps: 1,
                beam_occupancy_sum: 1,
                beam_occupancy: vec![1],
                routed_nodes: ws.len(),
                routed_hops,
                route_table_bytes: self.rt.approx_bytes(),
                arc_table_bytes: ctx.statics.arc_table_bytes(),
                ..SeeStats::default()
            },
        })
    }

    /// Deterministic *chain fallback* — the completion backstop behind the
    /// beam search. Binds the consumed glue-in wires along a relay chain of
    /// clusters (`c0 → c1 → … → host`), places the **entire** working set on
    /// the final `host` cluster and feeds every output wire from there:
    ///
    /// * each cluster spends at most one input port on its chain
    ///   predecessor, the rest on glue wires, so the layout is always
    ///   port-feasible when the consumed wires fit `max_in + (A−1)·(max_in−1)`;
    /// * wire pressure and host issue load are terrible — this is a
    ///   *legality* device for the rare sub-problem the search cannot crack,
    ///   priced accordingly by the caller.
    pub fn chain_fallback(&self, working_set: Option<&[NodeId]>) -> Option<SeeOutcome> {
        use hca_pg::PgNodeKind;
        let ctx = &self.ctx;
        let ws: Vec<NodeId> = match working_set {
            Some(w) => w.to_vec(),
            None => ctx.ddg.node_ids().collect(),
        };
        let clusters: Vec<PgNodeId> = ctx.pg.cluster_ids().collect();
        let host = *clusters.iter().rev().find(|&&c| {
            ws.iter()
                .all(|&n| ctx.pg.node(c).rt.can_execute(ctx.ddg.node(n).op))
        })?;
        let mut chain: Vec<PgNodeId> = clusters.iter().copied().filter(|&c| c != host).collect();
        chain.push(host);
        if chain
            .windows(2)
            .any(|w| !ctx.statics.is_potential(w[0], w[1]))
        {
            return None;
        }

        // Which externally produced values must actually arrive?
        let ws_set: rustc_hash::FxHashSet<NodeId> = ws.iter().copied().collect();
        let mut bindings: Vec<(PgNodeId, Vec<NodeId>)> = Vec::new();
        for inp in ctx.pg.input_ids() {
            let PgNodeKind::Input { values, .. } = &ctx.pg.node(inp).kind else {
                unreachable!()
            };
            let needed: Vec<NodeId> = values
                .iter()
                .copied()
                .filter(|&v| {
                    if ws_set.contains(&v) {
                        return false; // produced here — never sourced from a wire
                    }
                    let consumed = ctx.ddg.succ_edges(v).any(|(_, e)| ws_set.contains(&e.dst));
                    let pass_through = !ctx.statics.outputs_carrying(v).is_empty();
                    consumed || pass_through
                })
                .collect();
            if !needed.is_empty() {
                bindings.push((inp, needed));
            }
        }

        // Seat the consumed wires along the chain: the head may fill all its
        // ports with glue; everyone else keeps one port for the chain.
        let max_in = ctx.constraints.max_in_neighbors as usize;
        if max_in == 0 && !bindings.is_empty() {
            return None;
        }
        let mut st = PartialState::initial(ctx, &ws);
        let mut next_binding = 0usize;
        for (ci, &cluster) in chain.iter().enumerate() {
            let capacity = if ci == 0 { max_in } else { max_in - 1 };
            for _ in 0..capacity {
                let Some((inp, values)) = bindings.get(next_binding) else {
                    break;
                };
                next_binding += 1;
                for &v in values {
                    st.add_copy(ctx, v, *inp, cluster, None, false);
                    for hop in chain.windows(2).skip(ci) {
                        st.add_copy(ctx, v, hop[0], hop[1], None, false);
                        st.routed_hops += 1;
                    }
                }
            }
        }
        if next_binding < bindings.len() {
            return None; // more consumed wires than the chain can seat
        }

        // All the work on the host; outputs fed from there.
        for &n in &ws {
            st.place(ctx, n, host);
            if ctx.ddg.node(n).op != hca_ddg::Opcode::Const {
                for &o in ctx.statics.outputs_carrying(n) {
                    st.add_copy(ctx, n, host, o, None, false);
                }
            }
        }
        for o in ctx.pg.output_ids() {
            if let PgNodeKind::Output { values, .. } = &ctx.pg.node(o).kind {
                for &v in values {
                    if ctx.pg.input_carrying(v).is_some() && !ws_set.contains(&v) {
                        st.add_copy(ctx, v, host, o, None, false);
                        st.charge_issue(ctx, host, 1);
                        st.forwards.push((v, host));
                    }
                }
            }
        }
        st.cost = crate::cost::objective(&self.ctx, &st);
        let cost = st.cost;
        let est_mii = st.estimated_mii(&self.ctx);
        let (mii_issue, mii_arc) = (st.mii_issue, st.mii_arc);
        let routed_hops = st.routed_hops;
        Some(SeeOutcome {
            assigned: st.into_assigned(ctx.pg),
            cost,
            est_mii,
            mii_issue,
            mii_arc,
            stats: SeeStats {
                states_explored: 1,
                // One state built, one state kept: keeps the documented
                // `explored == pruned + occupancy` split exact for
                // fallback outcomes too.
                steps: 1,
                beam_occupancy_sum: 1,
                beam_occupancy: vec![1],
                routed_nodes: ws.len(),
                routed_hops,
                route_table_bytes: self.rt.approx_bytes(),
                arc_table_bytes: ctx.statics.arc_table_bytes(),
                ..SeeStats::default()
            },
        })
    }

    /// Resolve pass-through values: an output special node may list a value
    /// that is produced *outside* this sub-problem (it arrived on a glue-in
    /// wire and must leave on a glue-out wire). Hardware-wise some cluster
    /// must receive it and re-emit it — a `Route` op costing one issue slot
    /// plus the receive. Pick the cheapest admissible forwarding cluster per
    /// frontier state; states with no admissible cluster are dropped.
    pub(crate) fn resolve_forwards(
        &self,
        mut frontier: Vec<PartialState>,
        pool: &mut StatePool,
    ) -> Result<Vec<PartialState>, SeeError> {
        // Collect (output node, value) tasks whose producer is external.
        let mut tasks: Vec<(PgNodeId, NodeId)> = Vec::new();
        for o in self.ctx.pg.output_ids() {
            if let hca_pg::PgNodeKind::Output { values, .. } = &self.ctx.pg.node(o).kind {
                for &v in values {
                    if self.ctx.pg.input_carrying(v).is_some() {
                        tasks.push((o, v));
                    }
                }
            }
        }
        if tasks.is_empty() {
            return Ok(frontier);
        }
        // Group tasks per output node: all its pass-through values must be
        // emitted by one feeder cluster (unary fan-in), so they are planned
        // together — otherwise early values bind the feeder's input ports
        // directly and leave later ones unroutable.
        let mut grouped: Vec<(PgNodeId, Vec<NodeId>)> = Vec::new();
        for (o, v) in tasks {
            match grouped.iter_mut().find(|(go, _)| *go == o) {
                Some((_, vs)) => vs.push(v),
                None => grouped.push((o, vec![v])),
            }
        }
        let node_filter = NodeFilter {
            beam_width: self.config.beam_width,
        };
        for (o, values) in grouped {
            // Trial each frontier state's candidate feeders *in place*
            // (journalled + rolled back — no clone per trial), keeping only
            // the winning feeder ids.
            let kept: Vec<Vec<PgNodeId>> = frontier
                .iter_mut()
                .map(|st| {
                    // Unary fan-in: if the wire already has a feeder, it is the
                    // only admissible forwarder; otherwise fork over the best
                    // few choices for beam diversity.
                    let candidates: Vec<PgNodeId> = if st.in_neighbors.is_empty(o.index()) {
                        self.ctx.pg.cluster_ids().collect()
                    } else {
                        st.in_neighbors.iter(o.index()).collect()
                    };
                    let mut trials: Vec<(PgNodeId, f64)> = Vec::new();
                    for c in candidates {
                        if !self.ctx.pg.node(c).kind.is_cluster() {
                            continue;
                        }
                        if let Some(cost) = self.forward_values_via(st, o, &values, c, true) {
                            trials.push((c, cost));
                        }
                    }
                    trials.sort_by(|a, b| a.1.total_cmp(&b.1));
                    trials.truncate(self.config.branch_factor.max(1));
                    trials.into_iter().map(|(c, _)| c).collect()
                })
                .collect();
            // Materialise in (frontier order, per-state cost order) — the
            // exact concatenation order the cloned trials arrived in. The
            // last kept feeder takes the parent by move; earlier ones copy
            // onto recycled arena states and replay their trial (the trial
            // logic is deterministic, so the replay is bit-exact).
            let mut next: Vec<PartialState> = Vec::new();
            let old = std::mem::take(&mut frontier);
            for (mut st, ks) in old.into_iter().zip(kept) {
                let Some((&last, rest)) = ks.split_last() else {
                    pool.put(st); // no admissible feeder in this state
                    continue;
                };
                for &c in rest {
                    let mut child = pool.take_clone_of(&st);
                    self.forward_values_via(&mut child, o, &values, c, false)
                        .expect("kept feeder replays deterministically");
                    next.push(child);
                }
                self.forward_values_via(&mut st, o, &values, last, false)
                    .expect("kept feeder replays deterministically");
                next.push(st);
            }
            if next.is_empty() {
                return Err(SeeError::NoCandidates { node: values[0] });
            }
            node_filter.apply(&mut next);
            frontier = next;
        }
        Ok(frontier)
    }

    /// Deliver every external `value` of output node `o` to feeder `c` and
    /// emit them on the glue wire. Direct routes first; once `c` is down to
    /// its last input port the remaining values share one relay cluster
    /// (whose single output wire carries them all into `c`).
    ///
    /// Runs in place on `st` under one journal. With `evaluate` set the
    /// whole attempt is rolled back and only its objective value returned
    /// (the caller re-applies the winners); otherwise the mutations stay
    /// committed. `None` means no admissible forwarding exists — `st` is
    /// rolled back either way. Within one attempt the journal is
    /// deliberately *not* rolled back when a direct route fails and the
    /// relay branch takes over: the failed route's partial copies stay, as
    /// they always have (the cost function prices them, and the historical
    /// search trajectory depends on it).
    fn forward_values_via(
        &self,
        st: &mut PartialState,
        o: PgNodeId,
        values: &[NodeId],
        c: PgNodeId,
        evaluate: bool,
    ) -> Option<f64> {
        let ctx = &self.ctx;
        let max_in = ctx.constraints.max_in_neighbors as usize;
        let mut txn = st.txn_begin();
        let mut relay: Option<PgNodeId> = None;
        for &v in values {
            let Some(inp) = st.cluster_of(v) else {
                continue; // produced internally after all
            };
            if ctx.pg.node(inp).kind.is_cluster() {
                continue; // internal producer feeds o itself
            }
            let ports_left = max_in.saturating_sub(st.in_neighbors.len(c.index()));
            let more_after_this = values.iter().skip_while(|&&x| x != v).count() > 1;
            let direct_ok = st.in_neighbors.contains(c.index(), inp)
                || ports_left > usize::from(more_after_this && relay.is_none());
            if direct_ok
                && crate::route::route_value(
                    ctx,
                    &self.rt,
                    st,
                    v,
                    inp,
                    c,
                    self.config.max_route_hops,
                    &mut txn,
                )
                .is_some()
            {
                // delivered directly (or over an already-open path)
            } else {
                // Funnel through the shared relay.
                let r = match relay {
                    Some(r) => r,
                    None => {
                        let found = ctx.pg.cluster_ids().find(|&r| {
                            r != c
                                && ctx.statics.is_potential(r, c)
                                && (st.in_neighbors.contains(c.index(), r)
                                    || st.in_neighbors.len(c.index()) < max_in)
                        });
                        let Some(r) = found else {
                            st.txn_rollback(ctx, txn);
                            return None;
                        };
                        relay = Some(r);
                        r
                    }
                };
                if crate::route::route_value(
                    ctx,
                    &self.rt,
                    st,
                    v,
                    inp,
                    r,
                    self.config.max_route_hops,
                    &mut txn,
                )
                .is_none()
                {
                    st.txn_rollback(ctx, txn);
                    return None;
                }
                st.add_copy_txn(ctx, v, r, c, None, false, &mut txn);
                st.routed_hops += 1;
            }
            st.add_copy_txn(ctx, v, c, o, None, false, &mut txn);
            // The Route op itself costs an issue slot.
            st.charge_issue_txn(ctx, c, 1, &mut txn);
            st.forwards.push((v, c));
        }
        st.cost = crate::cost::objective(ctx, st);
        let cost = st.cost;
        if evaluate {
            st.txn_rollback(ctx, txn);
        }
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::{Rcp, ResourceTable};
    use hca_ddg::{DdgBuilder, Opcode};
    use hca_pg::{Ili, IliWire};

    fn constraints(max_in: u32) -> ArchConstraints {
        ArchConstraints {
            max_in_neighbors: max_in,
            max_out_neighbors: None,
            out_node_max_in: 1,
            copy_latency: 1,
        }
    }

    #[test]
    fn chain_stays_on_one_cluster() {
        let mut b = DdgBuilder::default();
        let mut prev = b.node(Opcode::Load);
        for _ in 0..5 {
            let nxt = b.node(Opcode::Add);
            b.flow(prev, nxt);
            prev = nxt;
        }
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(4, ResourceTable::of_cns(4));
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(None).unwrap();
        // Modulo scheduling overlaps iterations, so splitting a serial chain
        // can still lower the resource MII — but the copy terms keep the
        // splits rare, and the estimated MII must reach the ideal 1–2.
        assert!(
            out.assigned.total_copies() <= 2,
            "{}",
            out.assigned.total_copies()
        );
        assert!(out.est_mii <= 2, "MII {}", out.est_mii);
        for n in ddg.node_ids() {
            assert!(out.assigned.cluster_of(n).is_some());
        }
        let _ = NodeId(0);
    }

    #[test]
    fn wide_parallel_work_spreads_for_ii() {
        // 8 independent 2-op chains on 4 single-issue clusters: the pressure
        // term forces spreading (perfect split: 4 ops per cluster → MII 4;
        // everything on one cluster would be MII 16).
        let mut b = DdgBuilder::default();
        for _ in 0..8 {
            let x = b.node(Opcode::Add);
            let y = b.node(Opcode::Add);
            b.flow(x, y);
        }
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(4, ResourceTable::of_cns(1));
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(None).unwrap();
        assert!(out.est_mii <= 5, "MII {} too high", out.est_mii);
    }

    #[test]
    fn working_set_only_assigns_requested_nodes() {
        let mut b = DdgBuilder::default();
        let x = b.node(Opcode::Add);
        let y = b.node(Opcode::Add);
        let z = b.node(Opcode::Add);
        b.flow(x, y);
        b.flow(y, z);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(Some(&[x, y])).unwrap();
        assert!(out.assigned.cluster_of(x).is_some());
        assert!(out.assigned.cluster_of(y).is_some());
        assert_eq!(out.assigned.cluster_of(z), None);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = DdgBuilder::default();
        let _ = b.node(Opcode::Add);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        assert_eq!(
            see.run(Some(&[NodeId(9)])).unwrap_err(),
            SeeError::UnknownNode { node: NodeId(9) }
        );
    }

    #[test]
    fn ili_values_consumed_from_input_nodes() {
        // External value ext arrives on an input wire; consumer must receive
        // it from the input node (one copy input-node → cluster).
        let mut b = DdgBuilder::default();
        let ext = b.node(Opcode::Load);
        let use1 = b.node(Opcode::Add);
        b.flow(ext, use1);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![ext])],
            outputs: vec![],
        });
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(Some(&[use1])).unwrap();
        let inp = pg.input_ids().next().unwrap();
        let c = out.assigned.cluster_of(use1).unwrap();
        assert_eq!(out.assigned.cpy(inp, c), &[ext]);
    }

    #[test]
    fn output_values_forced_to_wire() {
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
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(None).unwrap();
        // Unary fan-in forces k and h onto the same cluster (Figure 10c).
        assert_eq!(out.assigned.cluster_of(k), out.assigned.cluster_of(h));
        let o = pg.output_ids().next().unwrap();
        let c = out.assigned.cluster_of(k).unwrap();
        let mut vals = out.assigned.cpy(c, o).to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![k, h]);
    }

    #[test]
    fn router_rescues_ring_assignment() {
        // RCP reach-1 ring: a node with operands on opposite sides needs the
        // route allocator.
        let rcp = Rcp::new(6, 1, 1, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let mut b = DdgBuilder::default();
        // A wide fan-in tree that cannot avoid long-distance flows on a
        // 1-port ring.
        let leaves: Vec<_> = (0..6).map(|_| b.node(Opcode::Add)).collect();
        let root = b.reduce_tree(Opcode::Add, &leaves);
        let _ = root;
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let see = See::new(&ddg, &an, &pg, constraints(1), SeeConfig::default());
        let out = see.run(None).expect("router should rescue the search");
        // Every node assigned.
        for n in ddg.node_ids() {
            assert!(out.assigned.cluster_of(n).is_some(), "{n} unassigned");
        }
    }

    #[test]
    fn disabled_router_reports_no_candidates() {
        let rcp = Rcp::new(6, 1, 1, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let mut b = DdgBuilder::default();
        let leaves: Vec<_> = (0..6).map(|_| b.node(Opcode::Add)).collect();
        let _root = b.reduce_tree(Opcode::Add, &leaves);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let cfg = SeeConfig {
            enable_router: false,
            // Tight beam to make the impasse deterministic.
            beam_width: 1,
            branch_factor: 1,
            ..SeeConfig::default()
        };
        let see = See::new(&ddg, &an, &pg, constraints(1), cfg);
        match see.run(None) {
            Err(SeeError::NoCandidates { .. }) => {}
            Ok(out) => {
                // With some orders the greedy search may still squeak
                // through; then at least it must be a legal assignment.
                assert!(out.assigned.total_copies() > 0);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn pass_through_value_gets_forwarded() {
        // ext arrives on a glue-in wire and must leave on a glue-out wire;
        // nothing inside consumes it. Some cluster must spend an issue slot
        // forwarding it.
        let mut b = DdgBuilder::default();
        let ext = b.node(Opcode::Load);
        let local = b.node(Opcode::Add);
        let _ = local;
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![ext])],
            outputs: vec![IliWire::new(vec![ext])],
        });
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(Some(&[local])).unwrap();
        assert_eq!(out.assigned.forwards.len(), 1);
        let (v, c) = out.assigned.forwards[0];
        assert_eq!(v, ext);
        let inp = pg.input_ids().next().unwrap();
        let o = pg.output_ids().next().unwrap();
        assert_eq!(out.assigned.cpy(inp, c), &[ext]);
        assert_eq!(out.assigned.cpy(c, o), &[ext]);
    }

    #[test]
    fn pass_through_shares_feeder_cluster_with_internal_value() {
        // Output wire carries an internal value k and a pass-through ext:
        // unary fan-in forces the forward onto k's cluster.
        let mut b = DdgBuilder::default();
        let ext = b.node(Opcode::Load);
        let k = b.node(Opcode::Add);
        let _ = k;
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![ext])],
            outputs: vec![IliWire::new(vec![k, ext])],
        });
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let out = see.run(Some(&[k])).unwrap();
        let ck = out.assigned.cluster_of(k).unwrap();
        assert_eq!(out.assigned.forwards, vec![(ext, ck)]);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut b = DdgBuilder::default();
        for i in 0..12 {
            let x = b.node(Opcode::Add);
            let y = b.node(if i % 3 == 0 { Opcode::Mul } else { Opcode::Add });
            b.flow(x, y);
        }
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(4, ResourceTable::of_cns(2));
        let see = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default());
        let a = see.run(None).unwrap();
        let b2 = see.run(None).unwrap();
        assert_eq!(a.cost, b2.cost);
        assert_eq!(a.assigned.assignment, b2.assigned.assignment);
    }

    #[test]
    fn stop_hook_cancels_after_exactly_k_steps() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut b = DdgBuilder::default();
        for i in 0..6 {
            let x = b.node(Opcode::Load);
            let y = b.node(if i % 2 == 0 { Opcode::Mul } else { Opcode::Add });
            b.flow(x, y);
        }
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(4, ResourceTable::of_cns(2));
        let plain = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default())
            .run(None)
            .unwrap();
        assert_eq!(plain.stats.steps, 12);
        for k in [0, 1, 5, 11] {
            let calls = AtomicUsize::new(0);
            let stop = || calls.fetch_add(1, Ordering::Relaxed) >= k;
            let tracer = hca_obs::SearchTracer::enabled();
            let run = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default())
                .with_tracer(tracer.clone())
                .with_stop(&stop)
                .run(None);
            assert_eq!(run.unwrap_err(), SeeError::Cancelled, "k = {k}");
            // One poll per step started, and the (k+1)-th poll fired
            // before its step ran: exactly k steps were placed.
            assert_eq!(calls.load(Ordering::Relaxed), k + 1, "k = {k}");
            let steps = tracer
                .records()
                .iter()
                .filter(|r| r.kind == hca_obs::trace::kind::STEP)
                .count();
            assert_eq!(steps, k, "k = {k}");
        }
        // A hook that never fires changes nothing.
        let never = || false;
        let hooked = See::new(&ddg, &an, &pg, constraints(4), SeeConfig::default())
            .with_stop(&never)
            .run(None)
            .unwrap();
        assert_eq!(hooked.assigned.assignment, plain.assigned.assignment);
        assert_eq!(
            hooked.assigned.total_copies(),
            plain.assigned.total_copies()
        );
        assert_eq!(hooked.cost.to_bits(), plain.cost.to_bits());
        assert_eq!(
            (hooked.est_mii, hooked.mii_issue, hooked.mii_arc),
            (plain.est_mii, plain.mii_issue, plain.mii_arc)
        );
        assert_eq!(hooked.stats.steps, plain.stats.steps);
        assert_eq!(hooked.stats.states_explored, plain.stats.states_explored);
        assert_eq!(hooked.stats.states_pruned, plain.stats.states_pruned);
        assert_eq!(hooked.stats.beam_occupancy, plain.stats.beam_occupancy);
    }
}
