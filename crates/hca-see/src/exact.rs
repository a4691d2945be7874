//! Exact branch-and-bound assignment — the portfolio's second backend.
//!
//! [`See::run_exact`] explores the *complete* direct-assignment space of one
//! sub-problem by depth-first branch and bound over the same
//! [`PriorityOrder`] the beam consumes, reusing the beam's own screens
//! ([`crate::assignable::node_view`] / `score_if_assignable`) and the
//! journalled apply/undo state machinery — zero state clones except when a
//! new incumbent is recorded.
//!
//! Pruning, in the order it fires:
//!
//! 1. **Incumbent bound** (admissible): the solution score is
//!    `16·MII + copies`; every aggregate it reads (`mii_issue`, `mii_arc`,
//!    copy count) only grows as nodes are placed, so
//!    `16·max(partial MII, floor) + partial copies` never exceeds any
//!    completion's score. Branches at or above the incumbent die.
//! 2. **Lookahead** (admissible): every unplaced node will charge at least
//!    one issue slot somewhere, so the final issue MII is at least
//!    `ceil((current Σ issue load + remaining) / Σ issue slots)`.
//! 3. **Slot symmetry** (a dominance argument): two *pristine* clusters
//!    (no load, no neighbours) that the Pattern Graph cannot tell apart
//!    (equal resource tables, identical potential-arc rows under the swap)
//!    generate isomorphic subtrees — only the lowest-id one is branched.
//!
//! The search stops the instant an incumbent hits the shared lower-bound
//! floor (`16·floor + 0` — an absolute optimality proof), or when the
//! deterministic node budget runs out. The visit order and cut point are
//! fixed, so results are reproducible on any machine.
//!
//! Completeness caveat (reported via [`ExactOutcome::exhausted`]): the
//! search never invokes the Route Allocator, so it covers *direct*
//! assignments only — routed solutions could in principle score better.
//! `exhausted` therefore proves optimality among direct assignments;
//! absolute proofs come from hitting the floor. Pass-through feeder
//! choices are enumerated through
//! [`resolve_forwards`](See::run)'s planner, which truncates to
//! `branch_factor`/`beam_width` — use [`crate::SeeConfig::exhaustive`] so
//! the enumeration is complete.

use crate::engine::{See, SeeError, SeeOutcome, SeeStats, StatePool};
use crate::state::PartialState;
use hca_ddg::{NodeId, PriorityOrder};
use hca_pg::PgNodeId;

/// Default branch-node budget of one exact run, and the one the driver's
/// exact-small portfolio uses. Not part of the memo key: changing it (or
/// the driver's `EXACT_MAX_NODES`) changes cached exact-small results, so
/// it needs an `hca_core::SNAPSHOT_VERSION` bump.
pub const EXACT_NODE_BUDGET: u64 = 200_000;

/// Driver-facing knobs of one exact run.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Deterministic branch-node budget: the search stops (unproven) after
    /// visiting this many branch points, a machine-independent cut.
    pub node_budget: u64,
    /// Incumbent seed, usually the beam winner's `16·MII + copies` score.
    /// Only *strictly better* solutions are recorded, so a seeded search
    /// that finds nothing proves nothing new but also costs little.
    pub incumbent_score: Option<u64>,
    /// Admissible MII floor shared with the beam
    /// ([`crate::bounds::mii_lower_bound`]); used for pruning and the
    /// proven-optimal early exit. Use 1 when no tighter floor is known.
    pub floor: u32,
    /// Cap on the pass-through feeder combinations taken as search roots;
    /// beyond it the enumeration is truncated (and `exhausted` cleared).
    pub max_roots: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            node_budget: EXACT_NODE_BUDGET,
            incumbent_score: None,
            floor: 1,
            max_roots: 256,
        }
    }
}

/// What one exact run established.
#[derive(Debug)]
pub struct ExactOutcome {
    /// The best solution found that beats the incumbent seed, shaped
    /// exactly like a beam outcome (same downstream Mapper/validation
    /// path). `None` when the seed was never beaten.
    pub outcome: Option<SeeOutcome>,
    /// Score (`16·MII + copies`) of `outcome`.
    pub score: Option<u64>,
    /// The best solution's MII equals the admissible floor — absolute
    /// optimality proof for the MII.
    pub mii_proven: bool,
    /// The direct-assignment space was fully explored (no budget cut,
    /// root enumeration complete): whatever the best known solution is —
    /// found here or the incumbent seed — it is optimal among direct
    /// assignments.
    pub exhausted: bool,
    /// Branch points visited.
    pub nodes_visited: u64,
}

/// The solution score both portfolio backends optimise: MII dominates,
/// copies tie-break. Must mirror the driver's tier-selection score.
#[inline]
pub fn solution_score(est_mii: u32, total_copies: u32) -> u64 {
    16 * u64::from(est_mii) + u64::from(total_copies)
}

struct Dfs<'s, 'a> {
    see: &'s See<'a>,
    order: Vec<NodeId>,
    /// Exclusive cutoff: only scores `< cutoff` are recorded.
    cutoff: u64,
    floor: u32,
    floor_score: u64,
    best: Option<PartialState>,
    nodes: u64,
    budget: u64,
    /// The node budget cut the search.
    stopped: bool,
    /// An incumbent reached the absolute floor — nothing can beat it.
    done: bool,
    /// `sym[a.index() * pg_nodes + b.index()]`: the PG has an automorphism
    /// swapping clusters `a` and `b` and fixing everything else.
    sym: Vec<bool>,
    pg_nodes: usize,
    /// Σ issue slots across clusters, for the lookahead floor.
    issue_slots: u32,
}

impl<'s, 'a> Dfs<'s, 'a> {
    /// Cluster `c` carries nothing in `st`: no load (hence no placements,
    /// receives or forwards) and no copy arcs in either direction.
    fn pristine(&self, st: &PartialState, c: PgNodeId) -> bool {
        st.loads.issue(c.index()) == 0
            && st.in_neighbors.len(c.index()) == 0
            && st.out_neighbors.len(c.index()) == 0
    }

    fn dfs(&mut self, depth: usize, st: &mut PartialState) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.stopped = true;
            return;
        }
        let ctx = &self.see.ctx;
        // Admissible lower bound on any completion of `st` (the aggregates
        // it reads only grow), tightened by the issue-slot lookahead.
        let mut est = st.estimated_mii(ctx).max(self.floor);
        let remaining = (self.order.len() - depth) as u32;
        if remaining > 0 && self.issue_slots > 0 {
            let issue_now: u32 = st.loads.issue_all().iter().sum();
            est = est.max((issue_now + remaining).div_ceil(self.issue_slots));
        }
        let lb = 16 * u64::from(est) + u64::from(st.total_copies);
        if lb >= self.cutoff {
            return;
        }
        if depth == self.order.len() {
            let score = solution_score(st.estimated_mii(ctx), st.total_copies);
            if score < self.cutoff {
                self.cutoff = score;
                self.best = Some(st.clone());
                if score <= self.floor_score {
                    self.done = true;
                }
            }
            return;
        }
        let n = self.order[depth];
        let view = crate::assignable::node_view(ctx, st, n);
        let mut cands: Vec<(PgNodeId, f64)> = Vec::new();
        for c in view.candidates() {
            if let Some(cost) = crate::assignable::score_if_assignable(ctx, st, &view, n, c) {
                cands.push((c, cost));
            }
        }
        // Cheapest-looking candidate first: good incumbents early make the
        // bound bite sooner. Cluster id tie-breaks for determinism.
        cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut taken: Vec<PgNodeId> = Vec::with_capacity(cands.len());
        for (c, _) in cands {
            // Slot symmetry: a pristine cluster interchangeable with an
            // already-branched pristine sibling explores an isomorphic
            // subtree — skip it.
            if self.pristine(st, c)
                && taken.iter().any(|&t| {
                    self.sym[t.index() * self.pg_nodes + c.index()] && self.pristine(st, t)
                })
            {
                continue;
            }
            taken.push(c);
            let undo = st.apply_assign_logged(ctx, n, c);
            self.dfs(depth + 1, st);
            st.undo_assign(ctx, undo);
            if self.done || self.stopped {
                return;
            }
        }
    }
}

impl<'a> See<'a> {
    /// True when swapping clusters `a` and `b` (fixing every other PG node)
    /// is an automorphism of the Pattern Graph: equal resource tables and
    /// identical potential-arc rows/columns under the swap.
    fn clusters_interchangeable(&self, a: PgNodeId, b: PgNodeId) -> bool {
        let pg = self.ctx.pg;
        if pg.node(a).rt != pg.node(b).rt {
            return false;
        }
        let st = &self.ctx.statics;
        if st.is_potential(a, b) != st.is_potential(b, a)
            || st.is_potential(a, a) != st.is_potential(b, b)
        {
            return false;
        }
        pg.node_ids().filter(|&x| x != a && x != b).all(|x| {
            st.is_potential(a, x) == st.is_potential(b, x)
                && st.is_potential(x, a) == st.is_potential(x, b)
        })
    }

    /// Exact branch-and-bound over `working_set` (the whole DDG when
    /// `None`). See the module docs for the search design and the meaning
    /// of the returned flags.
    ///
    /// Build the [`See`] with [`crate::SeeConfig::exhaustive`] so the
    /// pass-through planner enumerates every feeder choice; a default
    /// config still searches correctly but `exhausted` stays `false`.
    pub fn run_exact(
        &self,
        working_set: Option<&[NodeId]>,
        cfg: &ExactConfig,
    ) -> Result<ExactOutcome, SeeError> {
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
        let ws_nodes: Vec<NodeId> = order.nodes().to_vec();
        let mut pool = StatePool::default();
        let initial = vec![PartialState::initial(&self.ctx, &ws_nodes)];
        let mut roots = self.resolve_forwards(initial, &mut pool)?;
        // Cheapest pass-through plan first (same rationale as candidate
        // ordering); stable on cost ties, so the order is deterministic.
        roots.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        let num_clusters = self.ctx.pg.cluster_ids().count();
        // Conservative: the planner truncates per-wire forks to
        // `branch_factor` and the frontier to `beam_width`; only a config
        // that provably never truncated may claim a complete enumeration.
        let roots_complete = roots.len() <= cfg.max_roots
            && self.config.branch_factor >= num_clusters
            && roots.len() < self.config.beam_width;
        roots.truncate(cfg.max_roots.max(1));

        let pg_nodes = self.ctx.pg.num_nodes();
        let mut sym = vec![false; pg_nodes * pg_nodes];
        let clusters: Vec<PgNodeId> = self.ctx.pg.cluster_ids().collect();
        for (i, &a) in clusters.iter().enumerate() {
            for &b in &clusters[i + 1..] {
                if self.clusters_interchangeable(a, b) {
                    sym[a.index() * pg_nodes + b.index()] = true;
                    sym[b.index() * pg_nodes + a.index()] = true;
                }
            }
        }
        let issue_slots = clusters.iter().map(|&c| self.ctx.pg.node(c).rt.issue).sum();

        let mut dfs = Dfs {
            see: self,
            order: ws_nodes,
            cutoff: cfg.incumbent_score.unwrap_or(u64::MAX),
            floor: cfg.floor,
            floor_score: 16 * u64::from(cfg.floor),
            best: None,
            nodes: 0,
            budget: cfg.node_budget.max(1),
            stopped: false,
            done: false,
            sym,
            pg_nodes,
            issue_slots,
        };
        for mut root in roots {
            dfs.dfs(0, &mut root);
            if dfs.done || dfs.stopped {
                break;
            }
        }

        let exhausted = !dfs.stopped && roots_complete;
        let nodes_visited = dfs.nodes;
        let (outcome, score, mii_proven) = match dfs.best {
            Some(best) => {
                let est_mii = best.estimated_mii(&self.ctx);
                let score = solution_score(est_mii, best.total_copies);
                let (mii_issue, mii_arc) = (best.mii_issue, best.mii_arc);
                let cost = best.cost;
                let steps = order.nodes().len();
                let outcome = SeeOutcome {
                    assigned: best.into_assigned(self.ctx.pg),
                    cost,
                    est_mii,
                    mii_issue,
                    mii_arc,
                    stats: SeeStats {
                        // One branch point ≈ one materialised state; the
                        // winner is the single survivor, so the documented
                        // `explored == pruned + occupancy` split holds.
                        states_explored: nodes_visited as usize,
                        states_pruned: (nodes_visited as usize).saturating_sub(1),
                        steps: steps.max(1),
                        beam_occupancy_sum: 1,
                        beam_occupancy: vec![1],
                        route_table_bytes: self.rt.approx_bytes(),
                        arc_table_bytes: self.ctx.statics.arc_table_bytes(),
                        ..SeeStats::default()
                    },
                };
                (Some(outcome), Some(score), est_mii <= cfg.floor)
            }
            None => (None, None, false),
        };
        Ok(ExactOutcome {
            outcome,
            score,
            mii_proven,
            exhausted,
            nodes_visited,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeeConfig;
    use hca_arch::ResourceTable;
    use hca_ddg::{Ddg, DdgAnalysis, DdgBuilder, LatencyModel, Opcode};
    use hca_pg::{ArchConstraints, Pg};

    fn constraints(max_in: u32) -> ArchConstraints {
        ArchConstraints {
            max_in_neighbors: max_in,
            max_out_neighbors: None,
            out_node_max_in: 1,
            copy_latency: 1,
        }
    }

    /// A small dependent kernel: two loads feeding a multiply-add chain
    /// into a store.
    fn small_kernel() -> Ddg {
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let l0 = b.node(Opcode::Load);
        let l1 = b.node(Opcode::Load);
        let m = b.node(Opcode::Mul);
        let a = b.node(Opcode::Add);
        let s = b.node(Opcode::Store);
        b.flow(l0, m);
        b.flow(l1, m);
        b.flow(m, a);
        b.flow(a, s);
        b.finish()
    }

    #[test]
    fn exact_never_loses_to_the_beam_and_passes_strict_checks() {
        let ddg = small_kernel();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(1));
        let cons = constraints(2);
        let beam = crate::See::new(&ddg, &an, &pg, cons, SeeConfig::default())
            .run(None)
            .expect("beam solves the fixture");
        let beam_score = solution_score(beam.est_mii, beam.assigned.total_copies() as u32);
        let see = crate::See::new(&ddg, &an, &pg, cons, SeeConfig::exhaustive());
        let floor = crate::bounds::mii_lower_bound(&ddg, &an, &pg, &cons, None).overall();
        let res = see
            .run_exact(
                None,
                &ExactConfig {
                    incumbent_score: Some(beam_score),
                    floor,
                    ..ExactConfig::default()
                },
            )
            .expect("exact run succeeds");
        assert!(res.exhausted, "tiny space must be fully explored");
        if let Some(out) = &res.outcome {
            // Anything recorded must strictly beat the seed and clear the
            // same legality gate beam results clear.
            assert!(res.score.unwrap() < beam_score);
            assert!(out.est_mii <= beam.est_mii);
            assert!(out.est_mii >= floor, "floor must stay admissible");
            cons.check(&out.assigned).expect("exact output is legal");
        }
    }

    #[test]
    fn exact_proves_the_floor_on_independent_ops() {
        // 4 independent adds on 4 clusters: MII 1 with zero copies is the
        // provable optimum and the search must stop on it.
        let mut b = DdgBuilder::new(LatencyModel::unit());
        for _ in 0..4 {
            b.node(Opcode::Add);
        }
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(4, ResourceTable::of_cns(1));
        let cons = constraints(2);
        let floor = crate::bounds::mii_lower_bound(&ddg, &an, &pg, &cons, None).overall();
        assert_eq!(floor, 1);
        let see = crate::See::new(&ddg, &an, &pg, cons, SeeConfig::exhaustive());
        let res = see
            .run_exact(
                None,
                &ExactConfig {
                    floor,
                    ..ExactConfig::default()
                },
            )
            .unwrap();
        let out = res.outcome.expect("unseeded search records a solution");
        assert_eq!(out.est_mii, 1);
        assert_eq!(out.assigned.total_copies(), 0);
        assert!(res.mii_proven, "floor hit must be reported as proven");
        // Slot symmetry: the 4 clusters are interchangeable while pristine,
        // so the proof needs only a handful of branch points, not 4^4.
        assert!(
            res.nodes_visited <= 32,
            "symmetry pruning missing: {} branch points",
            res.nodes_visited
        );
    }

    #[test]
    fn node_budget_cuts_deterministically() {
        let ddg = small_kernel();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(1));
        let cons = constraints(2);
        let see = crate::See::new(&ddg, &an, &pg, cons, SeeConfig::exhaustive());
        let cfg = ExactConfig {
            node_budget: 2,
            ..ExactConfig::default()
        };
        let a = see.run_exact(None, &cfg).unwrap();
        let b = see.run_exact(None, &cfg).unwrap();
        assert!(!a.exhausted, "budget cut must clear the exhausted proof");
        assert_eq!(a.nodes_visited, b.nodes_visited, "cut point is fixed");
        assert_eq!(a.score, b.score, "budget-cut result is deterministic");
    }

    #[test]
    fn tampered_exact_output_fails_the_strict_gate() {
        // The exact backend's outputs go through the *same*
        // `ArchConstraints::check` gate as beam outputs: corrupting the
        // assigned PG must be caught.
        let ddg = small_kernel();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(1));
        let cons = constraints(2);
        let see = crate::See::new(&ddg, &an, &pg, cons, SeeConfig::exhaustive());
        let res = see.run_exact(None, &ExactConfig::default()).unwrap();
        let mut out = res.outcome.expect("unseeded search records a solution");
        cons.check(&out.assigned)
            .expect("untampered output is legal");
        // Forge a copy on a non-potential pattern (output nodes have no
        // outgoing arcs; with no ILI attached, any special id is absent —
        // use a reversed self-arc instead: cluster -> itself).
        let c0 = out.assigned.pg.cluster_ids().next().unwrap();
        out.assigned
            .copies
            .insert((c0, c0), vec![hca_ddg::NodeId(0)]);
        assert!(
            cons.check(&out.assigned).is_err(),
            "forged non-potential copy must fail the gate"
        );
    }

    #[test]
    fn unknown_working_set_node_is_rejected() {
        let ddg = small_kernel();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(1));
        let cons = constraints(2);
        let see = crate::See::new(&ddg, &an, &pg, cons, SeeConfig::exhaustive());
        let bogus = [hca_ddg::NodeId(999)];
        let err = see
            .run_exact(Some(&bogus), &ExactConfig::default())
            .unwrap_err();
        assert_eq!(err, SeeError::UnknownNode { node: bogus[0] });
    }
}
