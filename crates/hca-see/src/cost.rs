//! The objective function and its cost criteria (paper §3/§4.2).
//!
//! "The compiler performs the ICA pass by optimizing a global cost function,
//! built on a set of heuristic criteria" aimed at the best compromise
//! between parallelism and inter-cluster penalties. Since the paper's goal
//! function centres on the loop's Initiation Interval, the dominant term is
//! the estimated MII; the remaining terms are classical ICA criteria that
//! break ties towards fewer, cheaper copies.

use crate::state::{PartialState, SeeContext};

/// Weights of the objective-function criteria (lower objective = better).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    /// Per inter-cluster copy (a value-destination pair).
    pub copy: f64,
    /// Per unit of estimated MII — the paper's main cost factor.
    pub pressure: f64,
    /// Per unit of worst per-issue-slot utilisation (load balance).
    pub balance: f64,
    /// Critical-path stretch: accumulated transport latency landing on
    /// low-slack edges.
    pub critical: f64,
    /// Per copy inside a recurrence SCC (it inflates MIIRec directly).
    pub recurrence: f64,
    /// Per route-through hop inserted by the Route Allocator.
    pub route: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            copy: 1.0,
            pressure: 4.0,
            balance: 2.0,
            critical: 1.0,
            recurrence: 4.0,
            route: 2.0,
        }
    }
}

impl CostWeights {
    /// Weights that only count copies — the classical minimum-cut criterion,
    /// kept for the ablation benches.
    pub fn copies_only() -> Self {
        CostWeights {
            copy: 1.0,
            pressure: 0.0,
            balance: 0.0,
            critical: 0.0,
            recurrence: 0.0,
            route: 1.0,
        }
    }

    /// Weights that only track the MII estimate (pure pressure objective).
    pub fn pressure_only() -> Self {
        CostWeights {
            copy: 0.0,
            pressure: 1.0,
            balance: 0.0,
            critical: 0.0,
            recurrence: 0.0,
            route: 0.0,
        }
    }
}

/// The aggregate inputs of [`objective`], decoupled from [`PartialState`]
/// so the mutation-free candidate scorer ([`crate::assignable::score_assign`])
/// can evaluate the *same* formula over trial-local aggregates. Keeping one
/// arithmetic path is what makes the scorer bit-exact against the
/// apply-read-undo route.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostInputs {
    pub total_copies: u32,
    pub recurrence_copies: u32,
    pub critical_penalty: f64,
    pub routed_hops: u32,
    pub mii_issue: u32,
    pub mii_arc: u32,
    pub util_sq_sum: f64,
    pub util_clusters: u32,
}

/// Evaluate the weighted objective from raw aggregates — the single
/// arithmetic path behind both [`objective`] and the mutation-free scorer.
pub(crate) fn objective_from_parts(ctx: &SeeContext<'_>, p: &CostInputs) -> f64 {
    let mii = ctx.analysis.mii_rec.max(p.mii_issue).max(p.mii_arc).max(1);
    let mii_term = if mii == u32::MAX {
        // Infeasible resource usage: poison the state without NaNs.
        1e12
    } else {
        f64::from(mii)
    };
    let balance = if p.util_clusters == 0 {
        0.0
    } else {
        p.util_sq_sum / f64::from(p.util_clusters)
    };
    let w = &ctx.weights;
    let cost = w.copy * f64::from(p.total_copies)
        + w.pressure * mii_term
        + w.balance * balance
        + w.critical * p.critical_penalty
        + w.recurrence * f64::from(p.recurrence_copies)
        + w.route * f64::from(p.routed_hops);
    // Degenerate weights (NaN or ±inf, e.g. from a sweep config) must not
    // leak non-finite costs into the beam: `total_cmp` sorts NaN *above*
    // +inf, but `best + margin` arithmetic and cost deltas would still turn
    // nondeterministic. Clamp to the same poison value as infeasible MII so
    // every state keeps a finite, totally ordered cost.
    if cost.is_finite() {
        cost
    } else {
        1e12
    }
}

/// Evaluate the weighted objective of a partial state.
pub fn objective(ctx: &SeeContext<'_>, st: &PartialState) -> f64 {
    objective_from_parts(ctx, &st.cost_inputs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::ResourceTable;
    use hca_ddg::{DdgAnalysis, DdgBuilder, Opcode};
    use hca_pg::{ArchConstraints, Pg, PgNodeId};

    #[test]
    fn objective_prefers_fewer_copies() {
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q = b.node(Opcode::Add);
        b.flow(p, q);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &an,
            pg: &pg,
            constraints: ArchConstraints {
                max_in_neighbors: 4,
                max_out_neighbors: None,
                out_node_max_in: 1,
                copy_latency: 1,
            },
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(&pg),
        };
        let mut same = crate::state::PartialState::initial(&ctx, &[]);
        same.apply_assign(&ctx, p, PgNodeId(0));
        same.apply_assign(&ctx, q, PgNodeId(0));
        let mut split = crate::state::PartialState::initial(&ctx, &[]);
        split.apply_assign(&ctx, p, PgNodeId(0));
        split.apply_assign(&ctx, q, PgNodeId(1));
        assert!(same.cost < split.cost, "{} vs {}", same.cost, split.cost);
    }

    #[test]
    fn objective_is_finite_under_degenerate_weights() {
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q = b.node(Opcode::Add);
        b.flow(p, q);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        for weights in [
            CostWeights {
                copy: f64::NAN,
                ..CostWeights::default()
            },
            CostWeights {
                pressure: f64::INFINITY,
                ..CostWeights::default()
            },
            CostWeights {
                balance: f64::NEG_INFINITY,
                ..CostWeights::default()
            },
        ] {
            let ctx = SeeContext {
                ddg: &ddg,
                analysis: &an,
                pg: &pg,
                constraints: ArchConstraints {
                    max_in_neighbors: 4,
                    max_out_neighbors: None,
                    out_node_max_in: 1,
                    copy_latency: 1,
                },
                weights,
                issue_cap: None,
                statics: crate::statics::PgStatics::build(&pg),
            };
            let mut st = crate::state::PartialState::initial(&ctx, &[]);
            st.apply_assign(&ctx, p, PgNodeId(0));
            st.apply_assign(&ctx, q, PgNodeId(1));
            assert!(st.cost.is_finite(), "cost {} for {weights:?}", st.cost);
        }
    }

    #[test]
    fn ablation_weights_differ() {
        assert_ne!(CostWeights::copies_only(), CostWeights::default());
        assert_eq!(CostWeights::pressure_only().copy, 0.0);
    }
}
