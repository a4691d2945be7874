//! Candidate and node filters (paper §3, Figure 5).
//!
//! The candidate filter reduces the per-node candidate list before the
//! partial solution forks; the node filter "prunes low-quality partial
//! solutions" to keep the frontier — the grey zone of Figure 5 — of limited
//! size (beam search).

use crate::state::PartialState;
use hca_pg::PgNodeId;
use smallvec::SmallVec;

/// Scored candidates of one (state, node) pair. Inline capacity covers the
/// common fan-out so the per-state scoring loop performs no heap allocation.
pub type CandList = SmallVec<[(PgNodeId, f64); 8]>;

/// Reduces the list of scored candidates for one DDG node.
#[derive(Clone, Copy, Debug)]
pub struct CandidateFilter {
    /// Keep at most this many candidates (branch factor of the search tree).
    pub branch_factor: usize,
    /// Drop candidates costing more than `best + margin` — "too severe" a
    /// margin is one of the paper's two no-candidate causes, so keep it wide
    /// by default.
    pub margin: f64,
}

impl Default for CandidateFilter {
    fn default() -> Self {
        CandidateFilter {
            branch_factor: 3,
            margin: 16.0,
        }
    }
}

/// How many candidates [`CandidateFilter::apply`] rejected, by rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidatePruning {
    /// Rejected for costing more than `best + margin`.
    pub by_margin: usize,
    /// Rejected by truncation to the branch factor.
    pub by_branch: usize,
}

impl CandidateFilter {
    /// Filter `candidates` (cluster, objective) in place: sort ascending by
    /// cost (ties by cluster id for determinism), apply the margin, truncate
    /// to the branch factor. Returns how many candidates each rule dropped.
    pub fn apply(&self, candidates: &mut CandList) -> CandidatePruning {
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let before = candidates.len();
        if let Some(&(_, best)) = candidates.first() {
            let cutoff = best + self.margin;
            // A NaN margin (degenerate config) makes the cutoff NaN and
            // `c <= NaN` false for every candidate — the filter would drop
            // the whole list, including `best` itself. Treat a non-finite
            // cutoff as "no margin pruning" instead.
            if cutoff.is_finite() {
                candidates.retain(|&(_, c)| c <= cutoff);
            }
        }
        let by_margin = before - candidates.len();
        let after_margin = candidates.len();
        candidates.truncate(self.branch_factor);
        CandidatePruning {
            by_margin,
            by_branch: after_margin - candidates.len(),
        }
    }
}

/// Prunes the frontier of partial solutions back to the beam width.
#[derive(Clone, Copy, Debug)]
pub struct NodeFilter {
    /// Maximum surviving partial solutions per step.
    pub beam_width: usize,
}

impl Default for NodeFilter {
    fn default() -> Self {
        NodeFilter { beam_width: 8 }
    }
}

impl NodeFilter {
    /// Keep the `beam_width` cheapest states (stable on cost ties, so the
    /// search is deterministic). Returns the number of states pruned.
    pub fn apply(&self, frontier: &mut Vec<PartialState>) -> usize {
        frontier.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        let before = frontier.len();
        frontier.truncate(self.beam_width);
        before - frontier.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_filter_sorts_margins_and_truncates() {
        let f = CandidateFilter {
            branch_factor: 2,
            margin: 5.0,
        };
        let mut cands: CandList = smallvec::smallvec![
            (PgNodeId(0), 10.0),
            (PgNodeId(1), 3.0),
            (PgNodeId(2), 7.0),
            (PgNodeId(3), 4.0),
        ];
        let pruned = f.apply(&mut cands);
        // 10.0 dropped by margin (3+5=8), then truncation to 2.
        assert_eq!(cands.as_slice(), [(PgNodeId(1), 3.0), (PgNodeId(3), 4.0)]);
        assert_eq!(
            pruned,
            CandidatePruning {
                by_margin: 1,
                by_branch: 1
            }
        );
    }

    #[test]
    fn candidate_filter_tie_break_is_deterministic() {
        let f = CandidateFilter::default();
        let mut cands: CandList =
            smallvec::smallvec![(PgNodeId(2), 1.0), (PgNodeId(0), 1.0), (PgNodeId(1), 1.0)];
        f.apply(&mut cands);
        assert_eq!(
            cands.iter().map(|c| c.0).collect::<Vec<_>>(),
            vec![PgNodeId(0), PgNodeId(1), PgNodeId(2)]
        );
    }

    #[test]
    fn candidate_filter_nan_margin_keeps_candidates() {
        let f = CandidateFilter {
            branch_factor: 3,
            margin: f64::NAN,
        };
        let mut cands: CandList = smallvec::smallvec![
            (PgNodeId(0), 10.0),
            (PgNodeId(1), 3.0),
            (PgNodeId(2), 7.0),
            (PgNodeId(3), 4.0),
        ];
        let pruned = f.apply(&mut cands);
        // Margin pruning is disabled; only the branch factor truncates.
        assert_eq!(
            cands.as_slice(),
            [(PgNodeId(1), 3.0), (PgNodeId(3), 4.0), (PgNodeId(2), 7.0)]
        );
        assert_eq!(
            pruned,
            CandidatePruning {
                by_margin: 0,
                by_branch: 1
            }
        );
    }

    #[test]
    fn candidate_filter_empty_ok() {
        let f = CandidateFilter::default();
        let mut cands = CandList::new();
        f.apply(&mut cands);
        assert!(cands.is_empty());
    }
}
