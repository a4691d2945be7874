//! Per-layer metrics of a traced pass: the benchmark's own spans around
//! each crate's public calls, plus the phases and counters `run_hca_obs`
//! already records. Times and counts are averages per traced operation;
//! `_pct` values are ratios of totals; `_bytes` values are high-water marks.

use crate::trace::Trace;
use hca_obs::RunMetrics;
use std::collections::BTreeMap;

/// `RunMetrics` summed over the traced operations of one run.
#[derive(Default)]
pub struct ObsTotals {
    phases_us: BTreeMap<String, f64>,
    counters: BTreeMap<String, f64>,
    /// Wall time of mapper spans opened directly inside a SEE level span.
    see_nested_mapper_us: f64,
    /// Wall time of the outermost spans on every thread: the summed
    /// hca-core phase time.
    root_stacks_us: f64,
}

impl ObsTotals {
    pub fn add(&mut self, m: &RunMetrics) {
        for p in &m.phases {
            *self.phases_us.entry(p.phase.clone()).or_default() += p.wall_us as f64;
        }
        for c in &m.counters {
            let slot = self.counters.entry(c.name.clone()).or_default();
            if c.name.ends_with("_bytes") {
                *slot = slot.max(c.value as f64);
            } else {
                *slot += c.value as f64;
            }
        }
        for s in &m.stacks {
            let mut frames = s.stack.rsplit(';');
            match (frames.next(), frames.next()) {
                (Some(leaf), Some(parent))
                    if leaf.starts_with("mapper.") && parent.starts_with("see.level") =>
                {
                    self.see_nested_mapper_us += s.wall_us as f64;
                }
                (Some(_), None) => self.root_stacks_us += s.wall_us as f64,
                _ => {}
            }
        }
    }

    fn phase(&self, name: &str) -> f64 {
        self.phases_us.get(name).copied().unwrap_or(0.0)
    }

    fn phases_with_prefix(&self, prefix: &str) -> f64 {
        self.phases_us
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// SEE beam time without the mapper calls nested in it.
    fn see_self_us(&self) -> f64 {
        self.phases_with_prefix("see.level") - self.see_nested_mapper_us
    }

    /// `see.self_us` as a share of the summed hca-core phase time.
    pub fn see_share_pct(&self) -> f64 {
        pct(self.see_self_us(), self.root_stacks_us)
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The layer metrics every workload derives the same way. Callers add the
/// workload-specific ones (`sched.ii_excess`, `sim.*`, `serve.*`,
/// `trace_overhead_pct`).
pub fn common(ops: usize, obs: &ObsTotals, trace: &Trace) -> BTreeMap<&'static str, f64> {
    let n = ops.max(1) as f64;
    let c = |name: &str| obs.counter(name) / n;
    let span = |name: &str| trace.total_us(name) / n;
    let hits = obs.counter("driver.memo_hits");
    let lookups = hits + obs.counter("driver.memo_misses");
    let route_hits = obs.counter("see.route_cache_hits");
    let lanes = obs.counter("see.lanes_scored");
    BTreeMap::from([
        ("ddg.analysis_us", span("ddg.analysis")),
        ("core.run_hca_us", span("core.run_hca")),
        ("core.decompose_us", obs.phase("driver.decompose") / n),
        ("core.materialise_us", obs.phase("driver.materialise") / n),
        ("core.mii_us", obs.phase("driver.mii") / n),
        ("core.coherency_us", obs.phase("driver.coherency") / n),
        ("core.subproblems", c("driver.subproblems")),
        ("core.fallback_us", obs.phase("driver.fallback") / n),
        ("core.fallbacks", c("driver.fallbacks")),
        ("core.guard_runs", c("portfolio.guard_runs")),
        ("core.guard_kept_beam", c("portfolio.guard_kept_beam")),
        ("memo.lookups", lookups / n),
        ("memo.hit_pct", pct(hits, lookups)),
        ("memo.bytes", obs.counter("driver.memo_bytes")),
        ("see.run_level0_us", span("see.run_level0")),
        ("see.self_us", obs.see_self_us() / n),
        ("see.states_explored", c("see.states_explored")),
        ("see.states_pruned", c("see.states_pruned")),
        ("see.steps", c("see.steps")),
        ("see.cand_rejected_margin", c("see.cand_rejected_margin")),
        ("see.cand_rejected_branch", c("see.cand_rejected_branch")),
        ("see.route_attempts", c("see.route_attempts")),
        ("see.route_bfs_runs", c("see.route_bfs_runs")),
        (
            "see.route_cache_hit_pct",
            pct(route_hits, route_hits + obs.counter("see.route_bfs_runs")),
        ),
        ("see.frontier_deduped", c("see.frontier_deduped")),
        ("see.dominance_pruned", c("see.dominance_pruned")),
        ("see.lanes_scored", c("see.lanes_scored")),
        (
            "see.lane_coverage_pct",
            pct(lanes, lanes + obs.counter("see.scalar_tail")),
        ),
        ("see.state_clones", c("see.state_clones")),
        (
            "see.peak_frontier_bytes",
            obs.counter("see.peak_frontier_bytes"),
        ),
        ("exact.busy_us", obs.phase("see.exact") / n),
        ("exact.runs", c("portfolio.exact_runs")),
        (
            "exact.win_pct",
            pct(
                obs.counter("portfolio.exact_wins"),
                obs.counter("portfolio.exact_runs"),
            ),
        ),
        ("exact.proofs", c("portfolio.exact_proofs")),
        ("exact.timeouts", c("portfolio.exact_timeouts")),
        (
            "bounds.exit_pct",
            pct(
                obs.counter("portfolio.bound_exits"),
                obs.counter("portfolio.bounds_computed"),
            ),
        ),
        ("mapper.level0_us", span("mapper.level0")),
        ("mapper.busy_us", obs.phases_with_prefix("mapper.") / n),
        ("mapper.member_wires", c("mapper.member_wires")),
        ("mapper.glue_in_wires", c("mapper.glue_in_wires")),
        ("sched.modulo_us", span("sched.modulo")),
        ("sched.fold_us", span("sched.fold")),
        ("sim.verify_us", span("sim.verify")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_obs::Obs;

    #[test]
    fn nested_mapper_time_is_not_see_time() {
        let obs = Obs::enabled();
        {
            let _see = obs.span("see", "level0");
            let _map = obs.span("mapper", "distribute");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        obs.counter_add("driver.memo_hits", 1);
        obs.counter_add("driver.memo_misses", 3);
        obs.counter_max("driver.memo_bytes", 10);
        let m = obs.finish().unwrap();
        let mut totals = ObsTotals::default();
        totals.add(&m);
        totals.add(&m);
        let layers = common(2, &totals, &Trace::new(std::time::Instant::now()));
        assert!(layers["mapper.busy_us"] >= 2000.0);
        assert!(layers["see.self_us"] < layers["mapper.busy_us"]);
        assert_eq!(layers["memo.hit_pct"], 25.0);
        assert_eq!(layers["memo.lookups"], 4.0);
        assert_eq!(
            layers["memo.bytes"], 10.0,
            "byte counters are peaks, not sums"
        );
        assert!(totals.see_share_pct() < 50.0);
    }
}
