//! The metric declarations of `BENCHMARK.json` (compiled in), the names
//! this binary emits, and the name grammar both must follow.

use serde_json::Value;

/// The declaration file at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Every end-to-end metric a workload run reports with `--trace 0`.
pub const END_TO_END: [&str; 8] = [
    "compile_ms_geomean",
    "compile_ms_p90",
    "compiles_per_s",
    "setup_s",
    "peak_rss_mb",
    "mii_ratio_geomean",
    "cycles_per_iter_geomean",
    "recvs_per_node",
];

/// Every per-layer metric a workload run reports with `--trace 1`.
pub const PER_LAYER: [&str; 53] = [
    "ddg.analysis_us",
    "core.run_hca_us",
    "core.decompose_us",
    "core.materialise_us",
    "core.mii_us",
    "core.coherency_us",
    "core.subproblems",
    "core.fallback_us",
    "core.fallbacks",
    "core.guard_runs",
    "core.guard_kept_beam",
    "memo.lookups",
    "memo.hit_pct",
    "memo.bytes",
    "see.run_level0_us",
    "see.self_us",
    "see.states_explored",
    "see.states_pruned",
    "see.steps",
    "see.cand_rejected_margin",
    "see.cand_rejected_branch",
    "see.route_attempts",
    "see.route_bfs_runs",
    "see.route_cache_hit_pct",
    "see.frontier_deduped",
    "see.dominance_pruned",
    "see.lanes_scored",
    "see.lane_coverage_pct",
    "see.state_clones",
    "see.peak_frontier_bytes",
    "exact.busy_us",
    "exact.runs",
    "exact.win_pct",
    "exact.proofs",
    "exact.timeouts",
    "bounds.exit_pct",
    "mapper.level0_us",
    "mapper.busy_us",
    "mapper.member_wires",
    "mapper.glue_in_wires",
    "sched.modulo_us",
    "sched.fold_us",
    "sched.ii_excess",
    "sim.verify_us",
    "sim.stores_checked",
    "sim.mismatches",
    "serve.request_us_p50",
    "serve.ping_us_p50",
    "serve.solve_us_p50",
    "serve.transport_us_p50",
    "serve.memo_hit_pct",
    "serve.errors",
    "trace_overhead_pct",
];

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration file.
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = serde_json::from_str_value(text).map_err(|e| e.to_string())?;
        let workloads = root
            .field("workloads")
            .as_seq()
            .ok_or("`workloads` is not a list")?
            .iter()
            .map(|w| {
                w.field("name")
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// The declaration of `name` in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(root: &Value, key: &str) -> Result<Vec<Metric>, String> {
    root.field(key)
        .as_seq()
        .ok_or(format!("`{key}` is not a list"))?
        .iter()
        .map(|m| {
            let name = m.field("name").as_str().ok_or("metric without a name")?;
            let unit = m.field("unit").as_str().ok_or(format!("{name}: no unit"))?;
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("bad metric name or unit: {name} [{unit}]"));
            }
            let higher_is_better = match m.field("better").as_str() {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: `better` must be higher or lower")),
            };
            Ok(Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                higher_is_better,
                bound: m.field("bound").as_f64(),
            })
        })
        .collect()
}

/// Names: a letter or digit, then up to 63 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["compile_ms_p90", "see.self_us", "serve-neardup", "0x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "count/op", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a{b}", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_emitted_metric_is_declared() {
        let spec = Spec::load();
        let declared = |list: &[Metric]| list.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(declared(&spec.end_to_end), END_TO_END);
        assert_eq!(declared(&spec.per_layer), PER_LAYER);
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(&m.unit), "{}: {}", m.name, m.unit);
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&b), "{}: bound {b}", m.name);
        }
        let setup = spec.metric("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert_eq!(spec.workloads, crate::workloads::WORKLOADS);
        assert!(spec.workloads.iter().all(|w| valid_name(w)));
    }
}
