//! Search-trace introspection: `hca explain` replays a recorded (or
//! freshly captured) search trace into a per-sub-problem report, and
//! `hca diff-metrics` attributes the wall-clock delta between two metrics
//! dumps to phases and counters.

use crate::Options;
use hca_obs::trace::{self, kind, EXACT_TIER, FALLBACK_TIER};
use hca_obs::{Obs, RunMetrics, SearchTracer, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `hca explain <kernel|trace.jsonl|fuzz>`: capture (or read) a search
/// trace and print the introspection report. A `.jsonl` target replays an
/// existing trace file; `fuzz` generates the `--seed`/`--max-nodes` fuzz
/// kernel; anything else resolves like every other command's target.
/// `--trace-out` saves the captured raw trace for later replay.
pub(crate) fn cmd_explain(opts: &Options) -> Result<(), String> {
    // A trace describes one solve under one configuration; the config sweep
    // runs five, so honouring the rest of the options while dropping this
    // one would explain a run the user did not ask about.
    if opts.portfolio {
        return Err("explain does not support --portfolio: it traces one \
                    configuration, not the config sweep"
            .into());
    }
    let target = opts.target.as_deref().unwrap_or("");
    let (title, records, run) = if target.ends_with(".jsonl")
        && std::path::Path::new(target).is_file()
    {
        (target.to_string(), trace::read_jsonl_file(target)?, None)
    } else {
        let (name, ddg) = if target == "fuzz" {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            (
                format!("fuzz seed {}", opts.seed),
                hca_check::random_kernel(&mut rng, opts.max_nodes),
            )
        } else {
            opts.load_ddg()?
        };
        let tracer = match &opts.trace_out {
            Some(path) => {
                SearchTracer::to_file(path).map_err(|e| format!("--trace-out {path}: {e}"))?
            }
            None => SearchTracer::enabled(),
        };
        let fabric = opts.fabric();
        let res =
            hca_core::run_hca_traced(&ddg, &fabric, &opts.hca_config(), &Obs::enabled(), &tracer)
                .map_err(|e| e.to_string())?;
        tracer.flush().map_err(|e| e.to_string())?;
        if let Some(path) = &opts.trace_out {
            eprintln!("(raw search trace written to {path})");
        }
        (name, tracer.records(), res.metrics)
    };
    print!("{}", explain_report(&title, &records, run.as_ref()));
    Ok(())
}

/// Everything `explain` aggregates about one sub-problem.
#[derive(Default)]
struct SubReport {
    depth: u32,
    ws: u32,
    ili_in: u32,
    ili_out: u32,
    /// `(tier, ok, est_mii, why)` in attempt order.
    tiers: Vec<(u32, bool, u32, String)>,
    solved: Option<TraceRecord>,
    steps: u64,
    step_ns: u64,
    explored: u64,
}

/// Render the full introspection report from a flat record sequence. Pure
/// so a trace read from disk and one captured in-process explain
/// identically. A live capture also hands in its run counters (`run`), for
/// the one line a trace does not record: how much speculative ladder work
/// the portfolio discarded, which depends on timing above one thread.
pub(crate) fn explain_report(
    title: &str,
    records: &[TraceRecord],
    run: Option<&RunMetrics>,
) -> String {
    let mut subs: BTreeMap<String, SubReport> = BTreeMap::new();
    // Pruning-reason totals across every step of every SEE run.
    let (mut pr_beam, mut pr_margin, mut pr_branch) = (0u64, 0u64, 0u64);
    let (mut rescued_steps, mut route_bfs, mut route_hits) = (0u64, 0u64, 0u64);
    let mut depth_stats: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new(); // subs, steps, ns
    let mut mii_rec: Option<&TraceRecord> = None;
    for r in records {
        match r.kind.as_str() {
            kind::SUB => {
                let s = subs.entry(r.problem.clone()).or_default();
                (s.depth, s.ws, s.ili_in, s.ili_out) = (r.depth, r.ws, r.ili_in, r.ili_out);
                depth_stats.entry(r.depth).or_default().0 += 1;
            }
            kind::STEP => {
                let s = subs.entry(r.problem.clone()).or_default();
                s.steps += 1;
                s.step_ns += r.ns;
                s.explored += r.explored;
                pr_beam += r.pruned_beam;
                pr_margin += r.rej_margin;
                pr_branch += r.rej_branch;
                rescued_steps += u64::from(r.rescued);
                let d = depth_stats.entry(r.depth).or_default();
                d.1 += 1;
                d.2 += r.ns;
            }
            kind::TIER => {
                let s = subs.entry(r.problem.clone()).or_default();
                s.tiers.push((r.tier, r.ok, r.est_mii, r.why.clone()));
                route_bfs += r.route_bfs;
                route_hits += r.route_hits;
            }
            kind::SOLVED => {
                subs.entry(r.problem.clone()).or_default().solved = Some(r.clone());
            }
            kind::MII => mii_rec = Some(r),
            // Kinds this reader does not know, e.g. an older trace's `memo`.
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain {title}: {} trace records, {} sub-problems",
        records.len(),
        subs.len()
    );

    if let Some(m) = mii_rec {
        let _ = writeln!(
            out,
            "\nfinal MII {} — bound by {} (recurrence {}, cluster {}, wire {})",
            m.est_mii, m.why, m.mii_rec, m.mii_issue, m.mii_arc
        );
    }

    let _ = writeln!(out, "\nper-depth wall-clock (search steps only):");
    for (d, (nsubs, steps, ns)) in &depth_stats {
        let _ = writeln!(
            out,
            "  depth {d}: {nsubs:>4} sub-problems, {steps:>6} steps, {:>9.3} ms",
            *ns as f64 / 1e6
        );
    }

    let pr_total = pr_beam + pr_margin + pr_branch;
    let _ = writeln!(out, "\npruning reasons ({pr_total} candidate/state drops):");
    for (label, n) in [
        ("beam truncation", pr_beam),
        ("margin rejection", pr_margin),
        ("branch truncation", pr_branch),
    ] {
        let pct = if pr_total > 0 {
            n as f64 * 100.0 / pr_total as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "  {label:<18} {n:>10}  {pct:>5.1}%");
    }
    if rescued_steps > 0 {
        let _ = writeln!(out, "  route-rescue steps {rescued_steps:>10}");
    }

    let route_queries = route_bfs + route_hits;
    if route_queries > 0 {
        let _ = writeln!(out, "\ncache efficiency:");
        let _ = writeln!(
            out,
            "  route table: {route_hits} static answers / {route_queries} queries ({:.1}%)",
            route_hits as f64 * 100.0 / route_queries as f64
        );
    }

    // Portfolio exact backend: every EXACT_TIER tier record is one
    // branch-and-bound run, `ok` marks the ones that displaced the beam
    // winner and `why` records how the run ended.
    let exact: Vec<&(u32, bool, u32, String)> = subs
        .values()
        .flat_map(|s| s.tiers.iter())
        .filter(|t| t.0 == EXACT_TIER)
        .collect();
    if !exact.is_empty() {
        let wins = exact.iter().filter(|t| t.1).count();
        let mut ends: BTreeMap<&str, u64> = BTreeMap::new();
        for t in &exact {
            *ends.entry(t.3.as_str()).or_default() += 1;
        }
        let _ = writeln!(
            out,
            "\nportfolio exact backend: {} run(s), {wins} displaced the beam winner",
            exact.len()
        );
        for (why, n) in &ends {
            let label = match *why {
                "proven" => "proven optimal (lower bound hit)",
                "exhausted" => "search space exhausted",
                "budget" => "node budget exhausted",
                other => other,
            };
            let _ = writeln!(out, "  {label:<34} {n}");
        }
    }
    // Bounded ladders start every tier at once; a proven exit cancels the
    // tiers above it, and whatever those tiers had searched is discarded.
    let counter = |name: &str| run.and_then(|m| m.counter(name));
    if counter("portfolio.bounds_computed").is_some_and(|n| n > 0) {
        let _ = writeln!(
            out,
            "\nportfolio ladders: {} bound exit(s), {} placement step(s) discarded \
             by speculative tiers",
            counter("portfolio.bound_exits").unwrap_or(0),
            counter("portfolio.discarded_steps").unwrap_or(0)
        );
    }

    // Which constraint bound each solved sub-problem's MII estimate.
    let mut binders: BTreeMap<&str, u64> = BTreeMap::new();
    for s in subs.values() {
        if let Some(r) = &s.solved {
            *binders.entry(r.why.as_str()).or_default() += 1;
        }
    }
    if !binders.is_empty() {
        let _ = writeln!(out, "\nsub-problem MII binders:");
        for (why, n) in &binders {
            let _ = writeln!(out, "  {why:<12} {n}");
        }
    }

    // The heaviest sub-problems, by search time.
    let mut by_time: Vec<(&String, &SubReport)> = subs.iter().collect();
    by_time.sort_by(|a, b| b.1.step_ns.cmp(&a.1.step_ns).then(a.0.cmp(b.0)));
    by_time.truncate(12);
    let outcomes: Vec<String> = by_time
        .iter()
        .map(|(_, s)| match &s.solved {
            Some(r) => {
                let tier = if r.tier == FALLBACK_TIER {
                    "fallback".to_string()
                } else if r.tier == EXACT_TIER {
                    "exact".to_string()
                } else {
                    format!("tier {}", r.tier)
                };
                format!("{tier}  est MII {} ({})", r.est_mii, r.why)
            }
            None => "(unsolved)".to_string(),
        })
        .collect();
    let width = outcomes
        .iter()
        .map(|o| o.chars().count())
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "\nheaviest sub-problems ({} of {}):",
        by_time.len(),
        subs.len()
    );
    for ((id, s), outcome) in by_time.iter().zip(&outcomes) {
        // Exact runs have their own summary above: one that kept the beam
        // winner is not a failed tier.
        let failed = s.tiers.iter().filter(|t| !t.1 && t.0 != EXACT_TIER).count();
        let tier_note = if failed > 0 {
            format!("  {failed} tier(s) failed")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<12} d{} ws {:<3} {outcome:<width$}  {:>6} steps  {:>9.3} ms{tier_note}",
            if id.is_empty() { "(root)" } else { id.as_str() },
            s.depth,
            s.ws,
            s.steps,
            s.step_ns as f64 / 1e6,
        );
    }
    out
}

/// One comparable case extracted from a metrics dump: a named run with an
/// optional end-to-end wall-clock and its phase/counter tables.
struct CaseMetrics {
    name: String,
    millis: Option<f64>,
    /// `phase name → wall µs`.
    phases: Vec<(String, u64)>,
    /// `counter name → value`.
    counters: Vec<(String, u64)>,
}

/// `hca diff-metrics <A.json> <B.json>`: attribute the wall-clock delta
/// between two recorded runs to phases and counters. Accepts any of the
/// repo's dump shapes: a single `RunMetrics`, a `table1 --metrics-out`
/// row array, or a `BenchCase` array.
pub(crate) fn cmd_diff_metrics(opts: &Options) -> Result<(), String> {
    let (Some(a_path), Some(b_path)) = (opts.target.as_deref(), opts.target2.as_deref()) else {
        return Err("diff-metrics needs two metrics files: hca diff-metrics A.json B.json".into());
    };
    let a = load_cases(a_path)?;
    let b = load_cases(b_path)?;
    print!("{}", diff_report(a_path, &a, b_path, &b));
    Ok(())
}

fn load_cases(path: &str) -> Result<Vec<CaseMetrics>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = serde_json::from_str_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let cases = normalize_cases(&value);
    if cases.is_empty() {
        return Err(format!(
            "{path}: no recognisable metrics (expected RunMetrics, Table1Row[] or BenchCase[])"
        ));
    }
    Ok(cases)
}

/// Flatten any supported dump shape into named cases.
fn normalize_cases(v: &Value) -> Vec<CaseMetrics> {
    // Single RunMetrics object.
    if v.field("phases").as_seq().is_some() {
        return vec![case_from_metrics("run".into(), None, v)];
    }
    let Some(items) = v.as_seq() else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|item| {
            if let Some(name) = item.field("loop_name").as_str() {
                // Table1Row: metrics is optional.
                return Some(case_from_metrics(name.into(), None, item.field("metrics")));
            }
            // BenchCase.
            let name = item.field("case").as_str()?;
            Some(case_from_metrics(
                name.into(),
                item.field("millis").as_f64(),
                item.field("metrics"),
            ))
        })
        .collect()
}

fn case_from_metrics(name: String, millis: Option<f64>, metrics: &Value) -> CaseMetrics {
    let table = |field: &str, key: &str, val: &str| -> Vec<(String, u64)> {
        metrics
            .field(field)
            .as_seq()
            .unwrap_or(&[])
            .iter()
            .filter_map(|row| {
                Some((
                    row.field(key).as_str()?.to_string(),
                    row.field(val).as_u64()?,
                ))
            })
            .collect()
    };
    CaseMetrics {
        name,
        millis,
        phases: table("phases", "phase", "wall_us"),
        counters: table("counters", "name", "value"),
    }
}

/// Signed deltas of one named table, sorted by magnitude.
fn table_deltas(a: &[(String, u64)], b: &[(String, u64)]) -> Vec<(String, i64, u64, u64)> {
    let av: BTreeMap<&str, u64> = a.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let bv: BTreeMap<&str, u64> = b.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut names: Vec<&str> = av.keys().chain(bv.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<(String, i64, u64, u64)> = names
        .into_iter()
        .map(|n| {
            let (x, y) = (*av.get(n).unwrap_or(&0), *bv.get(n).unwrap_or(&0));
            (n.to_string(), y as i64 - x as i64, x, y)
        })
        .filter(|r| r.1 != 0)
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.unsigned_abs()));
    rows
}

fn diff_report(a_name: &str, a: &[CaseMetrics], b_name: &str, b: &[CaseMetrics]) -> String {
    const TOP: usize = 12;
    let mut out = String::new();
    let _ = writeln!(out, "diff-metrics: {a_name} → {b_name}");
    let bmap: BTreeMap<&str, &CaseMetrics> = b.iter().map(|c| (c.name.as_str(), c)).collect();
    let mut matched = 0usize;
    for ca in a {
        let Some(cb) = bmap.get(ca.name.as_str()) else {
            let _ = writeln!(out, "\n{}: only in {a_name}", ca.name);
            continue;
        };
        matched += 1;
        let _ = write!(out, "\n{}", ca.name);
        match (ca.millis, cb.millis) {
            (Some(x), Some(y)) if x > 0.0 => {
                let _ = writeln!(
                    out,
                    ": {x:.1} ms → {y:.1} ms ({:+.1}%)",
                    (y - x) / x * 100.0
                );
            }
            (Some(x), Some(y)) => {
                let _ = writeln!(out, ": {x:.1} ms → {y:.1} ms");
            }
            _ => {
                let _ = writeln!(out);
            }
        }
        let phase_rows = table_deltas(&ca.phases, &cb.phases);
        for (name, d, x, y) in phase_rows.iter().take(TOP) {
            let _ = writeln!(out, "  phase   {name:<28} {:>+10} us  ({x} → {y})", d);
        }
        if phase_rows.len() > TOP {
            let _ = writeln!(out, "  … {} more phase deltas", phase_rows.len() - TOP);
        }
        let counter_rows = table_deltas(&ca.counters, &cb.counters);
        for (name, d, x, y) in counter_rows.iter().take(TOP) {
            let _ = writeln!(out, "  counter {name:<28} {:>+10}     ({x} → {y})", d);
        }
        if counter_rows.len() > TOP {
            let _ = writeln!(out, "  … {} more counter deltas", counter_rows.len() - TOP);
        }
        if phase_rows.is_empty() && counter_rows.is_empty() {
            let _ = writeln!(out, "  no phase/counter deltas");
        }
    }
    for cb in b {
        if !a.iter().any(|c| c.name == cb.name) {
            let _ = writeln!(out, "\n{}: only in {b_name}", cb.name);
        }
    }
    if matched == 0 {
        let _ = writeln!(out, "\n(no cases matched by name)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_report_aggregates_by_problem() {
        // Heaviest first. A `memo` record is a kind older traces carry; the
        // report skips it. `0,0`'s exact run (tier 98) kept the beam winner,
        // which is not a failed tier; `0,1`'s tier 0 did fail.
        let records = trace::read_jsonl(
            r#"{"kind":"sub","problem":"⊤","ws":5}
               {"kind":"memo","problem":"⊤","ok":true,"why":"hit"}
               {"kind":"step","problem":"⊤","ns":4000000,"explored":10,"pruned_beam":4,"rej_margin":2}
               {"kind":"tier","problem":"⊤","ok":true,"est_mii":3,"route_bfs":1,"route_hits":9}
               {"kind":"solved","problem":"⊤","est_mii":3,"why":"recurrence"}
               {"kind":"step","problem":"0","ns":3000000}
               {"kind":"solved","problem":"0","tier":2,"est_mii":12,"why":"issue"}
               {"kind":"step","problem":"0,0","ns":2000000}
               {"kind":"tier","problem":"0,0","tier":4,"ok":true}
               {"kind":"tier","problem":"0,0","tier":98,"ok":false}
               {"kind":"solved","problem":"0,0","tier":4,"est_mii":5,"why":"arc"}
               {"kind":"tier","problem":"0,1","tier":0,"ok":false}
               {"kind":"solved","problem":"0,1","tier":3,"est_mii":5,"why":"issue"}
               {"kind":"mii","est_mii":4,"mii_rec":4,"mii_issue":2,"mii_arc":1,"why":"recurrence"}"#,
        )
        .unwrap();
        let report = explain_report("unit", &records, None);
        assert!(report.contains("4 sub-problems"), "{report}");
        assert!(
            report.contains("final MII 4 — bound by recurrence"),
            "{report}"
        );
        assert!(!report.contains("memo"), "{report}");
        assert!(
            report.contains("9 static answers / 10 queries (90.0%)"),
            "{report}"
        );
        assert!(report.contains("beam truncation"), "{report}");
        let rows: Vec<&str> = report
            .lines()
            .skip_while(|l| !l.starts_with("heaviest sub-problems"))
            .skip(1)
            .collect();
        assert_eq!(rows.len(), 4, "{report}");
        assert!(rows[0].contains("est MII 3 (recurrence)"), "{report}");
        // The columns line up, counted in chars: `⊤` is three bytes.
        let column = |row: &str, word: &str| row[..row.find(word).unwrap()].chars().count();
        for word in [" steps", " ms"] {
            let aligned = rows
                .iter()
                .all(|r| column(r, word) == column(rows[0], word));
            assert!(aligned, "{word} column:\n{report}");
        }
        let failed: Vec<bool> = rows.iter().map(|r| r.ends_with("failed")).collect();
        assert_eq!(failed, [false, false, false, true], "{report}");
    }

    #[test]
    fn diff_handles_runmetrics_and_bench_case_dumps() {
        let a = r#"{"phases":[{"phase":"see.level0","calls":2,"wall_us":300}],
                    "counters":[{"name":"see.steps","value":10}],
                    "histograms":[]}"#;
        let b = r#"{"phases":[{"phase":"see.level0","calls":2,"wall_us":100}],
                    "counters":[{"name":"see.steps","value":14}],
                    "histograms":[]}"#;
        let ca = normalize_cases(&serde_json::from_str_value(a).unwrap());
        let cb = normalize_cases(&serde_json::from_str_value(b).unwrap());
        let report = diff_report("a.json", &ca, "b.json", &cb);
        assert!(report.contains("see.level0"), "{report}");
        assert!(report.contains("-200 us"), "{report}");
        assert!(report.contains("+4"), "{report}");

        let bench = |millis: f64| {
            format!(
                r#"[{{"case":"fir2dim","millis":{millis},"metrics":{a}}}, {{"case":"idcthor","millis":30.0}}]"#
            )
        };
        let c1 = normalize_cases(&serde_json::from_str_value(&bench(10.0)).unwrap());
        assert_eq!(c1.len(), 2);
        assert_eq!(c1[0].name, "fir2dim");
        assert_eq!(c1[0].millis, Some(10.0));
        assert_eq!(c1[0].phases, vec![("see.level0".to_string(), 300)]);
        let c2 = normalize_cases(&serde_json::from_str_value(&bench(12.5)).unwrap());
        let report = diff_report("a", &c1, "b", &c2);
        assert!(report.contains("+25.0%"), "{report}");
    }

    #[test]
    fn table1_rows_normalise_with_nested_metrics() {
        let rows = r#"[{"loop_name":"fir2dim","n_instr":89,"metrics":
            {"phases":[{"phase":"driver.mii","calls":5,"wall_us":42}],
             "counters":[],"histograms":[]}}]"#;
        let c = normalize_cases(&serde_json::from_str_value(rows).unwrap());
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].phases, vec![("driver.mii".to_string(), 42)]);
    }
}
