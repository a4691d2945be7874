//! `--compare A B`: per-workload, per-metric verdicts between two run sets
//! written with `--out`, judged against the `BENCHMARK.json` bounds.

use crate::spec::Spec;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot show a change of that size.
    Unresolved,
}

/// Judge run set `b` against baseline `a`. Returns the verdict and how much
/// worse `b`'s median is, as a share of `a`'s (negative: better).
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let diff = if higher_is_better { ma - mb } else { mb - ma };
    let worse = if ma != 0.0 {
        diff / ma.abs()
    } else if diff == 0.0 {
        0.0
    } else {
        diff.signum() * f64::INFINITY
    };
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let fold = |init: f64, f: fn(f64, f64) -> f64, xs: &[f64]| xs.iter().copied().fold(init, f);
    let every_run_better = if higher_is_better {
        fold(f64::INFINITY, f64::min, b) > fold(f64::NEG_INFINITY, f64::max, a)
    } else {
        fold(f64::NEG_INFINITY, f64::max, b) < fold(f64::INFINITY, f64::min, a)
    };
    let v = if noise > bound {
        if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Worse
    } else if -worse > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (v, worse)
}

/// Untraced run records of one set, by workload then metric.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(path, &text)
}

fn parse(path: &str, text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = serde_json::from_str_value(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.field("trace").as_u64() != Some(0) {
            continue;
        }
        let workload = rec
            .field("workload")
            .as_str()
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let metrics = rec.field("result").field("metrics").as_map().unwrap_or(&[]);
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.field("value").as_f64() {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Print the comparison table; `Ok(true)` when every (workload, metric)
/// pair is unchanged or better.
pub fn compare(a_path: &str, b_path: &str, spec: &Spec) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<24} {:>12} {:>12} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound", "spread A", "spread B"
    );
    let mut agree = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let get = |set: &RunSet| {
                set.get(w)
                    .and_then(|ms| ms.get(&m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (get(&a), get(&b));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {:<24} missing in one set", m.name);
                agree = false;
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (v, worse) = verdict(&va, &vb, m.higher_is_better, bound);
            agree &= matches!(v, Verdict::Unchanged | Verdict::Better);
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{:.1}%", 100.0 * x));
            println!(
                "{w:<16} {:<24} {:>12.4} {:>12.4} {:>8} {:>6} {:>8} {:>8}  {}",
                m.name,
                median(&va),
                median(&vb),
                pct(Some(worse)),
                pct(Some(bound)),
                pct(spread(&va)),
                pct(spread(&vb)),
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let same = [100.2, 100.9, 99.4, 100.1, 100.4];
        assert_eq!(verdict(&a, &same, false, 0.1).0, Verdict::Unchanged);
        let slow = [120.0, 121.0, 119.0, 120.0, 120.5];
        let (v, worse) = verdict(&a, &slow, false, 0.1);
        assert_eq!(v, Verdict::Worse);
        assert!((worse - 0.2).abs() < 1e-12);
        // The same shift on a throughput metric is an improvement.
        assert_eq!(verdict(&a, &slow, true, 0.1).0, Verdict::Better);
        // Spread wider than the bound: unresolved, unless every run of B
        // beats every run of A.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&noisy, &a, false, 0.1).0, Verdict::Unresolved);
        let fast = [10.0, 11.0, 12.0];
        assert_eq!(
            verdict(&[50.0, 100.0, 150.0], &fast, false, 0.1).0,
            Verdict::Better
        );
        // A zero bound demands identical medians.
        assert_eq!(
            verdict(&[2.0, 2.0], &[2.0, 2.0], false, 0.0).0,
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[2.0, 2.0], &[2.5, 2.5], false, 0.0).0,
            Verdict::Worse
        );
    }

    #[test]
    fn run_sets_load_untraced_records_only() {
        let rec = |trace: u8, v: f64| {
            format!(
                "{{\"workload\":\"w\",\"seed\":1,\"trace\":{trace},\"result\":{{\"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}}}\n"
            )
        };
        let text = rec(0, 1.5) + &rec(1, 9.0) + "\n" + &rec(0, 2.5);
        let set = parse("set.jsonl", &text).unwrap();
        assert_eq!(set["w"]["m"], vec![1.5, 2.5]);
        assert!(parse("bad.jsonl", "{").is_err());
    }
}
