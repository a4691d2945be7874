//! One-command benchmark of the HCA toolchain: compile time and mapping
//! quality on four fixed workloads, every output checked, with a separate
//! traced pass for per-layer numbers. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --compare A B
//! ```
//!
//! Without `--workload`, every workload runs in a fresh child process of
//! this binary, so set-up time and peak memory are per workload. The last
//! line of a workload run's standard output is its result as one JSON
//! object; the exit code is non-zero when any operation failed its check.

mod calibrate;
mod compare;
mod direct;
mod layers;
mod serve;
mod spec;
mod stats;
mod trace;
mod workloads;

use serde_json::Value;
use spec::{Spec, END_TO_END, PER_LAYER};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Options, Report, WORKLOADS};

const USAGE: &str =
    "usage: benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F]
       benchmark --compare A.jsonl B.jsonl";

/// The default `--seed`.
const DEFAULT_SEED: u64 = 0xB5E7;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad seed `{s}`"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The result object: `correct`, `attempted`, `failed` and every declared
/// metric of the run's kind with its unit.
fn result_json(report: &Report, trace: bool, spec: &Spec) -> Result<Value, String> {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(extra) = report.metrics.keys().find(|k| !names.contains(k)) {
        return Err(format!("metric {extra} is not declared for this run"));
    }
    let mut metrics = Vec::with_capacity(names.len());
    for &name in names {
        let value = *report
            .metrics
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} has no finite value ({value})"));
        }
        let unit = &spec.metric(name).ok_or(format!("{name} undeclared"))?.unit;
        metrics.push((
            name.to_string(),
            Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.clone())),
            ]),
        ));
    }
    Ok(Value::Map(vec![
        ("correct".into(), Value::Bool(report.failed == 0)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

fn run_one(workload: &str, args: &Args, spec: &Spec) -> Result<bool, String> {
    let opts = Options {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    let report = workloads::run(workload, &opts)?;
    println!(
        "{workload}: seed {} | {} s | trace {} | hca-par threads {} | {} attempted, {} failed",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hca_par::configured_threads(),
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, value) in &report.metrics {
        let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    if let Some(trace) = &report.trace {
        let dir = std::path::Path::new("target/benchmark");
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    let result = result_json(&report, args.trace, spec)?;
    if let Some(out) = &args.out {
        let record = Value::Map(vec![
            ("workload".into(), Value::Str(workload.to_string())),
            ("seed".into(), Value::UInt(args.seed)),
            ("trace".into(), Value::UInt(u64::from(args.trace))),
            ("result".into(), result.clone()),
        ]);
        let line = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(report.failed == 0)
}

/// Every workload, each in a fresh child process of this binary.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
        if !status.success() {
            eprintln!("benchmark: workload {w} failed ({status})");
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(&argv).and_then(|args| {
        let spec = Spec::load();
        match (&args.compare, &args.workload) {
            (Some((a, b)), _) => compare::compare(a, b, &spec),
            (None, Some(w)) => run_one(w, &args, &spec),
            (None, None) => run_all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse_args(&argv(
            "--workload dsp-exact --seed 0x10 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("dsp-exact"));
        assert_eq!((a.seed, a.seconds, a.trace), (16, 3, true));
        assert_eq!(parse_args(&[]).unwrap().seed, DEFAULT_SEED);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let spec = Spec::load();
        let mut report = Report {
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|&n| (n, 1.5)).collect(),
            notes: Vec::new(),
            trace: None,
        };
        let v = result_json(&report, false, &spec).unwrap();
        assert_eq!(v.field("correct"), &Value::Bool(true));
        let metrics = v.field("metrics").as_map().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.field("metrics").field("setup_s").field("unit").as_str(),
            Some("s")
        );
        // A traced run must report the per-layer set instead.
        assert!(result_json(&report, true, &spec).is_err());
        report.metrics.insert("setup_s", f64::NAN);
        assert!(result_json(&report, false, &spec).is_err());
    }

    /// One round of every workload with all checks on (slow: run with
    /// `cargo test --release -- --ignored`).
    #[test]
    #[ignore]
    fn smoke_every_workload() {
        for trace in [false, true] {
            for w in WORKLOADS {
                let opts = Options {
                    seed: DEFAULT_SEED,
                    seconds: Duration::ZERO,
                    trace,
                };
                let report = workloads::run(w, &opts).unwrap();
                assert_eq!(report.failed, 0, "{w}");
                result_json(&report, trace, &Spec::load()).unwrap();
            }
        }
    }
}
