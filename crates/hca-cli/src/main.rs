//! `hca` — command-line front-end to the Hierarchical Cluster Assignment
//! toolchain.
//!
//! ```text
//! hca kernels                       list the built-in workloads
//! hca analyze  <kernel|ddg.json>    DDG statistics and MII bounds
//! hca clusterize <kernel> [opts]    run HCA, print the report
//! hca schedule <kernel> [opts]      + modulo scheduling, registers, DMA
//! hca simulate <kernel> [opts]      + cycle-level execution, verified
//! hca sweep    [opts]               bandwidth sweep over N=M=K
//! hca rcp      <kernel>             single-level ICA on the RCP ring (§2.1)
//! hca export   <kernel> (--dot|--json)   graphviz / DDG JSON to stdout
//!
//! options: --machine N,M,K   MUX capacities        (default 8,8,8)
//!          --portfolio       best-of-portfolio search
//!          --trip T          simulated iterations   (default 16)
//!          --unroll F        unroll the loop body F times first
//! ```

#![forbid(unsafe_code)]

use hca_arch::DspFabric;
use hca_core::{run_hca_obs, run_hca_portfolio_obs, HcaConfig, HcaResult, PortfolioMode};
use hca_ddg::{analysis, Ddg};
use hca_obs::{ChromeTraceSink, JsonlSink, Obs, StderrSink};
use std::process::ExitCode;

mod commands;
mod introspect;

use commands::*;
use introspect::{cmd_diff_metrics, cmd_explain};

fn main() -> ExitCode {
    // `hca export … --dot | head` closes stdout early and the std print
    // machinery then panics on EPIPE with a full backtrace. Treat a broken
    // pipe as a normal quiet exit; every other panic behaves as before.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_broken_pipe_panic(info.payload()) {
            default_hook(info);
        }
    }));
    match std::panic::catch_unwind(run_cli) {
        Ok(code) => code,
        Err(payload) if is_broken_pipe_panic(payload.as_ref()) => ExitCode::SUCCESS,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn is_broken_pipe_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    msg.is_some_and(|m| m.contains("Broken pipe"))
}

fn run_cli() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "kernels" => cmd_kernels(),
        "analyze" => cmd_analyze(&opts),
        "clusterize" => cmd_clusterize(&opts),
        "table1" => cmd_table1(&opts),
        "schedule" => cmd_schedule(&opts),
        "simulate" => cmd_simulate(&opts),
        "sweep" => cmd_sweep(&opts),
        "rcp" => cmd_rcp(&opts),
        "export" => cmd_export(&opts),
        "fuzz" => cmd_fuzz(&opts),
        "verify" => cmd_verify(&opts),
        "explain" => cmd_explain(&opts),
        "diff-metrics" => cmd_diff_metrics(&opts),
        "serve" => cmd_serve(&opts),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

pub(crate) const USAGE: &str = "\
hca — Hierarchical Cluster Assignment toolchain

usage: hca <command> [target] [options]

commands:
  kernels                      list built-in workloads
  analyze    <kernel|file>     DDG statistics and MII bounds
  clusterize <kernel|file>     run HCA, print the report
  table1                       run all four Table-1 kernels, print the table
  schedule   <kernel|file>     + modulo scheduling, registers, DMA program
  simulate   <kernel|file>     + cycle-level execution, verified vs reference
  sweep                        bandwidth sweep over the built-in kernels
  rcp        <kernel|file>     single-level ICA on the 8-cluster RCP ring
  export     <kernel|file>     emit --dot (graphviz) or --json (DDG)
  fuzz                         seeded DDG fuzz campaign through the
                               validation gauntlet (exit 1 on any failure)
  verify     [kernel|file]     run the gauntlet on one workload, or on all
                               Table-1 kernels under Strict validation
  explain    <kernel|trace.jsonl|fuzz>
                               replay a search trace into a per-sub-problem
                               report: MII attribution, pruning histograms,
                               cache efficiency, per-depth wall-clock.
                               `fuzz` explains the --seed fuzz kernel;
                               --trace-out saves the raw trace for replay
  diff-metrics <A.json> <B.json>
                               attribute the wall-clock delta between two
                               metrics dumps (RunMetrics, table1 rows or
                               BenchCase arrays) to phases and counters
  serve                        long-running compile daemon: JSON-lines
                               requests over TCP (--bind, default
                               127.0.0.1:7878) or a Unix socket (--socket),
                               all connections sharing one byte-budgeted
                               sub-problem cache; --snapshot F persists the
                               cache across restarts (versioned; a stale
                               snapshot starts cold). Ops: ping, compile,
                               compile_batch, stats, crash, shutdown —
                               e.g. {\"id\":1,\"op\":\"compile\",\"kernel\":\"fir2dim\"}

options:
  --machine N,M,K    MUX capacities of the 64-CN machine (default 8,8,8),
                     or a full hierarchy spec like 2x4x4x4@8,8,8,8
  --portfolio        run the config portfolio, keep the best result
  --solver MODE      sub-problem solver: beam-only (default) or exact-small
                     (exact backend on small sub-problems, cut by a fixed
                     node budget); both are deterministic, and exact-small
                     is never worse than beam-only on MII
  --trip T           iterations to simulate (default 16)
  --unroll F         unroll the loop body F times before everything else
  --trace            (simulate) print the first kernel passes' issue table
  --dot | --json     export format

fuzz options:
  --count N          seeds to run               (default 500)
  --seed S           first seed                 (default 1)
  --max-nodes N      largest generated kernel   (default 24)
  --out DIR          shrunk-reproducer directory (default fuzz-failures;
                     `--out -` disables writing)

serve options:
  --bind ADDR        TCP listen address (default 127.0.0.1:7878; :0 picks
                     a free port, printed on stdout)
  --socket PATH      listen on a Unix-domain socket instead of TCP
  --snapshot F       load the cache snapshot from F on start (when valid)
                     and write it back on clean shutdown
  --memo-budget B    cache byte budget, with optional k/m/g suffix
                     (default 64m)

observability:
  --metrics-out F    write a RunMetrics JSON report (phase timings, SEE /
                     mapper / coherency counters) to F; table1 writes one
                     entry per kernel
  --trace-out F      write a structured event trace to F: `.jsonl` gets one
                     JSON event per line, anything else gets Chrome
                     trace_event JSON (load in chrome://tracing); for
                     `explain` this is the raw search-trace JSONL instead
  --flame-out F      write hierarchical span stacks in collapsed-stack
                     (flamegraph.pl / inferno) format to F
  -v, --verbose      log pipeline events and phase timings to stderr
";

/// Parsed command-line options.
pub(crate) struct Options {
    pub target: Option<String>,
    /// Second positional argument (`diff-metrics A B`).
    pub target2: Option<String>,
    pub machine: (usize, usize, usize),
    pub machine_spec: Option<String>,
    pub portfolio: bool,
    pub solver: PortfolioMode,
    pub trip: u64,
    pub unroll: u32,
    pub trace: bool,
    pub dot: bool,
    pub json: bool,
    pub metrics_out: Option<String>,
    pub trace_out: Option<String>,
    pub flame_out: Option<String>,
    pub verbose: bool,
    pub count: usize,
    pub seed: u64,
    pub max_nodes: usize,
    pub out: Option<String>,
    pub bind: Option<String>,
    pub socket: Option<String>,
    pub snapshot: Option<String>,
    pub memo_budget: Option<usize>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            target: None,
            target2: None,
            machine: (8, 8, 8),
            machine_spec: None,
            portfolio: false,
            solver: PortfolioMode::BeamOnly,
            trip: 16,
            unroll: 1,
            trace: false,
            dot: false,
            json: false,
            metrics_out: None,
            trace_out: None,
            flame_out: None,
            verbose: false,
            count: 500,
            seed: 1,
            max_nodes: 24,
            out: Some("fuzz-failures".into()),
            bind: None,
            socket: None,
            snapshot: None,
            memo_budget: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--machine" => {
                    let v = it.next().ok_or("--machine needs N,M,K or ARITIES@CAPS")?;
                    if v.contains('@') {
                        DspFabric::parse(v)?; // validate early
                        o.machine_spec = Some(v.clone());
                        continue;
                    }
                    let parts: Vec<usize> = v
                        .split(',')
                        .map(|p| p.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("bad --machine value `{v}`"))?;
                    match parts.as_slice() {
                        [n] => o.machine = (*n, *n, *n),
                        [n, m, k] => o.machine = (*n, *m, *k),
                        _ => return Err(format!("bad --machine value `{v}`")),
                    }
                }
                "--trip" => {
                    let v = it.next().ok_or("--trip needs a number")?;
                    o.trip = v.parse().map_err(|_| format!("bad --trip value `{v}`"))?;
                }
                "--unroll" => {
                    let v = it.next().ok_or("--unroll needs a factor")?;
                    o.unroll = v.parse().map_err(|_| format!("bad --unroll value `{v}`"))?;
                    if o.unroll == 0 {
                        return Err("--unroll factor must be at least 1".into());
                    }
                }
                "--portfolio" => o.portfolio = true,
                "--solver" => {
                    let v = it.next().ok_or("--solver needs beam-only|exact-small")?;
                    o.solver = match v.as_str() {
                        "beam-only" => PortfolioMode::BeamOnly,
                        "exact-small" => PortfolioMode::ExactSmall,
                        other => {
                            return Err(format!(
                                "bad --solver value `{other}` (want beam-only or exact-small)"
                            ))
                        }
                    };
                }
                "--trace" => o.trace = true,
                "--metrics-out" => {
                    let v = it.next().ok_or("--metrics-out needs a path")?;
                    // Fail on an unwritable path now, not after a long run
                    // (same early check `--trace-out` gets from its sink).
                    std::fs::File::create(v).map_err(|e| format!("--metrics-out {v}: {e}"))?;
                    o.metrics_out = Some(v.clone());
                }
                "--trace-out" => {
                    let v = it.next().ok_or("--trace-out needs a path")?;
                    o.trace_out = Some(v.clone());
                }
                "--flame-out" => {
                    let v = it.next().ok_or("--flame-out needs a path")?;
                    std::fs::File::create(v).map_err(|e| format!("--flame-out {v}: {e}"))?;
                    o.flame_out = Some(v.clone());
                }
                "--count" => {
                    let v = it.next().ok_or("--count needs a number")?;
                    o.count = v.parse().map_err(|_| format!("bad --count value `{v}`"))?;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a number")?;
                    o.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
                }
                "--max-nodes" => {
                    let v = it.next().ok_or("--max-nodes needs a number")?;
                    o.max_nodes = v
                        .parse()
                        .map_err(|_| format!("bad --max-nodes value `{v}`"))?;
                    if o.max_nodes < 2 {
                        return Err("--max-nodes must be at least 2".into());
                    }
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a directory (or `-`)")?;
                    o.out = (v != "-").then(|| v.clone());
                }
                "--bind" => {
                    let v = it.next().ok_or("--bind needs an ip:port address")?;
                    o.bind = Some(v.clone());
                }
                "--socket" => {
                    let v = it.next().ok_or("--socket needs a path")?;
                    o.socket = Some(v.clone());
                }
                "--snapshot" => {
                    let v = it.next().ok_or("--snapshot needs a path")?;
                    o.snapshot = Some(v.clone());
                }
                "--memo-budget" => {
                    let v = it.next().ok_or("--memo-budget needs bytes (k/m/g ok)")?;
                    o.memo_budget = Some(parse_bytes(v)?);
                }
                "-v" | "--verbose" => o.verbose = true,
                "--dot" => o.dot = true,
                "--json" => o.json = true,
                other if !other.starts_with('-') && o.target.is_none() => {
                    o.target = Some(other.to_string());
                }
                other if !other.starts_with('-') && o.target2.is_none() => {
                    o.target2 = Some(other.to_string());
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(o)
    }

    pub fn fabric(&self) -> DspFabric {
        if let Some(spec) = &self.machine_spec {
            return DspFabric::parse(spec).expect("validated at parse time");
        }
        let (n, m, k) = self.machine;
        DspFabric::standard(n, m, k)
    }

    /// Resolve the target to a (name, DDG): a built-in kernel name or a
    /// path to a DDG JSON file.
    pub fn load_ddg(&self) -> Result<(String, Ddg), String> {
        let target = self
            .target
            .as_deref()
            .ok_or("missing kernel name or DDG file")?;
        let finish = |name: String, ddg: Ddg| -> (String, Ddg) {
            if self.unroll > 1 {
                (
                    format!("{name}×{}", self.unroll),
                    hca_ddg::unroll(&ddg, self.unroll),
                )
            } else {
                (name, ddg)
            }
        };
        if let Some(g) = hca_kernels::builtin(target) {
            return Ok(finish(target.to_string(), g));
        }
        let body = std::fs::read_to_string(target).map_err(|e| {
            format!("`{target}` is not a built-in kernel and not a readable file ({e})")
        })?;
        let ddg: Ddg =
            serde_json::from_str(&body).map_err(|e| format!("bad DDG JSON in {target}: {e}"))?;
        analysis::intra_topo_order(&ddg)
            .ok_or_else(|| format!("{target}: intra-iteration dependence cycle"))?;
        Ok(finish(target.to_string(), ddg))
    }

    /// Build the observer requested by `--metrics-out` / `--trace-out` / `-v`.
    /// Disabled when none of the flags are present.
    pub fn obs(&self) -> Result<Obs, String> {
        self.build_obs(self.trace_out.as_deref())
    }

    /// Per-kernel observer for `table1`: fresh metrics per kernel, with the
    /// `--trace-out` path tagged by the kernel name (`t.json` →
    /// `t.fir2dim.json`) so each kernel gets its own trace file.
    pub fn kernel_obs(&self, kernel: &str) -> Result<Obs, String> {
        let tagged = self.trace_out.as_deref().map(|p| suffix_path(p, kernel));
        self.build_obs(tagged.as_deref())
    }

    fn build_obs(&self, trace_out: Option<&str>) -> Result<Obs, String> {
        if !self.verbose
            && trace_out.is_none()
            && self.metrics_out.is_none()
            && self.flame_out.is_none()
        {
            return Ok(Obs::disabled());
        }
        let obs = Obs::enabled();
        if self.verbose {
            obs.add_sink(Box::new(StderrSink::new()));
        }
        if let Some(path) = trace_out {
            if path.ends_with(".jsonl") {
                let sink =
                    JsonlSink::create(path).map_err(|e| format!("--trace-out {path}: {e}"))?;
                obs.add_sink(Box::new(sink));
            } else {
                let sink = ChromeTraceSink::create(path)
                    .map_err(|e| format!("--trace-out {path}: {e}"))?;
                obs.add_sink(Box::new(sink));
            }
        }
        Ok(obs)
    }

    /// Flush sinks and write the `--metrics-out` / `--flame-out` reports,
    /// if requested.
    pub fn finish_obs(&self, obs: &Obs) -> Result<(), String> {
        let metrics = obs.finish();
        if let Some(path) = &self.metrics_out {
            let m = metrics
                .as_ref()
                .ok_or("internal: --metrics-out without an enabled observer")?;
            write_json(path, m)?;
        }
        if let Some(path) = &self.flame_out {
            let m = metrics
                .as_ref()
                .ok_or("internal: --flame-out without an enabled observer")?;
            std::fs::write(path, m.collapsed_stacks())
                .map_err(|e| format!("--flame-out {path}: {e}"))?;
        }
        Ok(())
    }

    pub fn run(&self, ddg: &Ddg) -> Result<HcaResult, String> {
        let obs = self.obs()?;
        let res = self.run_with(ddg, &obs)?;
        self.finish_obs(&obs)?;
        Ok(res)
    }

    /// The [`HcaConfig`] the flags ask for: defaults plus the `--solver`
    /// portfolio mode.
    pub fn hca_config(&self) -> HcaConfig {
        HcaConfig {
            portfolio: hca_core::PortfolioConfig { mode: self.solver },
            ..HcaConfig::default()
        }
    }

    /// Run HCA under an externally managed observer (for commands that add
    /// their own spans — scheduling, simulation — before flushing).
    pub fn run_with(&self, ddg: &Ddg, obs: &Obs) -> Result<HcaResult, String> {
        let fabric = self.fabric();
        if self.portfolio {
            run_hca_portfolio_obs(ddg, &fabric, obs).map_err(|e| e.to_string())
        } else {
            run_hca_obs(ddg, &fabric, &self.hca_config(), obs).map_err(|e| e.to_string())
        }
    }
}

/// Pretty-print `value` as JSON into `path` (with a trailing newline).
pub(crate) fn write_json(path: &str, value: &impl serde::Serialize) -> Result<(), String> {
    let mut body = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    body.push('\n');
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix: `64m` → 64 MiB.
fn parse_bytes(v: &str) -> Result<usize, String> {
    let v = v.trim();
    let (digits, shift) = match v.as_bytes().last() {
        Some(b'k' | b'K') => (&v[..v.len() - 1], 10),
        Some(b'm' | b'M') => (&v[..v.len() - 1], 20),
        Some(b'g' | b'G') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    let n: usize = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad byte count `{v}`"))?;
    n.checked_shl(shift)
        .filter(|scaled| scaled >> shift == n)
        .ok_or_else(|| format!("byte count `{v}` overflows"))
}

/// Insert `tag` before the file extension: `trace.json` → `trace.fir2dim.json`.
fn suffix_path(path: &str, tag: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.{tag}.{ext}")
        }
        _ => format!("{path}.{tag}"),
    }
}
