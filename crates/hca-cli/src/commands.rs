//! Sub-command implementations.

use crate::Options;
use hca_core::Table1Row;
use hca_ddg::{analysis, dot, DdgAnalysis};
use hca_sched::{
    allocate_rotating, derive_dma_program, modulo_schedule, swing_schedule, KernelSchedule,
    StreamDir,
};
use hca_sim::verify_execution;

pub(crate) fn cmd_kernels() -> Result<(), String> {
    println!("built-in workloads:\n");
    println!(
        "{:<16} {:>8} {:>7} {:>7} {:>7}  source",
        "name", "N_Instr", "MIIRec", "MIIRes", "paper"
    );
    for k in hca_kernels::table1_kernels() {
        println!(
            "{:<16} {:>8} {:>7} {:>7} {:>7}  Table 1",
            k.name,
            k.expected.n_instr,
            k.expected.mii_rec,
            k.expected.mii_res,
            k.expected.paper_final_mii
        );
    }
    for (name, g) in [
        ("fir8", hca_kernels::dspstone::fir(8)),
        ("biquad", hca_kernels::dspstone::biquad()),
        ("matvec8", hca_kernels::dspstone::matvec_row(8)),
        ("dot_product", hca_kernels::dspstone::dot_product()),
        ("n_real_updates", hca_kernels::dspstone::n_real_updates(4)),
        ("convolution", hca_kernels::dspstone::convolution(8)),
        ("lms", hca_kernels::dspstone::lms(8)),
        ("matrix1x3", hca_kernels::dspstone::matrix1x3()),
    ] {
        println!(
            "{:<16} {:>8} {:>7} {:>7} {:>7}  DSPstone extra",
            name,
            g.num_nodes(),
            analysis::mii_rec(&g).unwrap(),
            "-",
            "-"
        );
    }
    Ok(())
}

pub(crate) fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let (name, ddg) = opts.load_ddg()?;
    let an = DdgAnalysis::compute(&ddg).map_err(|e| e.to_string())?;
    let fabric = opts.fabric();
    println!("{name}: {}", ddg.summary());
    println!("  MIIRec               {}", an.mii_rec);
    println!(
        "  MIIRes (unified)     {}",
        hca_core::mii::mii_res_unified(&ddg, &fabric)
    );
    println!(
        "  theoretical optimum  {}",
        hca_core::mii::theoretical_mii(an.mii_rec, &ddg, &fabric)
    );
    println!("  critical path        {} cycles", an.levels.critical_path);
    println!("  SCCs                 {}", an.num_sccs);
    let rec = an.recurrence_nodes(&ddg);
    println!("  recurrence nodes     {}", rec.len());
    Ok(())
}

pub(crate) fn cmd_clusterize(opts: &Options) -> Result<(), String> {
    let (name, ddg) = opts.load_ddg()?;
    let res = opts.run(&ddg)?;
    let row = Table1Row::from_result(&name, &ddg, &res);
    let fabric = opts.fabric();
    match &opts.machine_spec {
        Some(spec) => println!("machine: {spec} ({} CNs)", fabric.num_cns()),
        None => {
            let (n, m, k) = opts.machine;
            println!("machine: 64-CN DSPFabric, N={n} M={m} K={k}");
        }
    }
    println!("{row}");
    println!(
        "  ini {}  maxCls {}  wire {}  recRec {}  | {} wires, {} recvs, {} routes, {} subproblems",
        res.mii.ini_mii,
        res.mii.max_cls_mii,
        res.mii.wire_mii,
        res.mii.final_mii_rec,
        res.stats.wires,
        res.final_program.num_recvs(),
        res.final_program.route_nodes.len(),
        res.stats.subproblems,
    );
    if !res.is_legal() {
        for e in &res.coherency.topology_errors {
            println!("  topology: {e}");
        }
        for v in res.coherency.violations.iter().take(8) {
            println!("  violation: {v}");
        }
    }
    Ok(())
}

/// Reproduce the paper's Table 1: run all four multimedia loops through the
/// best-of-portfolio search and print the markdown table. A non-default
/// `--solver` replaces the config portfolio with one run under that
/// sub-problem solver (exact-small). With `--metrics-out` the rows
/// (each carrying its run's [`RunMetrics`]) are written as one JSON array;
/// `--trace-out` writes one trace per kernel, tagged with the kernel name.
pub(crate) fn cmd_table1(opts: &Options) -> Result<(), String> {
    let fabric = opts.fabric();
    let mut rows = Vec::new();
    for kernel in hca_kernels::table1_kernels() {
        let obs = opts.kernel_obs(kernel.name)?;
        let res = if opts.solver == hca_core::PortfolioMode::BeamOnly {
            hca_core::run_hca_portfolio_obs(&kernel.ddg, &fabric, &obs)
        } else {
            hca_core::run_hca_obs(&kernel.ddg, &fabric, &opts.hca_config(), &obs)
        }
        .map_err(|e| format!("{}: {e}", kernel.name))?;
        obs.finish();
        rows.push(Table1Row::from_result(kernel.name, &kernel.ddg, &res));
    }
    print!("{}", Table1Row::render_table(&rows));
    if let Some(path) = &opts.metrics_out {
        crate::write_json(path, &rows)?;
        println!("(metrics for {} kernels written to {path})", rows.len());
    }
    Ok(())
}

pub(crate) fn cmd_schedule(opts: &Options) -> Result<(), String> {
    let (name, ddg) = opts.load_ddg()?;
    let fabric = opts.fabric();
    let obs = opts.obs()?;
    let res = opts.run_with(&ddg, &obs)?;
    let sched = {
        let _span = obs
            .span("sched", if opts.sms { "sms" } else { "iterative" })
            .with_arg("mii", u64::from(res.mii.final_mii));
        if opts.sms {
            swing_schedule(&res.final_program, &fabric, res.mii.final_mii)
        } else {
            modulo_schedule(&res.final_program, &fabric, res.mii.final_mii)
        }
        .map_err(|e| e.to_string())?
    };
    opts.finish_obs(&obs)?;
    let folded = KernelSchedule::fold(&res.final_program, &fabric, &sched);
    let regs = allocate_rotating(&res.final_program, &fabric, &sched);
    let dma = derive_dma_program(&res.final_program, &fabric, &sched);
    println!(
        "{name}: II {} (lower bound {}), {} stages, {:.0}% utilisation [{}]",
        sched.ii,
        res.mii.final_mii,
        sched.stages,
        folded.utilization() * 100.0,
        if opts.sms { "SMS" } else { "iterative" },
    );
    println!(
        "rotating registers: worst CN uses {} (fits 64-entry file: {})",
        regs.max_registers(),
        regs.fits(64),
    );
    println!(
        "DMA program: {} streams, peak {} requests/cycle (ports {}), {} in flight (FIFO budget {})",
        dma.streams.len(),
        dma.requests_per_cycle.iter().max().unwrap_or(&0),
        fabric.dma.ports,
        dma.max_inflight,
        fabric.dma.fifo_depth() * fabric.dma.ports,
    );
    for d in dma.streams.iter().take(12) {
        println!(
            "  {} {:?} slot {} stage {} induction {:?} (+{} hops)",
            d.node,
            if d.dir == StreamDir::In { "in " } else { "out" },
            d.slot,
            d.stage,
            d.induction,
            d.offset_hops,
        );
    }
    if dma.streams.len() > 12 {
        println!("  … {} more", dma.streams.len() - 12);
    }
    Ok(())
}

pub(crate) fn cmd_simulate(opts: &Options) -> Result<(), String> {
    let (name, ddg) = opts.load_ddg()?;
    let fabric = opts.fabric();
    let obs = opts.obs()?;
    let res = opts.run_with(&ddg, &obs)?;
    let sched = {
        let _span = obs
            .span("sched", if opts.sms { "sms" } else { "iterative" })
            .with_arg("mii", u64::from(res.mii.final_mii));
        if opts.sms {
            swing_schedule(&res.final_program, &fabric, res.mii.final_mii)
        } else {
            modulo_schedule(&res.final_program, &fabric, res.mii.final_mii)
        }
        .map_err(|e| e.to_string())?
    };
    opts.finish_obs(&obs)?;
    let folded = KernelSchedule::fold(&res.final_program, &fabric, &sched);
    if opts.trace {
        print!(
            "{}",
            hca_sim::render_trace(&res.final_program, &fabric, &folded, 3, opts.trip)
        );
    }
    let rep = verify_execution(&ddg, &res.final_program, &fabric, &folded, opts.trip)
        .map_err(|e| format!("execution diverged: {e}"))?;
    println!(
        "{name}: {} iterations in {} cycles ({:.2} cycles/iter at II {}), \
         {} stored values match the sequential reference ✓",
        rep.trip,
        rep.cycles,
        rep.cycles as f64 / rep.trip.max(1) as f64,
        rep.ii,
        rep.stores_checked,
    );
    println!(
        "peak input-buffer occupancy: {} values on the busiest CN",
        rep.max_buffered
    );
    Ok(())
}

pub(crate) fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let kernels = hca_kernels::table1_kernels();
    print!("{:<8}", "N=M=K");
    for k in &kernels {
        print!("{:>16}", k.name);
    }
    println!();
    for cap in [8usize, 6, 4, 3, 2] {
        print!("{cap:<8}");
        for kernel in &kernels {
            let fabric = hca_arch::DspFabric::standard(cap, cap, cap);
            let cell = if opts.portfolio {
                hca_core::run_hca_portfolio(&kernel.ddg, &fabric)
                    .ok()
                    .map(|r| (r.mii.final_mii, r.is_legal()))
            } else {
                hca_core::run_hca(&kernel.ddg, &fabric, &opts.hca_config())
                    .ok()
                    .map(|r| (r.mii.final_mii, r.is_legal()))
            };
            match cell {
                Some((mii, true)) => print!("{mii:>16}"),
                Some((mii, false)) => print!("{:>16}", format!("{mii}!")),
                None => print!("{:>16}", "—"),
            }
        }
        println!();
    }
    Ok(())
}

pub(crate) fn cmd_rcp(opts: &Options) -> Result<(), String> {
    let (name, ddg) = opts.load_ddg()?;
    let rcp = hca_arch::Rcp::figure1();
    let res =
        hca_core::run_rcp(&ddg, &rcp, hca_see::SeeConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "{name} on the 8-cluster RCP ring (reach {}, {} input ports):",
        rcp.reach, rcp.input_ports
    );
    println!(
        "  estimated MII {}, {} copies, legal: {}",
        res.est_mii,
        res.assigned.total_copies(),
        res.legal,
    );
    for d in &res.diagnostics {
        println!("  diagnostic: {d}");
    }
    println!("  configured ring wires:");
    for &(s, d) in &res.wires {
        println!("    {s} -> {d}");
    }
    for c in res.assigned.pg.cluster_ids() {
        let instrs = res.assigned.instructions_of(c);
        if !instrs.is_empty() {
            println!("  cluster {c}: {} instructions", instrs.len());
        }
    }
    Ok(())
}

/// Seeded fuzz campaign through the validation gauntlet. Prints the
/// summary; any failure (already shrunk and written to `--out`) makes the
/// command exit non-zero.
pub(crate) fn cmd_fuzz(opts: &Options) -> Result<(), String> {
    use hca_check::{CampaignConfig, GauntletConfig};
    let fabric = opts.fabric();
    let cfg = CampaignConfig {
        count: opts.count,
        base_seed: opts.seed,
        max_nodes: opts.max_nodes,
        out_dir: opts.out.as_deref().map(std::path::PathBuf::from),
        gauntlet: GauntletConfig {
            memo: opts.memo,
            solver: opts.solver,
            ..GauntletConfig::default()
        },
        ..CampaignConfig::default()
    };
    println!(
        "fuzz: {} seeds from {} (kernels ≤ {} nodes) on a {}-CN machine",
        cfg.count,
        cfg.base_seed,
        cfg.max_nodes,
        fabric.num_cns()
    );
    let summary = hca_check::run_campaign(&fabric, &cfg);
    println!(
        "  {} runs: oracle exact on {}, budget-capped on {}, skipped on {}",
        summary.runs,
        summary.oracle_exact,
        summary.oracle_upper,
        summary.runs - summary.oracle_exact - summary.oracle_upper,
    );
    if let Some((mii, opt)) = summary.worst_ratio {
        println!("  worst final_mii vs flat optimum: {mii} vs {opt}");
    }
    if summary.failures.is_empty() {
        println!("  no failures ✓");
        return Ok(());
    }
    for f in &summary.failures {
        println!(
            "  FAIL seed {} [{}] shrunk to {} nodes: {}{}",
            f.seed,
            f.kind,
            f.shrunk_nodes,
            f.detail,
            f.path
                .as_deref()
                .map(|p| format!(" ({})", p.display()))
                .unwrap_or_default(),
        );
    }
    Err(format!(
        "{} of {} seeds failed the gauntlet",
        summary.failures.len(),
        summary.runs
    ))
}

/// Run the full validation gauntlet — Strict HCA run, differential
/// coherency, flat-ICA oracle, journal round-trip, thread determinism — on
/// one workload, or on all Table-1 kernels when no target is given.
pub(crate) fn cmd_verify(opts: &Options) -> Result<(), String> {
    use hca_check::{gauntlet, GauntletConfig, OracleVerdict};
    let fabric = opts.fabric();
    let cfg = GauntletConfig {
        solver: opts.solver,
        ..GauntletConfig::default()
    };
    let workloads: Vec<(String, hca_ddg::Ddg)> = if opts.target.is_some() {
        vec![opts.load_ddg()?]
    } else {
        hca_kernels::table1_kernels()
            .into_iter()
            .map(|k| (k.name.to_string(), k.ddg))
            .collect()
    };
    let mut failures = 0usize;
    for (name, ddg) in &workloads {
        match gauntlet(ddg, &fabric, &cfg, opts.seed) {
            Ok(report) => {
                let oracle = match report.oracle {
                    Some(OracleVerdict::Exact(o)) => format!("flat optimum {o}"),
                    Some(OracleVerdict::Upper(o)) => format!("flat optimum ≤ {o}"),
                    None => "oracle skipped (too large)".to_string(),
                };
                println!("{name}: final MII {} — {oracle} ✓", report.final_mii);
            }
            Err(f) => {
                failures += 1;
                println!("{name}: FAIL [{}] {}", f.kind, f.detail);
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} workloads failed verification",
            workloads.len()
        ));
    }
    Ok(())
}

pub(crate) fn cmd_export(opts: &Options) -> Result<(), String> {
    let (name, ddg) = opts.load_ddg()?;
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&ddg).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if opts.dot {
        // Colour by cluster-set after clusterising.
        let fabric = opts.fabric();
        let placement = opts.run(&ddg)?.placement;
        println!(
            "{}",
            dot::to_dot(&ddg, |n| placement.get(&n).map(|cn| fabric.cn_path(*cn)[0]))
        );
        return Ok(());
    }
    Err(format!("export {name}: pass --dot or --json"))
}

pub(crate) fn cmd_serve(opts: &Options) -> Result<(), String> {
    use hca_serve::{Bind, Server, ServerConfig};
    if opts.bind.is_some() && opts.socket.is_some() {
        return Err("pass --bind or --socket, not both".into());
    }
    let bind = match &opts.socket {
        Some(path) => Bind::Unix(path.into()),
        None => Bind::Tcp(
            opts.bind
                .clone()
                .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        ),
    };
    let cfg = ServerConfig {
        bind,
        snapshot: opts.snapshot.as_ref().map(std::path::PathBuf::from),
        memo_budget: opts.memo_budget.unwrap_or(hca_core::Memo::DEFAULT_BUDGET),
        hca: opts.hca_config(),
    };
    let server = Server::bind(cfg).map_err(|e| format!("serve: {e}"))?;
    // The address goes to stdout (and is flushed) so scripts driving
    // `--bind 127.0.0.1:0` can read the picked port.
    println!("hca-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "hca-serve: {} requests ({} errors), cache {} hits / {} misses / {} deferred / {} evictions, {} entries ({} bytes) at exit",
        stats.requests,
        stats.errors,
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_deferred,
        stats.memo_evictions,
        stats.memo_entries,
        stats.memo_bytes,
    );
    Ok(())
}
