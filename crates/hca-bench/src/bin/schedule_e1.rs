//! **Extension E1** — the paper's declared future work (§5/§7), executed:
//! modulo-schedule every clusterised kernel, fold it into Kernel-Only form,
//! estimate rotating-register pressure, and *run* it on the cycle-level
//! simulator, checking every stored value against the sequential reference.
//!
//! The headline check: the achieved II equals (or sits within a cycle or
//! two of) the §4.2 MII lower bound that HCA optimised for — i.e. the
//! cluster assignment really was schedulable at its advertised quality.

use hca_bench::{bench_case, clusterize_obs, dump_bench_json, dump_json, paper_fabric};
use hca_sched::{modulo_schedule, register_pressure, KernelSchedule};
use hca_sim::verify_execution;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    kernel: &'static str,
    mii_lower_bound: u32,
    achieved_ii: u32,
    stages: u32,
    utilization: f64,
    max_registers: u32,
    iterations_verified: u64,
    cycles_per_iteration: f64,
}

fn main() {
    const TRIP: u64 = 32;
    let fabric = paper_fabric();
    println!("E1 — modulo scheduling + simulated execution (trip count {TRIP})\n");
    println!(
        "{:<16} {:>7} {:>5} {:>7} {:>6} {:>8} {:>10} {:>10}",
        "Loop", "MII-LB", "II", "stages", "util", "max-regs", "verified", "cyc/iter"
    );
    let mut rows = Vec::new();
    let mut bench = Vec::new();
    for kernel in hca_kernels::table1_kernels() {
        let outcome = bench_case(kernel.name, &mut bench, |obs| {
            let (res, _) = clusterize_obs(&kernel, &fabric, obs)?;
            let sched = {
                let _span = obs.span("sched", "iterative");
                modulo_schedule(&res.final_program, &fabric, res.mii.final_mii)
            };
            Some((res, sched))
        });
        let Some((res, sched)) = outcome else {
            println!("{:<16} clusterisation failed", kernel.name);
            continue;
        };
        let sched = match sched {
            Ok(s) => s,
            Err(e) => {
                println!("{:<16} scheduling failed: {e}", kernel.name);
                continue;
            }
        };
        let folded = KernelSchedule::fold(&res.final_program, &fabric, &sched);
        let pressure = register_pressure(&res.final_program, &fabric, &sched);
        match verify_execution(&kernel.ddg, &res.final_program, &fabric, &folded, TRIP) {
            Ok(rep) => {
                let row = Row {
                    kernel: kernel.name,
                    mii_lower_bound: res.mii.final_mii,
                    achieved_ii: sched.ii,
                    stages: sched.stages,
                    utilization: folded.utilization(),
                    max_registers: pressure.iter().copied().max().unwrap_or(0),
                    iterations_verified: rep.trip,
                    cycles_per_iteration: rep.cycles as f64 / rep.trip as f64,
                };
                println!(
                    "{:<16} {:>7} {:>5} {:>7} {:>6.2} {:>8} {:>10} {:>10.1}",
                    row.kernel,
                    row.mii_lower_bound,
                    row.achieved_ii,
                    row.stages,
                    row.utilization,
                    row.max_registers,
                    row.iterations_verified,
                    row.cycles_per_iteration,
                );
                rows.push(row);
            }
            Err(e) => println!("{:<16} SIMULATION MISMATCH: {e}", kernel.name),
        }
    }
    dump_json("schedule_e1", &rows);
    dump_bench_json("schedule_e1", &bench);
}
