//! Driver-level contract of the search-trace recorder: `run_hca_traced`
//! emits a consistent record stream for every Table-1 kernel, the trace
//! round-trips through the JSONL reader, attaching a tracer changes
//! nothing about the run's outcome, and no sub-problem's records depend on
//! the thread count.

use hca_arch::DspFabric;
use hca_core::{run_hca_obs, run_hca_traced, HcaConfig};
use hca_obs::trace::{kind, FALLBACK_TIER};
use hca_obs::{Obs, SearchTracer, TraceRecord};
use std::collections::BTreeMap;

fn traced_records(ddg: &hca_ddg::Ddg) -> (hca_core::HcaResult, Vec<TraceRecord>) {
    let fabric = DspFabric::standard(8, 8, 8);
    let tracer = SearchTracer::enabled();
    let res = run_hca_traced(
        ddg,
        &fabric,
        &HcaConfig::default(),
        &Obs::disabled(),
        &tracer,
    )
    .expect("table1 kernel clusterises");
    (res, tracer.records())
}

#[test]
fn every_table1_kernel_emits_a_consistent_trace() {
    for kernel in hca_kernels::table1_kernels() {
        let (res, records) = traced_records(&kernel.ddg);
        assert!(!records.is_empty(), "{}: empty trace", kernel.name);

        // Partition by problem id.
        let mut subs: BTreeMap<&str, Vec<&TraceRecord>> = BTreeMap::new();
        for r in &records {
            subs.entry(r.problem.as_str()).or_default().push(r);
        }

        // Exactly one run-level MII record, and it matches the MII report.
        let mii: Vec<&TraceRecord> = records.iter().filter(|r| r.kind == kind::MII).collect();
        assert_eq!(mii.len(), 1, "{}", kernel.name);
        assert_eq!(mii[0].est_mii, res.mii.final_mii, "{}", kernel.name);
        assert_eq!(mii[0].mii_rec, res.mii.final_mii_rec, "{}", kernel.name);
        assert!(!mii[0].why.is_empty(), "{}", kernel.name);

        // One `sub` record per sub-problem the driver visited.
        let sub_count = records.iter().filter(|r| r.kind == kind::SUB).count();
        assert_eq!(sub_count, res.stats.subproblems, "{}", kernel.name);

        for (problem, recs) in &subs {
            if problem.is_empty() {
                continue; // run-level records
            }
            let solved: Vec<_> = recs.iter().filter(|r| r.kind == kind::SOLVED).collect();
            // Every visited sub-problem is solved exactly once, by a tier
            // or the fallback.
            assert_eq!(solved.len(), 1, "{}/{problem}: solved records", kernel.name);
            for s in solved {
                // est_mii is the max of its recorded components (≥ 1 floor).
                let expect = s.mii_rec.max(s.mii_issue).max(s.mii_arc).max(1);
                assert_eq!(s.est_mii, expect, "{}/{problem}", kernel.name);
                assert!(
                    ["recurrence", "issue", "arc", "floor"].contains(&s.why.as_str()),
                    "{}/{problem}: binder {:?}",
                    kernel.name,
                    s.why
                );
                // The winning tier also appears as a successful tier record.
                assert!(
                    s.tier == FALLBACK_TIER
                        || recs
                            .iter()
                            .any(|r| r.kind == kind::TIER && r.tier == s.tier && r.ok),
                    "{}/{problem}: winner tier {} has no ok tier record",
                    kernel.name,
                    s.tier
                );
            }
            // Step records are stamped with the sub-problem scope.
            for r in recs.iter().filter(|r| r.kind == kind::STEP) {
                assert!(
                    r.tier < 5,
                    "{}/{problem}: step outside tier range",
                    kernel.name
                );
                assert!(r.beam >= 1, "{}/{problem}: empty beam", kernel.name);
            }
        }
    }
}

#[test]
fn tracer_attachment_does_not_change_the_result() {
    for kernel in hca_kernels::table1_kernels() {
        let fabric = DspFabric::standard(8, 8, 8);
        let plain = run_hca_obs(
            &kernel.ddg,
            &fabric,
            &HcaConfig::default(),
            &Obs::disabled(),
        )
        .expect("plain run");
        let (traced, _) = traced_records(&kernel.ddg);
        assert_eq!(plain.mii.final_mii, traced.mii.final_mii, "{}", kernel.name);
        assert_eq!(plain.placement, traced.placement, "{}", kernel.name);
        assert_eq!(plain.stats, traced.stats, "{}", kernel.name);
        assert_eq!(
            plain.final_program.route_nodes, traced.final_program.route_nodes,
            "{}",
            kernel.name
        );
    }
}

#[test]
fn trace_round_trips_through_jsonl() {
    let kernel = &hca_kernels::table1_kernels()[0];
    let (_, records) = traced_records(&kernel.ddg);
    let mut text = String::new();
    for r in &records {
        text.push_str(&serde_json::to_string(r).unwrap());
        text.push('\n');
    }
    let back = hca_obs::trace::read_jsonl(&text).unwrap();
    assert_eq!(back, records);
}

/// Each escalation tier records its steps into a buffer of its own and the
/// ladder fold appends them in tier order, dropping tiers it never reads.
/// So every sub-problem's record sequence — wall-clock `ns` aside — is the
/// same on one thread and on four, where tiers overlap (beam-only) or run
/// speculatively and get cancelled (exact-small).
#[test]
fn sub_problem_traces_do_not_depend_on_the_thread_count() {
    use hca_core::PortfolioConfig;
    let fabric = DspFabric::standard(8, 8, 8);
    let beam_only = HcaConfig::default();
    let exact_small = HcaConfig {
        portfolio: PortfolioConfig::exact_small(),
        ..beam_only
    };
    let by_problem = |ddg: &hca_ddg::Ddg, config: &HcaConfig, threads: usize| {
        hca_par::set_thread_override(Some(threads));
        let tracer = SearchTracer::enabled();
        let run = run_hca_traced(ddg, &fabric, config, &Obs::disabled(), &tracer);
        hca_par::set_thread_override(None);
        run.expect("kernel clusterises");
        let mut subs: BTreeMap<String, Vec<TraceRecord>> = BTreeMap::new();
        for mut r in tracer.records() {
            r.ns = 0;
            subs.entry(r.problem.clone()).or_default().push(r);
        }
        subs
    };
    for name in ["fir2dim", "matvec8"] {
        let ddg = hca_kernels::builtin(name).expect("built-in kernel");
        for (mode, config) in [("beam-only", &beam_only), ("exact-small", &exact_small)] {
            let one = by_problem(&ddg, config, 1);
            let four = by_problem(&ddg, config, 4);
            assert_eq!(
                one.keys().collect::<Vec<_>>(),
                four.keys().collect::<Vec<_>>(),
                "{name} {mode}: sub-problems differ"
            );
            for (problem, recs) in &one {
                assert_eq!(
                    recs, &four[problem],
                    "{name} {mode}: records of sub-problem {problem:?} differ"
                );
            }
        }
    }
}
