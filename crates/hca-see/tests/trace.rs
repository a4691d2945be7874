//! The engine's search-trace contract: one `step` record per placement
//! step whose deltas agree with the aggregate [`SeeStats`] counters, and a
//! bit-identical outcome whether a tracer is attached or not.

use hca_arch::ResourceTable;
use hca_ddg::{DdgAnalysis, DdgBuilder, Opcode};
use hca_obs::trace::{kind, TOP_K};
use hca_obs::SearchTracer;
use hca_pg::{ArchConstraints, Pg};
use hca_see::{See, SeeConfig};

fn constraints() -> ArchConstraints {
    ArchConstraints {
        max_in_neighbors: 4,
        max_out_neighbors: None,
        out_node_max_in: 1,
        copy_latency: 1,
    }
}

fn mixed_ddg() -> hca_ddg::Ddg {
    let mut b = DdgBuilder::default();
    for i in 0..6 {
        let x = b.node(Opcode::Load);
        let y = b.node(if i % 2 == 0 { Opcode::Mul } else { Opcode::Add });
        b.flow(x, y);
    }
    b.finish()
}

#[test]
fn traced_run_emits_one_step_record_per_placement() {
    let ddg = mixed_ddg();
    let an = DdgAnalysis::compute(&ddg).unwrap();
    let pg = Pg::complete(4, ResourceTable::of_cns(2));
    let tracer = SearchTracer::enabled();
    let see = See::new(&ddg, &an, &pg, constraints(), SeeConfig::default())
        .with_tracer(tracer.scoped("root", 0, 1));
    let out = see.run(None).unwrap();

    let steps: Vec<_> = tracer
        .records()
        .into_iter()
        .filter(|r| r.kind == kind::STEP)
        .collect();
    assert_eq!(steps.len(), out.stats.steps);
    // Scope is stamped onto every record.
    assert!(steps.iter().all(|r| r.problem == "root" && r.tier == 1));
    // Step indices are sequential; per-step deltas sum to the aggregates.
    for (i, r) in steps.iter().enumerate() {
        assert_eq!(r.step as usize, i);
        assert!(r.beam >= 1);
        assert!(r.cands.len() <= TOP_K);
    }
    let explored: u64 = steps.iter().map(|r| r.explored).sum();
    assert_eq!(explored, out.stats.states_explored as u64);
    let pruned: u64 = steps.iter().map(|r| r.pruned_beam).sum();
    assert_eq!(pruned, out.stats.states_pruned as u64);
    let margin: u64 = steps.iter().map(|r| r.rej_margin).sum();
    assert_eq!(margin, out.stats.cand_rejected_margin as u64);
    let ns: u64 = steps.iter().map(|r| r.ns).sum();
    assert_eq!(ns, out.stats.step_time_total_ns);
    // Each step's surviving beam matches the occupancy sample.
    for (r, &occ) in steps.iter().zip(&out.stats.beam_occupancy) {
        assert_eq!(r.beam as usize, occ);
    }
    // On a fully connected uncongested fabric nothing needs rescue.
    assert!(steps.iter().all(|r| !r.rescued));
    // Candidates are sorted best-first.
    for r in &steps {
        for w in r.cands.windows(2) {
            assert!(w[0].1 <= w[1].1, "cands not sorted: {:?}", r.cands);
        }
    }
}

#[test]
fn tracer_attachment_does_not_change_the_outcome() {
    let ddg = mixed_ddg();
    let an = DdgAnalysis::compute(&ddg).unwrap();
    let pg = Pg::complete(4, ResourceTable::of_cns(2));
    let plain = See::new(&ddg, &an, &pg, constraints(), SeeConfig::default())
        .run(None)
        .unwrap();
    let traced = See::new(&ddg, &an, &pg, constraints(), SeeConfig::default())
        .with_tracer(SearchTracer::enabled())
        .run(None)
        .unwrap();
    assert_eq!(plain.cost, traced.cost);
    assert_eq!(plain.est_mii, traced.est_mii);
    assert_eq!(plain.mii_issue, traced.mii_issue);
    assert_eq!(plain.mii_arc, traced.mii_arc);
    assert_eq!(plain.assigned.assignment, traced.assigned.assignment);
    assert_eq!(plain.stats.states_explored, traced.stats.states_explored);
    assert_eq!(plain.stats.beam_occupancy, traced.stats.beam_occupancy);
}

#[test]
fn est_mii_components_compose_the_estimate() {
    let ddg = mixed_ddg();
    let an = DdgAnalysis::compute(&ddg).unwrap();
    let pg = Pg::complete(4, ResourceTable::of_cns(2));
    let out = See::new(&ddg, &an, &pg, constraints(), SeeConfig::default())
        .run(None)
        .unwrap();
    let expect = an.mii_rec.max(out.mii_issue).max(out.mii_arc).max(1);
    assert_eq!(out.est_mii, expect);
}
