//! Negative coherency tests for the `ValidationLevel::Strict` hard gate:
//! corrupt topologies with level-1 / level-2 MUX capacity overflows and
//! `outNode_MaxIn` fan-in violations must come back as typed errors, not
//! as a report the scheduler quietly ignores. `ValidationLevel::enforce`
//! is the exact gate `run_hca` applies, so these tests cover the
//! production rejection path with injected faults (the positive path —
//! real kernels passing under Strict — lives in `table1_end_to_end.rs`
//! and the fuzz gauntlet).

use hca_repro::arch::topology::{ConfiguredWire, WireSource};
use hca_repro::arch::{DspFabric, ResourceTable, Topology};
use hca_repro::ddg::{DdgBuilder, NodeId, Opcode};
use hca_repro::hca::coherency::check_coherency;
use hca_repro::hca::{HcaError, ValidationLevel};
use hca_repro::pg::{ArchConstraints, AssignedPg, Ili, IliWire, Pg, PgNodeId};

fn wire(src: WireSource, receivers: &[usize], to_parent: bool, values: &[u32]) -> ConfiguredWire {
    ConfiguredWire {
        src,
        receivers: receivers.to_vec(),
        to_parent,
        values: values.iter().map(|&v| NodeId(v)).collect(),
    }
}

/// Run the corrupted topology through the checker, then through both
/// validation levels: Strict must reject with `HcaError::Incoherent`,
/// Report must pass the report through unchanged.
fn assert_strict_rejects(fabric: &DspFabric, topo: &Topology, expect: &str) {
    let ddg = DdgBuilder::default().finish();
    let report = check_coherency(fabric, topo, &ddg, &|_| unreachable!("empty DDG"));
    assert!(!report.is_legal(), "fault not detected: {expect}");
    assert!(
        report.topology_errors.iter().any(|e| e.contains(expect)),
        "expected a `{expect}` error, got {:?}",
        report.topology_errors
    );
    match ValidationLevel::Strict.enforce(report.clone()) {
        Err(HcaError::Incoherent { report: r }) => {
            assert_eq!(r.topology_errors, report.topology_errors);
        }
        other => panic!("Strict must reject, got {other:?}"),
    }
    assert!(ValidationLevel::Report.enforce(report).is_ok());
}

#[test]
fn strict_rejects_level1_mux_input_overflow() {
    // Level-1 groups (cluster sets) of `standard(2, 2, 2)` give each member
    // M = 2 input ports; a third wire into member 0 overflows the MUX.
    let fabric = DspFabric::standard(2, 2, 2);
    let mut t = Topology::new();
    for s in 1..4usize {
        t.group_mut(&[0])
            .wires
            .push(wire(WireSource::Member(s), &[0], false, &[s as u32]));
    }
    assert_strict_rejects(&fabric, &t, "input ports");
}

#[test]
fn strict_rejects_level2_mux_input_overflow() {
    // Leaf (level-2) groups always give each CN 2 input ports, whatever the
    // N,M,K capacities are.
    let fabric = DspFabric::standard(8, 8, 8);
    let mut t = Topology::new();
    for s in 1..4usize {
        t.group_mut(&[0, 0])
            .wires
            .push(wire(WireSource::Member(s), &[0], false, &[s as u32]));
    }
    assert_strict_rejects(&fabric, &t, "input ports");
}

#[test]
fn strict_rejects_level2_glue_overflow() {
    // The crossbar admits only K wires into a leaf group; configure K + 1
    // glue-in wires.
    let fabric = DspFabric::standard(2, 2, 2);
    let mut t = Topology::new();
    for v in 0..3u32 {
        t.group_mut(&[0, 0])
            .wires
            .push(wire(WireSource::Parent, &[v as usize % 4], false, &[v]));
    }
    assert_strict_rejects(&fabric, &t, "glue-in");
}

#[test]
fn strict_rejects_output_wire_overflow() {
    // A CN owns exactly one output wire; two configured wires from the same
    // member overflow it.
    let fabric = DspFabric::standard(8, 8, 8);
    let mut t = Topology::new();
    t.group_mut(&[0, 0])
        .wires
        .push(wire(WireSource::Member(0), &[1], false, &[0]));
    t.group_mut(&[0, 0])
        .wires
        .push(wire(WireSource::Member(0), &[2], false, &[1]));
    assert_strict_rejects(&fabric, &t, "output wires");
}

#[test]
fn strict_rejects_undelivered_value() {
    // A dependence crossing clusters with no wire at all: the per-edge
    // violation list (not a topology budget) must also trip the gate.
    let fabric = DspFabric::standard(8, 8, 8);
    let mut b = DdgBuilder::default();
    let u = b.node(Opcode::Add);
    let w = b.node(Opcode::Add);
    b.flow(u, w);
    let ddg = b.finish();
    let (ca, cb) = (fabric.cn_of_path(&[0, 0, 0]), fabric.cn_of_path(&[3, 3, 3]));
    let placement = move |n: NodeId| if n == u { ca } else { cb };
    let report = check_coherency(&fabric, &Topology::new(), &ddg, &placement);
    assert_eq!(report.violations.len(), 1);
    assert!(matches!(
        ValidationLevel::Strict.enforce(report),
        Err(HcaError::Incoherent { .. })
    ));
}

#[test]
fn out_node_max_in_violation_is_detected() {
    // Two producers on different clusters feeding one output special node:
    // fan-in 2 > outNode_MaxIn = 1 (Figure 10b). This is the constraint
    // `run_hca` re-checks per sub-problem under Strict (the
    // `HcaError::Constraint` path).
    let mut b = DdgBuilder::default();
    let k = b.node(Opcode::Add);
    let h = b.node(Opcode::Add);
    let ddg = b.finish();
    let mut pg = Pg::complete(2, ResourceTable::of_cns(4));
    pg.attach_ili(&Ili {
        inputs: vec![],
        outputs: vec![IliWire::new(vec![k, h])],
    });
    let cons = ArchConstraints {
        max_in_neighbors: 4,
        max_out_neighbors: None,
        out_node_max_in: 1,
        copy_latency: 1,
    };
    let mut bad = AssignedPg::new(pg);
    bad.assign(k, PgNodeId(0));
    bad.assign(h, PgNodeId(1));
    bad.derive_copies(&ddg, None);
    let err = cons.check(&bad).unwrap_err();
    assert!(err.contains("outNode_MaxIn"), "{err}");
}

#[test]
fn table1_kernels_pass_under_strict() {
    // The positive side of the gate: every Table-1 kernel clusterises under
    // Strict with zero violations on the paper's 64-CN machine.
    let fabric = DspFabric::standard(8, 8, 8);
    for kernel in hca_repro::kernels::table1_kernels() {
        let res =
            hca_repro::hca::run_hca(&kernel.ddg, &fabric, &hca_repro::hca::HcaConfig::strict())
                .unwrap_or_else(|e| panic!("{} under Strict: {e}", kernel.name));
        assert!(res.is_legal());
        assert_eq!(res.placement.len(), kernel.ddg.num_nodes());
    }
}
