//! The complete toolchain across crate boundaries: DDG → HCA → coherency →
//! modulo schedule → kernel-only fold → cycle-level simulation verified
//! against the sequential reference.

use hca_repro::arch::DspFabric;
use hca_repro::hca::{run_hca, HcaConfig};
use hca_repro::sched::{modulo_schedule, register_pressure, KernelSchedule};
use hca_repro::sim::verify_execution;

fn end_to_end(ddg: &hca_repro::ddg::Ddg, trip: u64) {
    let fabric = DspFabric::standard(8, 8, 8);
    let res = run_hca(ddg, &fabric, &HcaConfig::default()).expect("clusterise");
    assert!(res.is_legal(), "{:?}", res.coherency);
    let sched = modulo_schedule(&res.final_program, &fabric, res.mii.final_mii).expect("schedule");
    assert!(sched.ii >= res.mii.final_mii);
    hca_repro::sched::modsched::validate(&res.final_program, &fabric, &sched)
        .expect("schedule validates");
    let folded = KernelSchedule::fold(&res.final_program, &fabric, &sched);
    let pressure = register_pressure(&res.final_program, &fabric, &sched);
    assert_eq!(pressure.len(), fabric.num_cns());
    let report = verify_execution(ddg, &res.final_program, &fabric, &folded, trip)
        .expect("simulation matches reference");
    assert_eq!(report.trip, trip);
}

#[test]
fn fir2dim_runs_end_to_end() {
    end_to_end(&hca_repro::kernels::fir2dim::build().ddg, 12);
}

#[test]
fn idcthor_runs_end_to_end() {
    end_to_end(&hca_repro::kernels::idct::build().ddg, 8);
}

#[test]
fn mpeg2inter_runs_end_to_end() {
    end_to_end(&hca_repro::kernels::mpeg2::build().ddg, 8);
}

#[test]
fn h264deblocking_runs_end_to_end() {
    end_to_end(&hca_repro::kernels::h264::build().ddg, 4);
}

#[test]
fn dspstone_extras_run_end_to_end() {
    end_to_end(&hca_repro::kernels::dspstone::fir(8), 8);
    end_to_end(&hca_repro::kernels::dspstone::biquad(), 8);
    end_to_end(&hca_repro::kernels::dspstone::matvec_row(8), 6);
    end_to_end(&hca_repro::kernels::dspstone::dot_product(), 8);
    end_to_end(&hca_repro::kernels::dspstone::n_real_updates(4), 6);
    end_to_end(&hca_repro::kernels::dspstone::convolution(6), 6);
    end_to_end(&hca_repro::kernels::dspstone::lms(4), 6);
    end_to_end(&hca_repro::kernels::dspstone::matrix1x3(), 6);
}

#[test]
fn unrolled_kernels_run_end_to_end() {
    // Unrolling doubles the working set; the pipeline must still verify.
    let base = hca_repro::kernels::dspstone::dot_product();
    end_to_end(&hca_repro::ddg::unroll(&base, 2), 6);
    end_to_end(&hca_repro::ddg::unroll(&base, 4), 4);
}

#[test]
fn reduced_machines_run_end_to_end() {
    // A two-level 16-CN machine exercises the depth-2 code paths.
    let fabric = DspFabric::two_level(4, 4, 4);
    let ddg = hca_repro::kernels::dspstone::fir(6);
    let res = run_hca(&ddg, &fabric, &HcaConfig::default()).expect("clusterise");
    assert!(res.is_legal());
    let sched = modulo_schedule(&res.final_program, &fabric, res.mii.final_mii).unwrap();
    let folded = KernelSchedule::fold(&res.final_program, &fabric, &sched);
    verify_execution(&ddg, &res.final_program, &fabric, &folded, 10).unwrap();
}
