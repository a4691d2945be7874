//! # hca-repro — umbrella crate
//!
//! Re-exports the whole workspace reproducing *"Hierarchical Cluster
//! Assignment for Coarse-Grain Reconfigurable Coprocessors"* (IPPS 2007)
//! under one roof, so downstream users depend on a single crate and the
//! repository-level `examples/` and `tests/` exercise the public API exactly
//! as a user would.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use hca_arch as arch;
pub use hca_check as check;
pub use hca_core as hca;
pub use hca_ddg as ddg;
pub use hca_kernels as kernels;
pub use hca_mapper as mapper;
pub use hca_pg as pg;
pub use hca_sched as sched;
pub use hca_see as see;
pub use hca_sim as sim;
