//! # hca-check — differential validation harness
//!
//! The correctness subsystem of the HCA reproduction. Three pillars:
//!
//! * [`oracle`] — a branch-and-bound **flat-ICA oracle**: the exact
//!   optimal resource-MII of small DDGs (≤ ~12 nodes) over the flattened
//!   machine, used as a quality yardstick for HCA's `final_mii`;
//! * [`reach`] — an independent **fixpoint coherency checker**,
//!   differentially compared against `hca_core::coherency`'s forward
//!   propagation edge by edge;
//! * [`fuzz`] + [`gen`] + [`shrink`] + [`journal`] — a **seeded DDG
//!   fuzzer**: random loop kernels through `run_hca` under
//!   `ValidationLevel::Strict`, the differential coherency check, the
//!   oracle envelope, the apply/undo journal round-trip and a
//!   1-thread-vs-N-thread determinism diff; failures shrink (ddmin) to
//!   minimal reproducers written to disk as JSON.
//!
//! The CLI front-ends live in `hca-cli` as the `fuzz` and `verify`
//! subcommands; CI runs a bounded smoke campaign on fixed seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod gen;
pub mod journal;
pub mod oracle;
pub mod reach;
pub mod shrink;

pub use fuzz::{
    gauntlet, run_campaign, CampaignConfig, CampaignSummary, CheckKind, FailureRecord,
    GauntletConfig, GauntletFailure, GauntletReport,
};
pub use gen::random_kernel;
pub use journal::journal_roundtrip_check;
pub use oracle::{flat_optimal_mii, OracleConfig, OracleVerdict};
pub use reach::{coherency_violations_fixpoint, differential_coherency, value_delivered_fixpoint};
pub use shrink::{induced_subgraph, shrink};
