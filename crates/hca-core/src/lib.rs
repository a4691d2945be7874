//! # hca-core — Hierarchical Cluster Assignment
//!
//! The paper's primary contribution (§4): decompose the Instruction Cluster
//! Assignment of a multimedia-loop DDG over a hierarchical reconfigurable
//! machine into a tree of single-level sub-problems.
//!
//! * [`decompose`] — the working-set rule `WS(DDG…i,j) = {x | DDG̅…i(x) = j}`,
//!   per-level Pattern-Graph construction, ILI attachment and the effective
//!   wire budgets (Figure 8/10);
//! * [`driver`] — the recursive pipeline: SEE at level 0 → Mapper → ILIs →
//!   recurse into each member → leaves; then the post-processing pass;
//! * [`post`] — materialise `recv` primitives (and `route` forwards) into
//!   the final DDG, with every node placed on a computation node;
//! * [`coherency`] — the paper's final legality check: every pair of
//!   dependent instructions on different CNs must be connected by configured
//!   wires actually carrying the value;
//! * [`mii`] — the §4.2 cost model: `MII = max(iniMII, maxClsMII)` with
//!   recurrence, resource, DMA and wire-pressure terms, plus the unified
//!   machine "theoretical optimum" used by Table 1;
//! * [`flat`] — the non-hierarchical baseline the paper argues against:
//!   one SEE run over the flat 64-node Pattern Graph;
//! * [`rcp_flow`] — the degenerate single-level machine (§2.1's RCP ring):
//!   one SEE run plus ring-wire lowering and feasibility checking;
//! * [`report`] — Table-1 row rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Keep the solver's functions short enough to read as named steps (the
// threshold is in the workspace's clippy.toml).
#![deny(clippy::too_many_lines)]

pub mod coherency;
pub mod decompose;
pub mod driver;
pub mod flat;
mod memo;
pub mod mii;
pub mod post;
pub mod problem;
pub mod rcp_flow;
pub mod report;

pub use coherency::{check_coherency, CoherencyReport, Violation};
pub use driver::{
    run_hca, run_hca_obs, run_hca_portfolio, run_hca_portfolio_obs, run_hca_shared, run_hca_traced,
    HcaConfig, HcaError, HcaResult, HcaStats, PortfolioConfig, PortfolioMode, ValidationLevel,
};
pub use flat::run_flat;
pub use memo::{Memo, SNAPSHOT_VERSION};
pub use mii::MiiReport;
pub use post::FinalProgram;
pub use problem::Subproblem;
pub use rcp_flow::{run_rcp, RcpResult};
pub use report::Table1Row;
