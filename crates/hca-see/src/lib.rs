//! # hca-see — the Space Exploration Engine
//!
//! The SEE is the paper's single-level Instruction Cluster Assignment core
//! (§3, Figures 4–5): "a local-scope based algorithm schema, which maintains
//! a limited exploration frontier". It is a beam search over *partial
//! solutions*:
//!
//! 1. pick the next DDG node from a **priority list** of unassigned ones;
//! 2. for every Pattern-Graph cluster, check **isAssignable** (resource
//!    consumption + availability of communication patterns);
//! 3. score each candidate with a weighted **objective function** built from
//!    cost criteria (copy count, copy pressure / estimated MII, load balance,
//!    critical-path stretch, recurrence stretch);
//! 4. reduce the candidate list with the **candidate filter**, fork the
//!    partial solution per surviving candidate;
//! 5. prune the frontier back to the beam width with the **node filter**;
//! 6. when *no candidates* exist, run the configurable **no-candidates
//!    action** — by default the **Route Allocator**, which places the node
//!    anyway and routes its operands through intermediate clusters
//!    (Figure 6b).
//!
//! The engine is generic over the Pattern Graph: a complete PG (a DSPFabric
//! level), a ring PG (RCP) or a PG completed with ILI special nodes all run
//! through the same code path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignable;
pub mod bounds;
pub mod cost;
pub mod engine;
pub mod exact;
pub mod filters;
pub mod neighbors;
pub mod route;
pub mod route_table;
pub mod state;
pub mod statics;

pub use assignable::{node_view, score_if_assignable, NodeView};
pub use bounds::{mii_lower_bound, MiiLowerBound};
pub use cost::CostWeights;
pub use engine::{See, SeeConfig, SeeError, SeeOutcome, SeeStats, STEP_SAMPLE_CAP};
pub use exact::{solution_score, ExactConfig, ExactOutcome, EXACT_NODE_BUDGET};
pub use filters::CandList;
pub use route_table::RouteTable;
pub use state::{PartialState, SeeContext};
