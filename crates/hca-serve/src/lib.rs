//! # hca-serve — the long-running HCA compilation daemon
//!
//! ROADMAP item 1: amortise sub-problem solving *across* runs. A fleet
//! compiling near-duplicate kernels re-solves the same decomposition
//! subtrees endlessly; this crate keeps one process alive with a shared,
//! sharded, byte-budgeted [`Memo`](hca_core::Memo) cache so the second
//! request for an isomorphic sub-problem is a lookup, not a search.
//!
//! * [`protocol`] — the JSON-lines wire format (requests, responses,
//!   [`CompileSummary`] with its bit-identity digest);
//! * [`server`] — the daemon: TCP or Unix-socket accept loop, one thread
//!   per connection, `compile_batch` fan-out over the [`hca_par`] worker
//!   set with per-item panic isolation, snapshot-on-shutdown /
//!   load-on-start cache persistence;
//! * [`client`] — a small blocking client (benches, tests, CI);
//! * [`kernels`] — server-side resolution of built-in kernel names.
//!
//! The cache is sound across requests because the memo key encodes the
//! fabric and the full solving context (see `hca-core`'s `memo` module):
//! a served result is bit-identical to a direct [`hca_core::run_hca`]
//! call, cache hot or cold — `tests/determinism.rs` pins exactly that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod kernels;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use kernels::resolve_kernel;
pub use protocol::{
    summarise, CompileSpec, CompileSummary, ItemResult, Request, Response, StatsReport,
};
pub use server::{parse_machine, Bind, Server, ServerConfig, StopHandle, MAX_LINE_BYTES};
