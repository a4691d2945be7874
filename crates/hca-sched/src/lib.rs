//! # hca-sched — iterative modulo scheduling on the clusterised DDG
//!
//! The paper stops after cluster assignment and leaves "the modulo
//! scheduling phase, the register allocation and the DMA programming" as
//! future work (§5/§7); the architecture is explicitly built for
//! Kernel-Only Modulo Scheduled loops (Rau & Schlansker's KOMS schema,
//! §2.2). This crate implements that declared next phase so the final-MII
//! numbers of the evaluation can be *executed*, not just computed:
//!
//! * [`mrt`] — the Modulo Reservation Table: per-CN single-issue slots plus
//!   the shared DMA request ports, all modulo II;
//! * [`modsched`] — Rau's iterative modulo scheduling (MICRO '94):
//!   height-based priority, earliest-start from scheduled predecessors,
//!   slot search within one II window, forced placement with ejection and
//!   a bounded operation budget, retried at increasing II;
//! * [`kernel_only`] — the KOMS view of a schedule: stage decomposition and
//!   the per-(CN, cycle) kernel slot table consumed by the simulator;
//! * [`regalloc`] — rotating-register pressure estimation (MaxLive per CN);
//! * [`rotating`] — an actual rotating-register *allocation* (modulo
//!   lifetime interval colouring) validated against the register-file size;
//! * [`dma_prog`] — DMA programming: per-stream descriptors, per-cycle
//!   request budgeting and FIFO-depth analysis (§5's last future-work
//!   item).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffers;
pub mod dma_prog;
pub mod kernel_only;
pub mod modsched;
pub mod mrt;
pub mod regalloc;
pub mod rotating;

pub use buffers::{buffers_fit, input_buffer_pressure};
pub use dma_prog::{derive_dma_program, DmaProgram, StreamDescriptor, StreamDir};
pub use kernel_only::KernelSchedule;
pub use modsched::{modulo_schedule, ModuloSchedule, SchedError};
pub use mrt::Mrt;
pub use regalloc::register_pressure;
pub use rotating::{allocate_rotating, RotatingAllocation};
