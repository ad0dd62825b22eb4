//! # microbank-cpu
//!
//! Cycle-level chip-multiprocessor model reproducing the paper's evaluation
//! platform (§VI-A): 64 out-of-order cores at 2 GHz, each issuing and
//! committing up to two instructions per cycle with a 32-entry reorder
//! buffer; private 16 KB 4-way L1 caches; a 2 MB 16-way L2 shared by each
//! 4-core cluster; MESI coherence kept by a directory at the memory
//! controllers; 16 clusters, each with a router and one memory controller.
//!
//! The model is deliberately at the fidelity the paper's results depend on:
//! IPC is governed by ROB-limited memory-level parallelism, cache hit
//! rates, and queueing at the memory controllers, all simulated cycle by
//! cycle against the DRAM timing model in `microbank-core`.
//!
//! * [`instr`] — the instruction-stream abstraction workloads implement.
//! * [`rob`] — the reorder-buffer core model.
//! * [`cache`] — set-associative write-back caches with LRU replacement.
//! * [`mshr`] — miss-status holding registers (the per-core MLP limiter;
//!   accesses to an in-flight line merge in [`system`]'s in-flight table).
//! * [`coherence`] — directory-based MESI among the L2 slices.
//! * [`system`] — the full CMP: clusters, routing, and the memory port.

pub mod cache;
pub mod coherence;
pub mod config;
pub mod instr;
pub mod mshr;
pub mod prefetch;
pub mod rob;
pub mod system;

pub use cache::{AccessResult, Cache};
pub use coherence::{CoherenceAction, Directory, LineState};
pub use config::CmpConfig;
pub use instr::{Block, Instr, InstrSource};
pub use mshr::MshrFile;
pub use prefetch::StreamPrefetcher;
pub use rob::{Core, CoreStats, MemOutcome};
pub use system::{CmpSystem, MemPort, SubmittedReq, SystemStats};
