//! # microbank-workloads
//!
//! Synthetic, deterministic workload generators standing in for the paper's
//! benchmark suites (SPEC CPU2006, TPC-C/H, SPLASH-2, PARSEC — §VI-A). Each
//! application is a parameterized address-stream profile whose knobs map
//! onto the behaviours the paper's results depend on: MAPKI class
//! (Table II), row-buffer spatial locality, bank-level parallelism,
//! read/write mix, and inter-thread sharing. See DESIGN.md §2 for the
//! substitution rationale.
//!
//! * [`profile`] — the profile parameter set.
//! * [`synth`] — the seeded stream generator (implements
//!   [`microbank_cpu::instr::InstrSource`]).
//! * [`spec`] — the 29-application SPEC CPU2006 catalog and Table II groups.
//! * [`suite`] — TPC-C/H, RADIX, FFT, canneal, and the [`suite::Workload`]
//!   selector with its address-space partitioning source builder.
//! * [`mix`] — the mix-high / mix-blend multiprogrammed mixtures.

pub mod mix;
pub mod profile;
pub mod spec;
pub mod suite;
pub mod synth;

pub use profile::AppProfile;
pub use spec::SpecGroup;
pub use suite::{build_sources, Workload};
pub use synth::SynthSource;
