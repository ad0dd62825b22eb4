//! Reliability subsystem for the μbank memory simulator: deterministic
//! seeded fault injection, analytic per-64 B ECC (SEC-DED / chipkill),
//! patrol scrubbing scheduled through the real command pipeline, and
//! μbank-granular graceful degradation (retire-and-remap instead of fail).
//!
//! Everything is off unless a [`FaultConfig`] is attached to the
//! simulation: with it absent, the controller hot path takes a single
//! `Option` branch and the golden fingerprints are bit-identical to a
//! build without this crate.
//!
//! The headline experiment (the `reliability` artifact of `reproduce`) is
//! the blast-radius claim: the *same physical defects* cost a (16,16)
//! partitioning 1/256 of the capacity they cost a (1,1) baseline, because
//! retirement granularity shrinks with the μbank size.

pub mod degrade;
pub mod ecc;
pub mod engine;
pub mod inject;
pub mod scrub;

pub use degrade::Degrade;
pub use ecc::{decide, EccMode, EccOutcome, ErrorPattern, DATA_BITS, SYMBOLS, SYMBOL_BITS};
pub use engine::{AccessVerdict, FaultEngine, FaultSummary};
pub use inject::{FaultConfig, FaultMap};
pub use scrub::Scrubber;
