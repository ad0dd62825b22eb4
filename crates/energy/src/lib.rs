//! # microbank-energy
//!
//! Area, energy, and power models for μbank DRAM devices and the three
//! processor–memory interfaces studied in the paper (*Microbank*, SC
//! 2014). The figures' energy-delay product is computed from these by
//! `microbank_sim`'s `SimResult::edp_per_work`.
//!
//! * [`params`] — Table I energy parameters per interface.
//! * [`area`] — the structural die-area model behind Fig. 6(a): latches,
//!   μbank decoders, global-dataline multiplexers, and routing overheads as
//!   a function of the partitioning degree `(nW, nB)`.
//! * [`energy`] — per-operation DRAM energy and the Fig. 6(b) relative
//!   energy-per-read matrix parameterized by the paper's β (ACT-per-column
//!   ratio).
//! * [`power`] — integrates [`microbank_core::stats::DramStats`] event
//!   counts over time into the Fig. 10 / Fig. 14 power breakdowns.
//! * [`corepower`] — the McPAT-derived processor energy abstraction the
//!   paper uses (200 pJ/op dual-issue OoO core at 22 nm, §III-B).
//! * [`breakdown`] — the Fig. 1 per-bit energy breakdown of PCB vs TSI vs
//!   TSI+μbank memory systems.

pub mod area;
pub mod breakdown;
pub mod corepower;
pub mod energy;
pub mod params;
pub mod power;

pub use area::AreaModel;
pub use breakdown::{system_breakdown, BitEnergyBreakdown, SystemKind};
pub use corepower::CorePowerModel;
pub use energy::EnergyModel;
pub use params::EnergyParams;
pub use power::{MemoryEnergy, PowerIntegrator};
