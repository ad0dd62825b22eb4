//! # microbank
//!
//! A production-quality Rust reproduction of *"Microbank: Architecting
//! Through-Silicon Interposer-Based Main Memory Systems"* (SC 2014).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (`microbank-core`) — the μbank DRAM device model: geometry,
//!   timing, per-μbank FSMs, channels, and address interleaving.
//! * [`energy`] (`microbank-energy`) — area (Fig. 6a), energy (Table I,
//!   Fig. 6b), and power integration models.
//! * [`ctrl`] (`microbank-ctrl`) — the memory controller: PAR-BS
//!   scheduling and the page-management policies/predictors of §V.
//! * [`cpu`] (`microbank-cpu`) — the 64-core CMP with MESI coherence.
//! * [`workloads`] (`microbank-workloads`) — synthetic SPEC/TPC/SPLASH/
//!   PARSEC application profiles.
//! * [`sim`] (`microbank-sim`) — the full-system simulator, the figures'
//!   shared config builders, and the deduplicating run set they render
//!   from.
//!
//! ## Quickstart
//!
//! ```no_run
//! use microbank::prelude::*;
//!
//! // Simulate 429.mcf on the baseline and on a (4,4) μbank system.
//! let base = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
//! let mut ub = base.clone();
//! ub.mem = ub.mem.with_ubanks(4, 4);
//! let r0 = microbank::sim::run(&base);
//! let r1 = microbank::sim::run(&ub);
//! println!("relative IPC {:.2}", r1.ipc / r0.ipc);
//! ```

pub use microbank_core as core;
pub use microbank_cpu as cpu;
pub use microbank_ctrl as ctrl;
pub use microbank_energy as energy;
pub use microbank_sim as sim;
pub use microbank_workloads as workloads;

pub mod prelude {
    //! Common imports for examples and downstream users.
    pub use microbank_core::prelude::*;
    pub use microbank_cpu::config::CmpConfig;
    pub use microbank_ctrl::policy::PolicyKind;
    pub use microbank_ctrl::predictor::PredictorKind;
    pub use microbank_ctrl::scheduler::SchedulerKind;
    pub use microbank_energy::{AreaModel, CorePowerModel, EnergyModel, EnergyParams};
    pub use microbank_sim::{SimConfig, SimResult};
    pub use microbank_workloads::{AppProfile, SpecGroup, Workload};
}
