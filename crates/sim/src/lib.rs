//! # microbank-sim
//!
//! The full-system μbank simulator: wires the 64-core CMP model
//! (`microbank-cpu`) to the memory controllers (`microbank-ctrl`) and the
//! μbank DRAM devices (`microbank-core`), integrates energy
//! (`microbank-energy`), and drives the workload generators
//! (`microbank-workloads`).
//!
//! * [`simulator`] — [`simulator::SimConfig`] → [`simulator::SimResult`]:
//!   one single-threaded run of the whole system, plus a parallel runner
//!   that spreads independent runs over the available cores.
//! * [`experiment`] — the config builders the paper's figures share, and
//!   [`experiment::Runs`]: a plan's distinct configs simulated once, which
//!   the `microbank-bench` artifacts render from.
//! * [`error`] — the typed failure vocabulary ([`error::SimError`]) of the
//!   fallible entry points; see DESIGN.md §5d.
//! * [`sweep`] — the sweep manifest format: per-slot records certified by
//!   their id and [`simulator::SimConfig::fingerprint`], written
//!   atomically and quarantined when malformed.
//! * [`service`] — sweep-as-a-service, the one resumable sweep executor:
//!   a fault-tolerant job daemon (durable write-ahead queue, worker pool
//!   with deadlines, cooperative cancellation, graceful drain, per-job
//!   manifests) behind an HTTP job API with live `/status` and
//!   `/metrics` (DESIGN.md §5i). A run depends only on its config, so a
//!   failed slot is recorded once and only a later job re-runs it.

pub mod error;
pub mod experiment;
pub mod report;
pub mod service;
pub mod simulator;
pub mod sweep;

pub use error::{CancelKind, SimError};
pub use experiment::{base_cfg, Runs, DEGREES, REPRESENTATIVE};
pub use report::{summarize, summary_columns, Table};
pub use service::{JobState, ServiceConfig, SweepService};
pub use simulator::{
    run, run_many, run_many_checked, try_run, CancelToken, QosReport, SimConfig, SimResult,
    TenantMetrics,
};
pub use sweep::{SlotRecord, SlotStatus};

// QoS building blocks (DESIGN.md §5g), re-exported so harness binaries
// can build a `QosConfig` without depending on `microbank-ctrl` directly.
pub use microbank_ctrl::qos::{
    tenant_slot, QosConfig, QosGranularity, QosStats, TenantPolicy, MAX_TENANTS,
};

// Observability building blocks, re-exported so harness binaries need
// only this crate: span rows ride on `SimResult::profile`, the registry
// backs `/metrics`, and `http_get` is the matching scrape helper.
pub use microbank_telemetry::status::http_get;
pub use microbank_telemetry::{MetricsRegistry, SpanRow, SpanTracer, StatusServer, StatusShared};
