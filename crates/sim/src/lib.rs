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
//! * [`experiment`] — one driver per paper figure (Fig. 8–14 and the §I
//!   headline numbers), returning structured rows for the harness
//!   binaries in `microbank-bench`.
//! * [`error`] — the typed failure vocabulary ([`error::SimError`]) of the
//!   fallible entry points; see DESIGN.md §5d.
//! * [`sweep`] — crash-safe resumable sweep execution with per-slot
//!   isolation, an atomic on-disk manifest, and a live status surface
//!   (`<name>.status.json` + optional HTTP `/status` & `/metrics`). A run
//!   depends only on its config, so a failed slot is recorded once and
//!   only a later invocation re-runs it.
//! * [`service`] — sweep-as-a-service: a fault-tolerant job daemon
//!   (durable write-ahead queue, worker pool with deadlines, cooperative
//!   cancellation, graceful drain) behind an HTTP job API (DESIGN.md §5i).

pub mod error;
pub mod experiment;
pub mod report;
pub mod service;
pub mod simulator;
pub mod sweep;

pub use error::{CancelKind, SimError};
pub use experiment::{
    base_cfg, headline, interface_study, interleave_policy_study, organization_comparison,
    predictor_study, representative_study, ubank_grid, GridResult, InterfaceRow, InterleaveRow,
    PredictorRow, RepresentativeRow, DEGREES, REPRESENTATIVE,
};
pub use report::{summarize, summary_columns, Table};
pub use service::{JobState, ServiceConfig, SweepService};
pub use simulator::{
    run, run_many, run_many_checked, try_run, CancelToken, QosReport, SimConfig, SimResult,
    TenantMetrics,
};
pub use sweep::{SlotRecord, SlotStatus, SweepRunner, SweepSlot};

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
