//! # microbank-telemetry
//!
//! The observability layer for the μbank simulator stack: everything the
//! end-of-run aggregates in `SimResult` cannot explain. Dependency-free
//! (std only) so the innermost crates (`microbank-core`,
//! `microbank-ctrl`) can own telemetry state without widening the
//! workspace's dependency graph.
//!
//! * [`series`] — [`series::Timeline`]: a metrics registry sampled every
//!   epoch, exported as CSV or column-oriented JSON.
//! * [`heat`] — [`heat::HeatCounters`]: per-μbank activate / row-hit /
//!   conflict counters, rendered as `nW×nB`-aware heat maps.
//! * [`trace`] — [`trace::CmdTrace`]: a bounded ring buffer of issued DRAM
//!   commands, exported as Chrome `trace_event` JSON for
//!   `chrome://tracing`.
//! * [`span`] — [`span::SpanTracer`]: hierarchical wall-clock
//!   self-profiling of the harness (setup/drive/artifact phases, and
//!   the drive's controller-tick vs CPU/NoC breakdown).
//! * [`metrics`] — [`metrics::MetricsRegistry`]: counters, gauges, and
//!   histograms with Prometheus text exposition and JSON snapshots.
//! * [`event`] — leveled structured event logging (`MICROBANK_LOG`),
//!   human one-liners on stderr or JSONL.
//! * [`status`] — [`status::StatusServer`]: a dependency-free blocking
//!   HTTP listener serving `/status` and `/metrics` for a live sweep.
//! * [`profile`] — [`profile::mcycles_per_sec`]: the harness-throughput
//!   metric (simulated Mcycles per wall-second).
//! * [`json`] — the minimal writer/parser backing the JSON exports.
//! * [`artifact`] — [`artifact::atomic_write`]: temp-file + fsync + rename
//!   writes, so a crash never leaves a truncated result artifact.
//!
//! All hot-path hooks are designed to sit behind an `Option<Box<…>>` on
//! the owning component: disabled (the default) costs one branch. The
//! observability layer as a whole is read-only with respect to the
//! simulated machine: spans, metrics, events, and the status server
//! observe wall-clock and counter state but never feed back, so enabling
//! any of it cannot perturb golden fingerprints or telemetry artifacts.

pub mod artifact;
pub mod event;
pub mod heat;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod series;
pub mod span;
pub mod status;
pub mod trace;

pub use artifact::atomic_write;
pub use event::Level;
pub use heat::{ChannelTelemetry, HeatCounters};
pub use metrics::{MetricKind, MetricsRegistry};
pub use profile::mcycles_per_sec;
pub use series::Timeline;
pub use span::{SpanRow, SpanTracer};
pub use status::{HttpRequest, HttpResponse, StatusServer, StatusShared};
pub use trace::{CmdKind, CmdRecord, CmdTrace};

/// Knobs for enabling telemetry on a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Cycles per epoch sample.
    pub epoch_cycles: u64,
    /// Command-trace ring capacity per controller (0 disables tracing).
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            epoch_cycles: 10_000,
            trace_capacity: 65_536,
        }
    }
}

impl TelemetryConfig {
    pub fn new(epoch_cycles: u64, trace_capacity: usize) -> Self {
        assert!(epoch_cycles > 0, "epoch length must be positive");
        TelemetryConfig {
            epoch_cycles,
            trace_capacity,
        }
    }
}
