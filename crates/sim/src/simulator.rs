//! The full-system simulator: CMP ⇄ memory controllers ⇄ μbank DRAM,
//! with energy integration and the metrics every figure reports.

use crate::error::{CancelKind, SimError};
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind};
use microbank_core::stats::DramStats;
use microbank_core::validate::{Checker, ConfigError};
use microbank_core::Cycle;
use microbank_cpu::cache::Cache;
use microbank_cpu::coherence::Directory;
use microbank_cpu::config::CmpConfig;
use microbank_cpu::system::{CmpSystem, MemPort, SubmittedReq};
use microbank_ctrl::controller::{Completion, MemoryController};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::qos::{tenant_slot, QosConfig, QosStats, MAX_TENANTS};
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_energy::corepower::CorePowerModel;
use microbank_energy::energy::EnergyModel;
use microbank_energy::params::EnergyParams;
use microbank_energy::power::{MemoryEnergy, PowerIntegrator};
use microbank_faults::{FaultConfig, FaultSummary};
use microbank_telemetry::span::SpanRow;
use microbank_telemetry::{
    mcycles_per_sec, CmdRecord, HeatCounters, MetricKind, MetricsRegistry, SpanTracer,
    TelemetryConfig, Timeline,
};
use microbank_workloads::suite::{build_sources, Workload};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One simulation run's configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub mem: MemConfig,
    pub cmp: CmpConfig,
    pub scheduler: SchedulerKind,
    pub policy: PolicyKind,
    pub workload: Workload,
    /// Cycles before measurement starts (cache/predictor warmup).
    pub warmup_cycles: Cycle,
    /// Measured window length.
    pub measure_cycles: Cycle,
    pub seed: u64,
    /// Tick controllers every N CPU cycles. 2 matches the TSI command-bus
    /// slot (1 ns), so no command-issue opportunity is ever skipped.
    pub ctrl_stride: Cycle,
    /// When set, the run collects an epoch time-series, per-μbank heat
    /// counters, and a bounded command trace (see [`SimResult::telemetry`]).
    /// `None` (the default) keeps every hot-path hook to a single branch.
    pub telemetry: Option<TelemetryConfig>,
    /// When set, the reliability subsystem is armed: fault injection, ECC,
    /// patrol scrubbing, and graceful degradation (crate
    /// `microbank-faults`). `None` (the default) keeps the golden path
    /// bit-identical to a build without the subsystem.
    pub faults: Option<FaultConfig>,
    /// When set, the multi-tenant QoS subsystem is armed: per-tenant
    /// token-bucket bandwidth regulation (channel or μbank granularity),
    /// the tenant-priority scheduler axis, and per-tenant accounting
    /// (latency histograms, bandwidth shares, throttle/reclaim counters,
    /// epoch columns). `None` (the default) keeps runs bit-identical to a
    /// build without the subsystem — the same Option pattern as `faults`.
    pub qos: Option<QosConfig>,
    /// Fine-grained harness span tracing: the drive times its controller
    /// ticks against the rest of the loop, exported on
    /// [`RunProfile::spans`]. Off (the default), a run only records
    /// the coarse setup/drive/artifact phases. Spans observe wall time
    /// but never feed back into the simulated machine, so results are
    /// bit-identical with tracing on or off.
    pub spans: bool,
    /// Event-driven time skipping: when on (the default), the drive
    /// advances `now` in jumps to the earliest component wake time
    /// (controller `next_event` horizons, CPU/NoC horizon, pending fill
    /// deliveries) instead of ticking through provably-quiet cycles, and
    /// sleeps controllers on their busy-horizon instead of only when
    /// fully idle. `None` defers to the `MICROBANK_NO_SKIP` environment
    /// variable (set non-`0` to force the per-cycle reference path). Results are bit-identical either way — skipping only changes
    /// wall-clock time (DESIGN §5f).
    pub time_skip: Option<bool>,
    /// Cooperative cancellation: when set, the drive polls the token
    /// every [`CANCEL_CHECK_CYCLES`] simulated cycles and abandons the
    /// run with [`SimError::Cancelled`] once it trips. Sound under
    /// the event-driven time-skip core: cancellation only ever shortens a
    /// run whose state is then discarded whole — it can never alter a
    /// result that is reported (DESIGN.md §5i). `None` (the default)
    /// keeps the hot path to a single branch, and the field is masked
    /// out of sweep/service fingerprints like `spans`.
    pub cancel: Option<CancelToken>,
}

/// How often (simulated cycles) the drive polls an armed
/// [`CancelToken`]. Epoch-boundary scale: coarse enough to stay off the
/// hot path, fine enough that a cancelled or deadline-expired job stops
/// within milliseconds of wall time.
pub const CANCEL_CHECK_CYCLES: Cycle = 16_384;

/// A shared cancellation flag for cooperative run teardown. Cloning
/// shares the underlying flag (it is an `Arc`), so a service can hand the
/// same token to every slot of a job and trip them all at once. The first
/// cause to trip wins: a deadline firing after an explicit cancel must
/// not relabel the outcome.
#[derive(Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicU8>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token as an explicit cancellation request.
    pub fn cancel(&self) {
        self.trip(1);
    }

    /// Trip the token as a wall-clock deadline expiry.
    pub fn expire(&self) {
        self.trip(2);
    }

    /// Trip the token because the executing service is shutting down
    /// (the run is checkpointed, not failed).
    pub fn shutdown(&self) {
        self.trip(3);
    }

    fn trip(&self, cause: u8) {
        use std::sync::atomic::Ordering;
        let _ = self
            .0
            .compare_exchange(0, cause, Ordering::AcqRel, Ordering::Acquire);
    }

    /// The cause the token tripped with, if any.
    pub fn tripped(&self) -> Option<CancelKind> {
        match self.0.load(std::sync::atomic::Ordering::Acquire) {
            0 => None,
            1 => Some(CancelKind::Requested),
            2 => Some(CancelKind::Deadline),
            _ => Some(CancelKind::Shutdown),
        }
    }

    pub fn is_tripped(&self) -> bool {
        self.tripped().is_some()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tripped() {
            None => write!(f, "CancelToken(live)"),
            Some(k) => write!(f, "CancelToken({})", k.label()),
        }
    }
}

impl SimConfig {
    /// Paper defaults: LPDDR-TSI, PAR-BS, open page, 64 cores.
    pub fn paper_default(workload: Workload) -> Self {
        SimConfig {
            mem: MemConfig::lpddr_tsi(),
            cmp: CmpConfig::paper(),
            scheduler: SchedulerKind::default(),
            policy: PolicyKind::Open,
            workload,
            warmup_cycles: 100_000,
            measure_cycles: 400_000,
            seed: 0xC0FFEE,
            ctrl_stride: 2,
            telemetry: None,
            faults: None,
            qos: None,
            spans: false,
            time_skip: None,
            cancel: None,
        }
    }

    /// Single-channel variant used for single-threaded SPEC runs (§VI-A:
    /// "we populated only one memory controller … to stress the main
    /// memory bandwidth").
    pub fn spec_single_channel(workload: Workload) -> Self {
        let mut c = Self::paper_default(workload);
        c.mem = c.mem.with_channels(1);
        c
    }

    /// Shrink the run for fast tests.
    pub fn quick(mut self) -> Self {
        self.warmup_cycles = 20_000;
        self.measure_cycles = 60_000;
        self
    }

    /// Enable telemetry collection with the given configuration.
    pub fn with_telemetry(mut self, tc: TelemetryConfig) -> Self {
        self.telemetry = Some(tc);
        self
    }

    /// Arm the reliability subsystem with the given fault configuration.
    pub fn with_faults(mut self, fc: FaultConfig) -> Self {
        self.faults = Some(fc);
        self
    }

    /// Arm the multi-tenant QoS subsystem with the given configuration.
    pub fn with_qos(mut self, qc: QosConfig) -> Self {
        self.qos = Some(qc);
        self
    }

    /// Number of tenant rows/columns a QoS-armed run reports: the larger
    /// of the workload's tenant count and the configured policy table,
    /// clamped to [`MAX_TENANTS`]; 0 when QoS is off.
    pub fn qos_tenants(&self) -> usize {
        match &self.qos {
            None => 0,
            Some(qc) => qc
                .tenants
                .len()
                .max(self.workload.num_tenants())
                .clamp(1, MAX_TENANTS),
        }
    }

    /// Kept only for the `perfbench` benchmark crate, its sole caller:
    /// runs are single-threaded, so this returns `self` unchanged.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enable fine-grained harness span tracing (see [`SimConfig::spans`]).
    pub fn with_spans(mut self, on: bool) -> Self {
        self.spans = on;
        self
    }

    /// Pin event-driven time skipping on or off for this run (overrides
    /// the `MICROBANK_NO_SKIP` environment variable).
    pub fn with_time_skip(mut self, on: bool) -> Self {
        self.time_skip = Some(on);
        self
    }

    /// Arm cooperative cancellation with the given token (see
    /// [`SimConfig::cancel`]).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Resolved time-skip setting: the explicit `time_skip` field, else
    /// off when the `MICROBANK_NO_SKIP` environment variable is set
    /// non-empty and non-`0`, else on.
    pub fn effective_time_skip(&self) -> bool {
        self.time_skip.unwrap_or_else(|| {
            !std::env::var("MICROBANK_NO_SKIP").is_ok_and(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
        })
    }

    /// Kept only for the `perfbench` benchmark crate (see
    /// [`SimConfig::with_threads`]): every run uses one thread.
    #[doc(hidden)]
    pub fn effective_threads(&self) -> usize {
        1
    }

    /// The config's identity: FNV-1a over its `Debug` rendering, with the
    /// fields that cannot change results (span tracing, time skip,
    /// cancellation token) normalized out. Two configs with the same
    /// fingerprint produce the same [`SimResult`] (wall-clock fields
    /// aside), so sweep manifests certify slots by it and `reproduce`
    /// simulates each distinct fingerprint once (per `spans` setting, since
    /// span rows are part of [`SimResult::profile`]).
    pub fn fingerprint(&self) -> String {
        let mut c = self.clone();
        c.spans = false;
        c.time_skip = None;
        // A token only shortens runs that are then discarded whole; a
        // certified result is identical with or without one. Masking it
        // also keeps the hash stable across token identities (the Debug
        // print shows live/tripped state, not a value).
        c.cancel = None;
        let rendered = format!("{c:?}");
        let mut h = 0xcbf29ce484222325u64;
        for b in rendered.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    }

    /// Top of the validation ladder: check this run end to end —
    /// [`MemConfig::validate`], [`CmpConfig::validate`], plus the
    /// sim-level invariants (memory capacity within both caches' tag
    /// reach and the directory's key reach, stride, window arithmetic,
    /// telemetry epoch, workload resolvability) — and report *every*
    /// problem at once.
    /// [`try_run`] calls this before constructing any state.
    pub fn validate(&self) -> Result<(), SimError> {
        let mut errors: Vec<ConfigError> = Vec::new();
        let mem_ok = self.mem.validate().map_err(|e| errors.push(e)).is_ok();
        let cmp_ok = self.cmp.validate().map_err(|e| errors.push(e)).is_ok();
        let mut c = Checker::new();
        if mem_ok && cmp_ok {
            // Cores touch addresses below the capacity, and the prefetcher
            // runs at most `prefetch_degree` lines past one; each cache
            // must be able to tag, and the directory to key, every line up
            // to there.
            let top = self.mem.capacity_bytes().saturating_add(
                (self.cmp.prefetch_degree as u64).saturating_mul(microbank_core::CACHE_LINE_BYTES),
            );
            let cache = |name, bytes, assoc| {
                (
                    Cache::reach(bytes, assoc),
                    format!("{name} cache's tag reach ({bytes} B / {assoc}-way, 32-bit tags)"),
                )
            };
            for (reach, what) in [
                cache("l1", self.cmp.l1_bytes, self.cmp.l1_assoc),
                cache("l2", self.cmp.l2_bytes, self.cmp.l2_assoc),
                (
                    Directory::REACH,
                    "directory's reach (32-bit line keys)".into(),
                ),
            ] {
                c.check(top <= reach, || {
                    format!(
                        "memory capacity {} B (+ prefetch reach) exceeds the {what} of {reach} B",
                        self.mem.capacity_bytes()
                    )
                });
            }
        }
        c.check(self.ctrl_stride >= 1, || {
            format!(
                "ctrl_stride = {}: controllers must tick at least every cycle",
                self.ctrl_stride
            )
        });
        c.check(self.measure_cycles >= 1, || {
            format!(
                "measure_cycles = {}: the measurement window must be non-empty",
                self.measure_cycles
            )
        });
        c.check(
            self.warmup_cycles
                .checked_add(self.measure_cycles)
                .is_some(),
            || {
                format!(
                    "warmup_cycles + measure_cycles overflows u64 ({} + {})",
                    self.warmup_cycles, self.measure_cycles
                )
            },
        );
        if let Some(tc) = self.telemetry {
            c.check(tc.epoch_cycles >= 1, || {
                "telemetry.epoch_cycles = 0: an epoch must span at least one cycle".to_string()
            });
        }
        if let Workload::Spec(name) = self.workload {
            c.check(microbank_workloads::spec::by_name(name).is_some(), || {
                format!("workload: unknown SPEC app {name:?}")
            });
        }
        if let Err(e) = c.finish("SimConfig") {
            errors.push(e);
        }
        if let Some(qc) = &self.qos {
            if let Err(e) = qc.validate() {
                errors.push(e);
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(SimError::InvalidConfig { errors })
        }
    }
}

/// Wall-clock self-profile of one run: how long the *simulator* spent in
/// each phase, and its simulated-cycles-per-second throughput. The coarse
/// phases (setup/warmup/measure/artifact) are tracked on every run — a
/// handful of `Instant::now` calls — so harness slowdowns show up in
/// result artifacts, not just simulated slowdowns. With
/// [`SimConfig::spans`] the span tree additionally carries the measured
/// controller-tick vs CPU/NoC breakdown.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunProfile {
    pub setup_secs: f64,
    pub warmup_secs: f64,
    pub measure_secs: f64,
    pub total_secs: f64,
    /// Simulated megacycles per wall-second over the cycle loop.
    pub sim_mcycles_per_sec: f64,
    /// Flattened harness span tree (depth-first). Always contains the
    /// coarse phases; with [`SimConfig::spans`] also the fine-grained
    /// breakdown. Export via `microbank_telemetry::span::rows_to_json`
    /// or merge into a Chrome trace with
    /// `microbank_telemetry::trace::to_chrome_json_with_spans`.
    pub spans: Vec<SpanRow>,
}

/// Telemetry collected by an instrumented run, all restricted to the
/// measurement window (heat counters inherited from warmup are subtracted
/// at the boundary, with open rows attributed to the window — the same
/// convention as [`SimResult::dram`]).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Epoch time-series over the whole run (warmup included; the cycle
    /// column is absolute, so the warmup boundary is visible in the data).
    pub timeline: Timeline,
    /// Per-channel μbank heat counters over the measurement window.
    pub heat: Vec<HeatCounters>,
    /// Command trace merged across channels, chronological. Bounded by the
    /// configured ring capacity per channel: the *latest* records survive.
    pub trace: Vec<CmdRecord>,
    /// Commands offered to the trace rings (before overwrite).
    pub trace_pushed: u64,
    /// Commands overwritten by ring wrap-around.
    pub trace_dropped: u64,
}

impl TelemetryReport {
    /// Heat counters summed over channels (shapes match by construction:
    /// all channels share one `MemConfig`).
    pub fn merged_heat(&self) -> HeatCounters {
        let mut it = self.heat.iter();
        let mut acc = it.next().expect("at least one channel").clone();
        for h in it {
            acc.merge(h);
        }
        acc
    }
}

/// Per-tenant outcome of a QoS-armed run (measurement window unless noted).
#[derive(Debug, Clone, Serialize)]
pub struct TenantMetrics {
    /// Tenant slot (0 = latency-critical by `TenantMix` convention).
    pub tenant: u8,
    /// Read completions attributed to this tenant over the window.
    pub reads: u64,
    /// Column (data-burst) commands served for this tenant over the window.
    pub cols: u64,
    /// This tenant's fraction of all column commands in the window — its
    /// realized bandwidth share.
    pub share: f64,
    pub mean_lat: f64,
    pub p50_lat: f64,
    pub p95_lat: f64,
    pub p99_lat: f64,
    /// Scheduling slots denied by an empty token bucket (whole run).
    pub throttled: u64,
    /// Over-budget issues admitted by work-conserving reclaim (whole run).
    pub reclaimed: u64,
}

/// The QoS subsystem's run report: one row per tenant plus regulator
/// totals. Present on [`SimResult::qos`] iff the run was QoS-armed.
#[derive(Debug, Clone, Serialize)]
pub struct QosReport {
    pub tenants: Vec<TenantMetrics>,
    /// Total throttle events across tenants and channels (whole run).
    pub throttled: u64,
    /// Total work-conserving reclaims across tenants and channels.
    pub reclaimed: u64,
}

/// Measured outcome of one run (all values over the measurement window).
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    pub label: String,
    pub cycles: Cycle,
    pub committed: u64,
    /// System IPC (sum over cores).
    pub ipc: f64,
    pub dram: DramStats,
    pub mem_energy: MemoryEnergy,
    pub core_energy_nj: f64,
    /// DRAM main-memory accesses per kilo-instruction (measured MAPKI).
    pub mapki: f64,
    pub row_hit_rate: f64,
    /// Page-policy speculative-decision hit rate (Fig. 13).
    pub policy_hit_rate: f64,
    pub mean_queue_occupancy: f64,
    /// Mean main-memory read latency in cycles (enqueue → data).
    pub mean_read_latency: f64,
    /// Full read-latency distribution (log buckets; p50/p95/p99 available
    /// via [`microbank_core::hist::Histogram::percentile`]).
    pub read_latency_hist: microbank_core::hist::Histogram,
    /// Per-core committed-instruction counts over the window (fairness:
    /// PAR-BS exists to bound the slowdown of individual threads).
    pub per_core_committed: Vec<u64>,
    /// Simulator self-profile (wall-clock per phase, Mcycles/s).
    pub profile: RunProfile,
    /// Reliability counters summed over channels, whole run (errors do not
    /// reset at the warmup boundary — retirement state is cumulative).
    /// `None` when the reliability subsystem is disabled.
    pub reliability: Option<FaultSummary>,
    /// Per-tenant QoS accounting; `None` when the QoS subsystem is
    /// disabled.
    pub qos: Option<QosReport>,
    /// Epoch time-series, heat maps and command trace; `None` unless
    /// [`SimConfig::telemetry`] was set.
    pub telemetry: Option<TelemetryReport>,
}

impl SimResult {
    pub fn total_energy_nj(&self) -> f64 {
        self.core_energy_nj + self.mem_energy.total_nj()
    }

    /// Work-normalized energy-delay product: with a fixed-cycle window the
    /// completed work differs between runs, so EDP for the paper's
    /// fixed-work comparisons is `E/I × T/I` (energy and time per
    /// instruction). Ratios of this quantity equal ratios of fixed-work
    /// EDP.
    pub fn edp_per_work(&self) -> f64 {
        let i = self.committed.max(1) as f64;
        let seconds = self.cycles as f64 * 0.5e-9;
        (self.total_energy_nj() * 1e-9 / i) * (seconds / i)
    }

    /// Relative 1/EDP against a baseline (>1 = better, paper convention).
    pub fn inverse_edp_vs(&self, base: &SimResult) -> f64 {
        base.edp_per_work() / self.edp_per_work()
    }

    /// Memory power breakdown in watts.
    pub fn memory_power_w(&self) -> microbank_energy::power::MemoryPowerW {
        self.mem_energy.to_watts(self.cycles)
    }

    /// Jain's fairness index over per-core committed instructions: 1.0 =
    /// perfectly fair, 1/N = one core got everything. PAR-BS's purpose is
    /// to keep this high under shared-memory contention.
    pub fn fairness_index(&self) -> f64 {
        let n = self.per_core_committed.len() as f64;
        if n == 0.0 {
            return 1.0;
        }
        let sum: f64 = self.per_core_committed.iter().map(|&c| c as f64).sum();
        let sum_sq: f64 = self
            .per_core_committed
            .iter()
            .map(|&c| (c as f64).powi(2))
            .sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (n * sum_sq)
        }
    }

    /// Processor power in watts.
    pub fn processor_power_w(&self) -> f64 {
        let seconds = self.cycles as f64 * 0.5e-9;
        if seconds == 0.0 {
            0.0
        } else {
            self.core_energy_nj * 1e-9 / seconds
        }
    }

    /// Export this run's headline counters into a [`MetricsRegistry`]
    /// (for `/metrics` scraping during sweeps). `extra_labels` is merged
    /// into every series alongside the workload label. Counters add (a
    /// sweep accumulates), gauges overwrite, and the read-latency
    /// histogram bulk-feeds its power-of-two cycle buckets.
    pub fn record_metrics(&self, reg: &MetricsRegistry, extra_labels: &[(&str, &str)]) {
        let mut labels: Vec<(&str, &str)> = vec![("workload", &self.label)];
        labels.extend_from_slice(extra_labels);
        reg.register(
            "microbank_sim_cycles_total",
            MetricKind::Counter,
            "Simulated CPU cycles (warmup + measure)",
        );
        reg.counter_add("microbank_sim_cycles_total", &labels, self.cycles);
        reg.register(
            "microbank_sim_committed_instructions_total",
            MetricKind::Counter,
            "Instructions committed over the measured window",
        );
        reg.counter_add(
            "microbank_sim_committed_instructions_total",
            &labels,
            self.committed,
        );
        reg.register(
            "microbank_dram_commands_total",
            MetricKind::Counter,
            "DRAM commands issued over the measured window, by kind",
        );
        for (cmd, n) in [
            ("act", self.dram.activates),
            ("pre", self.dram.precharges),
            ("rd", self.dram.reads),
            ("wr", self.dram.writes),
            ("ref", self.dram.refreshes),
            ("scrub", self.dram.scrubs),
        ] {
            let mut l = labels.clone();
            l.push(("cmd", cmd));
            reg.counter_add("microbank_dram_commands_total", &l, n);
        }
        reg.register(
            "microbank_sim_ipc",
            MetricKind::Gauge,
            "System IPC (sum over cores) of the latest run",
        );
        reg.gauge_set("microbank_sim_ipc", &labels, self.ipc);
        reg.register(
            "microbank_sim_row_hit_rate",
            MetricKind::Gauge,
            "Row-buffer hit rate of the latest run",
        );
        reg.gauge_set("microbank_sim_row_hit_rate", &labels, self.row_hit_rate);
        reg.register(
            "microbank_sim_mem_power_watts",
            MetricKind::Gauge,
            "Total memory power of the latest run",
        );
        reg.gauge_set(
            "microbank_sim_mem_power_watts",
            &labels,
            self.memory_power_w().total_w(),
        );
        // Read-latency distribution: the simulator already aggregates into
        // power-of-two cycle buckets, so feed each bucket's upper bound in
        // bulk rather than replaying every request. The exposition bounds
        // mirror the Histogram's full 64-bucket range so tail latencies
        // never collapse into +Inf and `/metrics` percentiles agree with
        // `SimResult::read_latency_hist`.
        use microbank_core::hist::Histogram;
        let bounds: Vec<f64> = (0..Histogram::NUM_BUCKETS)
            .map(|i| Histogram::bucket_high(i) as f64)
            .collect();
        reg.register_histogram(
            "microbank_sim_read_latency_cycles",
            "Main-memory read latency (enqueue to data), CPU cycles",
            &bounds,
        );
        for (bound, n) in self.read_latency_hist.nonzero_buckets() {
            reg.observe_n(
                "microbank_sim_read_latency_cycles",
                &labels,
                bound as f64,
                n,
            );
        }
        if let Some(f) = &self.reliability {
            reg.register(
                "microbank_reliability_events_total",
                MetricKind::Counter,
                "Reliability-subsystem event counts, by kind",
            );
            for (kind, n) in [
                ("reads_checked", f.reads_checked),
                ("scrub_checks", f.scrub_checks),
                ("corrected", f.corrected),
                ("corrected_hard", f.corrected_hard),
                ("detected", f.detected),
                ("miscorrected", f.miscorrected),
                ("retries", f.retries),
                ("retired_rows", f.retired_rows),
                ("retired_ubanks", f.retired_ubanks),
                ("retire_refused", f.retire_refused),
            ] {
                let mut l = labels.clone();
                l.push(("kind", kind));
                reg.counter_add("microbank_reliability_events_total", &l, n);
            }
        }
        if let Some(q) = &self.qos {
            reg.register(
                "microbank_qos_tenant_columns_total",
                MetricKind::Counter,
                "Column commands served per tenant over the measured window",
            );
            reg.register(
                "microbank_qos_tenant_reads_total",
                MetricKind::Counter,
                "Read completions per tenant over the measured window",
            );
            reg.register(
                "microbank_qos_events_total",
                MetricKind::Counter,
                "QoS regulator events (throttle / reclaim), by tenant",
            );
            reg.register(
                "microbank_qos_tenant_read_latency_p99_cycles",
                MetricKind::Gauge,
                "Per-tenant p99 main-memory read latency of the latest run",
            );
            reg.register(
                "microbank_qos_tenant_bandwidth_share",
                MetricKind::Gauge,
                "Per-tenant realized bandwidth share of the latest run",
            );
            for t in &q.tenants {
                let tn = t.tenant.to_string();
                let mut l = labels.clone();
                l.push(("tenant", &tn));
                reg.counter_add("microbank_qos_tenant_columns_total", &l, t.cols);
                reg.counter_add("microbank_qos_tenant_reads_total", &l, t.reads);
                reg.gauge_set(
                    "microbank_qos_tenant_read_latency_p99_cycles",
                    &l,
                    t.p99_lat,
                );
                reg.gauge_set("microbank_qos_tenant_bandwidth_share", &l, t.share);
                for (kind, n) in [("throttled", t.throttled), ("reclaimed", t.reclaimed)] {
                    let mut le = l.clone();
                    le.push(("kind", kind));
                    reg.counter_add("microbank_qos_events_total", &le, n);
                }
            }
        }
    }
}

/// Run one simulation to completion.
///
/// This is a thin panicking wrapper over [`try_run`]: an invalid
/// configuration or an unrecovered error panics with the formatted
/// [`SimError`]. Harnesses that want to match on the failure should call
/// [`try_run`] directly.
pub fn run(cfg: &SimConfig) -> SimResult {
    match try_run(cfg) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Field-wise `end - start` over every DRAM counter.
fn stats_delta(end: &DramStats, start: &DramStats) -> DramStats {
    DramStats {
        activates: end.activates - start.activates,
        precharges: end.precharges - start.precharges,
        reads: end.reads - start.reads,
        writes: end.writes - start.writes,
        refreshes: end.refreshes - start.refreshes,
        scrubs: end.scrubs - start.scrubs,
        data_bus_busy: end.data_bus_busy - start.data_bus_busy,
        row_hits: end.row_hits - start.row_hits,
        row_closed: end.row_closed - start.row_closed,
        row_conflicts: end.row_conflicts - start.row_conflicts,
        powerdown_rank_cycles: end.powerdown_rank_cycles - start.powerdown_rank_cycles,
        powerdown_entries: end.powerdown_entries - start.powerdown_entries,
    }
}

fn merged_stats(ctrls: &[MemoryController]) -> DramStats {
    let mut d = DramStats::default();
    for c in ctrls {
        d.merge(&c.channel.stats);
    }
    d
}

/// Per-tenant served-column totals summed over controllers (all-zero when
/// QoS is not armed).
fn merged_tenant_cols(ctrls: &[MemoryController]) -> [u64; MAX_TENANTS] {
    let mut acc = [0u64; MAX_TENANTS];
    for c in ctrls {
        for (a, v) in acc.iter_mut().zip(c.tenant_cols()) {
            *a += v;
        }
    }
    acc
}

/// The canonical fallible entry point: validate `cfg`, then run it. A
/// tripped [`CancelToken`] ends the run with [`SimError::Cancelled`], and
/// all simulation state built here is dropped with the error.
pub fn try_run(cfg: &SimConfig) -> Result<SimResult, SimError> {
    cfg.validate()?;
    let mut tracer = SpanTracer::new();
    tracer.enter("setup");
    let capacity = cfg.mem.capacity_bytes();
    let sources = build_sources(cfg.workload, cfg.cmp.cores, capacity, cfg.seed);
    let mut cmp = CmpSystem::new(cfg.cmp, sources);
    let mut ctrls: Vec<MemoryController> = (0..cfg.mem.channels)
        .map(|_| MemoryController::new(&cfg.mem, cfg.scheduler, cfg.policy, cfg.cmp.cores))
        .collect();
    if let Some(tc) = cfg.telemetry {
        for (i, c) in ctrls.iter_mut().enumerate() {
            c.enable_telemetry(i as u16, tc.trace_capacity);
        }
    }
    if let Some(fc) = &cfg.faults {
        for (i, c) in ctrls.iter_mut().enumerate() {
            c.enable_faults(fc, i);
        }
    }
    if let Some(qc) = &cfg.qos {
        for c in ctrls.iter_mut() {
            c.enable_qos(qc);
        }
    }

    let emodel = EnergyModel::new(
        EnergyParams::for_interface(cfg.mem.interface),
        cfg.mem.ubank,
    )
    .with_variant(cfg.mem.variant);
    let integrator =
        PowerIntegrator::new(emodel, cfg.mem.channels).with_ranks(cfg.mem.ranks_per_channel);

    // Epoch sampler: per-epoch counter deltas plus instantaneous queue
    // depths, sampled every `epoch_cycles` over the whole run.
    let mut timeline = cfg.telemetry.map(|tc| {
        let mut names: Vec<String> = [
            "ipc",
            "reads",
            "writes",
            "activates",
            "precharges",
            "row_hits",
            "row_conflicts",
            "refreshes",
            "scrubs",
            "queue_occupancy",
            "backlog",
            "power_w",
            "powerdown_cycles",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if cfg.mem.channels > 1 {
            for i in 0..cfg.mem.channels {
                names.push(format!("ch{i}.queue_len"));
            }
        }
        // Per-tenant served-column columns, only when QoS is armed — a
        // QoS-off timeline stays byte-identical to the pre-QoS format.
        for t in 0..cfg.qos_tenants() {
            names.push(format!("tenant{t}.cols"));
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        Timeline::new(tc.epoch_cycles, &refs)
    });
    tracer.exit(); // setup
    tracer.enter("drive");
    let out = drive_sequential(
        cfg,
        &mut cmp,
        ctrls,
        &integrator,
        &mut timeline,
        &mut tracer,
    )?;
    tracer.exit(); // drive
    tracer.enter("artifact");
    let DriveOutput {
        ctrls,
        committed_at_warmup,
        per_core_at_warmup,
        dram_at_warmup,
        heat_at_warmup,
        read_latency_hist,
        tenant_hists,
        tenant_cols_at_warmup,
    } = out;

    // Gather measurement-window deltas.
    let committed = cmp.total_committed() - committed_at_warmup;
    let dram = merged_stats(&ctrls);
    let delta = stats_delta(&dram, &dram_at_warmup);

    let mem_energy = integrator.integrate(&delta, cfg.measure_cycles);
    let core_energy_nj =
        CorePowerModel::default().energy_nj(committed, cfg.measure_cycles, cfg.cmp.cores);

    let policy_hits: (u64, u64) = ctrls.iter().fold((0, 0), |(c, t), ctrl| {
        (
            c + ctrl.stats.policy_stats.correct,
            t + ctrl.stats.policy_stats.predictions,
        )
    });
    let occupancy: f64 = ctrls
        .iter()
        .map(|c| c.stats.mean_queue_occupancy())
        .sum::<f64>()
        / ctrls.len() as f64;

    let reliability = cfg.faults.as_ref().map(|_| {
        let mut s = FaultSummary::default();
        for c in &ctrls {
            if let Some(eng) = &c.faults {
                s.merge(&eng.summary);
            }
        }
        s
    });

    let qos_report = cfg.qos.as_ref().map(|_| {
        let mut stats = QosStats::default();
        for c in &ctrls {
            if let Some(q) = &c.qos {
                stats.merge(&q.stats);
            }
        }
        let cols_now = merged_tenant_cols(&ctrls);
        let nt = cfg.qos_tenants();
        let window_cols: Vec<u64> = (0..nt)
            .map(|t| cols_now[t] - tenant_cols_at_warmup[t])
            .collect();
        let total_cols: u64 = window_cols.iter().sum();
        let tenants = (0..nt)
            .map(|t| {
                let hist = &tenant_hists[t];
                let reads = hist.count();
                TenantMetrics {
                    tenant: t as u8,
                    reads,
                    cols: window_cols[t],
                    share: if total_cols == 0 {
                        0.0
                    } else {
                        window_cols[t] as f64 / total_cols as f64
                    },
                    mean_lat: if reads == 0 {
                        0.0
                    } else {
                        hist.sum() as f64 / reads as f64
                    },
                    p50_lat: hist.percentile(0.50) as f64,
                    p95_lat: hist.percentile(0.95) as f64,
                    p99_lat: hist.percentile(0.99) as f64,
                    throttled: stats.throttled[t],
                    reclaimed: stats.reclaimed[t],
                }
            })
            .collect();
        QosReport {
            tenants,
            throttled: stats.total_throttled(),
            reclaimed: stats.total_reclaimed(),
        }
    });

    let telemetry = cfg.telemetry.map(|_| {
        let heat: Vec<HeatCounters> = ctrls
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let tel = c.channel.telemetry.as_ref().expect("telemetry enabled");
                match heat_at_warmup.get(i) {
                    Some(earlier) => tel.heat.delta_since(earlier),
                    None => tel.heat.clone(),
                }
            })
            .collect();
        let mut trace: Vec<CmdRecord> = Vec::new();
        let mut trace_pushed = 0u64;
        let mut trace_dropped = 0u64;
        for c in &ctrls {
            if let Some(t) = &c.trace {
                trace.extend(t.records());
                trace_pushed += t.total_pushed();
                trace_dropped += t.dropped();
            }
        }
        trace.sort_by_key(|r| (r.cycle, r.channel));
        TelemetryReport {
            timeline: timeline.take().expect("telemetry implies timeline"),
            heat,
            trace,
            trace_pushed,
            trace_dropped,
        }
    });

    tracer.exit(); // artifact
    let warmup_secs = tracer.seconds("warmup");
    let measure_secs = tracer.seconds("measure");
    let profile = RunProfile {
        setup_secs: tracer.seconds("setup"),
        warmup_secs,
        measure_secs,
        total_secs: tracer.total_secs(),
        sim_mcycles_per_sec: mcycles_per_sec(
            cfg.warmup_cycles + cfg.measure_cycles,
            warmup_secs + measure_secs,
        ),
        spans: tracer.rows(),
    };

    let result = SimResult {
        label: cfg.workload.label(),
        cycles: cfg.measure_cycles,
        committed,
        ipc: committed as f64 / cfg.measure_cycles as f64,
        dram: delta,
        mem_energy,
        core_energy_nj,
        mapki: if committed == 0 {
            0.0
        } else {
            1000.0 * delta.columns() as f64 / committed as f64
        },
        row_hit_rate: delta.row_hit_rate(),
        policy_hit_rate: if policy_hits.1 == 0 {
            0.0
        } else {
            policy_hits.0 as f64 / policy_hits.1 as f64
        },
        mean_queue_occupancy: occupancy,
        mean_read_latency: read_latency_hist.mean(),
        read_latency_hist,
        per_core_committed: (0..cfg.cmp.cores)
            .map(|i| cmp.core(i).stats.committed - per_core_at_warmup[i])
            .collect(),
        profile,
        reliability,
        qos: qos_report,
        telemetry,
    };
    Ok(result)
}

/// Everything the drive produces beyond the mutations it leaves in `cmp`,
/// the returned controllers, and the epoch timeline: warmup-boundary
/// snapshots and read-latency accounting.
struct DriveOutput {
    ctrls: Vec<MemoryController>,
    committed_at_warmup: u64,
    per_core_at_warmup: Vec<u64>,
    dram_at_warmup: DramStats,
    heat_at_warmup: Vec<HeatCounters>,
    read_latency_hist: microbank_core::hist::Histogram,
    /// Per-tenant read-latency histograms (one per tenant slot the run
    /// reports; empty when QoS is off — the hook stays a single branch).
    tenant_hists: Vec<microbank_core::hist::Histogram>,
    /// Per-tenant served-column totals at the warmup boundary.
    tenant_cols_at_warmup: [u64; MAX_TENANTS],
}

/// The single-threaded cycle loop: every run goes through here.
fn drive_sequential<S: microbank_cpu::instr::InstrSource>(
    cfg: &SimConfig,
    cmp: &mut CmpSystem<S>,
    mut ctrls: Vec<MemoryController>,
    integrator: &PowerIntegrator,
    timeline: &mut Option<Timeline>,
    tracer: &mut SpanTracer,
) -> Result<DriveOutput, SimError> {
    let epoch_cycles = cfg.telemetry.map_or(0, |tc| tc.epoch_cycles);
    // Fine-grained accounting (cfg.spans): wall time inside the
    // controller-tick block vs the rest of the loop. Two clock reads per
    // ctrl slot when enabled, none when disabled; either way nothing
    // simulated can observe the clock.
    let fine = cfg.spans;
    let mut ctrl_ns: u64 = 0;
    let mut ctrl_ticks: u64 = 0;
    let mut epoch_stats = DramStats::default();
    let mut epoch_committed = 0u64;

    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let noc = cfg.cmp.noc_latency;
    // Fills in flight to the CMP, earliest `(at, id)` first.
    let mut deliveries: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut read_latency_hist = microbank_core::hist::Histogram::new();

    // Per-tenant accounting, armed only with QoS (0 tenants otherwise).
    let qos_nt = cfg.qos_tenants();
    let mut tenant_hists = vec![microbank_core::hist::Histogram::new(); qos_nt];
    let mut tenant_cols_at_warmup = [0u64; MAX_TENANTS];
    let mut epoch_tenant_cols = [0u64; MAX_TENANTS];

    // Warmup boundary snapshots.
    let mut committed_at_warmup = 0u64;
    let mut per_core_at_warmup: Vec<u64> = vec![0; cfg.cmp.cores];
    let mut dram_at_warmup = DramStats::default();
    let mut heat_at_warmup: Vec<HeatCounters> = Vec::new();

    // Event-driven time skip (DESIGN §5f): after a tick that ran, each
    // controller sleeps until its `next_event` horizon, and the jump below
    // passes cycles in which nothing can act.
    let skip = cfg.effective_time_skip();

    // Cooperative cancellation: poll the token on a coarse simulated-cycle
    // cadence (epoch-boundary scale, not per tick). Abandoning the loop
    // mid-window is sound because the whole partially driven state is
    // discarded with the error — nothing measured escapes.
    let cancel = cfg.cancel.as_ref();
    let mut cancel_check_at: Cycle = 0;

    tracer.enter("warmup");
    let mut now: Cycle = 0;
    // The first controller slot at or after `now` (slots are the multiples
    // of `ctrl_stride`), carried so a ticked cycle needs no division.
    let mut next_slot: Cycle = 0;
    while now < total {
        if let Some(token) = cancel {
            if now >= cancel_check_at {
                if let Some(kind) = token.tripped() {
                    return Err(SimError::Cancelled {
                        kind,
                        at_cycle: now,
                    });
                }
                cancel_check_at = now.saturating_add(CANCEL_CHECK_CYCLES);
            }
        }
        if now == cfg.warmup_cycles {
            tracer.exit(); // warmup
            tracer.enter("measure");
            committed_at_warmup = cmp.total_committed();
            for (i, c) in per_core_at_warmup.iter_mut().enumerate() {
                *c = cmp.core(i).stats.committed;
            }
            let mut d = merged_stats(&ctrls);
            // Rows still open at the boundary were activated in warmup but
            // will be precharged inside the measured window. Attribute
            // those activates to the window — on both the stats and the
            // heat side — so the window delta keeps `precharges ≤
            // activates` and the heat map reconciles with it exactly.
            for c in &ctrls {
                let open = c.channel.open_ubanks();
                d.activates -= open.len() as u64;
                if let Some(tel) = &c.channel.telemetry {
                    let mut h = tel.heat.clone();
                    for flat in open {
                        h.activates[flat] = h.activates[flat].saturating_sub(1);
                    }
                    heat_at_warmup.push(h);
                }
            }
            dram_at_warmup = d;
            tenant_cols_at_warmup = merged_tenant_cols(&ctrls);
        }
        // Controllers issue commands on their slot cadence; a sleeping
        // controller's tick only charges its slot.
        if now == next_slot {
            next_slot += cfg.ctrl_stride;
            let t0 = fine.then(std::time::Instant::now);
            for c in &mut ctrls {
                if !c.tick(now) {
                    continue;
                }
                c.take_completions(&mut completions);
                // `None` ("might act next tick") leaves it awake.
                if skip {
                    if let Some(wake) = c.next_event(now) {
                        c.sleep_until(wake);
                    }
                }
            }
            for comp in completions.drain(..).filter(|c| !c.is_write) {
                if now >= cfg.warmup_cycles {
                    // A read enqueued during warmup but completed in the
                    // window counts only its in-window portion; latency
                    // accrued before measurement began is a warmup
                    // artifact, not window behavior.
                    let lat = comp.at.saturating_sub(comp.arrival.max(cfg.warmup_cycles));
                    read_latency_hist.record(lat);
                    if qos_nt > 0 {
                        let t = tenant_slot(comp.tenant).min(qos_nt - 1);
                        tenant_hists[t].record(lat);
                    }
                }
                deliveries.push(Reverse((comp.at.max(now) + noc, comp.id)));
            }
            if let Some(t0) = t0 {
                ctrl_ns += t0.elapsed().as_nanos() as u64;
                ctrl_ticks += 1;
            }
        }
        // Deliver due fills to the CMP.
        while let Some(&Reverse((at, id))) = deliveries.peek() {
            if at > now {
                break;
            }
            deliveries.pop();
            cmp.on_fill(id, now, &mut ChannelRouter { ctrls: &mut ctrls });
        }
        // Advance the cores.
        cmp.tick(now, &mut ChannelRouter { ctrls: &mut ctrls });

        // Close the epoch ending with this cycle.
        if epoch_cycles > 0 && (now + 1).is_multiple_of(epoch_cycles) {
            let agg = merged_stats(&ctrls);
            let d = stats_delta(&agg, &epoch_stats);
            epoch_stats = agg;
            let committed_now = cmp.total_committed();
            let dc = committed_now - epoch_committed;
            epoch_committed = committed_now;
            let qlens: Vec<usize> = ctrls.iter().map(|c| c.queue_len()).collect();
            let q_mean = qlens.iter().sum::<usize>() as f64 / qlens.len().max(1) as f64;
            let power_w = integrator
                .integrate(&d, epoch_cycles)
                .to_watts(epoch_cycles)
                .total_w();
            let mut row = vec![
                dc as f64 / epoch_cycles as f64,
                d.reads as f64,
                d.writes as f64,
                d.activates as f64,
                d.precharges as f64,
                d.row_hits as f64,
                d.row_conflicts as f64,
                d.refreshes as f64,
                d.scrubs as f64,
                q_mean,
                cmp.backlog_len() as f64,
                power_w,
                d.powerdown_rank_cycles as f64,
            ];
            if ctrls.len() > 1 {
                row.extend(qlens.iter().map(|&q| q as f64));
            }
            if qos_nt > 0 {
                let cols = merged_tenant_cols(&ctrls);
                for t in 0..qos_nt {
                    row.push((cols[t] - epoch_tenant_cols[t]) as f64);
                }
                epoch_tenant_cols = cols;
            }
            timeline
                .as_mut()
                .expect("epoch implies timeline")
                .push(now + 1, row);
        }

        // Event-driven time skip: jump `now` to the earliest cycle any
        // component can act. Every cycle strictly inside the jump is
        // provably quiet — the CPU horizon covers all cores and the
        // backlog, the delivery heap's top bounds fill arrivals, and each
        // jumped controller slot lands strictly before its owner's wake —
        // so the controllers are charged the jumped slots here, at the
        // queue depth that holds throughout (the cores charge their stalled
        // cycles themselves when they next tick).
        let next = now + 1;
        now = if !skip || next >= total {
            next
        } else {
            let mut h = cmp.core_horizon(now);
            // A non-empty submit backlog does not pin the clock: only the
            // head is retried each cycle, and against a *full* queue every
            // retry inside the jump provably fails (freeing a slot takes a
            // tick, and the wake fold below lands the jump no later than
            // that controller's next executed slot). A head facing a
            // non-full queue succeeds on the very next cycle, so no jump.
            if h > next {
                if let Some(addr) = cmp.backlog_head_addr() {
                    let ch = ctrls[0].map().channel_of(addr) as usize;
                    if ctrls[ch].free_slots() > 0 {
                        h = next;
                    }
                }
            }
            if h > next {
                if let Some(&Reverse((at, _))) = deliveries.peek() {
                    h = h.min(at.max(next));
                }
                for c in &ctrls {
                    let slot = c
                        .wake()
                        .max(next)
                        .checked_next_multiple_of(cfg.ctrl_stride)
                        .unwrap_or(Cycle::MAX);
                    h = h.min(slot);
                }
                if now < cfg.warmup_cycles {
                    h = h.min(cfg.warmup_cycles);
                }
                if epoch_cycles > 0 {
                    // Smallest c ≥ next whose epoch closes at c (the body
                    // runs the close when `(now + 1) % epoch == 0`).
                    h = h.min((next + 1).div_ceil(epoch_cycles) * epoch_cycles - 1);
                }
                h = h.min(total);
            }
            if h > next {
                let slots = (h - 1) / cfg.ctrl_stride - (next - 1) / cfg.ctrl_stride;
                if slots > 0 {
                    for c in &mut ctrls {
                        c.account_skipped_ticks(slots);
                    }
                }
                if h > next_slot {
                    next_slot = h
                        .checked_next_multiple_of(cfg.ctrl_stride)
                        .unwrap_or(Cycle::MAX);
                }
            }
            h.max(next)
        };
    }
    tracer.exit(); // measure

    // Attribute the drive wall between controller ticks and everything
    // else (cores, NoC, fill delivery) under the caller's `drive` span.
    if fine {
        let drive_ns = ((tracer.seconds("warmup") + tracer.seconds("measure")) * 1e9) as u64;
        tracer.add_ns("ctrl-tick", ctrl_ns, ctrl_ticks);
        tracer.add_ns("cpu-and-noc", drive_ns.saturating_sub(ctrl_ns), 1);
    }

    cmp.settle_stalls(total);

    Ok(DriveOutput {
        ctrls,
        committed_at_warmup,
        per_core_at_warmup,
        dram_at_warmup,
        heat_at_warmup,
        read_latency_hist,
        tenant_hists,
        tenant_cols_at_warmup,
    })
}

/// Compact behavior fingerprint for the golden determinism suite:
/// committed instructions, the full DRAM counter set, the read-latency
/// histogram's (count, sum), and an order-sensitive FNV checksum of
/// per-core committed counts. Every element is a function of *simulated*
/// behavior only (never wall clock), so hot-path refactors must keep it
/// bit-identical. When they drift, the golden test prints the complete
/// regenerated table to commit if the change to simulated behavior is
/// deliberate.
pub fn golden_fingerprint(r: &SimResult) -> [u64; 13] {
    let per_core = r
        .per_core_committed
        .iter()
        .fold(0xcbf29ce484222325u64, |h, &c| {
            (h ^ c).wrapping_mul(0x100000001b3)
        });
    [
        r.committed,
        r.dram.reads,
        r.dram.writes,
        r.dram.activates,
        r.dram.precharges,
        r.dram.refreshes,
        r.dram.row_hits,
        r.dram.row_conflicts,
        r.dram.row_closed,
        r.dram.data_bus_busy,
        r.read_latency_hist.count(),
        r.read_latency_hist.sum(),
        per_core,
    ]
}

/// Routes each submission to its channel's controller. Read latency
/// needs nothing from it: each completion carries its enqueue cycle.
struct ChannelRouter<'a> {
    ctrls: &'a mut [MemoryController],
}

impl MemPort for ChannelRouter<'_> {
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
        // A full queue rejects without side effects, so the backlog head's
        // retries against one cost a shift and a compare, not a decode.
        let ch = self.ctrls[0].map().channel_of(req.addr) as usize;
        if self.ctrls[ch].free_slots() == 0 {
            return false;
        }
        let loc = self.ctrls[0].map().decode(req.addr);
        let kind = if req.is_write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let mut r = MemRequest::new(req.id, req.addr, kind, req.thread, now);
        r.loc = loc;
        r.tenant = req.tenant;
        self.ctrls[ch].enqueue(r, now)
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "run panicked".to_string()
    }
}

/// Run `f` behind a panic net: a panic becomes [`SimError::Panic`]
/// carrying the payload's message, and whatever `f` returns passes
/// through unchanged. Every harness that isolates runs from each other
/// (`run_many_checked` and the sweep service) goes through
/// here, passing `|| try_run(cfg)`.
pub(crate) fn isolate<T>(f: impl FnOnce() -> Result<T, SimError>) -> Result<T, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(SimError::Panic {
            message: panic_message(p),
        })
    })
}

/// Run many configurations concurrently, one `Result` slot per config.
/// Each slot goes through [`try_run`] with a panic net on top: a run that
/// fails reports its typed [`SimError`] in its slot instead of tearing
/// down the whole sweep — the surviving slots still come back. The pool
/// has one thread per available core (4 when that is unknown), capped at
/// the number of configs.
pub fn run_many_checked(cfgs: &[SimConfig]) -> Vec<Result<SimResult, SimError>> {
    let workers = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(cfgs.len().max(1));
    let mut results: Vec<Option<Result<SimResult, SimError>>> = vec![None; cfgs.len()];
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mx = parking_lot::Mutex::new(&mut results);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cfgs.len() {
                    break;
                }
                let r = isolate(|| try_run(&cfgs[i]));
                results_mx.lock()[i] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Run many configurations in parallel and unwrap the results, panicking
/// with a per-slot summary if any run failed (see [`run_many_checked`]
/// for the error-tolerant variant).
pub fn run_many(cfgs: &[SimConfig]) -> Vec<SimResult> {
    let results = run_many_checked(cfgs);
    let failed: Vec<String> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.as_ref()
                .err()
                .map(|e| format!("#{i} ({}): {e}", cfgs[i].workload.label()))
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} runs failed:\n  {}",
        failed.len(),
        results.len(),
        failed.join("\n  ")
    );
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_workloads::suite::Workload;

    #[test]
    fn isolate_turns_str_and_string_panics_into_panic_errors() {
        let r = isolate::<()>(|| panic!("static payload"));
        assert_eq!(
            r.unwrap_err(),
            SimError::Panic {
                message: "static payload".into()
            }
        );
        let r = isolate::<()>(|| std::panic::panic_any(format!("owned payload {}", 7)));
        assert_eq!(
            r.unwrap_err(),
            SimError::Panic {
                message: "owned payload 7".into()
            }
        );
    }

    #[test]
    fn isolate_passes_errors_through_unchanged() {
        let err = SimError::Cancelled {
            kind: CancelKind::Deadline,
            at_cycle: 42,
        };
        assert_eq!(isolate::<()>(|| Err(err.clone())), Err(err));
        assert_eq!(isolate(|| Ok::<_, SimError>(3)), Ok(3));
    }

    #[test]
    fn capacity_beyond_a_cache_tag_reach_is_rejected() {
        // A one-set direct-mapped L1 tags line numbers directly, so 32-bit
        // tags reach 2^38 - 64 bytes. The paper memory has 512 MiB per
        // channel: 256 channels fit, 512 do not.
        let mut cfg = SimConfig::paper_default(Workload::MixHigh);
        cfg.cmp.l1_bytes = 64;
        cfg.cmp.l1_assoc = 1;
        cfg.mem.channels = 256;
        assert_eq!(cfg.mem.capacity_bytes(), 1 << 37);
        cfg.validate().expect("128 GiB fits the L1's tag reach");
        cfg.mem.channels = 512;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("exceeds the l1 cache's tag reach"), "{err}");
        assert!(!err.contains("l2 cache"), "{err}");
    }

    #[test]
    fn capacity_beyond_the_directory_reach_is_rejected() {
        // The directory keys 2^32 lines, 2^38 B. The paper memory has
        // 512 MiB per channel: 512 channels fill the reach exactly, and
        // one prefetched line past the top, or twice the channels, does
        // not fit. The paper caches reach much further.
        let mut cfg = SimConfig::paper_default(Workload::MixHigh);
        cfg.mem.channels = 256;
        assert_eq!(cfg.mem.capacity_bytes(), 1 << 37);
        cfg.validate().expect("128 GiB fits the directory");
        cfg.mem.channels = 512;
        assert_eq!(cfg.mem.capacity_bytes(), Directory::REACH);
        cfg.validate().expect("256 GiB fills the directory exactly");
        for (channels, prefetch_degree) in [(512, 1), (1024, 0)] {
            cfg.mem.channels = channels;
            cfg.cmp.prefetch_degree = prefetch_degree;
            let err = cfg.validate().unwrap_err().to_string();
            assert!(err.contains("exceeds the directory's reach"), "{err}");
            assert!(!err.contains("cache's tag reach"), "{err}");
        }
    }

    #[test]
    fn paper_memory_is_eight_gib() {
        // 16 channels x 1 rank x 8 banks x 64 MiB; the paper's platform
        // has 64 GB (DESIGN.md §5 records the gap).
        let cfg = SimConfig::paper_default(Workload::MixHigh);
        assert_eq!(cfg.mem.capacity_bytes(), 8 << 30);
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Sweep manifests store this value; a change to the hash or to
        // `SimConfig`'s Debug rendering would make every existing manifest
        // re-run instead of certifying.
        assert_eq!(
            SimConfig::paper_default(Workload::MixHigh).fingerprint(),
            "4fbeeb941124467c"
        );
    }

    #[test]
    fn fingerprint_masks_result_neutral_knobs() {
        let base = SimConfig::paper_default(Workload::MixHigh);
        let fp0 = base.fingerprint();
        let mut knobs = base.clone();
        knobs.spans = true;
        knobs.time_skip = Some(false);
        knobs.cancel = Some(CancelToken::default());
        assert_eq!(fp0, knobs.fingerprint());
        // A tripped token must not change the hash either (Debug shows
        // the trip state; the mask removes it before rendering).
        let tripped = CancelToken::default();
        tripped.cancel();
        let mut cancelled = base.clone();
        cancelled.cancel = Some(tripped);
        assert_eq!(fp0, cancelled.fingerprint());
        let mut different = base.clone();
        different.seed ^= 1;
        assert_ne!(fp0, different.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_qos_configurations() {
        // QoS changes simulated behavior, so it must invalidate manifest
        // hits: arming it, and every knob inside it, alters the print.
        let base = SimConfig::paper_default(Workload::MixHigh);
        let fp0 = base.fingerprint();
        let tracking = base
            .clone()
            .with_qos(microbank_ctrl::qos::QosConfig::tracking());
        let fp1 = tracking.fingerprint();
        assert_ne!(fp0, fp1, "arming QoS must change the fingerprint");
        let regulated = base
            .clone()
            .with_qos(microbank_ctrl::qos::QosConfig::tracking().with_tenant(Some(64), 1));
        let fp2 = regulated.fingerprint();
        assert_ne!(fp1, fp2, "tenant policies must change the fingerprint");
        assert_eq!(fp1, tracking.clone().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_device_variants() {
        use microbank_core::variant::{DeviceVariant, SalpMode};
        // The variant changes issue rules and energy, so manifests keyed
        // on the fingerprint must never resume across variants. The field
        // rides in MemConfig's Debug rendering automatically.
        let base = SimConfig::paper_default(Workload::MixHigh);
        let fp0 = base.fingerprint();
        for v in [
            DeviceVariant::Conventional,
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Salp1,
            },
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Masa,
            },
            DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 2,
            },
        ] {
            let mut cfg = base.clone();
            cfg.mem = cfg.mem.with_variant(v);
            assert_ne!(
                fp0,
                cfg.fingerprint(),
                "variant {} must change the fingerprint",
                v.label()
            );
        }
        // Same variant, same print: resume still works within a variant.
        let mut a = base.clone();
        a.mem = a.mem.with_variant(DeviceVariant::Conventional);
        let mut b = base.clone();
        b.mem = b.mem.with_variant(DeviceVariant::Conventional);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn quick_run_produces_sane_metrics() {
        let cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        let r = run(&cfg);
        assert!(r.ipc > 0.05, "ipc {}", r.ipc);
        assert!(r.committed > 1000);
        assert!(r.dram.reads > 100, "{:?}", r.dram);
        assert!(r.mapki > 5.0, "mapki {}", r.mapki);
        assert!(r.mem_energy.total_nj() > 0.0);
        assert!(r.mean_read_latency > 20.0, "{}", r.mean_read_latency);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = SimConfig::spec_single_channel(Workload::Spec("450.soplex")).quick();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn microbanks_help_mcf() {
        let base = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        let mut ub = base.clone();
        ub.mem = ub.mem.with_ubanks(8, 8);
        let r0 = run(&base);
        let r1 = run(&ub);
        assert!(
            r1.ipc > 1.10 * r0.ipc,
            "ubank ipc {} vs baseline {}",
            r1.ipc,
            r0.ipc
        );
    }

    #[test]
    fn nw_partitioning_cuts_act_pre_energy() {
        let base = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        let mut ub = base.clone();
        ub.mem = ub.mem.with_ubanks(8, 2);
        let r0 = run(&base);
        let r1 = run(&ub);
        let e0 = r0.mem_energy.act_pre_nj / r0.dram.activates.max(1) as f64;
        let e1 = r1.mem_energy.act_pre_nj / r1.dram.activates.max(1) as f64;
        assert!(e1 < e0 / 6.0, "per-ACT energy {e1} vs {e0}");
    }

    #[test]
    fn run_many_matches_run() {
        let cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        let solo = run(&cfg);
        let many = run_many(&[cfg.clone(), cfg.clone()]);
        assert_eq!(many[0].committed, solo.committed);
        assert_eq!(many[1].committed, solo.committed);
    }

    #[test]
    fn instrumented_run_reconciles_heat_with_stats() {
        let cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf"))
            .quick()
            .with_telemetry(microbank_telemetry::TelemetryConfig::new(5_000, 4096));
        let r = run(&cfg);
        let rep = r.telemetry.as_ref().expect("telemetry was enabled");
        // Heat map totals must reconcile exactly with the window stats.
        let heat = rep.merged_heat();
        assert_eq!(heat.total_activates(), r.dram.activates);
        assert_eq!(heat.total_hits(), r.dram.row_hits);
        assert_eq!(heat.total_conflicts(), r.dram.row_conflicts);
        // Epoch series: 80k cycles / 5k epoch = 16 samples, ≥6 metrics.
        assert_eq!(rep.timeline.len(), 16);
        assert!(rep.timeline.metrics().len() >= 6);
        let acts = rep.timeline.series("activates").unwrap();
        assert!(acts.iter().sum::<f64>() > 0.0);
        // Trace captured commands with coherent ordering.
        assert!(!rep.trace.is_empty());
        assert!(rep.trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert_eq!(rep.trace_pushed - rep.trace_dropped, rep.trace.len() as u64);
    }

    #[test]
    fn telemetry_does_not_change_results() {
        let base = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        let plain = run(&base);
        let instr = run(&base.clone().with_telemetry(Default::default()));
        assert!(plain.telemetry.is_none() && instr.telemetry.is_some());
        assert_eq!(plain.committed, instr.committed);
        assert_eq!(plain.dram, instr.dram);
    }

    #[test]
    fn profile_is_populated() {
        let cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        let r = run(&cfg);
        assert!(r.profile.total_secs > 0.0);
        assert!(r.profile.sim_mcycles_per_sec > 0.0);
        assert!(r.profile.measure_secs > 0.0);
    }

    #[test]
    fn compute_bound_workload_is_memory_insensitive() {
        let base = SimConfig::paper_default(Workload::Spec("453.povray")).quick();
        let mut ub = base.clone();
        ub.mem = ub.mem.with_ubanks(16, 16);
        let r0 = run(&base);
        let r1 = run(&ub);
        assert!(
            r0.ipc > 1.0 * 32.0 / 64.0,
            "povray should be fast: {}",
            r0.ipc
        );
        let rel = r1.ipc / r0.ipc;
        assert!((rel - 1.0).abs() < 0.05, "compute-bound moved {rel}");
    }
}
