//! Sweep-as-a-service (DESIGN.md §5i): a fault-tolerant job daemon and
//! the repo's one resumable sweep executor.
//!
//! [`SweepService`] accepts simulation jobs over HTTP (`POST /jobs`,
//! arrays of slot specs validated through the [`SimConfig::validate`]
//! ladder before admission), executes their slots on a supervised
//! worker pool, and survives hostile reality end to end:
//!
//! * **Durable write-ahead queue**: every admitted job is persisted to
//!   `<dir>/<name>.queue.json` (atomic rename) *before* the 202 goes
//!   out, and every state transition rewrites it, so `kill -9` +
//!   restart resumes every admitted job. Per-job results live in
//!   [`crate::sweep`] manifests (`<dir>/<job-id>.manifest.json`);
//!   resume re-executes only slots without a certified (`ok`, matching
//!   config fingerprint) record, and completed jobs' artifacts are
//!   byte-identical to an uninterrupted run. A manifest that does not
//!   parse is quarantined with a warning, never silently overwritten.
//! * **Deadlines and cancellation**: each job carries a
//!   [`CancelToken`]; `DELETE /jobs/{id}` trips it as `Requested`, the
//!   monitor thread trips it as `Deadline` past the job's wall-clock
//!   budget, and the drive polls it every
//!   [`crate::simulator::CANCEL_CHECK_CYCLES`] simulated cycles.
//!   Cancellation is sound under time-skip: it only shortens runs whose
//!   state is discarded whole.
//! * **One execution per slot**: a run depends only on its config, so a
//!   slot that fails (a panic, a requested or deadline cancel) is
//!   recorded `failed` once and never retried; only a later job
//!   re-runs it.
//! * **Admission control**: a bounded queue answers 429 with
//!   `Retry-After` when full, and 503 once draining.
//! * **Graceful drain**: shutdown stops admission, waits a grace period
//!   for in-flight jobs, then trips their tokens as `Shutdown` — those
//!   slots are *checkpointed* (left unrecorded, job restored to
//!   `queued`), not failed — and exits with a clean queue manifest.
//! * **Observability**: `/status` serves the queue document and
//!   `/metrics` the service counters, each executed slot's run results
//!   (labelled by workload only, so a long-lived daemon's series stay
//!   bounded) and a slot wall-seconds histogram.

use crate::error::{CancelKind, SimError};
use crate::simulator::{golden_fingerprint, isolate, try_run, CancelToken, SimConfig, SimResult};
use crate::sweep::{
    self, parse_manifest, quarantine_manifest, render_manifest, SlotRecord, SlotStatus,
};
use microbank_core::geometry::UbankConfig;
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_telemetry::json::{self, JsonValue, JsonWriter};
use microbank_telemetry::status::{HttpRequest, HttpResponse};
use microbank_telemetry::{event, Level, MetricKind, MetricsRegistry, StatusServer, StatusShared};
use microbank_workloads::{spec, suite::Workload};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon knobs. Everything is overridable; the defaults suit tests and
/// a small local daemon.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Stem for the queue file (`<dir>/<name>.queue.json`).
    pub name: String,
    /// Directory for the queue file and per-job manifests.
    pub dir: PathBuf,
    /// Worker threads executing slots (across jobs).
    pub workers: usize,
    /// Maximum live (queued + running) jobs; admission answers 429
    /// beyond this.
    pub queue_cap: usize,
    /// Default per-job wall-clock deadline in ms (0 = none); a job may
    /// override it at submission.
    pub default_deadline_ms: u64,
    /// How long a graceful drain waits for in-flight jobs before
    /// checkpointing them with `Shutdown` cancellation.
    pub drain_grace_ms: u64,
}

impl ServiceConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            name: "sweepd".to_string(),
            dir: dir.into(),
            workers: 2,
            queue_cap: 16,
            default_deadline_ms: 0,
            drain_grace_ms: 2_000,
        }
    }
}

/// Lifecycle of one job (DESIGN.md §5i state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and persisted; no slot executing yet (also the state a
    /// killed-mid-run or checkpointed job restarts in).
    Queued,
    /// At least one slot has started executing.
    Running,
    /// Every slot has a record (`ok` or `failed`).
    Done,
    /// Terminal via `DELETE /jobs/{id}`.
    Cancelled,
    /// Terminal via deadline expiry.
    TimedOut,
}

impl JobState {
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed-out",
        }
    }

    fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            "timed-out" => JobState::TimedOut,
            _ => return None,
        })
    }

    fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::TimedOut
        )
    }
}

/// One slot of a job: stable id, the canonical (normalized) spec JSON
/// persisted for restart, and the config it deterministically parses to.
#[derive(Debug, Clone)]
struct SlotSpec {
    id: String,
    canon: String,
    cfg: SimConfig,
}

#[derive(Debug)]
struct Job {
    id: String,
    name: String,
    state: JobState,
    deadline_ms: u64,
    specs: Vec<SlotSpec>,
    /// Per-slot outcome, slot order; `None` = not yet executed.
    records: Vec<Option<SlotRecord>>,
    token: CancelToken,
    started: Option<Instant>,
}

impl Job {
    fn pending(&self) -> usize {
        self.records.iter().filter(|r| r.is_none()).count()
    }

    fn live(&self) -> bool {
        !self.state.terminal()
    }

    /// The manifest rows: recorded slots, slot order (byte-stable under
    /// out-of-order concurrent completion).
    fn recorded(&self) -> Vec<SlotRecord> {
        self.records.iter().flatten().cloned().collect()
    }
}

#[derive(Default)]
struct ServiceState {
    jobs: Vec<Job>,
    next_id: u64,
    /// Work queue of (job index, slot index).
    ready: VecDeque<(usize, usize)>,
    /// Slots currently executing on workers.
    active: usize,
}

struct ServiceInner {
    cfg: ServiceConfig,
    state: Mutex<ServiceState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    metrics: Arc<MetricsRegistry>,
    shared: Arc<StatusShared>,
    /// Admission stops the moment this is set; the monitor thread then
    /// runs the drain state machine.
    drain_requested: AtomicBool,
    /// Set by the monitor once the drain completed; workers exit.
    stop: AtomicBool,
}

impl ServiceInner {
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn queue_path(&self) -> PathBuf {
        self.cfg.dir.join(format!("{}.queue.json", self.cfg.name))
    }

    fn manifest_path(&self, job_id: &str) -> PathBuf {
        self.cfg.dir.join(format!("{job_id}.manifest.json"))
    }
}

/// The running daemon: worker pool + monitor thread + (optionally) the
/// HTTP endpoint. Dropping it performs a graceful drain.
pub struct SweepService {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    monitor: Option<JoinHandle<()>>,
    server: Option<StatusServer>,
}

impl SweepService {
    /// Start the daemon: load (or quarantine) the durable queue, resume
    /// every live job, and spawn the worker pool and monitor thread.
    /// HTTP is separate — call [`serve`](Self::serve) to bind.
    pub fn start(cfg: ServiceConfig) -> Result<SweepService, SimError> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| SimError::Artifact {
            path: cfg.dir.display().to_string(),
            message: e.to_string(),
        })?;
        let metrics = Arc::new(MetricsRegistry::new());
        let shared = StatusShared::new(Arc::clone(&metrics));
        let inner = Arc::new(ServiceInner {
            cfg,
            state: Mutex::new(ServiceState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            metrics,
            shared,
            drain_requested: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        inner.lock().next_id = 1;
        load_queue(&inner)?;
        {
            let mut st = inner.lock();
            enqueue_resumable(&inner, &mut st);
            note_metrics(&inner, &st);
            publish_status(&inner, &st);
        }
        persist_queue(&inner, &inner.lock())?;
        let mut workers = Vec::with_capacity(inner.cfg.workers.max(1));
        for w in 0..inner.cfg.workers.max(1) {
            workers.push(spawn_worker(&inner, w));
        }
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sweepd-monitor".to_string())
                .spawn(move || monitor_loop(&inner))
                .map_err(|e| SimError::Artifact {
                    path: "sweepd-monitor".to_string(),
                    message: e.to_string(),
                })?
        };
        event::emit(
            Level::Info,
            "sim::service",
            "sweep service started",
            &[
                ("name", inner.cfg.name.as_str().into()),
                ("dir", inner.cfg.dir.display().to_string().into()),
                ("workers", (inner.cfg.workers.max(1) as u64).into()),
                ("resumed_jobs", {
                    let st = inner.lock();
                    (st.jobs.iter().filter(|j| j.live()).count() as u64).into()
                }),
            ],
        );
        Ok(SweepService {
            inner,
            workers: Mutex::new(workers),
            monitor: Some(monitor),
            server: None,
        })
    }

    /// Bind the HTTP endpoint (`127.0.0.1:0` for an ephemeral port) and
    /// register the job API on it alongside `/status` and `/metrics`.
    pub fn serve(&mut self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let inner = Arc::clone(&self.inner);
        self.inner
            .shared
            .set_handler(Some(Arc::new(move |req: &HttpRequest| route(&inner, req))));
        let server = StatusServer::start(addr, Arc::clone(&self.inner.shared))?;
        let bound = server.local_addr();
        event::emit(
            Level::Info,
            "sim::service",
            "job API listening",
            &[("addr", bound.to_string().into())],
        );
        self.server = Some(server);
        Ok(bound)
    }

    /// Route one request through the job API without a socket (tests,
    /// embedding). `None` = not a job-API path.
    pub fn route(&self, req: &HttpRequest) -> Option<HttpResponse> {
        route(&self.inner, req)
    }

    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.metrics)
    }

    /// True once a drain (signal, `POST /shutdown`, or
    /// [`shutdown`](Self::shutdown)) has completed and the workers
    /// stopped.
    pub fn stopped(&self) -> bool {
        self.inner.stop.load(Ordering::Acquire)
    }

    /// True once shutdown has been requested (admission is closed).
    pub fn draining(&self) -> bool {
        self.inner.drain_requested.load(Ordering::Acquire)
    }

    /// Block until every admitted job is terminal (test helper; does
    /// not stop the service).
    pub fn wait_idle(&self) {
        let mut st = self.inner.lock();
        while st.jobs.iter().any(|j| j.live()) && !self.inner.stop.load(Ordering::Acquire) {
            let (g, _) = self
                .inner
                .idle_cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap_or_else(|p| p.into_inner());
            st = g;
        }
    }

    /// Graceful shutdown: stop admission, drain or checkpoint in-flight
    /// jobs (see module docs), persist the final queue, stop the
    /// workers, and unbind the job API. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.drain_requested.store(true, Ordering::Release);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        self.inner.work_cv.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        // Break the shared→handler→inner cycle and stop routing jobs.
        self.inner.shared.set_handler(None);
        self.server = None;
        event::emit(
            Level::Info,
            "sim::service",
            "sweep service stopped",
            &[("name", self.inner.cfg.name.as_str().into())],
        );
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Jobspec codec
// ---------------------------------------------------------------------

/// Parse a workload label. Accepts the suite labels exactly as
/// `Workload::label` prints them (plus lowercase variants) and any SPEC
/// application name.
fn parse_workload(s: &str) -> Option<Workload> {
    Some(match s {
        "mix-high" => Workload::MixHigh,
        "mix-blend" => Workload::MixBlend,
        "spec-all" => Workload::SpecAll,
        "TPC-C" | "tpc-c" => Workload::TpcC,
        "TPC-H" | "tpc-h" => Workload::TpcH,
        "RADIX" | "radix" => Workload::Radix,
        "FFT" | "fft" => Workload::Fft,
        "canneal" => Workload::Canneal,
        s => {
            if let Some(n) = s.strip_prefix("tenant-mix-lc") {
                return n
                    .parse::<u16>()
                    .ok()
                    .map(|lc_cores| Workload::TenantMix { lc_cores });
            }
            // `AppProfile::name` is `&'static str`, recovering the
            // static name the `Workload::Spec` variant requires.
            return spec::by_name(s).map(|p| Workload::Spec(p.name));
        }
    })
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    Some(match s {
        "open" => PolicyKind::Open,
        "close" => PolicyKind::Close,
        s => {
            if let Some(n) = s.strip_prefix("minimalist-open:") {
                return n
                    .parse::<u64>()
                    .ok()
                    .map(|window_cycles| PolicyKind::MinimalistOpen { window_cycles });
            }
            let p = s.strip_prefix("predictive:")?;
            PolicyKind::Predictive(match p {
                "local" => PredictorKind::Local,
                "global" => PredictorKind::Global,
                "tournament" => PredictorKind::Tournament,
                "perfect" => PredictorKind::Perfect,
                _ => return None,
            })
        }
    })
}

fn parse_scheduler(s: &str) -> Option<SchedulerKind> {
    Some(match s {
        "fr-fcfs" => SchedulerKind::FrFcfs,
        "par-bs" => SchedulerKind::default(),
        s => {
            let cap = s.strip_prefix("par-bs:")?;
            SchedulerKind::ParBs {
                marking_cap: cap.parse().ok()?,
            }
        }
    })
}

fn as_uint(v: &JsonValue) -> Option<u64> {
    let x = v.as_f64()?;
    if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
        Some(x as u64)
    } else {
        None
    }
}

/// The slot-spec keys the codec understands; anything else is rejected
/// by name (a typo silently ignored is a config that silently ran with
/// defaults).
const SLOT_KEYS: &[&str] = &[
    "id",
    "workload",
    "ubanks",
    "channels",
    "queue_size",
    "scheduler",
    "policy",
    "warmup_cycles",
    "measure_cycles",
    "seed",
    "quick",
];

/// Parse one slot spec. On success returns the spec with its canonical
/// (normalized) JSON; on failure, the list of diagnostics.
fn parse_slot(index: usize, v: &JsonValue) -> Result<SlotSpec, Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let obj = match v {
        JsonValue::Object(m) => m,
        _ => return Err(vec![format!("slot {index}: spec must be a JSON object")]),
    };
    for key in obj.keys() {
        if !SLOT_KEYS.contains(&key.as_str()) {
            errs.push(format!("unknown field {key:?} (accepted: {SLOT_KEYS:?})"));
        }
    }
    let workload = match obj.get("workload").and_then(|w| w.as_str()) {
        Some(s) => match parse_workload(s) {
            Some(w) => Some(w),
            None => {
                errs.push(format!("workload: unknown label {s:?}"));
                None
            }
        },
        None => {
            errs.push("workload: required (a suite label or SPEC app name)".to_string());
            None
        }
    };
    let Some(workload) = workload else {
        return Err(errs);
    };
    let mut cfg = SimConfig::paper_default(workload);
    if obj.get("quick").map(|q| q == &JsonValue::Bool(true)) == Some(true) {
        cfg = cfg.quick();
    }
    if let Some(u) = obj.get("ubanks") {
        let pair = u.items();
        match (
            pair.len(),
            pair.first().and_then(as_uint),
            pair.get(1).and_then(as_uint),
        ) {
            (2, Some(n_w), Some(n_b)) => {
                // Field-by-field like the fuzz harness: invalid values
                // flow to validate() for a structured report instead of
                // an assert in the builder. Interleaving follows the
                // row size only once the geometry is sane (the builder
                // would divide by n_w).
                cfg.mem.ubank = UbankConfig {
                    n_w: n_w as usize,
                    n_b: n_b as usize,
                };
                let ub = &cfg.mem.ubank;
                if ub.n_w.is_power_of_two()
                    && ub.n_w <= 16
                    && ub.n_b.is_power_of_two()
                    && ub.n_b <= 16
                {
                    cfg.mem.interleave_base = cfg.mem.max_interleave_base();
                }
            }
            _ => errs.push("ubanks: expected [n_w, n_b] (two non-negative integers)".to_string()),
        }
    }
    if let Some(c) = obj.get("channels") {
        match as_uint(c) {
            Some(n) => cfg.mem.channels = n as usize,
            None => errs.push("channels: expected a non-negative integer".to_string()),
        }
    }
    if let Some(q) = obj.get("queue_size") {
        match as_uint(q) {
            Some(n) => cfg.mem.queue_size = n as usize,
            None => errs.push("queue_size: expected a non-negative integer".to_string()),
        }
    }
    if let Some(s) = obj.get("scheduler") {
        match s.as_str().and_then(parse_scheduler) {
            Some(k) => cfg.scheduler = k,
            None => errs.push(
                "scheduler: expected \"fr-fcfs\", \"par-bs\", or \"par-bs:<cap>\"".to_string(),
            ),
        }
    }
    if let Some(p) = obj.get("policy") {
        match p.as_str().and_then(parse_policy) {
            Some(k) => cfg.policy = k,
            None => errs.push(
                "policy: expected \"open\", \"close\", \"minimalist-open:<cycles>\", or \
                 \"predictive:<local|global|tournament|perfect>\""
                    .to_string(),
            ),
        }
    }
    for (key, field) in [
        ("warmup_cycles", &mut cfg.warmup_cycles),
        ("measure_cycles", &mut cfg.measure_cycles),
        ("seed", &mut cfg.seed),
    ] {
        if let Some(v) = obj.get(key) {
            match as_uint(v) {
                Some(n) => *field = n,
                None => errs.push(format!("{key}: expected a non-negative integer")),
            }
        }
    }
    if let Some(id) = obj.get("id") {
        if id.as_str().is_none() {
            errs.push("id: expected a string".to_string());
        }
    }
    if !errs.is_empty() {
        return Err(errs);
    }
    // The PR 5 validation ladder: the full per-constraint report, at
    // admission, before anything is enqueued.
    if let Err(SimError::InvalidConfig { errors }) = cfg.validate() {
        for e in errors {
            for d in &e.diagnostics {
                errs.push(format!("{}: {d}", e.component));
            }
        }
        return Err(errs);
    }
    let id = obj
        .get("id")
        .and_then(|i| i.as_str())
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("slot-{index}-{}", workload.label()));
    Ok(SlotSpec {
        id,
        // Canonical rendering: the exact text persisted in the queue
        // file and re-parsed on restart, so the restart's SimConfig —
        // and therefore its config fingerprint — is reproduced exactly.
        canon: v.render(),
        cfg,
    })
}

struct JobRequest {
    name: String,
    deadline_ms: Option<u64>,
    slots: Vec<SlotSpec>,
}

/// Parse a `POST /jobs` body: either a bare array of slot specs, or an
/// object `{"name": ..., "deadline_ms": ..., "slots": [...]}`.
fn parse_job_request(body: &[u8]) -> Result<JobRequest, HttpResponse> {
    let text =
        std::str::from_utf8(body).map_err(|_| HttpResponse::text(400, "body is not UTF-8\n"))?;
    let root = json::parse(text).map_err(|off| {
        HttpResponse::json(
            400,
            format!("{{\"error\":\"body is not valid JSON (at byte {off})\"}}"),
        )
    })?;
    let (name, deadline_ms, slots_v) = match &root {
        JsonValue::Array(_) => ("job".to_string(), None, root.clone()),
        JsonValue::Object(m) => {
            for key in m.keys() {
                if !["name", "deadline_ms", "slots"].contains(&key.as_str()) {
                    return Err(HttpResponse::json(
                        400,
                        format!("{{\"error\":\"unknown job field {}\"}}", json::escape(key)),
                    ));
                }
            }
            let name = m
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap_or("job")
                .to_string();
            let deadline = match m.get("deadline_ms") {
                None => None,
                Some(d) => Some(as_uint(d).ok_or_else(|| {
                    HttpResponse::json(
                        400,
                        "{\"error\":\"deadline_ms: expected a non-negative integer\"}",
                    )
                })?),
            };
            let slots = m.get("slots").cloned().ok_or_else(|| {
                HttpResponse::json(400, "{\"error\":\"missing \\\"slots\\\" array\"}")
            })?;
            (name, deadline, slots)
        }
        _ => {
            return Err(HttpResponse::json(
                400,
                "{\"error\":\"body must be a slot array or a job object\"}",
            ))
        }
    };
    let items = match &slots_v {
        JsonValue::Array(v) if !v.is_empty() => v,
        JsonValue::Array(_) => {
            return Err(HttpResponse::json(
                400,
                "{\"error\":\"a job needs at least one slot\"}",
            ))
        }
        _ => {
            return Err(HttpResponse::json(
                400,
                "{\"error\":\"\\\"slots\\\" must be an array\"}",
            ))
        }
    };
    let mut slots = Vec::with_capacity(items.len());
    let mut reject: Vec<(usize, Vec<String>)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match parse_slot(i, item) {
            Ok(s) => slots.push(s),
            Err(errs) => reject.push((i, errs)),
        }
    }
    if !reject.is_empty() {
        // The full per-constraint report, per slot — never enqueued.
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("error")
            .string("invalid job: one or more slots rejected");
        w.key("rejected").begin_array();
        for (i, errs) in &reject {
            w.begin_object();
            w.key("slot").uint(*i as u64);
            w.key("diagnostics").begin_array();
            for e in errs {
                w.string(e);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return Err(HttpResponse::json(400, w.finish()));
    }
    // Duplicate slot ids would alias manifest records.
    for i in 1..slots.len() {
        if slots[..i].iter().any(|s| s.id == slots[i].id) {
            return Err(HttpResponse::json(
                400,
                format!(
                    "{{\"error\":\"duplicate slot id {}\"}}",
                    json::escape(&slots[i].id)
                ),
            ));
        }
    }
    Ok(JobRequest {
        name,
        deadline_ms,
        slots,
    })
}

// ---------------------------------------------------------------------
// Result projection
// ---------------------------------------------------------------------

/// The values a service-executed slot stores in its manifest: four
/// human-readable headline numbers followed by the 13-word golden
/// fingerprint split into exactly-representable 32-bit halves — so the
/// manifest certifies *bit-identity* with a direct `try_run`, not just
/// approximate agreement.
pub fn service_projection(r: &SimResult) -> Vec<f64> {
    let mut v = Vec::with_capacity(4 + 26);
    v.push(r.ipc);
    v.push(r.mapki);
    v.push(r.row_hit_rate);
    v.push(r.mean_read_latency);
    for word in golden_fingerprint(r) {
        v.push((word >> 32) as f64);
        v.push((word & 0xffff_ffff) as f64);
    }
    v
}

/// Recover the golden fingerprint from [`service_projection`] values.
pub fn golden_fp_from_values(values: &[f64]) -> Option<[u64; 13]> {
    let halves = values.get(4..30)?;
    let mut fp = [0u64; 13];
    for (i, pair) in halves.chunks(2).enumerate() {
        fp[i] = ((pair[0] as u64) << 32) | (pair[1] as u64);
    }
    Some(fp)
}

// ---------------------------------------------------------------------
// Durable queue
// ---------------------------------------------------------------------

fn persist_queue(inner: &ServiceInner, st: &ServiceState) -> Result<(), SimError> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("service").string(&inner.cfg.name);
    w.key("next_id").uint(st.next_id);
    w.key("jobs").begin_array();
    for job in &st.jobs {
        w.begin_object();
        w.key("id").string(&job.id);
        w.key("name").string(&job.name);
        // `running` is a volatile fact about a process that no longer
        // exists after a crash: persist it as `queued` so a restart
        // resumes it (only uncertified slots re-execute).
        let state = if job.state == JobState::Running {
            JobState::Queued
        } else {
            job.state
        };
        w.key("state").string(state.label());
        w.key("deadline_ms").uint(job.deadline_ms);
        w.key("slots").begin_array();
        for s in &job.specs {
            w.begin_object();
            w.key("id").string(&s.id);
            // Re-parse, don't re-serialize: the canonical spec text is
            // the durable source of truth for the SimConfig.
            w.key("spec");
            w.raw(&s.canon);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    sweep::write_atomic(&inner.queue_path(), w.finish())
}

/// Load the queue file into fresh state: terminal jobs keep their
/// records (for `GET /jobs/{id}`), live jobs resume with only certified
/// slots pre-filled. A malformed queue file or job manifest is
/// quarantined with a warning.
fn load_queue(inner: &ServiceInner) -> Result<(), SimError> {
    let path = inner.queue_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return Ok(()),
    };
    let Ok(root) = json::parse(&text) else {
        quarantine(
            &path,
            "queue file is malformed; quarantined, service starts empty",
        );
        return Ok(());
    };
    let mut st = inner.lock();
    st.next_id = root.get("next_id").and_then(as_uint).unwrap_or(1);
    for j in root.get("jobs").map(|v| v.items()).unwrap_or(&[]) {
        let (Some(id), Some(name), Some(state)) = (
            j.get("id").and_then(|v| v.as_str()),
            j.get("name").and_then(|v| v.as_str()),
            j.get("state")
                .and_then(|v| v.as_str())
                .and_then(JobState::parse),
        ) else {
            event::emit(
                Level::Warn,
                "sim::service",
                "skipping malformed job entry in queue file",
                &[("path", path.display().to_string().into())],
            );
            continue;
        };
        let mut specs = Vec::new();
        let mut broken = None;
        for (i, s) in j
            .get("slots")
            .map(|v| v.items())
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let slot_id = s.get("id").and_then(|v| v.as_str());
            let spec_v = s.get("spec");
            let parsed = spec_v.and_then(|v| parse_slot(i, v).ok());
            match (slot_id, parsed) {
                (Some(sid), Some(mut spec)) => {
                    spec.id = sid.to_string();
                    specs.push(spec);
                }
                _ => {
                    broken = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = broken {
            // Specs were validated at admission; one that no longer
            // parses means the file was tampered with or the codec
            // regressed — surface it, do not guess.
            event::emit(
                Level::Warn,
                "sim::service",
                "job has an unparseable slot spec; dropping the job from the queue",
                &[("job", id.into()), ("slot_index", (i as u64).into())],
            );
            continue;
        }
        let n = specs.len();
        let mut job = Job {
            id: id.to_string(),
            name: name.to_string(),
            state,
            deadline_ms: j.get("deadline_ms").and_then(as_uint).unwrap_or(0),
            specs,
            records: vec![None; n],
            token: CancelToken::new(),
            started: None,
        };
        // Rehydrate records from the job's manifest: all of them for a
        // terminal job, only certified (ok + matching fingerprint) ones
        // for a live job being resumed.
        let mpath = inner.manifest_path(&job.id);
        if let Ok(mtext) = std::fs::read_to_string(&mpath) {
            match parse_manifest(&mtext) {
                Some(prior) => {
                    for (i, spec) in job.specs.iter().enumerate() {
                        let fp = spec.cfg.fingerprint();
                        job.records[i] = prior
                            .iter()
                            .find(|r| {
                                r.id == spec.id
                                    && r.config_fp == fp
                                    && (job.state.terminal() || r.status == SlotStatus::Ok)
                            })
                            .cloned();
                    }
                }
                None => quarantine(
                    &mpath,
                    "job manifest is malformed; quarantined, its slots re-execute",
                ),
            }
        }
        if job.live() {
            job.state = if job.pending() == 0 {
                // Crash landed between the last manifest write and the
                // terminal queue persist: the work is all done.
                JobState::Done
            } else {
                JobState::Queued
            };
        }
        st.jobs.push(job);
    }
    Ok(())
}

/// Move the malformed file at `path` aside (see
/// [`quarantine_manifest`]) and log where it went.
fn quarantine(path: &Path, message: &str) {
    let quarantined = quarantine_manifest(path);
    event::emit(
        Level::Warn,
        "sim::service",
        message,
        &[
            ("path", path.display().to_string().into()),
            (
                "quarantined_to",
                quarantined
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "(rename failed)".into())
                    .into(),
            ),
        ],
    );
}

/// Queue every pending slot of every live job (start-up resume).
fn enqueue_resumable(_inner: &ServiceInner, st: &mut ServiceState) {
    let mut ready: Vec<(usize, usize)> = Vec::new();
    for (j, job) in st.jobs.iter().enumerate() {
        if !job.live() {
            continue;
        }
        for (s, rec) in job.records.iter().enumerate() {
            if rec.is_none() {
                ready.push((j, s));
            }
        }
    }
    st.ready.extend(ready);
}

// ---------------------------------------------------------------------
// Metrics + status surface
// ---------------------------------------------------------------------

const JOB_STATES: &[JobState] = &[
    JobState::Queued,
    JobState::Running,
    JobState::Done,
    JobState::Cancelled,
    JobState::TimedOut,
];

fn note_metrics(inner: &ServiceInner, st: &ServiceState) {
    let m = &inner.metrics;
    m.register(
        "microbank_service_queue_depth",
        MetricKind::Gauge,
        "Live (queued + running) jobs in the service queue",
    );
    m.register(
        "microbank_service_jobs",
        MetricKind::Gauge,
        "Jobs by lifecycle state",
    );
    let depth = st.jobs.iter().filter(|j| j.live()).count();
    m.gauge_set("microbank_service_queue_depth", &[], depth as f64);
    for state in JOB_STATES {
        let n = st.jobs.iter().filter(|j| j.state == *state).count();
        m.gauge_set(
            "microbank_service_jobs",
            &[("state", state.label())],
            n as f64,
        );
    }
}

fn publish_status(inner: &ServiceInner, st: &ServiceState) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("service").string(&inner.cfg.name);
    w.key("draining")
        .boolean(inner.drain_requested.load(Ordering::Acquire));
    w.key("queue_depth")
        .uint(st.jobs.iter().filter(|j| j.live()).count() as u64);
    w.key("active_slots").uint(st.active as u64);
    w.key("jobs").begin_array();
    for job in &st.jobs {
        w.begin_object();
        w.key("id").string(&job.id);
        w.key("name").string(&job.name);
        w.key("state").string(job.state.label());
        w.key("slots").uint(job.specs.len() as u64);
        w.key("pending").uint(job.pending() as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    inner.shared.set_status_json(w.finish());
}

// ---------------------------------------------------------------------
// HTTP routing
// ---------------------------------------------------------------------

fn route(inner: &Arc<ServiceInner>, req: &HttpRequest) -> Option<HttpResponse> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => Some(admit(inner, &req.body)),
        ("GET", "/jobs") => Some(list_jobs(inner)),
        ("POST", "/shutdown") => {
            inner.drain_requested.store(true, Ordering::Release);
            event::emit(
                Level::Info,
                "sim::service",
                "shutdown requested over HTTP; draining",
                &[],
            );
            Some(HttpResponse::json(202, "{\"state\":\"draining\"}"))
        }
        (method, path) => {
            let id = path.strip_prefix("/jobs/")?;
            if id.is_empty() || id.contains('/') {
                return None;
            }
            Some(match method {
                "GET" => job_detail(inner, id),
                "DELETE" => cancel_job(inner, id),
                _ => HttpResponse::text(405, "use GET or DELETE on /jobs/{id}\n"),
            })
        }
    }
}

fn admit(inner: &Arc<ServiceInner>, body: &[u8]) -> HttpResponse {
    if inner.drain_requested.load(Ordering::Acquire) {
        return HttpResponse::json(503, "{\"error\":\"service is draining\"}")
            .with_header("Retry-After", "10");
    }
    let request = match parse_job_request(body) {
        Ok(r) => r,
        Err(resp) => {
            inner
                .metrics
                .counter_add("microbank_service_jobs_rejected_total", &[], 1);
            return resp;
        }
    };
    let mut st = inner.lock();
    let live = st.jobs.iter().filter(|j| j.live()).count();
    if live >= inner.cfg.queue_cap {
        inner
            .metrics
            .counter_add("microbank_service_jobs_rejected_total", &[], 1);
        return HttpResponse::json(
            429,
            format!(
                "{{\"error\":\"queue full\",\"queue_depth\":{live},\"queue_cap\":{}}}",
                inner.cfg.queue_cap
            ),
        )
        .with_header("Retry-After", "1");
    }
    let id = format!("job-{}", st.next_id);
    st.next_id += 1;
    let n = request.slots.len();
    let job_idx = st.jobs.len();
    st.jobs.push(Job {
        id: id.clone(),
        name: request.name,
        state: JobState::Queued,
        deadline_ms: request.deadline_ms.unwrap_or(inner.cfg.default_deadline_ms),
        specs: request.slots,
        records: vec![None; n],
        token: CancelToken::new(),
        started: None,
    });
    // Write-ahead: the job is only admitted once it is durable. On
    // failure it is rolled back and the client gets a 500 to retry.
    if let Err(e) = persist_queue(inner, &st) {
        st.jobs.pop();
        return HttpResponse::json(
            500,
            format!(
                "{{\"error\":\"could not persist queue: {}\"}}",
                json_fragment(&e.to_string())
            ),
        );
    }
    for s in 0..n {
        st.ready.push_back((job_idx, s));
    }
    inner
        .metrics
        .counter_add("microbank_service_jobs_admitted_total", &[], 1);
    note_metrics(inner, &st);
    publish_status(inner, &st);
    event::emit(
        Level::Info,
        "sim::service",
        "job admitted",
        &[("job", id.as_str().into()), ("slots", (n as u64).into())],
    );
    drop(st);
    inner.work_cv.notify_all();
    HttpResponse::json(
        202,
        format!(
            "{{\"id\":{},\"slots\":{n},\"state\":\"queued\"}}",
            json::escape(&id)
        ),
    )
}

/// Escape a string for embedding inside a JSON string literal (without
/// the surrounding quotes).
fn json_fragment(s: &str) -> String {
    let quoted = json::escape(s);
    quoted[1..quoted.len() - 1].to_string()
}

fn list_jobs(inner: &ServiceInner) -> HttpResponse {
    let st = inner.lock();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("jobs").begin_array();
    for job in &st.jobs {
        w.begin_object();
        w.key("id").string(&job.id);
        w.key("name").string(&job.name);
        w.key("state").string(job.state.label());
        w.key("slots").uint(job.specs.len() as u64);
        w.key("pending").uint(job.pending() as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    HttpResponse::json(200, w.finish())
}

fn job_detail(inner: &ServiceInner, id: &str) -> HttpResponse {
    let st = inner.lock();
    let Some(job) = st.jobs.iter().find(|j| j.id == id) else {
        return HttpResponse::json(404, "{\"error\":\"no such job\"}");
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("id").string(&job.id);
    w.key("name").string(&job.name);
    w.key("state").string(job.state.label());
    w.key("deadline_ms").uint(job.deadline_ms);
    w.key("slots").begin_array();
    for (spec, rec) in job.specs.iter().zip(&job.records) {
        w.begin_object();
        w.key("id").string(&spec.id);
        match rec {
            None => {
                w.key("state").string("pending");
            }
            Some(r) => {
                w.key("state").string(match r.status {
                    SlotStatus::Ok => "ok",
                    SlotStatus::Failed => "failed",
                });
                if let Some(e) = &r.error {
                    w.key("error").string(e);
                }
                w.key("values").begin_array();
                for &v in &r.values {
                    w.num(v);
                }
                w.end_array();
                if let Some(fp) = golden_fp_from_values(&r.values) {
                    w.key("golden_fp").begin_array();
                    for word in fp {
                        w.string(&format!("{word:016x}"));
                    }
                    w.end_array();
                }
            }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    HttpResponse::json(200, w.finish())
}

fn cancel_job(inner: &Arc<ServiceInner>, id: &str) -> HttpResponse {
    let mut st = inner.lock();
    let Some(job) = st.jobs.iter_mut().find(|j| j.id == id) else {
        return HttpResponse::json(404, "{\"error\":\"no such job\"}");
    };
    if job.state.terminal() {
        return HttpResponse::json(
            409,
            format!("{{\"error\":\"job already {}\"}}", job.state.label()),
        );
    }
    job.token.cancel();
    let job_id = job.id.clone();
    // Queued slots are cancelled by their workers observing the tripped
    // token before execution; if nothing is in flight, finalize any the
    // workers will never pick up now (the ready queue still feeds them
    // to workers, which record the cancellation — this path just makes
    // DELETE on an all-queued job prompt).
    inner
        .metrics
        .counter_add("microbank_service_jobs_cancelled_total", &[], 1);
    event::emit(
        Level::Info,
        "sim::service",
        "job cancellation requested",
        &[("job", job_id.as_str().into())],
    );
    publish_status(inner, &st);
    drop(st);
    inner.work_cv.notify_all();
    HttpResponse::json(202, "{\"state\":\"cancelling\"}")
}

// ---------------------------------------------------------------------
// Worker pool + monitor
// ---------------------------------------------------------------------

fn spawn_worker(inner: &Arc<ServiceInner>, index: usize) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("sweepd-worker-{index}"))
        .spawn(move || worker_loop(&inner))
        .expect("spawn sweepd worker")
}

fn worker_loop(inner: &Arc<ServiceInner>) {
    loop {
        let task = {
            let mut st = inner.lock();
            loop {
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(t) = st.ready.pop_front() {
                    st.active += 1;
                    break t;
                }
                let (g, _) = inner
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap_or_else(|p| p.into_inner());
                st = g;
            }
        };
        execute_slot(inner, task.0, task.1);
        let mut st = inner.lock();
        st.active -= 1;
        note_metrics(inner, &st);
        publish_status(inner, &st);
        drop(st);
        inner.idle_cv.notify_all();
    }
}

fn execute_slot(inner: &Arc<ServiceInner>, j: usize, s: usize) {
    // Snapshot what the run needs; drop the lock before executing.
    let (cfg, token, slot_id) = {
        let mut st = inner.lock();
        let job = &mut st.jobs[j];
        if job.records[s].is_some() {
            return; // already certified (resume pre-filled it)
        }
        if job.state == JobState::Queued && !job.token.is_tripped() {
            job.state = JobState::Running;
        }
        job.started.get_or_insert_with(Instant::now);
        (
            job.specs[s].cfg.clone().with_cancel(job.token.clone()),
            job.token.clone(),
            job.specs[s].id.clone(),
        )
    };
    // Pre-execution token check: a cancelled or expired job's queued
    // slots are finalized without running.
    let outcome = match token.tripped() {
        Some(kind) => Err(SimError::Cancelled { kind, at_cycle: 0 }),
        None => {
            let start = Instant::now();
            let outcome = isolate(|| try_run(&cfg));
            inner.metrics.observe(
                "microbank_sweep_slot_seconds",
                &[],
                start.elapsed().as_secs_f64(),
            );
            outcome
        }
    };
    let rec = match outcome {
        Ok(result) => {
            result.record_metrics(&inner.metrics, &[]);
            SlotRecord::ok(&slot_id, &cfg, service_projection(&result))
        }
        Err(SimError::Cancelled {
            kind: CancelKind::Shutdown,
            ..
        }) => {
            // Checkpoint: the run's state is discarded whole and the
            // slot stays unrecorded, so the next start re-executes
            // exactly it — never a certified one.
            return;
        }
        Err(e) => SlotRecord::failed(&slot_id, &cfg, &e),
    };
    record_slot(inner, j, s, rec);
}

/// Commit one slot outcome: store the record, rewrite the job manifest
/// (under the lock, so concurrent completions serialize their writes in
/// commit order), and finalize the job when its last slot lands.
fn record_slot(inner: &Arc<ServiceInner>, j: usize, s: usize, rec: SlotRecord) {
    let mut st = inner.lock();
    let failed = rec.status == SlotStatus::Failed;
    st.jobs[j].records[s] = Some(rec);
    let job = &st.jobs[j];
    let manifest = render_manifest(&job.id, &job.recorded());
    let mpath = inner.manifest_path(&job.id);
    if let Err(e) = sweep::write_atomic(&mpath, manifest) {
        event::emit(
            Level::Error,
            "sim::service",
            "could not write job manifest; resume will re-execute this slot",
            &[
                ("job", job.id.as_str().into()),
                ("error", e.to_string().into()),
            ],
        );
    }
    if failed {
        event::emit(
            Level::Warn,
            "sim::service",
            "slot failed",
            &[
                ("job", st.jobs[j].id.as_str().into()),
                ("slot_index", (s as u64).into()),
            ],
        );
    }
    if st.jobs[j].pending() == 0 {
        let job = &mut st.jobs[j];
        job.state = match job.token.tripped() {
            Some(CancelKind::Requested) => JobState::Cancelled,
            Some(CancelKind::Deadline) => JobState::TimedOut,
            _ => JobState::Done,
        };
        let (id, state) = (job.id.clone(), job.state);
        if let Err(e) = persist_queue(inner, &st) {
            event::emit(
                Level::Error,
                "sim::service",
                "could not persist queue after job completion",
                &[("job", id.as_str().into()), ("error", e.to_string().into())],
            );
        }
        event::emit(
            Level::Info,
            "sim::service",
            "job finished",
            &[("job", id.as_str().into()), ("state", state.label().into())],
        );
    }
    note_metrics(inner, &st);
    publish_status(inner, &st);
    drop(st);
    inner.idle_cv.notify_all();
}

/// The monitor thread: deadline enforcement, worker supervision hooks,
/// and the graceful-drain state machine. Exits once the drain completes
/// (setting `stop` for the workers).
fn monitor_loop(inner: &Arc<ServiceInner>) {
    let mut drain_started: Option<Instant> = None;
    let mut tripped_shutdown = false;
    loop {
        std::thread::sleep(Duration::from_millis(20));
        // Deadline scan: expire running jobs past their wall budget.
        {
            let st = inner.lock();
            for job in &st.jobs {
                if job.live() && job.deadline_ms > 0 && !job.token.is_tripped() {
                    if let Some(start) = job.started {
                        if start.elapsed() >= Duration::from_millis(job.deadline_ms) {
                            job.token.expire();
                            event::emit(
                                Level::Warn,
                                "sim::service",
                                "job deadline expired; cancelling its remaining slots",
                                &[
                                    ("job", job.id.as_str().into()),
                                    ("deadline_ms", job.deadline_ms.into()),
                                ],
                            );
                        }
                    }
                }
            }
        }
        if !inner.drain_requested.load(Ordering::Acquire) {
            continue;
        }
        let started = *drain_started.get_or_insert_with(|| {
            event::emit(
                Level::Info,
                "sim::service",
                "drain started; admission closed",
                &[("grace_ms", inner.cfg.drain_grace_ms.into())],
            );
            Instant::now()
        });
        let mut st = inner.lock();
        let busy = st.jobs.iter().any(|j| j.live());
        if busy
            && started.elapsed() >= Duration::from_millis(inner.cfg.drain_grace_ms)
            && !tripped_shutdown
        {
            // Grace expired: checkpoint what is still in flight. The
            // tokens trip as Shutdown, so in-flight slots abandon
            // without recording and queued ones are skipped.
            for job in st.jobs.iter().filter(|j| j.live()) {
                job.token.shutdown();
            }
            tripped_shutdown = true;
            event::emit(
                Level::Info,
                "sim::service",
                "drain grace expired; checkpointing in-flight jobs",
                &[],
            );
        }
        let drained = st.active == 0 && (!busy || (tripped_shutdown && st.ready.is_empty()));
        if !drained {
            drop(st);
            inner.work_cv.notify_all();
            continue;
        }
        // Checkpointed jobs return to Queued for the next start.
        for job in st.jobs.iter_mut() {
            if job.live() {
                job.state = JobState::Queued;
                job.started = None;
            }
        }
        if let Err(e) = persist_queue(inner, &st) {
            event::emit(
                Level::Error,
                "sim::service",
                "could not persist final queue during drain",
                &[("error", e.to_string().into())],
            );
        }
        note_metrics(inner, &st);
        publish_status(inner, &st);
        drop(st);
        inner.stop.store(true, Ordering::Release);
        inner.work_cv.notify_all();
        inner.idle_cv.notify_all();
        event::emit(Level::Info, "sim::service", "drain complete", &[]);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_labels_round_trip() {
        for w in [
            Workload::MixHigh,
            Workload::MixBlend,
            Workload::SpecAll,
            Workload::TpcC,
            Workload::TpcH,
            Workload::Radix,
            Workload::Fft,
            Workload::Canneal,
            Workload::TenantMix { lc_cores: 4 },
            Workload::Spec("429.mcf"),
        ] {
            assert_eq!(
                parse_workload(&w.label()),
                Some(w),
                "label {:?} must parse back",
                w.label()
            );
        }
        assert_eq!(parse_workload("no-such-workload"), None);
    }

    #[test]
    fn slot_codec_is_deterministic_through_canonical_text() {
        let text = r#"{ "workload": "mix-high", "ubanks": [4, 4],
                        "channels": 2, "seed": 7, "quick": true }"#;
        let v = json::parse(text).unwrap();
        let spec = parse_slot(0, &v).expect("valid spec");
        // Restart path: re-parse the canonical text.
        let v2 = json::parse(&spec.canon).unwrap();
        let spec2 = parse_slot(0, &v2).expect("canonical text must re-parse");
        assert_eq!(spec.canon, spec2.canon, "canonicalization is idempotent");
        assert_eq!(
            spec.cfg.fingerprint(),
            spec2.cfg.fingerprint(),
            "restart reconstructs the identical config"
        );
    }

    #[test]
    fn slot_codec_rejects_unknown_fields_and_bad_values() {
        let v = json::parse(r#"{"workload":"mix-high","wormup_cycles":5}"#).unwrap();
        let errs = parse_slot(0, &v).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("wormup_cycles")),
            "typo must be named: {errs:?}"
        );
        let v = json::parse(r#"{"workload":"mix-high","channels":3,"ubanks":[3,0]}"#).unwrap();
        let errs = parse_slot(0, &v).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("channels")),
            "validation ladder report must reach the client: {errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("n_w")), "{errs:?}");
    }

    #[test]
    fn projection_round_trips_the_golden_fingerprint() {
        let fp: [u64; 13] = [
            u64::MAX,
            0,
            0xdead_beef_cafe_f00d,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            9,
            10,
        ];
        let mut values = vec![1.0, 2.0, 3.0, 4.0];
        for w in fp {
            values.push((w >> 32) as f64);
            values.push((w & 0xffff_ffff) as f64);
        }
        assert_eq!(golden_fp_from_values(&values), Some(fp));
    }
}
