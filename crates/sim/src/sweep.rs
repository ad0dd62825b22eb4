//! Crash-safe, resumable sweep execution (DESIGN.md §5d).
//!
//! [`SweepRunner`] executes a list of [`SweepSlot`]s — `(id, SimConfig)`
//! pairs — with the guarantees a long figure sweep actually needs:
//!
//! * **Per-slot isolation**: a slot that panics or errors records a
//!   `Failed` outcome in its slot; the rest of the sweep still runs.
//!   A run depends only on its config, so a failed slot is recorded once
//!   and not retried in the same invocation; only a later invocation
//!   re-runs it.
//! * **Crash-safe resume**: after every slot the runner atomically
//!   rewrites `<dir>/<name>.manifest.json`, recording each slot's id, a
//!   fingerprint of its configuration, its outcome, and its projected
//!   values. A re-run skips any slot whose manifest entry matches
//!   (same id, same config fingerprint, `ok` status) and reuses the
//!   stored values — so a killed sweep continues where it stopped and
//!   produces byte-identical final artifacts.
//! * **Atomic artifacts**: every file written through the runner goes
//!   through [`microbank_telemetry::atomic_write`].
//!
//! The stored values survive the JSON round-trip exactly: the writer
//! emits f64s via the shortest-roundtrip `Display` path and the parser
//! reads them back with `str::parse::<f64>`, which inverts it bit-for-bit.

use crate::error::SimError;
use crate::report::Table;
use crate::simulator::{isolate, try_run, SimConfig, SimResult};
use microbank_telemetry::artifact::atomic_write;
use microbank_telemetry::json::{self, JsonWriter};
use microbank_telemetry::{event, Level, MetricsRegistry, StatusServer, StatusShared};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One unit of sweep work: a stable identifier (the manifest key, also
/// used as the row label) and the configuration to run.
pub struct SweepSlot {
    pub id: String,
    pub cfg: SimConfig,
}

/// Outcome of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStatus {
    Ok,
    Failed,
}

/// A slot's manifest record: identity, outcome, and the projected values
/// (the numbers the sweep's artifacts are built from).
#[derive(Debug, Clone)]
pub struct SlotRecord {
    pub id: String,
    /// Fingerprint of the slot's configuration (span tracing, time skip
    /// and cancellation token masked out — they do not change results).
    pub config_fp: String,
    pub status: SlotStatus,
    /// The error's rendering, for `Failed` records.
    pub error: Option<String>,
    pub values: Vec<f64>,
    /// True when this record was satisfied from a prior run's manifest
    /// instead of executed in this invocation.
    pub resumed: bool,
    /// Wall seconds this invocation spent executing the slot (0 for
    /// resumed records). Observability only — never persisted to the
    /// manifest, so resumed and uninterrupted sweeps stay byte-identical.
    pub secs: f64,
}

impl SlotRecord {
    /// The record of slot `id`, run from `cfg`, that completed with the
    /// projected `values` after `secs` wall seconds.
    pub(crate) fn ok(id: &str, cfg: &SimConfig, values: Vec<f64>, secs: f64) -> Self {
        SlotRecord {
            id: id.to_string(),
            config_fp: config_fingerprint(cfg),
            status: SlotStatus::Ok,
            error: None,
            values,
            resumed: false,
            secs,
        }
    }

    /// The record of slot `id`, run from `cfg`, that failed with `err`
    /// after `secs` wall seconds.
    pub(crate) fn failed(id: &str, cfg: &SimConfig, err: &SimError, secs: f64) -> Self {
        SlotRecord {
            id: id.to_string(),
            config_fp: config_fingerprint(cfg),
            status: SlotStatus::Failed,
            error: Some(err.to_string()),
            values: Vec::new(),
            resumed: false,
            secs,
        }
    }
}

/// Executes sweep slots with isolation and manifest-based resume.
///
/// # Observability
///
/// Every processed slot atomically rewrites `<dir>/<name>.status.json`
/// (per-slot states, ETA, throughput) and updates a [`MetricsRegistry`].
/// When `MICROBANK_STATUS_ADDR` is set (or [`serve_status`] is called),
/// both are additionally served live over HTTP at `/status` and
/// `/metrics` for the duration of the runner. The status surface is
/// best-effort and read-only: it cannot fail the sweep, and it cannot
/// change any simulated result or sweep artifact.
///
/// [`serve_status`]: SweepRunner::serve_status
pub struct SweepRunner {
    name: String,
    dir: PathBuf,
    /// Records accumulated by this invocation, in slot order.
    records: Vec<SlotRecord>,
    /// Records loaded from a prior manifest, consulted for resume.
    prior: Vec<SlotRecord>,
    metrics: Arc<MetricsRegistry>,
    status_shared: Option<Arc<StatusShared>>,
    /// Owned so the endpoint stays up as long as the runner lives.
    server: Option<StatusServer>,
    /// Test hook: abort (like a crash) after this many *executed* slots.
    #[doc(hidden)]
    pub kill_after: Option<usize>,
}

impl SweepRunner {
    /// A runner for sweep `name` writing under `dir`. Loads the prior
    /// manifest if one exists; an unreadable or malformed manifest is
    /// treated as absent (every slot re-executes — safe, just slower).
    /// If `MICROBANK_STATUS_ADDR` is set, the status endpoint is served
    /// there (a bind failure logs a warning and the sweep proceeds).
    pub fn new(name: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        let mut r = SweepRunner {
            name: name.into(),
            dir: dir.into(),
            records: Vec::new(),
            prior: Vec::new(),
            metrics: Arc::new(MetricsRegistry::new()),
            status_shared: None,
            server: None,
            kill_after: None,
        };
        r.prior = r.load_manifest().unwrap_or_default();
        if let Ok(addr) = std::env::var("MICROBANK_STATUS_ADDR") {
            if let Err(e) = r.serve_status(&addr) {
                event::emit(
                    Level::Warn,
                    "sim::sweep",
                    "could not bind MICROBANK_STATUS_ADDR; continuing without endpoint",
                    &[
                        ("addr", addr.as_str().into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
        }
        r
    }

    /// Serve `/status` and `/metrics` on `addr` (`127.0.0.1:0` picks an
    /// ephemeral port; see [`status_addr`](Self::status_addr)) until the
    /// runner is dropped.
    pub fn serve_status(&mut self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let shared = StatusShared::new(Arc::clone(&self.metrics));
        let server = StatusServer::start(addr, Arc::clone(&shared))?;
        let bound = server.local_addr();
        event::emit(
            Level::Info,
            "sim::sweep",
            "status endpoint listening",
            &[
                ("sweep", self.name.as_str().into()),
                ("addr", bound.to_string().into()),
            ],
        );
        self.status_shared = Some(shared);
        self.server = Some(server);
        Ok(bound)
    }

    /// Address the status endpoint is bound to, when serving.
    pub fn status_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }

    /// The metrics registry this runner feeds (shareable; also exposed
    /// at `/metrics` when serving).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(format!("{}.manifest.json", self.name))
    }

    /// Live progress artifact, atomically rewritten after every slot.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join(format!("{}.status.json", self.name))
    }

    /// Records produced so far this invocation (one per processed slot).
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Run every slot, resuming from the manifest where possible, and
    /// return the records in slot order. `project` reduces a completed
    /// run to the values the sweep's artifacts need; only those values
    /// are stored, so resume never needs to re-run a completed slot.
    ///
    /// `Err` is reserved for harness-level failures (a manifest that
    /// cannot be written, or the injected test kill) — slot failures are
    /// reported in their records, not here.
    pub fn run_slots(
        &mut self,
        slots: &[SweepSlot],
        project: impl Fn(&SimResult) -> Vec<f64>,
    ) -> Result<Vec<SlotRecord>, SimError> {
        let sweep_start = Instant::now();
        event::emit(
            Level::Info,
            "sim::sweep",
            "sweep starting",
            &[
                ("sweep", self.name.as_str().into()),
                ("slots", slots.len().into()),
                ("prior_records", self.prior.len().into()),
            ],
        );
        let mut executed = 0usize;
        // Seed the progress gauges before the first slot so an early
        // scrape already sees the sweep family (at zero).
        self.note_slot_metrics(sweep_start);
        self.publish_status(slots, sweep_start, None);
        for slot in slots {
            let fp = config_fingerprint(&slot.cfg);
            let prior_hit = self
                .prior
                .iter()
                .find(|r| r.id == slot.id && r.config_fp == fp && r.status == SlotStatus::Ok);
            if let Some(prev) = prior_hit {
                event::emit(
                    Level::Debug,
                    "sim::sweep",
                    "slot resumed from manifest",
                    &[
                        ("sweep", self.name.as_str().into()),
                        ("slot", slot.id.as_str().into()),
                    ],
                );
                let mut rec = prev.clone();
                rec.resumed = true;
                rec.secs = 0.0;
                self.records.push(rec);
                self.write_manifest()?;
                self.note_slot_metrics(sweep_start);
                self.publish_status(slots, sweep_start, None);
                continue;
            }
            if let Some(k) = self.kill_after {
                if executed >= k {
                    return Err(SimError::Panic {
                        message: format!(
                            "sweep '{}' killed after {k} executed slot(s) (test hook)",
                            self.name
                        ),
                    });
                }
            }
            self.publish_status(slots, sweep_start, Some(&slot.id));
            let slot_start = Instant::now();
            let outcome = isolate(|| try_run(&slot.cfg));
            executed += 1;
            let secs = slot_start.elapsed().as_secs_f64();
            let rec = match outcome {
                Ok(result) => {
                    result.record_metrics(&self.metrics, &[("slot", slot.id.as_str())]);
                    event::emit(
                        Level::Debug,
                        "sim::sweep",
                        "slot completed",
                        &[
                            ("sweep", self.name.as_str().into()),
                            ("slot", slot.id.as_str().into()),
                            ("secs", secs.into()),
                        ],
                    );
                    SlotRecord::ok(&slot.id, &slot.cfg, project(&result), secs)
                }
                Err(e) => {
                    event::emit(
                        Level::Error,
                        "sim::sweep",
                        "slot failed",
                        &[
                            ("sweep", self.name.as_str().into()),
                            ("slot", slot.id.as_str().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    SlotRecord::failed(&slot.id, &slot.cfg, &e, secs)
                }
            };
            self.metrics
                .observe("microbank_sweep_slot_seconds", &[], secs);
            self.records.push(rec);
            self.write_manifest()?;
            self.note_slot_metrics(sweep_start);
            self.publish_status(slots, sweep_start, None);
        }
        event::emit(
            Level::Info,
            "sim::sweep",
            "sweep finished",
            &[
                ("sweep", self.name.as_str().into()),
                ("slots", slots.len().into()),
                ("executed", executed.into()),
                ("secs", sweep_start.elapsed().as_secs_f64().into()),
            ],
        );
        Ok(self.records.clone())
    }

    /// Refresh the sweep-progress metric family from `self.records`.
    fn note_slot_metrics(&self, sweep_start: Instant) {
        let done = self.records.len() as f64;
        let ok = self
            .records
            .iter()
            .filter(|r| r.status == SlotStatus::Ok && !r.resumed)
            .count();
        let failed = self
            .records
            .iter()
            .filter(|r| r.status == SlotStatus::Failed)
            .count();
        let resumed = self.records.iter().filter(|r| r.resumed).count();
        let m = &self.metrics;
        m.register(
            "microbank_sweep_slots_done",
            microbank_telemetry::MetricKind::Gauge,
            "Slots processed so far (executed or resumed)",
        );
        m.gauge_set("microbank_sweep_slots_done", &[], done);
        m.gauge_set(
            "microbank_sweep_elapsed_seconds",
            &[],
            sweep_start.elapsed().as_secs_f64(),
        );
        for (outcome, n) in [("ok", ok), ("failed", failed), ("resumed", resumed)] {
            m.gauge_set(
                "microbank_sweep_slots",
                &[("sweep", self.name.as_str()), ("outcome", outcome)],
                n as f64,
            );
        }
    }

    /// Atomically rewrite `<dir>/<name>.status.json` and push the same
    /// document to the HTTP endpoint (when serving). Best-effort: status
    /// is observation, so I/O failures here never fail the sweep.
    fn publish_status(&self, slots: &[SweepSlot], sweep_start: Instant, running: Option<&str>) {
        let json = self.render_status(slots, sweep_start, running);
        let _ = atomic_write(self.status_path(), &json);
        if let Some(shared) = &self.status_shared {
            shared.set_status_json(json);
        }
    }

    /// Render the live progress document: per-slot states, wall-clock
    /// progress, throughput, and an ETA extrapolated from the mean
    /// executed-slot time (resumed slots are free and excluded).
    fn render_status(
        &self,
        slots: &[SweepSlot],
        sweep_start: Instant,
        running: Option<&str>,
    ) -> String {
        let elapsed = sweep_start.elapsed().as_secs_f64();
        let done = self.records.len();
        let failed = self
            .records
            .iter()
            .filter(|r| r.status == SlotStatus::Failed)
            .count();
        let resumed = self.records.iter().filter(|r| r.resumed).count();
        let exec_secs: f64 = self.records.iter().map(|r| r.secs).sum();
        let executed = done - resumed;
        let remaining = slots
            .len()
            .saturating_sub(done + usize::from(running.is_some()));
        let eta = if executed > 0 {
            Some(exec_secs / executed as f64 * (remaining + usize::from(running.is_some())) as f64)
        } else {
            None
        };
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("sweep").string(&self.name);
        w.key("total_slots").uint(slots.len() as u64);
        w.key("done").uint(done as u64);
        w.key("executed").uint(executed as u64);
        w.key("resumed").uint(resumed as u64);
        w.key("failed").uint(failed as u64);
        w.key("elapsed_secs").num(elapsed);
        match eta {
            Some(eta) => w.key("eta_secs").num(eta),
            None => w.key("eta_secs").null(),
        };
        w.key("slots_per_sec").num(if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        });
        match running {
            Some(id) => w.key("running").string(id),
            None => w.key("running").null(),
        };
        w.key("slots").begin_array();
        for (i, slot) in slots.iter().enumerate() {
            w.begin_object();
            w.key("id").string(&slot.id);
            let (state, rec) = match self.records.get(i) {
                Some(r) if r.resumed => ("resumed", Some(r)),
                Some(r) if r.status == SlotStatus::Ok => ("ok", Some(r)),
                Some(r) => ("failed", Some(r)),
                None if running == Some(slot.id.as_str()) => ("running", None),
                None => ("pending", None),
            };
            w.key("state").string(state);
            if let Some(r) = rec {
                w.key("secs").num(r.secs);
                if let Some(e) = &r.error {
                    w.key("error").string(e);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Atomically write `bytes` as `<dir>/<file_name>`.
    pub fn write_artifact(
        &self,
        file_name: &str,
        bytes: impl AsRef<[u8]>,
    ) -> Result<PathBuf, SimError> {
        let path = self.dir.join(file_name);
        write_atomic(&path, bytes)?;
        Ok(path)
    }

    /// Write a [`Table`] as `<dir>/<name>.csv` and `<dir>/<name>.json`.
    pub fn write_table(&self, table: &Table) -> Result<(), SimError> {
        self.write_artifact(&format!("{}.csv", self.name), table.to_csv())?;
        self.write_artifact(&format!("{}.json", self.name), table.to_json())?;
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), SimError> {
        write_atomic(
            &self.manifest_path(),
            render_manifest(&self.name, &self.records),
        )
    }

    /// Load the prior manifest. A missing file is a fresh start; a file
    /// that exists but does not parse as a manifest is *quarantined* —
    /// renamed to `<name>.manifest.corrupt-<n>.json` with a warning —
    /// so a truncated write is visible instead of silently re-executing
    /// the whole sweep as if nothing had ever run.
    fn load_manifest(&self) -> Option<Vec<SlotRecord>> {
        let path = self.manifest_path();
        let text = std::fs::read_to_string(&path).ok()?;
        match parse_manifest(&text) {
            Some(records) => Some(records),
            None => {
                let quarantined = quarantine_manifest(&path);
                event::emit(
                    Level::Warn,
                    "sim::sweep",
                    "prior manifest is malformed; quarantined, sweep restarts from scratch",
                    &[
                        ("sweep", self.name.as_str().into()),
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
                None
            }
        }
    }
}

/// FNV-1a over the config's `Debug` rendering, with the fields that
/// cannot change results (span tracing, time skip, cancellation token)
/// normalized out so a resume on a different machine still matches.
/// Shared with the sweep service, whose job manifests must certify slots
/// with the same identity.
pub(crate) fn config_fingerprint(cfg: &SimConfig) -> String {
    let mut c = cfg.clone();
    c.spans = false;
    c.time_skip = None;
    // A token only shortens runs that are then discarded whole; a
    // certified result is identical with or without one. Masking it also
    // keeps the hash stable across token identities (the Debug print
    // shows live/tripped state, not a value).
    c.cancel = None;
    let rendered = format!("{c:?}");
    let mut h = 0xcbf29ce484222325u64;
    for b in rendered.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Render a manifest document for `records` — the format shared by
/// [`SweepRunner`] and the sweep service's per-job manifests. Byte-stable:
/// the same records always render identically.
pub(crate) fn render_manifest(name: &str, records: &[SlotRecord]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("sweep").string(name);
    w.key("slots").begin_array();
    for r in records {
        w.begin_object();
        w.key("id").string(&r.id);
        w.key("config_fp").string(&r.config_fp);
        w.key("status").string(match r.status {
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
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Parse a manifest document back into records. `None` when the text is
/// not a structurally valid manifest.
pub(crate) fn parse_manifest(text: &str) -> Option<Vec<SlotRecord>> {
    let root = json::parse(text).ok()?;
    let mut out = Vec::new();
    for slot in root.get("slots")?.items() {
        let status = match slot.get("status")?.as_str()? {
            "ok" => SlotStatus::Ok,
            _ => SlotStatus::Failed,
        };
        out.push(SlotRecord {
            id: slot.get("id")?.as_str()?.to_string(),
            config_fp: slot.get("config_fp")?.as_str()?.to_string(),
            status,
            error: slot
                .get("error")
                .and_then(|e| e.as_str())
                .map(|s| s.to_string()),
            values: slot
                .get("values")?
                .items()
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<Vec<f64>>>()?,
            resumed: false,
            secs: 0.0,
        });
    }
    Some(out)
}

/// Move a malformed manifest aside to the first free
/// `<stem>.corrupt-<n>.json` slot next to it. `None` when the rename
/// failed (the original is then left in place and will be retried — and
/// re-warned about — on the next start).
pub(crate) fn quarantine_manifest(path: &Path) -> Option<PathBuf> {
    let stem = path
        .file_name()
        .and_then(|n| n.to_str())
        .map(|n| n.strip_suffix(".json").unwrap_or(n))
        .unwrap_or("manifest");
    for n in 1u32..1000 {
        let candidate = path.with_file_name(format!("{stem}.corrupt-{n}.json"));
        if candidate.exists() {
            continue;
        }
        if std::fs::rename(path, &candidate).is_ok() {
            return Some(candidate);
        }
        return None;
    }
    None
}

pub(crate) fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), SimError> {
    atomic_write(path, bytes).map_err(|e| SimError::Artifact {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_masks_result_neutral_knobs() {
        let base = SimConfig::paper_default(microbank_workloads::suite::Workload::MixHigh);
        let fp0 = config_fingerprint(&base);
        let mut knobs = base.clone();
        knobs.spans = true;
        knobs.time_skip = Some(false);
        knobs.cancel = Some(crate::simulator::CancelToken::default());
        assert_eq!(fp0, config_fingerprint(&knobs));
        // A tripped token must not change the hash either (Debug shows
        // the trip state; the mask removes it before rendering).
        let tripped = crate::simulator::CancelToken::default();
        tripped.cancel();
        let mut cancelled = base.clone();
        cancelled.cancel = Some(tripped);
        assert_eq!(fp0, config_fingerprint(&cancelled));
        let mut different = base.clone();
        different.seed ^= 1;
        assert_ne!(fp0, config_fingerprint(&different));
    }

    #[test]
    fn fingerprint_distinguishes_qos_configurations() {
        // QoS changes simulated behavior, so it must invalidate manifest
        // hits: arming it, and every knob inside it, alters the print.
        let base = SimConfig::paper_default(microbank_workloads::suite::Workload::MixHigh);
        let fp0 = config_fingerprint(&base);
        let tracking = base
            .clone()
            .with_qos(microbank_ctrl::qos::QosConfig::tracking());
        let fp1 = config_fingerprint(&tracking);
        assert_ne!(fp0, fp1, "arming QoS must change the fingerprint");
        let regulated = base
            .clone()
            .with_qos(microbank_ctrl::qos::QosConfig::tracking().with_tenant(Some(64), 1));
        let fp2 = config_fingerprint(&regulated);
        assert_ne!(fp1, fp2, "tenant policies must change the fingerprint");
        assert_eq!(fp1, config_fingerprint(&tracking.clone()));
    }

    #[test]
    fn fingerprint_distinguishes_device_variants() {
        use microbank_core::variant::{DeviceVariant, SalpMode};
        // The variant changes issue rules and energy, so manifests keyed
        // on the fingerprint must never resume across variants. The field
        // rides in MemConfig's Debug rendering automatically.
        let base = SimConfig::paper_default(microbank_workloads::suite::Workload::MixHigh);
        let fp0 = config_fingerprint(&base);
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
                config_fingerprint(&cfg),
                "variant {} must change the fingerprint",
                v.label()
            );
        }
        // Same variant, same print: resume still works within a variant.
        let mut a = base.clone();
        a.mem = a.mem.with_variant(DeviceVariant::Conventional);
        let mut b = base.clone();
        b.mem = b.mem.with_variant(DeviceVariant::Conventional);
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn values_roundtrip_exactly_through_the_manifest() {
        let dir = std::env::temp_dir().join(format!("microbank_sweep_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let values = vec![0.1 + 0.2, 1.0 / 3.0, -0.0, 12345.0, 6.02e23];
        {
            let mut r = SweepRunner::new("roundtrip", &dir);
            let cfg = SimConfig::paper_default(microbank_workloads::suite::Workload::MixHigh);
            r.records
                .push(SlotRecord::ok("a", &cfg, values.clone(), 0.0));
            r.write_manifest().unwrap();
        }
        let loaded = SweepRunner::new("roundtrip", &dir).prior;
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].values, values, "bit-exact f64 round-trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_with_an_attempts_key_still_parse() {
        let text = r#"{"sweep":"old","slots":[{"id":"a","config_fp":"00","status":"ok","attempts":2,"values":[1.5]}]}"#;
        let records = parse_manifest(text).expect("a manifest with attempts must parse");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].values, vec![1.5]);
    }

    #[test]
    fn malformed_manifest_is_quarantined_not_silently_dropped() {
        let dir =
            std::env::temp_dir().join(format!("microbank_sweep_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("crashy.manifest.json");
        // A truncated write: valid prefix, cut mid-document.
        std::fs::write(&manifest, r#"{"sweep":"crashy","slots":[{"id":"a","#).unwrap();
        let r = SweepRunner::new("crashy", &dir);
        assert!(r.prior.is_empty(), "malformed manifest must not resume");
        assert!(!manifest.exists(), "original must be moved aside");
        let quarantined = dir.join("crashy.manifest.corrupt-1.json");
        assert!(quarantined.exists(), "quarantine file must exist");
        // A second corrupt manifest lands in the next slot, preserving
        // the first for inspection.
        std::fs::write(&manifest, "not json at all").unwrap();
        let _ = SweepRunner::new("crashy", &dir);
        assert!(dir.join("crashy.manifest.corrupt-2.json").exists());
        assert!(quarantined.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
