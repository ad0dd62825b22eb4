//! The sweep manifest format (DESIGN.md §5d): the durable record of which
//! slots of a sweep have run, under which configuration, and with what
//! outcome. The sweep service (`crate::service`, DESIGN.md §5i) writes one
//! manifest per job and resumes from it on restart.
//!
//! * A [`SlotRecord`] stores a slot's id, a fingerprint of its
//!   configuration, its outcome, and its projected values. A record
//!   *certifies* a slot when its status is `ok` and its fingerprint
//!   matches the slot's current configuration; resume re-executes every
//!   slot without a certified record.
//! * Every manifest write goes through
//!   [`microbank_telemetry::atomic_write`], and a manifest that exists but
//!   does not parse is quarantined next to itself instead of silently
//!   overwritten.
//!
//! The stored values survive the JSON round-trip exactly: the writer
//! emits f64s via the shortest-roundtrip `Display` path and the parser
//! reads them back with `str::parse::<f64>`, which inverts it bit-for-bit
//! (integral values are written as integers, so `-0.0` reads back as the
//! equal `0.0`).

use crate::error::SimError;
use crate::simulator::SimConfig;
use microbank_telemetry::artifact::atomic_write;
use microbank_telemetry::json::{self, JsonWriter};
use std::path::{Path, PathBuf};

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
    /// The slot configuration's [`SimConfig::fingerprint`].
    pub config_fp: String,
    pub status: SlotStatus,
    /// The error's rendering, for `Failed` records.
    pub error: Option<String>,
    pub values: Vec<f64>,
}

impl SlotRecord {
    /// The record of slot `id`, run from `cfg`, that completed with the
    /// projected `values`.
    pub(crate) fn ok(id: &str, cfg: &SimConfig, values: Vec<f64>) -> Self {
        SlotRecord {
            id: id.to_string(),
            config_fp: cfg.fingerprint(),
            status: SlotStatus::Ok,
            error: None,
            values,
        }
    }

    /// The record of slot `id`, run from `cfg`, that failed with `err`.
    pub(crate) fn failed(id: &str, cfg: &SimConfig, err: &SimError) -> Self {
        SlotRecord {
            id: id.to_string(),
            config_fp: cfg.fingerprint(),
            status: SlotStatus::Failed,
            error: Some(err.to_string()),
            values: Vec::new(),
        }
    }
}

/// Render a manifest document for `records`. Byte-stable: the same
/// records always render identically.
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
    fn values_roundtrip_exactly_through_the_manifest() {
        let values = vec![0.1 + 0.2, 1.0 / 3.0, -0.0, 12345.0, 6.02e23];
        let cfg = SimConfig::paper_default(microbank_workloads::suite::Workload::MixHigh);
        let text = render_manifest("roundtrip", &[SlotRecord::ok("a", &cfg, values.clone())]);
        let loaded = parse_manifest(&text).expect("a rendered manifest must parse");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].values, values, "exact f64 round-trip");
        assert_eq!(render_manifest("roundtrip", &loaded), text, "byte-stable");
    }

    #[test]
    fn manifests_with_an_attempts_key_still_parse() {
        let text = r#"{"sweep":"old","slots":[{"id":"a","config_fp":"00","status":"ok","attempts":2,"values":[1.5]}]}"#;
        let records = parse_manifest(text).expect("a manifest with attempts must parse");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].values, vec![1.5]);
    }
}
