//! Leveled structured event logging for the harness. Events carry a
//! level, a target (the emitting subsystem), a human message, and typed
//! key/value context fields (run, slot, worker, …). Two renderings:
//!
//! * **human** — a single-line stderr rendering, the default, matching
//!   what the old ad-hoc `eprintln!` sites printed;
//! * **json** — one JSON object per line (JSONL), machine-ingestable.
//!
//! Controlled by environment variables, read once on first use:
//!
//! * `MICROBANK_LOG` — minimum level: `error`, `warn` (default),
//!   `info`, `debug`, `trace`, or `off`.
//! * `MICROBANK_LOG_FORMAT` — `human` (default) or `json`.
//!
//! Logging observes the simulation but never feeds back into it:
//! enabling any level cannot change simulated state, only stderr.

use crate::json::JsonWriter;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
    Trace,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a `MICROBANK_LOG` value. `Some(None)` means logging is off;
    /// outer `None` means the value was unrecognized.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        Some(Some(match s.trim().to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            "off" | "none" | "0" => return Some(None),
            _ => return None,
        }))
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One event, borrowed for rendering.
#[derive(Debug)]
pub struct Event<'a> {
    pub level: Level,
    /// Emitting subsystem, e.g. `sim::sweep`, `sim::service`.
    pub target: &'a str,
    pub message: &'a str,
    pub fields: &'a [(&'a str, Value)],
}

/// Render an event as the single-line human form:
/// `microbank[warn] sim::sweep: message (k=v, k=v)`.
pub fn render_human(ev: &Event) -> String {
    let mut out = format!(
        "microbank[{}] {}: {}",
        ev.level.name(),
        ev.target,
        ev.message
    );
    if !ev.fields.is_empty() {
        out.push_str(" (");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(k);
            out.push('=');
            match v {
                Value::Str(s) => out.push_str(s),
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::I64(n) => out.push_str(&n.to_string()),
                Value::F64(n) => out.push_str(&format!("{n:.3}")),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push(')');
    }
    out
}

/// Render an event as one JSONL line (no trailing newline), with a
/// caller-supplied millisecond UNIX timestamp so rendering is pure.
pub fn render_json(ev: &Event, ts_ms: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("ts_ms")
        .uint(ts_ms)
        .key("level")
        .string(ev.level.name())
        .key("target")
        .string(ev.target)
        .key("message")
        .string(ev.message);
    for (k, v) in ev.fields {
        w.key(k);
        match v {
            Value::Str(s) => {
                w.string(s);
            }
            Value::U64(n) => {
                w.uint(*n);
            }
            Value::I64(n) => {
                w.num(*n as f64);
            }
            Value::F64(n) => {
                w.num(*n);
            }
            Value::Bool(b) => {
                w.boolean(*b);
            }
        }
    }
    w.end_object();
    w.finish()
}

#[derive(Debug)]
struct Logger {
    level: Option<Level>,
    json: bool,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

fn logger() -> &'static Logger {
    LOGGER.get_or_init(|| {
        let level = match std::env::var("MICROBANK_LOG") {
            Ok(v) => Level::parse(&v).unwrap_or(Some(Level::Warn)),
            Err(_) => Some(Level::Warn),
        };
        let json = matches!(
            std::env::var("MICROBANK_LOG_FORMAT").as_deref(),
            Ok("json") | Ok("jsonl")
        );
        Logger { level, json }
    })
}

/// Whether an event at `level` would be emitted under the current
/// configuration. Use to skip building expensive fields.
pub fn enabled(level: Level) -> bool {
    matches!(logger().level, Some(max) if level <= max)
}

/// Emit an event to stderr if its level passes the configured filter.
pub fn emit(level: Level, target: &str, message: &str, fields: &[(&str, Value)]) {
    let logger = logger();
    if !matches!(logger.level, Some(max) if level <= max) {
        return;
    }
    let ev = Event {
        level,
        target,
        message,
        fields,
    };
    let line = if logger.json {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        render_json(&ev, ts_ms)
    } else {
        render_human(&ev)
    };
    // A broken stderr pipe must not kill the simulation.
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("warn"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("TRACE"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse(" off "), Some(None));
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Trace);
    }

    #[test]
    fn human_rendering_matches_expected_shape() {
        let ev = Event {
            level: Level::Error,
            target: "sim::sweep",
            message: "slot failed",
            fields: &[
                ("sweep", Value::from("headline")),
                ("slot", Value::from("16x16")),
                ("secs", Value::from(1u64)),
            ],
        };
        assert_eq!(
            render_human(&ev),
            "microbank[error] sim::sweep: slot failed \
             (sweep=headline, slot=16x16, secs=1)"
        );
        let bare = Event {
            level: Level::Info,
            target: "sim",
            message: "done",
            fields: &[],
        };
        assert_eq!(render_human(&bare), "microbank[info] sim: done");
    }

    #[test]
    fn json_rendering_is_one_parseable_object() {
        let ev = Event {
            level: Level::Error,
            target: "sim::sweep",
            message: "slot \"failed\"",
            fields: &[
                ("worker", Value::from(3u64)),
                ("ratio", Value::from(0.5)),
                ("fatal", Value::from(false)),
                ("note", Value::from("a\nb")),
            ],
        };
        let line = render_json(&ev, 1_700_000_000_123);
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("level").unwrap().as_str(), Some("error"));
        assert_eq!(
            doc.get("ts_ms").unwrap().as_f64(),
            Some(1_700_000_000_123.0)
        );
        assert_eq!(doc.get("worker").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("note").unwrap().as_str(), Some("a\nb"));
        assert_eq!(doc.get("fatal"), Some(&crate::json::JsonValue::Bool(false)));
    }
}
