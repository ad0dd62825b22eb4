//! Bounded command/event tracing. The controller pushes one record per
//! issued DRAM command into a fixed-capacity ring buffer (oldest records
//! are overwritten, never reallocating in the hot loop), and the result
//! exports to Chrome's `trace_event` JSON format so a run can be scrubbed
//! interactively in `chrome://tracing` / Perfetto.

use crate::json::JsonWriter;

/// DRAM command kinds a controller can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    Act,
    Pre,
    /// Precharge-all (one command closing every open row of a rank).
    PreA,
    Rd,
    Wr,
    Ref,
    /// Patrol-scrub read-correct-restore cycle (reliability subsystem).
    Scrub,
}

impl CmdKind {
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Act => "ACT",
            CmdKind::Pre => "PRE",
            CmdKind::PreA => "PREA",
            CmdKind::Rd => "RD",
            CmdKind::Wr => "WR",
            CmdKind::Ref => "REF",
            CmdKind::Scrub => "SCRUB",
        }
    }

    pub fn from_name(s: &str) -> Option<CmdKind> {
        Some(match s {
            "ACT" => CmdKind::Act,
            "PRE" => CmdKind::Pre,
            "PREA" => CmdKind::PreA,
            "RD" => CmdKind::Rd,
            "WR" => CmdKind::Wr,
            "REF" => CmdKind::Ref,
            "SCRUB" => CmdKind::Scrub,
            _ => return None,
        })
    }
}

/// One issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdRecord {
    /// CPU cycle the command occupied the command bus.
    pub cycle: u64,
    /// Owning channel (the controller's index).
    pub channel: u16,
    pub cmd: CmdKind,
    /// Flat μbank index within the channel (rank-level commands use the
    /// rank's first μbank).
    pub ubank: u32,
    /// Target row (0 for rank-level commands).
    pub row: u32,
    /// Request-queue depth when the command issued.
    pub queue_len: u16,
}

/// Fixed-capacity ring buffer of [`CmdRecord`]s.
#[derive(Debug, Clone)]
pub struct CmdTrace {
    buf: Vec<CmdRecord>,
    capacity: usize,
    /// Index of the logically-oldest record once the buffer has wrapped.
    head: usize,
    /// Total records ever pushed (`pushed - len` = overwritten).
    pushed: u64,
}

impl CmdTrace {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        CmdTrace {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records pushed over the trace's lifetime, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Records lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    #[inline]
    pub fn push(&mut self, rec: CmdRecord) {
        self.pushed += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Records in chronological (push) order.
    pub fn records(&self) -> Vec<CmdRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Export to Chrome `trace_event` JSON (the object form, so metadata
    /// rides along). Each command becomes a duration-less "X" event with
    /// `ts` in microseconds of simulated time (2 GHz ⇒ 0.0005 µs/cycle);
    /// `pid` = channel, `tid` = flat μbank, args carry row and queue depth.
    /// Load via chrome://tracing → Load, or ui.perfetto.dev.
    pub fn to_chrome_json(&self) -> String {
        to_chrome_json(&self.records())
    }
}

/// Microseconds of simulated time per CPU cycle (2 GHz clock).
const US_PER_CYCLE: f64 = 0.0005;

/// `pid` used for harness spans merged into a Chrome trace — far above
/// any real channel index, so device rows and harness rows group into
/// separate process tracks in the viewer.
pub const HARNESS_PID: u64 = 1_000_000;

/// Render any record sequence (e.g. a multi-channel merge) as Chrome
/// `trace_event` JSON. See [`CmdTrace::to_chrome_json`].
pub fn to_chrome_json(records: &[CmdRecord]) -> String {
    to_chrome_json_with_spans(records, &[])
}

/// Like [`to_chrome_json`], additionally merging harness span rows (see
/// [`crate::span::SpanRow`]) as duration events under [`HARNESS_PID`]
/// on a single track (`tid` 0).
/// Device events use simulated time, harness events wall time — the two
/// timebases share a `ts` axis only nominally, which is fine for the
/// intended use (eyeballing where harness time goes next to what the
/// device was doing).
pub fn to_chrome_json_with_spans(records: &[CmdRecord], spans: &[crate::span::SpanRow]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("displayTimeUnit").string("ns");
    w.key("metadata")
        .begin_object()
        .key("clock_ghz")
        .num(2.0)
        .key("record_count")
        .uint(records.len() as u64)
        .key("harness_span_count")
        .uint(spans.len() as u64)
        .key("harness_pid")
        .uint(HARNESS_PID)
        .end_object();
    w.key("traceEvents").begin_array();
    for s in spans {
        w.begin_object()
            .key("name")
            .string(&s.path)
            .key("ph")
            .string("X")
            .key("ts")
            .num(s.start_secs * 1e6)
            .key("dur")
            .num(s.secs * 1e6)
            .key("pid")
            .uint(HARNESS_PID)
            .key("tid")
            .uint(0)
            .key("args")
            .begin_object()
            .key("count")
            .uint(s.count)
            .key("depth")
            .uint(s.depth as u64)
            .key("secs")
            .num(s.secs)
            .end_object()
            .end_object();
    }
    for r in records {
        w.begin_object()
            .key("name")
            .string(r.cmd.name())
            .key("ph")
            .string("X")
            .key("ts")
            .num(r.cycle as f64 * US_PER_CYCLE)
            .key("dur")
            .num(US_PER_CYCLE)
            .key("pid")
            .uint(r.channel as u64)
            .key("tid")
            .uint(r.ubank as u64)
            .key("args")
            .begin_object()
            .key("cycle")
            .uint(r.cycle)
            .key("row")
            .uint(r.row as u64)
            .key("queue_len")
            .uint(r.queue_len as u64)
            .end_object()
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Parse a Chrome trace-event JSON document produced by
/// [`to_chrome_json`] back into records — the round-trip proof that the
/// export is well-formed, and a convenience for test assertions.
/// Harness span rows (pid = [`HARNESS_PID`]) are skipped: they carry
/// wall-clock observations, not device commands.
pub fn from_chrome_json(s: &str) -> Result<Vec<CmdRecord>, String> {
    let v = crate::json::parse(s).map_err(|off| format!("JSON parse error at byte {off}"))?;
    let events = v.get("traceEvents").ok_or("missing traceEvents")?;
    let mut out = Vec::new();
    for e in events.items() {
        if e.get("pid").and_then(|p| p.as_f64()) == Some(HARNESS_PID as f64) {
            continue;
        }
        let name = e
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("event missing name")?;
        let cmd = CmdKind::from_name(name).ok_or_else(|| format!("unknown cmd {name}"))?;
        let args = e.get("args").ok_or("event missing args")?;
        let num = |v: Option<&crate::json::JsonValue>, what: &str| {
            v.and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing {what}"))
        };
        out.push(CmdRecord {
            cycle: num(args.get("cycle"), "cycle")? as u64,
            channel: num(e.get("pid"), "pid")? as u16,
            cmd,
            ubank: num(e.get("tid"), "tid")? as u32,
            row: num(args.get("row"), "row")? as u32,
            queue_len: num(args.get("queue_len"), "queue_len")? as u16,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, cmd: CmdKind) -> CmdRecord {
        CmdRecord {
            cycle,
            channel: 0,
            cmd,
            ubank: 7,
            row: 42,
            queue_len: 3,
        }
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut t = CmdTrace::new(3);
        for i in 0..5 {
            t.push(rec(i, CmdKind::Act));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.total_pushed(), 5);
        let cycles: Vec<u64> = t.records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut t = CmdTrace::new(10);
        t.push(rec(1, CmdKind::Act));
        t.push(rec(2, CmdKind::Rd));
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn chrome_json_round_trips() {
        let mut t = CmdTrace::new(8);
        t.push(rec(10, CmdKind::Act));
        t.push(rec(14, CmdKind::Rd));
        t.push(rec(30, CmdKind::Pre));
        t.push(rec(64, CmdKind::Ref));
        let parsed = from_chrome_json(&t.to_chrome_json()).unwrap();
        assert_eq!(parsed, t.records());
    }

    #[test]
    fn cmd_names_round_trip() {
        for k in [
            CmdKind::Act,
            CmdKind::Pre,
            CmdKind::PreA,
            CmdKind::Rd,
            CmdKind::Wr,
            CmdKind::Ref,
            CmdKind::Scrub,
        ] {
            assert_eq!(CmdKind::from_name(k.name()), Some(k));
        }
        assert_eq!(CmdKind::from_name("NOP"), None);
    }

    #[test]
    fn harness_spans_merge_and_round_trip_skips_them() {
        let mut t = CmdTrace::new(8);
        t.push(rec(10, CmdKind::Act));
        t.push(rec(14, CmdKind::Rd));
        let spans = vec![crate::span::SpanRow {
            path: "drive/ctrl-tick".to_string(),
            name: "ctrl-tick".to_string(),
            depth: 1,
            start_secs: 0.001,
            secs: 0.5,
            count: 42,
        }];
        let json = to_chrome_json_with_spans(&t.records(), &spans);
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(
            doc.get("metadata")
                .unwrap()
                .get("harness_span_count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("pid").unwrap().as_f64(),
            Some(HARNESS_PID as f64)
        );
        // Command round-trip is unaffected by the merged harness rows.
        let parsed = from_chrome_json(&json).unwrap();
        assert_eq!(parsed, t.records());
    }

    #[test]
    fn rejects_malformed_trace() {
        assert!(from_chrome_json("{}").is_err());
        assert!(from_chrome_json("{\"traceEvents\":[{\"name\":\"NOP\"}]}").is_err());
    }
}
