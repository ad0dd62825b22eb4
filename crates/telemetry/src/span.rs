//! Hierarchical wall-clock span tracing for the harness itself.
//!
//! Supersedes the flat `PhaseTimer`: instead of a linear sequence of
//! phase marks, the tracer maintains a tree of named spans, so a run can
//! attribute wall time to setup, warmup, measurement and artifact
//! assembly, and — within the drive — to controller ticks vs the rest.
//!
//! Spans with the same name under the same parent are *aggregated*
//! (total time + entry count), never duplicated: the sequential drive
//! loop can cheaply account thousands of controller ticks into a single
//! `ctrl-tick` node via [`SpanTracer::add_ns`].
//!
//! Determinism contract: the tracer observes wall time but never feeds
//! it back — nothing in the simulated machine reads a span. Enabling or
//! disabling tracing cannot change simulated state.

use crate::json::JsonWriter;
use std::time::Instant;

/// One node in the span tree, flattened for export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Slash-joined path from the root, e.g. `drive/ctrl-tick`.
    pub path: String,
    /// Leaf name, e.g. `ctrl-tick`.
    pub name: String,
    /// Depth in the tree (roots are 0).
    pub depth: u16,
    /// Wall seconds from tracer construction to the span's first entry.
    pub start_secs: f64,
    /// Total wall seconds accumulated across all entries.
    pub secs: f64,
    /// Number of entries (or accumulated events for `add_ns` spans).
    pub count: u64,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    start_ns: u64,
    total_ns: u64,
    count: u64,
    children: Vec<usize>,
    open_since: Option<Instant>,
}

/// A tree-shaped wall-clock profiler. See the module docs.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    epoch: Instant,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Default for SpanTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTracer {
    pub fn new() -> Self {
        SpanTracer {
            epoch: Instant::now(),
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since tracer construction.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wall seconds since tracer construction.
    pub fn total_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn child_of(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            start_ns: self.now_ns(),
            total_ns: 0,
            count: 0,
            children: Vec::new(),
            open_since: None,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Open (or re-open) a span named `name` under the current span.
    pub fn enter(&mut self, name: &str) {
        let parent = self.stack.last().copied();
        let idx = self.child_of(parent, name);
        let node = &mut self.nodes[idx];
        node.count += 1;
        node.open_since = Some(Instant::now());
        self.stack.push(idx);
    }

    /// Close the innermost open span, accumulating its elapsed time.
    pub fn exit(&mut self) {
        let idx = self.stack.pop().expect("exit without matching enter");
        let node = &mut self.nodes[idx];
        if let Some(t0) = node.open_since.take() {
            node.total_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Accumulate `ns` nanoseconds over `count` events into a child of
    /// the current span without opening/closing it — the cheap path for
    /// time measured by an external accumulator.
    pub fn add_ns(&mut self, name: &str, ns: u64, count: u64) {
        let parent = self.stack.last().copied();
        let idx = self.child_of(parent, name);
        let node = &mut self.nodes[idx];
        node.total_ns += ns;
        node.count += count;
    }

    fn node_total_ns(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let open = node
            .open_since
            .map(|t0| t0.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        node.total_ns + open
    }

    /// Total seconds accumulated under every span named `name`, anywhere
    /// in the tree. Still-open spans count their elapsed-so-far time.
    pub fn seconds(&self, name: &str) -> f64 {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].name == name)
            .map(|i| self.node_total_ns(i) as f64 / 1e9)
            .sum()
    }

    fn push_rows(&self, idx: usize, path: &str, depth: u16, out: &mut Vec<SpanRow>) {
        let node = &self.nodes[idx];
        let path = if path.is_empty() {
            node.name.clone()
        } else {
            format!("{path}/{}", node.name)
        };
        out.push(SpanRow {
            path: path.clone(),
            name: node.name.clone(),
            depth,
            start_secs: node.start_ns as f64 / 1e9,
            secs: self.node_total_ns(idx) as f64 / 1e9,
            count: node.count,
        });
        for &c in &node.children {
            self.push_rows(c, &path, depth + 1, out);
        }
    }

    /// Flatten the tree depth-first into export rows. Still-open spans
    /// report their elapsed-so-far time.
    pub fn rows(&self) -> Vec<SpanRow> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for &r in &self.roots {
            self.push_rows(r, "", 0, &mut out);
        }
        out
    }

    /// Export the tree as a nested JSON document.
    pub fn to_json(&self) -> String {
        fn write_node(t: &SpanTracer, idx: usize, w: &mut JsonWriter) {
            let node = &t.nodes[idx];
            w.begin_object()
                .key("name")
                .string(&node.name)
                .key("start_secs")
                .num(node.start_ns as f64 / 1e9)
                .key("secs")
                .num(t.node_total_ns(idx) as f64 / 1e9)
                .key("count")
                .uint(node.count);
            w.key("children").begin_array();
            for &c in &node.children {
                write_node(t, c, w);
            }
            w.end_array().end_object();
        }
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("total_secs")
            .num(self.total_secs())
            .key("spans")
            .begin_array();
        for &r in &self.roots {
            write_node(self, r, &mut w);
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Render flattened span rows (typically [`SpanTracer::rows`], as
/// carried on a run profile) as a standalone JSON document.
pub fn rows_to_json(rows: &[SpanRow]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("spans").begin_array();
    for r in rows {
        w.begin_object()
            .key("path")
            .string(&r.path)
            .key("name")
            .string(&r.name)
            .key("depth")
            .uint(r.depth as u64)
            .key("start_secs")
            .num(r.start_secs)
            .key("secs")
            .num(r.secs)
            .key("count")
            .uint(r.count)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn nesting_builds_paths_and_aggregates_reentries() {
        let mut t = SpanTracer::new();
        t.enter("drive");
        t.enter("warmup");
        t.exit();
        t.enter("measure");
        t.exit();
        // Re-entering an existing name aggregates into the same node.
        t.enter("measure");
        t.exit();
        t.exit();
        let rows = t.rows();
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["drive", "drive/warmup", "drive/measure"]);
        let measure = rows.iter().find(|r| r.name == "measure").unwrap();
        assert_eq!(measure.count, 2);
        assert_eq!(measure.depth, 1);
    }

    #[test]
    fn add_ns_accumulates_without_clock_reads() {
        let mut t = SpanTracer::new();
        t.enter("drive");
        t.add_ns("ctrl-tick", 500, 3);
        t.add_ns("ctrl-tick", 1_500, 2);
        t.exit();
        let rows = t.rows();
        let ctrl = rows.iter().find(|r| r.name == "ctrl-tick").unwrap();
        assert_eq!(ctrl.count, 5);
        assert!((ctrl.secs - 2e-6).abs() < 1e-12);
        assert_eq!(ctrl.path, "drive/ctrl-tick");
    }

    #[test]
    fn seconds_sums_across_tree_and_open_spans_report_elapsed() {
        let mut t = SpanTracer::new();
        t.enter("a");
        t.add_ns("x", 2_000_000_000, 1);
        t.exit();
        t.enter("b");
        t.add_ns("x", 1_000_000_000, 1);
        t.exit();
        assert!((t.seconds("x") - 3.0).abs() < 1e-9);
        t.enter("open");
        // Open span reports non-negative elapsed without exit.
        assert!(t.seconds("open") >= 0.0);
        assert_eq!(t.rows().iter().filter(|r| r.name == "open").count(), 1);
        t.exit();
    }

    #[test]
    fn json_exports_parse_and_round_trip_structure() {
        let mut t = SpanTracer::new();
        t.enter("setup");
        t.exit();
        t.enter("drive");
        t.add_ns("ctrl-tick", 42, 7);
        t.exit();
        let doc = parse(&t.to_json()).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("drive"));
        assert_eq!(
            spans[1].get("children").unwrap().items()[0]
                .get("count")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );

        let flat = parse(&rows_to_json(&t.rows())).unwrap();
        let rows = flat.get("spans").unwrap().items();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[2].get("path").unwrap().as_str(),
            Some("drive/ctrl-tick")
        );
    }
}
