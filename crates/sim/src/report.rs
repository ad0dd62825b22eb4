//! Result reporting: CSV and JSON emitters for result tables, so harness
//! runs can be archived and diffed.

use crate::simulator::SimResult;

/// Escape a CSV field (quotes, commas, and both line-break characters — a
/// bare `\r` breaks RFC-4180 parsers just like `\n` does).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One row of a generic results table.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub values: Vec<f64>,
}

/// A named results table with column headers.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        let label = label.into();
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.title
        );
        self.rows.push(Row { label, values });
    }

    /// Render as CSV (header row + data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(&csv_field(c));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&csv_field(&r.label));
            for v in &r.values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Render as JSON: `{"title":…,"columns":[…],"rows":[{"label":…,
    /// "values":[…]},…]}` via the telemetry crate's writer (no serializer
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut w = microbank_telemetry::json::JsonWriter::new();
        w.begin_object().key("title").string(&self.title);
        w.key("columns").begin_array();
        for c in &self.columns {
            w.string(c);
        }
        w.end_array();
        w.key("rows").begin_array();
        for r in &self.rows {
            w.begin_object().key("label").string(&r.label);
            w.key("values").begin_array();
            for &v in &r.values {
                w.num(v);
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Standard per-run summary row used by several harnesses.
pub fn summary_columns() -> Vec<&'static str> {
    vec![
        "ipc",
        "mapki",
        "row_hit_rate",
        "mean_lat",
        "p50_lat",
        "p95_lat",
        "p99_lat",
        "mem_power_w",
        "actpre_frac",
    ]
}

/// Extract the standard summary values from a [`SimResult`].
pub fn summarize(r: &SimResult) -> Vec<f64> {
    vec![
        r.ipc,
        r.mapki,
        r.row_hit_rate,
        r.mean_read_latency,
        r.read_latency_hist.percentile(0.50) as f64,
        r.read_latency_hist.percentile(0.95) as f64,
        r.read_latency_hist.percentile(0.99) as f64,
        r.memory_power_w().total_w(),
        r.mem_energy.act_pre_fraction(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("test", &["a", "b"]);
        t.push("row1", vec![1.0, 2.0]);
        t.push("row,2", vec![3.5, 4.25]);
        t
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = table().to_csv();
        assert!(csv.contains("\"row,2\""));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("label,a,b"));
    }

    #[test]
    fn csv_quotes_carriage_returns() {
        let mut t = Table::new("t", &["a"]);
        t.push("bad\rlabel", vec![1.0]);
        let csv = t.to_csv();
        assert!(csv.contains("\"bad\rlabel\""), "{csv:?}");
    }

    #[test]
    fn json_round_trips() {
        let v = microbank_telemetry::json::parse(&table().to_json()).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("test"));
        assert_eq!(v.get("columns").unwrap().items().len(), 2);
        let rows = v.get("rows").unwrap().items();
        assert_eq!(rows[1].get("label").unwrap().as_str(), Some("row,2"));
        assert_eq!(
            rows[1].get("values").unwrap().items()[1].as_f64(),
            Some(4.25)
        );
    }

    #[test]
    #[should_panic]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a"]);
        t.push("x", vec![1.0, 2.0]);
    }

    #[test]
    fn summary_columns_match_summarize() {
        use crate::simulator::{run, SimConfig};
        use microbank_workloads::suite::Workload;
        let mut cfg = SimConfig::spec_single_channel(Workload::Spec("456.hmmer")).quick();
        cfg.cmp.cores = 4;
        let r = run(&cfg);
        assert_eq!(summarize(&r).len(), summary_columns().len());
    }
}
