//! Validates the observability surfaces `sweepd` exposes: a captured
//! `/status` document and a captured `/metrics` exposition. CI scrapes a
//! live `sweepd` after a job finishes and hands the captures here.
//!
//! Checks:
//!   * the status document parses as JSON and carries the service
//!     schema (`service`, `draining`, `queue_depth`, `active_slots`,
//!     `jobs[]`), every job's state is a known lifecycle state, its
//!     `pending` count is at most its `slots`, and `queue_depth` equals
//!     the number of live (queued or running) jobs;
//!   * the metrics exposition parses under the Prometheus 0.0.4 text
//!     format, histograms are cumulative-monotone, and the job gauges
//!     and the read-latency histogram of the executed slots are present.
//!
//! Usage: obs_check --status FILE [--metrics FILE]

use microbank_telemetry::json::{parse, JsonValue};
use microbank_telemetry::metrics::validate_exposition;

fn uint(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(|v| v.as_f64())
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as u64)
        .ok_or_else(|| format!("{key:?} missing or not a non-negative integer"))
}

fn check_status(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|off| format!("status is not JSON (byte {off})"))?;
    if doc.get("service").and_then(|v| v.as_str()).is_none() {
        return Err("status missing string key \"service\"".to_string());
    }
    if !matches!(doc.get("draining"), Some(JsonValue::Bool(_))) {
        return Err("status missing boolean key \"draining\"".to_string());
    }
    let queue_depth = uint(&doc, "queue_depth")?;
    uint(&doc, "active_slots")?;
    let jobs = doc
        .get("jobs")
        .ok_or("status missing key \"jobs\"")?
        .items();
    let mut live = 0u64;
    for job in jobs {
        let id = job
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or("job missing id")?;
        match job.get("state").and_then(|v| v.as_str()) {
            Some("queued" | "running") => live += 1,
            Some("done" | "cancelled" | "timed-out") => {}
            other => return Err(format!("job {id}: unknown state {other:?}")),
        }
        let (slots, pending) = (uint(job, "slots")?, uint(job, "pending")?);
        if pending > slots {
            return Err(format!("job {id}: pending {pending} exceeds slots {slots}"));
        }
    }
    if live != queue_depth {
        return Err(format!("{live} live jobs but queue_depth = {queue_depth}"));
    }
    Ok(())
}

fn check_metrics(text: &str) -> Result<usize, String> {
    let n = validate_exposition(text)?;
    for needle in [
        "microbank_service_jobs{",
        "microbank_sim_read_latency_cycles_bucket{",
    ] {
        if !text.contains(needle) {
            return Err(format!("exposition missing {needle}"));
        }
    }
    Ok(n)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(status_path) = flag("--status") else {
        eprintln!("usage: obs_check --status FILE [--metrics FILE]");
        std::process::exit(2);
    };
    let status = match std::fs::read_to_string(&status_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs_check: cannot read {status_path}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = check_status(&status) {
        eprintln!("obs_check: status invalid: {e}");
        std::process::exit(1);
    }
    println!("status ok: {status_path}");

    if let Some(metrics_path) = flag("--metrics") {
        let metrics = match std::fs::read_to_string(&metrics_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("obs_check: cannot read {metrics_path}: {e}");
                std::process::exit(1);
            }
        };
        match check_metrics(&metrics) {
            Ok(n) => println!("metrics ok: {metrics_path} ({n} samples)"),
            Err(e) => {
                eprintln!("obs_check: metrics invalid: {e}");
                std::process::exit(1);
            }
        }
    }
}
