//! Live observability suite: the sweep status surface (status.json +
//! HTTP endpoint), the metrics exposition, the result exporter, and the
//! harness span tracer. Everything here is observation, and the span
//! test below pins down that it cannot change simulated results.

use microbank_sim::simulator::{run_instrumented, try_run, SimConfig};
use microbank_sim::{http_get, summarize, MetricsRegistry, SlotStatus, SweepRunner, SweepSlot};
use microbank_telemetry::json::parse;
use microbank_telemetry::metrics::validate_exposition;
use microbank_telemetry::TelemetryConfig;
use microbank_workloads::suite::Workload;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{assert_results_identical, assert_telemetry_identical, multi_channel_cfg};

fn quick_cfg(seed_shift: u64) -> SimConfig {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 15_000;
    cfg.seed ^= seed_shift;
    cfg
}

fn slots(n: u64) -> Vec<SweepSlot> {
    (0..n)
        .map(|i| SweepSlot {
            id: format!("slot_{i}"),
            cfg: quick_cfg(i),
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("microbank_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tentpole acceptance: while slots execute, a concurrent scraper can
/// fetch `/status` and `/metrics`; every fetched status document is
/// well-formed JSON, every exposition passes the Prometheus validator,
/// and the final state reports the whole sweep done.
#[test]
fn status_endpoint_serves_parseable_documents_during_a_live_sweep() {
    let dir = temp_dir("live");
    let slots = slots(3);
    let mut runner = SweepRunner::new("live", &dir);
    let addr = runner
        .serve_status("127.0.0.1:0")
        .expect("ephemeral bind must succeed");

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let status = http_get(&addr, "/status");
                let metrics = http_get(&addr, "/metrics");
                if let (Ok(s), Ok(m)) = (status, metrics) {
                    snapshots.push((s, m));
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            snapshots
        })
    };

    let records = runner.run_slots(&slots, summarize).expect("sweep runs");
    assert_eq!(records.len(), 3);
    assert!(records.iter().all(|r| r.status == SlotStatus::Ok));
    assert!(
        records.iter().all(|r| !r.resumed && r.secs > 0.0),
        "executed slots must report wall time"
    );

    // Final state, fetched over the live endpoint.
    let final_status = http_get(&addr, "/status").unwrap();
    let doc = parse(&final_status).expect("final status is JSON");
    assert_eq!(doc.get("sweep").unwrap().as_str(), Some("live"));
    assert_eq!(doc.get("total_slots").unwrap().as_f64(), Some(3.0));
    assert_eq!(doc.get("done").unwrap().as_f64(), Some(3.0));
    assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
    let final_metrics = http_get(&addr, "/metrics").unwrap();
    validate_exposition(&final_metrics).expect("final exposition valid");
    assert!(final_metrics.contains("microbank_sweep_slots_done 3"));
    assert!(
        final_metrics.contains("microbank_sim_ipc"),
        "per-slot result metrics must be exported:\n{final_metrics}"
    );
    assert!(final_metrics.contains("microbank_sweep_slot_seconds_bucket"));

    stop.store(true, Ordering::Release);
    let snapshots = scraper.join().unwrap();
    for (status, metrics) in &snapshots {
        parse(status).expect("every scraped status parses");
        validate_exposition(metrics).expect("every scraped exposition parses");
    }

    drop(runner); // stops the server
    let _ = std::fs::remove_dir_all(&dir);
}

/// The on-disk status artifact: written per slot even with no endpoint,
/// and a resumed re-run reports every slot as `resumed`.
#[test]
fn status_file_tracks_progress_and_resume() {
    let dir = temp_dir("file");
    let slots = slots(2);
    {
        let mut runner = SweepRunner::new("filetest", &dir);
        runner.run_slots(&slots, summarize).unwrap();
        let text = std::fs::read_to_string(runner.status_path()).expect("status.json written");
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("done").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("resumed").unwrap().as_f64(), Some(0.0));
        let states: Vec<&str> = doc
            .get("slots")
            .unwrap()
            .items()
            .iter()
            .map(|s| s.get("state").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(states, ["ok", "ok"]);
    }
    // Second invocation: everything resumes from the manifest.
    let mut runner = SweepRunner::new("filetest", &dir);
    let records = runner.run_slots(&slots, summarize).unwrap();
    assert!(records.iter().all(|r| r.resumed && r.secs == 0.0));
    let doc = parse(&std::fs::read_to_string(runner.status_path()).unwrap()).unwrap();
    assert_eq!(doc.get("resumed").unwrap().as_f64(), Some(2.0));
    assert_eq!(
        doc.get("eta_secs").unwrap().as_f64(),
        None,
        "all-resumed sweep has no ETA"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SimResult::record_metrics` exports a valid exposition: command
/// counters by kind, headline gauges, and a monotone read-latency
/// histogram consistent with its `_count`.
#[test]
fn sim_result_exports_a_valid_exposition() {
    let r = try_run(&quick_cfg(0)).unwrap();
    let reg = MetricsRegistry::new();
    r.record_metrics(&reg, &[("slot", "unit")]);
    let text = reg.render_prometheus();
    let n = validate_exposition(&text).expect("exposition must validate");
    assert!(n > 10, "expected a real sample set, got {n}:\n{text}");
    for needle in [
        "microbank_sim_cycles_total",
        "microbank_dram_commands_total",
        "cmd=\"rd\"",
        "microbank_sim_ipc",
        "microbank_sim_row_hit_rate",
        "microbank_sim_read_latency_cycles_bucket",
        "slot=\"unit\"",
    ] {
        assert!(text.contains(needle), "missing {needle}:\n{text}");
    }
    // Counters accumulate across runs (sweep semantics), gauges overwrite.
    r.record_metrics(&reg, &[("slot", "unit")]);
    let text2 = reg.render_prometheus();
    validate_exposition(&text2).unwrap();
    let cycles = |t: &str| -> f64 {
        t.lines()
            .find(|l| l.starts_with("microbank_sim_cycles_total{"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap()
    };
    assert_eq!(cycles(&text2), 2.0 * cycles(&text));
}

/// Span tracing is wall-clock observation and must never feed back into
/// simulated state: every result field and every telemetry artifact
/// (epoch series, heat maps, command trace) is byte-identical with spans
/// on vs off. The traced run produces the fine-grained drive breakdown;
/// the plain run keeps only the coarse phases.
#[test]
fn span_tracing_is_behavior_neutral() {
    let cfg = multi_channel_cfg().with_telemetry(TelemetryConfig::new(2_500, 4_096));
    let (r_off, t_off) = run_instrumented(&cfg);
    let (r_on, t_on) = run_instrumented(&cfg.clone().with_spans(true));
    assert_results_identical(&r_off, &r_on, "spans on");
    assert_telemetry_identical(&t_off, &t_on, "spans on");
    let paths: Vec<&str> = r_on.profile.spans.iter().map(|s| s.path.as_str()).collect();
    for fine in ["drive/ctrl-tick", "drive/cpu-and-noc"] {
        assert!(
            paths.contains(&fine),
            "traced run missing {fine} span: {paths:?}"
        );
    }
    assert!(
        r_off
            .profile
            .spans
            .iter()
            .all(|s| !["ctrl-tick", "cpu-and-noc"].contains(&s.name.as_str())),
        "untraced run leaked fine-grained spans: {:?}",
        r_off.profile.spans
    );
}
