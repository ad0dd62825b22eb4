//! Integration tests for the sweep service daemon (DESIGN.md §5i).
//!
//! Almost everything here drives the real job API through
//! [`SweepService::route`] (no sockets — the HTTP listener has its own
//! fuzz suite in the telemetry crate) and asserts the service-level
//! contracts: admission validation, golden-fingerprint identity with
//! direct `try_run`, cancellation, deadlines, bounded admission,
//! checkpoint/resume byte-identity of the durable artifacts, resume of
//! exactly the uncertified slots, and quarantine of a corrupt manifest.
//! One test binds the listener to scrape the live `/status` and
//! `/metrics` while a job runs.

use microbank_sim::service::{golden_fp_from_values, ServiceConfig, SweepService};
use microbank_sim::simulator::{golden_fingerprint, try_run, SimConfig};
use microbank_telemetry::json::{self, JsonValue};
use microbank_telemetry::metrics::validate_exposition;
use microbank_telemetry::status::http_get;
use microbank_telemetry::{HttpRequest, HttpResponse};
use microbank_workloads::suite::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microbank-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn req(method: &str, path: &str, body: &str) -> HttpRequest {
    HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body: body.as_bytes().to_vec(),
    }
}

fn send(service: &SweepService, method: &str, path: &str, body: &str) -> HttpResponse {
    service
        .route(&req(method, path, body))
        .unwrap_or_else(|| panic!("{method} {path}: not a job-API route"))
}

/// Poll `GET /jobs/{id}` until the job reaches `state` (label) or the
/// deadline passes; returns the parsed detail body.
fn wait_for_state(service: &SweepService, id: &str, state: &str, within: Duration) -> JsonValue {
    let deadline = Instant::now() + within;
    loop {
        let resp = send(service, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(resp.code, 200, "detail: {}", resp.body);
        let v = json::parse(&resp.body).expect("detail is valid JSON");
        if v.get("state").and_then(|s| s.as_str()) == Some(state) {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state:?}; last detail: {}",
            resp.body
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Extract one slot's golden fingerprint from a parsed job detail.
fn slot_fp(detail: &JsonValue, slot_id: &str) -> [u64; 13] {
    let slots = detail.get("slots").expect("slots array").items();
    let slot = slots
        .iter()
        .find(|s| s.get("id").and_then(|i| i.as_str()) == Some(slot_id))
        .unwrap_or_else(|| panic!("no slot {slot_id}"));
    assert_eq!(slot.get("state").and_then(|s| s.as_str()), Some("ok"));
    let values: Vec<f64> = slot
        .get("values")
        .expect("values")
        .items()
        .iter()
        .map(|v| match v {
            JsonValue::Number(n) => *n,
            other => panic!("non-numeric value {other:?}"),
        })
        .collect();
    golden_fp_from_values(&values).expect("projection carries the fingerprint")
}

/// The quick two-slot jobspec used by the identity and resume tests,
/// alongside the SimConfigs the codec is expected to reconstruct.
const TWO_SLOTS: &str = r#"{"name":"identity","slots":[
    {"id":"mix","workload":"mix-high","quick":true},
    {"id":"mcf","workload":"429.mcf","quick":true,"seed":7}
]}"#;

fn two_slot_configs() -> [(&'static str, SimConfig); 2] {
    let mix = SimConfig::paper_default(Workload::MixHigh).quick();
    let mut mcf = SimConfig::paper_default(Workload::Spec("429.mcf")).quick();
    mcf.seed = 7;
    [("mix", mix), ("mcf", mcf)]
}

/// Tentpole acceptance: results served by the daemon are bit-identical
/// to direct `try_run`, at 1 and 2 workers.
#[test]
fn service_results_match_direct_try_run_at_1_and_2_workers() {
    let mut manifests = Vec::new();
    for workers in [1usize, 2] {
        let mut cfg = ServiceConfig::new(test_dir(&format!("golden-w{workers}")));
        cfg.workers = workers;
        let dir = cfg.dir.clone();
        let service = SweepService::start(cfg).expect("start");
        let resp = send(&service, "POST", "/jobs", TWO_SLOTS);
        assert_eq!(resp.code, 202, "admit: {}", resp.body);
        service.wait_idle();
        let detail = wait_for_state(&service, "job-1", "done", Duration::from_secs(60));
        for (slot_id, direct_cfg) in two_slot_configs() {
            let direct = try_run(&direct_cfg).expect("direct run");
            assert_eq!(
                slot_fp(&detail, slot_id),
                golden_fingerprint(&direct),
                "slot {slot_id} diverged from direct try_run at {workers} workers"
            );
        }
        drop(service);
        manifests.push(std::fs::read(dir.join("job-1.manifest.json")).expect("manifest"));
    }
    assert_eq!(
        manifests[0], manifests[1],
        "manifest bytes must not depend on worker count"
    );
}

/// Invalid configs are rejected with the full per-constraint report and
/// never enqueued.
#[test]
fn invalid_jobs_are_rejected_with_a_report_and_never_enqueued() {
    let service = SweepService::start(ServiceConfig::new(test_dir("reject"))).expect("start");

    // Unknown workload label.
    let resp = send(
        &service,
        "POST",
        "/jobs",
        r#"[{"workload":"no-such-suite"}]"#,
    );
    assert_eq!(resp.code, 400);
    assert!(resp.body.contains("unknown label"), "{}", resp.body);

    // Unknown field + validation-ladder failure (zero channels), both
    // reported in one response.
    let resp = send(
        &service,
        "POST",
        "/jobs",
        r#"[{"workload":"mix-high","quick":true,"channels":0,"bogus":1}]"#,
    );
    assert_eq!(resp.code, 400);
    assert!(resp.body.contains("unknown field"), "{}", resp.body);
    assert!(resp.body.contains("channels"), "{}", resp.body);

    // Duplicate slot ids.
    let resp = send(
        &service,
        "POST",
        "/jobs",
        r#"[{"id":"a","workload":"mix-high","quick":true},{"id":"a","workload":"mix-high","quick":true}]"#,
    );
    assert_eq!(resp.code, 400, "{}", resp.body);

    // Nothing was admitted.
    let resp = send(&service, "GET", "/jobs", "");
    let v = json::parse(&resp.body).expect("list is JSON");
    assert_eq!(v.get("jobs").expect("jobs").items().len(), 0);
}

/// A slot spec slow enough that cancellation/deadline always lands
/// mid-run (quick warmup, but a long measure phase).
const SLOW_JOB: &str = r#"{"name":"slow","slots":[
    {"id":"long","workload":"mix-high","quick":true,"measure_cycles":40000000}
]}"#;

#[test]
fn delete_cancels_a_running_job() {
    let mut cfg = ServiceConfig::new(test_dir("cancel"));
    cfg.workers = 1;
    let service = SweepService::start(cfg).expect("start");
    let resp = send(&service, "POST", "/jobs", SLOW_JOB);
    assert_eq!(resp.code, 202, "{}", resp.body);
    wait_for_state(&service, "job-1", "running", Duration::from_secs(10));

    let resp = send(&service, "DELETE", "/jobs/job-1", "");
    assert_eq!(resp.code, 202, "{}", resp.body);
    let detail = wait_for_state(&service, "job-1", "cancelled", Duration::from_secs(20));
    let slot = &detail.get("slots").unwrap().items()[0];
    assert_eq!(slot.get("state").and_then(|s| s.as_str()), Some("failed"));
    let err = slot.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(err.contains("cancelled"), "slot error: {err:?}");

    // Cancelling a terminal job is a conflict, not a crash.
    let resp = send(&service, "DELETE", "/jobs/job-1", "");
    assert_eq!(resp.code, 409, "{}", resp.body);
}

#[test]
fn deadline_expiry_times_a_job_out() {
    let mut cfg = ServiceConfig::new(test_dir("deadline"));
    cfg.workers = 1;
    let service = SweepService::start(cfg).expect("start");
    let body = r#"{"name":"slow","deadline_ms":400,"slots":[
        {"id":"long","workload":"mix-high","quick":true,"measure_cycles":40000000}
    ]}"#;
    let resp = send(&service, "POST", "/jobs", body);
    assert_eq!(resp.code, 202, "{}", resp.body);
    let detail = wait_for_state(&service, "job-1", "timed-out", Duration::from_secs(20));
    let slot = &detail.get("slots").unwrap().items()[0];
    let err = slot.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(err.contains("deadline"), "slot error: {err:?}");
}

#[test]
fn full_queue_yields_429_with_retry_after() {
    let mut cfg = ServiceConfig::new(test_dir("backpressure"));
    cfg.workers = 1;
    cfg.queue_cap = 1;
    let service = SweepService::start(cfg).expect("start");
    let resp = send(&service, "POST", "/jobs", SLOW_JOB);
    assert_eq!(resp.code, 202, "{}", resp.body);

    let resp = send(&service, "POST", "/jobs", SLOW_JOB);
    assert_eq!(resp.code, 429, "{}", resp.body);
    assert!(
        resp.headers.iter().any(|(k, _)| *k == "Retry-After"),
        "429 must carry Retry-After"
    );

    // Freeing the slot re-opens admission.
    send(&service, "DELETE", "/jobs/job-1", "");
    wait_for_state(&service, "job-1", "cancelled", Duration::from_secs(20));
    let resp = send(&service, "POST", "/jobs", SLOW_JOB);
    assert_eq!(resp.code, 202, "{}", resp.body);
    send(&service, "DELETE", "/jobs/job-2", "");
    wait_for_state(&service, "job-2", "cancelled", Duration::from_secs(20));
}

/// Checkpoint/resume byte-identity: interrupt a job mid-flight via
/// graceful drain, restart the service over the same directory, and the
/// final manifest must be byte-identical to an uninterrupted control
/// run — certified slots are never re-executed, and nothing about the
/// interruption leaks into the durable artifacts.
#[test]
fn drain_checkpoint_then_restart_resumes_byte_identically() {
    let body = r#"{"name":"resume","slots":[
        {"id":"s0","workload":"mix-high","quick":true},
        {"id":"s1","workload":"mix-high","quick":true,"seed":11},
        {"id":"s2","workload":"mix-high","quick":true,"seed":12}
    ]}"#;

    // Control: run to completion uninterrupted.
    let control_dir = test_dir("resume-control");
    {
        let mut cfg = ServiceConfig::new(&control_dir);
        cfg.workers = 1;
        let service = SweepService::start(cfg).expect("start control");
        assert_eq!(send(&service, "POST", "/jobs", body).code, 202);
        service.wait_idle();
        wait_for_state(&service, "job-1", "done", Duration::from_secs(90));
    }
    let control = std::fs::read(control_dir.join("job-1.manifest.json")).expect("control manifest");

    // Interrupted: drain after the first slot certifies, mid-second-slot.
    let dir = test_dir("resume-victim");
    {
        let mut cfg = ServiceConfig::new(&dir);
        cfg.workers = 1;
        cfg.drain_grace_ms = 100;
        let mut service = SweepService::start(cfg).expect("start victim");
        assert_eq!(send(&service, "POST", "/jobs", body).code, 202);
        // Wait for slot s0 to certify, then pull the plug.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let resp = send(&service, "GET", "/jobs/job-1", "");
            if resp.body.contains("\"id\":\"s0\",\"state\":\"ok\"") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "s0 never certified: {}",
                resp.body
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(send(&service, "POST", "/shutdown", "").code, 202);
        service.shutdown();
        // The checkpoint persisted the job as queued with its certified
        // records; the in-flight slot was discarded whole.
        let queue = std::fs::read_to_string(dir.join("sweepd.queue.json")).expect("queue file");
        assert!(queue.contains("\"state\":\"queued\""), "{queue}");
    }

    // Restart over the same directory and let it finish.
    {
        let mut cfg = ServiceConfig::new(&dir);
        cfg.workers = 1;
        let service = SweepService::start(cfg).expect("restart");
        service.wait_idle();
        wait_for_state(&service, "job-1", "done", Duration::from_secs(90));
    }
    let resumed = std::fs::read(dir.join("job-1.manifest.json")).expect("resumed manifest");
    assert_eq!(
        control, resumed,
        "resumed manifest must be byte-identical to the uninterrupted run"
    );
}

/// Three short slots: enough work for a scraper to watch, cheap enough
/// to run several times per test.
const SHORT_JOB: &str = r#"{"name":"short","slots":[
    {"id":"s0","workload":"mix-high","warmup_cycles":2000,"measure_cycles":8000},
    {"id":"s1","workload":"mix-high","warmup_cycles":2000,"measure_cycles":8000,"seed":11},
    {"id":"s2","workload":"429.mcf","warmup_cycles":2000,"measure_cycles":8000}
]}"#;

/// Start a one-worker service over `dir`, wait for `job-1` to finish,
/// and return its detail. The service drains when it goes out of scope.
fn run_until_done(dir: &Path, admit: Option<&str>) -> JsonValue {
    let mut cfg = ServiceConfig::new(dir);
    cfg.workers = 1;
    let service = SweepService::start(cfg).expect("start");
    if let Some(body) = admit {
        assert_eq!(send(&service, "POST", "/jobs", body).code, 202);
    }
    wait_for_state(&service, "job-1", "done", Duration::from_secs(60))
}

/// Mark the finished `job-1` live again in the durable queue, as if the
/// daemon had died before persisting it terminal: the next start
/// resumes the job from whatever its manifest holds.
fn revive_job(dir: &Path) {
    let path = dir.join("sweepd.queue.json");
    let queue = std::fs::read_to_string(&path).expect("queue file");
    assert!(queue.contains("\"state\":\"done\""), "{queue}");
    std::fs::write(
        &path,
        queue.replace("\"state\":\"done\"", "\"state\":\"queued\""),
    )
    .unwrap();
}

/// `job-1`'s manifest records, in manifest order.
fn manifest_slots(dir: &Path) -> Vec<JsonValue> {
    let text = std::fs::read_to_string(dir.join("job-1.manifest.json")).expect("manifest");
    let doc = json::parse(&text).expect("manifest is JSON");
    doc.get("slots").expect("slots").items().to_vec()
}

/// A live job's manifest that does not parse is moved aside to the next
/// free `corrupt-<n>` name and the job re-executes, instead of the
/// daemon silently overwriting the evidence.
#[test]
fn malformed_manifest_is_quarantined_not_silently_dropped() {
    let dir = test_dir("corrupt");
    let manifest = dir.join("job-1.manifest.json");
    run_until_done(&dir, Some(SHORT_JOB));
    let complete = std::fs::read(&manifest).expect("manifest");

    // A truncated write: valid prefix, cut mid-document.
    revive_job(&dir);
    let truncated = r#"{"sweep":"job-1","slots":[{"id":"s0","#;
    std::fs::write(&manifest, truncated).unwrap();
    run_until_done(&dir, None);
    let quarantined = dir.join("job-1.manifest.corrupt-1.json");
    assert_eq!(
        std::fs::read_to_string(&quarantined).expect("quarantine file must exist"),
        truncated
    );
    assert_eq!(
        std::fs::read(&manifest).expect("re-executed manifest"),
        complete,
        "the re-executed job rebuilds the same manifest"
    );

    // A second corrupt manifest lands in the next slot, preserving the
    // first for inspection.
    revive_job(&dir);
    std::fs::write(&manifest, "not json at all").unwrap();
    run_until_done(&dir, None);
    assert!(dir.join("job-1.manifest.corrupt-2.json").exists());
    assert_eq!(std::fs::read_to_string(&quarantined).unwrap(), truncated);
}

/// Restart re-executes exactly the uncertified slots: a record that is
/// `ok` under the slot's current config fingerprint is kept as stored
/// (its sentinel values prove it was not re-run), while an `ok` record
/// under a stale fingerprint and a `failed` record are both replaced by
/// real results.
#[test]
fn restart_reexecutes_exactly_the_uncertified_slots() {
    let dir = test_dir("uncertified");
    run_until_done(&dir, Some(SHORT_JOB));
    let original = manifest_slots(&dir);
    let fp = |i: usize| original[i].get("config_fp").unwrap().as_str().unwrap();

    revive_job(&dir);
    let doctored = format!(
        r#"{{"sweep":"job-1","slots":[{{"id":"s0","config_fp":"{}","status":"ok","values":[1.5,-2.25]}},{{"id":"s1","config_fp":"0000000000000000","status":"ok","values":[7]}},{{"id":"s2","config_fp":"{}","status":"failed","error":"injected","values":[]}}]}}"#,
        fp(0),
        fp(2)
    );
    std::fs::write(dir.join("job-1.manifest.json"), doctored).unwrap();
    let detail = run_until_done(&dir, None);

    let resumed = manifest_slots(&dir);
    assert_eq!(resumed.len(), 3);
    assert_eq!(
        resumed[0].get("values").unwrap().render(),
        "[1.5,-2.25]",
        "s0 is certified and must not re-run"
    );
    assert_eq!(resumed[0].get("config_fp"), original[0].get("config_fp"));
    for i in [1, 2] {
        assert_eq!(
            resumed[i].render(),
            original[i].render(),
            "slot s{i} must be re-executed to its real result"
        );
    }
    let s0 = &detail.get("slots").unwrap().items()[0];
    assert_eq!(s0.get("values").unwrap().render(), "[1.5,-2.25]");
}

/// The live endpoints: while a multi-slot job runs, a concurrent
/// scraper fetches `/status` and `/metrics`; every status document
/// parses, every exposition validates, and the final exposition carries
/// the job count and the executed slots' run results.
#[test]
fn status_endpoint_serves_parseable_documents_during_a_live_sweep() {
    let mut cfg = ServiceConfig::new(test_dir("live"));
    cfg.workers = 1;
    let mut service = SweepService::start(cfg).expect("start");
    let addr = service
        .serve("127.0.0.1:0")
        .expect("ephemeral bind must succeed");

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = Vec::new();
            loop {
                if let (Ok(s), Ok(m)) = (http_get(&addr, "/status"), http_get(&addr, "/metrics")) {
                    snapshots.push((s, m));
                }
                if stop.load(Ordering::Acquire) {
                    return snapshots;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    assert_eq!(send(&service, "POST", "/jobs", SHORT_JOB).code, 202);
    wait_for_state(&service, "job-1", "done", Duration::from_secs(60));

    let status = json::parse(&http_get(&addr, "/status").unwrap()).expect("final status is JSON");
    assert_eq!(status.get("service").unwrap().as_str(), Some("sweepd"));
    assert_eq!(status.get("queue_depth").unwrap().as_f64(), Some(0.0));
    let job = &status.get("jobs").unwrap().items()[0];
    assert_eq!(job.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(job.get("pending").unwrap().as_f64(), Some(0.0));
    let metrics = http_get(&addr, "/metrics").unwrap();
    validate_exposition(&metrics).expect("final exposition valid");
    for needle in [
        "microbank_service_jobs{state=\"done\"} 1",
        "microbank_sim_ipc{workload=\"mix-high\"}",
        "microbank_sim_read_latency_cycles_bucket",
        "microbank_sweep_slot_seconds_count 3",
    ] {
        assert!(metrics.contains(needle), "missing {needle}:\n{metrics}");
    }

    stop.store(true, Ordering::Release);
    let snapshots = scraper.join().unwrap();
    assert!(!snapshots.is_empty(), "the scraper never got a response");
    for (status, metrics) in &snapshots {
        json::parse(status).expect("every scraped status parses");
        validate_exposition(metrics).expect("every scraped exposition parses");
    }
}
