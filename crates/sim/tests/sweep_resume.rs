//! Crash-safe sweep resume (DESIGN.md §5d): a sweep killed mid-flight and
//! re-run must skip the slots its manifest already certifies and finish
//! with final artifacts *byte-identical* to an uninterrupted run's. A
//! failing slot stays isolated in its own record and is re-executed on
//! the next invocation.

use microbank_sim::report::Table;
use microbank_sim::simulator::{CancelToken, SimConfig, SimResult};
use microbank_sim::{SimError, SlotStatus, SweepRunner, SweepSlot};
use microbank_workloads::suite::Workload;
use std::path::PathBuf;

fn slot(id: &str, nw: usize, nb: usize) -> SweepSlot {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(nw, nb);
    cfg.warmup_cycles = 2_000;
    cfg.measure_cycles = 4_000;
    SweepSlot {
        id: id.to_string(),
        cfg,
    }
}

fn four_slots() -> Vec<SweepSlot> {
    vec![
        slot("ubank_1x1", 1, 1),
        slot("ubank_2x2", 2, 2),
        slot("ubank_4x4", 4, 4),
        slot("ubank_8x8", 8, 8),
    ]
}

fn project(r: &SimResult) -> Vec<f64> {
    vec![r.ipc, r.mean_read_latency, r.cycles as f64]
}

fn table_from(records: &[microbank_sim::SlotRecord]) -> Table {
    let mut t = Table::new("sweep-resume demo", &["ipc", "mean_lat", "cycles"]);
    for r in records {
        t.push(r.id.clone(), r.values.clone());
    }
    t
}

/// The written manifest carries no per-slot `attempts` key: every slot
/// runs once per invocation.
fn assert_manifest_has_no_attempts(runner: &SweepRunner) {
    let manifest = std::fs::read_to_string(runner.manifest_path()).unwrap();
    assert!(!manifest.contains("\"attempts\""), "{manifest}");
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microbank_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance: kill a 4-slot sweep after 2 executed slots, re-run, and
/// the resumed sweep (a) skips slots 1–2 via the manifest, (b) executes
/// only 3–4, and (c) produces final artifacts byte-identical to a sweep
/// that was never interrupted.
#[test]
fn killed_sweep_resumes_and_matches_uninterrupted_artifacts() {
    let dir_ref = fresh_dir("ref");
    let dir_killed = fresh_dir("killed");

    // Uninterrupted reference.
    let mut reference = SweepRunner::new("demo", &dir_ref);
    let ref_records = reference.run_slots(&four_slots(), project).unwrap();
    assert_eq!(ref_records.len(), 4);
    assert!(ref_records.iter().all(|r| r.status == SlotStatus::Ok));
    reference.write_table(&table_from(&ref_records)).unwrap();

    // Interrupted run: the injected kill fires before slot 3 executes.
    let mut interrupted = SweepRunner::new("demo", &dir_killed);
    interrupted.kill_after = Some(2);
    let err = interrupted
        .run_slots(&four_slots(), project)
        .expect_err("the injected kill must abort the sweep");
    assert!(matches!(err, SimError::Panic { .. }));
    assert_eq!(
        interrupted.records().len(),
        2,
        "exactly two slots completed before the kill"
    );

    // Resume: a fresh runner on the same directory.
    let mut resumed = SweepRunner::new("demo", &dir_killed);
    let records = resumed.run_slots(&four_slots(), project).unwrap();
    assert_eq!(records.len(), 4);
    assert!(
        records[0].resumed && records[1].resumed,
        "slots 1-2 must be satisfied from the manifest"
    );
    assert!(
        !records[2].resumed && !records[3].resumed,
        "slots 3-4 must actually execute"
    );
    assert!(records.iter().all(|r| r.status == SlotStatus::Ok));
    resumed.write_table(&table_from(&records)).unwrap();

    // Byte-identical artifacts.
    for name in ["demo.csv", "demo.json"] {
        let a = std::fs::read(dir_ref.join(name)).unwrap();
        let b = std::fs::read(dir_killed.join(name)).unwrap();
        assert_eq!(a, b, "{name} diverged between resumed and uninterrupted");
    }

    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_killed);
}

/// A config change invalidates only its own slot: the resume re-executes
/// the slot whose fingerprint no longer matches and reuses the rest.
#[test]
fn resume_reexecutes_slots_whose_config_changed() {
    let dir = fresh_dir("fpchange");
    let mut first = SweepRunner::new("demo", &dir);
    first.run_slots(&four_slots(), project).unwrap();

    let mut slots = four_slots();
    slots[1].cfg.seed ^= 1; // behavior-relevant change to slot 2 only
    let mut second = SweepRunner::new("demo", &dir);
    let records = second.run_slots(&slots, project).unwrap();
    assert!(records[0].resumed && records[2].resumed && records[3].resumed);
    assert!(
        !records[1].resumed,
        "a changed fingerprint must force re-execution"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-slot isolation: an invalid config records a `Failed` outcome with
/// the rendered error, once, while the surrounding slots complete; a
/// later invocation re-attempts it.
#[test]
fn failed_slot_is_isolated_and_reattempted_on_resume() {
    let dir = fresh_dir("failiso");
    let mut slots = four_slots();
    slots[2].cfg = SimConfig::spec_single_channel(Workload::Spec("no.such.app")).quick();

    let mut runner = SweepRunner::new("demo", &dir);
    let records = runner.run_slots(&slots, project).unwrap();
    assert_eq!(records.len(), 4, "a failing slot must not stop the sweep");
    assert_eq!(records[2].status, SlotStatus::Failed);
    assert_manifest_has_no_attempts(&runner);
    let msg = records[2].error.as_deref().unwrap();
    assert!(msg.contains("unknown SPEC app"), "{msg}");
    for i in [0, 1, 3] {
        assert_eq!(records[i].status, SlotStatus::Ok, "slot {i} isolated");
    }

    // A re-run does not treat the failed record as done.
    let mut again = SweepRunner::new("demo", &dir);
    let records = again.run_slots(&slots, project).unwrap();
    assert!(
        !records[2].resumed,
        "failed slots must be re-attempted, not resumed"
    );
    assert!(records[0].resumed && records[1].resumed && records[3].resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancelled slot is recorded once with the `Cancelled` error: its
/// token stays tripped, so a second attempt could only fail the same way.
#[test]
fn cancelled_slot_is_recorded_once_without_retry() {
    let dir = fresh_dir("cancelled");
    let token = CancelToken::new();
    token.cancel();
    let mut slots = four_slots();
    slots.truncate(1);
    slots[0].cfg = slots[0].cfg.clone().with_cancel(token);

    let mut runner = SweepRunner::new("demo", &dir);
    let records = runner.run_slots(&slots, project).unwrap();
    assert_eq!(records[0].status, SlotStatus::Failed);
    let msg = records[0].error.as_deref().unwrap();
    assert!(msg.contains("run cancelled (requested)"), "{msg}");
    assert_manifest_has_no_attempts(&runner);
    let _ = std::fs::remove_dir_all(&dir);
}
