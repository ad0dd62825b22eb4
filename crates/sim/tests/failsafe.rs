//! Fail-safe pipeline suite (DESIGN.md §5d): the validation ladder and
//! the typed-error entry points. The cross-cutting invariant: *no*
//! configuration — valid or invalid — may take the process down when
//! entering through the fallible API. (`try_run` ≡ `run` on the golden
//! grid is pinned in `integration_golden.rs`.)

use microbank_sim::simulator::{run, run_many_checked, try_run, SimConfig};
use microbank_sim::SimError;
use microbank_workloads::suite::Workload;

/// The validation ladder rejects a bad config with per-component
/// diagnostics instead of panicking mid-construction.
#[test]
fn invalid_configs_yield_typed_errors_not_panics() {
    // Several independent problems across components, reported at once.
    let mut cfg = SimConfig::paper_default(Workload::MixHigh);
    cfg.mem.queue_size = 0;
    cfg.mem.ubank.n_w = 3; // not a power of two
    cfg.mem.timing.t_ras_ns = 5.0; // < tRCD: impossible device
    cfg.cmp.mshrs_per_core = 0;
    cfg.ctrl_stride = 0;
    let err = try_run(&cfg).expect_err("invalid config must be rejected");
    match &err {
        SimError::InvalidConfig { errors } => {
            let components: Vec<&str> = errors.iter().map(|e| e.component).collect();
            assert!(components.contains(&"MemConfig"), "{components:?}");
            assert!(components.contains(&"CmpConfig"), "{components:?}");
            assert!(components.contains(&"SimConfig"), "{components:?}");
            for e in errors {
                assert!(!e.diagnostics.is_empty(), "diagnostics never empty");
            }
        }
        other => panic!("expected InvalidConfig, got: {other}"),
    }
    let shown = err.to_string();
    assert!(shown.contains("queue_size"), "{shown}");
    assert!(shown.contains("tRAS"), "{shown}");
}

/// The panicking wrapper stays a wrapper: same rejection, as a panic
/// whose message carries the diagnostics.
#[test]
#[should_panic(expected = "unknown SPEC app")]
fn run_panics_with_formatted_diagnostics_on_invalid_config() {
    let cfg = SimConfig::spec_single_channel(Workload::Spec("no.such.app")).quick();
    let _ = run(&cfg);
}

/// The hardened sweep runner: a bad configuration reports a typed `Err`
/// in its own slot while the surviving runs still come back.
#[test]
fn run_many_checked_captures_per_slot_failures() {
    let good = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    let bad = SimConfig::spec_single_channel(Workload::Spec("no.such.app")).quick();
    let results = run_many_checked(&[good, bad]);
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok(), "healthy run must survive the sweep");
    let err = results[1]
        .as_ref()
        .expect_err("unknown app must be rejected");
    match err {
        SimError::InvalidConfig { errors } => {
            assert!(
                errors
                    .iter()
                    .any(|e| e.diagnostics.iter().any(|d| d.contains("unknown SPEC app"))),
                "diagnostics should name the unknown app, got: {errors:?}"
            );
        }
        other => panic!("expected InvalidConfig, got: {other}"),
    }
}
