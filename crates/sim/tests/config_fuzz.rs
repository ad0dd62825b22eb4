//! Validation-ladder fuzz (DESIGN.md §5d): an arbitrary bounded
//! `SimConfig` must either be rejected by `validate()` — as a typed
//! `SimError::InvalidConfig` whose every component carries non-empty
//! diagnostics — or complete a tiny `try_run` without panicking. There is
//! no third outcome: the fallible entry point never takes the process
//! down on a bad configuration.
//!
//! The default case count is a CI smoke; `cargo test -- --ignored` runs
//! the full-depth variant.

use microbank_core::geometry::UbankConfig;
use microbank_sim::simulator::{try_run, SimConfig};
use microbank_sim::SimError;
use microbank_workloads::suite::Workload;
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn build_cfg(
    channels: usize,
    nw: usize,
    nb: usize,
    queue: usize,
    stride: u64,
    measure: u64,
    tras: f64,
    trefi: f64,
    cores: usize,
    ib: u32,
    workload: usize,
) -> SimConfig {
    let workload = [Workload::Spec("429.mcf"), Workload::Spec("no.such.app")][workload];
    let mut cfg = SimConfig::paper_default(workload);
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = measure;
    cfg.mem.channels = channels;
    cfg.mem.ubank = UbankConfig { n_w: nw, n_b: nb };
    cfg.mem.queue_size = queue;
    cfg.mem.interleave_base = ib;
    cfg.mem.timing.t_ras_ns = tras;
    cfg.mem.timing.t_refi_ns = trefi;
    cfg.cmp.cores = cores;
    cfg.ctrl_stride = stride;
    cfg
}

/// The property: `try_run` on any generated config either succeeds or
/// returns `InvalidConfig` with substantive diagnostics — never a panic,
/// never an empty rejection.
fn exercise(cfg: SimConfig) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| try_run(&cfg)));
    let result = match outcome {
        Ok(r) => r,
        Err(_) => panic!("try_run panicked instead of returning SimError for {cfg:?}"),
    };
    match result {
        Ok(r) => assert!(r.cycles > 0, "a completed run covers its window"),
        Err(SimError::InvalidConfig { errors }) => {
            assert!(!errors.is_empty(), "rejection must carry a component");
            for e in &errors {
                assert!(
                    !e.diagnostics.is_empty(),
                    "{} rejected with no diagnostics",
                    e.component
                );
            }
        }
        Err(other) => panic!("unexpected error class for {cfg:?}: {other}"),
    }
}

/// Deterministic anchor: the all-valid corner of the fuzz domain reaches
/// the run path. Guards against the generators drifting into a
/// reject-everything domain where the Ok branch is never exercised.
#[test]
fn valid_corner_of_fuzz_domain_completes_a_run() {
    let cfg = build_cfg(1, 1, 1, 4, 1, 400, 35.0, 7800.0, 1, 6, 0);
    let r = try_run(&cfg).expect("the valid corner must pass validation");
    assert!(r.cycles > 0);
}

/// 272 cores are 68 four-core clusters, more than the directory's
/// 64-bit sharer mask can name: the valid corner with that many cores is
/// rejected up front instead of overflowing a shift mid-run.
#[test]
fn more_clusters_than_sharer_bits_is_rejected() {
    let cfg = build_cfg(1, 1, 1, 4, 1, 400, 35.0, 7800.0, 272, 6, 0);
    exercise(cfg.clone());
    let err = try_run(&cfg).expect_err("68 clusters must be rejected");
    assert!(err.to_string().contains("68 clusters"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_configs_validate_or_run_smoke(
        (channels, nw, nb, queue) in (
            prop::sample::select(vec![0usize, 1, 2]),
            prop::sample::select(vec![0usize, 1, 3, 4, 16, 32]),
            prop::sample::select(vec![0usize, 1, 3, 4, 16, 32]),
            prop::sample::select(vec![0usize, 1, 4]),
        ),
        (stride, measure) in (
            prop::sample::select(vec![0u64, 1, 2, 3]),
            prop::sample::select(vec![0u64, 400]),
        ),
        (tras, trefi) in (
            prop::sample::select(vec![-1.0f64, 0.0, 5.0, 35.0, f64::NAN]),
            prop::sample::select(vec![100.0f64, 7800.0]),
        ),
        (cores, ib, workload) in (
            prop::sample::select(vec![0usize, 1, 2, 272]),
            prop::sample::select(vec![6u32, 9, 60]),
            0usize..2,
        ),
    ) {
        exercise(build_cfg(
            channels, nw, nb, queue, stride, measure, tras, trefi, cores, ib, workload,
        ));
    }
}

proptest! {
    // Full depth (256 cases), opt-in: `cargo test -- --ignored`.
    #[test]
    #[ignore]
    fn arbitrary_configs_validate_or_run_full(
        (channels, nw, nb, queue) in (
            prop::sample::select(vec![0usize, 1, 2, 4, 16]),
            prop::sample::select(vec![0usize, 1, 2, 3, 4, 8, 16, 32]),
            prop::sample::select(vec![0usize, 1, 2, 3, 4, 8, 16, 32]),
            prop::sample::select(vec![0usize, 1, 2, 4, 64]),
        ),
        (stride, measure) in (
            prop::sample::select(vec![0u64, 1, 2, 3, 5]),
            prop::sample::select(vec![0u64, 400, 1000]),
        ),
        (tras, trefi) in (
            prop::sample::select(vec![-1.0f64, 0.0, 5.0, 35.0, 1e9, f64::NAN, f64::INFINITY]),
            prop::sample::select(vec![100.0f64, 351.0, 7800.0]),
        ),
        (cores, ib, workload) in (
            prop::sample::select(vec![0usize, 1, 2, 4, 272]),
            prop::sample::select(vec![6u32, 8, 9, 12, 60]),
            0usize..2,
        ),
    ) {
        exercise(build_cfg(
            channels, nw, nb, queue, stride, measure, tras, trefi, cores, ib, workload,
        ));
    }
}
