//! Golden determinism suite: the hot-path refactors in the controller and
//! simulator (incremental queue indexes, the policy-precharge map,
//! idle-tick skipping, completion-carried enqueue cycles, blocked-core
//! skipping) are required to be
//! *behavior-preserving*. Each {scheduler} × {page policy} × {μbank
//! partition} configuration below must reproduce its committed fingerprint
//! exactly — every element is a function of simulated behavior only, never
//! wall clock.
//!
//! When fingerprints drift, `golden_fingerprints_are_reproduced` fails
//! with the complete regenerated `GOLDEN` table in its message. If the
//! change deliberately alters simulated behavior, paste that table over
//! the committed one and scrutinize the diff in review.

use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_faults::FaultConfig;
use microbank_sim::simulator::{golden_fingerprint, run, try_run, SimConfig};
use microbank_telemetry::TelemetryConfig;
use microbank_workloads::suite::Workload;

mod common;
use common::{assert_results_identical, assert_telemetry_identical, multi_channel_cfg};

/// Committed fingerprints (regenerated only on deliberate behavior change).
const GOLDEN: &[(&str, &str, &str, [u64; 13])] = &[
    (
        "1x1",
        "frfcfs",
        "open",
        [
            7996,
            2140,
            0,
            2151,
            2145,
            2,
            0,
            1620,
            520,
            17120,
            2140,
            1015732,
            13233932962532133159,
        ],
    ),
    (
        "1x1",
        "frfcfs",
        "close",
        [
            8011,
            2146,
            0,
            2155,
            2149,
            2,
            0,
            1485,
            661,
            17168,
            2146,
            1016160,
            5121743617116882432,
        ],
    ),
    (
        "1x1",
        "frfcfs",
        "pred",
        [
            8023,
            2150,
            0,
            2154,
            2152,
            2,
            0,
            1462,
            688,
            17200,
            2150,
            1015492,
            3737647099831144546,
        ],
    ),
    (
        "1x1",
        "frfcfs",
        "minopen",
        [
            7980,
            2138,
            0,
            2149,
            2142,
            2,
            0,
            1582,
            556,
            17104,
            2138,
            1016024,
            893861018469252275,
        ],
    ),
    (
        "1x1",
        "frfcfs",
        "tourn",
        [
            8039,
            2148,
            0,
            2156,
            2150,
            2,
            0,
            1464,
            684,
            17184,
            2148,
            1016438,
            12742907351939095494,
        ],
    ),
    (
        "1x1",
        "parbs",
        "open",
        [
            7999,
            2136,
            0,
            2145,
            2139,
            2,
            0,
            1688,
            448,
            17088,
            2136,
            1013420,
            14269536547925486192,
        ],
    ),
    (
        "1x1",
        "parbs",
        "close",
        [
            7926,
            2125,
            0,
            2135,
            2128,
            2,
            0,
            1536,
            589,
            17000,
            2125,
            1012892,
            617837831381716189,
        ],
    ),
    (
        "1x1",
        "parbs",
        "pred",
        [
            7980,
            2139,
            0,
            2147,
            2143,
            2,
            0,
            1496,
            643,
            17112,
            2139,
            1010202,
            12543753609092321841,
        ],
    ),
    (
        "1x1",
        "parbs",
        "minopen",
        [
            7966,
            2135,
            0,
            2144,
            2136,
            2,
            0,
            1597,
            538,
            17080,
            2135,
            1011818,
            3968273135841701865,
        ],
    ),
    (
        "1x1",
        "parbs",
        "tourn",
        [
            7972,
            2137,
            0,
            2145,
            2138,
            2,
            0,
            1523,
            614,
            17096,
            2137,
            1012252,
            5296887314084034763,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "open",
        [
            15237,
            3552,
            0,
            4082,
            3637,
            2,
            2,
            2633,
            917,
            28416,
            3552,
            1069632,
            8031994372379810256,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "close",
        [
            15240,
            3552,
            0,
            3648,
            3615,
            2,
            0,
            209,
            3343,
            28416,
            3552,
            1069504,
            2274558660540245059,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "pred",
        [
            15240,
            3552,
            0,
            3910,
            3877,
            2,
            0,
            525,
            3027,
            28416,
            3552,
            1069504,
            2274558660540245059,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "minopen",
        [
            15240,
            3552,
            0,
            3655,
            3612,
            2,
            0,
            269,
            3283,
            28416,
            3552,
            1069504,
            2274558660540245059,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "tourn",
        [
            15240,
            3552,
            0,
            3683,
            3650,
            2,
            0,
            236,
            3316,
            28416,
            3552,
            1069504,
            2274558660540245059,
        ],
    ),
    (
        "8x8",
        "parbs",
        "open",
        [
            15193,
            3550,
            0,
            4080,
            3639,
            2,
            2,
            2626,
            922,
            28400,
            3550,
            1068824,
            17821259411051779570,
        ],
    ),
    (
        "8x8",
        "parbs",
        "close",
        [
            15177,
            3551,
            0,
            3646,
            3611,
            2,
            0,
            209,
            3342,
            28408,
            3551,
            1068224,
            14940451591944711862,
        ],
    ),
    (
        "8x8",
        "parbs",
        "pred",
        [
            15223,
            3550,
            0,
            3905,
            3872,
            2,
            0,
            531,
            3019,
            28400,
            3550,
            1069040,
            7364169726719467890,
        ],
    ),
    (
        "8x8",
        "parbs",
        "minopen",
        [
            15177,
            3551,
            0,
            3652,
            3609,
            2,
            0,
            274,
            3277,
            28408,
            3551,
            1068224,
            14940451591944711862,
        ],
    ),
    (
        "8x8",
        "parbs",
        "tourn",
        [
            15235,
            3550,
            0,
            3678,
            3646,
            2,
            0,
            240,
            3310,
            28400,
            3550,
            1068560,
            85439036463650342,
        ],
    ),
];

fn config_for(part: &str, sched: &str, policy: &str) -> SimConfig {
    let (nw, nb) = match part {
        "1x1" => (1, 1),
        "8x8" => (8, 8),
        other => panic!("unknown partition {other}"),
    };
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(nw, nb);
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 30_000;
    cfg.scheduler = match sched {
        "frfcfs" => SchedulerKind::FrFcfs,
        "parbs" => SchedulerKind::ParBs { marking_cap: 5 },
        other => panic!("unknown scheduler {other}"),
    };
    cfg.policy = match policy {
        "open" => PolicyKind::Open,
        "close" => PolicyKind::Close,
        "pred" => PolicyKind::Predictive(PredictorKind::Local),
        "minopen" => PolicyKind::MinimalistOpen { window_cycles: 98 },
        "tourn" => PolicyKind::Predictive(PredictorKind::Tournament),
        other => panic!("unknown policy {other}"),
    };
    cfg
}

/// One `GOLDEN` row laid out exactly as rustfmt formats the table.
fn golden_row(part: &str, sched: &str, policy: &str, f: &[u64; 13]) -> String {
    let mut row =
        format!("    (\n        {part:?},\n        {sched:?},\n        {policy:?},\n        [\n");
    for v in f {
        row += &format!("            {v},\n");
    }
    row + "        ],\n    ),\n"
}

#[test]
fn golden_fingerprints_are_reproduced() {
    let mut failures = Vec::new();
    let mut table = String::new();
    for &(part, sched, policy, ref want) in GOLDEN {
        let r = run(&config_for(part, sched, policy));
        let got = golden_fingerprint(&r);
        if got != *want {
            failures.push(format!(
                "{part}/{sched}/{policy}:\n  want {want:?}\n  got  {got:?}"
            ));
        }
        table += &golden_row(part, sched, policy, &got);
    }
    assert!(
        failures.is_empty(),
        "behavior drift in {} golden config(s):\n{}\n\nregenerated table:\n\
         const GOLDEN: &[(&str, &str, &str, [u64; 13])] = &[\n{table}];",
        failures.len(),
        failures.join("\n")
    );
}

/// The fallible entry point is the same run as the panicking wrapper:
/// `try_run` reproduces every committed fingerprint.
#[test]
fn try_run_reproduces_golden_fingerprints() {
    for &(part, sched, policy, ref want) in GOLDEN {
        let r = try_run(&config_for(part, sched, policy)).expect("healthy config");
        assert_eq!(
            golden_fingerprint(&r),
            *want,
            "{part}/{sched}/{policy}: try_run diverged from the committed golden"
        );
    }
}

#[test]
fn golden_runs_are_deterministic_across_repeats() {
    // Same config twice → identical fingerprint (no hidden wall-clock or
    // iteration-order dependence anywhere in the simulated path).
    let (part, sched, policy) = ("8x8", "parbs", "pred");
    let a = golden_fingerprint(&run(&config_for(part, sched, policy)));
    let b = golden_fingerprint(&run(&config_for(part, sched, policy)));
    assert_eq!(a, b);
}

/// The reliability subsystem's hooks must be invisible when disabled:
/// `SimConfig.faults` defaults to `None`, and the table test above already
/// pins that path to the committed fingerprints. This test pins the
/// *stronger* claim: even with a fault engine attached, a clean
/// [`FaultConfig`] (no defects, zero flip rates, no scrubber) reproduces
/// the committed fingerprint bit-identically — the per-read ECC
/// assessment, the remap shim, and the loss of the idle-tick fast path are
/// all behavior-neutral.
#[test]
fn clean_fault_engine_reproduces_golden_fingerprint() {
    for &(part, sched, policy) in &[("8x8", "parbs", "pred"), ("1x1", "frfcfs", "open")] {
        let want = GOLDEN
            .iter()
            .find(|g| g.0 == part && g.1 == sched && g.2 == policy)
            .map(|g| g.3)
            .unwrap();
        let cfg = config_for(part, sched, policy).with_faults(FaultConfig::new(7));
        let r = run(&cfg);
        assert_eq!(
            golden_fingerprint(&r),
            want,
            "{part}/{sched}/{policy}: clean fault engine perturbed the simulated behavior"
        );
        let summary = r.reliability.expect("engine was armed");
        assert!(summary.reads_checked > 0, "ECC hook never ran");
        assert_eq!(
            summary.corrected + summary.detected + summary.miscorrected,
            0
        );
    }
}

/// The event-driven time-skip core (DESIGN §5f) defaults on, so the
/// fingerprint table above is continuously validated against the skipping
/// path. This test pins the other side: disabling skipping via the config
/// knob reproduces the same committed fingerprints with pure per-cycle
/// ticking, so the two drive modes can never drift apart silently. (The
/// CI job that reruns this suite under `MICROBANK_NO_SKIP=1` covers the
/// environment override.)
#[test]
fn per_cycle_reference_reproduces_golden_fingerprints() {
    for &(part, sched, policy) in &[
        ("1x1", "frfcfs", "open"),
        ("8x8", "parbs", "pred"),
        ("8x8", "frfcfs", "close"),
        ("8x8", "parbs", "minopen"),
    ] {
        let want = GOLDEN
            .iter()
            .find(|g| g.0 == part && g.1 == sched && g.2 == policy)
            .map(|g| g.3)
            .unwrap();
        let r = run(&config_for(part, sched, policy).with_time_skip(false));
        assert_eq!(
            golden_fingerprint(&r),
            want,
            "{part}/{sched}/{policy}: per-cycle reference diverged from golden"
        );
    }
}

/// Event-driven time skipping (DESIGN §5f) is a pure reordering of when
/// work executes, never of what executes: on a 16-channel run the
/// per-cycle reference is reproduced bit for bit — every result field,
/// the epoch time-series, the per-μbank heat maps, and the command trace
/// — by the skipping run, with span tracing off and on.
#[test]
fn time_skip_is_behavior_neutral_on_multi_channel_runs() {
    let cfg = multi_channel_cfg().with_telemetry(TelemetryConfig::new(2_500, 4_096));
    let r_ref = run(&cfg.clone().with_time_skip(false));
    for spans in [false, true] {
        let on = cfg.clone().with_time_skip(true).with_spans(spans);
        let r_on = run(&on);
        let tag = format!("skip on, spans {spans}");
        assert_results_identical(&r_ref, &r_on, &tag);
        assert_telemetry_identical(
            r_ref.telemetry.as_ref().unwrap(),
            r_on.telemetry.as_ref().unwrap(),
            &tag,
        );
    }
}

/// The skip axis composes with the reliability engine: a stress fault
/// configuration (defects, flips, scrubber armed) runs largely per-cycle
/// — the scrub schedule and demand retries pin the horizon — but whatever
/// skipping remains must still be invisible.
#[test]
fn time_skip_is_behavior_neutral_under_faults() {
    let cfg = multi_channel_cfg().with_faults(FaultConfig::stress(0xFA_017));
    let per_cycle = run(&cfg.clone().with_time_skip(false));
    let s = per_cycle.reliability.expect("faults armed");
    assert!(
        s.corrected + s.detected > 0,
        "stress config injected no observable errors"
    );
    let skipping = run(&cfg.with_time_skip(true));
    assert_results_identical(&per_cycle, &skipping, "faults, skip on");
}

/// Satellite of the `faults.is_some()` horizon fix: a clean-*armed* fault
/// engine (ECC on, no scrubber) no longer pins the controller to
/// per-cycle ticking, and the skipping run is fingerprint-identical to
/// the per-cycle reference with the same engine attached.
#[test]
fn clean_armed_fault_engine_is_skip_neutral() {
    for &(part, sched, policy) in &[("8x8", "parbs", "pred"), ("1x1", "frfcfs", "open")] {
        let mk = || config_for(part, sched, policy).with_faults(FaultConfig::new(7));
        let per_cycle = run(&mk().with_time_skip(false));
        let skipping = run(&mk().with_time_skip(true));
        assert_eq!(
            golden_fingerprint(&per_cycle),
            golden_fingerprint(&skipping),
            "{part}/{sched}/{policy}: clean-armed engine diverged across the skip axis"
        );
    }
}

/// With faults armed at a fixed seed, repeat runs must be bit-identical:
/// same fingerprint AND same reliability counters. Fault sampling, ECC
/// verdicts, retries, scrub scheduling, and retirement are all seeded
/// state machines with no ambient entropy.
#[test]
fn faults_enabled_runs_are_repeat_deterministic() {
    for &(part, sched, policy) in &[("8x8", "parbs", "pred"), ("1x1", "frfcfs", "close")] {
        let mk = || config_for(part, sched, policy).with_faults(FaultConfig::stress(0xFA_017));
        let a = run(&mk());
        let b = run(&mk());
        assert_eq!(
            golden_fingerprint(&a),
            golden_fingerprint(&b),
            "{part}/{sched}/{policy}: faults-enabled fingerprint drifted between repeats"
        );
        assert_eq!(a.reliability, b.reliability);
        let s = a.reliability.unwrap();
        assert!(
            s.corrected + s.detected > 0,
            "{part}/{sched}/{policy}: stress config injected no observable errors"
        );
    }
}

/// The blast-radius argument (§ retirement granularity): the same physical
/// defects, projected onto finer μbank partitions, retire smaller units
/// and therefore cost strictly less effective capacity.
#[test]
fn finer_partitions_lose_less_capacity_to_the_same_defects() {
    let lost = |part: &str| {
        let cfg = config_for(part, "parbs", "open").with_faults(FaultConfig::stress(0xFA_017));
        run(&cfg).reliability.unwrap().capacity_lost_bytes
    };
    let coarse = lost("1x1");
    let fine = lost("8x8");
    assert!(
        fine < coarse,
        "(8,8) should lose strictly less capacity than (1,1): {fine} vs {coarse}"
    );
    assert!(coarse > 0, "stress config retired nothing at (1,1)");
}

/// Regression test for the warmup latency clamp: a read enqueued during
/// warmup but completing inside the measurement window must have its
/// enqueue time clamped to the warmup boundary, so no recorded latency can
/// exceed the measurement window length. Before the fix, a backlogged
/// (1,1) run recorded multi-window latencies for warmup stragglers,
/// poisoning the histogram tail.
#[test]
fn warmup_stragglers_cannot_exceed_window_latency() {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(1, 1); // minimum BLP → deep backlog
    cfg.warmup_cycles = 20_000;
    cfg.measure_cycles = 10_000;
    let r = run(&cfg);
    assert!(r.read_latency_hist.count() > 0, "no reads completed");
    assert!(
        r.read_latency_hist.max() <= cfg.measure_cycles,
        "read latency {} exceeds the {}-cycle measurement window: \
         warmup enqueue times are leaking into window latencies",
        r.read_latency_hist.max(),
        cfg.measure_cycles
    );
}
