//! Multi-tenant QoS suite (DESIGN §5g): the golden-identity pin — an
//! accounting-only `QosConfig` must be invisible to every simulated
//! behavior — plus determinism and skip invariance of the regulated
//! path, and validation routing through `SimConfig::validate`.

use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_sim::simulator::{golden_fingerprint, run, SimConfig};
use microbank_sim::{QosConfig, QosGranularity};
use microbank_telemetry::TelemetryConfig;
use microbank_workloads::suite::Workload;

/// Two corners of the golden grid (kept in sync with
/// `integration_golden.rs`): the degenerate partition and the μbank one.
fn golden_corner(part: (usize, usize), sched: SchedulerKind, policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(part.0, part.1);
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 30_000;
    cfg.scheduler = sched;
    cfg.policy = policy;
    cfg
}

fn corners() -> Vec<SimConfig> {
    vec![
        golden_corner((1, 1), SchedulerKind::FrFcfs, PolicyKind::Open),
        golden_corner(
            (8, 8),
            SchedulerKind::ParBs { marking_cap: 5 },
            PolicyKind::Predictive(PredictorKind::Local),
        ),
    ]
}

/// A short multi-channel TenantMix run under active regulation: the
/// latency-critical tenant is unregulated at priority 0, the batch tenant
/// carries a per-μbank budget at priority 1.
fn regulated_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default(Workload::TenantMix { lc_cores: 8 });
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 15_000;
    cfg.with_qos(
        QosConfig::tracking()
            .with_granularity(QosGranularity::Ubank)
            .with_replenish_period(1_000)
            .with_tenant(None, 0)
            .with_tenant(Some(4), 1),
    )
}

/// The golden-identity pin: a constructed-but-disabled regulator
/// (`QosConfig::tracking()` — no budgets, no priorities) reproduces the
/// unarmed run bit for bit on every simulated-behavior surface, on both
/// sides of the skip axis. Mirrors the clean-armed-fault-engine
/// neutrality pin.
#[test]
fn tracking_qos_is_behavior_neutral() {
    for cfg in corners() {
        let base = run(&cfg);
        for skip in [true, false] {
            let armed = run(&cfg
                .clone()
                .with_qos(QosConfig::tracking())
                .with_time_skip(skip));
            let tag = format!("{:?}/{:?}, skip {skip}", cfg.mem.ubank, cfg.scheduler);
            assert_eq!(
                golden_fingerprint(&base),
                golden_fingerprint(&armed),
                "{tag}: tracking QoS perturbed simulated behavior"
            );
            assert_eq!(base.dram, armed.dram, "{tag}: DRAM counters diverged");
            assert_eq!(
                base.read_latency_hist, armed.read_latency_hist,
                "{tag}: latency histogram diverged"
            );
            let report = armed.qos.expect("tracking config arms the report");
            assert_eq!(report.throttled, 0, "{tag}: tracking config throttled");
            assert_eq!(report.reclaimed, 0, "{tag}: tracking config reclaimed");
            let shares: f64 = report.tenants.iter().map(|t| t.share).sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{tag}: bandwidth shares sum to {shares}, not 1"
            );
        }
        assert!(base.qos.is_none(), "unarmed run must not report QoS");
    }
}

/// Telemetry identity under the tracking config: heat maps and command
/// traces byte-identical; the epoch timeline may only *append* the
/// per-tenant columns — every pre-existing column stays byte-identical.
#[test]
fn tracking_qos_only_appends_timeline_columns() {
    let cfg = corners()
        .pop()
        .unwrap()
        .with_telemetry(TelemetryConfig::new(5_000, 1_024));
    let base = run(&cfg);
    let armed = run(&cfg.clone().with_qos(QosConfig::tracking()));
    let (t_base, t_armed) = (base.telemetry.unwrap(), armed.telemetry.unwrap());
    assert_eq!(t_base.heat[0].to_csv(), t_armed.heat[0].to_csv());
    assert_eq!(t_base.trace, t_armed.trace, "command trace diverged");
    let base_csv = t_base.timeline.to_csv();
    let armed_csv = t_armed.timeline.to_csv();
    let (base_lines, armed_lines): (Vec<&str>, Vec<&str>) =
        (base_csv.lines().collect(), armed_csv.lines().collect());
    assert_eq!(base_lines.len(), armed_lines.len(), "epoch count diverged");
    assert!(
        armed_lines[0].ends_with(",tenant0.cols"),
        "{}",
        armed_lines[0]
    );
    for (b, a) in base_lines.iter().zip(&armed_lines) {
        assert!(
            a.starts_with(*b) && a.as_bytes()[b.len()] == b',',
            "timeline row rewritten, not appended:\n  base  {b}\n  armed {a}"
        );
    }
}

/// Active regulation is deterministic and skip-invariant: repeat runs
/// and the per-cycle reference agree on the fingerprint AND the full
/// per-tenant report (shares, percentiles, throttle/reclaim counters).
#[test]
fn regulated_tenant_mix_is_deterministic_and_invariant() {
    let cfg = regulated_cfg();
    let reference = run(&cfg);
    let report = format!("{:?}", reference.qos);
    for (tag, variant) in [
        ("repeat", cfg.clone()),
        ("skip off", cfg.clone().with_time_skip(false)),
    ] {
        let r = run(&variant);
        assert_eq!(
            golden_fingerprint(&reference),
            golden_fingerprint(&r),
            "{tag}: regulated fingerprint diverged"
        );
        assert_eq!(report, format!("{:?}", r.qos), "{tag}: QoS report diverged");
    }
    let q = reference.qos.expect("regulated run reports QoS");
    assert_eq!(q.tenants.len(), 2, "TenantMix reports both tenants");
    assert!(
        q.tenants.iter().all(|t| t.cols > 0),
        "both tenants must see service: {q:?}"
    );
    assert!(
        q.throttled + q.reclaimed > 0,
        "a 4-token/μbank/1k-cycle budget must bind on the batch tenant"
    );
}

/// Bad QoS knobs are rejected through `SimConfig::validate` alongside
/// every other component, not at arm time.
#[test]
fn invalid_qos_config_is_rejected_by_sim_validate() {
    let cfg = regulated_cfg();
    assert!(cfg.validate().is_ok(), "the regulated config must be valid");
    let bad = cfg.with_qos(QosConfig::tracking().with_replenish_period(0));
    match bad.validate() {
        Err(microbank_sim::SimError::InvalidConfig { errors }) => {
            assert!(
                errors
                    .iter()
                    .any(|e| e.diagnostics.iter().any(|d| d.contains("replenish_period"))),
                "diagnostics should name the bad knob: {errors:?}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
