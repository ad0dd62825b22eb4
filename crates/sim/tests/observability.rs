//! Observability suite: the result exporter's metrics exposition and the
//! harness span tracer. Everything here is observation, and the span
//! test below pins down that it cannot change simulated results. The
//! live `/status` and `/metrics` endpoints are the sweep service's and
//! are tested in `service.rs`.

use microbank_sim::simulator::{run, try_run, SimConfig};
use microbank_sim::MetricsRegistry;
use microbank_telemetry::metrics::validate_exposition;
use microbank_telemetry::TelemetryConfig;
use microbank_workloads::suite::Workload;

mod common;
use common::{assert_results_identical, assert_telemetry_identical, multi_channel_cfg};

fn quick_cfg() -> SimConfig {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 15_000;
    cfg
}

/// `SimResult::record_metrics` exports a valid exposition: command
/// counters by kind, headline gauges, and a monotone read-latency
/// histogram consistent with its `_count`.
#[test]
fn sim_result_exports_a_valid_exposition() {
    let r = try_run(&quick_cfg()).unwrap();
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
    let r_off = run(&cfg);
    let r_on = run(&cfg.clone().with_spans(true));
    assert_results_identical(&r_off, &r_on, "spans on");
    assert_telemetry_identical(
        r_off.telemetry.as_ref().unwrap(),
        r_on.telemetry.as_ref().unwrap(),
        "spans on",
    );
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
