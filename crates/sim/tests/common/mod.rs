//! Helpers shared by the sim integration suites.

use microbank_sim::simulator::{golden_fingerprint, SimConfig, SimResult, TelemetryReport};
use microbank_workloads::suite::Workload;

/// A short 16-channel paper-default run: the configuration class where
/// controllers, time skip and telemetry interact across channels.
pub fn multi_channel_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default(Workload::MixHigh);
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 15_000;
    cfg
}

/// Full-result equality beyond the fingerprint: every simulated-behavior
/// field must match bit for bit (profile timings excluded — they are wall
/// clock by definition).
pub fn assert_results_identical(a: &SimResult, b: &SimResult, tag: &str) {
    assert_eq!(
        golden_fingerprint(a),
        golden_fingerprint(b),
        "{tag}: fingerprint diverged"
    );
    assert_eq!(a.dram, b.dram, "{tag}: DRAM counter delta diverged");
    assert_eq!(
        a.per_core_committed, b.per_core_committed,
        "{tag}: per-core committed diverged"
    );
    assert_eq!(
        a.mean_read_latency.to_bits(),
        b.mean_read_latency.to_bits(),
        "{tag}: mean read latency diverged"
    );
    assert_eq!(
        a.mean_queue_occupancy.to_bits(),
        b.mean_queue_occupancy.to_bits(),
        "{tag}: queue occupancy diverged"
    );
    assert_eq!(
        a.policy_hit_rate.to_bits(),
        b.policy_hit_rate.to_bits(),
        "{tag}: policy hit rate diverged"
    );
    assert_eq!(
        a.read_latency_hist, b.read_latency_hist,
        "{tag}: latency histogram diverged"
    );
    assert_eq!(a.reliability, b.reliability, "{tag}: reliability diverged");
}

/// Telemetry artifact equality: the epoch time-series, every channel's
/// heat map, and the command trace, byte for byte.
pub fn assert_telemetry_identical(a: &TelemetryReport, b: &TelemetryReport, tag: &str) {
    assert_eq!(
        a.timeline.to_csv(),
        b.timeline.to_csv(),
        "{tag}: epoch time-series diverged"
    );
    assert_eq!(a.heat.len(), b.heat.len(), "{tag}: channel count diverged");
    for (ch, (x, y)) in a.heat.iter().zip(&b.heat).enumerate() {
        assert_eq!(
            x.to_csv(),
            y.to_csv(),
            "{tag}: channel {ch} heat map diverged"
        );
    }
    assert_eq!(a.trace, b.trace, "{tag}: command trace diverged");
    assert_eq!(
        a.trace_pushed, b.trace_pushed,
        "{tag}: trace count diverged"
    );
    assert_eq!(
        a.trace_dropped, b.trace_dropped,
        "{tag}: trace drops diverged"
    );
}
