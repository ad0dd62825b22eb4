//! Telemetry showcase: instrumented runs of 429.mcf on the unpartitioned
//! baseline (1,1) and the paper's sweet-spot μbank config (4,4), exporting
//! every artifact the telemetry layer produces, per config `<tag>`:
//!
//! ```text
//! timeline_<tag>.csv / .json   epoch time-series
//! heat_<tag>.csv / .json       per-μbank heat map
//! trace_<tag>.json             Chrome trace_event command trace,
//!                              with harness span rows merged in
//! spans_<tag>.json             hierarchical harness span tree
//! ```
//!
//! Also cross-checks the heat map against the run's DRAM stats (the totals
//! must reconcile exactly) and round-trips the trace through the parser
//! (which must skip the merged harness rows).

use microbank_sim::simulator::{run_instrumented, SimConfig};
use microbank_telemetry::{span, trace, TelemetryConfig};
use microbank_workloads::suite::Workload;

/// The six files above for (1,1), then for (4,4), in the order listed.
pub fn artifacts(quick: bool) -> Vec<String> {
    let mut out = Vec::new();
    for n in [1, 4] {
        let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf"))
            .with_telemetry(TelemetryConfig::new(
                if quick { 2_000 } else { 10_000 },
                65_536,
            ))
            .with_spans(true);
        cfg.mem = cfg.mem.with_ubanks(n, n);
        if quick {
            cfg = cfg.quick();
        }
        let (r, rep) = run_instrumented(&cfg);

        // The heat map is only trustworthy if it reconciles with the
        // stats the figures are computed from; fail loudly otherwise.
        let heat = rep.merged_heat();
        assert_eq!(
            heat.total_activates(),
            r.dram.activates,
            "heat map does not reconcile with DramStats"
        );
        assert_eq!(heat.total_hits(), r.dram.row_hits);
        assert_eq!(heat.total_conflicts(), r.dram.row_conflicts);

        // Trace must survive a round-trip through the Chrome JSON parser;
        // harness span rows ride along under their own pid and must be
        // skipped by the parser, not confused with device commands.
        let trace_json = trace::to_chrome_json_with_spans(&rep.trace, &r.profile.spans);
        let parsed = trace::from_chrome_json(&trace_json).expect("trace round-trip");
        assert_eq!(
            parsed.len(),
            rep.trace.len(),
            "trace round-trip lost records"
        );

        out.extend([
            rep.timeline.to_csv(),
            rep.timeline.to_json(),
            heat.to_csv(),
            heat.to_json(),
            trace_json,
            span::rows_to_json(&r.profile.spans),
        ]);
    }
    out
}
