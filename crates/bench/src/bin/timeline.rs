//! Telemetry showcase: instrumented runs of 429.mcf on the unpartitioned
//! baseline (1,1) and the paper's sweet-spot μbank config (4,4), exporting
//! every artifact the telemetry layer produces:
//!
//! ```text
//! results/timeline_<tag>.csv / .json   epoch time-series
//! results/heat_<tag>.csv / .json       per-μbank heat map
//! results/trace_<tag>.json             Chrome trace_event command trace,
//!                                      with harness span rows merged in
//! results/spans_<tag>.json             hierarchical harness span tree
//! ```
//!
//! Also cross-checks the heat map against the run's DRAM stats (the totals
//! must reconcile exactly) and round-trips the trace through the parser
//! (which must skip the merged harness rows).
//!
//! Usage: `timeline [--quick] [--out DIR]`

use microbank_sim::simulator::{run_instrumented, SimConfig};
use microbank_telemetry::{atomic_write, trace, TelemetryConfig};
use microbank_workloads::suite::Workload;
use std::path::PathBuf;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("timeline: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));

    let cases = [("1x1", 1, 1), ("4x4", 4, 4)];
    for (tag, n_w, n_b) in cases {
        let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf"))
            .with_telemetry(TelemetryConfig::new(
                if quick { 2_000 } else { 10_000 },
                65_536,
            ))
            .with_spans(true);
        cfg.mem = cfg.mem.with_ubanks(n_w, n_b);
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

        atomic_write(
            out.join(format!("timeline_{tag}.csv")),
            rep.timeline.to_csv(),
        )?;
        atomic_write(
            out.join(format!("timeline_{tag}.json")),
            rep.timeline.to_json(),
        )?;
        atomic_write(out.join(format!("heat_{tag}.csv")), heat.to_csv())?;
        atomic_write(out.join(format!("heat_{tag}.json")), heat.to_json())?;
        atomic_write(out.join(format!("trace_{tag}.json")), &trace_json)?;
        atomic_write(
            out.join(format!("spans_{tag}.json")),
            microbank_telemetry::span::rows_to_json(&r.profile.spans),
        )?;

        println!(
            "429.mcf ({n_w},{n_b})  ipc {:.3}  row-hit {:.2}",
            r.ipc, r.row_hit_rate
        );
        println!(
            "  heat: {} μbanks, {} ACTs, imbalance {:.2}",
            heat.num_ubanks(),
            heat.total_activates(),
            microbank_telemetry::HeatCounters::imbalance(&heat.activates),
        );
        println!(
            "  timeline: {} epochs × {} metrics   trace: {} records ({} dropped)",
            rep.timeline.len(),
            rep.timeline.metrics().len(),
            rep.trace.len(),
            rep.trace_dropped,
        );
        println!(
            "  harness: {:.1} Mcycles/s  (setup {:.2}s, warmup {:.2}s, measure {:.2}s, {} spans)",
            r.profile.sim_mcycles_per_sec,
            r.profile.setup_secs,
            r.profile.warmup_secs,
            r.profile.measure_secs,
            r.profile.spans.len(),
        );
    }
    println!("\nartifacts written to {}", out.display());
    Ok(())
}
