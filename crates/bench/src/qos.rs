//! Multi-tenant QoS study (DESIGN §5g): a latency-critical service
//! (TPC-C-like, tenant 0) colocated with throughput batch jobs
//! (RADIX-like, tenant 1) on shared channels, across the regulation modes
//! × μbank geometry grid.
//!
//! Modes: `unregulated` (accounting only — the contention baseline),
//! `priority` (tenant-priority scheduling, no budgets), and `regulated`
//! (per-μbank token-bucket budgets on the batch tenant, work-conserving).
//! Geometries: the unpartitioned (1,1) baseline vs the paper's (16,16)
//! μbank partition, where "per-bank" regulation becomes per-μbank.
//!
//! The headline [`gate`]: at (16,16), regulating the batch tenant must not
//! worsen — and is expected to improve — the latency-critical tenant's
//! p99 read latency relative to the unregulated baseline.

use microbank_sim::simulator::SimConfig;
use microbank_sim::{QosConfig, QosGranularity, Runs};
use microbank_telemetry::json::JsonWriter;
use microbank_workloads::suite::Workload;
use std::fmt::Write as _;

/// Cores given to the latency-critical tenant (the rest run batch).
const LC_CORES: u16 = 4;
/// Batch tenant's token budget per μbank-granularity bucket per window.
const BATCH_BUDGET: u32 = 4;
/// Replenishment window, memory-controller cycles.
const WINDOW: u64 = 1_000;

/// One (geometry, mode) point of the study.
pub struct Point {
    geometry: String,
    mode: &'static str,
    ipc: f64,
    lc_p50: f64,
    lc_p99: f64,
    lc_mean: f64,
    lc_share: f64,
    batch_share: f64,
    /// Batch tenant column bursts per kilocycle — its realized throughput.
    batch_cols_per_kcycle: f64,
    throttled: u64,
    reclaimed: u64,
}

fn mode_cfg(mode: &str) -> QosConfig {
    match mode {
        // Accounting only: per-tenant attribution without any policy.
        "unregulated" => QosConfig::tracking(),
        // Tenant-priority scheduling: the latency-critical tenant ranks
        // above batch inside every scheduling round, no budgets.
        "priority" => QosConfig::tracking()
            .with_tenant(None, 0)
            .with_tenant(None, 1),
        // Per-μbank token buckets on the batch tenant, work-conserving,
        // plus the same priority axis a deployment would arm.
        "regulated" => QosConfig::tracking()
            .with_granularity(QosGranularity::Ubank)
            .with_replenish_period(WINDOW)
            .with_tenant(None, 0)
            .with_tenant(Some(BATCH_BUDGET), 1),
        other => panic!("unknown mode {other}"),
    }
}

/// The regulation-mode × geometry grid in print order: each point's
/// geometry, mode and config.
fn grid(quick: bool) -> Vec<((usize, usize), &'static str, SimConfig)> {
    let mut points = Vec::new();
    for (nw, nb) in [(1, 1), (16, 16)] {
        for mode in ["unregulated", "priority", "regulated"] {
            let mut cfg = crate::lab_platform(Workload::TenantMix { lc_cores: LC_CORES }, quick)
                .with_qos(mode_cfg(mode));
            cfg.mem = cfg.mem.with_ubanks(nw, nb);
            points.push(((nw, nb), mode, cfg));
        }
    }
    points
}

/// The grid's configs.
pub fn plan(quick: bool) -> Vec<SimConfig> {
    grid(quick).into_iter().map(|(_, _, cfg)| cfg).collect()
}

/// The grid's points, read from `runs`.
pub fn study(quick: bool, runs: &Runs) -> Vec<Point> {
    grid(quick)
        .into_iter()
        .map(|((nw, nb), mode, cfg)| {
            let r = runs.get(&cfg);
            let q = r.qos.as_ref().expect("QoS was armed");
            assert_eq!(q.tenants.len(), 2, "TenantMix reports both tenants");
            let (lc, batch) = (&q.tenants[0], &q.tenants[1]);
            Point {
                geometry: format!("{nw}x{nb}"),
                mode,
                ipc: r.ipc,
                lc_p50: lc.p50_lat,
                lc_p99: lc.p99_lat,
                lc_mean: lc.mean_lat,
                lc_share: lc.share,
                batch_share: batch.share,
                batch_cols_per_kcycle: batch.cols as f64 / (cfg.measure_cycles as f64 / 1_000.0),
                throttled: q.throttled,
                reclaimed: q.reclaimed,
            }
        })
        .collect()
}

/// The headline gate: per-μbank regulation at (16,16) must not worsen the
/// latency-critical tenant's p99 vs the unregulated contention baseline.
/// Returns the regulated and unregulated (16,16) points and whether the
/// gate holds.
pub fn gate(points: &[Point]) -> (&Point, &Point, bool) {
    let pick = |mode: &str| {
        points
            .iter()
            .find(|p| p.geometry == "16x16" && p.mode == mode)
            .expect("the study covers 16x16 in every mode")
    };
    let (reg, base) = (pick("regulated"), pick("unregulated"));
    (reg, base, reg.lc_p99 <= base.lc_p99)
}

fn to_json(points: &[Point], quick: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("bench")
        .string("qos")
        .key("workload")
        .string(&format!("tenant-mix-lc{LC_CORES}"))
        .key("quick")
        .boolean(quick)
        .key("batch_budget")
        .uint(BATCH_BUDGET as u64)
        .key("replenish_period")
        .uint(WINDOW)
        .key("points")
        .begin_array();
    for p in points {
        w.begin_object()
            .key("geometry")
            .string(&p.geometry)
            .key("mode")
            .string(p.mode)
            .key("ipc")
            .num(p.ipc)
            .key("lc_p50_lat")
            .num(p.lc_p50)
            .key("lc_p99_lat")
            .num(p.lc_p99)
            .key("lc_mean_lat")
            .num(p.lc_mean)
            .key("lc_share")
            .num(p.lc_share)
            .key("batch_share")
            .num(p.batch_share)
            .key("batch_cols_per_kcycle")
            .num(p.batch_cols_per_kcycle)
            .key("throttled")
            .uint(p.throttled)
            .key("reclaimed")
            .uint(p.reclaimed)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// `BENCH_qos.txt` (the table plus the gate verdict) and `BENCH_qos.json`.
pub fn artifacts(quick: bool, runs: &Runs) -> Vec<String> {
    let points = study(quick, runs);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "qos study  tenant-mix (lc {LC_CORES} cores tpc-c, batch radix)  \
         batch budget {BATCH_BUDGET}/{WINDOW}cyc per μbank{}\n",
        if quick { "  [quick]" } else { "" }
    );
    let _ = writeln!(
        text,
        "{:>7} {:>12} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7} {:>10} {:>9} {:>9}",
        "geom",
        "mode",
        "ipc",
        "lc-p50",
        "lc-p99",
        "lc-mean",
        "lc-bw",
        "bat-bw",
        "bat-cols/k",
        "throttled",
        "reclaimed"
    );
    for p in &points {
        let _ = writeln!(
            text,
            "{:>7} {:>12} {:>7.3} {:>8.0} {:>8.0} {:>8.1} {:>6.1}% {:>6.1}% {:>10.1} {:>9} {:>9}",
            p.geometry,
            p.mode,
            p.ipc,
            p.lc_p50,
            p.lc_p99,
            p.lc_mean,
            p.lc_share * 100.0,
            p.batch_share * 100.0,
            p.batch_cols_per_kcycle,
            p.throttled,
            p.reclaimed
        );
    }
    let (reg, base, ok) = gate(&points);
    let _ = writeln!(
        text,
        "\nqos gate {}: 16x16 regulated lc-p99 {:.0} <= unregulated {:.0}  \
         (batch throughput kept {:.0}% of baseline)",
        if ok { "OK" } else { "FAIL" },
        reg.lc_p99,
        base.lc_p99,
        if base.batch_cols_per_kcycle > 0.0 {
            reg.batch_cols_per_kcycle / base.batch_cols_per_kcycle * 100.0
        } else {
            0.0
        }
    );
    vec![text, to_json(&points, quick)]
}
