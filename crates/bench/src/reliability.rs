//! Reliability study: fault rate × μbank geometry × ECC mode.
//!
//! For each μbank partition the study first runs fault-free to establish
//! the IPC baseline, then sweeps {low, high} fault loads × {SEC-DED,
//! chipkill} ECC, reporting error/retirement counters, effective-capacity
//! loss, and IPC loss relative to that geometry's own clean baseline. The
//! configuration is fixed (429.mcf quick, one seed); runs are
//! deterministic, so one repetition suffices.
//!
//! The headline is the paper-adjacent *blast-radius* claim: hard defects
//! are sampled in physical device coordinates from the same seed, so every
//! geometry sees the *same* defects — but finer μbank partitions retire
//! smaller units around them. At equal fault load, (8,8) and (16,16) must
//! lose strictly less effective capacity and IPC to retirement than the
//! unpartitioned (1,1) baseline ([`blast_radius`]).

use microbank_faults::{EccMode, FaultConfig};
use microbank_sim::simulator::SimConfig;
use microbank_sim::Runs;
use microbank_telemetry::json::JsonWriter;
use microbank_workloads::suite::Workload;
use std::fmt::Write as _;

const SEED: u64 = 0xFA_017;
const LOADS: [&str; 2] = ["low", "high"];
const ECCS: [EccMode; 2] = [EccMode::SecDed, EccMode::Chipkill];

/// One (geometry, load, ECC) point of the sweep.
pub struct Point {
    geometry: String,
    load: String,
    ecc: String,
    ipc: f64,
    ipc_loss_pct: f64,
    cap_lost_bytes: u64,
    cap_lost_pct: f64,
    corrected: u64,
    detected: u64,
    miscorrected: u64,
    retries: u64,
    scrubs: u64,
    retired_rows: u64,
    retired_ubanks: u64,
}

/// The whole sweep: each geometry's clean baseline IPC and every point.
pub struct Study {
    baselines: Vec<(String, f64)>,
    pub points: Vec<Point>,
}

fn base_cfg(nw: usize, nb: usize) -> SimConfig {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(nw, nb);
    cfg
}

/// Fault load presets. "high" is the stress preset the golden suite pins;
/// "low" keeps one defect per hard-fault class and an order less transient
/// activity.
fn load_cfg(load: &str) -> FaultConfig {
    match load {
        "low" => FaultConfig {
            access_flip_rate: 5e-8,
            retention_flip_rate: 2e-7,
            stuck_cells: 2,
            row_faults: 1,
            col_faults: 1,
            subarray_faults: 1,
            scrub_interval: Some(8_192),
            hard_ce_retire_threshold: 8,
            ..FaultConfig::new(SEED)
        },
        "high" => FaultConfig::stress(SEED),
        other => panic!("unknown load {other}"),
    }
}

fn channel_bytes(cfg: &SimConfig) -> u64 {
    let m = &cfg.mem;
    (m.ubanks_per_channel() * m.ubank_rows() * m.geometry.ubank_row_bytes(m.ubank)) as u64
}

/// The swept geometries, in print order.
const GEOMETRIES: [(usize, usize); 3] = [(1, 1), (8, 8), (16, 16)];

fn fault_cfg(nw: usize, nb: usize, load: &str, ecc: EccMode) -> SimConfig {
    base_cfg(nw, nb).with_faults(load_cfg(load).with_ecc(ecc))
}

/// Each geometry's clean baseline, then its load × ECC points.
pub fn plan() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for (nw, nb) in GEOMETRIES {
        cfgs.push(base_cfg(nw, nb));
        for load in LOADS {
            cfgs.extend(ECCS.map(|ecc| fault_cfg(nw, nb, load, ecc)));
        }
    }
    cfgs
}

/// The sweep over (1,1), (8,8), (16,16), read from `runs`.
pub fn study(runs: &Runs) -> Study {
    let mut baselines = Vec::new();
    let mut points = Vec::new();
    for (nw, nb) in GEOMETRIES {
        let base_ipc = runs.get(&base_cfg(nw, nb)).ipc;
        baselines.push((format!("{nw}x{nb}"), base_ipc));
        for load in LOADS {
            for ecc in ECCS {
                let cfg = fault_cfg(nw, nb, load, ecc);
                let total = channel_bytes(&cfg) * cfg.mem.channels as u64;
                let r = runs.get(&cfg);
                let s = r.reliability.as_ref().expect("faults were armed");
                points.push(Point {
                    geometry: format!("{nw}x{nb}"),
                    load: load.to_string(),
                    ecc: ecc.name().to_string(),
                    ipc: r.ipc,
                    ipc_loss_pct: (base_ipc - r.ipc) / base_ipc * 100.0,
                    cap_lost_bytes: s.capacity_lost_bytes,
                    cap_lost_pct: s.capacity_lost_bytes as f64 / total as f64 * 100.0,
                    corrected: s.corrected,
                    detected: s.detected,
                    miscorrected: s.miscorrected,
                    retries: s.retries,
                    scrubs: s.scrub_checks,
                    retired_rows: s.retired_rows,
                    retired_ubanks: s.retired_ubanks,
                });
            }
        }
    }
    Study { baselines, points }
}

/// The blast-radius gate: at equal fault load and ECC mode, each finer
/// partition must lose strictly less capacity and IPC than the
/// unpartitioned baseline. Returns every (fine, coarse) comparison and
/// whether it holds.
pub fn blast_radius(points: &[Point]) -> Vec<(&Point, &Point, bool)> {
    let pick = |geom: &str, load: &str, ecc: EccMode| {
        points
            .iter()
            .find(|p| p.geometry == geom && p.load == load && p.ecc == ecc.name())
            .expect("the sweep covers every geometry × load × ECC")
    };
    let mut checks = Vec::new();
    for load in LOADS {
        for ecc in ECCS {
            let coarse = pick("1x1", load, ecc);
            for fine_geom in ["8x8", "16x16"] {
                let fine = pick(fine_geom, load, ecc);
                let ok = fine.cap_lost_bytes < coarse.cap_lost_bytes
                    && fine.ipc_loss_pct < coarse.ipc_loss_pct;
                checks.push((fine, coarse, ok));
            }
        }
    }
    checks
}

fn to_json(study: &Study) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("bench")
        .string("reliability")
        .key("workload")
        .string("429.mcf")
        .key("seed")
        .uint(SEED)
        .key("baselines")
        .begin_array();
    for (geom, ipc) in &study.baselines {
        w.begin_object()
            .key("geometry")
            .string(geom)
            .key("ipc")
            .num(*ipc)
            .end_object();
    }
    w.end_array().key("points").begin_array();
    for p in &study.points {
        w.begin_object()
            .key("geometry")
            .string(&p.geometry)
            .key("load")
            .string(&p.load)
            .key("ecc")
            .string(&p.ecc)
            .key("ipc")
            .num(p.ipc)
            .key("ipc_loss_pct")
            .num(p.ipc_loss_pct)
            .key("capacity_lost_bytes")
            .uint(p.cap_lost_bytes)
            .key("capacity_lost_pct")
            .num(p.cap_lost_pct)
            .key("corrected")
            .uint(p.corrected)
            .key("detected")
            .uint(p.detected)
            .key("miscorrected")
            .uint(p.miscorrected)
            .key("retries")
            .uint(p.retries)
            .key("scrub_checks")
            .uint(p.scrubs)
            .key("retired_rows")
            .uint(p.retired_rows)
            .key("retired_ubanks")
            .uint(p.retired_ubanks)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// `reliability.txt` (the table plus one blast-radius verdict per
/// comparison) and `reliability.json`.
pub fn artifacts(runs: &Runs) -> Vec<String> {
    let study = study(runs);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "reliability sweep  429.mcf quick  seed {SEED:#x}\n\
         fault loads: low (1 defect/class, 5e-8 access) and high (stress preset)\n"
    );
    let _ = writeln!(
        text,
        "{:>7} {:>5} {:>9} {:>7} {:>8} {:>10} {:>8} {:>9} {:>6} {:>6} {:>7} {:>7} {:>7}",
        "geom",
        "load",
        "ecc",
        "ipc",
        "ipc-loss",
        "cap-lost",
        "cap%",
        "corr",
        "det",
        "misc",
        "retry",
        "r.rows",
        "r.ubank"
    );
    let per_geometry = LOADS.len() * ECCS.len();
    for ((geom, base_ipc), points) in study
        .baselines
        .iter()
        .zip(study.points.chunks(per_geometry))
    {
        let _ = writeln!(
            text,
            "{:>7} {:>5} {:>9} {:>7.3}   (clean baseline)",
            geom, "-", "-", base_ipc
        );
        for p in points {
            let _ = writeln!(
                text,
                "{:>7} {:>5} {:>9} {:>7.3} {:>7.2}% {:>10} {:>7.3}% {:>9} {:>6} {:>6} {:>7} {:>7} {:>7}",
                p.geometry,
                p.load,
                p.ecc,
                p.ipc,
                p.ipc_loss_pct,
                p.cap_lost_bytes,
                p.cap_lost_pct,
                p.corrected,
                p.detected,
                p.miscorrected,
                p.retries,
                p.retired_rows,
                p.retired_ubanks
            );
        }
    }
    for (fine, coarse, ok) in blast_radius(&study.points) {
        let _ = writeln!(
            text,
            "blast-radius {}: {} vs 1x1 ({}/{})  cap {} < {}  ipc-loss {:.2}% < {:.2}%",
            if ok { "OK" } else { "FAIL" },
            fine.geometry,
            fine.load,
            fine.ecc,
            fine.cap_lost_bytes,
            coarse.cap_lost_bytes,
            fine.ipc_loss_pct,
            coarse.ipc_loss_pct
        );
    }
    vec![text, to_json(&study)]
}
