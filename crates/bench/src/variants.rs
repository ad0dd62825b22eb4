//! Device-variant comparison lab (DESIGN §5h): the same workload swept
//! across the four fine-grained-DRAM designs the variant seam models —
//! conventional monolithic banks, SALP-1/SALP-2/MASA subarray parallelism,
//! Sectored DRAM, and the paper's μbank — on IPC, memory energy, and EDP.
//!
//! This is the paper's Related Work argument (§VII) made executable: SALP
//! adds row buffers but keeps full-row activation energy; Sectored cuts
//! activation energy but shares one row decoder per bank; μbank partitions
//! both directions and should win the energy-delay product. The [`gate`]
//! is exactly that: μbank's EDP must not exceed conventional's.
//!
//! EDP here is per-instruction energy × per-instruction delay (CPI), so a
//! fixed measurement window cannot mask a throughput loss as an energy win.

use microbank_core::variant::DeviceVariant;
use microbank_sim::simulator::SimConfig;
use microbank_sim::Runs;
use microbank_telemetry::json::JsonWriter;
use microbank_workloads::suite::Workload;
use std::fmt::Write as _;

/// Representative μbank partition the `Microbank` variant runs at (the
/// paper's sweet-spot region; SALP/Sectored derive their own geometry).
const UBANK_NW: usize = 8;
const UBANK_NB: usize = 8;

/// One variant's measurements.
pub struct Point {
    label: String,
    ubank: String,
    ipc: f64,
    row_hit_rate: f64,
    reads: u64,
    /// Memory energy per served read, nJ.
    energy_per_read_nj: f64,
    /// Activate/precharge share of memory energy (Fig. 14 axis).
    act_pre_frac: f64,
    /// Energy per committed kilo-instruction, nJ.
    epki_nj: f64,
    /// Cycles per committed instruction (system-level).
    cpi: f64,
    /// Energy-delay product per instruction: `epki/1000 × cpi`.
    edp: f64,
}

/// One config per variant of [`DeviceVariant::comparison_set`].
pub fn plan(quick: bool) -> Vec<SimConfig> {
    DeviceVariant::comparison_set()
        .into_iter()
        .map(|v| {
            let mut cfg = crate::lab_platform(Workload::MixHigh, quick);
            cfg.mem = cfg.mem.with_ubanks(UBANK_NW, UBANK_NB).with_variant(v);
            cfg
        })
        .collect()
}

/// Every variant's point, read from `runs`.
pub fn study(quick: bool, runs: &Runs) -> Vec<Point> {
    plan(quick)
        .iter()
        .map(|cfg| {
            let u = cfg.mem.ubank;
            let r = runs.get(cfg);
            let committed = r.committed.max(1) as f64;
            let mem_nj = r.mem_energy.total_nj();
            let epki_nj = mem_nj / committed * 1000.0;
            let cpi = if r.ipc > 0.0 { 1.0 / r.ipc } else { f64::MAX };
            Point {
                label: cfg.mem.variant.label(),
                ubank: format!("{}x{}", u.n_w, u.n_b),
                ipc: r.ipc,
                row_hit_rate: r.row_hit_rate,
                reads: r.dram.reads,
                energy_per_read_nj: mem_nj / r.dram.reads.max(1) as f64,
                act_pre_frac: r.mem_energy.act_pre_fraction(),
                epki_nj,
                cpi,
                edp: epki_nj / 1000.0 * cpi,
            }
        })
        .collect()
}

/// The headline gate (the paper's thesis): μbank's energy-delay product
/// must not exceed the conventional baseline's on the same workload.
/// Returns the μbank and conventional points and whether the gate holds.
pub fn gate(points: &[Point]) -> (&Point, &Point, bool) {
    let pick = |label: &str| {
        points
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("comparison set must include {label}"))
    };
    let (ubank, conv) = (pick("microbank"), pick("conventional"));
    (ubank, conv, ubank.edp <= conv.edp)
}

fn to_json(points: &[Point], quick: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("bench")
        .string("variants")
        .key("workload")
        .string("mix-high")
        .key("quick")
        .boolean(quick)
        .key("microbank_geometry")
        .string(&format!("{UBANK_NW}x{UBANK_NB}"))
        .key("points")
        .begin_array();
    for p in points {
        w.begin_object()
            .key("variant")
            .string(&p.label)
            .key("ubank")
            .string(&p.ubank)
            .key("ipc")
            .num(p.ipc)
            .key("row_hit_rate")
            .num(p.row_hit_rate)
            .key("reads")
            .uint(p.reads)
            .key("energy_per_read_nj")
            .num(p.energy_per_read_nj)
            .key("act_pre_fraction")
            .num(p.act_pre_frac)
            .key("epki_nj")
            .num(p.epki_nj)
            .key("cpi")
            .num(p.cpi)
            .key("edp")
            .num(p.edp)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// `BENCH_variants.txt` (the table plus the gate verdict) and
/// `BENCH_variants.json`.
pub fn artifacts(quick: bool, runs: &Runs) -> Vec<String> {
    let points = study(quick, runs);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "device-variant lab  mix-high, 16 cores, 4 channels, μbank at \
         {UBANK_NW}x{UBANK_NB}{}\n",
        if quick { "  [quick]" } else { "" }
    );
    let _ = writeln!(
        text,
        "{:>16} {:>6} {:>7} {:>6} {:>7} {:>9} {:>7} {:>9} {:>7} {:>9}",
        "variant", "ubank", "ipc", "rhit", "reads", "nJ/read", "act%", "nJ/kinst", "cpi", "edp"
    );
    for p in &points {
        let _ = writeln!(
            text,
            "{:>16} {:>6} {:>7.3} {:>6.3} {:>7} {:>9.2} {:>6.1}% {:>9.1} {:>7.3} {:>9.4}",
            p.label,
            p.ubank,
            p.ipc,
            p.row_hit_rate,
            p.reads,
            p.energy_per_read_nj,
            p.act_pre_frac * 100.0,
            p.epki_nj,
            p.cpi,
            p.edp
        );
    }
    let (ubank, conv, ok) = gate(&points);
    let _ = writeln!(
        text,
        "\nvariant gate {}: microbank edp {:.4} <= conventional edp {:.4}  \
         (ipc {:+.1}%, energy/read {:+.1}%)",
        if ok { "OK" } else { "FAIL" },
        ubank.edp,
        conv.edp,
        (ubank.ipc / conv.ipc - 1.0) * 100.0,
        (ubank.energy_per_read_nj / conv.energy_per_read_nj - 1.0) * 100.0
    );
    vec![text, to_json(&points, quick)]
}
