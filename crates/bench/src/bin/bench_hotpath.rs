//! Perf-regression harness for the controller/simulator hot path.
//!
//! Runs the (1,1) and (16,16) single-channel 429.mcf quick configs — the
//! two ends of the μbank-count spectrum — and records each config's
//! simulated-Mcycles-per-second: the best of `--reps` repetitions (so one
//! noisy rep cannot fake a regression), plus min/median/max over the reps,
//! the host's CPU count and the git revision. Writes
//! `results/BENCH_hotpath.json`, the repo's committed perf baseline.
//!
//! Usage:
//!   bench_hotpath [--reps N] [--out PATH]
//!   bench_hotpath --check BASELINE.json [--tolerance FRAC] [--floor MCPS]
//!
//! With `--check`, the run additionally compares the fresh (16,16)
//! throughput against the baseline file and exits nonzero when it fell
//! more than FRAC (default 0.25) below it — the CI perf-smoke gate.
//! `--floor` adds an absolute gate: the fresh (16,16) number must be at
//! least MCPS simulated Mcycles/s, so the event-driven core can never
//! quietly regress below a committed per-cycle-era baseline even if the
//! checked-in baseline file drifts upward.

use microbank_sim::simulator::{run, SimConfig};
use microbank_telemetry::json::{parse, JsonWriter};
use microbank_workloads::suite::Workload;

struct BenchPoint {
    label: String,
    nw: usize,
    nb: usize,
    /// Simulated Mcycles/s of every rep, sorted ascending.
    mcps: Vec<f64>,
    committed: u64,
    dram_reads: u64,
}

impl BenchPoint {
    /// Best rep: what `--check` and `--floor` gate on.
    fn best(&self) -> f64 {
        *self.mcps.last().expect("at least one rep")
    }

    fn median(&self) -> f64 {
        let n = self.mcps.len();
        (self.mcps[(n - 1) / 2] + self.mcps[n / 2]) / 2.0
    }
}

fn measure(nw: usize, nb: usize, reps: usize) -> BenchPoint {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(nw, nb);
    let mut mcps = Vec::new();
    let mut committed = 0;
    let mut dram_reads = 0;
    for _ in 0..reps {
        let r = run(&cfg);
        mcps.push(r.profile.sim_mcycles_per_sec);
        committed = r.committed;
        dram_reads = r.dram.reads;
    }
    mcps.sort_by(f64::total_cmp);
    BenchPoint {
        label: format!("{nw}x{nb}"),
        nw,
        nb,
        mcps,
        committed,
        dram_reads,
    }
}

/// The checkout's git revision, or "unknown" outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn to_json(points: &[BenchPoint], reps: usize) -> String {
    // Every CPU of the machine, not just the ones this process may use.
    let host_cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or_else(|_| std::thread::available_parallelism().map_or(0, |n| n.get()));
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("bench")
        .string("hotpath")
        .key("workload")
        .string("429.mcf")
        .key("reps")
        .uint(reps as u64)
        .key("host_cpus")
        .uint(host_cpus as u64)
        .key("git_rev")
        .string(&git_rev())
        .key("configs")
        .begin_array();
    for p in points {
        w.begin_object()
            .key("label")
            .string(&p.label)
            .key("nw")
            .uint(p.nw as u64)
            .key("nb")
            .uint(p.nb as u64)
            .key("sim_mcycles_per_sec")
            .num(p.best())
            .key("min")
            .num(p.mcps[0])
            .key("median")
            .num(p.median())
            .key("max")
            .num(p.best())
            .key("committed")
            .uint(p.committed)
            .key("dram_reads")
            .uint(p.dram_reads)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Baseline (16,16) throughput from a previously written artifact.
fn baseline_mcps(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = parse(&text).ok()?;
    v.get("configs")?
        .items()
        .iter()
        .find(|c| c.get("label").and_then(|l| l.as_str()) == Some("16x16"))?
        .get("sim_mcycles_per_sec")?
        .as_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let reps: usize = flag("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out = flag("--out").unwrap_or_else(|| "results/BENCH_hotpath.json".to_string());
    let tolerance: f64 = flag("--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);

    let points = vec![measure(1, 1, reps), measure(16, 16, reps)];
    for p in &points {
        println!(
            "{:>6}: {:8.2} Mcycles/s best, {:.2} median  (committed {}, dram reads {})",
            p.label,
            p.best(),
            p.median(),
            p.committed,
            p.dram_reads
        );
    }

    let json = to_json(&points, reps);
    if let Err(e) = microbank_telemetry::atomic_write(&out, &json) {
        eprintln!("bench_hotpath: failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if let Some(baseline) = flag("--check") {
        let base = baseline_mcps(&baseline)
            .unwrap_or_else(|| panic!("no 16x16 sim_mcycles_per_sec in {baseline}"));
        let fresh = points.last().expect("16x16 point").best();
        let floor = base * (1.0 - tolerance);
        println!(
            "perf gate: fresh {fresh:.2} vs baseline {base:.2} Mcycles/s \
             (floor {floor:.2}, tolerance {tolerance})"
        );
        if fresh < floor {
            eprintln!("FAIL: (16,16) hot-path throughput regressed more than {tolerance:.0?}");
            std::process::exit(1);
        }
        println!("perf gate: OK");
    }

    if let Some(abs_floor) = flag("--floor").and_then(|v| v.parse::<f64>().ok()) {
        let fresh = points.last().expect("16x16 point").best();
        println!("perf floor: fresh {fresh:.2} vs absolute floor {abs_floor:.2} Mcycles/s");
        if fresh < abs_floor {
            eprintln!("FAIL: (16,16) hot-path throughput below the absolute floor {abs_floor:.2}");
            std::process::exit(1);
        }
        println!("perf floor: OK");
    }
}
