//! One benchmark run of one workload.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--rev REV]
//! perfbench --emit-reference
//! ```
//!
//! `--trace 0` times repeated untraced `try_run` calls for `S` seconds and
//! reports the end-to-end metrics (timings from the fastest run);
//! `--trace 1` alternates untraced runs with the layer-timed replay and
//! reports the per-layer metrics (medians). Every
//! run is checked against the reference fingerprint. The last line of
//! standard output is the result as one JSON object. `--quick` shrinks
//! the window to 20k + 60k cycles (for tests); `--emit-reference` prints a
//! fresh `reference.json`.

use microbank_sim::simulator::{golden_fingerprint, try_run, SimConfig, SimResult};
use microbank_telemetry::json::JsonWriter;
use perfbench::replay::{replay, Replay};
use perfbench::{
    knobs_json, peak_rss_mb, quartiles, reference_document, reference_fingerprint, BenchWorkload,
    Fingerprint,
};
use std::process::exit;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload mcf-stress|speclow-compute|radix-writes \
--seed N --seconds S --trace 0|1 [--quick] [--rev REV]\n       perfbench --emit-reference";

/// Fewest measured untraced runs in one invocation, however short
/// `--seconds` is.
const MIN_RUNS: usize = 3;

/// Set-ups timed per invocation for `setup_s`: `SETUP_BURSTS` bursts,
/// spread evenly over the timed window, of `SETUP_BURST_LEN` back-to-back
/// set-ups each. A fixed count and layout, so that a faster drive (more
/// timed runs per second) cannot move the figure. The first set-up after a
/// full run pays page faults for memory the run gave back (about 1.7 ms
/// against 0.6 ms on `mcf-stress`); the rest of its burst does not.
const SETUP_BURSTS: usize = 20;
const SETUP_BURST_LEN: usize = 10;

struct Args {
    workload: BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    rev: String,
}

enum Command {
    Run(Args),
    EmitReference,
}

fn parse_args() -> Result<Command, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut quick = false;
    let mut rev = "unknown".to_string();
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        if flag == "--emit-reference" {
            return Ok(Command::EmitReference);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    BenchWorkload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?} is not a u64"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value:?} must be positive"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                })
            }
            "--rev" => rev = value,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        rev,
    }))
}

/// How a metric's samples become its one reported value.
#[derive(Clone, Copy)]
enum Stat {
    Median,
    /// The fastest run: the lowest time, or the highest rate.
    Min,
    Max,
}

/// One reported metric: its samples (one per measured run, or a single
/// value for counts) and the statistic that is reported.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
    stat: Stat,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self::with(name, unit, samples, Stat::Median)
    }

    fn with(name: &'static str, unit: &'static str, samples: Vec<f64>, stat: Stat) -> Self {
        Metric {
            name,
            unit,
            samples,
            stat,
        }
    }

    fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    fn value(&self) -> f64 {
        let (lo, hi) = self.range();
        match self.stat {
            Stat::Median => quartiles(&self.samples).1,
            Stat::Min => lo,
            Stat::Max => hi,
        }
    }

    fn range(&self) -> (f64, f64) {
        self.samples
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)))
    }
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one run, check it against the reference, and return its
    /// result if it passed.
    fn check(
        &mut self,
        run: Result<SimResult, microbank_sim::SimError>,
        reference: &Fingerprint,
    ) -> Option<SimResult> {
        self.attempted += 1;
        match run {
            Ok(r) if golden_fingerprint(&r) == *reference => Some(r),
            Ok(r) => {
                self.failed += 1;
                eprintln!(
                    "perfbench: fingerprint {:?} differs from reference {reference:?}",
                    golden_fingerprint(&r)
                );
                None
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: run failed: {e}");
                None
            }
        }
    }
}

/// End-to-end metrics: repeated untraced runs for `seconds`, after one
/// untimed run that lets allocations and caches settle. Timings report the
/// fastest run.
///
/// Other tenants of a small shared host slow its CPUs down by up to 1.8×,
/// in spells of a second to several minutes, and the share of slow time
/// changes from one minute to the next. A median or mean follows that
/// share; the fastest of some hundreds of runs does not, as long as the
/// window holds a few fast moments.
fn untraced(cfg: &SimConfig, reference: &Fingerprint, seconds: Duration) -> Outcome {
    let mut o = Outcome::default();
    o.check(try_run(cfg), reference);
    // Set-up takes about a millisecond, so it is sampled on its own: runs
    // of the same configuration with a one-cycle window, whose profile
    // times the same construction of sources, CMP and controllers.
    let mut one_cycle = cfg.clone();
    one_cycle.warmup_cycles = 0;
    one_cycle.measure_cycles = 1;
    let (mut run_s, mut mcps, mut ipc, mut setup_s) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut runs = 0;
    loop {
        let done = runs >= MIN_RUNS && start.elapsed() >= seconds;
        // The set-up bursts due by now, so that they spread evenly over
        // the window, and all of them at the end.
        let share = start.elapsed().as_secs_f64() / seconds.as_secs_f64();
        let bursts = if done {
            SETUP_BURSTS
        } else {
            ((share * SETUP_BURSTS as f64) as usize).min(SETUP_BURSTS)
        };
        let due = bursts * SETUP_BURST_LEN;
        while setup_s.len() < due {
            o.attempted += 1;
            match try_run(&one_cycle) {
                Ok(r) => setup_s.push(r.profile.setup_secs),
                Err(e) => {
                    o.failed += 1;
                    eprintln!("perfbench: set-up run failed: {e}");
                    break;
                }
            }
        }
        if done {
            break;
        }
        runs += 1;
        let t0 = Instant::now();
        let run = try_run(cfg);
        let wall = t0.elapsed().as_secs_f64();
        if let Some(r) = o.check(run, reference) {
            run_s.push(wall);
            mcps.push(r.profile.sim_mcycles_per_sec);
            ipc.push(r.ipc);
        }
    }
    if run_s.is_empty() || setup_s.is_empty() {
        return o;
    }
    o.metrics = vec![
        Metric::with("sim_mcycles_per_s", "Mcycles/s", mcps, Stat::Max),
        Metric::with("run_s", "s", run_s, Stat::Min),
        Metric::with("setup_s", "s", setup_s, Stat::Min),
        Metric::one(
            "peak_rss_mb",
            "MB",
            peak_rss_mb().expect("peak RSS is read from /proc/self/status"),
        ),
        Metric::new("ipc", "instr/cycle", ipc),
    ];
    o
}

/// Per-layer metrics: untraced runs alternate with layer-timed replays
/// for `seconds`; each replay must reproduce its untraced run exactly.
fn traced(cfg: &SimConfig, reference: &Fingerprint, seconds: Duration) -> Outcome {
    let mut o = Outcome::default();
    o.check(try_run(cfg), reference);
    let mut untraced_drive_s = vec![];
    let mut replays: Vec<Replay> = vec![];
    let mut last: Option<SimResult> = None;
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < 1 || start.elapsed() < seconds {
        pairs += 1;
        let Some(r) = o.check(try_run(cfg), reference) else {
            continue;
        };
        untraced_drive_s.push(r.profile.warmup_secs + r.profile.measure_secs);
        let rep = replay(cfg);
        o.attempted += 1;
        let diff = rep.mismatches(&r);
        if diff.is_empty() {
            replays.push(rep);
        } else {
            o.failed += 1;
            eprintln!(
                "perfbench: replay differs from try_run: {}",
                diff.join("; ")
            );
        }
        last = Some(r);
    }
    let (Some(r), Some(rep)) = (last, replays.last()) else {
        return o;
    };
    let secs = |f: fn(&Replay) -> u64| -> Vec<f64> {
        replays.iter().map(|x| f(x) as f64 * 1e-9).collect()
    };
    let drive_s = secs(|x| x.ledger.drive_ns);
    let overhead = quartiles(&drive_s).1 / quartiles(&untraced_drive_s).1;
    let l = &rep.ledger;
    let d = &rep.dram;
    let classified = d.row_hits + d.row_closed + d.row_conflicts;
    o.metrics = vec![
        Metric::one("workloads.instrs", "count", l.instrs as f64),
        Metric::new(
            "workloads.next_instr_s",
            "s",
            secs(|x| x.ledger.next_instr_ns),
        ),
        Metric::new("cpu.tick_self_s", "s", secs(|x| x.ledger.cpu_tick_self_ns)),
        Metric::new("cpu.on_fill_s", "s", secs(|x| x.ledger.cpu_on_fill_ns)),
        Metric::new("cpu.horizon_s", "s", secs(|x| x.ledger.cpu_horizon_ns)),
        Metric::one("cpu.submit_attempts", "count", l.submit_attempts as f64),
        Metric::one("cpu.submit_rejected", "count", l.submit_rejected as f64),
        Metric::one("cpu.l1_hit_rate", "ratio", rep.l1_hit_rate),
        Metric::one("cpu.l2_hit_rate", "ratio", rep.l2_hit_rate),
        Metric::one("cpu.skipped_cycles", "cycles", l.cycles_jumped as f64),
        Metric::one("ctrl.tick_calls", "count", l.ctrl_tick_calls as f64),
        Metric::new("ctrl.tick_s", "s", secs(|x| x.ledger.ctrl_tick_ns)),
        Metric::one(
            "ctrl.productive_tick_ratio",
            "ratio",
            l.ctrl_productive_ticks as f64 / l.ctrl_tick_calls.max(1) as f64,
        ),
        Metric::new(
            "ctrl.next_event_s",
            "s",
            secs(|x| x.ledger.ctrl_next_event_ns),
        ),
        Metric::new("ctrl.enqueue_s", "s", secs(|x| x.ledger.ctrl_enqueue_ns)),
        Metric::one("ctrl.slots_slept", "count", l.ctrl_slots_slept as f64),
        Metric::one("ctrl.queue_occupancy", "requests", rep.mean_queue_occupancy),
        Metric::one(
            "ctrl.read_latency_mean_cycles",
            "cycles",
            rep.read_latency_sum as f64 / rep.read_latency_count.max(1) as f64,
        ),
        Metric::new(
            "ctrl.drive_share",
            "ratio",
            replays.iter().map(|x| x.ledger.ctrl_share()).collect(),
        ),
        Metric::one("core.activates", "count", d.activates as f64),
        Metric::one(
            "core.row_hit_rate",
            "ratio",
            d.row_hits as f64 / classified.max(1) as f64,
        ),
        Metric::one("core.row_conflicts", "count", d.row_conflicts as f64),
        Metric::one(
            "core.data_bus_util",
            "ratio",
            d.data_bus_busy as f64 / (cfg.measure_cycles * cfg.mem.channels as u64) as f64,
        ),
        Metric::one(
            "energy.nj_per_read",
            "nJ",
            r.mem_energy.total_nj() / r.dram.reads.max(1) as f64,
        ),
        Metric::one("sim.loop_iters", "count", l.loop_iters as f64),
        Metric::one("sim.cycles_ticked", "cycles", l.loop_iters as f64),
        Metric::one("sim.cycles_jumped", "cycles", l.cycles_jumped as f64),
        Metric::one(
            "sim.mean_jump_cycles",
            "cycles",
            l.cycles_jumped as f64 / l.jumps.max(1) as f64,
        ),
        Metric::new("sim.glue_s", "s", secs(|x| x.ledger.glue_ns())),
        Metric::new("sim.drive_s", "s", drive_s),
        Metric::one("sim.trace_overhead", "ratio", overhead),
    ];
    o
}

fn print_result(o: &Outcome) {
    for m in &o.metrics {
        let value = m.value();
        if m.samples.len() > 1 {
            let (q1, med, q3) = quartiles(&m.samples);
            let (lo, hi) = m.range();
            let stat = match m.stat {
                Stat::Median => "median",
                Stat::Min => "min",
                Stat::Max => "max",
            };
            println!(
                "  {:<30} {value:>14.6} {:<11} {stat} of {} (median {med:.6}, quartiles {q1:.6}..{q3:.6}, range {lo:.6}..{hi:.6})",
                m.name,
                m.unit,
                m.samples.len()
            );
        } else {
            println!("  {:<30} {value:>14.6} {}", m.name, m.unit);
        }
    }
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("correct")
        .boolean(o.failed == 0 && !o.metrics.is_empty())
        .key("attempted")
        .uint(o.attempted)
        .key("failed")
        .uint(o.failed)
        .key("metrics")
        .begin_object();
    for m in &o.metrics {
        w.key(m.name)
            .begin_object()
            .key("value")
            .num(m.value())
            .key("unit")
            .string(m.unit)
            .end_object();
    }
    w.end_object().end_object();
    println!("{}", w.finish());
}

fn main() {
    let args = match parse_args() {
        Ok(Command::Run(a)) => a,
        Ok(Command::EmitReference) => match reference_document() {
            Ok(doc) => {
                println!("{doc}");
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                exit(1);
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let mut cfg = args.workload.config(args.seed);
    if args.quick {
        cfg = cfg.quick();
    }
    println!("knobs: {}", knobs_json(&cfg, args.workload, &args.rev));
    let reference = match reference_fingerprint(args.workload, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    };
    let seconds = Duration::from_secs_f64(args.seconds);
    let outcome = if args.trace {
        traced(&cfg, &reference, seconds)
    } else {
        untraced(&cfg, &reference, seconds)
    };
    print_result(&outcome);
}
