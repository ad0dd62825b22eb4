//! Host-speed benchmark of the microbank simulator.
//!
//! The library half holds what the command-line binary and the tests
//! share: the three benchmark workloads with every run knob pinned, the
//! correctness reference, and the layer-timed replay of the sequential
//! drive ([`replay`]). See `README.md` in this directory for why each
//! workload was chosen and which layer metric should move which
//! end-to-end metric.

pub mod replay;

use microbank_sim::simulator::{golden_fingerprint, try_run, SimConfig};
use microbank_telemetry::json::{parse, JsonValue, JsonWriter};
use microbank_workloads::{SpecGroup, Workload};

/// The seed whose fingerprints are stored in `reference.json`: the
/// simulator's own default seed.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The golden fingerprint of one run (see
/// `microbank_sim::simulator::golden_fingerprint`).
pub type Fingerprint = [u64; 13];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// 429.mcf on one channel at (16,16): controller-bound, read-only,
    /// 256 μbanks per bank.
    McfStress,
    /// The SPEC low-MAPKI group on one channel at (1,1): compute-bound.
    SpecLowCompute,
    /// RADIX on 16 channels at (2,8): the paper's representative config,
    /// with writes and shared-line coherence traffic.
    RadixWrites,
}

impl BenchWorkload {
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::McfStress,
        BenchWorkload::SpecLowCompute,
        BenchWorkload::RadixWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::McfStress => "mcf-stress",
            BenchWorkload::SpecLowCompute => "speclow-compute",
            BenchWorkload::RadixWrites => "radix-writes",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run configuration at the paper window (100k warmup + 400k
    /// measured cycles), with every knob that could otherwise come from
    /// the environment pinned (see [`pin_knobs`]).
    pub fn config(self, seed: u64) -> SimConfig {
        let mut cfg = match self {
            BenchWorkload::McfStress => {
                let mut c = SimConfig::spec_single_channel(Workload::Spec("429.mcf"));
                c.mem = c.mem.with_ubanks(16, 16);
                c
            }
            BenchWorkload::SpecLowCompute => {
                let mut c = SimConfig::spec_single_channel(Workload::SpecGroupAvg(SpecGroup::Low));
                c.mem = c.mem.with_ubanks(1, 1);
                c
            }
            BenchWorkload::RadixWrites => {
                let mut c = SimConfig::paper_default(Workload::Radix);
                c.mem = c.mem.with_ubanks(2, 8);
                c
            }
        };
        cfg.seed = seed;
        pin_knobs(cfg)
    }
}

/// Pin every knob that changes which program is measured: one thread,
/// time skip on, and spans, telemetry, faults, QoS and cancellation off.
/// Explicit values override `MICROBANK_THREADS` and `MICROBANK_NO_SKIP`.
fn pin_knobs(mut cfg: SimConfig) -> SimConfig {
    cfg.telemetry = None;
    cfg.faults = None;
    cfg.qos = None;
    cfg.cancel = None;
    cfg.with_threads(1).with_time_skip(true).with_spans(false)
}

/// The knobs and configuration of `cfg` as one JSON object, resolved the
/// way the simulator resolves them, for the run's echo line.
pub fn knobs_json(cfg: &SimConfig, workload: BenchWorkload, rev: &str) -> String {
    // Every CPU of the machine, not just the ones this process is pinned to.
    let host_cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let ub = cfg.mem.ubank;
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("workload")
        .string(workload.name())
        .key("program")
        .string(&cfg.workload.label())
        .key("seed")
        .uint(cfg.seed)
        .key("threads")
        .uint(cfg.effective_threads() as u64)
        .key("time_skip")
        .boolean(cfg.effective_time_skip())
        .key("spans")
        .boolean(cfg.spans)
        .key("telemetry")
        .boolean(cfg.telemetry.is_some())
        .key("faults")
        .boolean(cfg.faults.is_some())
        .key("qos")
        .boolean(cfg.qos.is_some())
        .key("cores")
        .uint(cfg.cmp.cores as u64)
        .key("channels")
        .uint(cfg.mem.channels as u64)
        .key("ubanks")
        .string(&format!("({},{})", ub.n_w, ub.n_b))
        .key("interface")
        .string(&format!("{:?}", cfg.mem.interface))
        .key("scheduler")
        .string(&format!("{:?}", cfg.scheduler))
        .key("policy")
        .string(&format!("{:?}", cfg.policy))
        .key("warmup_cycles")
        .uint(cfg.warmup_cycles)
        .key("measure_cycles")
        .uint(cfg.measure_cycles)
        .key("host_cpus")
        .uint(host_cpus as u64)
        .key("cpus_allowed")
        .string(&proc_status("Cpus_allowed_list:").unwrap_or_else(|| "unknown".into()))
        .key("rev")
        .string(rev)
        .end_object();
    w.finish()
}

/// The stored default-seed fingerprints (`reference.json`), keyed by
/// workload name. Values are decimal strings because an FNV checksum does
/// not survive a round trip through a JSON number.
const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The fingerprint `cfg` must reproduce. For the default seed at the paper
/// window it is read from `reference.json`; for any other seed or window
/// it comes from one time-skip-off run of the same configuration, the
/// simulator's per-cycle reference drive.
pub fn reference_fingerprint(
    workload: BenchWorkload,
    cfg: &SimConfig,
) -> Result<Fingerprint, String> {
    let paper = workload.config(DEFAULT_SEED);
    let stored = cfg.seed == DEFAULT_SEED
        && cfg.warmup_cycles == paper.warmup_cycles
        && cfg.measure_cycles == paper.measure_cycles;
    if stored {
        return stored_fingerprint(workload);
    }
    try_run(&cfg.clone().with_time_skip(false))
        .map(|r| golden_fingerprint(&r))
        .map_err(|e| format!("reference run failed: {e}"))
}

fn stored_fingerprint(workload: BenchWorkload) -> Result<Fingerprint, String> {
    let doc =
        parse(REFERENCE_JSON).map_err(|at| format!("reference.json: bad JSON at byte {at}"))?;
    let items = doc
        .get("fingerprints")
        .and_then(|f| f.get(workload.name()))
        .map(JsonValue::items)
        .ok_or_else(|| format!("reference.json: no entry for {}", workload.name()))?;
    let values: Vec<u64> = items
        .iter()
        .map(|v| v.as_str().and_then(|s| s.parse().ok()))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("reference.json: {} holds a non-integer", workload.name()))?;
    values.try_into().map_err(|v: Vec<u64>| {
        format!(
            "reference.json: {} has {} values, not 13",
            workload.name(),
            v.len()
        )
    })
}

/// `reference.json` for the current simulator: every workload's
/// default-seed fingerprint from the time-skip-off reference drive.
pub fn reference_document() -> Result<String, String> {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("seed")
        .uint(DEFAULT_SEED)
        .key("fingerprints")
        .begin_object();
    for wl in BenchWorkload::ALL {
        let cfg = wl.config(DEFAULT_SEED).with_time_skip(false);
        let r = try_run(&cfg).map_err(|e| format!("{}: {e}", wl.name()))?;
        w.key(wl.name()).begin_array();
        for v in golden_fingerprint(&r) {
            w.string(&v.to_string());
        }
        w.end_array();
    }
    w.end_object().end_object();
    Ok(w.finish())
}

/// Median and quartiles of a sample, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) for the
/// quartiles. Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |p: f64| {
        // Position (1-based) p·(n+1), clamped to the sample.
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The value of one `/proc/self/status` field (Linux only).
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(line[field.len()..].trim().to_string())
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_status("VmHWM:")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
