//! # microbank-bench
//!
//! The paper-reproduction harness and the Criterion micro/macro
//! benchmarks. The heavy lifting lives in `microbank-sim`; this crate
//! turns it into the committed artifacts in `results/`.
//!
//! [`ARTIFACTS`] is the one table of those artifacts: each entry names
//! the files it writes, its plan (the configs it needs) and its render.
//! The `reproduce` binary runs the table: it simulates the selected
//! plans' distinct configs once ([`Runs`]), then renders every file:
//!
//! ```text
//! reproduce [--quick] [--out DIR] [NAME...]
//! ```

pub mod figures;
pub mod qos;
pub mod reliability;
pub mod timeline;
pub mod variants;

use microbank_sim::simulator::SimConfig;
use microbank_sim::Runs;
use microbank_workloads::suite::Workload;

/// The 16-core, 4-channel platform of the QoS and device-variant studies,
/// at full or `--quick` length.
fn lab_platform(workload: Workload, quick: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_default(workload);
    cfg.cmp.cores = 16;
    cfg.mem = cfg.mem.with_channels(4);
    if quick {
        cfg.warmup_cycles = 5_000;
        cfg.measure_cycles = 15_000;
    } else {
        cfg.warmup_cycles = 20_000;
        cfg.measure_cycles = 60_000;
    }
    cfg
}

/// One committed artifact: the files it writes, the runs it needs, and
/// its renderer. The `bool` argument of both functions is `--quick` (a
/// shortened run for smoke tests, never committed).
pub struct Artifact {
    /// Selects the artifact on the `reproduce` command line.
    pub name: &'static str,
    /// File names under the output directory.
    pub files: &'static [&'static str],
    /// The configs `render` reads from the run set.
    pub plan: fn(bool) -> Vec<SimConfig>,
    /// Returns one body per entry of `files`, in order, from a run set
    /// that covers `plan`. Never simulates.
    pub render: fn(bool, &Runs) -> Vec<String>,
}

/// Every artifact in `results/` except `BENCH_hotpath.json`, whose
/// fields are wall-clock measurements.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table1_params",
        files: &["table1_params.txt"],
        plan: |_| Vec::new(),
        render: |_, _| vec![figures::table1_params()],
    },
    Artifact {
        name: "table2_groups",
        files: &["table2_groups.txt"],
        plan: |_| Vec::new(),
        render: |_, _| vec![figures::table2_groups()],
    },
    Artifact {
        name: "fig01_energy_breakdown",
        files: &["fig01_energy_breakdown.txt"],
        plan: |_| Vec::new(),
        render: |_, _| vec![figures::fig01_energy_breakdown()],
    },
    Artifact {
        name: "fig06_area_energy",
        files: &["fig06_area_energy.txt"],
        plan: |_| Vec::new(),
        render: |_, _| vec![figures::fig06_area_energy()],
    },
    Artifact {
        name: "fig08_ipc_heatmap",
        files: &["fig08_ipc_heatmap.txt"],
        plan: figures::grid_plan,
        render: |q, runs| vec![figures::fig08_ipc_heatmap(q, runs)],
    },
    Artifact {
        name: "fig09_edp_heatmap",
        files: &["fig09_edp_heatmap.txt"],
        plan: figures::grid_plan,
        render: |q, runs| vec![figures::fig09_edp_heatmap(q, runs)],
    },
    Artifact {
        name: "fig10_representative",
        files: &["fig10_representative.txt"],
        plan: figures::fig10_plan,
        render: |q, runs| vec![figures::fig10_representative(q, runs)],
    },
    Artifact {
        name: "fig11_interleaving",
        files: &["fig11_interleaving.txt"],
        plan: |_| Vec::new(),
        render: |_, _| vec![figures::fig11_interleaving()],
    },
    Artifact {
        name: "fig12_policy_interleave",
        files: &["fig12_policy_interleave.txt"],
        plan: figures::fig12_plan,
        render: |q, runs| vec![figures::fig12_policy_interleave(q, runs)],
    },
    Artifact {
        name: "fig13_predictors",
        files: &["fig13_predictors.txt"],
        plan: figures::fig13_plan,
        render: |q, runs| vec![figures::fig13_predictors(q, runs)],
    },
    Artifact {
        name: "fig14_interfaces",
        files: &["fig14_interfaces.txt"],
        plan: figures::fig14_plan,
        render: |q, runs| vec![figures::fig14_interfaces(q, runs)],
    },
    Artifact {
        name: "headline",
        files: &["headline.txt", "headline.csv", "headline.json"],
        plan: figures::headline_plan,
        render: figures::headline,
    },
    Artifact {
        name: "related_work",
        files: &["related_work.txt"],
        plan: figures::related_work_plan,
        render: |q, runs| vec![figures::related_work(q, runs)],
    },
    Artifact {
        name: "timeline",
        // `trace_*` and `spans_*` carry wall-clock fields and are
        // gitignored.
        files: &[
            "timeline_1x1.csv",
            "timeline_1x1.json",
            "heat_1x1.csv",
            "heat_1x1.json",
            "trace_1x1.json",
            "spans_1x1.json",
            "timeline_4x4.csv",
            "timeline_4x4.json",
            "heat_4x4.csv",
            "heat_4x4.json",
            "trace_4x4.json",
            "spans_4x4.json",
        ],
        plan: timeline::plan,
        render: timeline::artifacts,
    },
    Artifact {
        name: "reliability",
        files: &["reliability.txt", "reliability.json"],
        plan: |_| reliability::plan(),
        render: |_, runs| reliability::artifacts(runs),
    },
    Artifact {
        name: "bench_qos",
        files: &["BENCH_qos.txt", "BENCH_qos.json"],
        plan: qos::plan,
        render: qos::artifacts,
    },
    Artifact {
        name: "bench_variants",
        files: &["BENCH_variants.txt", "BENCH_variants.json"],
        plan: variants::plan,
        render: variants::artifacts,
    },
];
