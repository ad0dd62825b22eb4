//! The committed artifacts and their producers: every file in `results/`
//! has exactly one entry in [`ARTIFACTS`], plans that plot the same runs
//! share them, `reproduce` refuses to write quick numbers into
//! `results/`, the figures' baselines and orderings hold on quick runs,
//! and the study gates — QoS regulation, μbank EDP, reliability blast
//! radius — hold at the configurations the committed artifacts report.

use microbank_bench::{figures, qos, reliability, variants, ARTIFACTS};
use microbank_sim::simulator::{SimConfig, SimResult};
use microbank_sim::Runs;
use microbank_workloads::suite::Workload;
use std::path::Path;
use std::process::Command;

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

#[test]
fn every_committed_artifact_has_exactly_one_producer() {
    let declared: Vec<&str> = ARTIFACTS
        .iter()
        .flat_map(|a| a.files.iter().copied())
        .collect();
    for entry in std::fs::read_dir(results_dir()).expect("results/ exists") {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_str().expect("UTF-8 file name");
        if name == "BENCH_hotpath.json" {
            continue; // wall-clock measurements, not regenerated
        }
        let producers = declared.iter().filter(|&&f| f == name).count();
        assert_eq!(producers, 1, "results/{name} has {producers} producers");
    }
    for file in &declared {
        // Traces and span trees carry wall-clock fields and are gitignored.
        if file.starts_with("trace_") || file.starts_with("spans_") {
            continue;
        }
        assert!(
            results_dir().join(file).is_file(),
            "declared artifact results/{file} is not committed"
        );
    }
    let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), ARTIFACTS.len(), "artifact names are unique");
}

#[test]
fn reproduce_refuses_quick_runs_without_an_output_directory() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce_cli");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let reproduce = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .current_dir(&scratch)
            .output()
            .expect("reproduce runs")
    };

    let refused = reproduce(&["--quick", "table1_params"]);
    assert_eq!(refused.status.code(), Some(2), "--quick without --out");
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--out"));
    assert!(!scratch.join("results").exists(), "nothing was written");

    for bad in [&["--out"][..], &["--reps", "3"], &["no_such_artifact"]] {
        assert_eq!(reproduce(bad).status.code(), Some(2), "{bad:?}");
    }

    let ok = reproduce(&["--quick", "--out", "quick", "table1_params"]);
    assert!(ok.status.success());
    let written =
        std::fs::read_to_string(scratch.join("quick/table1_params.txt")).expect("written");
    assert_eq!(written, figures::table1_params());
    assert_eq!(String::from_utf8_lossy(&ok.stdout), format!("{written}\n"));
    assert_eq!(std::fs::read_dir(scratch.join("quick")).unwrap().count(), 1);
}

/// Fingerprints of the named artifact's plan; simulates nothing.
fn plan_fingerprints(name: &str, quick: bool) -> Vec<String> {
    let artifact = ARTIFACTS.iter().find(|a| a.name == name).expect(name);
    (artifact.plan)(quick)
        .iter()
        .map(SimConfig::fingerprint)
        .collect()
}

#[test]
fn fig09_and_related_work_plot_fig08_runs() {
    for quick in [false, true] {
        let fig08 = plan_fingerprints("fig08_ipc_heatmap", quick);
        assert_eq!(fig08.len(), 75, "three 5×5 grids");
        assert_eq!(plan_fingerprints("fig09_edp_heatmap", quick), fig08);
        // SALP-8 and Half-DRAM are the (1,8) and (2,2) cells of the
        // 429.mcf grid; conventional and the μbank points are cells too.
        for fp in plan_fingerprints("related_work", quick) {
            assert!(fig08.contains(&fp), "related_work config {fp} not in Fig 8");
        }
    }
}

#[test]
fn grid_baseline_cell_is_one() {
    let mcf = Workload::Spec("429.mcf");
    let runs = Runs::simulate(&figures::grid_cfgs(mcf, true));
    let rel_ipc = figures::grid(mcf, true, &runs, |r, base| r.ipc / base.ipc);
    let rel_inv_edp = figures::grid(mcf, true, &runs, SimResult::inverse_edp_vs);
    assert!((rel_ipc[0][0] - 1.0).abs() < 1e-9);
    assert!((rel_inv_edp[0][0] - 1.0).abs() < 1e-9);
    // The best cell must be meaningfully better than baseline.
    let best = rel_ipc.iter().flatten().cloned().fold(0.0, f64::max);
    assert!(best > 1.1, "best rel IPC {best}");
}

#[test]
fn representative_rows_shape() {
    let cfgs = figures::representative_cfgs(Workload::Spec("429.mcf"), true);
    assert_eq!(cfgs.len(), 4);
    let runs = Runs::simulate(&cfgs);
    let base = runs.get(&cfgs[0]);
    assert!((runs.get(&cfgs[0]).ipc / base.ipc - 1.0).abs() < 1e-9);
    for c in &cfgs {
        assert!(figures::power_w(runs.get(c)).iter().all(|&p| p >= 0.0));
    }
}

#[test]
fn interface_study_orders_interfaces() {
    let cfgs = figures::interface_cfgs(Workload::MixHigh, true);
    assert_eq!(cfgs.len(), 3);
    let runs = Runs::simulate(&cfgs);
    let base = runs.get(&cfgs[0]);
    let rel_ipc: Vec<f64> = cfgs.iter().map(|c| runs.get(c).ipc / base.ipc).collect();
    assert!((rel_ipc[0] - 1.0).abs() < 1e-9, "PCB is the baseline");
    // TSI interfaces beat PCB on IPC (more channels, faster bursts).
    assert!(rel_ipc[2] > rel_ipc[0]);
}

#[test]
fn qos_regulation_does_not_worsen_lc_p99_at_16x16() {
    let runs = Runs::simulate(&qos::plan(true));
    let points = qos::study(true, &runs);
    let (_, _, holds) = qos::gate(&points);
    assert!(holds, "{}", qos::artifacts(true, &runs)[0]);
}

#[test]
fn variants_microbank_edp_does_not_exceed_conventional() {
    let runs = Runs::simulate(&variants::plan(true));
    let points = variants::study(true, &runs);
    let (_, _, holds) = variants::gate(&points);
    assert!(holds, "{}", variants::artifacts(true, &runs)[0]);
}

#[test]
fn reliability_finer_partitions_lose_less_than_1x1() {
    let runs = Runs::simulate(&reliability::plan());
    let study = reliability::study(&runs);
    let checks = reliability::blast_radius(&study.points);
    assert_eq!(checks.len(), 8, "2 loads × 2 ECC modes × 2 fine geometries");
    assert!(
        checks.iter().all(|&(_, _, holds)| holds),
        "{}",
        reliability::artifacts(&runs)[0]
    );
}
