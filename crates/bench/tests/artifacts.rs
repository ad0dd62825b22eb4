//! The committed artifacts and their producers: every file in `results/`
//! has exactly one entry in [`ARTIFACTS`], `reproduce` refuses to write
//! quick numbers into `results/`, and the study gates — QoS regulation,
//! μbank EDP, reliability blast radius — hold at the configurations the
//! committed artifacts report.

use microbank_bench::{figures, qos, reliability, variants, ARTIFACTS};
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

#[test]
fn qos_regulation_does_not_worsen_lc_p99_at_16x16() {
    let points = qos::study(true);
    let (_, _, holds) = qos::gate(&points);
    assert!(holds, "{}", qos::artifacts(true)[0]);
}

#[test]
fn variants_microbank_edp_does_not_exceed_conventional() {
    let points = variants::study(true);
    let (_, _, holds) = variants::gate(&points);
    assert!(holds, "{}", variants::artifacts(true)[0]);
}

#[test]
fn reliability_finer_partitions_lose_less_than_1x1() {
    let study = reliability::study();
    let checks = reliability::blast_radius(&study.points);
    assert_eq!(checks.len(), 8, "2 loads × 2 ECC modes × 2 fine geometries");
    assert!(
        checks.iter().all(|&(_, _, holds)| holds),
        "{}",
        reliability::artifacts()[0]
    );
}
