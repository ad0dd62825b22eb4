//! Regenerates the committed paper artifacts from the
//! [`microbank_bench::ARTIFACTS`] table: every table and figure, the
//! headline, the telemetry exports, and the reliability, QoS and
//! device-variant studies. Each `.json` must parse before it is written,
//! each file is written with `atomic_write`, and each `.txt` is echoed to
//! stdout.
//!
//! Usage: `reproduce [--quick] [--out DIR] [NAME...]`
//!
//! Without names every artifact is produced; `--out` defaults to
//! `results`. `--quick` shortens the simulated runs and therefore needs
//! an explicit `--out`, so quick numbers never land in `results/`.
//! Usage errors exit with status 2, write failures with 1.

use microbank_bench::ARTIFACTS;
use microbank_telemetry::atomic_write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    eprintln!(
        "reproduce: {msg}\nusage: reproduce [--quick] [--out DIR] [NAME...]\nnames: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out = Some(PathBuf::from(dir)),
                None => return usage("--out needs a directory"),
            },
            flag if flag.starts_with('-') => return usage(&format!("unknown option {flag}")),
            name if ARTIFACTS.iter().any(|a| a.name == name) => names.push(arg),
            name => return usage(&format!("unknown artifact {name}")),
        }
    }
    let out = match (out, quick) {
        (Some(dir), _) => dir,
        (None, false) => PathBuf::from("results"),
        (None, true) => {
            return usage("--quick needs --out DIR (quick runs never overwrite results/)")
        }
    };

    let selected = ARTIFACTS
        .iter()
        .filter(|a| names.is_empty() || names.iter().any(|n| n == a.name));
    for artifact in selected {
        let bodies = (artifact.produce)(quick);
        assert_eq!(
            bodies.len(),
            artifact.files.len(),
            "{} must produce one body per declared file",
            artifact.name
        );
        for (file, body) in artifact.files.iter().zip(bodies) {
            let path = out.join(file);
            if file.ends_with(".json") {
                if let Err(offset) = microbank_telemetry::json::parse(&body) {
                    panic!("{} is not valid JSON at byte {offset}", path.display());
                }
            }
            if let Err(e) = atomic_write(&path, &body) {
                eprintln!("reproduce: failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            if file.ends_with(".txt") {
                println!("{body}");
            }
        }
        eprintln!("reproduce: wrote {} to {}", artifact.name, out.display());
    }
    ExitCode::SUCCESS
}
