//! The benchmark's own checks: the output contract against
//! `BENCHMARK.json`, the replay against `try_run`, and the stored
//! reference fingerprints against the simulator's reference drive.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works too, only slower).

use microbank_sim::simulator::{golden_fingerprint, try_run};
use microbank_telemetry::json::{parse, JsonValue};
use perfbench::replay::replay;
use perfbench::{reference_fingerprint, BenchWorkload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .map(JsonValue::items)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the binary on a short window and return its parsed last line.
fn run_bench(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn smoke_prints_every_declared_metric_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        let res = run_bench("mcf-stress", trace);
        assert_eq!(
            res.get("correct"),
            Some(&JsonValue::Bool(true)),
            "trace {trace}"
        );
        assert_eq!(res.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert!(res.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
        let metrics = match res.get("metrics") {
            Some(JsonValue::Object(m)) => m,
            other => panic!("metrics is not an object: {other:?}"),
        };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name} has no numeric value"
                );
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(
            got, want,
            "trace {trace}: printed metrics differ from {list}"
        );
    }
}

#[test]
fn replay_matches_try_run_on_every_workload() {
    for wl in BenchWorkload::ALL {
        let cfg = wl.config(DEFAULT_SEED).quick();
        let r = try_run(&cfg).expect("run succeeds");
        let rep = replay(&cfg);
        let diff = rep.mismatches(&r);
        assert!(diff.is_empty(), "{}: {}", wl.name(), diff.join("; "));

        // Every cycle is either ticked by one loop iteration or jumped,
        // and every controller slot is either run or slept.
        let l = &rep.ledger;
        let total = cfg.warmup_cycles + cfg.measure_cycles;
        assert_eq!(l.loop_iters + l.cycles_jumped, total, "{}", wl.name());
        let slots = cfg.mem.channels as u64 * total.div_ceil(cfg.ctrl_stride);
        assert_eq!(
            l.ctrl_tick_calls + l.ctrl_slots_slept,
            slots,
            "{}",
            wl.name()
        );
        assert!(l.instrs > 0 && l.drive_ns > 0, "{}", wl.name());
    }
}

#[test]
fn stored_reference_matches_the_skip_off_drive() {
    for wl in BenchWorkload::ALL {
        let cfg = wl.config(DEFAULT_SEED);
        let stored = reference_fingerprint(wl, &cfg).expect("reference.json entry");
        let fresh = try_run(&cfg.with_time_skip(false)).expect("reference run succeeds");
        assert_eq!(
            stored,
            golden_fingerprint(&fresh),
            "{}: reference.json is stale; regenerate it with --emit-reference",
            wl.name()
        );
    }
}
