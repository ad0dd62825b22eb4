//! `sweepd` — the sweep-as-a-service daemon (DESIGN.md §5i).
//!
//! Accepts simulation jobs over HTTP and executes them with the full
//! fault-tolerance stack in `microbank_sim::service`: durable
//! write-ahead queue (kill -9 + restart resumes every admitted job),
//! per-job deadlines, bounded admission, and graceful drain on
//! SIGTERM/ctrl-C or `POST /shutdown`. Each slot runs once: a run depends
//! only on its config, so a failed slot is recorded `failed`, and only a
//! later job re-runs it.
//!
//! Usage:
//!   sweepd [--addr HOST:PORT] [--dir DIR] [--workers N]
//!          [--queue-cap N] [--deadline-ms N] [--drain-grace-ms N]
//!
//! Endpoints: POST /jobs, GET /jobs, GET /jobs/{id}, DELETE /jobs/{id},
//! POST /shutdown, GET /status, GET /metrics. The bound address is
//! printed as `sweepd listening: <addr>` on stdout once ready.

use microbank_sim::{ServiceConfig, SweepService};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Dependency-free signal hooks: `signal(2)` from the platform libc
    // every unix Rust binary already links. The handler only stores an
    // atomic flag — the only thing that is async-signal-safe to do —
    // and the main loop turns it into a graceful drain.
    use std::os::raw::c_int;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: c_int) {
        SIGNALLED.store(true, Ordering::Release);
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    unsafe {
        let handler = on_signal as *const () as usize;
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let addr = flag("--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mut cfg = ServiceConfig::new(flag("--dir").unwrap_or_else(|| "results/sweepd".to_string()));
    if let Some(n) = flag("--workers").and_then(|v| v.parse().ok()) {
        cfg.workers = n;
    }
    if let Some(n) = flag("--queue-cap").and_then(|v| v.parse().ok()) {
        cfg.queue_cap = n;
    }
    if let Some(n) = flag("--deadline-ms").and_then(|v| v.parse().ok()) {
        cfg.default_deadline_ms = n;
    }
    if let Some(n) = flag("--drain-grace-ms").and_then(|v| v.parse().ok()) {
        cfg.drain_grace_ms = n;
    }

    install_signal_handlers();

    let mut service = match SweepService::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweepd: cannot start: {e}");
            std::process::exit(1);
        }
    };
    let bound = match service.serve(&addr) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("sweepd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("sweepd listening: {bound}");

    // Run until a signal or an HTTP shutdown completes the drain.
    loop {
        if SIGNALLED.load(Ordering::Acquire) {
            eprintln!("sweepd: signal received; draining");
            break;
        }
        if service.stopped() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    service.shutdown();
    println!("sweepd: stopped cleanly");
}
