//! §I / §VI headline numbers: the μbank LPDDR-TSI system vs the DDR3-PCB
//! baseline on the memory-intensive spec-high applications. The paper
//! reports 1.62× IPC and 4.80× energy-delay product.
//!
//! Prints the comparison and writes it, from the same run, as
//! `results/headline.txt` (the printed report) and
//! `results/headline.csv` / `results/headline.json` (the summary rows),
//! each atomically.
//!
//! Usage: `headline [--quick]`

use microbank_sim::experiment::headline;
use microbank_sim::report::{summarize, summary_columns, Table};
use microbank_telemetry::atomic_write;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ipc_ratio, edp_ratio, base, ub) = headline(quick);

    let report = [
        "Headline (spec-high average):".to_string(),
        format!(
            "  baseline  DDR3-PCB (1,1):    IPC {:.3}  MAPKI {:.1}",
            base.ipc, base.mapki
        ),
        format!(
            "  proposed  LPDDR-TSI (4,4):   IPC {:.3}  MAPKI {:.1}",
            ub.ipc, ub.mapki
        ),
        String::new(),
        format!("  IPC improvement:   {ipc_ratio:.2}x   (paper: 1.62x)"),
        format!("  1/EDP improvement: {edp_ratio:.2}x   (paper: 4.80x)\n"),
    ]
    .join("\n");
    print!("{report}");

    let mut t = Table::new("headline", &summary_columns());
    t.push("ddr3_pcb_1x1", summarize(&base));
    t.push("lpddr_tsi_4x4", summarize(&ub));
    for (name, bytes) in [
        ("headline.txt", report),
        ("headline.csv", t.to_csv()),
        ("headline.json", t.to_json()),
    ] {
        let path = format!("results/{name}");
        if let Err(e) = atomic_write(&path, bytes) {
            eprintln!("headline: failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("\nwrote results/headline.txt, results/headline.csv and results/headline.json");
}
