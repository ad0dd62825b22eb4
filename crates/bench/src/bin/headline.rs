//! §I / §VI headline numbers: the μbank LPDDR-TSI system vs the DDR3-PCB
//! baseline on the memory-intensive spec-high applications. The paper
//! reports 1.62× IPC and 4.80× energy-delay product.
//!
//! Runs through the crash-safe [`SweepRunner`]: each system is a manifest
//! slot, so a killed run resumes from `results/headline.manifest.json`,
//! and `results/headline.csv` / `results/headline.json` are written
//! atomically.
//!
//! Usage: `headline [--quick]`

use microbank_sim::experiment::headline_cfgs;
use microbank_sim::report::{summarize, summary_columns, Table};
use microbank_sim::{SimError, SlotStatus, SweepRunner, SweepSlot};

fn main() {
    if let Err(e) = real_main() {
        eprintln!("headline: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), SimError> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (base_cfg, ub_cfg) = headline_cfgs(quick);
    let slots = vec![
        SweepSlot {
            id: "ddr3_pcb_1x1".to_string(),
            cfg: base_cfg,
        },
        SweepSlot {
            id: "lpddr_tsi_4x4".to_string(),
            cfg: ub_cfg,
        },
    ];

    let mut runner = SweepRunner::new("headline", "results");
    // Summary columns plus EDP-per-work, so the stdout ratios can be
    // rebuilt from the manifest on a resumed run without re-simulating.
    let records = runner.run_slots(&slots, |r| {
        let mut v = summarize(r);
        v.push(r.edp_per_work());
        v
    })?;

    let mut failed = false;
    for rec in records.iter().filter(|r| r.status == SlotStatus::Failed) {
        eprintln!(
            "headline: slot '{}' failed: {}",
            rec.id,
            rec.error.as_deref().unwrap_or("unknown error")
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    let (base, ub) = (&records[0].values, &records[1].values);

    println!("Headline (spec-high average):");
    println!(
        "  baseline  DDR3-PCB (1,1):    IPC {:.3}  MAPKI {:.1}",
        base[0], base[1]
    );
    println!(
        "  proposed  LPDDR-TSI (4,4):   IPC {:.3}  MAPKI {:.1}",
        ub[0], ub[1]
    );
    println!();
    let ipc_ratio = ub[0] / base[0];
    // EDP-per-work rides after the summary columns (pushed above).
    let edp_i = summary_columns().len();
    let edp_ratio = base[edp_i] / ub[edp_i];
    println!("  IPC improvement:   {ipc_ratio:.2}x   (paper: 1.62x)");
    println!("  1/EDP improvement: {edp_ratio:.2}x   (paper: 4.80x)");

    let mut t = Table::new("headline", &summary_columns());
    for rec in &records {
        t.push(
            rec.id.clone(),
            rec.values[..summary_columns().len()].to_vec(),
        );
    }
    runner.write_table(&t)?;
    println!("\nwrote results/headline.csv and results/headline.json");
    Ok(())
}
