//! Device-variant seam identity suite (DESIGN §5h).
//!
//! The variant abstraction routes *every* configuration — including the
//! pre-seam Conventional and Microbank models — through one code path:
//! `VariantRules` in the channel, the controller's victim-precharge arm,
//! and the energy model's latch dispatch. For the two legacy variants the
//! rules are `NONE`, so the seam must be invisible: bit-identical
//! fingerprints against both the legacy `with_ubanks` construction and the
//! committed golden table, with time-skip on and off.
//!
//! SALP and Sectored have no legacy reference, so their pinned property is
//! internal consistency: the event-driven time-skip drive must reproduce
//! the per-cycle reference exactly (the `earliest_*`/`act_blocker`
//! deadlines are the proof obligations).

use microbank_core::variant::{DeviceVariant, SalpMode};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_sim::simulator::{golden_fingerprint, run, SimConfig};
use microbank_workloads::suite::Workload;

/// Committed fingerprint of ("1x1", "frfcfs", "open") from the golden
/// table in `integration_golden.rs` — duplicated here so the seam test
/// pins against the *committed* behavior, not just a sibling run.
const GOLDEN_1X1_FRFCFS_OPEN: [u64; 13] = [
    7996,
    2140,
    0,
    2151,
    2145,
    2,
    0,
    1620,
    520,
    17120,
    2140,
    1015732,
    13233932962532133159,
];

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 30_000;
    cfg.scheduler = SchedulerKind::FrFcfs;
    cfg.policy = PolicyKind::Open;
    cfg
}

fn fp(cfg: &SimConfig) -> [u64; 13] {
    golden_fingerprint(&run(cfg))
}

#[test]
fn conventional_through_seam_matches_committed_golden() {
    let mut cfg = base_cfg();
    cfg.mem = cfg.mem.with_variant(DeviceVariant::Conventional);
    assert_eq!(
        fp(&cfg),
        GOLDEN_1X1_FRFCFS_OPEN,
        "Conventional via the variant seam drifted from the committed (1,1) golden"
    );
}

#[test]
fn conventional_seam_is_identical_to_legacy_1x1_everywhere() {
    let seam = |skip: bool| {
        let mut cfg = base_cfg().with_time_skip(skip);
        cfg.mem = cfg.mem.with_variant(DeviceVariant::Conventional);
        fp(&cfg)
    };
    let legacy = |skip: bool| {
        let mut cfg = base_cfg().with_time_skip(skip);
        cfg.mem = cfg.mem.with_ubanks(1, 1);
        fp(&cfg)
    };
    for skip in [false, true] {
        assert_eq!(
            seam(skip),
            legacy(skip),
            "Conventional vs legacy (1,1) diverged at skip={skip}"
        );
    }
}

#[test]
fn microbank_seam_is_identical_to_legacy_8x8_everywhere() {
    let seam = |skip: bool| {
        let mut cfg = base_cfg().with_time_skip(skip);
        // with_variant(Microbank) preserves the configured geometry.
        cfg.mem = cfg
            .mem
            .with_ubanks(8, 8)
            .with_variant(DeviceVariant::Microbank);
        fp(&cfg)
    };
    let legacy = |skip: bool| {
        let mut cfg = base_cfg().with_time_skip(skip);
        cfg.mem = cfg.mem.with_ubanks(8, 8);
        fp(&cfg)
    };
    for skip in [false, true] {
        assert_eq!(
            seam(skip),
            legacy(skip),
            "Microbank vs legacy (8,8) diverged at skip={skip}"
        );
    }
}

/// The structural variants exercise the new legality rules; the time-skip
/// horizon must fold exactly the deadlines the per-cycle ticks admit by (a victim
/// blocked by variant state folds the victim's precharge, a shared-bitline
/// wait folds the burst end). Any inexactness shows up as a fingerprint
/// mismatch between the two drive modes.
#[test]
fn structural_variants_are_skip_exact() {
    let variants = [
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Salp1,
        },
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Salp2,
        },
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Masa,
        },
        DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 8,
        },
        DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 2,
        },
    ];
    for v in variants {
        let mk = |skip: bool| {
            let mut cfg = base_cfg().with_time_skip(skip);
            cfg.mem = cfg.mem.with_variant(v);
            cfg
        };
        let reference = fp(&mk(false));
        let r = run(&mk(true));
        assert_eq!(
            golden_fingerprint(&r),
            reference,
            "{}: time-skip drive diverged from the per-cycle reference",
            v.label()
        );
        assert!(
            r.dram.reads > 0,
            "{}: no reads completed — variant deadlocked",
            v.label()
        );
    }
}

/// Variant structural pressure is visible in the stats: MASA may hold all
/// eight subarray rows open where SALP-1 keeps one per bank, so on the
/// same workload MASA preserves at least SALP-1's row-buffer locality and
/// serves at least as many reads in the fixed measurement window (this is
/// the SALP paper's whole argument for MASA over SALP-1).
#[test]
fn masa_dominates_salp1_on_locality_and_throughput() {
    let run_with = |mode: SalpMode| {
        let mut cfg = base_cfg();
        cfg.mem = cfg
            .mem
            .with_variant(DeviceVariant::Salp { subarrays: 8, mode });
        run(&cfg)
    };
    let salp1 = run_with(SalpMode::Salp1);
    let masa = run_with(SalpMode::Masa);
    assert!(
        masa.row_hit_rate >= salp1.row_hit_rate,
        "MASA row-hit rate {} below SALP-1's {}",
        masa.row_hit_rate,
        salp1.row_hit_rate
    );
    assert!(
        masa.dram.reads >= salp1.dram.reads,
        "MASA served {} reads, fewer than SALP-1's {}",
        masa.dram.reads,
        salp1.dram.reads
    );
}
