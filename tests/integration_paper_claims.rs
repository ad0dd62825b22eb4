//! Directional checks of the paper's headline claims at test scale. The
//! full-scale numbers live in `results/` and EXPERIMENTS.md; the
//! `reproduce` binary in `microbank-bench` regenerates them.

use microbank::core::config::MemConfig;
use microbank::energy::area::{AreaModel, PAPER_FIG6A};
use microbank::energy::breakdown::{system_breakdown, SystemKind};
use microbank::prelude::*;
use microbank::sim;

#[test]
fn fig1_tsi_unbalances_and_ubank_rebalances() {
    let pcb = system_breakdown(SystemKind::PcbBaseline, 1.0, 0.3);
    let tsi = system_breakdown(SystemKind::Tsi, 1.0, 0.3);
    let ub = system_breakdown(SystemKind::TsiMicrobank, 1.0, 0.3);
    // TSI cuts I/O 5×; ACT/PRE then dominates; μbank fixes that.
    assert!(tsi.io_pj_b <= pcb.io_pj_b / 5.0);
    assert!(tsi.act_pre_pj_b / tsi.total() > 0.7);
    assert!(ub.total() < tsi.total() / 2.5);
}

#[test]
fn fig6a_area_model_matches_published_matrix() {
    let m = AreaModel::new();
    let degrees = [1usize, 2, 4, 8, 16];
    for (ib, &nb) in degrees.iter().enumerate() {
        for (iw, &nw) in degrees.iter().enumerate() {
            let got = m.relative_area(UbankConfig::new(nw, nb));
            assert!((got - PAPER_FIG6A[ib][iw]).abs() < 0.002, "({nw},{nb})");
        }
    }
}

#[test]
fn fig6b_energy_matrix_shape() {
    let e16 = EnergyModel::new(EnergyParams::lpddr_tsi(), UbankConfig::new(16, 1));
    // β=1: energy per read drops by ~4× with nW=16 (30 nJ → ~1.9 nJ ACT).
    assert!(e16.relative_energy_per_read(1.0) < 0.3);
    // β=0.1: amortized activation, much smaller effect.
    assert!(e16.relative_energy_per_read(0.1) > 0.45);
}

#[test]
fn fig8_shape_mcf_gains_most_tpch_prefers_nb() {
    // Scaled-down grid probes (full grid in fig08 binary).
    let run = |w: Workload, nw: usize, nb: usize, cores: usize| {
        let mut c = match w {
            Workload::TpcH => SimConfig::paper_default(w),
            _ => SimConfig::spec_single_channel(w),
        }
        .quick();
        c.cmp.cores = cores;
        c.mem = c.mem.with_ubanks(nw, nb);
        sim::run(&c)
    };
    // mcf: large μbank gain.
    let m0 = run(Workload::Spec("429.mcf"), 1, 1, 16);
    let m1 = run(Workload::Spec("429.mcf"), 4, 4, 16);
    assert!(m1.ipc / m0.ipc > 1.3, "mcf gain {}", m1.ipc / m0.ipc);
    // TPC-H: nB restores row hits far more than nW.
    let t0 = run(Workload::TpcH, 1, 1, 64);
    let tb = run(Workload::TpcH, 1, 8, 64);
    let tw = run(Workload::TpcH, 8, 1, 64);
    assert!(
        tb.row_hit_rate > tw.row_hit_rate + 0.1,
        "nB {} vs nW {}",
        tb.row_hit_rate,
        tw.row_hit_rate
    );
    assert!(tb.ipc > t0.ipc * 1.2);
}

#[test]
fn fig9_shape_mcf_edp_favors_wordline_partitions() {
    // Smaller activations pay off along nW: (16,1) beats (1,16) on 1/EDP
    // at equal μbank count (full length: 4.908 vs 2.543).
    let run = |nw: usize, nb: usize| {
        let mut c = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        c.cmp.cores = 16;
        c.mem = c.mem.with_ubanks(nw, nb);
        sim::run(&c)
    };
    let base = run(1, 1);
    let w = run(16, 1).inverse_edp_vs(&base);
    let b = run(1, 16).inverse_edp_vs(&base);
    assert!(w > b, "(16,1) 1/EDP {w} vs (1,16) {b}");
}

#[test]
fn fig12_shape_open_beats_close_at_row_interleaving_with_ubanks() {
    // (2,8) on spec-high at iB=12, the row-granularity maximum: open page
    // keeps the restored locality, close throws it away (full length:
    // relIPC 1.578 vs 1.492).
    let run = |policy: PolicyKind| {
        let mut c =
            sim::experiment::policy_study_cfg(Workload::SpecGroupAvg(SpecGroup::High), true);
        c.mem = c.mem.with_ubanks(2, 8).with_interleave_base(12);
        c.policy = policy;
        sim::run(&c)
    };
    let open = run(PolicyKind::Open);
    let close = run(PolicyKind::Close);
    assert!(
        open.ipc > close.ipc,
        "open {} vs close {}",
        open.ipc,
        close.ipc
    );
}

#[test]
fn fig13_shape_tournament_matches_or_beats_open_on_mcf_with_ubanks() {
    // 429.mcf at (2,8): with drained queues every page decision is
    // speculative, and the tournament predictor beats static open (full
    // length: relIPC 1.756 vs 1.552).
    let run = |policy: PolicyKind| {
        let mut c = sim::experiment::policy_study_cfg(Workload::Spec("429.mcf"), true);
        c.mem = c.mem.with_ubanks(2, 8);
        c.policy = policy;
        sim::run(&c)
    };
    let open = run(PolicyKind::Open);
    let tour = run(PolicyKind::Predictive(PredictorKind::Tournament));
    assert!(
        tour.ipc >= open.ipc,
        "tournament {} vs open {}",
        tour.ipc,
        open.ipc
    );
}

#[test]
fn fig14_interface_ordering() {
    let run = |i: Interface| {
        let mut c = SimConfig::paper_default(Workload::MixHigh).quick();
        c.mem = MemConfig::for_interface(i);
        sim::run(&c)
    };
    let pcb = run(Interface::Ddr3Pcb);
    let dtsi = run(Interface::Ddr3Tsi);
    let ltsi = run(Interface::LpddrTsi);
    // IPC: TSI ≥ PCB (more channels, faster bursts); LPDDR-TSI ≈ DDR3-TSI.
    assert!(
        dtsi.ipc > pcb.ipc * 1.1,
        "DDR3-TSI {} vs PCB {}",
        dtsi.ipc,
        pcb.ipc
    );
    assert!(ltsi.ipc > pcb.ipc * 1.1);
    // Energy: LPDDR-TSI strictly best EDP.
    assert!(ltsi.inverse_edp_vs(&pcb) > dtsi.inverse_edp_vs(&pcb));
    // ACT/PRE dominates LPDDR-TSI memory power (the μbank motivation).
    assert!(
        ltsi.mem_energy.act_pre_fraction() > 0.5,
        "{}",
        ltsi.mem_energy.act_pre_fraction()
    );
    assert!(ltsi.mem_energy.act_pre_fraction() > pcb.mem_energy.act_pre_fraction());
}

#[test]
fn related_work_microbank_subsumes_salp() {
    // §VII: μbank subsumes SALP — same bank-level parallelism, plus the
    // activation-energy savings of wordline partitioning.
    use microbank::core::organization::Organization;
    let run_org = |o: Organization| {
        let mut c = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        c.cmp.cores = 16;
        c.mem = c.mem.with_organization(o);
        sim::run(&c)
    };
    let conv = run_org(Organization::Conventional);
    let salp = run_org(Organization::Salp { subarrays: 8 });
    let ub = run_org(Organization::Microbank { n_w: 2, n_b: 4 });
    // SALP and the same-row-buffer-count μbank deliver similar IPC…
    assert!(salp.ipc > conv.ipc);
    assert!(
        (ub.ipc / salp.ipc - 1.0).abs() < 0.10,
        "{} vs {}",
        ub.ipc,
        salp.ipc
    );
    // …but μbank activates half the row, so its ACT energy is lower.
    let e_salp = salp.mem_energy.act_pre_nj / salp.dram.activates.max(1) as f64;
    let e_ub = ub.mem_energy.act_pre_nj / ub.dram.activates.max(1) as f64;
    assert!(e_ub < 0.6 * e_salp, "{e_ub} vs {e_salp}");
}

#[test]
fn headline_direction_ubank_tsi_beats_ddr3_pcb() {
    // Full systems (as in §I): 8-channel DDR3-PCB vs 16-channel LPDDR-TSI
    // with (4,4) μbanks, 64-core rate-mode spec-high.
    let mut base = SimConfig::paper_default(Workload::SpecGroupAvg(SpecGroup::High)).quick();
    base.mem = MemConfig::ddr3_pcb();
    let mut ub = SimConfig::paper_default(Workload::SpecGroupAvg(SpecGroup::High)).quick();
    ub.mem = ub.mem.with_ubanks(4, 4);
    let b = sim::run(&base);
    let u = sim::run(&ub);
    assert!(
        u.ipc > b.ipc * 1.1,
        "ubank TSI {} vs DDR3-PCB {}",
        u.ipc,
        b.ipc
    );
    assert!(
        u.inverse_edp_vs(&b) > 1.5,
        "EDP gain {}",
        u.inverse_edp_vs(&b)
    );
}
