//! Experiment drivers: one function per paper figure. Each builds the run
//! matrix, executes it in parallel, and returns structured results the
//! `microbank-bench` harness binaries print as the paper's rows/series.

use crate::simulator::{run_many, SimConfig, SimResult};
use microbank_core::config::{Interface, MemConfig};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_workloads::spec::SpecGroup;
use microbank_workloads::suite::Workload;

/// The partitioning degrees of the Fig. 6/8/9 sweeps.
pub const DEGREES: [usize; 5] = [1, 2, 4, 8, 16];

/// The <3%-area-overhead representative configurations of Fig. 10/12/13.
pub const REPRESENTATIVE: [(usize, usize); 4] = [(1, 1), (2, 8), (4, 4), (8, 2)];

/// Base configuration for a workload: single-threaded SPEC runs populate a
/// single memory controller (§VI-A); everything else uses all 16.
pub fn base_cfg(workload: Workload, quick: bool) -> SimConfig {
    let cfg = match workload {
        Workload::Spec(_) | Workload::SpecGroupAvg(_) | Workload::SpecAll => {
            SimConfig::spec_single_channel(workload)
        }
        _ => SimConfig::paper_default(workload),
    };
    if quick {
        cfg.quick()
    } else {
        cfg
    }
}

/// Fig. 8 + Fig. 9: the 5×5 (nW, nB) sweep for one workload. Matrices are
/// indexed `[iB][iW]` over [`DEGREES`], normalized to (1,1).
#[derive(Debug, Clone)]
pub struct GridResult {
    pub workload: String,
    pub rel_ipc: Vec<Vec<f64>>,
    pub rel_inv_edp: Vec<Vec<f64>>,
    pub raw: Vec<Vec<SimResult>>,
}

pub fn ubank_grid(workload: Workload, quick: bool) -> GridResult {
    let base = base_cfg(workload, quick);
    let mut cfgs = Vec::new();
    for &nb in &DEGREES {
        for &nw in &DEGREES {
            let mut c = base.clone();
            c.mem = c.mem.with_ubanks(nw, nb);
            cfgs.push(c);
        }
    }
    let results = run_many(&cfgs);
    let baseline = &results[0];
    let mut rel_ipc = Vec::new();
    let mut rel_edp = Vec::new();
    let mut raw = Vec::new();
    for (ib, _) in DEGREES.iter().enumerate() {
        let row = &results[ib * 5..(ib + 1) * 5];
        rel_ipc.push(row.iter().map(|r| r.ipc / baseline.ipc).collect());
        rel_edp.push(row.iter().map(|r| r.inverse_edp_vs(baseline)).collect());
        raw.push(row.to_vec());
    }
    GridResult {
        workload: workload.label(),
        rel_ipc,
        rel_inv_edp: rel_edp,
        raw,
    }
}

/// One Fig. 10 bar group: a workload on a representative configuration.
#[derive(Debug, Clone)]
pub struct RepresentativeRow {
    pub workload: String,
    pub ubank: (usize, usize),
    pub rel_ipc: f64,
    pub rel_inv_edp: f64,
    /// Power breakdown in watts: processor, ACT/PRE, DRAM static(+refresh),
    /// RD/WR, I/O (the Fig. 10/14 stacking order).
    pub power_w: [f64; 5],
}

/// Fig. 10: representative configurations across workloads.
pub fn representative_study(workloads: &[Workload], quick: bool) -> Vec<RepresentativeRow> {
    let mut cfgs = Vec::new();
    for &w in workloads {
        for &(nw, nb) in &REPRESENTATIVE {
            let mut c = base_cfg(w, quick);
            c.mem = c.mem.with_ubanks(nw, nb);
            cfgs.push(c);
        }
    }
    let results = run_many(&cfgs);
    let mut rows = Vec::new();
    for (wi, &w) in workloads.iter().enumerate() {
        let group = &results[wi * REPRESENTATIVE.len()..(wi + 1) * REPRESENTATIVE.len()];
        let baseline = &group[0];
        for (ci, r) in group.iter().enumerate() {
            let p = r.memory_power_w();
            rows.push(RepresentativeRow {
                workload: w.label(),
                ubank: REPRESENTATIVE[ci],
                rel_ipc: r.ipc / baseline.ipc,
                rel_inv_edp: r.inverse_edp_vs(baseline),
                power_w: [
                    r.processor_power_w(),
                    p.act_pre_w,
                    p.static_w + p.refresh_w,
                    p.rdwr_w,
                    p.io_w,
                ],
            });
        }
    }
    rows
}

/// Base configuration for the page-policy-sensitivity studies (Fig. 12,
/// Fig. 13). Single-app SPEC runs are populated with 4 copies instead of
/// 64: page-management and interleaving effects are latency effects, and a
/// hard-saturated channel (64 rate-mode copies) hides them entirely —
/// demand at the bandwidth knee is where the paper's §V queue-occupancy
/// argument plays out.
pub fn policy_study_cfg(workload: Workload, quick: bool) -> SimConfig {
    let mut c = base_cfg(workload, quick);
    if matches!(
        workload,
        Workload::Spec(_) | Workload::SpecGroupAvg(_) | Workload::SpecAll
    ) {
        c.cmp.cores = 4;
    }
    c
}

/// One Fig. 12 point: policy × interleaving base bit on a configuration.
#[derive(Debug, Clone)]
pub struct InterleaveRow {
    pub workload: String,
    pub ubank: (usize, usize),
    pub interleave_base: u32,
    pub policy: PolicyKind,
    pub rel_ipc: f64,
    pub rel_inv_edp: f64,
}

/// Fig. 12: open/close × iB ∈ {6, 8, 10, …, max} on the representative
/// configurations. Everything is normalized to (1,1)/open/iB=13.
pub fn interleave_policy_study(workloads: &[Workload], quick: bool) -> Vec<InterleaveRow> {
    let mut cfgs = Vec::new();
    let mut keys = Vec::new();
    for &w in workloads {
        for &(nw, nb) in &REPRESENTATIVE {
            let probe = policy_study_cfg(w, quick).mem.with_ubanks(nw, nb);
            let max_ib = probe.max_interleave_base();
            let mut ibs: Vec<u32> = (6..max_ib).step_by(2).collect();
            ibs.push(max_ib);
            for ib in ibs {
                for policy in [PolicyKind::Open, PolicyKind::Close] {
                    let mut c = policy_study_cfg(w, quick);
                    c.mem = c.mem.with_ubanks(nw, nb).with_interleave_base(ib);
                    c.policy = policy;
                    cfgs.push(c);
                    keys.push((w, (nw, nb), ib, policy));
                }
            }
        }
    }
    let results = run_many(&cfgs);
    let mut rows = Vec::new();
    for (i, &(w, ubank, ib, policy)) in keys.iter().enumerate() {
        // Baseline: first entry for this workload with (1,1), open, max iB.
        let base_idx = keys
            .iter()
            .position(|&(bw, bu, bib, bp)| {
                bw == w && bu == (1, 1) && bp == PolicyKind::Open && bib == 13
            })
            .expect("baseline present");
        let r = &results[i];
        let b = &results[base_idx];
        rows.push(InterleaveRow {
            workload: w.label(),
            ubank,
            interleave_base: ib,
            policy,
            rel_ipc: r.ipc / b.ipc,
            rel_inv_edp: r.inverse_edp_vs(b),
        });
    }
    rows
}

/// The Fig. 13 policy set: close, open, local, tournament, perfect.
pub const FIG13_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Close,
    PolicyKind::Open,
    PolicyKind::Predictive(PredictorKind::Local),
    PolicyKind::Predictive(PredictorKind::Tournament),
    PolicyKind::Predictive(PredictorKind::Perfect),
];

/// One Fig. 13 bar: a page-management scheme on a workload/configuration.
#[derive(Debug, Clone)]
pub struct PredictorRow {
    pub workload: String,
    pub ubank: (usize, usize),
    pub policy: PolicyKind,
    pub rel_ipc: f64,
    pub hit_rate: f64,
}

/// Fig. 13: page-management schemes (C/O/L/T/P) across workloads and
/// configurations, IPC relative to the open policy at (1,1) per workload.
pub fn predictor_study(
    workloads: &[Workload],
    configs: &[(usize, usize)],
    quick: bool,
) -> Vec<PredictorRow> {
    let mut cfgs = Vec::new();
    let mut keys = Vec::new();
    for &w in workloads {
        for &(nw, nb) in configs {
            for policy in FIG13_POLICIES {
                let mut c = policy_study_cfg(w, quick);
                c.mem = c.mem.with_ubanks(nw, nb);
                c.policy = policy;
                cfgs.push(c);
                keys.push((w, (nw, nb), policy));
            }
        }
    }
    let results = run_many(&cfgs);
    let mut rows = Vec::new();
    for (i, &(w, ubank, policy)) in keys.iter().enumerate() {
        let base_idx = keys
            .iter()
            .position(|&(bw, bu, bp)| bw == w && bu == configs[0] && bp == PolicyKind::Open)
            .unwrap();
        rows.push(PredictorRow {
            workload: w.label(),
            ubank,
            policy,
            rel_ipc: results[i].ipc / results[base_idx].ipc,
            hit_rate: results[i].policy_hit_rate,
        });
    }
    rows
}

/// One Fig. 14 bar: an interface on a workload (no μbanks).
#[derive(Debug, Clone)]
pub struct InterfaceRow {
    pub workload: String,
    pub interface: Interface,
    pub ipc: f64,
    pub rel_ipc: f64,
    pub rel_inv_edp: f64,
    /// Same stacking as [`RepresentativeRow::power_w`].
    pub power_w: [f64; 5],
    /// ACT/PRE share of memory power (the paper's 76.2% observation).
    pub act_pre_fraction: f64,
}

/// Fig. 14: DDR3-PCB vs DDR3-TSI vs LPDDR-TSI without μbanks.
pub fn interface_study(workloads: &[Workload], quick: bool) -> Vec<InterfaceRow> {
    let interfaces = [Interface::Ddr3Pcb, Interface::Ddr3Tsi, Interface::LpddrTsi];
    let mut cfgs = Vec::new();
    for &w in workloads {
        for &i in &interfaces {
            let mut c = base_cfg(w, quick);
            c.mem = MemConfig::for_interface(i);
            cfgs.push(c);
        }
    }
    let results = run_many(&cfgs);
    let mut rows = Vec::new();
    for (wi, &w) in workloads.iter().enumerate() {
        let group = &results[wi * 3..wi * 3 + 3];
        let base = &group[0]; // DDR3-PCB
        for (ii, r) in group.iter().enumerate() {
            let p = r.memory_power_w();
            rows.push(InterfaceRow {
                workload: w.label(),
                interface: interfaces[ii],
                ipc: r.ipc,
                rel_ipc: r.ipc / base.ipc,
                rel_inv_edp: r.inverse_edp_vs(base),
                power_w: [
                    r.processor_power_w(),
                    p.act_pre_w,
                    p.static_w + p.refresh_w,
                    p.rdwr_w,
                    p.io_w,
                ],
                act_pre_fraction: r.mem_energy.act_pre_fraction(),
            });
        }
    }
    rows
}

/// Related-work comparison (§VII): the same workload on the named bank
/// organizations — conventional, SALP (bitline-only partitioning),
/// Half-DRAM (2×2 point), and μbank — all on the LPDDR-TSI substrate.
/// Returns `(label, result)` pairs; index 0 is the conventional baseline.
pub fn organization_comparison(workload: Workload, quick: bool) -> Vec<(String, SimResult)> {
    use microbank_core::organization::Organization;
    let orgs = Organization::comparison_set();
    let cfgs: Vec<SimConfig> = orgs
        .iter()
        .map(|o| {
            let mut c = base_cfg(workload, quick);
            c.mem = c.mem.with_organization(*o);
            c
        })
        .collect();
    let results = run_many(&cfgs);
    orgs.iter().map(|o| o.label()).zip(results).collect()
}

/// §I headline: best μbank LPDDR-TSI system vs the DDR3-PCB baseline on
/// the memory-intensive third of SPEC (spec-high). Returns
/// (IPC ratio, 1/EDP ratio, baseline result, μbank result).
pub fn headline(quick: bool) -> (f64, f64, SimResult, SimResult) {
    // Full-system comparison (the §I summary compares complete memory
    // systems): 64 cores, rate-mode spec-high, DDR3-PCB with its 8
    // controllers vs the 16-channel LPDDR-TSI system with (4,4) μbanks.
    let w = Workload::SpecGroupAvg(SpecGroup::High);
    let mut base = SimConfig::paper_default(w);
    base.mem = MemConfig::ddr3_pcb();
    let mut ub = SimConfig::paper_default(w);
    ub.mem = ub.mem.with_ubanks(4, 4);
    if quick {
        base = base.quick();
        ub = ub.quick();
    }
    let mut results = run_many(&[base, ub]);
    let u = results.pop().expect("two runs");
    let b = results.pop().expect("two runs");
    (u.ipc / b.ipc, u.inverse_edp_vs(&b), b, u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_baseline_cell_is_one() {
        let g = ubank_grid(Workload::Spec("429.mcf"), true);
        assert!((g.rel_ipc[0][0] - 1.0).abs() < 1e-9);
        assert!((g.rel_inv_edp[0][0] - 1.0).abs() < 1e-9);
        // The best cell must be meaningfully better than baseline.
        let best = g.rel_ipc.iter().flatten().cloned().fold(0.0, f64::max);
        assert!(best > 1.1, "best rel IPC {best}");
    }

    #[test]
    fn representative_rows_shape() {
        let rows = representative_study(&[Workload::Spec("429.mcf")], true);
        assert_eq!(rows.len(), 4);
        assert!((rows[0].rel_ipc - 1.0).abs() < 1e-9);
        for r in &rows {
            assert!(r.power_w.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn interface_study_orders_interfaces() {
        let rows = interface_study(&[Workload::MixHigh], true);
        assert_eq!(rows.len(), 3);
        assert!((rows[0].rel_ipc - 1.0).abs() < 1e-9, "PCB is the baseline");
        // TSI interfaces beat PCB on IPC (more channels, faster bursts).
        assert!(rows[2].rel_ipc > rows[0].rel_ipc);
    }
}
