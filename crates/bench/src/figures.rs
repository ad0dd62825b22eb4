//! The paper's tables and figures as text. A simulating figure is two
//! functions: its plan (`*_plan`, the configs it needs) and its render,
//! which reads those configs' results from a [`Runs`] set and returns the
//! bytes of its file(s) in `results/`. Renders never simulate, and every
//! ratio is computed straight from the runs' [`SimResult`]s.

use microbank_core::address::AddressMap;
use microbank_core::config::{Interface, MemConfig};
use microbank_core::organization::Organization;
use microbank_ctrl::policy::PolicyKind;
use microbank_energy::area::{AreaModel, PAPER_FIG6A};
use microbank_energy::breakdown::figure1;
use microbank_energy::energy::figure6b_matrix;
use microbank_energy::params::EnergyParams;
use microbank_sim::experiment::{
    base_cfg, policy_study_cfg, Runs, DEGREES, FIG13_POLICIES, REPRESENTATIVE,
};
use microbank_sim::report::{summarize, summary_columns, Table};
use microbank_sim::simulator::{SimConfig, SimResult};
use microbank_workloads::spec::{group, SpecGroup};
use microbank_workloads::suite::Workload;
use std::fmt::Write as _;

/// Format a 5×5 (nW, nB) matrix the way the paper's heatmap figures print:
/// rows are `nB` ∈ {1,2,4,8,16} (top = 1), columns `nW` ∈ {1,2,4,8,16}.
/// The matrix is followed by a blank line.
fn format_matrix(title: &str, m: &[Vec<f64>]) -> String {
    let mut out = format!("{title}\nnB\\nW ");
    for d in DEGREES {
        let _ = write!(out, "{d:>8}");
    }
    out.push('\n');
    for (i, row) in m.iter().enumerate() {
        let _ = write!(out, "{:>5} ", DEGREES[i]);
        for v in row {
            let _ = write!(out, "{v:>8.3}");
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Table I: DRAM energy and timing parameters. These are model *inputs*
/// (taken from the paper), printed for the record so every downstream
/// figure is traceable to its parameter set.
pub fn table1_params() -> String {
    let mut o = String::new();
    let _ = writeln!(o, "Table I: DRAM energy and timing parameters");
    let _ = writeln!(o, "------------------------------------------");
    let _ = writeln!(o, "Energy parameters:");
    for i in [Interface::Ddr3Pcb, Interface::Ddr3Tsi, Interface::LpddrTsi] {
        let e = EnergyParams::for_interface(i);
        let _ = writeln!(
            o,
            "  {:<10}  I/O {:>5.1} pJ/b   RD/WR {:>5.1} pJ/b   static {:>6.1} mW/ch",
            i.name(),
            e.io_pj_per_bit,
            e.rdwr_pj_per_bit,
            e.static_mw_per_channel
        );
    }
    let e = EnergyParams::lpddr_tsi();
    let _ = writeln!(
        o,
        "  ACT+PRE energy (8KB DRAM page): {:.0} nJ\n",
        e.act_pre_nj_8kb
    );
    let _ = writeln!(o, "Timing parameters:");
    for i in [Interface::Ddr3Pcb, Interface::LpddrTsi] {
        let t = i.timing_params();
        let _ = writeln!(
            o,
            "  {:<10}  tRCD {:>4.1} ns  tAA {:>4.1} ns  tRAS {:>4.1} ns  tRP {:>4.1} ns  tRC {:>4.1} ns  burst {:>3.1} ns",
            i.name(),
            t.t_rcd_ns,
            t.t_aa_ns,
            t.t_ras_ns,
            t.t_rp_ns,
            t.t_rc_ns(),
            t.t_burst_ns,
        );
    }
    o
}

/// Table II: the SPEC CPU2006 applications grouped by main-memory accesses
/// per kilo-instruction (MAPKI), plus each profile's nominal MAPKI in the
/// synthetic catalog.
pub fn table2_groups() -> String {
    let mut o = String::new();
    let _ = writeln!(o, "Table II: SPEC CPU2006 MAPKI groups");
    let _ = writeln!(o, "-----------------------------------");
    for g in [SpecGroup::High, SpecGroup::Med, SpecGroup::Low] {
        let _ = writeln!(o, "{}:", g.label());
        for p in group(g) {
            let _ = writeln!(
                o,
                "  {:<16} nominal MAPKI {:>6.1}",
                p.name,
                p.nominal_mapki()
            );
        }
    }
    o
}

/// Fig. 1: per-bit energy breakdown (pJ/b) of the conventional PCB-based,
/// TSI-based, and μbank-based memory systems — the paper's motivating
/// figure. Buckets: Core (DRAM background), ACT/PRE, RD/WR, I/O.
pub fn fig01_energy_breakdown() -> String {
    let mut o = String::new();
    let _ = writeln!(o, "Fig. 1: energy breakdown (pJ/b)");
    let _ = writeln!(
        o,
        "{:<16}{:>8}{:>10}{:>8}{:>8}{:>9}",
        "system", "Core", "ACT/PRE", "RD/WR", "I/O", "total"
    );
    for (kind, b) in figure1() {
        let _ = writeln!(
            o,
            "{:<16}{:>8.1}{:>10.1}{:>8.1}{:>8.1}{:>9.1}",
            kind.label(),
            b.core_pj_b,
            b.act_pre_pj_b,
            b.rdwr_pj_b,
            b.io_pj_b,
            b.total()
        );
    }
    let _ = writeln!(
        o,
        "\n(β = 1 traffic at 30% channel utilization; TSI+ubanks uses (nW,nB)=(8,2))"
    );
    o
}

/// Fig. 6: (a) relative DRAM die area and (b) relative energy per read for
/// every (nW, nB) partitioning degree, with the paper's published area
/// matrix printed beside the model for comparison.
pub fn fig06_area_energy() -> String {
    let paper: Vec<Vec<f64>> = PAPER_FIG6A.iter().map(|r| r.to_vec()).collect();
    let mut o = format_matrix(
        "Fig. 6(a): relative area (model)",
        &AreaModel::new().figure6a_matrix(),
    );
    o += &format_matrix("Fig. 6(a): relative area (paper, for reference)", &paper);
    for beta in [1.0, 0.1] {
        o += &format_matrix(
            &format!("Fig. 6(b): relative energy per read, beta = {beta}"),
            &figure6b_matrix(EnergyParams::lpddr_tsi(), beta),
        );
    }
    o
}

/// `base_cfg(w, quick)` partitioned into `(nW, nB)` μbanks.
fn ubank_cfg(w: Workload, (nw, nb): (usize, usize), quick: bool) -> SimConfig {
    let mut c = base_cfg(w, quick);
    c.mem = c.mem.with_ubanks(nw, nb);
    c
}

/// `policy_study_cfg(w, quick)` at `(nW, nB)` under `policy`.
fn policy_cfg(w: Workload, (nw, nb): (usize, usize), policy: PolicyKind, quick: bool) -> SimConfig {
    let mut c = policy_study_cfg(w, quick);
    c.mem = c.mem.with_ubanks(nw, nb);
    c.policy = policy;
    c
}

/// A figure's plan: the configs `cfgs` builds for each workload.
fn plan_of(
    ws: &[Workload],
    quick: bool,
    cfgs: fn(Workload, bool) -> Vec<SimConfig>,
) -> Vec<SimConfig> {
    ws.iter().flat_map(|&w| cfgs(w, quick)).collect()
}

/// Power breakdown in watts in the Fig. 10/14 stacking order: processor,
/// ACT/PRE, DRAM static (+refresh), RD/WR, I/O.
pub fn power_w(r: &SimResult) -> [f64; 5] {
    let p = r.memory_power_w();
    [
        r.processor_power_w(),
        p.act_pre_w,
        p.static_w + p.refresh_w,
        p.rdwr_w,
        p.io_w,
    ]
}

/// The Fig. 8/9 workloads: 429.mcf, the spec-high average, and TPC-H.
const GRID_WORKLOADS: [(&str, Workload); 3] = [
    ("(a) 429.mcf", Workload::Spec("429.mcf")),
    ("(b) spec-high", Workload::SpecGroupAvg(SpecGroup::High)),
    ("(c) TPC-H", Workload::TpcH),
];

/// The 5×5 (nW, nB) grid of `w`, nB-major over [`DEGREES`]: the (1,1)
/// baseline comes first.
pub fn grid_cfgs(w: Workload, quick: bool) -> Vec<SimConfig> {
    DEGREES
        .iter()
        .flat_map(|&nb| DEGREES.iter().map(move |&nw| ubank_cfg(w, (nw, nb), quick)))
        .collect()
}

/// `metric(cell, (1,1) cell)` over `w`'s grid, indexed `[iB][iW]`.
pub fn grid(
    w: Workload,
    quick: bool,
    runs: &Runs,
    metric: fn(&SimResult, &SimResult) -> f64,
) -> Vec<Vec<f64>> {
    let cfgs = grid_cfgs(w, quick);
    let base = runs.get(&cfgs[0]);
    cfgs.chunks(DEGREES.len())
        .map(|row| row.iter().map(|c| metric(runs.get(c), base)).collect())
        .collect()
}

/// Figs. 8 and 9 plot the same runs: the three workloads' grids.
pub fn grid_plan(quick: bool) -> Vec<SimConfig> {
    plan_of(&GRID_WORKLOADS.map(|(_, w)| w), quick, grid_cfgs)
}

/// Fig. 8: relative IPC of 429.mcf, the spec-high average, and TPC-H over
/// the full (nW, nB) μbank grid, normalized to the unpartitioned baseline.
pub fn fig08_ipc_heatmap(quick: bool, runs: &Runs) -> String {
    GRID_WORKLOADS
        .iter()
        .map(|&(tag, w)| {
            let m = grid(w, quick, runs, |r, base| r.ipc / base.ipc);
            format_matrix(&format!("Fig. 8{tag}: relative IPC"), &m)
        })
        .collect()
}

/// Fig. 9: relative 1/EDP of 429.mcf, the spec-high average, and TPC-H
/// over the full (nW, nB) μbank grid (higher is better), normalized to the
/// unpartitioned baseline.
pub fn fig09_edp_heatmap(quick: bool, runs: &Runs) -> String {
    GRID_WORKLOADS
        .iter()
        .map(|&(tag, w)| {
            let m = grid(w, quick, runs, SimResult::inverse_edp_vs);
            format_matrix(&format!("Fig. 9{tag}: relative 1/EDP"), &m)
        })
        .collect()
}

/// The Fig. 10 workloads: single-threaded, multiprogrammed, and
/// multithreaded.
const FIG10_WORKLOADS: [Workload; 8] = [
    Workload::Spec("429.mcf"),
    Workload::Spec("450.soplex"),
    Workload::SpecGroupAvg(SpecGroup::High),
    Workload::SpecAll,
    Workload::MixHigh,
    Workload::MixBlend,
    Workload::Radix,
    Workload::Fft,
];

/// `w` on each [`REPRESENTATIVE`] configuration, (1,1) first.
pub fn representative_cfgs(w: Workload, quick: bool) -> Vec<SimConfig> {
    REPRESENTATIVE.map(|u| ubank_cfg(w, u, quick)).to_vec()
}

pub fn fig10_plan(quick: bool) -> Vec<SimConfig> {
    plan_of(&FIG10_WORKLOADS, quick, representative_cfgs)
}

/// Fig. 10: relative IPC, relative 1/EDP, and power breakdown of the
/// <3%-area-overhead μbank configurations (1,1), (2,8), (4,4), (8,2) on
/// single-threaded, multiprogrammed, and multithreaded workloads.
pub fn fig10_representative(quick: bool, runs: &Runs) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<12}{:>7}{:>9}{:>9} | {:>9}{:>9}{:>9}{:>8}{:>7}  (power, W)",
        "workload", "(nW,nB)", "relIPC", "rel1/EDP", "proc", "ACT/PRE", "static", "RD/WR", "I/O"
    );
    for w in FIG10_WORKLOADS {
        let cfgs = representative_cfgs(w, quick);
        let base = runs.get(&cfgs[0]);
        for c in &cfgs {
            let r = runs.get(c);
            let p = power_w(r);
            let _ = writeln!(
                o,
                "{:<12}{:>7}{:>9.3}{:>9.3} | {:>9.2}{:>9.2}{:>9.2}{:>8.2}{:>7.2}",
                w.label(),
                format!("({},{})", c.mem.ubank.n_w, c.mem.ubank.n_b),
                r.ipc / base.ipc,
                r.inverse_edp_vs(base),
                p[0],
                p[1],
                p[2],
                p[3],
                p[4],
            );
        }
    }
    o
}

/// Fig. 11: the address-interleaving schemes — the bit-level layout the
/// mapper assigns for (nW, nB) = (2, 8) at cache-line granularity (iB = 6)
/// and at DRAM-row granularity (iB = 12, the maximum for nW = 2).
pub fn fig11_interleaving() -> String {
    let mut o = String::new();
    let _ = writeln!(o, "Fig. 11: address interleaving for (nW, nB) = (2, 8)");
    let _ = writeln!(o, "====================================================");
    for (label, ib) in [
        ("cache-line-granularity interleaving:", 6),
        ("DRAM-row-granularity interleaving:", 12),
    ] {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(2, 8)
            .with_interleave_base(ib);
        let map = AddressMap::new(&cfg);
        let _ = writeln!(o, "{label}");
        let _ = writeln!(o, "iB = {} (effective {}):", ib, map.interleave_base);
        for f in map.layout().iter().rev() {
            let _ = writeln!(
                o,
                "  bits {:>2}..{:>2}  {}",
                f.lsb,
                f.lsb + f.width - 1,
                f.name
            );
        }
        o.push('\n');
    }
    o
}

/// The Fig. 12 workloads.
const FIG12_WORKLOADS: [Workload; 2] = [Workload::SpecAll, Workload::SpecGroupAvg(SpecGroup::High)];

/// `w`'s Fig. 12 points in print order: each representative
/// configuration, iB ∈ {6, 8, 10, …, max}, open then close.
fn fig12_cfgs(w: Workload, quick: bool) -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for u in REPRESENTATIVE {
        let max_ib = policy_cfg(w, u, PolicyKind::Open, quick)
            .mem
            .max_interleave_base();
        for ib in (6..max_ib).step_by(2).chain([max_ib]) {
            for policy in [PolicyKind::Open, PolicyKind::Close] {
                let mut c = policy_cfg(w, u, policy, quick);
                c.mem = c.mem.with_interleave_base(ib);
                cfgs.push(c);
            }
        }
    }
    cfgs
}

pub fn fig12_plan(quick: bool) -> Vec<SimConfig> {
    plan_of(&FIG12_WORKLOADS, quick, fig12_cfgs)
}

/// Fig. 12: relative IPC and 1/EDP as the page-management policy (open vs
/// close) and the interleaving base bit iB vary over the representative
/// μbank configurations, for spec-all and spec-high. Baseline:
/// (1,1)/open/iB=13.
pub fn fig12_policy_interleave(quick: bool, runs: &Runs) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<12}{:>8}{:>5}{:>4}{:>10}{:>10}",
        "workload", "(nW,nB)", "iB", "pol", "relIPC", "rel1/EDP"
    );
    for w in FIG12_WORKLOADS {
        let mut base = policy_cfg(w, (1, 1), PolicyKind::Open, quick);
        base.mem = base.mem.with_interleave_base(13);
        let base = runs.get(&base);
        for c in fig12_cfgs(w, quick) {
            let r = runs.get(&c);
            let _ = writeln!(
                o,
                "{:<12}{:>8}{:>5}{:>4}{:>10.3}{:>10.3}",
                w.label(),
                format!("({},{})", c.mem.ubank.n_w, c.mem.ubank.n_b),
                c.mem.interleave_base,
                c.policy.mnemonic(),
                r.ipc / base.ipc,
                r.inverse_edp_vs(base),
            );
        }
    }
    o
}

/// The Fig. 13 workloads.
const FIG13_WORKLOADS: [Workload; 7] = [
    Workload::Spec("471.omnetpp"),
    Workload::Spec("429.mcf"),
    Workload::SpecGroupAvg(SpecGroup::High),
    Workload::Canneal,
    Workload::Radix,
    Workload::MixHigh,
    Workload::MixBlend,
];

/// `w` under each [`FIG13_POLICIES`] scheme at (1,1), (2,8) and (4,4).
fn fig13_cfgs(w: Workload, quick: bool) -> Vec<SimConfig> {
    [(1, 1), (2, 8), (4, 4)]
        .into_iter()
        .flat_map(|u| FIG13_POLICIES.map(|policy| policy_cfg(w, u, policy, quick)))
        .collect()
}

pub fn fig13_plan(quick: bool) -> Vec<SimConfig> {
    plan_of(&FIG13_WORKLOADS, quick, fig13_cfgs)
}

/// Fig. 13: relative IPC and prediction hit rate of the page-management
/// schemes — close (C), open (O), local bimodal (L), tournament (T), and
/// the perfect oracle (P) — across workloads and μbank configurations.
/// IPC is normalized to open at (1,1) per workload.
pub fn fig13_predictors(quick: bool, runs: &Runs) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<14}{:>8}{:>4}{:>10}{:>10}",
        "workload", "(nW,nB)", "pol", "relIPC", "hit-rate"
    );
    for w in FIG13_WORKLOADS {
        let base = runs.get(&policy_cfg(w, (1, 1), PolicyKind::Open, quick));
        for c in fig13_cfgs(w, quick) {
            let r = runs.get(&c);
            let _ = writeln!(
                o,
                "{:<14}{:>8}{:>4}{:>10.3}{:>10.3}",
                w.label(),
                format!("({},{})", c.mem.ubank.n_w, c.mem.ubank.n_b),
                c.policy.mnemonic(),
                r.ipc / base.ipc,
                r.policy_hit_rate,
            );
        }
    }
    o
}

/// The Fig. 14 workloads.
const FIG14_WORKLOADS: [Workload; 6] = [
    Workload::MixHigh,
    Workload::MixBlend,
    Workload::Canneal,
    Workload::Fft,
    Workload::Radix,
    Workload::SpecGroupAvg(SpecGroup::High),
];

/// `w` on DDR3-PCB (the baseline, first), DDR3-TSI and LPDDR-TSI, without
/// μbanks.
pub fn interface_cfgs(w: Workload, quick: bool) -> Vec<SimConfig> {
    [Interface::Ddr3Pcb, Interface::Ddr3Tsi, Interface::LpddrTsi]
        .map(|i| SimConfig {
            mem: MemConfig::for_interface(i),
            ..base_cfg(w, quick)
        })
        .to_vec()
}

pub fn fig14_plan(quick: bool) -> Vec<SimConfig> {
    plan_of(&FIG14_WORKLOADS, quick, interface_cfgs)
}

/// Fig. 14: IPC, power breakdown, and relative 1/EDP of the three
/// processor–memory interfaces — DDR3-PCB, DDR3-TSI, LPDDR-TSI — without
/// μbanks, across multiprogrammed and multithreaded workloads.
pub fn fig14_interfaces(quick: bool, runs: &Runs) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<12}{:<11}{:>7}{:>8}{:>9} | {:>8}{:>9}{:>8}{:>7}{:>7}  {:>9}",
        "workload",
        "interface",
        "IPC",
        "relIPC",
        "rel1/EDP",
        "proc",
        "ACT/PRE",
        "static",
        "RD/WR",
        "I/O",
        "AP-frac"
    );
    for w in FIG14_WORKLOADS {
        let cfgs = interface_cfgs(w, quick);
        let base = runs.get(&cfgs[0]);
        for c in &cfgs {
            let r = runs.get(c);
            let p = power_w(r);
            let _ = writeln!(
                o,
                "{:<12}{:<11}{:>7.2}{:>8.3}{:>9.3} | {:>8.2}{:>9.2}{:>8.2}{:>7.2}{:>7.2}  {:>8.1}%",
                w.label(),
                c.mem.interface.name(),
                r.ipc,
                r.ipc / base.ipc,
                r.inverse_edp_vs(base),
                p[0],
                p[1],
                p[2],
                p[3],
                p[4],
                100.0 * r.mem_energy.act_pre_fraction(),
            );
        }
    }
    o
}

/// The §I headline pair on spec-high, compared as complete memory
/// systems: 64 cores in rate mode on DDR3-PCB with its 8 controllers
/// (the baseline, first) vs the 16-channel LPDDR-TSI system with (4,4)
/// μbanks.
pub fn headline_plan(quick: bool) -> Vec<SimConfig> {
    let w = Workload::SpecGroupAvg(SpecGroup::High);
    let (mut base, mut ub) = (SimConfig::paper_default(w), SimConfig::paper_default(w));
    base.mem = MemConfig::ddr3_pcb();
    ub.mem = ub.mem.with_ubanks(4, 4);
    [base, ub]
        .map(|c| if quick { c.quick() } else { c })
        .to_vec()
}

/// §I / §VI headline numbers: the μbank LPDDR-TSI system vs the DDR3-PCB
/// baseline on the memory-intensive spec-high applications (the paper
/// reports 1.62× IPC and 4.80× energy-delay product). Returns, from one
/// run each, the printed report (`headline.txt`) and the summary rows as
/// CSV and JSON (`headline.csv`, `headline.json`).
pub fn headline(quick: bool, runs: &Runs) -> Vec<String> {
    let cfgs = headline_plan(quick);
    let (base, ub) = (runs.get(&cfgs[0]), runs.get(&cfgs[1]));
    let (ipc_ratio, edp_ratio) = (ub.ipc / base.ipc, ub.inverse_edp_vs(base));
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
    let mut t = Table::new("headline", &summary_columns());
    t.push("ddr3_pcb_1x1", summarize(base));
    t.push("lpddr_tsi_4x4", summarize(ub));
    vec![report, t.to_csv(), t.to_json()]
}

/// 429.mcf on each organization of [`Organization::comparison_set`]
/// (conventional first), all on the LPDDR-TSI substrate.
pub fn related_work_plan(quick: bool) -> Vec<SimConfig> {
    Organization::comparison_set()
        .into_iter()
        .map(|o| {
            let mut c = base_cfg(Workload::Spec("429.mcf"), quick);
            c.mem = c.mem.with_organization(o);
            c
        })
        .collect()
}

/// Related-work comparison (paper §VII): conventional banks vs SALP
/// (subarray-level parallelism, bitline-only) vs Half-DRAM (2×2) vs μbank,
/// all on the LPDDR-TSI substrate with 429.mcf. μbank subsumes SALP and
/// Half-DRAM: equal bank-level parallelism at equal row-buffer count, plus
/// activation-energy savings whenever nW > 1.
pub fn related_work(quick: bool, runs: &Runs) -> String {
    let cfgs = related_work_plan(quick);
    let base = runs.get(&cfgs[0]);
    let mut o = String::new();
    let _ = writeln!(o, "Related work (§VII) — 429.mcf on LPDDR-TSI:");
    let _ = writeln!(
        o,
        "{:<14}{:>8}{:>10}{:>14}{:>10}",
        "organization", "relIPC", "rel1/EDP", "nJ per ACT", "ACTs"
    );
    for (org, c) in Organization::comparison_set().into_iter().zip(&cfgs) {
        let r = runs.get(c);
        let per_act = r.mem_energy.act_pre_nj / r.dram.activates.max(1) as f64;
        let _ = writeln!(
            o,
            "{:<14}{:>8.3}{:>10.3}{:>14.2}{:>10}",
            org.label(),
            r.ipc / base.ipc,
            r.inverse_edp_vs(base),
            per_act,
            r.dram.activates
        );
    }
    let _ = writeln!(
        o,
        "\n(μbank matches SALP's parallelism at equal row-buffer count while\n \
         cutting per-activation energy — the §VII subsumption argument)"
    );
    o
}

#[cfg(test)]
mod tests {
    #[test]
    fn matrix_formatting_includes_all_cells() {
        let m: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..5).map(|j| (i * 5 + j) as f64).collect())
            .collect();
        let s = super::format_matrix("t", &m);
        assert!(s.contains("24.000"));
        assert_eq!(s.lines().count(), 8);
    }
}
