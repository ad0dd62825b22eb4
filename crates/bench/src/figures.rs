//! The paper's tables and figures as text: one function per artifact,
//! each returning the bytes of its file(s) in `results/`. The simulator
//! drivers live in `microbank_sim::experiment`; this module only runs
//! them with the figure's workload set and formats the rows.

use microbank_core::address::AddressMap;
use microbank_core::config::{Interface, MemConfig};
use microbank_ctrl::policy::PolicyKind;
use microbank_energy::area::{AreaModel, PAPER_FIG6A};
use microbank_energy::breakdown::figure1;
use microbank_energy::energy::figure6b_matrix;
use microbank_energy::params::EnergyParams;
use microbank_sim::experiment::{
    headline as headline_study, interface_study, interleave_policy_study, organization_comparison,
    predictor_study, representative_study, ubank_grid,
};
use microbank_sim::report::{summarize, summary_columns, Table};
use microbank_workloads::spec::{group, SpecGroup};
use microbank_workloads::suite::Workload;
use std::fmt::Write as _;

/// Format a 5×5 (nW, nB) matrix the way the paper's heatmap figures print:
/// rows are `nB` ∈ {1,2,4,8,16} (top = 1), columns `nW` ∈ {1,2,4,8,16}.
/// The matrix is followed by a blank line.
fn format_matrix(title: &str, m: &[Vec<f64>]) -> String {
    let degrees = [1usize, 2, 4, 8, 16];
    let mut out = format!("{title}\nnB\\nW ");
    for d in degrees {
        let _ = write!(out, "{d:>8}");
    }
    out.push('\n');
    for (i, row) in m.iter().enumerate() {
        let _ = write!(out, "{:>5} ", degrees[i]);
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

/// The Fig. 8/9 workloads: 429.mcf, the spec-high average, and TPC-H.
const GRID_WORKLOADS: [(&str, Workload); 3] = [
    ("(a) 429.mcf", Workload::Spec("429.mcf")),
    ("(b) spec-high", Workload::SpecGroupAvg(SpecGroup::High)),
    ("(c) TPC-H", Workload::TpcH),
];

/// Fig. 8: relative IPC of 429.mcf, the spec-high average, and TPC-H over
/// the full (nW, nB) μbank grid, normalized to the unpartitioned baseline.
pub fn fig08_ipc_heatmap(quick: bool) -> String {
    GRID_WORKLOADS
        .iter()
        .map(|&(tag, w)| {
            let g = ubank_grid(w, quick);
            format_matrix(&format!("Fig. 8{tag}: relative IPC"), &g.rel_ipc)
        })
        .collect()
}

/// Fig. 9: relative 1/EDP of 429.mcf, the spec-high average, and TPC-H
/// over the full (nW, nB) μbank grid (higher is better), normalized to the
/// unpartitioned baseline.
pub fn fig09_edp_heatmap(quick: bool) -> String {
    GRID_WORKLOADS
        .iter()
        .map(|&(tag, w)| {
            let g = ubank_grid(w, quick);
            format_matrix(&format!("Fig. 9{tag}: relative 1/EDP"), &g.rel_inv_edp)
        })
        .collect()
}

/// Fig. 10: relative IPC, relative 1/EDP, and power breakdown of the
/// <3%-area-overhead μbank configurations (1,1), (2,8), (4,4), (8,2) on
/// single-threaded, multiprogrammed, and multithreaded workloads.
pub fn fig10_representative(quick: bool) -> String {
    let workloads = [
        Workload::Spec("429.mcf"),
        Workload::Spec("450.soplex"),
        Workload::SpecGroupAvg(SpecGroup::High),
        Workload::SpecAll,
        Workload::MixHigh,
        Workload::MixBlend,
        Workload::Radix,
        Workload::Fft,
    ];
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<12}{:>7}{:>9}{:>9} | {:>9}{:>9}{:>9}{:>8}{:>7}  (power, W)",
        "workload", "(nW,nB)", "relIPC", "rel1/EDP", "proc", "ACT/PRE", "static", "RD/WR", "I/O"
    );
    for r in representative_study(&workloads, quick) {
        let _ = writeln!(
            o,
            "{:<12}{:>7}{:>9.3}{:>9.3} | {:>9.2}{:>9.2}{:>9.2}{:>8.2}{:>7.2}",
            r.workload,
            format!("({},{})", r.ubank.0, r.ubank.1),
            r.rel_ipc,
            r.rel_inv_edp,
            r.power_w[0],
            r.power_w[1],
            r.power_w[2],
            r.power_w[3],
            r.power_w[4],
        );
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

/// Fig. 12: relative IPC and 1/EDP as the page-management policy (open vs
/// close) and the interleaving base bit iB vary over the representative
/// μbank configurations, for spec-all and spec-high. Baseline:
/// (1,1)/open/iB=13.
pub fn fig12_policy_interleave(quick: bool) -> String {
    let workloads = [Workload::SpecAll, Workload::SpecGroupAvg(SpecGroup::High)];
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<12}{:>8}{:>5}{:>4}{:>10}{:>10}",
        "workload", "(nW,nB)", "iB", "pol", "relIPC", "rel1/EDP"
    );
    for r in interleave_policy_study(&workloads, quick) {
        let _ = writeln!(
            o,
            "{:<12}{:>8}{:>5}{:>4}{:>10.3}{:>10.3}",
            r.workload,
            format!("({},{})", r.ubank.0, r.ubank.1),
            r.interleave_base,
            match r.policy {
                PolicyKind::Open => "O",
                PolicyKind::Close => "C",
                _ => "?",
            },
            r.rel_ipc,
            r.rel_inv_edp,
        );
    }
    o
}

/// Fig. 13: relative IPC and prediction hit rate of the page-management
/// schemes — close (C), open (O), local bimodal (L), tournament (T), and
/// the perfect oracle (P) — across workloads and μbank configurations.
/// IPC is normalized to open at (1,1) per workload.
pub fn fig13_predictors(quick: bool) -> String {
    let workloads = [
        Workload::Spec("471.omnetpp"),
        Workload::Spec("429.mcf"),
        Workload::SpecGroupAvg(SpecGroup::High),
        Workload::Canneal,
        Workload::Radix,
        Workload::MixHigh,
        Workload::MixBlend,
    ];
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<14}{:>8}{:>4}{:>10}{:>10}",
        "workload", "(nW,nB)", "pol", "relIPC", "hit-rate"
    );
    for r in predictor_study(&workloads, &[(1, 1), (2, 8), (4, 4)], quick) {
        let _ = writeln!(
            o,
            "{:<14}{:>8}{:>4}{:>10.3}{:>10.3}",
            r.workload,
            format!("({},{})", r.ubank.0, r.ubank.1),
            r.policy.mnemonic(),
            r.rel_ipc,
            r.hit_rate,
        );
    }
    o
}

/// Fig. 14: IPC, power breakdown, and relative 1/EDP of the three
/// processor–memory interfaces — DDR3-PCB, DDR3-TSI, LPDDR-TSI — without
/// μbanks, across multiprogrammed and multithreaded workloads.
pub fn fig14_interfaces(quick: bool) -> String {
    let workloads = [
        Workload::MixHigh,
        Workload::MixBlend,
        Workload::Canneal,
        Workload::Fft,
        Workload::Radix,
        Workload::SpecGroupAvg(SpecGroup::High),
    ];
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
    for r in interface_study(&workloads, quick) {
        let _ = writeln!(
            o,
            "{:<12}{:<11}{:>7.2}{:>8.3}{:>9.3} | {:>8.2}{:>9.2}{:>8.2}{:>7.2}{:>7.2}  {:>8.1}%",
            r.workload,
            r.interface.name(),
            r.ipc,
            r.rel_ipc,
            r.rel_inv_edp,
            r.power_w[0],
            r.power_w[1],
            r.power_w[2],
            r.power_w[3],
            r.power_w[4],
            100.0 * r.act_pre_fraction,
        );
    }
    o
}

/// §I / §VI headline numbers: the μbank LPDDR-TSI system vs the DDR3-PCB
/// baseline on the memory-intensive spec-high applications (the paper
/// reports 1.62× IPC and 4.80× energy-delay product). Returns, from one
/// run, the printed report (`headline.txt`) and the summary rows as CSV
/// and JSON (`headline.csv`, `headline.json`).
pub fn headline(quick: bool) -> Vec<String> {
    let (ipc_ratio, edp_ratio, base, ub) = headline_study(quick);
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
    t.push("ddr3_pcb_1x1", summarize(&base));
    t.push("lpddr_tsi_4x4", summarize(&ub));
    vec![report, t.to_csv(), t.to_json()]
}

/// Related-work comparison (paper §VII): conventional banks vs SALP
/// (subarray-level parallelism, bitline-only) vs Half-DRAM (2×2) vs μbank,
/// all on the LPDDR-TSI substrate with 429.mcf. μbank subsumes SALP and
/// Half-DRAM: equal bank-level parallelism at equal row-buffer count, plus
/// activation-energy savings whenever nW > 1.
pub fn related_work(quick: bool) -> String {
    let rows = organization_comparison(Workload::Spec("429.mcf"), quick);
    let base = &rows[0].1;
    let mut o = String::new();
    let _ = writeln!(o, "Related work (§VII) — 429.mcf on LPDDR-TSI:");
    let _ = writeln!(
        o,
        "{:<14}{:>8}{:>10}{:>14}{:>10}",
        "organization", "relIPC", "rel1/EDP", "nJ per ACT", "ACTs"
    );
    for (label, r) in &rows {
        let per_act = r.mem_energy.act_pre_nj / r.dram.activates.max(1) as f64;
        let _ = writeln!(
            o,
            "{:<14}{:>8.3}{:>10.3}{:>14.2}{:>10}",
            label,
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
