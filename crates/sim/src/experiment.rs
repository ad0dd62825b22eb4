//! Experiment plumbing shared by the paper's figures: the config
//! builders every figure's plan starts from, and [`Runs`], the one set of
//! simulated results the `microbank-bench` artifacts render from. Each
//! artifact lists the configs it needs; `reproduce` unions those plans
//! and simulates each distinct config once.

use crate::simulator::{run_many, SimConfig, SimResult};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_workloads::suite::Workload;
use std::collections::{HashMap, HashSet};

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

/// The Fig. 13 policy set: close, open, local, tournament, perfect.
pub const FIG13_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Close,
    PolicyKind::Open,
    PolicyKind::Predictive(PredictorKind::Local),
    PolicyKind::Predictive(PredictorKind::Tournament),
    PolicyKind::Predictive(PredictorKind::Perfect),
];

/// Simulated results keyed by [`SimConfig::fingerprint`] and `spans`:
/// every distinct config of a plan, run once. The fingerprint masks
/// `spans`, but spans add the timeline's rows to [`SimResult::profile`].
pub struct Runs(HashMap<(String, bool), SimResult>);

fn key(cfg: &SimConfig) -> (String, bool) {
    (cfg.fingerprint(), cfg.spans)
}

impl Runs {
    /// The configs of `plan` that [`Runs::simulate`] runs: one per
    /// distinct key, in first-occurrence order. Simulates nothing.
    pub fn distinct(plan: &[SimConfig]) -> Vec<SimConfig> {
        let mut seen = HashSet::new();
        plan.iter()
            .filter(|c| seen.insert(key(c)))
            .cloned()
            .collect()
    }

    /// Simulate each distinct config of `plan` once, in one parallel
    /// [`run_many`] batch.
    pub fn simulate(plan: &[SimConfig]) -> Self {
        let distinct = Self::distinct(plan);
        let results = run_many(&distinct);
        Runs(distinct.iter().map(key).zip(results).collect())
    }

    /// The result of `cfg`. Panics when `cfg` was not in the plan.
    pub fn get(&self, cfg: &SimConfig) -> &SimResult {
        let (k, label) = (key(cfg), cfg.workload.label());
        self.0
            .get(&k)
            .unwrap_or_else(|| panic!("{label} config {k:?} was not in the plan"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "429.mcf config")]
    fn get_panics_on_a_config_the_plan_did_not_list() {
        Runs::simulate(&[]).get(&base_cfg(Workload::Spec("429.mcf"), true));
    }

    #[test]
    fn distinct_keeps_span_copies_apart() {
        let cfg = base_cfg(Workload::Spec("429.mcf"), true);
        let traced = cfg.clone().with_spans(true);
        assert_eq!(cfg.fingerprint(), traced.fingerprint());
        let plan = [cfg.clone(), traced.clone(), cfg, traced];
        let distinct = Runs::distinct(&plan);
        assert_eq!(distinct.len(), 2);
        assert!(!distinct[0].spans && distinct[1].spans);
    }
}
