//! Named DRAM organizations from the literature, expressed as μbank
//! configurations (paper §VII, Related Work).
//!
//! The paper positions μbank as subsuming two contemporaneous designs:
//!
//! * **SALP** (Kim et al., ISCA'12 \[33\]) exploits subarray-level
//!   parallelism — multiple row buffers per bank along the bitline
//!   direction. That is exactly μbank with `nW = 1, nB = S`.
//! * **Half-DRAM** (Zhang et al., ISCA'14 \[62\]) halves the activated row
//!   through vertical+horizontal reorganization; its activation-energy/
//!   parallelism point corresponds to `(nW, nB) = (2, 2)`.
//!
//! Expressing them in one parameter space makes head-to-head comparisons a
//! one-liner (see the `ablations` bench and `organization_comparison`
//! tests).

use crate::geometry::UbankConfig;
use serde::{Deserialize, Serialize};

/// A named bank organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Organization {
    /// Conventional monolithic banks — the evaluation baseline.
    Conventional,
    /// Subarray-level parallelism with `subarrays` row buffers per bank
    /// (bitline-direction partitioning only).
    Salp { subarrays: usize },
    /// Half-DRAM-style half-row activation (2×2 partitioning point).
    HalfDram,
    /// The paper's proposal: partitioning along both directions.
    Microbank { n_w: usize, n_b: usize },
}

impl Organization {
    pub fn label(&self) -> String {
        match self {
            Organization::Conventional => "conventional".into(),
            Organization::Salp { subarrays } => format!("SALP-{subarrays}"),
            Organization::HalfDram => "Half-DRAM".into(),
            Organization::Microbank { n_w, n_b } => format!("ubank({n_w},{n_b})"),
        }
    }

    /// The μbank configuration realizing this organization.
    pub fn ubank_config(&self) -> UbankConfig {
        match *self {
            Organization::Conventional => UbankConfig::BASELINE,
            Organization::Salp { subarrays } => UbankConfig::new(1, subarrays),
            Organization::HalfDram => UbankConfig::new(2, 2),
            Organization::Microbank { n_w, n_b } => UbankConfig::new(n_w, n_b),
        }
    }

    /// Does this organization reduce the energy of a row activation?
    /// Only wordline-direction partitioning does (§IV-A).
    pub fn reduces_activation_energy(&self) -> bool {
        self.ubank_config().n_w > 1
    }

    /// Number of independent row buffers per bank.
    pub fn row_buffers_per_bank(&self) -> usize {
        self.ubank_config().ubanks_per_bank()
    }

    /// The comparison set used by the ablation bench: baseline, SALP-8,
    /// Half-DRAM, and two representative μbank points.
    pub fn comparison_set() -> Vec<Organization> {
        vec![
            Organization::Conventional,
            Organization::Salp { subarrays: 8 },
            Organization::HalfDram,
            Organization::Microbank { n_w: 2, n_b: 8 },
            Organization::Microbank { n_w: 4, n_b: 4 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salp_is_bitline_only() {
        let u = Organization::Salp { subarrays: 8 }.ubank_config();
        assert_eq!((u.n_w, u.n_b), (1, 8));
        assert!(!Organization::Salp { subarrays: 8 }.reduces_activation_energy());
    }

    #[test]
    fn half_dram_activates_half_rows() {
        let o = Organization::HalfDram;
        assert!(o.reduces_activation_energy());
        assert_eq!(o.ubank_config().n_w, 2);
    }

    #[test]
    fn microbank_subsumes_both() {
        // Same row-buffer count as SALP-8, plus activation-energy savings.
        let ub = Organization::Microbank { n_w: 2, n_b: 4 };
        assert_eq!(ub.row_buffers_per_bank(), 8);
        assert!(ub.reduces_activation_energy());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Organization::Salp { subarrays: 4 }.label(), "SALP-4");
        assert_eq!(
            Organization::Microbank { n_w: 2, n_b: 8 }.label(),
            "ubank(2,8)"
        );
        assert_eq!(Organization::Conventional.label(), "conventional");
        assert_eq!(Organization::HalfDram.label(), "Half-DRAM");
    }

    #[test]
    fn comparison_set_covers_the_design_space() {
        let set = Organization::comparison_set();
        assert!(set.contains(&Organization::Conventional));
        assert!(set
            .iter()
            .any(|o| !o.reduces_activation_energy() && o.row_buffers_per_bank() > 1));
        assert!(set.iter().any(|o| o.reduces_activation_energy()));
    }
}
