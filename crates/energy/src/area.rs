//! Die-area model for μbank partitioning — reproduces the paper's Fig. 6(a).
//!
//! Partitioning a bank costs die area in three places (§IV-B):
//!
//! 1. **Wordline-direction partitioning (`nW`)** adds a μbank column-decoder
//!    strip and multiplexers between the (now more numerous) global
//!    datalines and the unchanged global-dataline sense amplifiers. The
//!    strip is needed as soon as `nW > 1`; the mux/routing cost then grows
//!    with every additional partition. Because global datalines and column
//!    select lines share one metal layer and trade off one-for-one, the sum
//!    of the two does not grow with `nW` (§IV-B) — the overhead is the
//!    decoder/mux silicon, not wiring tracks.
//! 2. **Bitline-direction partitioning (`nB`)** adds a μbank row-decoder
//!    strip per partition boundary.
//! 3. **Per-μbank latches** between the row predecoders and the local row
//!    decoders hold the active local-wordline selection per μbank
//!    (§IV-A, \[33\]); their count grows with `nW × nB`.
//!
//! The three coefficients below are calibrated against the CACTI-3DD
//! results the paper publishes as the Fig. 6(a) matrix; the unit test
//! checks all 25 published values to ±0.2% absolute area.

use microbank_core::geometry::{DeviceGeometry, UbankConfig};
use serde::{Deserialize, Serialize};

/// Structural area model for a μbank-partitioned DRAM die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// Reference die geometry (8 Gb, 80 mm²).
    pub geometry: DeviceGeometry,
    /// Fixed + per-partition cost of wordline-direction partitioning, as a
    /// fraction of die area per partition (μbank column decoder strip and
    /// GDL multiplexers): contributes `w_frac · nW` for `nW > 1`.
    pub w_frac: f64,
    /// μbank row-decoder strip per bitline-direction partition boundary:
    /// contributes `b_frac · (nB − 1)`.
    pub b_frac: f64,
    /// Per-μbank latch area: contributes `latch_frac · (nW−1)(nB−1)`
    /// beyond the strips already counted on each axis.
    pub latch_frac: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            geometry: DeviceGeometry::reference(),
            w_frac: 0.002,
            b_frac: 0.000933,
            latch_frac: 0.000987,
        }
    }
}

impl AreaModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Die area relative to the unpartitioned baseline (Fig. 6(a)).
    pub fn relative_area(&self, u: UbankConfig) -> f64 {
        let nw = u.n_w as f64;
        let nb = u.n_b as f64;
        let w_term = if u.n_w > 1 { self.w_frac * nw } else { 0.0 };
        let b_term = self.b_frac * (nb - 1.0);
        let cross = self.latch_frac * (nw - 1.0) * (nb - 1.0);
        1.0 + w_term + b_term + cross
    }

    /// Absolute die area in mm².
    pub fn die_area_mm2(&self, u: UbankConfig) -> f64 {
        self.geometry.die_area_mm2 * self.relative_area(u)
    }

    /// The full Fig. 6(a) matrix over `{1,2,4,8,16}²`, row-major in `nB`.
    pub fn figure6a_matrix(&self) -> Vec<Vec<f64>> {
        let degrees = [1usize, 2, 4, 8, 16];
        degrees
            .iter()
            .map(|&nb| {
                degrees
                    .iter()
                    .map(|&nw| self.relative_area(UbankConfig::new(nw, nb)))
                    .collect()
            })
            .collect()
    }

    /// Configurations with area overhead below `limit` (e.g. the paper's
    /// "less than 3%" constraint that selects the Fig. 10 representative
    /// configurations).
    pub fn configs_under_overhead(&self, limit: f64) -> Vec<UbankConfig> {
        let degrees = [1usize, 2, 4, 8, 16];
        let mut out = Vec::new();
        for &nw in &degrees {
            for &nb in &degrees {
                let u = UbankConfig::new(nw, nb);
                if self.relative_area(u) - 1.0 < limit {
                    out.push(u);
                }
            }
        }
        out
    }
}

/// The 25 relative-area values the paper publishes in Fig. 6(a),
/// `PAPER_FIG6A[ib][iw]` for `nB, nW ∈ {1,2,4,8,16}`.
pub const PAPER_FIG6A: [[f64; 5]; 5] = [
    [1.000, 1.004, 1.008, 1.015, 1.031],
    [1.001, 1.006, 1.012, 1.023, 1.047],
    [1.003, 1.010, 1.019, 1.039, 1.078],
    [1.007, 1.017, 1.035, 1.070, 1.142],
    [1.014, 1.033, 1.066, 1.132, 1.268],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_overhead() {
        assert_eq!(AreaModel::new().relative_area(UbankConfig::BASELINE), 1.0);
    }

    #[test]
    fn matches_paper_fig6a_within_tolerance() {
        let m = AreaModel::new();
        let degrees = [1usize, 2, 4, 8, 16];
        for (ib, &nb) in degrees.iter().enumerate() {
            for (iw, &nw) in degrees.iter().enumerate() {
                let got = m.relative_area(UbankConfig::new(nw, nb));
                let want = PAPER_FIG6A[ib][iw];
                assert!(
                    (got - want).abs() < 0.002,
                    "({nw},{nb}): model {got:.4} vs paper {want:.4}"
                );
            }
        }
    }

    #[test]
    fn sixteen_by_sixteen_costs_about_27_percent() {
        let m = AreaModel::new();
        let a = m.relative_area(UbankConfig::new(16, 16));
        assert!((a - 1.268).abs() < 0.002, "{a}");
    }

    #[test]
    fn most_configs_stay_under_5_percent() {
        // §IV-B: "for most of the other μbank configurations (when
        // nW × nB < 64), the area overhead is under 5%".
        let m = AreaModel::new();
        let degrees = [1usize, 2, 4, 8, 16];
        for &nw in &degrees {
            for &nb in &degrees {
                if nw * nb < 64 {
                    let a = m.relative_area(UbankConfig::new(nw, nb));
                    assert!(a < 1.05, "({nw},{nb}) = {a}");
                }
            }
        }
    }

    #[test]
    fn fig10_representatives_are_under_3_percent() {
        // The paper picks (2,8), (4,4), (8,2) as <3% overhead configs.
        let m = AreaModel::new();
        let under = m.configs_under_overhead(0.03);
        for (nw, nb) in [(2usize, 8usize), (4, 4), (8, 2)] {
            assert!(under.contains(&UbankConfig::new(nw, nb)), "({nw},{nb})");
        }
        // …and (16,16) is not.
        assert!(!under.contains(&UbankConfig::new(16, 16)));
    }

    #[test]
    fn area_is_monotone_in_each_direction() {
        let m = AreaModel::new();
        let degrees = [1usize, 2, 4, 8, 16];
        for &nb in &degrees {
            let mut prev = 0.0;
            for &nw in &degrees {
                let a = m.relative_area(UbankConfig::new(nw, nb));
                assert!(a > prev);
                prev = a;
            }
        }
        for &nw in &degrees {
            let mut prev = 0.0;
            for &nb in &degrees {
                let a = m.relative_area(UbankConfig::new(nw, nb));
                assert!(a > prev);
                prev = a;
            }
        }
    }

    #[test]
    fn matrix_shape() {
        let m = AreaModel::new().figure6a_matrix();
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|r| r.len() == 5));
        assert_eq!(m[0][0], 1.0);
    }
}
