//! Page-management policies (paper §V).
//!
//! When a column access completes and the queue still holds requests for
//! the same bank, every policy behaves identically (the scheduler serves
//! the queue). Policies differ in the *speculative* case — the queue holds
//! no request for the bank:
//!
//! * **open** — always keep the row open, betting on a future row hit
//!   (Rixner et al. \[50\]); the winner under μbanks;
//! * **close** — always precharge immediately, betting on a row miss;
//! * **minimalist-open** — keep the row open for a fixed interval (tRC,
//!   after Kaseridis et al. \[32\]), then close;
//! * **predictive** — consult a [`crate::predictor`] scheme;
//! * **perfect** — the oracle: enjoys row hits as if open and row misses as
//!   if closed-at-the-earliest-legal-time.

use crate::predictor::PredictorKind;
use serde::{Deserialize, Serialize};

/// Which page-management policy a controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    Open,
    Close,
    /// Keep a speculatively-open row for `window_cycles`, then close.
    MinimalistOpen {
        window_cycles: u64,
    },
    Predictive(PredictorKind),
}

impl PolicyKind {
    /// Fig. 13 bar mnemonic (C, O, L, T, P).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            PolicyKind::Open => "O",
            PolicyKind::Close => "C",
            PolicyKind::MinimalistOpen { .. } => "M",
            PolicyKind::Predictive(PredictorKind::Local) => "L",
            PolicyKind::Predictive(PredictorKind::Global) => "G",
            PolicyKind::Predictive(PredictorKind::Tournament) => "T",
            PolicyKind::Predictive(PredictorKind::Perfect) => "P",
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Open => "open-page",
            PolicyKind::Close => "close-page",
            PolicyKind::MinimalistOpen { .. } => "minimalist-open",
            PolicyKind::Predictive(k) => k.label(),
        }
    }

    /// Does this policy consult a trained predictor?
    pub fn is_predictive(&self) -> bool {
        matches!(self, PolicyKind::Predictive(_))
    }
}

/// Convenience alias used across the workspace.
pub type PagePolicy = PolicyKind;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorKind;

    #[test]
    fn mnemonics_match_fig13() {
        assert_eq!(PolicyKind::Open.mnemonic(), "O");
        assert_eq!(PolicyKind::Close.mnemonic(), "C");
        assert_eq!(PolicyKind::Predictive(PredictorKind::Local).mnemonic(), "L");
        assert_eq!(
            PolicyKind::Predictive(PredictorKind::Tournament).mnemonic(),
            "T"
        );
        assert_eq!(
            PolicyKind::Predictive(PredictorKind::Perfect).mnemonic(),
            "P"
        );
    }

    #[test]
    fn predictive_classification() {
        assert!(!PolicyKind::Open.is_predictive());
        assert!(!PolicyKind::MinimalistOpen { window_cycles: 98 }.is_predictive());
        assert!(PolicyKind::Predictive(PredictorKind::Global).is_predictive());
    }
}
