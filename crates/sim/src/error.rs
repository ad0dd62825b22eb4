//! Typed errors for the run pipeline (DESIGN.md §5d).
//!
//! [`SimError`] is the error type of the fallible entry points
//! ([`crate::simulator::try_run`], [`crate::simulator::run_many_checked`],
//! [`crate::sweep::SweepRunner`]). The panicking wrappers
//! ([`crate::simulator::run`] and friends) format these errors into their
//! panic message, so existing callers keep their fail-fast behavior while
//! harnesses get a value they can match on and record in a manifest.
//! None of them retries: a run depends only on its config, so a second
//! attempt would fail the same way. A failed sweep slot is recorded once,
//! and only a later invocation re-runs it.

use microbank_core::validate::ConfigError;
use std::fmt;

/// Why a simulation could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed the `validate()` ladder before any state
    /// was constructed. One [`ConfigError`] per rejecting component, each
    /// carrying the full list of diagnostics for that component.
    InvalidConfig { errors: Vec<ConfigError> },
    /// The run panicked (an internal invariant tripped). Captured only by
    /// the harness entry points that isolate runs (`run_many_checked`,
    /// `SweepRunner`, the sweep service); `try_run` lets panics unwind.
    Panic { message: String },
    /// An artifact (manifest, CSV/JSON result file) could not be written
    /// or read.
    Artifact { path: String, message: String },
    /// The run was cooperatively cancelled through its
    /// [`crate::simulator::CancelToken`] — by an explicit request, a
    /// wall-clock deadline, or a service shutting down. The partially
    /// driven simulation state is discarded whole: cancellation can only
    /// ever shorten a run whose results are then thrown away, never
    /// change a result that is reported, so it is sound under the
    /// event-driven time-skip core (DESIGN.md §5i).
    Cancelled { kind: CancelKind, at_cycle: u64 },
}

/// Why a cancelled run's token was tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// Explicit cancellation (e.g. `DELETE /jobs/{id}`).
    Requested,
    /// The job's wall-clock deadline expired.
    Deadline,
    /// The executing service is shutting down; the run should be treated
    /// as never attempted (checkpointed, not failed).
    Shutdown,
}

impl CancelKind {
    pub fn label(&self) -> &'static str {
        match self {
            CancelKind::Requested => "requested",
            CancelKind::Deadline => "deadline",
            CancelKind::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { errors } => {
                write!(f, "invalid configuration ({} component(s))", errors.len())?;
                for e in errors {
                    write!(f, "\n{e}")?;
                }
                Ok(())
            }
            SimError::Panic { message } => write!(f, "simulation panicked: {message}"),
            SimError::Artifact { path, message } => {
                write!(f, "artifact {path}: {message}")
            }
            SimError::Cancelled { kind, at_cycle } => {
                write!(
                    f,
                    "run cancelled ({}) at simulated cycle {at_cycle}",
                    kind.label()
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_display_carries_component_diagnostics() {
        let err = SimError::InvalidConfig {
            errors: vec![ConfigError::new(
                "MemConfig",
                vec!["queue_size = 0: must be >= 1".into()],
            )],
        };
        let shown = err.to_string();
        assert!(shown.contains("MemConfig invalid:"));
        assert!(shown.contains("queue_size"));
    }
}
