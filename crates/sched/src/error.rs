//! Scheduler error type.

use std::fmt;

/// Errors produced while planning a scheduled run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// The scheduling policy is inconsistent (e.g. zero arrays).
    InvalidPolicy {
        /// Human-readable reason.
        reason: String,
    },
    /// The matrix was sliced with a different slice size than the engine
    /// is characterized for.
    SliceSizeMismatch {
        /// The engine's slice size in bits.
        engine_bits: u32,
        /// The matrix's slice size in bits.
        matrix_bits: u32,
    },
    /// A plan was bound to a run it was not built for: a different
    /// array count or placement policy, engine buffer or replacement
    /// configuration, cost model, or matrix shape.
    PlanMismatch,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InvalidPolicy { reason } => {
                write!(f, "invalid scheduling policy: {reason}")
            }
            SchedError::SliceSizeMismatch { engine_bits, matrix_bits } => write!(
                f,
                "slice size mismatch: engine characterized for |S| = {engine_bits} \
                 but matrix sliced at |S| = {matrix_bits}"
            ),
            SchedError::PlanMismatch => f.write_str(
                "the schedule plan was built for a different policy, engine or matrix",
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// Shorthand result type of this crate.
pub type Result<T> = std::result::Result<T, SchedError>;
