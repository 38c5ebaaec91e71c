//! Error types for the combination optimizer.

use std::error::Error;
use std::fmt;

use ecosched_core::JobId;

/// Errors raised by the batch combination optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OptimizeError {
    /// The batch has no jobs to optimize.
    EmptyBatch,
    /// A job has no alternatives; the paper postpones such jobs *before*
    /// optimization, so reaching the optimizer with one is a caller bug.
    NoAlternatives {
        /// The job with an empty alternative set.
        job: JobId,
    },
    /// No combination of alternatives satisfies the constraint.
    Infeasible,
    /// A non-positive constraint or resolution was supplied, or the table
    /// is outside what the DP rows can hold (a negative constrained
    /// measure; objective values whose sum could reach `2^61`).
    InvalidParameter {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::EmptyBatch => write!(f, "no jobs to optimize"),
            OptimizeError::NoAlternatives { job } => {
                write!(
                    f,
                    "{job} has no alternatives; postpone it before optimizing"
                )
            }
            OptimizeError::Infeasible => {
                write!(f, "no combination of alternatives satisfies the constraint")
            }
            OptimizeError::InvalidParameter { reason } => {
                write!(f, "invalid optimizer parameter: {reason}")
            }
        }
    }
}

impl Error for OptimizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_never_empty() {
        let errors = vec![
            OptimizeError::EmptyBatch,
            OptimizeError::NoAlternatives { job: JobId::new(1) },
            OptimizeError::Infeasible,
            OptimizeError::InvalidParameter { reason: "x".into() },
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
        }
    }
}
