//! The top-level error surface of the synthesis engine.
//!
//! Every public mapper entry point returns [`SynthesisError`], folding
//! the crate-local error families (BLIF parsing, truth-table limits,
//! verification, budgets) into one enum so embedding services can route
//! failures without downcasting: malformed input, resource exhaustion,
//! cancellation, and internal bugs are distinct, machine-matchable
//! variants.

use crate::budget::Interrupted;
use crate::verify::VerifyError;
use turbosyn_netlist::blif::BlifError;

/// Anything a synthesis run can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The input circuit (or options) failed validation — the caller's
    /// data is at fault, not the engine.
    InvalidInput(String),
    /// The input BLIF text could not be parsed.
    Blif(BlifError),
    /// A function exceeded the truth-table variable limit.
    TooManyVars {
        /// Requested variable count.
        nvars: u32,
        /// The supported maximum.
        max: u32,
    },
    /// A resource budget ran out before any sound result existed.
    BudgetExceeded {
        /// Which limit ran out, human-readable.
        what: String,
    },
    /// The [`CancelToken`](crate::CancelToken) was triggered.
    Cancelled,
    /// The produced mapping failed its own verification — an internal
    /// bug, never expected on valid inputs.
    Verify(VerifyError),
    /// An internal invariant was violated (e.g. labels with no
    /// realization).
    Internal(String),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            SynthesisError::Blif(e) => write!(f, "BLIF parse error: {e}"),
            SynthesisError::TooManyVars { nvars, max } => {
                write!(f, "{nvars} variables exceed the supported maximum of {max}")
            }
            SynthesisError::BudgetExceeded { what } => {
                write!(f, "resource budget exceeded: {what}")
            }
            SynthesisError::Cancelled => write!(f, "cancelled"),
            SynthesisError::Verify(e) => write!(f, "mapping failed verification: {e}"),
            SynthesisError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Blif(e) => Some(e),
            SynthesisError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VerifyError> for SynthesisError {
    fn from(e: VerifyError) -> Self {
        SynthesisError::Verify(e)
    }
}

impl From<BlifError> for SynthesisError {
    fn from(e: BlifError) -> Self {
        SynthesisError::Blif(e)
    }
}

impl From<Interrupted> for SynthesisError {
    fn from(i: Interrupted) -> Self {
        match i {
            Interrupted::Cancelled => SynthesisError::Cancelled,
            Interrupted::DeadlineExpired => SynthesisError::BudgetExceeded {
                what: "wall-clock deadline".into(),
            },
            Interrupted::WorkExhausted => SynthesisError::BudgetExceeded {
                what: "expanded-node work budget".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_pick_the_right_variant() {
        let e: SynthesisError = Interrupted::Cancelled.into();
        assert_eq!(e, SynthesisError::Cancelled);
        let e: SynthesisError = Interrupted::DeadlineExpired.into();
        assert!(matches!(e, SynthesisError::BudgetExceeded { .. }));
        let e: SynthesisError = VerifyError::InterfaceMismatch.into();
        assert!(matches!(e, SynthesisError::Verify(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = SynthesisError::BudgetExceeded {
            what: "wall-clock deadline".into(),
        };
        assert!(e.to_string().contains("deadline"));
        assert!(SynthesisError::Cancelled.to_string().contains("cancelled"));
    }
}
