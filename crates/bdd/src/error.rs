//! Typed errors for the BDD package.

use std::fmt;

/// Errors surfaced by fallible BDD operations: malformed decomposition
/// arguments (bound sets, fresh variables, wire counts) and truth-table
/// conversions beyond the flat representation's variable limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BddError {
    /// A truth-table conversion was asked for more variables than the flat
    /// representation supports.
    TooManyVars {
        /// Requested variable count.
        nvars: u32,
        /// The largest supported count.
        max: u32,
    },
    /// A decomposition bound set was empty, too large, or contained
    /// duplicates.
    InvalidBoundSet(&'static str),
    /// A fresh encoder variable collides with the support of the function
    /// being decomposed.
    FreshVarCollision {
        /// The colliding variable.
        var: u32,
    },
    /// The requested encoder wire count was outside `1..=6`.
    InvalidWireCount(usize),
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::TooManyVars { nvars, max } => {
                write!(f, "truth tables limited to {max} variables (got {nvars})")
            }
            BddError::InvalidBoundSet(msg) => write!(f, "invalid bound set: {msg}"),
            BddError::FreshVarCollision { var } => {
                write!(f, "fresh variable {var} collides with the support of f")
            }
            BddError::InvalidWireCount(w) => {
                write!(f, "1..=6 encoding wires supported (got {w})")
            }
        }
    }
}

impl std::error::Error for BddError {}
