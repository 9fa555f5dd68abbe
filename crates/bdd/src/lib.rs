//! A reduced ordered binary decision diagram (ROBDD) package with exact
//! functional decomposition.
//!
//! The TurboSYN paper resynthesizes the *cut functions* that block a target
//! clock period using "OBDD based functional decomposition" (Section 3.3,
//! citing FlowSYN \[5\] and Lai–Pan–Pedram \[14\]). The mappers in
//! `turbosyn` decompose on truth tables instead (cut functions have at
//! most 16 inputs); this crate serves two roles beside them:
//!
//! * the **test oracle** of that decomposition: `turbosyn`'s tests replay
//!   every decision of the truth-table pipeline through [`decompose`]
//!   and compare the resulting LUT trees;
//! * the symbolic engine of `turbosyn_netlist::equiv` (combinational and
//!   bounded sequential equivalence checks).
//!
//! It provides:
//!
//! * [`Manager`] — a hash-consed ROBDD store with the classic operation
//!   set: `and`/`or`/`xor`/`not`/[`Manager::ite`], cofactors, composition,
//!   quantification, support, satisfying-assignment counting, and
//!   conversions to and from flat truth tables.
//! * [`decompose`] — Ashenhurst single-output decomposition and the
//!   Roth–Karp multi-output generalization, driven by exact
//!   column-multiplicity computation (`μ(f, B)` = number of distinct
//!   cofactors of `f` under assignments to the bound set `B`).
//!
//! Functions are small here, so the manager favours simplicity over arena
//! tricks: no complement edges, no garbage collection, no node ceiling.
//! Node indices are append-only and remain valid for the manager's
//! lifetime.
//!
//! # Example
//!
//! ```
//! use turbosyn_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let x0 = m.var(0);
//! let x1 = m.var(1);
//! let f = m.and(x0, x1);
//! assert!(m.eval(f, &[true, true]));
//! assert!(!m.eval(f, &[true, false]));
//! assert_eq!(m.sat_count(f, 2), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;

mod error;
mod manager;

pub use error::BddError;
pub use manager::{Bdd, Manager};
