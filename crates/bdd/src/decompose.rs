//! Functional decomposition: Ashenhurst and Roth–Karp, exact via BDDs.
//!
//! Given a function `f(B, F)` with a *bound set* `B` and *free set* `F`,
//! a disjoint decomposition rewrites
//!
//! ```text
//!     f(B, F) = g(h_1(B), …, h_r(B), F)
//! ```
//!
//! which exists with `r` wires iff the **column multiplicity**
//! `μ(f, B)` — the number of distinct cofactors `f|_{B=b}` over all
//! assignments `b` — satisfies `μ <= 2^r`. With `r = 1` this is the
//! classic Ashenhurst simple disjoint decomposition (`μ <= 2`), the
//! workhorse of FlowSYN's and TurboSYN's resynthesis: the bound set
//! becomes one new LUT `h`, shrinking the support of the root function.
//!
//! Because BDDs are canonical, cofactor distinctness is plain handle
//! equality, so `μ` is computed exactly by enumerating the `2^|B|` bound
//! assignments (bound sets are at most LUT-sized, so this is cheap).

use crate::{Bdd, BddError, Manager};

/// Maximum bound-set size accepted by the routines in this module.
/// `2^12` cofactor enumerations is comfortably fast and far beyond any
/// LUT input count used in practice.
const MAX_BOUND: usize = 12;

/// A disjoint decomposition `f(B, F) = image(encoders(B), F)`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Encoding functions `h_j`, each a function of the bound variables.
    pub encoders: Vec<Bdd>,
    /// Fresh variables standing for the encoder outputs inside
    /// [`Decomposition::image`], parallel to `encoders`.
    pub encoder_vars: Vec<u32>,
    /// The composition function `g` over the free variables and
    /// `encoder_vars`.
    pub image: Bdd,
    /// Column multiplicity that was observed.
    pub multiplicity: usize,
}

/// Validates a bound set: non-empty, at most `MAX_BOUND` (12) variables,
/// no duplicates; [`BddError::InvalidBoundSet`] names the violated
/// condition.
fn validate_bound(bound: &[u32]) -> Result<(), BddError> {
    if bound.is_empty() {
        return Err(BddError::InvalidBoundSet("bound set must be non-empty"));
    }
    if bound.len() > MAX_BOUND {
        return Err(BddError::InvalidBoundSet("bound set larger than MAX_BOUND"));
    }
    let mut sorted = bound.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != bound.len() {
        return Err(BddError::InvalidBoundSet("bound set contains duplicates"));
    }
    Ok(())
}

/// Computes the column multiplicity `μ(f, bound)`: the number of distinct
/// cofactors of `f` over all assignments to the bound variables.
///
/// # Panics
///
/// Panics if `bound` is empty, longer than 12 variables, or contains
/// duplicates. (Every caller passes a statically well-formed bound set;
/// the fallible entry point is [`decompose`].)
pub fn column_multiplicity(m: &mut Manager, f: Bdd, bound: &[u32]) -> usize {
    validate_bound(bound).expect("invalid bound set");
    cofactor_classes(m, f, bound).1
}

/// For every assignment `b` (indexed by bits: bit `j` of the index is the
/// value of `bound[j]`), the class id of the cofactor `f|_{B=b}`, along
/// with the class count and one representative cofactor per class.
/// `bound` must already be validated.
fn cofactor_classes(m: &mut Manager, f: Bdd, bound: &[u32]) -> (Vec<usize>, usize, Vec<Bdd>) {
    let count = 1usize << bound.len();
    let mut class_of = Vec::with_capacity(count);
    let mut reps: Vec<Bdd> = Vec::new();
    let mut index: std::collections::HashMap<Bdd, usize> = std::collections::HashMap::new();
    let mut assign: Vec<(u32, bool)> = bound.iter().map(|&v| (v, false)).collect();
    for b in 0..count {
        for (j, slot) in assign.iter_mut().enumerate() {
            slot.1 = (b >> j) & 1 == 1;
        }
        let cof = m.restrict_many(f, &assign);
        let class = *index.entry(cof).or_insert_with(|| {
            reps.push(cof);
            reps.len() - 1
        });
        class_of.push(class);
    }
    let n = reps.len();
    (class_of, n, reps)
}

/// Attempts the disjoint decomposition of `f` with the given bound set and
/// at most `wires` encoding functions. Fresh variables
/// `fresh_base, fresh_base + 1, …` are used for the encoder outputs.
///
/// Returns `Ok(None)` if the column multiplicity exceeds `2^wires` (no
/// decomposition with that many wires exists).
///
/// The returned decomposition satisfies (and is `debug_assert`-checked to
/// satisfy) `recompose(m, &dec) == f`.
///
/// # Errors
///
/// [`BddError::InvalidBoundSet`] / [`BddError::InvalidWireCount`] /
/// [`BddError::FreshVarCollision`] on malformed arguments.
pub fn decompose(
    m: &mut Manager,
    f: Bdd,
    bound: &[u32],
    wires: usize,
    fresh_base: u32,
) -> Result<Option<Decomposition>, BddError> {
    if wires == 0 || wires > 6 {
        return Err(BddError::InvalidWireCount(wires));
    }
    validate_bound(bound)?;
    let support = m.support(f);
    for w in 0..wires as u32 {
        if support.contains(&(fresh_base + w)) {
            return Err(BddError::FreshVarCollision {
                var: fresh_base + w,
            });
        }
    }

    let (class_of, mu, reps) = cofactor_classes(m, f, bound);
    if mu > (1usize << wires) {
        return Ok(None);
    }
    // How many wires are actually needed (at least 1 to keep the shape).
    let needed = usize::max(1, mu.next_power_of_two().trailing_zeros() as usize);
    let needed = if (1usize << needed) < mu {
        needed + 1
    } else {
        needed
    };

    // Encoders: h_j(B) = OR of minterms of assignments whose class code has
    // bit j set. Class c is encoded as the binary code c.
    let mut encoders = vec![m.zero(); needed];
    let mut assign: Vec<(u32, bool)> = bound.iter().map(|&v| (v, false)).collect();
    for (b, &class) in class_of.iter().enumerate() {
        for (j, slot) in assign.iter_mut().enumerate() {
            slot.1 = (b >> j) & 1 == 1;
        }
        // Minterm of this bound assignment.
        let mut minterm = m.one();
        for &(v, val) in &assign {
            let lit = if val { m.var(v) } else { m.nvar(v) };
            minterm = m.and(minterm, lit);
        }
        for (j, enc) in encoders.iter_mut().enumerate() {
            if (class >> j) & 1 == 1 {
                *enc = m.or(*enc, minterm);
            }
        }
    }

    // Image: g(z, F) = OR over codes k of minterm_z(k) & rep(class(k)),
    // mapping unused codes to class 0 (a free choice — don't cares).
    let encoder_vars: Vec<u32> = (0..needed as u32).map(|j| fresh_base + j).collect();
    let mut image = m.zero();
    for code in 0..(1usize << needed) {
        let rep = reps[if code < mu { code } else { 0 }];
        let mut minterm = m.one();
        for (j, &zv) in encoder_vars.iter().enumerate() {
            let lit = if (code >> j) & 1 == 1 {
                m.var(zv)
            } else {
                m.nvar(zv)
            };
            minterm = m.and(minterm, lit);
        }
        let term = m.and(minterm, rep);
        image = m.or(image, term);
    }

    let dec = Decomposition {
        encoders,
        encoder_vars,
        image,
        multiplicity: mu,
    };
    debug_assert_eq!(recompose(m, &dec), f, "decomposition must recompose to f");
    Ok(Some(dec))
}

/// Substitutes the encoders back into the image, recovering the original
/// function. Used for verification.
pub fn recompose(m: &mut Manager, dec: &Decomposition) -> Bdd {
    let mut g = dec.image;
    for (&zv, &h) in dec.encoder_vars.iter().zip(&dec.encoders) {
        g = m.compose(g, zv, h);
    }
    g
}

/// Convenience wrapper: Ashenhurst simple disjoint decomposition (one
/// wire). Returns `(h, g)` with `f = g(F, z := h(B))`, or `Ok(None)` when
/// `μ(f, B) > 2`.
///
/// # Errors
///
/// Same contract as [`decompose`].
pub fn ashenhurst(
    m: &mut Manager,
    f: Bdd,
    bound: &[u32],
    fresh_var: u32,
) -> Result<Option<(Bdd, Bdd)>, BddError> {
    Ok(decompose(m, f, bound, 1, fresh_var)?.map(|d| (d.encoders[0], d.image)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f = (x0 & x1) | x2 — bound {x0, x1} has cofactors {x2, 1}: μ = 2.
    #[test]
    fn multiplicity_of_and_or() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let a = m.and(x0, x1);
        let f = m.or(a, x2);
        assert_eq!(column_multiplicity(&mut m, f, &[0, 1]), 2);
        assert_eq!(column_multiplicity(&mut m, f, &[2]), 2);
        assert_eq!(column_multiplicity(&mut m, f, &[0]), 2);
    }

    /// A 2-out-of-3 majority has μ = 3 for any 2-variable bound set.
    #[test]
    fn multiplicity_of_majority() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let t01 = m.and(x0, x1);
        let t02 = m.and(x0, x2);
        let t12 = m.and(x1, x2);
        let o = m.or(t01, t02);
        let f = m.or(o, t12);
        assert_eq!(column_multiplicity(&mut m, f, &[0, 1]), 3);
    }

    #[test]
    fn ashenhurst_succeeds_on_and_cluster() {
        let mut m = Manager::new();
        // f = (x0 & x1 & x2) | x3, bound {0,1,2}: μ = 2.
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let x3 = m.var(3);
        let a01 = m.and(x0, x1);
        let a = m.and(a01, x2);
        let f = m.or(a, x3);
        let (h, g) = ashenhurst(&mut m, f, &[0, 1, 2], 10)
            .expect("valid arguments")
            .expect("decomposable");
        // h must be a function of x0..x2 only, g of {x3, z}.
        assert!(m.support(h).iter().all(|&v| v < 3));
        assert!(m.support(g).iter().all(|&v| v == 3 || v == 10));
        // Recompose equals f.
        let back = m.compose(g, 10, h);
        assert_eq!(back, f);
    }

    #[test]
    fn ashenhurst_fails_on_majority() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let t01 = m.and(x0, x1);
        let t02 = m.and(x0, x2);
        let t12 = m.and(x1, x2);
        let o = m.or(t01, t02);
        let f = m.or(o, t12);
        assert!(ashenhurst(&mut m, f, &[0, 1], 10)
            .expect("valid arguments")
            .is_none());
    }

    #[test]
    fn roth_karp_two_wires_on_majority() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let t01 = m.and(x0, x1);
        let t02 = m.and(x0, x2);
        let t12 = m.and(x1, x2);
        let o = m.or(t01, t02);
        let f = m.or(o, t12);
        let dec = decompose(&mut m, f, &[0, 1], 2, 10)
            .expect("valid arguments")
            .expect("μ=3 <= 4");
        assert_eq!(dec.multiplicity, 3);
        assert_eq!(dec.encoders.len(), 2);
        assert_eq!(recompose(&mut m, &dec), f);
    }

    #[test]
    fn xor_chain_is_always_decomposable() {
        let mut m = Manager::new();
        // parity over 6 vars: any bound set has μ = 2.
        let mut f = m.zero();
        for v in 0..6 {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        for bound in [&[0u32, 1][..], &[2, 3, 4][..], &[0, 5][..]] {
            assert_eq!(column_multiplicity(&mut m, f, bound), 2, "bound {bound:?}");
            let (h, g) = ashenhurst(&mut m, f, bound, 20)
                .expect("valid arguments")
                .expect("parity decomposes");
            let back = m.compose(g, 20, h);
            assert_eq!(back, f);
        }
    }

    #[test]
    fn constant_function_multiplicity_one() {
        let mut m = Manager::new();
        let one = m.one();
        assert_eq!(column_multiplicity(&mut m, one, &[0, 1]), 1);
        let dec = decompose(&mut m, one, &[0, 1], 1, 9)
            .expect("valid arguments")
            .expect("trivially decomposable");
        assert_eq!(dec.multiplicity, 1);
        assert_eq!(recompose(&mut m, &dec), one);
    }

    #[test]
    fn bound_var_not_in_support() {
        let mut m = Manager::new();
        let x1 = m.var(1);
        // f = x1; bound {0} — cofactors are both x1: μ = 1.
        assert_eq!(column_multiplicity(&mut m, x1, &[0]), 1);
    }

    #[test]
    fn duplicate_bound_rejected() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let f = m.and(x0, x1);
        let r = decompose(&mut m, f, &[0, 0], 1, 10);
        assert!(matches!(r, Err(BddError::InvalidBoundSet(_))));
        let r = decompose(&mut m, f, &[], 1, 10);
        assert!(matches!(r, Err(BddError::InvalidBoundSet(_))));
        let r = decompose(&mut m, f, &[0], 0, 10);
        assert!(matches!(r, Err(BddError::InvalidWireCount(0))));
    }

    #[test]
    fn fresh_var_collision_rejected() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let f = m.and(x0, x1);
        let r = decompose(&mut m, f, &[0], 1, 1);
        assert!(matches!(r, Err(BddError::FreshVarCollision { var: 1 })));
    }

    /// Random 5-variable functions: whenever decomposition succeeds,
    /// recomposition is exact, and μ matches a truth-table computation.
    #[test]
    fn random_functions_recompose() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let tt: u64 = rng.random::<u64>() & 0xFFFF_FFFF; // 5 vars = 32 bits
            let mut m = Manager::new();
            let f = m.from_truth_table(5, &[tt]).expect("5 vars fits");
            let bound = [0u32, 1, 2];
            // Truth-table μ: distinct 4-bit column patterns over free vars {3,4}.
            let mut cols = std::collections::HashSet::new();
            for b in 0..8u64 {
                let mut col = 0u64;
                for fr in 0..4u64 {
                    let idx = b | (fr << 3);
                    col |= ((tt >> idx) & 1) << fr;
                }
                cols.insert(col);
            }
            assert_eq!(column_multiplicity(&mut m, f, &bound), cols.len());
            if let Some(dec) = decompose(&mut m, f, &bound, 2, 16).expect("valid arguments") {
                assert_eq!(recompose(&mut m, &dec), f);
                assert!(dec.multiplicity <= 4);
            } else {
                assert!(cols.len() > 4);
            }
        }
    }
}
