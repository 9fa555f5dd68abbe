//! The hash-consed ROBDD node store and its operations.

use crate::BddError;
use std::collections::HashMap;
use std::fmt;

/// A handle to a BDD function owned by a [`Manager`].
///
/// Handles are cheap copyable indices. Because nodes are hash-consed,
/// **two handles from the same manager are equal iff the functions are
/// equal** — this is what makes column-multiplicity counting exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(u32);

impl Bdd {
    /// Raw index (stable for the manager's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bdd#{}", self.0)
    }
}

const FALSE: Bdd = Bdd(0);
const TRUE: Bdd = Bdd(1);
/// Variable level of the terminal nodes: below every real variable.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// A reduced ordered BDD manager with a fixed variable order `0 < 1 < …`
/// (variable 0 is the top of every diagram).
///
/// See the [crate docs](crate) for an overview and example.
#[derive(Debug, Clone)]
pub struct Manager {
    nodes: Vec<Node>,
    unique: HashMap<Node, Bdd>,
    apply_cache: HashMap<(Op, Bdd, Bdd), Bdd>,
    not_cache: HashMap<Bdd, Bdd>,
    ite_cache: HashMap<(Bdd, Bdd, Bdd), Bdd>,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates a manager containing just the two terminals.
    pub fn new() -> Self {
        let nodes = vec![
            Node {
                var: TERMINAL_VAR,
                lo: FALSE,
                hi: FALSE,
            },
            Node {
                var: TERMINAL_VAR,
                lo: TRUE,
                hi: TRUE,
            },
        ];
        Manager {
            nodes,
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            not_cache: HashMap::new(),
            ite_cache: HashMap::new(),
        }
    }

    /// The constant-false function.
    pub fn zero(&self) -> Bdd {
        FALSE
    }

    /// The constant-true function.
    pub fn one(&self) -> Bdd {
        TRUE
    }

    /// True if `f` is one of the two constants.
    pub fn is_const(&self, f: Bdd) -> bool {
        f == FALSE || f == TRUE
    }

    /// Total number of nodes ever created (including both terminals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the terminals exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 2
    }

    /// The projection function of variable `v`.
    pub fn var(&mut self, v: u32) -> Bdd {
        self.mk(v, FALSE, TRUE)
    }

    /// The negated projection of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.mk(v, TRUE, FALSE)
    }

    /// Top variable of `f`, or `None` for a constant.
    pub fn top_var(&self, f: Bdd) -> Option<u32> {
        let v = self.nodes[f.index()].var;
        (v != TERMINAL_VAR).then_some(v)
    }

    /// `(low, high)` children of a non-terminal node — the cofactors with
    /// respect to its top variable.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn cofactors_of(&self, f: Bdd) -> (Bdd, Bdd) {
        assert!(!self.is_const(f), "constants have no cofactors");
        let n = self.nodes[f.index()];
        (n.lo, n.hi)
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&b) = self.unique.get(&node) {
            return b;
        }
        // SAFETY of the expect: 2^32 nodes would need > 64 GiB of node
        // storage alone, so memory runs out before the index space does.
        // No node ceiling guards this; the callers (reference
        // decompositions of at most 16 variables in tests, and
        // `netlist::equiv`'s equivalence checks) build far smaller
        // diagrams.
        let b = Bdd(u32::try_from(self.nodes.len()).expect("BDD node space exhausted"));
        self.nodes.push(node);
        self.unique.insert(node, b);
        b
    }

    /// Logical negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        if f == FALSE {
            return TRUE;
        }
        if f == TRUE {
            return FALSE;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let n = self.nodes[f.index()];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(f, r);
        self.not_cache.insert(r, f);
        r
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::And, f, g)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Xor, f, g)
    }

    /// `f → g ? h` (if-then-else), the universal connective.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let v = self.min_var3(f, g, h);
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let (h0, h1) = self.cofactors_at(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    fn apply(&mut self, op: Op, f: Bdd, g: Bdd) -> Bdd {
        // Terminal cases.
        match op {
            Op::And => {
                if f == FALSE || g == FALSE {
                    return FALSE;
                }
                if f == TRUE {
                    return g;
                }
                if g == TRUE {
                    return f;
                }
                if f == g {
                    return f;
                }
            }
            Op::Or => {
                if f == TRUE || g == TRUE {
                    return TRUE;
                }
                if f == FALSE {
                    return g;
                }
                if g == FALSE {
                    return f;
                }
                if f == g {
                    return f;
                }
            }
            Op::Xor => {
                if f == FALSE {
                    return g;
                }
                if g == FALSE {
                    return f;
                }
                if f == g {
                    return FALSE;
                }
                if f == TRUE {
                    return self.not(g);
                }
                if g == TRUE {
                    return self.not(f);
                }
            }
        }
        // Commutative: normalize the cache key.
        let key = if f <= g { (op, f, g) } else { (op, g, f) };
        if let Some(&r) = self.apply_cache.get(&key) {
            return r;
        }
        let v = self.min_var2(f, g);
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let lo = self.apply(op, f0, g0);
        let hi = self.apply(op, f1, g1);
        let r = self.mk(v, lo, hi);
        self.apply_cache.insert(key, r);
        r
    }

    fn min_var2(&self, f: Bdd, g: Bdd) -> u32 {
        self.nodes[f.index()].var.min(self.nodes[g.index()].var)
    }

    fn min_var3(&self, f: Bdd, g: Bdd, h: Bdd) -> u32 {
        self.min_var2(f, g).min(self.nodes[h.index()].var)
    }

    /// `(f|v=0, f|v=1)` when `v` is at or above the top variable of `f`.
    fn cofactors_at(&self, f: Bdd, v: u32) -> (Bdd, Bdd) {
        let n = self.nodes[f.index()];
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// The cofactor `f|var=val` (general: `var` may be anywhere in the
    /// order).
    pub fn restrict(&mut self, f: Bdd, var: u32, val: bool) -> Bdd {
        let n = self.nodes[f.index()];
        if n.var == TERMINAL_VAR || n.var > var {
            return f;
        }
        if n.var == var {
            return if val { n.hi } else { n.lo };
        }
        // n.var < var: recurse. Memoization reuses the ite cache keyed on a
        // synthetic triple; simpler to recurse directly (functions are
        // small), with a local cache to avoid exponential blowup.
        let mut cache = HashMap::new();
        self.restrict_rec(f, var, val, &mut cache)
    }

    fn restrict_rec(&mut self, f: Bdd, var: u32, val: bool, cache: &mut HashMap<Bdd, Bdd>) -> Bdd {
        let n = self.nodes[f.index()];
        if n.var == TERMINAL_VAR || n.var > var {
            return f;
        }
        if n.var == var {
            return if val { n.hi } else { n.lo };
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let lo = self.restrict_rec(n.lo, var, val, cache);
        let hi = self.restrict_rec(n.hi, var, val, cache);
        let r = self.mk(n.var, lo, hi);
        cache.insert(f, r);
        r
    }

    /// Restricts several variables at once: `assign` maps variable → value.
    pub fn restrict_many(&mut self, f: Bdd, assign: &[(u32, bool)]) -> Bdd {
        let mut r = f;
        for &(v, b) in assign {
            r = self.restrict(r, v, b);
        }
        r
    }

    /// Functional composition: substitutes `g` for variable `var` in `f`.
    pub fn compose(&mut self, f: Bdd, var: u32, g: Bdd) -> Bdd {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.ite(g, f1, f0)
    }

    /// Existential quantification of `var`.
    pub fn exists(&mut self, f: Bdd, var: u32) -> Bdd {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.or(f0, f1)
    }

    /// Universal quantification of `var`.
    pub fn forall(&mut self, f: Bdd, var: u32) -> Bdd {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.and(f0, f1)
    }

    /// The set of variables `f` actually depends on, ascending.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if !seen.insert(b) || self.is_const(b) {
                continue;
            }
            let n = self.nodes[b.index()];
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars.into_iter().collect()
    }

    /// Number of distinct internal nodes reachable from `f` (diagram size).
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(b) = stack.pop() {
            if self.is_const(b) || !seen.insert(b) {
                continue;
            }
            count += 1;
            let n = self.nodes[b.index()];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Evaluates `f` under the assignment `input[v]` for variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable `>= input.len()`.
    pub fn eval(&self, f: Bdd, input: &[bool]) -> bool {
        let mut b = f;
        loop {
            let n = self.nodes[b.index()];
            if n.var == TERMINAL_VAR {
                return b == TRUE;
            }
            let v = n.var as usize;
            assert!(v < input.len(), "assignment too short for variable {v}");
            b = if input[v] { n.hi } else { n.lo };
        }
    }

    /// Number of satisfying assignments over `nvars` variables
    /// (variables `0..nvars`).
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable `>= nvars` or `nvars > 127`.
    pub fn sat_count(&self, f: Bdd, nvars: u32) -> u128 {
        assert!(nvars <= 127, "sat_count supports at most 127 variables");
        let mut cache: HashMap<Bdd, u128> = HashMap::new();
        // count(b) = satisfying assignments over variables [var(b), nvars).
        fn rec(m: &Manager, b: Bdd, nvars: u32, cache: &mut HashMap<Bdd, u128>) -> u128 {
            let n = m.nodes[b.index()];
            if n.var == TERMINAL_VAR {
                return u128::from(b == TRUE);
            }
            if let Some(&c) = cache.get(&b) {
                return c;
            }
            assert!(n.var < nvars, "variable {} out of range {nvars}", n.var);
            let scale = |m: &Manager, child: Bdd, from: u32, cache: &mut HashMap<Bdd, u128>| {
                let cv = m.nodes[child.index()].var.min(nvars);
                let gap = cv - from - 1;
                rec(m, child, nvars, cache) << gap
            };
            let c = scale(m, n.lo, n.var, cache) + scale(m, n.hi, n.var, cache);
            cache.insert(b, c);
            c
        }
        let top = self.nodes[f.index()].var.min(nvars);
        rec(self, f, nvars, &mut cache) << top
    }

    /// The largest variable count [`Manager::from_truth_table`] and
    /// [`Manager::to_truth_table`] accept (the flat table has `2^nvars`
    /// bits).
    pub const MAX_TT_VARS: u32 = 24;

    /// Builds a BDD from a flat truth table over `nvars` variables.
    /// Bit `i` of the table (bit `i % 64` of word `i / 64`) is the value of
    /// the function at the assignment whose variable `v` equals bit `v` of
    /// `i` — i.e. variable 0 is the least significant index bit.
    ///
    /// # Errors
    ///
    /// [`BddError::TooManyVars`] if `nvars > 24`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` holds fewer than `2^nvars` bits (a caller bug —
    /// the table length is statically known at every call site).
    pub fn from_truth_table(&mut self, nvars: u32, bits: &[u64]) -> Result<Bdd, BddError> {
        if nvars > Self::MAX_TT_VARS {
            return Err(BddError::TooManyVars {
                nvars,
                max: Self::MAX_TT_VARS,
            });
        }
        let need = 1usize << nvars;
        assert!(
            bits.len() * 64 >= need || (!bits.is_empty() && nvars < 6),
            "truth table too short"
        );
        Ok(self.from_tt_sub(nvars, bits, nvars))
    }

    /// Builds the sub-BDD for a `2^width`-entry table over the variables
    /// `[nvars - width, nvars)`; the lowest index bit of the table is the
    /// first of those variables. Splits off that variable by striding the
    /// table (tables are tiny, at most `2^24` bits).
    #[allow(clippy::wrong_self_convention)] // private helper of from_truth_table
    fn from_tt_sub(&mut self, nvars: u32, bits: &[u64], width: u32) -> Bdd {
        if width == 0 {
            return if bits[0] & 1 == 1 { TRUE } else { FALSE };
        }
        let var = nvars - width;
        let size = 1usize << width;
        let mut lo_bits = vec![0u64; (size / 2).div_ceil(64).max(1)];
        let mut hi_bits = vec![0u64; (size / 2).div_ceil(64).max(1)];
        for j in 0..size / 2 {
            let lo_src = 2 * j;
            let hi_src = 2 * j + 1;
            if (bits[lo_src / 64] >> (lo_src % 64)) & 1 == 1 {
                lo_bits[j / 64] |= 1 << (j % 64);
            }
            if (bits[hi_src / 64] >> (hi_src % 64)) & 1 == 1 {
                hi_bits[j / 64] |= 1 << (j % 64);
            }
        }
        let lo = self.from_tt_sub(nvars, &lo_bits, width - 1);
        let hi = self.from_tt_sub(nvars, &hi_bits, width - 1);
        self.mk(var, lo, hi)
    }

    /// Dumps `f` as a flat truth table over `nvars` variables (same bit
    /// layout as [`Manager::from_truth_table`]).
    ///
    /// # Errors
    ///
    /// [`BddError::TooManyVars`] if `nvars > 24`.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable `>= nvars`.
    pub fn to_truth_table(&self, f: Bdd, nvars: u32) -> Result<Vec<u64>, BddError> {
        if nvars > Self::MAX_TT_VARS {
            return Err(BddError::TooManyVars {
                nvars,
                max: Self::MAX_TT_VARS,
            });
        }
        let size = 1usize << nvars;
        let mut out = vec![0u64; size.div_ceil(64).max(1)];
        let mut input = vec![false; nvars as usize];
        for i in 0..size {
            for (v, bit) in input.iter_mut().enumerate() {
                *bit = (i >> v) & 1 == 1;
            }
            if self.eval(f, &input) {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let mut m = Manager::new();
        assert_ne!(m.zero(), m.one());
        let x = m.var(0);
        let nx = m.nvar(0);
        let also_nx = m.not(x);
        assert_eq!(nx, also_nx);
        let back = m.not(nx);
        assert_eq!(back, x);
    }

    #[test]
    fn hash_consing_canonical() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let a = m.and(x0, x1);
        let b = m.and(x1, x0);
        assert_eq!(a, b, "AND is commutative and BDDs are canonical");
        let o1 = m.or(x0, x1);
        let no = {
            let nx0 = m.not(x0);
            let nx1 = m.not(x1);
            let a2 = m.and(nx0, nx1);
            m.not(a2)
        };
        assert_eq!(o1, no, "De Morgan");
    }

    #[test]
    fn xor_and_ite() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x = m.xor(x0, x1);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(m.eval(x, &[a, b]), a ^ b);
        }
        let x2 = m.var(2);
        let f = m.ite(x0, x1, x2);
        for i in 0..8u32 {
            let input = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let expect = if input[0] { input[1] } else { input[2] };
            assert_eq!(m.eval(f, &input), expect);
        }
    }

    #[test]
    fn restrict_and_compose() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let t = m.and(x1, x2);
        let f = m.or(x0, t); // x0 | (x1 & x2)
        let f1 = m.restrict(f, 0, true);
        assert_eq!(f1, m.one());
        let f0 = m.restrict(f, 0, false);
        assert_eq!(f0, t);
        // compose x0 := x1 ^ x2
        let g = m.xor(x1, x2);
        let h = m.compose(f, 0, g);
        for i in 0..4u32 {
            let b1 = (i & 1) != 0;
            let b2 = (i & 2) != 0;
            assert_eq!(m.eval(h, &[false, b1, b2]), (b1 ^ b2) | (b1 & b2));
        }
    }

    #[test]
    fn quantifiers() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let f = m.and(x0, x1);
        let e = m.exists(f, 0);
        assert_eq!(e, x1);
        let a = m.forall(f, 0);
        assert_eq!(a, m.zero());
    }

    #[test]
    fn support_and_node_count() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x3 = m.var(3);
        let f = m.and(x0, x3);
        assert_eq!(m.support(f), vec![0, 3]);
        assert_eq!(m.node_count(f), 2);
        assert_eq!(m.support(m.one()), Vec::<u32>::new());
        assert_eq!(m.node_count(m.zero()), 0);
    }

    #[test]
    fn sat_count_basic() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let f = m.or(x0, x1);
        assert_eq!(m.sat_count(f, 2), 3);
        assert_eq!(m.sat_count(f, 3), 6);
        assert_eq!(m.sat_count(m.one(), 5), 32);
        assert_eq!(m.sat_count(m.zero(), 5), 0);
        assert_eq!(m.sat_count(x1, 2), 2);
    }

    #[test]
    fn truth_table_roundtrip() {
        let mut m = Manager::new();
        // f(x0,x1,x2) = majority
        let tt: u64 = {
            let mut t = 0u64;
            for i in 0..8u64 {
                let ones = (i & 1) + ((i >> 1) & 1) + ((i >> 2) & 1);
                if ones >= 2 {
                    t |= 1 << i;
                }
            }
            t
        };
        let f = m.from_truth_table(3, &[tt]).expect("3 vars fits");
        let back = m.to_truth_table(f, 3).expect("3 vars fits");
        assert_eq!(back[0] & 0xFF, tt);
        // And check semantics directly.
        for i in 0..8u64 {
            let input = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let ones = input.iter().filter(|&&b| b).count();
            assert_eq!(m.eval(f, &input), ones >= 2);
        }
    }

    #[test]
    fn truth_table_multiword() {
        let mut m = Manager::new();
        // 7-variable parity: 128 bits = 2 words.
        let mut bits = [0u64; 2];
        for i in 0..128usize {
            if (i.count_ones() & 1) == 1 {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        let f = m.from_truth_table(7, &bits).expect("7 vars fits");
        let mut expect = m.zero();
        for v in 0..7 {
            let x = m.var(v);
            expect = m.xor(expect, x);
        }
        assert_eq!(f, expect);
        assert_eq!(m.to_truth_table(f, 7).expect("7 vars fits"), bits.to_vec());
    }

    #[test]
    fn too_many_vars_is_an_error_not_a_panic() {
        let mut m = Manager::new();
        let r = m.from_truth_table(25, &[0u64; 1 << 19]);
        assert_eq!(
            r,
            Err(BddError::TooManyVars {
                nvars: 25,
                max: Manager::MAX_TT_VARS
            })
        );
        let x = m.var(0);
        let r = m.to_truth_table(x, 30);
        assert_eq!(
            r,
            Err(BddError::TooManyVars {
                nvars: 30,
                max: Manager::MAX_TT_VARS
            })
        );
    }

    #[test]
    fn eval_ignores_irrelevant_vars() {
        let mut m = Manager::new();
        let x2 = m.var(2);
        assert!(m.eval(x2, &[false, false, true]));
        assert!(!m.eval(x2, &[true, true, false]));
    }

    #[test]
    fn restrict_var_below_top() {
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let t = m.and(x1, x2);
        let f = m.or(x0, t);
        let r = m.restrict(f, 2, true); // => x0 | x1
        let expect = m.or(x0, x1);
        assert_eq!(r, expect);
    }
}
