//! Dense truth tables for gate and LUT functions.
//!
//! Gates in a K-bounded network and LUT contents after mapping are
//! functions of at most ~16 inputs, so a flat bit table is the fastest and
//! simplest representation. Bit `i` of the table is the function value at
//! the assignment whose input `v` equals bit `v` of `i` (input 0 is the
//! least significant index bit) — the same layout as
//! [`turbosyn_bdd::Manager::from_truth_table`], so conversion is free.

use std::fmt;

/// Maximum supported input count.
pub const MAX_VARS: u8 = 16;

/// A complete truth table over `nvars <= 16` ordered inputs.
///
/// # Example
///
/// ```
/// use turbosyn_netlist::tt::TruthTable;
///
/// let a = TruthTable::lit(2, 0);
/// let b = TruthTable::lit(2, 1);
/// let f = a.and(&b);
/// assert!(f.eval(0b11));
/// assert!(!f.eval(0b01));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    nvars: u8,
    bits: Vec<u64>,
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars:", self.nvars)?;
        for w in self.bits.iter().rev() {
            write!(f, " {w:016x}")?;
        }
        write!(f, ")")
    }
}

fn words_for(nvars: u8) -> usize {
    (1usize << nvars).div_ceil(64).max(1)
}

/// Mask selecting the valid bits of the last word for small tables.
fn tail_mask(nvars: u8) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << nvars)) - 1
    }
}

/// `LO[v]` selects the bit positions of a word whose index bit `v` is 0
/// (`v < 6`); its complement selects those where it is 1.
const LO: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

impl TruthTable {
    /// The constant function `value` over `nvars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 16`.
    pub fn constant(nvars: u8, value: bool) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} inputs supported");
        let fill = if value { tail_mask(nvars) } else { 0 };
        let mut bits = vec![if value { u64::MAX } else { 0 }; words_for(nvars)];
        *bits.last_mut().expect("non-empty") = fill;
        TruthTable { nvars, bits }
    }

    /// The projection of input `var` over `nvars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars` or `nvars > 16`.
    pub fn lit(nvars: u8, var: u8) -> Self {
        assert!(var < nvars, "literal {var} out of range for {nvars} inputs");
        let mut t = TruthTable::constant(nvars, false);
        if var < 6 {
            let pattern = !LO[var as usize] & tail_mask(nvars);
            t.bits.iter_mut().for_each(|w| *w = pattern);
        } else {
            let stride = 1usize << (var - 6);
            for (i, w) in t.bits.iter_mut().enumerate() {
                if i & stride != 0 {
                    *w = u64::MAX;
                }
            }
        }
        t
    }

    /// Builds from raw bits (low table bits in `bits[0]`'s low bits).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is too short for `2^nvars` entries or `nvars > 16`.
    pub fn from_bits(nvars: u8, bits: &[u64]) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} inputs supported");
        let w = words_for(nvars);
        assert!(bits.len() >= w, "truth table bits too short");
        let mut bits = bits[..w].to_vec();
        *bits.last_mut().expect("non-empty") &= tail_mask(nvars);
        TruthTable { nvars, bits }
    }

    /// Builds an `nvars`-input table from a predicate on assignments.
    pub fn from_fn(nvars: u8, f: impl Fn(u32) -> bool) -> Self {
        let mut t = TruthTable::constant(nvars, false);
        for i in 0..(1u32 << nvars) {
            if f(i) {
                t.bits[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
        t
    }

    /// Number of inputs.
    pub fn nvars(&self) -> u8 {
        self.nvars
    }

    /// Raw table words.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Value at assignment `input` (bit `v` of `input` = value of input `v`).
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^nvars`.
    pub fn eval(&self, input: u32) -> bool {
        assert!(
            (input as usize) < (1usize << self.nvars),
            "assignment out of range"
        );
        (self.bits[(input / 64) as usize] >> (input % 64)) & 1 == 1
    }

    /// Evaluates with a slice of input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != nvars`.
    pub fn eval_slice(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.nvars as usize, "input arity mismatch");
        let mut idx = 0u32;
        for (v, &b) in inputs.iter().enumerate() {
            idx |= u32::from(b) << v;
        }
        self.eval(idx)
    }

    /// True if the function is constant (does not depend on any input).
    pub fn is_constant(&self) -> Option<bool> {
        let zero = TruthTable::constant(self.nvars, false);
        if *self == zero {
            return Some(false);
        }
        let one = TruthTable::constant(self.nvars, true);
        (*self == one).then_some(true)
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.nvars, other.nvars, "arity mismatch");
        let bits: Vec<u64> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut t = TruthTable {
            nvars: self.nvars,
            bits,
        };
        *t.bits.last_mut().expect("non-empty") &= tail_mask(self.nvars);
        t
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement.
    pub fn not(&self) -> Self {
        let bits: Vec<u64> = self.bits.iter().map(|&a| !a).collect();
        let mut t = TruthTable {
            nvars: self.nvars,
            bits,
        };
        *t.bits.last_mut().expect("non-empty") &= tail_mask(self.nvars);
        t
    }

    /// Cofactor with input `var` fixed to `val`; the result keeps the same
    /// arity (the fixed input becomes irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn cofactor(&self, var: u8, val: bool) -> Self {
        assert!(var < self.nvars, "cofactor variable out of range");
        TruthTable::from_fn(self.nvars, |i| {
            let fixed = if val { i | (1 << var) } else { i & !(1 << var) };
            self.eval(fixed)
        })
    }

    /// Whether the function depends on input `var` (its two cofactors
    /// differ), compared word-parallel.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn depends_on(&self, var: u8) -> bool {
        assert!(var < self.nvars, "input {var} out of range");
        if var < 6 {
            let shift = 1u32 << var;
            let lo = LO[var as usize];
            self.bits.iter().any(|&w| ((w >> shift) ^ w) & lo != 0)
        } else {
            let stride = 1usize << (var - 6);
            self.bits
                .chunks(2 * stride)
                .any(|c| c[..stride] != c[stride..])
        }
    }

    /// Inputs the function actually depends on, ascending.
    pub fn support(&self) -> Vec<u8> {
        (0..self.nvars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Exchanges inputs `a` and `b` in place (the result at an assignment
    /// is `self` at the assignment with bits `a` and `b` swapped), with
    /// word-parallel delta swaps.
    ///
    /// # Panics
    ///
    /// Panics if either input is `>= nvars`.
    pub fn swap_vars(&mut self, a: u8, b: u8) {
        assert!(a < self.nvars && b < self.nvars, "swap input out of range");
        let (i, j) = (a.min(b), a.max(b));
        if i == j {
            return;
        }
        if j < 6 {
            // Positions with bit i = 1, bit j = 0 trade with the partner
            // `d` positions up (bit i = 0, bit j = 1), inside each word.
            let d = (1u32 << j) - (1u32 << i);
            let m = !LO[i as usize] & LO[j as usize];
            for w in &mut self.bits {
                let t = ((*w >> d) ^ *w) & m;
                *w ^= t ^ (t << d);
            }
        } else if i < 6 {
            // Bit i is inside the word, bit j selects between word pairs.
            let shift = 1u32 << i;
            let hi = !LO[i as usize];
            let stride = 1usize << (j - 6);
            for c in self.bits.chunks_mut(2 * stride) {
                let (lo_half, hi_half) = c.split_at_mut(stride);
                for (x, y) in lo_half.iter_mut().zip(hi_half) {
                    let nx = (*x & !hi) | ((*y & !hi) << shift);
                    let ny = (*y & hi) | ((*x & hi) >> shift);
                    *x = nx;
                    *y = ny;
                }
            }
        } else {
            let (si, sj) = (1usize << (i - 6), 1usize << (j - 6));
            for w in 0..self.bits.len() {
                if w & si != 0 && w & sj == 0 {
                    self.bits.swap(w, w + sj - si);
                }
            }
        }
    }

    /// Moves `inputs` to the top positions in order (`inputs[j]` ends at
    /// position `nvars − inputs.len() + j`) by [`TruthTable::swap_vars`].
    /// Returns the permutation applied: entry `p` is the old position of
    /// the input now at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has out-of-range or duplicate entries.
    pub fn move_to_top(&mut self, inputs: &[u8]) -> Vec<u8> {
        assert!(inputs.len() <= self.nvars as usize, "too many inputs");
        let free = self.nvars as usize - inputs.len();
        let mut perm: Vec<u8> = (0..self.nvars).collect();
        for (j, &v) in inputs.iter().enumerate() {
            let p = perm.iter().position(|&o| o == v).expect("input in range");
            assert!(!(free..free + j).contains(&p), "duplicate input {v}");
            if p != free + j {
                self.swap_vars(p as u8, (free + j) as u8);
                perm.swap(p, free + j);
            }
        }
        perm
    }

    /// The cofactor at input `nvars − 1` = 0, as a table over the first
    /// `nvars − 1` inputs (drops the top input when it is not in the
    /// support).
    ///
    /// # Panics
    ///
    /// Panics if `nvars == 0`.
    pub fn drop_top(&self) -> Self {
        assert!(self.nvars > 0, "no input to drop");
        TruthTable::from_bits(self.nvars - 1, &self.bits)
    }

    /// The same function over `nvars + 1` inputs: the new top input is
    /// irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if `nvars == 16`.
    pub fn add_top(&self) -> Self {
        assert!(self.nvars < MAX_VARS, "at most {MAX_VARS} inputs supported");
        let bits = if self.nvars >= 6 {
            [self.bits.as_slice(), self.bits.as_slice()].concat()
        } else {
            vec![self.bits[0] | (self.bits[0] << (1u32 << self.nvars))]
        };
        TruthTable {
            nvars: self.nvars + 1,
            bits,
        }
    }

    /// Column `b` of the table split at `free` inputs: its value at
    /// assignment `b` of the top `nvars − free` inputs, as a function of
    /// the low `free` inputs. Only for `free < 6`, where a column fits in
    /// one word.
    fn short_column(&self, free: u8, b: usize) -> u64 {
        let width = 1usize << free;
        let pos = b * width;
        (self.bits[pos / 64] >> (pos % 64)) & tail_mask(free)
    }

    /// Column classes of the table split at `free` inputs: the top
    /// `nvars − free` inputs form the bound set, and column `b` is the
    /// cofactor at bound assignment `b` (bit `j` of `b` = input
    /// `free + j`). Classes are numbered in order of first appearance
    /// over `b = 0, 1, …`. Returns `(class_of, reps)`: the class of every
    /// column and the first column of every class, or `None` as soon as
    /// more than `limit` classes appear.
    ///
    /// # Panics
    ///
    /// Panics if `free > nvars`.
    pub fn column_classes(&self, free: u8, limit: usize) -> Option<(Vec<usize>, Vec<usize>)> {
        assert!(free <= self.nvars, "split beyond the table");
        let ncols = 1usize << (self.nvars - free);
        let mut class_of = Vec::with_capacity(ncols);
        let mut reps: Vec<usize> = Vec::new();
        let mut classify = |same: &dyn Fn(usize, usize) -> bool| {
            for b in 0..ncols {
                let class = match reps.iter().position(|&r| same(r, b)) {
                    Some(class) => class,
                    None if reps.len() == limit => return false,
                    None => {
                        reps.push(b);
                        reps.len() - 1
                    }
                };
                class_of.push(class);
            }
            true
        };
        let complete = if free >= 6 {
            let cw = 1usize << (free - 6);
            let col = |b: usize| &self.bits[b * cw..(b + 1) * cw];
            classify(&|r, b| col(r) == col(b))
        } else {
            classify(&|r, b| self.short_column(free, r) == self.short_column(free, b))
        };
        complete.then_some((class_of, reps))
    }

    /// Concatenates columns of the table split at `free` inputs (see
    /// [`TruthTable::column_classes`]): the result has
    /// `free + log2(cols.len())` inputs, and its column `c` is column
    /// `cols[c]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `cols.len()` is not a power of two, a column is out of
    /// range, or the result would exceed 16 inputs.
    pub fn concat_columns(&self, free: u8, cols: &[usize]) -> Self {
        assert!(cols.len().is_power_of_two(), "column count must be 2^r");
        let ncols = 1usize << (self.nvars - free);
        assert!(cols.iter().all(|&c| c < ncols), "column out of range");
        let mut out = TruthTable::constant(free + cols.len().trailing_zeros() as u8, false);
        if free >= 6 {
            let cw = 1usize << (free - 6);
            for (c, &col) in cols.iter().enumerate() {
                out.bits[c * cw..(c + 1) * cw]
                    .copy_from_slice(&self.bits[col * cw..(col + 1) * cw]);
            }
        } else {
            let width = 1usize << free;
            for (c, &col) in cols.iter().enumerate() {
                let pos = c * width;
                out.bits[pos / 64] |= self.short_column(free, col) << (pos % 64);
            }
        }
        out
    }

    /// The function `self(fanins[0], …, fanins[m−1])`: `self` is an
    /// `m`-input gate and every fanin a table over the same `nvars`
    /// inputs, which the result is over too. Sum of minterms, word by
    /// word.
    ///
    /// # Panics
    ///
    /// Panics if `fanins.len() != self.nvars()` or a fanin is not over
    /// `nvars` inputs.
    pub fn compose(&self, nvars: u8, fanins: &[&TruthTable]) -> Self {
        assert_eq!(fanins.len(), self.nvars as usize, "gate arity mismatch");
        assert!(
            fanins.iter().all(|f| f.nvars == nvars),
            "fanin arity mismatch"
        );
        let ones: Vec<u32> = (0..1u32 << self.nvars).filter(|&i| self.eval(i)).collect();
        let mut out = TruthTable::constant(nvars, false);
        for (w, slot) in out.bits.iter_mut().enumerate() {
            let mut acc = 0u64;
            for &idx in &ones {
                let mut term = u64::MAX;
                for (i, f) in fanins.iter().enumerate() {
                    let x = f.bits[w];
                    term &= if (idx >> i) & 1 == 1 { x } else { !x };
                }
                acc |= term;
            }
            *slot = acc;
        }
        *out.bits.last_mut().expect("non-empty") &= tail_mask(nvars);
        out
    }

    /// Reexpresses the function over the input subset `keep` (which must
    /// contain the support): input `j` of the result is input `keep[j]` of
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `keep` omits a support input or lists one twice.
    pub fn project(&self, keep: &[u8]) -> Self {
        let support = self.support();
        for s in &support {
            assert!(keep.contains(s), "projection drops support input {s}");
        }
        {
            let mut k = keep.to_vec();
            k.sort_unstable();
            k.dedup();
            assert_eq!(k.len(), keep.len(), "duplicate input in projection");
        }
        TruthTable::from_fn(keep.len() as u8, |i| {
            let mut idx = 0u32;
            for (j, &orig) in keep.iter().enumerate() {
                idx |= ((i >> j) & 1) << orig;
            }
            self.eval(idx)
        })
    }

    /// Permutes/expands inputs: input `j` of `self` becomes input
    /// `map[j]` of the result, which has `new_nvars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != nvars`, any target is `>= new_nvars`, or two
    /// inputs map to the same target.
    pub fn remap(&self, new_nvars: u8, map: &[u8]) -> Self {
        assert_eq!(map.len(), self.nvars as usize, "remap table arity mismatch");
        assert!(
            map.iter().all(|&t| t < new_nvars),
            "remap target out of range"
        );
        {
            let mut m = map.to_vec();
            m.sort_unstable();
            m.dedup();
            assert_eq!(m.len(), map.len(), "remap targets collide");
        }
        TruthTable::from_fn(new_nvars, |i| {
            let mut idx = 0u32;
            for (j, &t) in map.iter().enumerate() {
                idx |= ((i >> t) & 1) << j;
            }
            self.eval(idx)
        })
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Column multiplicity of the bound set `bound` (distinct cofactor
    /// patterns over the remaining inputs): the bound set is moved to the
    /// top and its columns classified by [`TruthTable::column_classes`].
    ///
    /// # Panics
    ///
    /// Panics if `bound` has out-of-range or duplicate entries.
    pub fn column_multiplicity(&self, bound: &[u8]) -> usize {
        assert!(
            bound.iter().all(|&v| v < self.nvars),
            "bound input out of range"
        );
        let mut t = self.clone();
        t.move_to_top(bound);
        let free = self.nvars - bound.len() as u8;
        t.column_classes(free, usize::MAX)
            .map(|(_, reps)| reps.len())
            .expect("an unlimited classification always completes")
    }

    /// Common two-input helpers used by the generators.
    pub fn and2() -> Self {
        TruthTable::from_bits(2, &[0b1000])
    }

    /// Two-input OR.
    pub fn or2() -> Self {
        TruthTable::from_bits(2, &[0b1110])
    }

    /// Two-input XOR.
    pub fn xor2() -> Self {
        TruthTable::from_bits(2, &[0b0110])
    }

    /// Two-input NAND.
    pub fn nand2() -> Self {
        TruthTable::from_bits(2, &[0b0111])
    }

    /// One-input inverter.
    pub fn inv() -> Self {
        TruthTable::from_bits(1, &[0b01])
    }

    /// One-input buffer.
    pub fn buf() -> Self {
        TruthTable::from_bits(1, &[0b10])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let z = TruthTable::constant(3, false);
        let o = TruthTable::constant(3, true);
        assert_eq!(z.is_constant(), Some(false));
        assert_eq!(o.is_constant(), Some(true));
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 8);
        assert_ne!(z, o);
    }

    #[test]
    fn literals_and_gates() {
        let a = TruthTable::lit(2, 0);
        let b = TruthTable::lit(2, 1);
        assert_eq!(a.and(&b), TruthTable::and2());
        assert_eq!(a.or(&b), TruthTable::or2());
        assert_eq!(a.xor(&b), TruthTable::xor2());
        assert_eq!(a.and(&b).not(), TruthTable::nand2());
        assert_eq!(TruthTable::lit(1, 0).not(), TruthTable::inv());
        assert_eq!(TruthTable::lit(1, 0), TruthTable::buf());
    }

    #[test]
    fn eval_slice_matches_eval() {
        let f = TruthTable::from_fn(3, |i| i.count_ones() >= 2);
        for i in 0..8u32 {
            let slice = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            assert_eq!(f.eval_slice(&slice), f.eval(i));
        }
    }

    #[test]
    fn cofactor_and_support() {
        let f = {
            // f = x0 & x2 (x1 irrelevant)
            let a = TruthTable::lit(3, 0);
            let c = TruthTable::lit(3, 2);
            a.and(&c)
        };
        assert_eq!(f.support(), vec![0, 2]);
        assert_eq!(f.cofactor(0, true).support(), vec![2]);
        assert_eq!(f.cofactor(0, false).is_constant(), Some(false));
    }

    #[test]
    fn project_drops_dummies() {
        let a = TruthTable::lit(3, 0);
        let c = TruthTable::lit(3, 2);
        let f = a.and(&c);
        let p = f.project(&[0, 2]);
        assert_eq!(p.nvars(), 2);
        assert_eq!(p, TruthTable::and2());
    }

    #[test]
    #[should_panic(expected = "drops support")]
    fn project_refuses_to_drop_support() {
        let f = TruthTable::lit(2, 1);
        let _ = f.project(&[0]);
    }

    #[test]
    fn remap_moves_inputs() {
        let f = TruthTable::and2(); // x0 & x1
        let g = f.remap(3, &[2, 0]); // x2 & x0 over 3 vars
        assert_eq!(g.support(), vec![0, 2]);
        for i in 0..8u32 {
            let expect = ((i >> 2) & 1 == 1) && (i & 1 == 1);
            assert_eq!(g.eval(i), expect);
        }
    }

    #[test]
    fn multiword_tables() {
        // 7-input parity = 128 bits = 2 words.
        let f = TruthTable::from_fn(7, |i| i.count_ones() % 2 == 1);
        assert_eq!(f.bits().len(), 2);
        assert_eq!(f.count_ones(), 64);
        assert_eq!(f.support().len(), 7);
        let g = f.cofactor(6, false);
        assert_eq!(g.support().len(), 6);
    }

    #[test]
    fn column_multiplicity_examples() {
        // (x0&x1)|x2 : bound {0,1} has μ=2.
        let a = TruthTable::lit(3, 0);
        let b = TruthTable::lit(3, 1);
        let c = TruthTable::lit(3, 2);
        let f = a.and(&b).or(&c);
        assert_eq!(f.column_multiplicity(&[0, 1]), 2);
        // majority: bound {0,1} has μ=3.
        let maj = TruthTable::from_fn(3, |i| i.count_ones() >= 2);
        assert_eq!(maj.column_multiplicity(&[0, 1]), 3);
        // parity: every bound has μ=2.
        let par = TruthTable::from_fn(4, |i| i.count_ones() % 2 == 1);
        assert_eq!(par.column_multiplicity(&[0, 1, 2]), 2);
    }

    #[test]
    fn agrees_with_bdd_package() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let raw: u64 = rng.random();
            let tt = TruthTable::from_bits(5, &[raw]);
            let mut m = turbosyn_bdd::Manager::new();
            let f = m.from_truth_table(5, tt.bits()).expect("5 vars fits");
            assert_eq!(
                m.to_truth_table(f, 5).expect("5 vars fits")[0],
                tt.bits()[0]
            );
            // Column multiplicity agreement.
            let mu_tt = tt.column_multiplicity(&[0, 1]);
            let mu_bdd = turbosyn_bdd::decompose::column_multiplicity(&mut m, f, &[0, 1]);
            assert_eq!(mu_tt, mu_bdd);
            // Support agreement.
            let sup_tt: Vec<u32> = tt.support().iter().map(|&v| v as u32).collect();
            assert_eq!(sup_tt, m.support(f));
        }
    }

    fn random_table(rng: &mut turbosyn_graph::rng::StdRng, nvars: u8) -> TruthTable {
        let words: Vec<u64> = (0..words_for(nvars)).map(|_| rng.random()).collect();
        TruthTable::from_bits(nvars, &words)
    }

    /// Input counts covering every word-layout case: inside one word,
    /// exactly one word, and multi-word tables up to the limit.
    const SIZES: [u8; 9] = [0, 1, 3, 5, 6, 7, 9, 12, 16];

    #[test]
    fn lit_matches_per_bit_definition() {
        for n in 1..=MAX_VARS {
            for v in 0..n {
                let expect = TruthTable::from_fn(n, |i| (i >> v) & 1 == 1);
                assert_eq!(TruthTable::lit(n, v), expect, "lit({n}, {v})");
            }
        }
    }

    #[test]
    fn swap_and_support_match_per_bit_definitions() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(0x5a9);
        for &n in &SIZES {
            for _ in 0..4 {
                let mut t = random_table(&mut rng, n);
                // Make some inputs irrelevant so support is not trivial.
                for v in 0..n {
                    if rng.random_range(0u32..3) == 0 {
                        t = t.cofactor(v, false);
                    }
                }
                let per_bit: Vec<u8> = (0..n)
                    .filter(|&v| (0..1u32 << n).any(|i| t.eval(i) != t.eval(i ^ (1 << v))))
                    .collect();
                assert_eq!(t.support(), per_bit, "support of {t:?}");
                for a in 0..n {
                    for b in 0..n {
                        let mut s = t.clone();
                        s.swap_vars(a, b);
                        let expect = TruthTable::from_fn(n, |i| {
                            let (x, y) = ((i >> a) & 1, (i >> b) & 1);
                            t.eval(i & !(1 << a) & !(1 << b) | (x << b) | (y << a))
                        });
                        assert_eq!(s, expect, "swap({a}, {b}) over {n} inputs");
                    }
                }
                if n > 0 {
                    let mask = (1u32 << (n - 1)) - 1;
                    let lo = TruthTable::from_fn(n - 1, |i| t.eval(i & mask));
                    assert_eq!(t.drop_top(), lo);
                }
                if n < MAX_VARS {
                    let mask = (1u32 << n) - 1;
                    assert_eq!(
                        t.add_top(),
                        TruthTable::from_fn(n + 1, |i| t.eval(i & mask))
                    );
                }
            }
        }
    }

    #[test]
    fn columns_match_per_bit_definitions() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(0xc01);
        for &n in &SIZES[1..] {
            for _ in 0..6 {
                // Low-multiplicity functions: a random function of a few
                // inputs spread over the table, so classes repeat.
                let inner = random_table(&mut rng, n.min(3));
                let picks: Vec<u8> = (0..inner.nvars()).map(|_| rng.random_range(0..n)).collect();
                let t = TruthTable::from_fn(n, |i| {
                    let idx = picks
                        .iter()
                        .enumerate()
                        .fold(0, |acc, (j, &p)| acc | ((i >> p) & 1) << j);
                    inner.eval(idx) ^ (rng_bit(i, n))
                });
                let s = rng.random_range(1..n.min(12) + 1);
                let mut bound: Vec<u8> = (0..n).collect();
                for i in (1..bound.len()).rev() {
                    bound.swap(i, rng.random_range(0..i + 1));
                }
                bound.truncate(s as usize);
                let free = n - s;

                let mut moved = t.clone();
                let perm = moved.move_to_top(&bound);
                assert_eq!(&perm[free as usize..], &bound[..]);
                let expect = TruthTable::from_fn(n, |i| {
                    let idx = perm
                        .iter()
                        .enumerate()
                        .fold(0, |acc, (p, &o)| acc | ((i >> p) & 1) << o);
                    t.eval(idx)
                });
                assert_eq!(moved, expect, "move_to_top({bound:?})");

                // Per-bit classes by first appearance.
                let column = |b: u32| -> Vec<bool> {
                    (0..1u32 << free)
                        .map(|fr| moved.eval(fr | (b << free)))
                        .collect()
                };
                let mut reps: Vec<Vec<bool>> = Vec::new();
                let mut class_of = Vec::new();
                for b in 0..1u32 << s {
                    let col = column(b);
                    let class = reps.iter().position(|r| *r == col).unwrap_or_else(|| {
                        reps.push(col);
                        reps.len() - 1
                    });
                    class_of.push(class);
                }
                let (got_class, got_reps) =
                    moved.column_classes(free, usize::MAX).expect("unlimited");
                assert_eq!(got_class, class_of);
                assert_eq!(got_reps.len(), reps.len());
                for (c, &r) in got_reps.iter().enumerate() {
                    assert_eq!(class_of[r], c);
                    assert!(class_of[..r].iter().all(|&x| x != c), "first appearance");
                }
                assert_eq!(t.column_multiplicity(&bound), reps.len());
                // A limit below the class count gives up; at it, succeeds.
                assert!(moved.column_classes(free, reps.len()).is_some());
                if reps.len() > 1 {
                    assert!(moved.column_classes(free, reps.len() - 1).is_none());
                }

                // Concatenation picks whole columns.
                let r = rng.random_range(0..(n - free).min(MAX_VARS - free).min(3) + 1);
                let cols: Vec<usize> = (0..1usize << r)
                    .map(|_| rng.random_range(0..1usize << s))
                    .collect();
                let cat = moved.concat_columns(free, &cols);
                let expect = TruthTable::from_fn(free + r, |i| {
                    let (fr, c) = (i & ((1 << free) - 1), (i >> free) as usize);
                    moved.eval(fr | ((cols[c] as u32) << free))
                });
                assert_eq!(cat, expect, "concat of {cols:?}");
            }
        }
    }

    /// A sparse deterministic perturbation, so column classes are not all
    /// equal.
    fn rng_bit(i: u32, n: u8) -> bool {
        n > 4 && i.wrapping_mul(0x9E37_79B9) >> 29 == 0
    }

    #[test]
    fn compose_matches_per_bit_definition() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(0xc0e);
        for &n in &SIZES {
            for m in 0..4u8 {
                let gate = random_table(&mut rng, m);
                let fanins: Vec<TruthTable> = (0..m).map(|_| random_table(&mut rng, n)).collect();
                let refs: Vec<&TruthTable> = fanins.iter().collect();
                let expect = TruthTable::from_fn(n, |i| {
                    let idx = fanins
                        .iter()
                        .enumerate()
                        .fold(0, |acc, (j, f)| acc | u32::from(f.eval(i)) << j);
                    gate.eval(idx)
                });
                assert_eq!(gate.compose(n, &refs), expect);
            }
        }
    }

    #[test]
    fn zero_input_tables() {
        let t = TruthTable::constant(0, true);
        assert!(t.eval(0));
        assert_eq!(t.is_constant(), Some(true));
        assert!(t.support().is_empty());
    }
}
