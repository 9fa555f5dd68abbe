//! Sequential functional decomposition (the paper's Section 3.3).
//!
//! When no K-feasible cut of height `H = L(v)` exists on the expanded
//! circuit, TurboSYN takes a (possibly wide) min-cut of height `<= H − h`
//! for growing `h`, forms the **sequential cut function**
//! `f(u_1^{w_1}, …, u_m^{w_m})` (Figure 2 of the paper), and resynthesizes
//! it with functional decomposition so that the root LUT sees at most K
//! inputs while every original input still meets its timing budget:
//!
//! * input `u^w` enters the tree at depth `j` LUT levels ⇒ it contributes
//!   `l(u) − φ·w + j` to the root label, which must stay `<= H`;
//! * so inputs are sorted by increasing `l(u) − φ·w` (the paper's order)
//!   and only the *least critical* ones are buried in extracted
//!   sub-LUTs.
//!
//! Each extraction is an Ashenhurst step (column multiplicity `<= 2`, one
//! encoding wire), or a Roth–Karp step with two wires. The result is a
//! [`Realization`]: the LUT tree that mapping generation will instantiate.
//!
//! The paper decomposes with OBDDs, on cut functions of at most
//! `Cmax = 15` inputs. Here the cut function is a bit-parallel truth table
//! of at most 16 inputs: the bound set is swapped to the top variables,
//! so every cofactor column is a contiguous slice of the table, and
//! cofactor classes are found by comparing slices. A cut wider than 16
//! inputs has no table and no realization. The window search
//! (`decompose_template`) drives the function through the `CutFunction`
//! trait; the tests plug an OBDD implementation (`turbosyn-bdd`) into the
//! same trait as a reference and compare every decision with it.

use crate::cache::{
    CachedOutcome, DecompCache, LutTemplate, SignatureKey, TemplateInput, TemplateLut,
};
use crate::error::SynthesisError;
use crate::expand::{ExpNode, Expansion};
use turbosyn_netlist::tt::TruthTable;
use turbosyn_netlist::Circuit;

/// Largest bound set an extraction accepts: `2^12` cofactor columns are
/// compared at most, far beyond any LUT input count used in practice.
/// The window search tries windows of up to K members, so K >= 13 can
/// meet this limit.
pub const MAX_BOUND: usize = 12;

/// Where a LUT input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutInput {
    /// The original circuit node `orig`, delayed by `weight` registers.
    Sequential {
        /// Original circuit node index.
        orig: usize,
        /// Register count on the connection.
        weight: i64,
    },
    /// Output of another LUT of the same realization (wire, 0 registers).
    Internal(usize),
}

/// One LUT of a realization.
#[derive(Debug, Clone)]
pub struct LutSpec {
    /// Function over the ordered `inputs`.
    pub tt: TruthTable,
    /// Ordered inputs (truth-table input `i` = `inputs[i]`).
    pub inputs: Vec<LutInput>,
}

/// How a node's function is realized in the mapped network: one or more
/// LUTs, the last of which (`luts[root]`) computes the node.
#[derive(Debug, Clone)]
pub struct Realization {
    /// All LUTs; internal references point into this list.
    pub luts: Vec<LutSpec>,
    /// Index of the root LUT.
    pub root: usize,
}

impl Realization {
    /// A single-LUT realization straight from a K-feasible cut.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::TooManyVars`] when `cut` has more than 16 nodes
    /// (the truth-table limit, see [`Expansion::cone_tt`]).
    pub fn from_cut(
        exp: &Expansion,
        c: &Circuit,
        cut: &[usize],
    ) -> Result<Realization, SynthesisError> {
        let tt = exp.cone_tt(c, cut)?;
        Ok(Realization {
            luts: vec![LutSpec {
                tt,
                inputs: cut_srcs(exp, cut),
            }],
            root: 0,
        })
    }

    /// Number of LUTs.
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }
}

/// Attempts to resynthesize the cut function of `cut` (on `exp`) so that
/// the root label is at most `height`: returns the LUT tree on success.
///
/// `labels`/`phi` give each cut input its criticality
/// `λ_i = l(u_i) − φ·w_i`; the root LUT needs every (possibly extracted)
/// input signal to carry label `<= height − 1`.
///
/// `k` bounds every LUT's input count. Deterministic and exact: every
/// extraction is a cofactor-class split of the table, and the final tree
/// recomposes to the original cut function.
///
/// # Errors
///
/// Same contract as [`resynthesize_wires`].
pub fn resynthesize(
    exp: &Expansion,
    c: &Circuit,
    cut: &[usize],
    phi: i64,
    labels: &[i64],
    height: i64,
    k: usize,
) -> Result<Option<Realization>, SynthesisError> {
    resynthesize_wires(exp, c, cut, phi, labels, height, k, 1)
}

/// Like [`resynthesize`], but allowing up to `max_wires` encoding
/// functions per extraction (Roth–Karp). The paper uses single-output
/// decomposition (`max_wires = 1`) and cites multi-output decomposition
/// \[26\] as future work; `max_wires = 2` implements that extension: bound
/// sets with column multiplicity up to 4 become two encoder LUTs feeding
/// the root, trading LUT count for coverable cases.
///
/// # Errors
///
/// [`SynthesisError::InvalidInput`] unless `max_wires` is 1 or 2, or when
/// a bound-set window exceeds [`MAX_BOUND`] (K >= 13), and
/// [`SynthesisError::TooManyVars`] when `cut` has more than 16 inputs.
#[allow(clippy::too_many_arguments)]
pub fn resynthesize_wires(
    exp: &Expansion,
    c: &Circuit,
    cut: &[usize],
    phi: i64,
    labels: &[i64],
    height: i64,
    k: usize,
    max_wires: usize,
) -> Result<Option<Realization>, SynthesisError> {
    let scratch = DecompCache::default();
    resynthesize_cached(exp, c, cut, phi, labels, height, k, max_wires, &scratch)
}

/// Like [`resynthesize_wires`], but memoized in a [`DecompCache`] keyed
/// by the canonical cut-function signature (truth table in cut order +
/// criticality deltas + `k`/`max_wires`). The outcome is a pure function
/// of the key, so hit replays are exact; argument errors are not cached.
///
/// # Errors
///
/// Same contract as [`resynthesize_wires`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn resynthesize_cached(
    exp: &Expansion,
    c: &Circuit,
    cut: &[usize],
    phi: i64,
    labels: &[i64],
    height: i64,
    k: usize,
    max_wires: usize,
    cache: &DecompCache,
) -> Result<Option<Realization>, SynthesisError> {
    if !(1..=2).contains(&max_wires) {
        return Err(SynthesisError::InvalidInput(format!(
            "{max_wires} encoder wires; 1 or 2 are supported"
        )));
    }
    if cut.is_empty() {
        return Ok(None);
    }
    let tt = exp.cone_tt(c, cut)?;
    let key = SignatureKey {
        nvars: tt.nvars(),
        tt: tt.bits().to_vec(),
        deltas: cut_deltas(exp, cut, phi, labels, height),
        k: k as u8,
        max_wires: max_wires as u8,
    };
    let srcs = cut_srcs(exp, cut);
    if let Some(hit) = cache.get(&key) {
        return Ok(realize(&hit, &srcs));
    }
    let outcome = match decompose_template(&mut TtCut::new(tt), &key.deltas, k, max_wires)? {
        Some(template) => CachedOutcome::Realized(template),
        None => CachedOutcome::NoRealization,
    };
    let realization = realize(&outcome, &srcs);
    cache.insert(key, outcome);
    Ok(realization)
}

/// Per-cut-input criticality deltas `λ_i − height` (`λ_i = l(u_i) − φ·w_i`),
/// in cut order. The decomposition pipeline only ever compares λ against
/// `height − 1` / `height − 2` and takes maxima, so deltas carry all the
/// timing information — and make signatures probe-independent.
fn cut_deltas(exp: &Expansion, cut: &[usize], phi: i64, labels: &[i64], height: i64) -> Vec<i64> {
    cut.iter()
        .map(|&xi| {
            let ExpNode { orig, weight } = exp.nodes[xi];
            labels[orig] - phi * weight - height
        })
        .collect()
}

/// The sequential source of each cut input, in cut order.
fn cut_srcs(exp: &Expansion, cut: &[usize]) -> Vec<LutInput> {
    cut.iter()
        .map(|&xi| {
            let ExpNode { orig, weight } = exp.nodes[xi];
            LutInput::Sequential { orig, weight }
        })
        .collect()
}

/// The realization a decomposition verdict stands for on concrete cut
/// inputs `srcs`.
fn realize(outcome: &CachedOutcome, srcs: &[LutInput]) -> Option<Realization> {
    match outcome {
        CachedOutcome::Realized(template) => Some(instantiate(template, srcs)),
        CachedOutcome::NoRealization => None,
    }
}

/// Binds a circuit-free [`LutTemplate`] to the concrete cut inputs.
fn instantiate(template: &LutTemplate, srcs: &[LutInput]) -> Realization {
    let luts = template
        .luts
        .iter()
        .map(|lut| LutSpec {
            tt: TruthTable::from_bits(lut.nvars, &lut.bits),
            inputs: lut
                .inputs
                .iter()
                .map(|inp| match *inp {
                    TemplateInput::Cut(i) => srcs[i],
                    TemplateInput::Lut(j) => LutInput::Internal(j),
                })
                .collect(),
        })
        .collect();
    Realization {
        luts,
        root: template.root,
    }
}

/// Rejects a bound set that is empty, wider than [`MAX_BOUND`], or
/// names a variable twice.
fn validate_bound(bound: &[u32]) -> Result<(), SynthesisError> {
    let invalid = |why: &str| Err(SynthesisError::InvalidInput(format!("bound set {why}")));
    if bound.is_empty() {
        return invalid("must be non-empty");
    }
    if bound.len() > MAX_BOUND {
        return invalid(&format!(
            "of {} inputs exceeds MAX_BOUND = {MAX_BOUND}",
            bound.len()
        ));
    }
    let mut sorted = bound.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != bound.len() {
        return invalid("contains duplicates");
    }
    Ok(())
}

/// A cut function under decomposition, seen through the three operations
/// the window search needs. Variables are numbered as in
/// [`decompose_template`]: `0..nvars` are the cut inputs, and each
/// extraction names its encoder outputs with fresh numbers above every
/// variable used so far.
trait CutFunction {
    /// The variables the current function depends on.
    fn support(&self) -> Vec<u32>;

    /// Tries the disjoint decomposition `f = image(encoders(bound), free)`
    /// with at most `wires` encoders; `bound` is a valid bound set (see
    /// `validate_bound`) and may name variables outside the support. On
    /// success the current function becomes the image, and the encoders
    /// come back as `(fresh variable, table whose input i is bound[i])`,
    /// encoder `j` being bit `j` of the class code (classes numbered by
    /// first appearance over the bound assignments, unused codes standing
    /// for class 0). `None` when the column multiplicity exceeds
    /// `2^wires`.
    fn try_extract(&mut self, bound: &[u32], wires: usize) -> Option<Vec<(u32, TruthTable)>>;

    /// The current function as a table whose input `i` is `vars[i]`
    /// (`vars` must cover the support).
    fn dump(&self, vars: &[u32]) -> TruthTable;
}

/// The truth-table backend: `tt` over positions, position `p` holding
/// variable `vars[p]`. `vars` is always exactly the support.
#[derive(Clone)]
struct TtCut {
    tt: TruthTable,
    vars: Vec<u32>,
    next_var: u32,
}

impl TtCut {
    /// `tt` with input `i` as variable `i`.
    fn new(tt: TruthTable) -> Self {
        let nvars = u32::from(tt.nvars());
        let mut cut = TtCut {
            tt,
            vars: (0..nvars).collect(),
            next_var: nvars,
        };
        cut.drop_dead();
        cut
    }

    /// Removes every position outside the support.
    fn drop_dead(&mut self) {
        let mut p = 0;
        while p < self.vars.len() {
            if self.tt.depends_on(p as u8) {
                p += 1;
            } else {
                self.tt.swap_vars(p as u8, (self.vars.len() - 1) as u8);
                self.tt = self.tt.drop_top();
                self.vars.swap_remove(p);
            }
        }
    }

    /// Positions of `vars`, adding an irrelevant top input for each one
    /// outside the support.
    fn positions(&mut self, vars: &[u32]) -> Vec<u8> {
        vars.iter()
            .map(|v| match self.vars.iter().position(|x| x == v) {
                Some(p) => p as u8,
                None => {
                    self.tt = self.tt.add_top();
                    self.vars.push(*v);
                    (self.vars.len() - 1) as u8
                }
            })
            .collect()
    }
}

impl CutFunction for TtCut {
    fn support(&self) -> Vec<u32> {
        self.vars.clone()
    }

    fn try_extract(&mut self, bound: &[u32], wires: usize) -> Option<Vec<(u32, TruthTable)>> {
        // Bound set on top: column b is then the cofactor at the bound
        // assignment whose bit j is the value of bound[j].
        let mut moved = self.clone();
        let pos = moved.positions(bound);
        let perm = moved.tt.move_to_top(&pos);
        let free = moved.tt.nvars() - bound.len() as u8;
        let (class_of, reps) = moved.tt.column_classes(free, 1 << wires)?;
        let mu = reps.len();
        let needed = (mu.next_power_of_two().trailing_zeros() as usize).max(1);
        let encoders = (0..needed)
            .map(|j| {
                let enc = TruthTable::from_fn(bound.len() as u8, |b| {
                    (class_of[b as usize] >> j) & 1 == 1
                });
                (self.next_var + j as u32, enc)
            })
            .collect();
        let cols: Vec<usize> = (0..1usize << needed)
            .map(|code| reps[if code < mu { code } else { 0 }])
            .collect();
        self.tt = moved.tt.concat_columns(free, &cols);
        self.vars = perm[..usize::from(free)]
            .iter()
            .map(|&p| moved.vars[usize::from(p)])
            .chain(self.next_var..self.next_var + needed as u32)
            .collect();
        self.next_var += needed as u32;
        self.drop_dead();
        Some(encoders)
    }

    fn dump(&self, vars: &[u32]) -> TruthTable {
        let mut out = self.clone();
        let pos = out.positions(vars);
        assert_eq!(out.vars.len(), vars.len(), "dump omits a support variable");
        out.tt.move_to_top(&pos);
        out.tt
    }
}

/// The decomposition pipeline proper, in circuit-free form: `cut` starts
/// as a function of variables `0..deltas.len()` (variable `i` = cut input
/// `i`), and `deltas[i]` is input `i`'s criticality relative to the
/// target height (burial requires `delta <= −2`, feeding the root
/// requires `delta <= −1`). Deterministic in `(f, deltas, k, max_wires)`
/// alone: the stable criticality sort is keyed on deltas over the initial
/// cut order, and every extraction verdict is canonical in the function,
/// whichever [`CutFunction`] implementation computes it.
fn decompose_template(
    cut: &mut impl CutFunction,
    deltas: &[i64],
    k: usize,
    max_wires: usize,
) -> Result<Option<LutTemplate>, SynthesisError> {
    // Current root inputs: (variable, criticality delta, source).
    struct Sig {
        var: u32,
        delta: i64,
        src: TemplateInput,
    }
    let mut sigs: Vec<Sig> = deltas
        .iter()
        .enumerate()
        .map(|(i, &delta)| Sig {
            var: i as u32,
            delta,
            src: TemplateInput::Cut(i),
        })
        .collect();

    // Drop inputs outside the support immediately.
    let support = cut.support();
    sigs.retain(|s| support.contains(&s.var));
    if sigs.iter().any(|s| s.delta > -1) {
        return Ok(None); // a critical input cannot even feed the root directly
    }

    let mut luts: Vec<TemplateLut> = Vec::new();
    loop {
        let live = cut.support();
        sigs.retain(|s| live.contains(&s.var));
        if sigs.len() <= k {
            break; // root LUT fits
        }
        // Candidates for burial: λ <= height − 2 (they will sit 2 levels
        // deep). Sorted by increasing λ — the paper's ordering.
        sigs.sort_by_key(|s| s.delta);
        let buriable = sigs.iter().filter(|s| s.delta <= -2).count();
        if buriable < 2 {
            return Ok(None);
        }
        // Try bound sets: windows of the least-critical buriable inputs,
        // largest first (reduces support fastest). Single-wire Ashenhurst
        // extractions are preferred; with `max_wires = 2` a second pass
        // admits Roth–Karp bound sets of multiplicity up to 4 (they must
        // shrink the support, so the window needs at least `wires + 1`
        // members).
        let mut extracted = false;
        'outer: for wires in 1..=max_wires {
            for size in ((wires + 1)..=k.min(buriable)).rev() {
                for start in 0..=(buriable - size) {
                    let window = start..start + size;
                    let bound: Vec<u32> = sigs[window.clone()].iter().map(|s| s.var).collect();
                    // An oversized bound set ends the search; `None`:
                    // multiplicity too high for `wires`.
                    validate_bound(&bound)?;
                    let Some(encoders) = cut.try_extract(&bound, wires) else {
                        continue;
                    };
                    // New signals sit one LUT level above their worst member.
                    let delta = sigs[window.clone()]
                        .iter()
                        .map(|s| s.delta)
                        .max()
                        .expect("non-empty bound set")
                        + 1;
                    let enc_inputs: Vec<TemplateInput> =
                        sigs[window.clone()].iter().map(|s| s.src).collect();
                    let mut new_sigs = Vec::new();
                    for (var, enc_tt) in encoders {
                        let lut_idx = luts.len();
                        luts.push(TemplateLut {
                            nvars: enc_tt.nvars(),
                            bits: enc_tt.bits().to_vec(),
                            inputs: enc_inputs.clone(),
                        });
                        new_sigs.push(Sig {
                            var,
                            delta,
                            src: TemplateInput::Lut(lut_idx),
                        });
                    }
                    // Replace the buried inputs by the encoder outputs.
                    sigs.drain(window);
                    sigs.extend(new_sigs);
                    extracted = true;
                    break 'outer;
                }
            }
        }
        if !extracted {
            return Ok(None);
        }
    }

    // Root LUT over the remaining signals.
    if sigs.iter().any(|s| s.delta > -1) {
        return Ok(None);
    }
    let root_vars: Vec<u32> = sigs.iter().map(|s| s.var).collect();
    let root_tt = cut.dump(&root_vars);
    let root_inputs: Vec<TemplateInput> = sigs.iter().map(|s| s.src).collect();
    let root = luts.len();
    luts.push(TemplateLut {
        nvars: root_tt.nvars(),
        bits: root_tt.bits().to_vec(),
        inputs: root_inputs,
    });
    debug_assert!(luts.iter().all(|l| l.inputs.len() <= k));
    Ok(Some(LutTemplate { luts, root }))
}

/// Evaluates a realization on concrete input values (keyed by
/// `(orig, weight)`): used by tests and verification to confirm the LUT
/// tree computes the original cut function.
pub fn eval_realization(r: &Realization, value_of: &dyn Fn(usize, i64) -> bool) -> bool {
    let mut memo: Vec<Option<bool>> = vec![None; r.luts.len()];
    fn rec(
        r: &Realization,
        idx: usize,
        value_of: &dyn Fn(usize, i64) -> bool,
        memo: &mut Vec<Option<bool>>,
    ) -> bool {
        if let Some(v) = memo[idx] {
            return v;
        }
        let lut = &r.luts[idx];
        let mut bits = 0u32;
        for (i, inp) in lut.inputs.iter().enumerate() {
            let b = match *inp {
                LutInput::Sequential { orig, weight } => value_of(orig, weight),
                LutInput::Internal(j) => rec(r, j, value_of, memo),
            };
            bits |= u32::from(b) << i;
        }
        let v = lut.tt.eval(bits);
        memo[idx] = Some(v);
        v
    }
    rec(r, r.root, value_of, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::ExpandLimits;
    use crate::{Engine, MapOptions};
    use turbosyn_bdd::decompose::{decompose, recompose};
    use turbosyn_bdd::{Bdd, Manager};
    use turbosyn_graph::rng::StdRng;
    use turbosyn_netlist::circuit::Fanin;
    use turbosyn_netlist::gen;
    use turbosyn_netlist::NodeKind;

    fn unit_labels(c: &Circuit) -> Vec<i64> {
        c.node_ids()
            .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
            .collect()
    }

    /// The figure-1 circuit at its converged φ=1 labels (gates 2): the
    /// LUT covering g1+g0 needs 7 inputs, but the AND3 side product of g0
    /// decomposes out, leaving a 5-input root.
    #[test]
    fn figure1_cut_function_resynthesizes() {
        let c = gen::figure1();
        // Converged labels at phi=1: every loop gate carries label 2.
        let labels: Vec<i64> = unit_labels(&c).iter().map(|&l| l * 2).collect();
        let root = c.find("g1").expect("exists").index();
        // Height 2 at phi 1: must-inside = nodes with l − w >= 2: both g1
        // and g0 (w=0 on that edge).
        let exp =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("wide cut exists");
        assert!(cut.len() > 5, "cut should exceed K=5, got {}", cut.len());
        let real = resynthesize(&exp, &c, &cut, 1, &labels, 2, 5)
            .expect("no budget installed")
            .expect("decomposes");
        assert!(real.lut_count() >= 2);
        for lut in &real.luts {
            assert!(lut.inputs.len() <= 5);
        }
        // The realization computes the cone function.
        let tt = exp.cone_tt(&c, &cut).expect("cut fits in a truth table");
        for i in 0..(1u32 << cut.len()) {
            let value_of = |orig: usize, weight: i64| -> bool {
                let pos = cut
                    .iter()
                    .position(|&xi| exp.nodes[xi].orig == orig && exp.nodes[xi].weight == weight)
                    .expect("input is a cut node");
                (i >> pos) & 1 == 1
            };
            assert_eq!(eval_realization(&real, &value_of), tt.eval(i), "input {i}");
        }
    }

    /// Inputs too critical to bury make resynthesis fail: at height 1 the
    /// PIs (λ = 0) would need λ <= −1 to pass through an extra LUT level.
    #[test]
    fn critical_inputs_block_burial() {
        let c = gen::figure1();
        let labels = unit_labels(&c);
        let root = c.find("g1").expect("exists").index();
        let exp =
            Expansion::build(&c, root, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("cut exists");
        assert!(cut.len() > 5, "cut should exceed K=5");
        assert!(resynthesize(&exp, &c, &cut, 1, &labels, 1, 5)
            .expect("no budget installed")
            .is_none());
    }

    /// A wide AND is always decomposable: chain of ANDs.
    #[test]
    fn wide_and_decomposes() {
        let mut c = Circuit::new("wide");
        let pis: Vec<_> = (0..8).map(|i| c.add_input(format!("i{i}"))).collect();
        // Balanced tree of ANDs: depth 3.
        let mut layer: Vec<_> = pis.clone();
        let mut n = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                n += 1;
                let g = c.add_gate(
                    format!("g{n}"),
                    TruthTable::and2(),
                    vec![Fanin::wire(pair[0]), Fanin::wire(pair[1])],
                );
                next.push(g);
            }
            layer = next;
        }
        c.add_output("o", Fanin::wire(layer[0]));
        // Pretend labels: gates 2, PIs 0. Covering the whole tree at
        // height 2 forces the 8-PI cut; K = 4 requires two extractions.
        let labels: Vec<i64> = unit_labels(&c).iter().map(|&l| l * 2).collect();
        let root = layer[0].index();
        let exp =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("cut exists");
        assert_eq!(cut.len(), 8, "cut is the 8 PIs");
        let real = resynthesize(&exp, &c, &cut, 1, &labels, 2, 4)
            .expect("no budget installed")
            .expect("AND decomposes");
        assert!(real.luts.iter().all(|l| l.inputs.len() <= 4));
        assert!(real.lut_count() >= 3);
    }

    /// A cut wider than the 16-input truth-table limit is a typed error
    /// from the public `Realization::from_cut`, not a panic.
    #[test]
    fn from_cut_rejects_a_seventeen_input_cut() {
        let mut c = Circuit::new("wide17");
        let mut layer: Vec<_> = (0..17).map(|i| c.add_input(format!("i{i}"))).collect();
        let mut n = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if let [a, b] = *pair {
                    n += 1;
                    next.push(c.add_gate(
                        format!("g{n}"),
                        TruthTable::and2(),
                        vec![Fanin::wire(a), Fanin::wire(b)],
                    ));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        c.add_output("o", Fanin::wire(layer[0]));
        // Gates at label 2 are all inside a height-2 cut: the 17 PIs.
        let labels: Vec<i64> = unit_labels(&c).iter().map(|&l| l * 2).collect();
        let exp = Expansion::build(&c, layer[0].index(), 1, &labels, 2, ExpandLimits::default())
            .expect("expandable");
        let cut = exp.min_cut(20).expect("cut exists");
        assert_eq!(cut.len(), 17, "cut is the 17 PIs");
        assert_eq!(
            Realization::from_cut(&exp, &c, &cut).unwrap_err(),
            SynthesisError::TooManyVars { nvars: 17, max: 16 }
        );
        // Resynthesis of the same cut has no table to decompose either.
        assert_eq!(
            resynthesize(&exp, &c, &cut, 1, &labels, 2, 5).unwrap_err(),
            SynthesisError::TooManyVars { nvars: 17, max: 16 }
        );
    }

    /// Encoder wire counts other than 1 and 2 are a typed error, not a
    /// panic, on both the plain and the cached entry point.
    #[test]
    fn unsupported_wire_count_is_an_error() {
        let c = gen::figure1();
        let labels: Vec<i64> = unit_labels(&c).iter().map(|&l| l * 2).collect();
        let root = c.find("g1").expect("exists").index();
        let exp =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("wide cut exists");
        for wires in [0, 3] {
            let r = resynthesize_wires(&exp, &c, &cut, 1, &labels, 2, 5, wires);
            assert!(matches!(r, Err(SynthesisError::InvalidInput(_))), "{r:?}");
            let cache = DecompCache::default();
            let r = resynthesize_cached(&exp, &c, &cut, 1, &labels, 2, 5, wires, &cache);
            assert!(matches!(r, Err(SynthesisError::InvalidInput(_))), "{r:?}");
        }
    }

    /// The reference implementation: OBDD decomposition, as in the paper,
    /// on a manager that owns the function.
    struct BddCut {
        mgr: Manager,
        f: Bdd,
        next_var: u32,
    }

    impl CutFunction for BddCut {
        fn support(&self) -> Vec<u32> {
            self.mgr.support(self.f)
        }

        fn try_extract(&mut self, bound: &[u32], wires: usize) -> Option<Vec<(u32, TruthTable)>> {
            let dec = decompose(&mut self.mgr, self.f, bound, wires, self.next_var)
                .expect("the window search passes valid bound sets")?;
            debug_assert_eq!(recompose(&mut self.mgr, &dec), self.f);
            let encoders = dec
                .encoder_vars
                .iter()
                .zip(&dec.encoders)
                .map(|(&var, &enc)| (var, bdd_to_tt(&self.mgr, enc, bound)))
                .collect();
            for &var in &dec.encoder_vars {
                self.next_var = self.next_var.max(var + 1);
            }
            self.f = dec.image;
            Some(encoders)
        }

        fn dump(&self, vars: &[u32]) -> TruthTable {
            bdd_to_tt(&self.mgr, self.f, vars)
        }
    }

    /// Dumps a BDD whose support is within `vars` as a truth table whose
    /// input `i` is `vars[i]`.
    fn bdd_to_tt(mgr: &Manager, f: Bdd, vars: &[u32]) -> TruthTable {
        let max_var = vars.iter().copied().max().unwrap_or(0) as usize;
        TruthTable::from_fn(vars.len() as u8, |i| {
            let mut assign = vec![false; max_var + 1];
            for (j, &v) in vars.iter().enumerate() {
                assign[v as usize] = (i >> j) & 1 == 1;
            }
            mgr.eval(f, &assign)
        })
    }

    /// `tt` as a BDD over variables `0..tt.nvars()`.
    fn bdd_cut(tt: &TruthTable) -> BddCut {
        let mut mgr = Manager::new();
        let f = mgr
            .from_truth_table(u32::from(tt.nvars()), tt.bits())
            .expect("at most 16 inputs");
        BddCut {
            mgr,
            f,
            next_var: u32::from(tt.nvars()),
        }
    }

    /// A random cut-function-shaped table: a random tree of 2- and
    /// 3-input gates that reduces the `n` inputs to one signal, with some
    /// fanins reused (reconvergence), so decompositions exist but are not
    /// guaranteed. With `dense`, a uniformly random table instead.
    fn random_function(rng: &mut StdRng, n: u8, dense: bool) -> TruthTable {
        if dense {
            let words: Vec<u64> = (0..(1usize << n).div_ceil(64))
                .map(|_| rng.random())
                .collect();
            return TruthTable::from_bits(n, &words);
        }
        let mut pool: Vec<TruthTable> = (0..n).map(|v| TruthTable::lit(n, v)).collect();
        while pool.len() > 1 {
            let arity = rng.random_range(2usize..4).min(pool.len());
            let gate = loop {
                let g = TruthTable::from_bits(arity as u8, &[rng.random()]);
                if g.support().len() == arity {
                    break g;
                }
            };
            let mut fanins = Vec::new();
            for _ in 0..arity {
                let i = rng.random_range(0..pool.len());
                if rng.random_range(0u32..5) == 0 {
                    fanins.push(pool[i].clone());
                } else {
                    fanins.push(pool.swap_remove(i));
                }
            }
            let refs: Vec<&TruthTable> = fanins.iter().collect();
            pool.push(gate.compose(n, &refs));
        }
        pool.pop().expect("non-empty")
    }

    /// Kernel differential: on random functions and bound sets (some
    /// outside the support, so μ = 1 occurs), one extraction and the
    /// function it leaves are identical on truth tables and BDDs.
    #[test]
    fn truth_table_extraction_matches_bdd() {
        let mut rng = StdRng::seed_from_u64(0xdec0);
        let (mut extracted, mut trivial) = (0, 0);
        for case in 0..300 {
            let n = rng.random_range(6u8..12);
            let mut f = random_function(&mut rng, n, case % 5 == 0);
            // Drop a few inputs from the support.
            for v in 0..n {
                if rng.random_range(0u32..6) == 0 {
                    f = f.cofactor(v, rng.random());
                }
            }
            let mut tt = TtCut::new(f.clone());
            let mut bdd = bdd_cut(&f);
            for _ in 0..2 {
                let mut sup = bdd.support();
                assert_eq!(sorted(tt.support()), sup);
                let all: Vec<u32> = (0..bdd.next_var).collect();
                let size = rng.random_range(1..all.len().min(MAX_BOUND + 1) + 1);
                let mut pool = all.clone();
                let bound: Vec<u32> = (0..size)
                    .map(|_| pool.swap_remove(rng.random_range(0..pool.len())))
                    .collect();
                if bound.len() + sup.len() > 16 {
                    break; // the dummy inputs would not fit a table
                }
                let wires = rng.random_range(1usize..3);
                let got = tt.try_extract(&bound, wires);
                let want = bdd.try_extract(&bound, wires);
                assert_eq!(got, want, "case {case}: bound {bound:?}, {wires} wires");
                let Some(encoders) = want else {
                    break;
                };
                extracted += 1;
                if encoders.iter().all(|(_, e)| e.is_constant() == Some(false)) {
                    trivial += 1; // μ = 1: one constant-0 encoder
                    assert_eq!(encoders.len(), 1);
                }
                sup = bdd.support();
                assert_eq!(sorted(tt.support()), sup);
                assert_eq!(tt.dump(&sup), bdd.dump(&sup), "case {case}: image");
                let mut rev = sup.clone();
                rev.reverse();
                assert_eq!(tt.dump(&rev), bdd.dump(&rev), "case {case}: reversed image");
            }
        }
        assert!(extracted > 100, "only {extracted} extractions");
        assert!(trivial > 0, "no μ = 1 extraction");
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    /// Template differential: the window search gives byte-identical
    /// templates — and identical errors — on both implementations, over random
    /// cut functions of 6–16 inputs, deltas in −4..=0, K ∈ {4, 5, 6, 13}
    /// and 1 or 2 wires, plus constants and the K = 13 oversized window.
    #[test]
    fn truth_table_templates_match_bdd() {
        let mut rng = StdRng::seed_from_u64(0x7e3f);
        let mut outcomes = [0usize; 4]; // realized (1 LUT, more), none, error
        let check = |f: &TruthTable, deltas: &[i64], k: usize, wires: usize| {
            let got = decompose_template(&mut TtCut::new(f.clone()), deltas, k, wires);
            let want = decompose_template(&mut bdd_cut(f), deltas, k, wires);
            assert_eq!(got, want, "{f:?} deltas {deltas:?} k {k} wires {wires}");
            want
        };
        for case in 0..400 {
            let n = rng.random_range(6u8..17);
            let f = random_function(&mut rng, n, case % 7 == 0 && n <= 10);
            // Mostly buriable inputs; now and then a critical one.
            let deltas: Vec<i64> = (0..n)
                .map(|_| {
                    if rng.random_range(0u32..12) == 0 {
                        rng.random_range(-1i64..1)
                    } else {
                        rng.random_range(-4i64..-1)
                    }
                })
                .collect();
            let k = [4, 5, 6, 13][rng.random_range(0usize..4)];
            let wires = rng.random_range(1usize..3);
            let slot = match check(&f, &deltas, k, wires) {
                Ok(Some(t)) if t.luts.len() == 1 => 0,
                Ok(Some(_)) => 1,
                Ok(None) => 2,
                Err(_) => 3,
            };
            outcomes[slot] += 1;
        }
        assert!(
            outcomes.iter().all(|&o| o > 0),
            "every outcome occurs: {outcomes:?}"
        );
        // Constants, with and without inputs.
        for n in [0u8, 6, 16] {
            for value in [false, true] {
                let f = TruthTable::constant(n, value);
                let t = check(&f, &vec![-3; usize::from(n)], 4, 1).expect("no error");
                assert_eq!(t.expect("constant fits").luts.len(), 1);
            }
        }
        // K = 13 with 16 buriable inputs: the first window has 13 > MAX_BOUND
        // members, which is an error on both implementations.
        let parity = TruthTable::from_fn(16, |i| i.count_ones() % 2 == 1);
        assert!(matches!(
            check(&parity, &[-2; 16], 13, 1),
            Err(SynthesisError::InvalidInput(_))
        ));
    }

    /// Whole-suite oracle: every decomposition verdict TurboSYN reaches on
    /// the 16 suite rows, and on kirkman, bbara and cse with two encoder
    /// wires, replays identically through the BDD implementation. Run it
    /// in a release build: `cargo test --release -p turbosyn --lib --
    /// --ignored suite_decompositions_match_the_bdd_oracle --nocapture`.
    #[test]
    #[ignore = "release-only: maps the whole suite with TurboSYN"]
    fn suite_decompositions_match_the_bdd_oracle() {
        let engine = Engine::new();
        let suite = gen::suite();
        for b in &suite {
            engine
                .turbosyn(&b.circuit, &MapOptions::default())
                .expect("maps");
        }
        let two_wires = MapOptions {
            max_wires: 2,
            ..MapOptions::default()
        };
        for b in suite
            .iter()
            .filter(|b| ["kirkman", "bbara", "cse"].contains(&b.name))
        {
            engine.turbosyn(&b.circuit, &two_wires).expect("maps");
        }
        let entries = engine.caches.decomp.entries();
        assert!(
            entries.len() < DecompCache::DEFAULT_CAPACITY,
            "the cache filled up, so some attempts were never recorded"
        );
        let (mut realized, mut unrealized) = (0, 0);
        for (key, outcome) in &entries {
            let f = TruthTable::from_bits(key.nvars, &key.tt);
            let k = usize::from(key.k);
            let wires = usize::from(key.max_wires);
            let want = match decompose_template(&mut bdd_cut(&f), &key.deltas, k, wires) {
                Ok(Some(template)) => CachedOutcome::Realized(template),
                Ok(None) => CachedOutcome::NoRealization,
                Err(e) => panic!("{key:?}: {e}"),
            };
            assert_eq!(outcome, &want, "{key:?}");
            match want {
                CachedOutcome::Realized(_) => realized += 1,
                CachedOutcome::NoRealization => unrealized += 1,
            }
        }
        assert!(realized > 0 && unrealized > 0, "both verdicts occur");
        println!(
            "checked {} signatures: {realized} realized, {unrealized} without realization",
            entries.len()
        );
    }
}
