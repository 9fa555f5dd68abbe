//! Expanded circuits `E_v` and cuts on them.
//!
//! The expanded circuit of a node `v` (Pan & Liu \[19\]) represents every
//! LUT that can be rooted at `v` under retiming and node replication: its
//! nodes are pairs `u^w` — original node `u` reached through `w` registers
//! on the way to the root — and every path from `u^w` to the root `v^0`
//! crosses exactly `w` registers. A cut `(X, X̄)` on `E_v` therefore
//! corresponds to a *sequential* LUT: the LUT computes `v` from inputs
//! `u_i` delayed by `w_i` cycles.
//!
//! `E_v` is infinite (loops unroll with growing `w`), but for a height
//! test only the finite *must-be-inside* region `l(u) − φ·w >= H` matters,
//! plus however much of the allowed region one wants to search for
//! narrower cuts through reconvergence. [`Expansion::build`] materializes
//! the must-inside region plus `slack` extra levels (a tunable of
//! [`MapOptions`](crate::MapOptions)); found cuts are always valid, and
//! tests cross-check label optimality against brute force on small
//! circuits.

use crate::error::SynthesisError;
use turbosyn_graph::maxflow::{unit_vertex_cut, CutScratch, FaninLists, Role, VertexCut};
use turbosyn_netlist::tt::{TruthTable, MAX_VARS};
use turbosyn_netlist::{Circuit, NodeId, NodeKind};

/// One node of an expanded circuit: original node `orig` seen through
/// `weight` registers from the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpNode {
    /// Original circuit node index.
    pub orig: usize,
    /// Registers between this replica and the root.
    pub weight: i64,
}

/// A materialized, truncated expanded circuit rooted at some node.
///
/// The fanin lists are stored flat: node `xi`'s fanins are one range of
/// a single list, read through [`Expansion::fanins`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expansion {
    /// Expanded nodes; index 0 is the root `v^0`.
    pub nodes: Vec<ExpNode>,
    /// Whether the node's fanins were materialized.
    pub expanded: Vec<bool>,
    /// Whether the node must be inside every cut of the requested height.
    pub must_inside: Vec<bool>,
    /// Per node: the range of its fanins in `fanin_list`.
    fanin_span: Vec<(usize, usize)>,
    /// Every expanded node's fanins, one node after another in
    /// expansion order.
    fanin_list: Vec<usize>,
}

/// Why an expansion (and hence any cut of the requested height) is
/// impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandFail {
    /// A primary input fell into the must-be-inside region: no cut of this
    /// height exists in any mapping.
    PiMustBeInside,
}

/// Truncation limits for expansion (see [`MapOptions`](crate::MapOptions)).
#[derive(Debug, Clone, Copy)]
pub struct ExpandLimits {
    /// Extra levels of *allowed* nodes materialized beyond the must-inside
    /// region, to catch reconvergent sharing below the first feasible
    /// frontier.
    pub slack: usize,
    /// Hard cap on materialized nodes (soundness is unaffected; cuts just
    /// get no deeper).
    pub max_nodes: usize,
}

impl Default for ExpandLimits {
    fn default() -> Self {
        ExpandLimits {
            slack: 3,
            max_nodes: 4096,
        }
    }
}

/// End of a `(orig, weight)` chain in [`ExpScratch`].
const NONE: u32 = u32::MAX;

/// Reusable buffers of [`ExpScratch::build`], and the expansion it built
/// last.
///
/// Every label candidate builds one or more expansions, so a long-lived
/// scratch makes a build allocation-free after warm-up. The
/// `(orig, weight) → node` index is a chain per original node: `head`
/// holds the newest node of `orig` when `stamp[orig]` is the current
/// epoch, and `next` links each node to the previous one with the same
/// `orig`; a lookup walks the chain comparing weights. Starting a build
/// only bumps the epoch.
#[derive(Debug, Default)]
pub struct ExpScratch {
    /// Per original node: the epoch of the build that last wrote `head`.
    stamp: Vec<u32>,
    /// Per original node: its newest expansion node (valid when stamped).
    head: Vec<u32>,
    epoch: u32,
    /// Per expansion node: the previous node with the same `orig`, or
    /// [`NONE`].
    next: Vec<u32>,
    /// Breadth-first queue of `(node, slack budget)`, read from a head
    /// index.
    queue: Vec<(usize, usize)>,
    /// The expansion the last build produced.
    expansion: Expansion,
}

impl ExpScratch {
    /// A scratch with empty buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        ExpScratch::default()
    }

    /// The expansion the last [`ExpScratch::build`] produced (partial if
    /// that build failed).
    #[must_use]
    pub fn expansion(&self) -> &Expansion {
        &self.expansion
    }

    /// [`Expansion::build`] into this scratch's reused buffers: the same
    /// nodes, in the same order, with the same fanin lists.
    ///
    /// # Errors
    ///
    /// [`ExpandFail::PiMustBeInside`], as [`Expansion::build`].
    pub fn build(
        &mut self,
        c: &Circuit,
        root: usize,
        phi: i64,
        labels: &[i64],
        height: i64,
        limits: ExpandLimits,
    ) -> Result<&Expansion, ExpandFail> {
        if self.epoch == u32::MAX {
            // Epoch wrap: physically clear the stale stamps once.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let n = c.node_count();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.head.resize(n, NONE);
        }
        let exp = &mut self.expansion;
        exp.nodes.clear();
        exp.expanded.clear();
        exp.must_inside.clear();
        exp.fanin_span.clear();
        exp.fanin_list.clear();
        self.next.clear();
        self.queue.clear();

        exp.nodes.push(ExpNode {
            orig: root,
            weight: 0,
        });
        exp.expanded.push(false);
        exp.must_inside.push(true);
        exp.fanin_span.push((0, 0));
        self.next.push(NONE);
        self.stamp[root] = self.epoch;
        self.head[root] = 0;

        let is_gate =
            |orig: usize| matches!(c.node(NodeId::from_index(orig)).kind, NodeKind::Gate(_));
        let must = |orig: usize, w: i64| labels[orig] - phi * w >= height;

        // BFS queue: (exp index, allowed-region slack budget for this
        // node). A node may be enqueued again with a larger budget; it is
        // expanded the first time its budget (or must-inside status)
        // permits.
        self.queue.push((0, limits.slack));
        let mut at = 0;
        while at < self.queue.len() {
            let (xi, budget) = self.queue[at];
            at += 1;
            if exp.expanded[xi] {
                continue;
            }
            let ExpNode { orig, weight } = exp.nodes[xi];
            if !is_gate(orig) {
                // PIs have no fanins. A must-inside PI kills the cut.
                if exp.must_inside[xi] {
                    return Err(ExpandFail::PiMustBeInside);
                }
                continue;
            }
            if !exp.must_inside[xi] && budget == 0 {
                continue; // truncation: this allowed node stays a leaf
            }
            if exp.nodes.len() >= limits.max_nodes {
                continue; // size cap: sound truncation
            }
            exp.expanded[xi] = true;
            let child_budget = if exp.must_inside[xi] {
                limits.slack
            } else {
                budget - 1
            };
            let start = exp.fanin_list.len();
            let node = c.node(NodeId::from_index(orig));
            for f in &node.fanins {
                let (src, w) = (f.source.index(), weight + i64::from(f.weight));
                let newest = if self.stamp[src] == self.epoch {
                    self.head[src]
                } else {
                    NONE
                };
                let mut ci = newest;
                while ci != NONE && exp.nodes[ci as usize].weight != w {
                    ci = self.next[ci as usize];
                }
                let ci = if ci == NONE {
                    if must(src, w) && !is_gate(src) {
                        return Err(ExpandFail::PiMustBeInside);
                    }
                    let ci = exp.nodes.len();
                    exp.nodes.push(ExpNode {
                        orig: src,
                        weight: w,
                    });
                    exp.expanded.push(false);
                    exp.must_inside.push(must(src, w));
                    exp.fanin_span.push((0, 0));
                    self.next.push(newest);
                    self.stamp[src] = self.epoch;
                    self.head[src] = ci as u32;
                    ci
                } else {
                    ci as usize
                };
                self.queue.push((ci, child_budget));
                exp.fanin_list.push(ci);
            }
            exp.fanin_span[xi] = (start, exp.fanin_list.len());
        }
        Ok(&self.expansion)
    }
}

/// The buffers one label worker reuses across its evaluations: the
/// expansion arena and the cut kernel's scratch.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Expansion builds; holds the expansion built last.
    pub exp: ExpScratch,
    /// Min-cut tests on that expansion.
    pub cut: CutScratch,
}

impl Expansion {
    /// Materializes `E_root` for a height-`H` cut test at target ratio
    /// `phi`, under labels `labels` (PIs 0, gates current lower bounds).
    ///
    /// A node `u^w` **must be inside** when `labels[u] − phi·w >= height`
    /// (its height contribution `labels[u] − phi·w + 1` exceeds `height`).
    /// The root is always inside. Fanins of every inside node are
    /// materialized; allowed nodes are additionally expanded up to
    /// `limits.slack` levels past the inside region. Nodes are numbered
    /// in breadth-first discovery order.
    ///
    /// This builds in fresh buffers; [`ExpScratch::build`] reuses them.
    ///
    /// # Errors
    ///
    /// [`ExpandFail::PiMustBeInside`] when a primary input lands in the
    /// must-inside region — no cut of this height can exist.
    pub fn build(
        c: &Circuit,
        root: usize,
        phi: i64,
        labels: &[i64],
        height: i64,
        limits: ExpandLimits,
    ) -> Result<Expansion, ExpandFail> {
        let mut scratch = ExpScratch::new();
        scratch.build(c, root, phi, labels, height, limits)?;
        Ok(std::mem::take(&mut scratch.expansion))
    }

    /// The fanin expanded nodes of node `xi`, in the original node's
    /// fanin order (empty for leaves/PIs).
    pub fn fanins(&self, xi: usize) -> &[usize] {
        let (start, end) = self.fanin_span[xi];
        &self.fanin_list[start..end]
    }

    /// Height of a cut: `max(labels[u] − phi·w + 1)` over its nodes.
    pub fn cut_height(&self, cut: &[usize], phi: i64, labels: &[i64]) -> i64 {
        cut.iter()
            .map(|&xi| {
                let ExpNode { orig, weight } = self.nodes[xi];
                labels[orig] - phi * weight + 1
            })
            .max()
            .unwrap_or(i64::MIN)
    }

    /// Finds a minimum vertex cut of this expansion separating the leaves
    /// from the root, with at most `limit` cut nodes. Only non-must-inside
    /// nodes are cuttable, so any returned cut has height `<= height`.
    ///
    /// Returns `None` when every cut exceeds `limit`.
    pub fn min_cut(&self, limit: usize) -> Option<Vec<usize>> {
        self.min_cut_in(limit, &mut CutScratch::new())
    }

    /// [`Expansion::min_cut`] computing in caller-provided buffers, so
    /// repeated cut tests (one per label candidate per sweep) allocate
    /// nothing but the returned cut.
    ///
    /// The test runs [`unit_vertex_cut`] straight on the flat fanin
    /// lists: the unexpanded leaves are fed by the source, the root is
    /// the sink, and the must-inside nodes are uncuttable. The cut is the
    /// minimum cut closest to the leaves, in ascending node order.
    pub fn min_cut_in(&self, limit: usize, scratch: &mut CutScratch) -> Option<Vec<usize>> {
        let role = |xi: usize| Role {
            uncuttable: self.must_inside[xi],
            source: !self.expanded[xi],
            sink: xi == 0,
        };
        match unit_vertex_cut(self, role, limit, scratch) {
            VertexCut::Cut(cut) => Some(cut),
            VertexCut::ExceedsLimit => None,
        }
    }

    /// Computes the cut function: the root's value as a flat truth table
    /// over the cut nodes (input `i` = `cut[i]`), built gate by gate.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::TooManyVars`] when the cut has more than 16 nodes
    /// (the [`TruthTable`] representation caps out at 16 inputs), and
    /// [`SynthesisError::InvalidInput`] when `cut` names a node outside
    /// the expansion, when it does not separate the root from the leaves
    /// (the interior walk reaches an unexpanded node), or when the
    /// interior holds a node that is not a gate of `c` with as many
    /// inputs as it has fanins here (`c` is not the circuit this
    /// expansion was built from).
    pub fn cone_tt(&self, c: &Circuit, cut: &[usize]) -> Result<TruthTable, SynthesisError> {
        if cut.len() > usize::from(MAX_VARS) {
            return Err(SynthesisError::TooManyVars {
                nvars: cut.len() as u32,
                max: u32::from(MAX_VARS),
            });
        }
        let n = self.nodes.len();
        if n == 0 || cut.iter().any(|&xi| xi >= n) {
            return Err(SynthesisError::InvalidInput(format!(
                "cut {cut:?} names a node outside the {n}-node expansion"
            )));
        }
        let nvars = cut.len() as u8;
        let mut memo: Vec<Option<TruthTable>> = vec![None; n];
        for (i, &xi) in cut.iter().enumerate() {
            memo[xi] = Some(TruthTable::lit(nvars, i as u8));
        }
        self.cone_tt_rec(c, 0, nvars, &mut memo)?;
        Ok(memo[0].take().expect("the root was evaluated"))
    }

    /// Evaluates node `xi` into `memo` (which holds the cut literals).
    fn cone_tt_rec(
        &self,
        c: &Circuit,
        xi: usize,
        nvars: u8,
        memo: &mut [Option<TruthTable>],
    ) -> Result<(), SynthesisError> {
        if memo[xi].is_some() {
            return Ok(());
        }
        if !self.expanded[xi] {
            return Err(SynthesisError::InvalidInput(format!(
                "cut does not separate the root: reached leaf {:?}",
                self.nodes[xi]
            )));
        }
        let orig = self.nodes[xi].orig;
        let fanins = self.fanins(xi);
        let tt = match (orig < c.node_count()).then(|| &c.node(NodeId::from_index(orig)).kind) {
            Some(NodeKind::Gate(tt)) if usize::from(tt.nvars()) == fanins.len() => tt,
            _ => {
                return Err(SynthesisError::InvalidInput(format!(
                    "interior node {:?} is not a {}-input gate",
                    self.nodes[xi],
                    fanins.len()
                )))
            }
        };
        for &ci in fanins {
            self.cone_tt_rec(c, ci, nvars, memo)?;
        }
        let fan: Vec<&TruthTable> = fanins
            .iter()
            .map(|&ci| memo[ci].as_ref().expect("fanin evaluated above"))
            .collect();
        memo[xi] = Some(tt.compose(nvars, &fan));
        Ok(())
    }
}

impl FaninLists for Expansion {
    fn vertex_count(&self) -> usize {
        self.nodes.len()
    }

    fn fanins(&self, v: usize) -> &[usize] {
        Expansion::fanins(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::circuit::Fanin;
    use turbosyn_netlist::gen;

    /// a chain PI -> g0 -> g1 -> g2 (combinational).
    fn chain3() -> Circuit {
        let mut c = Circuit::new("chain3");
        let a = c.add_input("a");
        let g0 = c.add_gate("g0", TruthTable::inv(), vec![Fanin::wire(a)]);
        let g1 = c.add_gate("g1", TruthTable::inv(), vec![Fanin::wire(g0)]);
        let g2 = c.add_gate("g2", TruthTable::inv(), vec![Fanin::wire(g1)]);
        c.add_output("o", Fanin::wire(g2));
        c
    }

    #[test]
    fn combinational_expansion_is_the_cone() {
        let c = chain3();
        // Labels: PI 0, gates 1 each (pretend); height 1, phi 1.
        let labels = vec![0, 1, 1, 1, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        // Nodes: g2^0, g1^0, g0^0, a^0 — cone of g2.
        assert_eq!(e.nodes.len(), 4);
        assert!(e.nodes.iter().all(|n| n.weight == 0));
    }

    #[test]
    fn min_cut_finds_single_input() {
        let c = chain3();
        let labels = vec![0, 1, 1, 1, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(4).expect("cut exists");
        assert_eq!(cut.len(), 1);
        // The cheapest cut is the PI itself.
        assert_eq!(e.nodes[cut[0]].orig, 0);
        // Cone function: three inverters = inverter.
        let tt = e.cone_tt(&c, &cut).expect("1-input cone fits");
        assert_eq!(tt, TruthTable::inv());
    }

    #[test]
    fn ring_unrolls_with_weights() {
        // ring(3, 2): gates r0,r1,r2 on a loop with 2 registers.
        let c = gen::ring(3, 2);
        // Labels: PIs/POs 0, gates 1.
        let labels: Vec<i64> = c
            .node_ids()
            .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
            .collect();
        let root = c.find("r2").expect("exists").index();
        let e =
            Expansion::build(&c, root, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        // Unrolled replicas of loop gates at increasing weights appear.
        assert!(e.nodes.iter().any(|n| n.weight > 0));
        // No replica repeats (orig, weight) pairs.
        let mut seen = std::collections::HashSet::new();
        for n in &e.nodes {
            assert!(seen.insert((n.orig, n.weight)), "duplicate {n:?}");
        }
    }

    #[test]
    fn must_inside_pi_fails() {
        let c = chain3();
        // Height 0 forces the PI (label 0, weight 0: 0 - 0 >= 0) inside.
        let labels = vec![0, 1, 1, 1, 0];
        let r = Expansion::build(&c, 3, 1, &labels, 0, ExpandLimits::default());
        assert!(matches!(r, Err(ExpandFail::PiMustBeInside)));
    }

    #[test]
    fn cut_height_matches_definition() {
        let c = chain3();
        let labels = vec![0, 1, 2, 3, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 3, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(4).expect("cut exists");
        let h = e.cut_height(&cut, 1, &labels);
        assert!(h <= 3, "height {h}");
    }

    #[test]
    fn epoch_wrap_leaks_no_stale_stamps() {
        let ring = gen::ring(4, 2);
        let labels: Vec<i64> = ring
            .node_ids()
            .map(|id| i64::from(matches!(ring.node(id).kind, NodeKind::Gate(_))))
            .collect();
        let r2 = ring.find("r2").expect("exists").index();
        let limits = ExpandLimits::default();
        let mut arena = ExpScratch::new();
        // Epoch 1 stamps every node of the ring's cone.
        arena
            .build(&ring, r2, 1, &labels, 1, limits)
            .expect("expandable");
        // Epoch u32::MAX re-stamps only the four nodes of `chain3`, then
        // the ring build wraps the epoch back to 1: unless the wrap
        // clears the stamps, the first build's chains read as current.
        arena.epoch = u32::MAX - 1;
        let chain = chain3();
        let chain_labels = vec![0, 1, 1, 1, 0];
        let got = arena
            .build(&chain, 3, 1, &chain_labels, 1, limits)
            .expect("expandable");
        let want = Expansion::build(&chain, 3, 1, &chain_labels, 1, limits).expect("expandable");
        assert_eq!(*got, want);
        let got = arena
            .build(&ring, r2, 1, &labels, 1, limits)
            .expect("expandable");
        let want = Expansion::build(&ring, r2, 1, &labels, 1, limits).expect("expandable");
        assert_eq!(*got, want);
        assert_eq!(arena.epoch, 1, "the ring build wrapped the epoch");
    }

    #[test]
    fn cone_tt_rejects_a_cut_that_does_not_separate_the_root() {
        let c = chain3();
        let labels = vec![0, 1, 1, 1, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        // The empty cut lets the walk reach the unexpanded PI leaf.
        assert!(matches!(
            e.cone_tt(&c, &[]),
            Err(SynthesisError::InvalidInput(_))
        ));
        assert!(matches!(
            e.cone_tt(&c, &[e.nodes.len()]),
            Err(SynthesisError::InvalidInput(_))
        ));
    }

    #[test]
    fn cone_tt_rejects_a_non_gate_interior() {
        let c = chain3();
        let labels = vec![0, 1, 1, 1, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(4).expect("cut exists");
        // Same node indices, but every interior node is a PI here.
        let mut other = Circuit::new("inputs");
        for name in ["a", "b", "c", "d"] {
            other.add_input(name);
        }
        assert!(matches!(
            e.cone_tt(&other, &cut),
            Err(SynthesisError::InvalidInput(_))
        ));
    }

    #[test]
    fn figure1_cone_function_is_correct() {
        // Cover two adjacent figure-1 gates and check the cut function.
        let c = gen::figure1();
        let labels: Vec<i64> = c
            .node_ids()
            .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
            .collect();
        let root = c.find("g1").expect("exists").index();
        // Height 2 allows cutting at PIs and at g0's replica.
        let e =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(16).expect("cut exists");
        let tt = e.cone_tt(&c, &cut).expect("cut fits in a truth table");
        assert!(tt.nvars() as usize == cut.len());
        assert!(!tt.support().is_empty());
    }
}
