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
use std::collections::HashMap;
use turbosyn_graph::maxflow::{unit_vertex_cut, CutScratch, Role, VertexCut};
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
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Expanded nodes; index 0 is the root `v^0`.
    pub nodes: Vec<ExpNode>,
    /// For each expanded node, its fanin expanded nodes (empty for
    /// leaves/PIs).
    pub fanins: Vec<Vec<usize>>,
    /// Whether the node's fanins were materialized.
    pub expanded: Vec<bool>,
    /// Whether the node must be inside every cut of the requested height.
    pub must_inside: Vec<bool>,
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

impl Expansion {
    /// Materializes `E_root` for a height-`H` cut test at target ratio
    /// `phi`, under labels `labels` (PIs 0, gates current lower bounds).
    ///
    /// A node `u^w` **must be inside** when `labels[u] − phi·w >= height`
    /// (its height contribution `labels[u] − phi·w + 1` exceeds `height`).
    /// The root is always inside. Fanins of every inside node are
    /// materialized; allowed nodes are additionally expanded up to
    /// `limits.slack` levels past the inside region.
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
        let mut exp = Expansion {
            nodes: vec![ExpNode {
                orig: root,
                weight: 0,
            }],
            fanins: vec![Vec::new()],
            expanded: vec![false],
            must_inside: vec![true],
        };
        let mut index: HashMap<(usize, i64), usize> = HashMap::new();
        index.insert((root, 0), 0);

        let is_gate =
            |orig: usize| matches!(c.node(NodeId::from_index(orig)).kind, NodeKind::Gate(_));
        let must = |orig: usize, w: i64| labels[orig] - phi * w >= height;

        // BFS queue: (exp index, allowed-region slack budget for this
        // node). A node may be enqueued again with a larger budget; it is
        // expanded the first time its budget (or must-inside status)
        // permits.
        let mut queue: std::collections::VecDeque<(usize, usize)> =
            std::collections::VecDeque::new();
        queue.push_back((0, limits.slack));

        while let Some((xi, budget)) = queue.pop_front() {
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
            let node = c.node(NodeId::from_index(orig));
            let mut fan = Vec::with_capacity(node.fanins.len());
            for f in &node.fanins {
                let key = (f.source.index(), weight + i64::from(f.weight));
                let ci = match index.get(&key) {
                    Some(&ci) => ci,
                    None => {
                        let ci = exp.nodes.len();
                        let mi = must(key.0, key.1) && is_gate(key.0);
                        if must(key.0, key.1) && !is_gate(key.0) {
                            return Err(ExpandFail::PiMustBeInside);
                        }
                        exp.nodes.push(ExpNode {
                            orig: key.0,
                            weight: key.1,
                        });
                        exp.fanins.push(Vec::new());
                        exp.expanded.push(false);
                        exp.must_inside.push(mi);
                        index.insert(key, ci);
                        ci
                    }
                };
                queue.push_back((ci, child_budget));
                fan.push(ci);
            }
            exp.fanins[xi] = fan;
        }
        Ok(exp)
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
    /// The test runs [`unit_vertex_cut`] straight on [`Expansion::fanins`]:
    /// the unexpanded leaves are fed by the source, the root is the sink,
    /// and the must-inside nodes are uncuttable. The cut is the minimum
    /// cut closest to the leaves, in ascending node order.
    pub fn min_cut_in(&self, limit: usize, scratch: &mut CutScratch) -> Option<Vec<usize>> {
        let role = |xi: usize| Role {
            uncuttable: self.must_inside[xi],
            source: !self.expanded[xi],
            sink: xi == 0,
        };
        match unit_vertex_cut(&self.fanins, role, limit, scratch) {
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
    /// (the [`TruthTable`] representation caps out at 16 inputs).
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not actually separate the root from all leaves
    /// (i.e. the interior walk reaches an unexpanded node), or if the
    /// interior contains a non-gate.
    pub fn cone_tt(&self, c: &Circuit, cut: &[usize]) -> Result<TruthTable, SynthesisError> {
        if cut.len() > usize::from(MAX_VARS) {
            return Err(SynthesisError::TooManyVars {
                nvars: cut.len() as u32,
                max: u32::from(MAX_VARS),
            });
        }
        let nvars = cut.len() as u8;
        let mut memo: HashMap<usize, TruthTable> = cut
            .iter()
            .enumerate()
            .map(|(i, &xi)| (xi, TruthTable::lit(nvars, i as u8)))
            .collect();
        self.cone_tt_rec(c, 0, nvars, &mut memo);
        Ok(memo.remove(&0).expect("the root was evaluated"))
    }

    /// Evaluates node `xi` into `memo` (which holds the cut literals).
    fn cone_tt_rec(
        &self,
        c: &Circuit,
        xi: usize,
        nvars: u8,
        memo: &mut HashMap<usize, TruthTable>,
    ) {
        if memo.contains_key(&xi) {
            return;
        }
        assert!(
            self.expanded[xi],
            "cut does not separate the root: reached leaf {:?}",
            self.nodes[xi]
        );
        let orig = self.nodes[xi].orig;
        let NodeKind::Gate(tt) = &c.node(NodeId::from_index(orig)).kind else {
            panic!("interior node {:?} is not a gate", self.nodes[xi]);
        };
        for &ci in &self.fanins[xi] {
            self.cone_tt_rec(c, ci, nvars, memo);
        }
        let fan: Vec<&TruthTable> = self.fanins[xi].iter().map(|ci| &memo[ci]).collect();
        let out = tt.compose(nvars, &fan);
        memo.insert(xi, out);
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
