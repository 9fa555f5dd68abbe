//! Mapping generation: from converged labels to a LUT network.
//!
//! Once the labels for the minimum feasible φ have converged, every gate
//! reachable from a primary output is realized as one LUT (its
//! height-`l(v)` K-cut on `E_v`, found by the same flow machinery the
//! labeler used) or, when only resynthesis made the label possible, as
//! the small LUT tree recorded by the sequential decomposition. Cut
//! inputs `u^w` become LUT fanins carrying `w` registers — this is where
//! "retiming" is folded into the mapping: every mapped node computes
//! exactly the original node's signal, so the mapped circuit is
//! cycle-accurate equivalent to the input (verified by
//! [`crate::verify`]), and a final retiming/pipelining pass realizes the
//! clock period φ.
//!
//! A resynthesized root replays the label search's descent, and with it
//! the decomposition of each cut function it tries; nothing is carried
//! over from the search.

use crate::expand::Scratch;
use crate::label::{resyn_realization, LabelOptions};
use crate::seqdecomp::{LutInput, Realization};
use std::collections::HashMap;
use turbosyn_netlist::circuit::CircuitError;
use turbosyn_netlist::{Circuit, Fanin, NodeId, NodeKind};

/// Errors from mapping generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapGenError {
    /// No realization found for a node at its converged label — indicates
    /// labels that did not come from a feasible run.
    Unrealizable {
        /// Original node index.
        node: usize,
    },
    /// The label table does not hold one label per circuit node.
    LabelCount {
        /// Length of the label table.
        labels: usize,
        /// Node count of the circuit.
        nodes: usize,
    },
    /// The circuit fails [`Circuit::validate`].
    InvalidCircuit(CircuitError),
}

impl std::fmt::Display for MapGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapGenError::Unrealizable { node } => {
                write!(f, "no realization for node {node} at its label")
            }
            MapGenError::LabelCount { labels, nodes } => {
                write!(f, "{labels} labels for a circuit of {nodes} nodes")
            }
            MapGenError::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl std::error::Error for MapGenError {}

/// Finds the realization of gate `v` at its converged label.
pub(crate) fn realize(
    c: &Circuit,
    v: usize,
    labels: &[i64],
    opts: &LabelOptions,
    scratch: &mut Scratch,
) -> Result<Realization, MapGenError> {
    let unrealizable = || MapGenError::Unrealizable { node: v };
    let h = labels[v];
    // PiMustBeInside at the node's own label can only happen on
    // corrupted label tables.
    let exp = scratch
        .exp
        .build(c, v, opts.phi, labels, h, opts.expand)
        .map_err(|_| unrealizable())?;
    if let Some(cut) = exp.min_cut_in(opts.k, &mut scratch.cut) {
        return Realization::from_cut(exp, c, &cut).map_err(|_| unrealizable());
    }
    if opts.resynthesis {
        // Replay runs ungoverned: every decision the label search made is
        // determined by `opts` alone, so a throwaway unlimited gauge
        // reproduces it exactly.
        let replay = crate::budget::Gauge::new(crate::budget::Budget::default());
        if let Ok(Some(r)) = resyn_realization(c, v, h, labels, opts, &replay, scratch, None) {
            return Ok(r);
        }
    }
    // Fallback: the trivial cut (the gate itself as one LUT). Its height
    // is max(l(u) − φw) + 1 <= l(v) + 1; always K-feasible for a
    // K-bounded input. Only reachable on inconsistent label tables, but
    // keeps generation total.
    let exp = scratch
        .exp
        .build(c, v, opts.phi, labels, h + 1, opts.expand)
        .map_err(|_| unrealizable())?;
    let cut = exp
        .min_cut_in(opts.k, &mut scratch.cut)
        .ok_or_else(unrealizable)?;
    Realization::from_cut(exp, c, &cut).map_err(|_| unrealizable())
}

/// Generates the mapped LUT circuit for converged `labels` at
/// `opts.phi`.
///
/// The result has the same primary inputs and outputs (by name) as `c`;
/// every LUT node computes the signal of the original gate it is rooted
/// at, with registers absorbed into fanin weights.
///
/// # Errors
///
/// [`MapGenError::InvalidCircuit`] if `c` fails [`Circuit::validate`],
/// [`MapGenError::LabelCount`] unless `labels` has one entry per node of
/// `c`, and [`MapGenError::Unrealizable`] if some needed node has no
/// realization (labels not from a feasible computation).
pub fn generate_mapping(
    c: &Circuit,
    labels: &[i64],
    opts: &LabelOptions,
) -> Result<Circuit, MapGenError> {
    c.validate().map_err(MapGenError::InvalidCircuit)?;
    if labels.len() != c.node_count() {
        return Err(MapGenError::LabelCount {
            labels: labels.len(),
            nodes: c.node_count(),
        });
    }
    let mut scratch = Scratch::default();
    let mut out = Circuit::new(format!("{}_mapped_k{}", c.name(), opts.k));
    let mut mapped: HashMap<usize, NodeId> = HashMap::new(); // orig -> out node

    // PIs first (same names).
    for &pi in c.inputs() {
        mapped.insert(pi.index(), out.add_input(c.node(pi).name.clone()));
    }

    // Needed gates, discovered from the POs.
    let mut queue: Vec<usize> = Vec::new();
    let mut needed: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let require = |orig: usize,
                   c: &Circuit,
                   queue: &mut Vec<usize>,
                   needed: &mut std::collections::HashSet<usize>| {
        if matches!(c.node(NodeId::from_index(orig)).kind, NodeKind::Gate(_)) && needed.insert(orig)
        {
            queue.push(orig);
        }
    };
    for &po in c.outputs() {
        let f = c.node(po).fanins[0];
        require(f.source.index(), c, &mut queue, &mut needed);
    }

    // Realize every needed gate; realizations may add new requirements.
    let mut realizations: HashMap<usize, Realization> = HashMap::new();
    while let Some(v) = queue.pop() {
        let r = realize(c, v, labels, opts, &mut scratch)?;
        for lut in &r.luts {
            for inp in &lut.inputs {
                if let LutInput::Sequential { orig, .. } = *inp {
                    require(orig, c, &mut queue, &mut needed);
                }
            }
        }
        realizations.insert(v, r);
    }

    // --- Label relaxation (the paper's first area technique) ----------
    // A root realized with resynthesis may be re-realized as a single
    // plain cut at a *relaxed* height: every use of signal (v, w) inside a
    // consumer's cut tolerates height up to l(consumer) − 1 + φ·w, and PO
    // uses tolerate anything (pipelining absorbs I/O paths). Raising only
    // v's own realization height keeps every mapped-edge label constraint
    // satisfied, so the MDR guarantee is untouched.
    if opts.resynthesis && opts.relax {
        // Effective realization height per gate; relaxing a root raises
        // its entry, and later cut-height checks see the raised value, so
        // every mapped edge stays consistent with a single label function.
        let mut eff: Vec<i64> = labels.to_vec();
        // Use-site index: orig -> [(consumer root, weight)], maintained
        // incrementally as realizations are replaced, so each budget query
        // is proportional to v's own fanout rather than the whole netlist.
        let mut uses: HashMap<usize, Vec<(usize, i64)>> = HashMap::new();
        let record =
            |root: usize, r: &Realization, uses: &mut HashMap<usize, Vec<(usize, i64)>>| {
                for lut in &r.luts {
                    for inp in &lut.inputs {
                        if let LutInput::Sequential { orig, weight } = *inp {
                            uses.entry(orig).or_default().push((root, weight));
                        }
                    }
                }
            };
        for (&root, r) in &realizations {
            record(root, r, &mut uses);
        }
        let mut resyn_roots: Vec<usize> = realizations
            .iter()
            .filter(|(_, r)| r.luts.len() > 1)
            .map(|(&v, _)| v)
            .collect();
        resyn_roots.sort_unstable();
        for v in resyn_roots {
            // Tightest tolerance over all current uses of v (PO uses are
            // unconstrained: pipelining absorbs I/O paths).
            let budget = uses
                .get(&v)
                .map(|sites| {
                    sites
                        .iter()
                        .map(|&(root, weight)| eff[root] - 1 + opts.phi * weight)
                        .min()
                        .unwrap_or(i64::MAX / 4)
                })
                .unwrap_or(i64::MAX / 4);
            if budget <= eff[v] {
                continue; // no slack: the loop is tight through v
            }
            // Try plain cuts at growing heights up to the budget.
            for h in (eff[v] + 1)..=budget.min(eff[v] + 8) {
                let Ok(exp) = scratch.exp.build(c, v, opts.phi, &eff, h, opts.expand) else {
                    break;
                };
                if let Some(cut) = exp.min_cut_in(opts.k, &mut scratch.cut) {
                    // The relaxed cut must not need any *new* gates (their
                    // realizations would not have been budget-checked);
                    // all inputs must already be realized or PIs.
                    let ok = cut.iter().all(|&xi| {
                        let orig = exp.nodes[xi].orig;
                        !matches!(c.node(NodeId::from_index(orig)).kind, NodeKind::Gate(_))
                            || realizations.contains_key(&orig)
                    });
                    if ok {
                        let new_r = Realization::from_cut(exp, c, &cut)
                            .map_err(|_| MapGenError::Unrealizable { node: v })?;
                        // Update the use index: drop v's old uses, add new.
                        for sites in uses.values_mut() {
                            sites.retain(|&(root, _)| root != v);
                        }
                        record(v, &new_r, &mut uses);
                        realizations.insert(v, new_r);
                        eff[v] = h;
                    }
                    break;
                }
            }
        }
    }

    // Create LUT nodes. Two passes over each realization: internal LUTs
    // first (they only reference earlier internals / sequential inputs),
    // root last. Sequential references to not-yet-created gates are fixed
    // up afterwards, so iteration order over gates does not matter.
    let mut fixups: Vec<(NodeId, usize, usize, u32)> = Vec::new(); // (node, slot, orig gate, weight)
    let mut ordered: Vec<usize> = realizations.keys().copied().collect();
    ordered.sort_unstable();
    for &v in &ordered {
        let r = &realizations[&v];
        let name = c.node(NodeId::from_index(v)).name.clone();
        let mut internal: HashMap<usize, NodeId> = HashMap::new();
        // Realization LUTs are topologically ordered by construction
        // (internals are created before they are referenced).
        for (li, lut) in r.luts.iter().enumerate() {
            let lut_name = if li == r.root {
                name.clone()
            } else {
                format!("{name}__syn{li}")
            };
            let placeholder = vec![Fanin::wire(NodeId::from_index(0)); lut.inputs.len()];
            let id = out.add_gate(lut_name, lut.tt.clone(), placeholder);
            internal.insert(li, id);
            for (slot, inp) in lut.inputs.iter().enumerate() {
                match *inp {
                    LutInput::Internal(j) => {
                        out.set_fanin(id, slot, Fanin::wire(internal[&j]));
                    }
                    LutInput::Sequential { orig, weight } => {
                        let w = u32::try_from(weight).expect("non-negative weight");
                        if let Some(&src) = mapped.get(&orig) {
                            out.set_fanin(id, slot, Fanin::registered(src, w));
                        } else {
                            fixups.push((id, slot, orig, w));
                        }
                    }
                }
            }
            if li == r.root {
                mapped.insert(v, id);
            }
        }
    }
    for (id, slot, orig, w) in fixups {
        let src = *mapped.get(&orig).expect("all needed gates realized");
        out.set_fanin(id, slot, Fanin::registered(src, w));
    }

    // POs.
    for &po in c.outputs() {
        let f = c.node(po).fanins[0];
        let src = *mapped.get(&f.source.index()).expect("PO driver realized");
        out.add_output(c.node(po).name.clone(), Fanin::registered(src, f.weight));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{compute_labels, LabelOutcome};
    use crate::verify::verify_mapping;
    use turbosyn_netlist::gen;
    use turbosyn_retime::mdr_ratio;

    fn map_with(c: &Circuit, opts: &LabelOptions) -> Circuit {
        match compute_labels(c, opts) {
            LabelOutcome::Feasible { labels, .. } => {
                generate_mapping(c, &labels, opts).expect("realizable")
            }
            LabelOutcome::Infeasible { .. } => panic!("phi should be feasible"),
        }
    }

    /// A label table of the wrong length is a typed error, not an
    /// out-of-bounds panic.
    #[test]
    fn label_count_mismatch_is_an_error() {
        let c = gen::figure1();
        let opts = LabelOptions::turbosyn(5, 1);
        for labels in [vec![0, 1], vec![1; c.node_count() + 1]] {
            assert_eq!(
                generate_mapping(&c, &labels, &opts).unwrap_err(),
                MapGenError::LabelCount {
                    labels: labels.len(),
                    nodes: c.node_count()
                }
            );
        }
    }

    /// A circuit that fails validation is a typed error.
    #[test]
    fn invalid_circuit_is_an_error() {
        let mut c = gen::figure1();
        let g1 = c.find("g1").expect("exists");
        c.set_fanin(g1, 0, Fanin::wire(g1)); // a register-free self-loop
        let labels = vec![1; c.node_count()];
        assert!(matches!(
            generate_mapping(&c, &labels, &LabelOptions::turbosyn(5, 1)),
            Err(MapGenError::InvalidCircuit(
                CircuitError::CombinationalCycle(_)
            ))
        ));
    }

    #[test]
    fn pipeline_maps_and_stays_equivalent() {
        let c = gen::pipeline(3, 4, 7);
        let opts = LabelOptions::turbomap(5, 1);
        let m = map_with(&c, &opts);
        assert!(m.validate().is_ok());
        assert!(m.is_k_bounded(5));
        verify_mapping(&c, &m, 5, i64::MAX, 48).expect("equivalent");
        // Fewer (or equal) LUTs than gates.
        assert!(m.gate_count() <= c.gate_count());
    }

    #[test]
    fn ring_maps_to_target_ratio() {
        let c = gen::ring(4, 2);
        let opts = LabelOptions::turbomap(5, 1);
        let m = map_with(&c, &opts);
        assert!(m.validate().is_ok());
        // The mapped circuit's loops meet the target ratio.
        let mdr = mdr_ratio(&m).expect("still cyclic");
        assert!(mdr.ceil() <= 1, "mapped MDR {mdr} exceeds phi=1");
        verify_mapping(&c, &m, 5, 1, 48).expect("equivalent");
    }

    #[test]
    fn figure1_turbosyn_mapping_reaches_ratio_one() {
        let c = gen::figure1();
        let opts = LabelOptions::turbosyn(5, 1);
        let m = map_with(&c, &opts);
        assert!(m.validate().is_ok());
        assert!(m.is_k_bounded(5));
        let mdr = mdr_ratio(&m).expect("cyclic");
        assert!(mdr.ceil() <= 1, "mapped MDR {mdr} exceeds phi=1");
        verify_mapping(&c, &m, 5, 1, 64).expect("equivalent");
    }

    #[test]
    fn figure1_turbomap_mapping_at_two() {
        let c = gen::figure1();
        let opts = LabelOptions::turbomap(5, 2);
        let m = map_with(&c, &opts);
        let mdr = mdr_ratio(&m).expect("cyclic");
        assert!(mdr.ceil() <= 2);
        verify_mapping(&c, &m, 5, 2, 64).expect("equivalent");
    }

    #[test]
    fn fsm_mapping_equivalent_and_meets_phi() {
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 3,
            outputs: 2,
            depth: 2,
            seed: 21,
        });
        let ub = turbosyn_retime::period_lower_bound(&c);
        let opts = LabelOptions::turbomap(5, ub);
        let m = map_with(&c, &opts);
        assert!(m.validate().is_ok());
        let mdr = mdr_ratio(&m).expect("cyclic");
        assert!(mdr.ceil() <= ub, "mapped MDR {mdr} exceeds phi={ub}");
        verify_mapping(&c, &m, 5, ub, 64).expect("equivalent");
    }

    /// Label relaxation: an off-loop node whose consumers read it through
    /// registers has height slack, so its resynthesis is replaced by a
    /// single plain LUT at a relaxed height.
    #[test]
    fn relaxation_removes_off_loop_resynthesis() {
        use turbosyn_netlist::tt::TruthTable;
        let mut c = gen::figure1();
        // out1 = (p0&p1&p2) ^ g3 — a figure-1-style gate hanging OFF the
        // loop; out2 reads it through 3 registers, leaving label slack.
        let g3 = c.find("g3").expect("exists");
        let p: Vec<_> = (0..3).map(|i| c.add_input(format!("p{i}"))).collect();
        let side_xor = TruthTable::from_fn(4, |i| ((i & 7) == 7) ^ ((i >> 3) & 1 == 1));
        let out1 = c.add_gate(
            "out1",
            side_xor.clone(),
            vec![
                Fanin::wire(p[0]),
                Fanin::wire(p[1]),
                Fanin::wire(p[2]),
                Fanin::wire(g3),
            ],
        );
        let q: Vec<_> = (0..3).map(|i| c.add_input(format!("q{i}"))).collect();
        let out2 = c.add_gate(
            "out2",
            side_xor,
            vec![
                Fanin::wire(q[0]),
                Fanin::wire(q[1]),
                Fanin::wire(q[2]),
                Fanin::registered(out1, 3),
            ],
        );
        c.add_output("po", Fanin::wire(out2));

        let opts = LabelOptions::turbosyn(5, 1);
        let LabelOutcome::Feasible { labels, .. } = compute_labels(&c, &opts) else {
            panic!("phi=1 feasible with resynthesis");
        };
        let m = generate_mapping(&c, &labels, &opts).expect("maps");
        crate::verify::verify_mapping(&c, &m, 5, 1, 64).expect("verifies");
        // out1 must have been relaxed to a single LUT: no out1__syn nodes.
        let syn_of_out1 = m
            .node_ids()
            .filter(|&id| m.node(id).name.starts_with("out1__syn"))
            .count();
        assert_eq!(
            syn_of_out1, 0,
            "off-loop resynthesis should be relaxed away"
        );
        // The loop itself still needs its resynthesis (tight budget).
        assert!(
            m.node_ids().any(|id| m.node(id).name.contains("__syn")),
            "loop resynthesis must remain"
        );
    }

    /// The regression that motivated trace-grounded verification: seed 15
    /// previously produced a mapping whose LUT functions were correct but
    /// whose zero-state simulation diverged (legal initial-state shift).
    #[test]
    fn fsm_seed15_regression() {
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 3,
            outputs: 2,
            depth: 2,
            seed: 15,
        });
        let opts = LabelOptions::turbomap(5, 1);
        match compute_labels(&c, &opts) {
            LabelOutcome::Feasible { labels, .. } => {
                let m = generate_mapping(&c, &labels, &opts).expect("realizable");
                verify_mapping(&c, &m, 5, 1, 64).expect("per-LUT equivalent");
            }
            LabelOutcome::Infeasible { .. } => {
                // phi=1 infeasible for this seed is also fine; the original
                // failure appeared at the minimum feasible phi.
                let opts2 = LabelOptions::turbomap(5, 2);
                if let LabelOutcome::Feasible { labels, .. } = compute_labels(&c, &opts2) {
                    let m = generate_mapping(&c, &labels, &opts2).expect("realizable");
                    verify_mapping(&c, &m, 5, 2, 64).expect("per-LUT equivalent");
                }
            }
        }
    }
}
