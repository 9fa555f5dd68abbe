//! Randomized (seeded, deterministic) tests for the mapping core:
//! expansion invariants, label monotonicity, and realization correctness
//! on random circuits.

use std::collections::HashMap;
use turbosyn::expand::{ExpScratch, ExpandLimits, Expansion};
use turbosyn::label::{compute_labels, LabelOptions};
use turbosyn_bdd::{Bdd, Manager};
use turbosyn_graph::rng::StdRng;
use turbosyn_netlist::{gen, Circuit, NodeId, NodeKind};

fn unit_labels(c: &Circuit) -> Vec<i64> {
    c.node_ids()
        .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
        .collect()
}

/// Reference cone builder: the cut function over `cut` (BDD variable
/// `i` = `cut[i]`), composed gate by gate as a sum of minterms over the
/// fanin BDDs, then flattened to the truth-table bits `cone_tt` returns.
fn cone_bits_via_bdd(exp: &Expansion, c: &Circuit, cut: &[usize]) -> Vec<u64> {
    fn rec(
        exp: &Expansion,
        c: &Circuit,
        xi: usize,
        memo: &mut HashMap<usize, Bdd>,
        m: &mut Manager,
    ) -> Bdd {
        if let Some(&f) = memo.get(&xi) {
            return f;
        }
        assert!(exp.expanded[xi], "cut does not separate the root");
        let NodeKind::Gate(tt) = &c.node(NodeId::from_index(exp.nodes[xi].orig)).kind else {
            panic!("interior node {:?} is not a gate", exp.nodes[xi]);
        };
        let fan: Vec<Bdd> = exp
            .fanins(xi)
            .iter()
            .map(|&ci| rec(exp, c, ci, memo, m))
            .collect();
        let mut out = m.zero();
        for idx in (0..1u32 << fan.len()).filter(|&idx| tt.eval(idx)) {
            let mut term = m.one();
            for (i, &fb) in fan.iter().enumerate() {
                let lit = if (idx >> i) & 1 == 1 { fb } else { m.not(fb) };
                term = m.and(term, lit);
            }
            out = m.or(out, term);
        }
        memo.insert(xi, out);
        out
    }
    let mut m = Manager::new();
    let mut memo: HashMap<usize, Bdd> = HashMap::new();
    for (i, &xi) in cut.iter().enumerate() {
        let v = m.var(i as u32);
        memo.insert(xi, v);
    }
    let f = rec(exp, c, 0, &mut memo, &mut m);
    m.to_truth_table(f, cut.len() as u32)
        .expect("cut fits in a truth table")
}

/// Expansion invariants on random FSM circuits: the root is inside,
/// must-inside nodes are expanded gates, every expanded node's fanins
/// are materialized, and no (orig, weight) pair repeats.
#[test]
fn expansion_invariants() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..1000);
        let height = rng.random_range(1i64..3);
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 2,
            inputs: 3,
            outputs: 1,
            depth: 3,
            seed,
        });
        let labels = unit_labels(&c);
        let root = c.gates().next().expect("has gates").index();
        let Ok(exp) = Expansion::build(&c, root, 1, &labels, height, ExpandLimits::default())
        else {
            continue; // PiMustBeInside: legitimately no cut
        };
        assert!(exp.must_inside[0], "root is always inside");
        let mut seen = std::collections::HashSet::new();
        for (i, n) in exp.nodes.iter().enumerate() {
            assert!(seen.insert((n.orig, n.weight)), "duplicate replica");
            if exp.must_inside[i] {
                assert!(exp.expanded[i], "must-inside node not expanded");
            }
            if exp.expanded[i] {
                assert!(
                    !exp.fanins(i).is_empty()
                        || c.node(turbosyn_netlist::NodeId::from_index(n.orig))
                            .fanins
                            .is_empty()
                );
            }
        }
    }
}

/// A random `(circuit, root, labels, height, limits)` build request:
/// FSMs and rings of assorted sizes, labels in `0..4` on gates, and
/// limits small enough that slack and node-cap truncation both happen.
fn random_build(rng: &mut StdRng) -> (Circuit, usize, Vec<i64>, i64, ExpandLimits) {
    let c = if rng.random_range(0u32..3) == 0 {
        gen::ring(rng.random_range(2usize..8), rng.random_range(1usize..4))
    } else {
        gen::fsm(gen::FsmConfig {
            state_bits: rng.random_range(1usize..4),
            inputs: rng.random_range(1usize..4),
            outputs: 1,
            depth: rng.random_range(1usize..4),
            seed: rng.random_range(0u64..1000),
        })
    };
    let labels: Vec<i64> = c
        .node_ids()
        .map(|id| match c.node(id).kind {
            NodeKind::Gate(_) => rng.random_range(0i64..4),
            _ => 0,
        })
        .collect();
    let gates: Vec<usize> = c.gates().map(|g| g.index()).collect();
    let root = gates[rng.random_range(0..gates.len())];
    let height = rng.random_range(0i64..4);
    let limits = ExpandLimits {
        slack: rng.random_range(0usize..5),
        max_nodes: rng.random_range(2usize..200),
    };
    (c, root, labels, height, limits)
}

/// One `ExpScratch` reused across many random builds produces exactly
/// the expansion a fresh scratch produces for each build: stale chain
/// heads, queue entries or fanin ranges never leak from one build into
/// the next.
#[test]
fn reused_expansion_arena_matches_fresh_builds() {
    let mut rng = StdRng::seed_from_u64(0xD5);
    let mut arena = ExpScratch::new();
    let mut built = 0;
    for _ in 0..300 {
        let (c, root, labels, height, limits) = random_build(&mut rng);
        let phi = rng.random_range(1i64..4);
        let fresh = Expansion::build(&c, root, phi, &labels, height, limits);
        let reused = arena.build(&c, root, phi, &labels, height, limits);
        match (fresh, reused) {
            (Ok(fresh), Ok(reused)) => {
                assert_eq!(reused.nodes, fresh.nodes);
                assert_eq!(reused.expanded, fresh.expanded);
                assert_eq!(reused.must_inside, fresh.must_inside);
                for xi in 0..fresh.nodes.len() {
                    assert_eq!(reused.fanins(xi), fresh.fanins(xi), "fanins of {xi}");
                }
                built += 1;
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (fresh, reused) => panic!("fresh {:?} vs reused {:?}", fresh.err(), reused.err()),
        }
    }
    assert!(built > 100, "only {built} builds succeeded");
}

/// Every expanded node `u^w` lists, in the circuit's fanin order, the
/// replicas `f.source^(w + f.weight)` of its fanins; every unexpanded
/// node lists none.
#[test]
fn expansion_fanins_follow_the_circuit_in_order() {
    let mut rng = StdRng::seed_from_u64(0xD6);
    for _ in 0..200 {
        let (c, root, labels, height, limits) = random_build(&mut rng);
        let Ok(exp) = Expansion::build(&c, root, 1, &labels, height, limits) else {
            continue;
        };
        for (xi, n) in exp.nodes.iter().enumerate() {
            let got: Vec<(usize, i64)> = exp
                .fanins(xi)
                .iter()
                .map(|&ci| (exp.nodes[ci].orig, exp.nodes[ci].weight))
                .collect();
            let want: Vec<(usize, i64)> = if exp.expanded[xi] {
                c.node(NodeId::from_index(n.orig))
                    .fanins
                    .iter()
                    .map(|f| (f.source.index(), n.weight + i64::from(f.weight)))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(got, want, "node {xi} = {n:?}");
        }
    }
}

/// Cuts returned by min_cut never contain must-inside nodes and have
/// height within the requested bound.
#[test]
fn cuts_respect_height() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..1000);
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 2,
            inputs: 3,
            outputs: 1,
            depth: 3,
            seed,
        });
        let labels = unit_labels(&c);
        let root = c.gates().next().expect("has gates").index();
        let height = 2;
        let Ok(exp) = Expansion::build(&c, root, 1, &labels, height, ExpandLimits::default())
        else {
            continue;
        };
        if let Some(cut) = exp.min_cut(15) {
            for &xi in &cut {
                assert!(!exp.must_inside[xi], "cut through must-inside node");
            }
            assert!(exp.cut_height(&cut, 1, &labels) <= height);
            // The cone function is well defined (the cut separates).
            let tt = exp.cone_tt(&c, &cut).expect("cut fits in a truth table");
            assert_eq!(tt.nvars() as usize, cut.len());
            // The truth-table cone equals the BDD cone.
            assert_eq!(tt.bits(), &cone_bits_via_bdd(&exp, &c, &cut)[..]);
        }
    }
}

/// Feasibility is monotone in φ, and labels at a feasible φ are bounded
/// by the labels at any smaller feasible φ (larger φ can only lower
/// labels). We check monotone feasibility and basic label sanity (PIs 0,
/// gates >= 1).
#[test]
fn phi_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..500);
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 2,
            inputs: 3,
            outputs: 1,
            depth: 3,
            seed,
        });
        let mut prev_feasible = false;
        let mut prev_labels: Option<Vec<i64>> = None;
        for phi in 1..=5 {
            let out = compute_labels(&c, &LabelOptions::turbomap(5, phi));
            assert!(!prev_feasible || out.is_feasible(), "monotone in phi");
            if let turbosyn::LabelOutcome::Feasible { labels, .. } = &out {
                for id in c.node_ids() {
                    match c.node(id).kind {
                        NodeKind::Input => assert_eq!(labels[id.index()], 0),
                        NodeKind::Gate(_) => assert!(labels[id.index()] >= 1),
                        NodeKind::Output => {}
                    }
                }
                if let Some(prev) = &prev_labels {
                    for (a, b) in prev.iter().zip(labels) {
                        assert!(b <= a, "labels must not grow with phi");
                    }
                }
                prev_labels = Some(labels.clone());
            }
            prev_feasible = prev_feasible || out.is_feasible();
        }
    }
}

/// The truth-table cone of a wide cut equals the BDD cone, on suite rows
/// whose gates reconverge (cuts up to the 16-input table limit).
#[test]
fn cone_tables_match_bdd_cones_on_suite_rows() {
    let mut checked = 0;
    for b in gen::suite()
        .into_iter()
        .filter(|b| ["bbara", "cse", "s420"].contains(&b.name))
    {
        let c = &b.circuit;
        let labels: Vec<i64> = unit_labels(c).iter().map(|&l| 3 * l).collect();
        for root in c.gates().take(40) {
            let Ok(exp) = Expansion::build(c, root.index(), 1, &labels, 3, ExpandLimits::default())
            else {
                continue;
            };
            let Some(cut) = exp.min_cut(16) else {
                continue;
            };
            let tt = exp.cone_tt(c, &cut).expect("cut fits in a truth table");
            let bits = cone_bits_via_bdd(&exp, c, &cut);
            assert_eq!(tt.bits(), &bits[..], "{} root {root:?}", b.name);
            checked += usize::from(cut.len() > 6);
        }
    }
    assert!(checked > 10, "only {checked} multi-word cones checked");
}
