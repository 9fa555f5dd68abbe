//! Randomized (seeded, deterministic) tests for the graph substrate.
//! These replay the same invariants a property-based harness would
//! explore, over a fixed stream of generated cases.

use turbosyn_graph::cycle_ratio::{exceeds_ratio, max_cycle_ratio, reaches_ratio, MdrError};
use turbosyn_graph::maxflow::{min_vertex_cut, VertexCut};
use turbosyn_graph::reach::{reachable_from, reachable_set};
use turbosyn_graph::rng::StdRng;
use turbosyn_graph::scc::condensation;
use turbosyn_graph::topo::{topo_sort, topo_sort_zero_weight};
use turbosyn_graph::Digraph;

/// A random graph of up to `n` nodes and `m` edges with weights in `w`,
/// plus per-node delays in `d`.
fn random_graph(
    rng: &mut StdRng,
    n: usize,
    m: usize,
    w: std::ops::Range<i64>,
    d: std::ops::Range<i64>,
) -> (Digraph, Vec<i64>) {
    let nodes = rng.random_range(2..n);
    let edges = rng.random_range(1..m);
    let mut g = Digraph::new(nodes);
    for _ in 0..edges {
        let a = rng.random_range(0..nodes);
        let b = rng.random_range(0..nodes);
        let wt = rng.random_range(w.clone());
        g.add_edge(a, b, wt);
    }
    let delay = (0..nodes).map(|_| rng.random_range(d.clone())).collect();
    (g, delay)
}

/// The computed MDR ratio is exactly achieved (non-strict oracle says
/// yes) and never exceeded (strict oracle says no).
///
/// Two case families: small graphs with every edge registered, and larger
/// ones with register-free edges and several SCCs, where a combinational
/// cycle must be reported exactly when the zero-weight subgraph is cyclic
/// (all delays are positive there, so every such cycle is unbounded).
#[test]
fn mdr_is_tight() {
    let mut rng = StdRng::seed_from_u64(0x11);
    let (mut combinational, mut multi_scc) = (0, 0);
    for case in 0..512 {
        let (g, delay) = if case < 256 {
            random_graph(&mut rng, 8, 16, 1..4, 0..5)
        } else {
            random_graph(&mut rng, 31, 40, 0..3, 1..5)
        };
        let zero_cyclic = topo_sort_zero_weight(&g).is_err();
        match max_cycle_ratio(&g, &delay) {
            Ok(r) => {
                assert!(!zero_cyclic, "ratio {r} despite a combinational cycle");
                assert!(reaches_ratio(&g, &delay, r), "ratio {r} not reached");
                assert!(!exceeds_ratio(&g, &delay, r), "ratio {r} exceeded");
                let cond = condensation(&g);
                let cyclic = (0..cond.count()).filter(|&c| cond.is_cyclic(&g, c));
                multi_scc += usize::from(cyclic.count() > 1);
            }
            Err(MdrError::Acyclic) => {
                assert!(topo_sort(&g).is_ok(), "acyclic verdict on cyclic graph");
            }
            Err(MdrError::CombinationalCycle) => {
                assert!(zero_cyclic, "combinational verdict without one");
                combinational += 1;
            }
        }
    }
    assert!(combinational > 0, "no case had a combinational cycle");
    assert!(multi_scc > 0, "no case had several cyclic SCCs");
}

/// Condensation numbers components in topological order and assigns
/// every node exactly one component.
#[test]
fn condensation_is_topological() {
    let mut rng = StdRng::seed_from_u64(0x22);
    for _ in 0..256 {
        let (g, _) = random_graph(&mut rng, 12, 24, 0..3, 0..2);
        let c = condensation(&g);
        let total: usize = c.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, g.node_count());
        for e in g.edges() {
            assert!(
                c.comp[e.from] <= c.comp[e.to],
                "back edge across components"
            );
        }
        for (idx, members) in c.members.iter().enumerate() {
            for &v in members {
                assert_eq!(c.comp[v], idx);
            }
        }
    }
}

/// A vertex cut found by max-flow really separates sources from sinks.
#[test]
fn vertex_cut_separates() {
    let mut rng = StdRng::seed_from_u64(0x33);
    for _ in 0..256 {
        let (g, _) = random_graph(&mut rng, 10, 20, 0..1, 0..1);
        let n = g.node_count();
        let (src, dst) = (0usize, n - 1);
        let uncuttable = vec![false; n];
        if let VertexCut::Cut(cut) = min_vertex_cut(&g, &[src], &[dst], &uncuttable, n as u32) {
            let mut blocked = vec![false; n];
            for &v in &cut {
                blocked[v] = true;
            }
            assert!(!blocked[src] && !blocked[dst], "cut contains a terminal");
            // BFS avoiding cut vertices must not reach dst.
            let r = reachable_from(&g, [src], |e| !blocked[e.to] && !blocked[e.from]);
            assert!(!r[dst], "cut {cut:?} does not separate");
        }
    }
}

/// Reachability is monotone: adding edges never removes reachability.
#[test]
fn reachability_monotone() {
    let mut rng = StdRng::seed_from_u64(0x44);
    for _ in 0..256 {
        let (g, _) = random_graph(&mut rng, 10, 15, 0..2, 0..1);
        let n = g.node_count();
        let before = reachable_set(&g, [0]);
        let mut g2 = g.clone();
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        g2.add_edge(a, b, 0);
        let after = reachable_set(&g2, [0]);
        for v in 0..n {
            assert!(!before[v] || after[v], "node {v} lost reachability");
        }
    }
}

/// topo_sort succeeds exactly when the condensation has no cyclic
/// component.
#[test]
fn topo_iff_no_cyclic_scc() {
    let mut rng = StdRng::seed_from_u64(0x55);
    for _ in 0..256 {
        let (g, _) = random_graph(&mut rng, 10, 20, 0..2, 0..1);
        let c = condensation(&g);
        let cyclic = (0..c.count()).any(|i| c.is_cyclic(&g, i));
        assert_eq!(topo_sort(&g).is_ok(), !cyclic);
    }
}

/// The flow-based vertex cut is *minimum*: cross-check against brute
/// force over all interior-vertex subsets on small graphs.
#[test]
fn vertex_cut_is_minimum() {
    let mut rng = StdRng::seed_from_u64(0x66);
    for _ in 0..40 {
        let (g, _) = random_graph(&mut rng, 8, 14, 0..1, 0..1);
        let n = g.node_count();
        let (src, dst) = (0usize, n - 1);
        let uncuttable = vec![false; n];
        let flow_cut = match min_vertex_cut(&g, &[src], &[dst], &uncuttable, n as u32) {
            VertexCut::Cut(cut) => Some(cut.len()),
            VertexCut::ExceedsLimit => None,
        };
        // Brute force: smallest interior subset whose removal disconnects.
        let interior: Vec<usize> = (1..n - 1).collect();
        let mut best: Option<usize> = None;
        for mask in 0..(1u32 << interior.len()) {
            let mut blocked = vec![false; n];
            for (j, &v) in interior.iter().enumerate() {
                if (mask >> j) & 1 == 1 {
                    blocked[v] = true;
                }
            }
            let r = reachable_from(&g, [src], |e| !blocked[e.to] && !blocked[e.from]);
            if !r[dst] {
                let size = mask.count_ones() as usize;
                if !best.is_some_and(|b| size >= b) {
                    best = Some(size);
                }
            }
        }
        assert_eq!(flow_cut, best, "flow cut vs brute force");
    }
}

/// The returned cut is the *source-closest* minimum cut: brute force over
/// every subset of cuttable vertices confirms that it has minimum size,
/// that it separates, and that the vertices it leaves reachable from the
/// sources are reachable past every other minimum cut too. That makes
/// the cut independent of which maximum flow was found.
#[test]
fn vertex_cut_is_source_closest_minimum() {
    let mut rng = StdRng::seed_from_u64(0x77);
    for _ in 0..500 {
        // Every non-source vertex takes one or two fanins from lower
        // numbers, plus a few edges in either direction, so the sinks
        // are reachable and minimum cuts often tie.
        let n = rng.random_range(5..11);
        let n_src = rng.random_range(1..4);
        let n_dst = rng.random_range(1..3);
        let mut g = Digraph::new(n);
        for v in n_src..n {
            for _ in 0..rng.random_range(1..3) {
                g.add_edge(rng.random_range(0..v), v, 0);
            }
        }
        for _ in 0..rng.random_range(0..n / 3 + 1) {
            g.add_edge(rng.random_range(0..n), rng.random_range(0..n), 0);
        }
        let sources: Vec<usize> = (0..n_src).collect();
        let sinks: Vec<usize> = (n - n_dst..n).collect();
        let (sources, sinks) = (&sources[..], &sinks[..]);
        let uncuttable: Vec<bool> = (0..n).map(|_| rng.random_range(0..5) == 0).collect();
        let cuttable: Vec<usize> = (0..n)
            .filter(|&v| !uncuttable[v] && !sources.contains(&v) && !sinks.contains(&v))
            .collect();

        // Vertices reachable from the sources with `blocked` removed.
        let reach = |blocked: &[bool]| {
            reachable_from(&g, sources.iter().copied(), |e| {
                !blocked[e.from] && !blocked[e.to]
            })
        };
        let mut min_cuts: Vec<Vec<bool>> = Vec::new();
        let mut best = usize::MAX;
        for mask in 0..(1u32 << cuttable.len()) {
            let size = mask.count_ones() as usize;
            if size > best {
                continue;
            }
            let mut blocked = vec![false; n];
            for (j, &v) in cuttable.iter().enumerate() {
                blocked[v] = (mask >> j) & 1 == 1;
            }
            let side = reach(&blocked);
            if sinks.iter().any(|&t| side[t]) {
                continue;
            }
            if size < best {
                best = size;
                min_cuts.clear();
            }
            min_cuts.push(blocked);
        }

        let got = min_vertex_cut(&g, sources, sinks, &uncuttable, n as u32);
        if min_cuts.is_empty() {
            assert_eq!(got, VertexCut::ExceedsLimit, "no finite cut exists");
            continue;
        }
        let VertexCut::Cut(cut) = got else {
            panic!("a cut of size {best} exists");
        };
        assert_eq!(cut.len(), best, "cut {cut:?} is not minimum");
        assert!(
            cut.windows(2).all(|w| w[0] < w[1]),
            "cut {cut:?} not ascending"
        );
        let mut blocked = vec![false; n];
        for &v in &cut {
            assert!(
                cuttable.contains(&v),
                "cut {cut:?} takes an uncuttable vertex"
            );
            blocked[v] = true;
        }
        let side = reach(&blocked);
        assert!(
            sinks.iter().all(|&t| !side[t]),
            "cut {cut:?} does not separate"
        );
        for other in &min_cuts {
            let other_side = reach(other);
            assert!(
                (0..n).all(|v| !side[v] || other_side[v]),
                "cut {cut:?} is not the source-closest minimum cut"
            );
        }
        if best > 0 {
            assert_eq!(
                min_vertex_cut(&g, sources, sinks, &uncuttable, best as u32 - 1),
                VertexCut::ExceedsLimit,
                "limit below the minimum"
            );
        }
    }
}
