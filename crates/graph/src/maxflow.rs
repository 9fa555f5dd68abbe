//! Minimum vertex cuts with unit vertex capacities and early termination.
//!
//! The FlowMap family of mappers decides *"is there a K-feasible cut?"*
//! with a maximum flow in the node-split network of the expanded circuit,
//! stopping as soon as the flow exceeds `K` — the exact value of a larger
//! flow is never needed. Every cuttable vertex has capacity 1 and every
//! other vertex and edge is uncapacitated, so the flow is at most `K + 1`
//! unit augmenting paths.
//!
//! [`unit_vertex_cut`] runs those augmentations on the *implicit*
//! node-split residual graph of a fanin-list graph (any [`FaninLists`]:
//! nested vectors, or a caller's flat arena): vertex `v` has the
//! states `v_in` and `v_out`, a cuttable vertex carries one `through` bit
//! (its unit of capacity) and each edge a flow count. All buffers live in
//! a reusable [`CutScratch`]. [`min_vertex_cut`] is the same cut on a
//! [`Digraph`].

use crate::Digraph;

/// Result of a minimum vertex cut computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexCut {
    /// A cut within the limit was found; the payload lists the cut
    /// vertices in ascending order (each is cuttable, and removing them
    /// disconnects the sources from the sinks).
    Cut(Vec<usize>),
    /// Every vertex cut is larger than the limit.
    ExceedsLimit,
}

/// A graph given by per-vertex fanin lists: the edges into vertex `v`
/// come from the vertices of `fanins(v)`, in that order.
///
/// Implemented for slices and vectors of lists (`Vec<Vec<usize>>` and
/// the like), and by callers that keep every list in one flat buffer.
pub trait FaninLists {
    /// Number of vertices; they are numbered `0..vertex_count()`.
    fn vertex_count(&self) -> usize;
    /// The tails of the edges into `v`, in edge order.
    fn fanins(&self, v: usize) -> &[usize];
}

impl<F: AsRef<[usize]>> FaninLists for [F] {
    fn vertex_count(&self) -> usize {
        self.len()
    }

    fn fanins(&self, v: usize) -> &[usize] {
        self[v].as_ref()
    }
}

impl<F: AsRef<[usize]>> FaninLists for Vec<F> {
    fn vertex_count(&self) -> usize {
        self.len()
    }

    fn fanins(&self, v: usize) -> &[usize] {
        self[v].as_ref()
    }
}

/// How a vertex takes part in a [`unit_vertex_cut`] problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Role {
    /// The vertex may not be cut (infinite capacity).
    pub uncuttable: bool,
    /// The super-source feeds the vertex.
    pub source: bool,
    /// The vertex feeds the super-sink. A sink is uncuttable whatever
    /// `uncuttable` says.
    pub sink: bool,
}

/// `flag` bit: the vertex is uncuttable, so `v_in` and `v_out` are one
/// state of the residual graph.
const FIXED: u8 = 1;
/// `flag` bit: the vertex feeds the super-sink.
const SINK: u8 = 2;
/// `pred` marker: no predecessor (a source's `v_in`), or the arc between
/// a vertex's own `v_in` and `v_out`.
const NONE: u32 = u32::MAX;

/// Reusable buffers of [`unit_vertex_cut`].
///
/// A label sweep solves one cut per candidate; the graphs differ every
/// time but their sizes recur, so a long-lived scratch makes every
/// buffer allocation-free after warm-up. States are numbered `2v`
/// (`v_in`) and `2v + 1` (`v_out`); the marks are epoch-stamped, so
/// starting a search is O(1).
#[derive(Debug, Default)]
pub struct CutScratch {
    /// Per vertex: [`FIXED`] and [`SINK`] bits.
    flag: Vec<u8>,
    /// The vertices the super-source feeds.
    sources: Vec<u32>,
    /// Edge ids: fanin `j` of `v` is edge `in_start[v] + j`.
    in_start: Vec<u32>,
    /// Fanout CSR: `out[out_start[u]..out_start[u + 1]]` holds
    /// `(edge id, head)` for every edge leaving `u`.
    out_start: Vec<u32>,
    out: Vec<(u32, u32)>,
    /// Units of flow on each edge.
    flow: Vec<u32>,
    /// Whether a cuttable vertex's unit of capacity is in use.
    through: Vec<bool>,
    /// Per state: the epoch of the last search that reached it.
    mark: Vec<u32>,
    epoch: u32,
    /// Per state: `(previous state, edge id or NONE)` on the search tree.
    pred: Vec<(u32, u32)>,
    /// Search frontier (a FIFO read from `head`).
    queue: Vec<u32>,
}

impl CutScratch {
    /// A scratch with empty buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        CutScratch::default()
    }

    /// Loads the graph: vertex flags, edge ids, the fanout CSR, and zero
    /// flow.
    fn load<G: FaninLists + ?Sized>(&mut self, g: &G, role: impl Fn(usize) -> Role) {
        let n = g.vertex_count();
        self.flag.clear();
        self.sources.clear();
        for v in 0..n {
            let r = role(v);
            let mut f = 0;
            if r.uncuttable || r.sink {
                f |= FIXED;
            }
            if r.sink {
                f |= SINK;
            }
            if r.source {
                self.sources.push(v as u32);
            }
            self.flag.push(f);
        }
        let m: usize = (0..n).map(|v| g.fanins(v).len()).sum();
        assert!(
            2 * n < NONE as usize && m < NONE as usize,
            "graph too large for 32-bit state and edge ids"
        );
        self.in_start.clear();
        let mut first = 0;
        for v in 0..n {
            self.in_start.push(first);
            first += g.fanins(v).len() as u32;
        }
        self.in_start.push(first);
        // Count fanouts, turn the counts into slot ends, then fill each
        // list back to front so it ends up in ascending edge order.
        self.out_start.clear();
        self.out_start.resize(n + 1, 0);
        for v in 0..n {
            for &u in g.fanins(v) {
                self.out_start[u] += 1;
            }
        }
        let mut end = 0;
        for slot in &mut self.out_start[..n] {
            end += *slot;
            *slot = end;
        }
        self.out_start[n] = first;
        self.out.clear();
        self.out.resize(m, (0, 0));
        for v in (0..n).rev() {
            let first = self.in_start[v];
            for (j, &u) in g.fanins(v).iter().enumerate().rev() {
                self.out_start[u] -= 1;
                self.out[self.out_start[u] as usize] = (first + j as u32, v as u32);
            }
        }
        self.flow.clear();
        self.flow.resize(m, 0);
        self.through.clear();
        self.through.resize(n, false);
        if self.mark.len() < 2 * n {
            self.mark.resize(2 * n, 0);
            self.pred.resize(2 * n, (NONE, NONE));
        }
    }

    /// Marks state `s` reached over `pred` and queues it; an uncuttable
    /// vertex's other state comes along. Returns whether `s` belongs to a
    /// sink.
    fn reach(&mut self, s: u32, pred: (u32, u32)) -> bool {
        let i = s as usize;
        if self.mark[i] == self.epoch {
            return false;
        }
        self.mark[i] = self.epoch;
        self.pred[i] = pred;
        self.queue.push(s);
        let f = self.flag[i >> 1];
        if f & FIXED != 0 {
            // The twin is unmarked: both states are always marked together.
            self.mark[i ^ 1] = self.epoch;
            self.pred[i ^ 1] = (s, NONE);
            self.queue.push(s ^ 1);
        }
        f & SINK != 0
    }

    /// One breadth-first search for an augmenting path from the
    /// super-source to a sink. Pushes one unit along the path it finds
    /// and returns `true`; otherwise leaves the reached states marked
    /// with the current epoch and returns `false`.
    fn augment<G: FaninLists + ?Sized>(&mut self, g: &G) -> bool {
        if self.epoch == u32::MAX {
            // Epoch wrap: physically clear the stale stamps once.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
        for k in 0..self.sources.len() {
            let s = 2 * self.sources[k];
            if self.reach(s, (NONE, NONE)) {
                self.push_unit(s);
                return true;
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let s = self.queue[head];
            head += 1;
            let v = (s >> 1) as usize;
            let cuttable = self.flag[v] & FIXED == 0;
            let hit = if s & 1 == 0 {
                // v_in: through v if its unit is free, or back along a
                // fanin edge that carries flow.
                if cuttable && !self.through[v] {
                    self.reach(s | 1, (s, NONE));
                }
                let first = self.in_start[v];
                g.fanins(v).iter().enumerate().find_map(|(j, &u)| {
                    let e = first + j as u32;
                    (self.flow[e as usize] > 0 && self.reach(2 * u as u32 + 1, (s, e)))
                        .then_some(2 * u as u32 + 1)
                })
            } else {
                // v_out: back through v if its unit is used, or forward
                // along any fanout edge.
                if cuttable && self.through[v] {
                    self.reach(s ^ 1, (s, NONE));
                }
                (self.out_start[v]..self.out_start[v + 1]).find_map(|k| {
                    let (e, w) = self.out[k as usize];
                    self.reach(2 * w, (s, e)).then_some(2 * w)
                })
            };
            if let Some(t) = hit {
                self.push_unit(t);
                return true;
            }
        }
        false
    }

    /// Pushes one unit of flow along the search-tree path ending at `t`.
    fn push_unit(&mut self, mut t: u32) {
        loop {
            let (p, e) = self.pred[t as usize];
            if p == NONE {
                return;
            }
            if e == NONE {
                // Through a vertex: forward into `v_out` takes its unit,
                // backward into `v_in` frees it. Uncuttable vertices keep
                // no state.
                let v = (t >> 1) as usize;
                if self.flag[v] & FIXED == 0 {
                    self.through[v] = t & 1 == 1;
                }
            } else if p & 1 == 1 {
                self.flow[e as usize] += 1; // u_out -> w_in along the edge
            } else {
                self.flow[e as usize] -= 1; // w_in -> u_out against it
            }
            t = p;
        }
    }
}

/// Computes the source-closest minimum **vertex** cut of a graph given by
/// fanin lists (`g.fanins(v)` lists the tails of the edges into `v`), where
/// every vertex that `role` does not make uncuttable has capacity 1.
/// Stops early and returns [`VertexCut::ExceedsLimit`] when every cut has
/// more than `limit` vertices.
///
/// The flow is built from at most `limit + 1` unit augmenting paths,
/// each found by a breadth-first search of the implicit node-split
/// residual graph. The returned cut is the set of cuttable vertices `v`
/// whose `v_in` the last search reached but whose `v_out` it did not.
/// That set is the same for every maximum flow, so it does not depend on
/// which paths were found: it is the minimum cut whose source side is
/// contained in that of every other minimum cut.
///
/// After warm-up the only allocation is the returned cut.
///
/// # Panics
///
/// Panics if a fanin is not a vertex of the graph, or if the graph has
/// `2^31` vertices or `2^32 - 1` edges or more.
///
/// # Example
///
/// ```
/// use turbosyn_graph::maxflow::{unit_vertex_cut, CutScratch, Role, VertexCut};
///
/// // Leaves 1 and 2 feed 3, which feeds the sink 0: vertex 3 is the cut.
/// let fanins = vec![vec![3], vec![], vec![], vec![1, 2]];
/// let role = |v: usize| Role {
///     source: v == 1 || v == 2,
///     sink: v == 0,
///     ..Role::default()
/// };
/// let mut scratch = CutScratch::new();
/// assert_eq!(unit_vertex_cut(&fanins, role, 4, &mut scratch), VertexCut::Cut(vec![3]));
/// ```
pub fn unit_vertex_cut<G: FaninLists + ?Sized>(
    g: &G,
    role: impl Fn(usize) -> Role,
    limit: usize,
    scratch: &mut CutScratch,
) -> VertexCut {
    let n = g.vertex_count();
    scratch.load(g, role);
    // A finite cut has at most n vertices, so more than n units of flow
    // means that no finite cut exists.
    let cap = limit.min(n);
    let mut flow = 0;
    while scratch.augment(g) {
        flow += 1;
        if flow > cap {
            return VertexCut::ExceedsLimit;
        }
    }
    let epoch = scratch.epoch;
    let cut: Vec<usize> = (0..n)
        .filter(|&v| {
            scratch.flag[v] & FIXED == 0
                && scratch.mark[2 * v] == epoch
                && scratch.mark[2 * v + 1] != epoch
        })
        .collect();
    debug_assert_eq!(cut.len(), flow);
    VertexCut::Cut(cut)
}

/// Computes the source-closest minimum **vertex** cut separating
/// `sources` from `sinks` in `g`, where every vertex with
/// `uncuttable[v] == false` has capacity 1. Sources and sinks are never
/// cut. Stops early and returns [`VertexCut::ExceedsLimit`] when every
/// cut has more than `limit` vertices.
///
/// A thin wrapper over [`unit_vertex_cut`] that allocates its own
/// scratch.
///
/// # Panics
///
/// Panics if `uncuttable.len() != g.node_count()`, if `sources` or
/// `sinks` is empty, or if some vertex is both source and sink.
pub fn min_vertex_cut(
    g: &Digraph,
    sources: &[usize],
    sinks: &[usize],
    uncuttable: &[bool],
    limit: u32,
) -> VertexCut {
    assert_eq!(
        uncuttable.len(),
        g.node_count(),
        "uncuttable table size mismatch"
    );
    assert!(!sources.is_empty(), "no sources");
    assert!(!sinks.is_empty(), "no sinks");
    let mut roles: Vec<Role> = uncuttable
        .iter()
        .map(|&uncuttable| Role {
            uncuttable,
            ..Role::default()
        })
        .collect();
    for &s in sources {
        roles[s].source = true;
        roles[s].uncuttable = true;
    }
    for &t in sinks {
        assert!(!roles[t].source, "vertex {t} is both source and sink");
        roles[t].sink = true;
    }
    let fanins: Vec<Vec<usize>> = g
        .nodes()
        .map(|v| g.in_edges(v).map(|e| e.from).collect())
        .collect();
    unit_vertex_cut(
        &fanins,
        |v| roles[v],
        limit as usize,
        &mut CutScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_cut_diamond() {
        // s -> a -> t and s -> b -> t: min vertex cut is {a, b} (cost 2).
        let mut g = Digraph::new(4);
        g.add_edge(0, 1, 0);
        g.add_edge(0, 2, 0);
        g.add_edge(1, 3, 0);
        g.add_edge(2, 3, 0);
        assert_eq!(
            min_vertex_cut(&g, &[0], &[3], &[false; 4], 5),
            VertexCut::Cut(vec![1, 2])
        );
    }

    #[test]
    fn vertex_cut_bottleneck() {
        // s -> a -> b -> t with parallel wide paths s -> a and b -> t:
        // the single vertex between them is the cut.
        let mut g = Digraph::new(5);
        g.add_edge(0, 1, 0);
        g.add_edge(0, 2, 0);
        g.add_edge(1, 3, 0);
        g.add_edge(2, 3, 0);
        g.add_edge(3, 4, 0);
        match min_vertex_cut(&g, &[0], &[4], &[false; 5], 5) {
            VertexCut::Cut(cut) => assert_eq!(cut, vec![3]),
            VertexCut::ExceedsLimit => panic!("cut expected"),
        }
    }

    #[test]
    fn vertex_cut_respects_limit() {
        // K+1 disjoint paths => every cut has size K+1 > K.
        let k = 3;
        let sink = 0;
        let mids: Vec<usize> = (2..2 + k + 1).collect();
        let mut fanins = vec![Vec::new(); 2 + k + 1];
        fanins[sink] = mids.clone();
        for &mid in &mids {
            fanins[mid] = vec![1];
        }
        let role = |v: usize| Role {
            source: v == 1,
            uncuttable: v == 1,
            sink: v == sink,
        };
        let mut scratch = CutScratch::new();
        assert_eq!(
            unit_vertex_cut(&fanins, role, k, &mut scratch),
            VertexCut::ExceedsLimit
        );
        // One more unit of limit admits exactly the K+1 middle vertices.
        assert_eq!(
            unit_vertex_cut(&fanins, role, k + 1, &mut scratch),
            VertexCut::Cut(mids)
        );
    }

    #[test]
    fn uncuttable_vertices_are_respected() {
        // Two paths; vertex 1, the only interior vertex of the path
        // 0 -> 1 -> 3, is uncuttable, so no cut exists within any limit.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 3, 0);
        g.add_edge(0, 2, 0);
        g.add_edge(2, 3, 0);
        let uncuttable = [false, true, false, false];
        assert_eq!(
            min_vertex_cut(&g, &[0], &[3], &uncuttable, 100),
            VertexCut::ExceedsLimit
        );
    }

    #[test]
    fn multi_source_multi_sink() {
        // Sources {0,1} funnel through vertex 2 to sinks {3,4}.
        let mut g = Digraph::new(5);
        g.add_edge(0, 2, 0);
        g.add_edge(1, 2, 0);
        g.add_edge(2, 3, 0);
        g.add_edge(2, 4, 0);
        match min_vertex_cut(&g, &[0, 1], &[3, 4], &[false; 5], 5) {
            VertexCut::Cut(cut) => assert_eq!(cut, vec![2]),
            VertexCut::ExceedsLimit => panic!("cut expected"),
        }
    }

    #[test]
    fn cuttable_leaves_fed_by_the_source_can_be_cut() {
        // Expansion shape: cuttable leaves 2, 3, 4 fed by the source;
        // 1 = f(2, 3) is uncuttable, the sink 0 = g(1, 4). The cut must
        // take the leaves themselves.
        let fanins = vec![vec![1, 4], vec![2, 3], vec![], vec![], vec![]];
        let role = |v: usize| Role {
            uncuttable: v == 1,
            source: v >= 2,
            sink: v == 0,
        };
        let mut scratch = CutScratch::new();
        assert_eq!(
            unit_vertex_cut(&fanins, role, 3, &mut scratch),
            VertexCut::Cut(vec![2, 3, 4])
        );
        assert_eq!(
            unit_vertex_cut(&fanins, role, 2, &mut scratch),
            VertexCut::ExceedsLimit
        );
    }

    #[test]
    fn uncut_sink_fed_by_the_source_exceeds_every_limit() {
        let fanins: Vec<Vec<usize>> = vec![vec![]];
        let role = |_| Role {
            source: true,
            sink: true,
            ..Role::default()
        };
        assert_eq!(
            unit_vertex_cut(&fanins, role, usize::MAX, &mut CutScratch::new()),
            VertexCut::ExceedsLimit
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let mut scratch = CutScratch::new();
        for size in [4usize, 8, 3, 12, 2] {
            // A funnel: sources 0..size/2 through one mid vertex to the
            // sink, with a bypass from the first source when size is odd.
            let (mid, sink) = (size, size + 1);
            let mut g = Digraph::new(size + 2);
            for s in 0..size / 2 {
                g.add_edge(s, mid, 0);
            }
            g.add_edge(mid, sink, 0);
            if size % 2 == 1 {
                g.add_edge(0, sink, 0);
            }
            let srcs: Vec<usize> = (0..size / 2).collect();
            let fresh = min_vertex_cut(&g, &srcs, &[sink], &vec![false; size + 2], 10);
            let fanins: Vec<Vec<usize>> = g
                .nodes()
                .map(|v| g.in_edges(v).map(|e| e.from).collect())
                .collect();
            let role = |v: usize| Role {
                uncuttable: v < size / 2,
                source: v < size / 2,
                sink: v == sink,
            };
            let reused = unit_vertex_cut(&fanins, role, 10, &mut scratch);
            assert_eq!(fresh, reused, "size {size}");
        }
    }

    #[test]
    fn epoch_wrap_clears_stale_marks() {
        let fanins = vec![vec![1], vec![2], vec![]];
        let role = |v: usize| Role {
            source: v == 2,
            sink: v == 0,
            ..Role::default()
        };
        let mut scratch = CutScratch::new();
        let before = unit_vertex_cut(&fanins, role, 4, &mut scratch);
        scratch.epoch = u32::MAX - 1; // the next searches cross the wrap
        assert_eq!(unit_vertex_cut(&fanins, role, 4, &mut scratch), before);
        assert_eq!(before, VertexCut::Cut(vec![2]));
    }

    #[test]
    fn deep_chain_is_searched_without_recursion() {
        // A 10k-vertex chain 9999 -> ... -> 0: one augmenting path of
        // full length, found without recursion. The source end is the cut.
        let n = 10_000;
        let fanins: Vec<Vec<usize>> = (0..n)
            .map(|v| if v + 1 < n { vec![v + 1] } else { Vec::new() })
            .collect();
        let role = |v: usize| Role {
            source: v == n - 1,
            sink: v == 0,
            ..Role::default()
        };
        assert_eq!(
            unit_vertex_cut(&fanins, role, 5, &mut CutScratch::new()),
            VertexCut::Cut(vec![n - 1])
        );
    }
}
