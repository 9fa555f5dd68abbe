//! Exact maximum cycle ratio — the MDR (maximum delay-to-register) ratio.
//!
//! For a retiming graph with node delays `d` and edge register counts `w`,
//! the MDR ratio is
//!
//! ```text
//!         max over directed cycles C of   Σ_{v ∈ C} d(v) / Σ_{e ∈ C} w(e).
//! ```
//!
//! Under retiming **and** pipelining the minimum achievable clock period of
//! a circuit is bounded only by this quantity (Leiserson–Saxe;
//! Papaefthymiou), which is why TurboSYN minimizes the MDR ratio of the
//! mapped circuit instead of the clock period directly.
//!
//! The computation is exact over the rationals: an accelerated
//! Stern–Brocot search driven by two integer oracles — *"is there a cycle
//! with ratio `> p/q`"* (strict, Bellman–Ford positive-cycle detection, see
//! [`crate::bellman_ford`]) and *"… `>= p/q`"* (non-strict, adds a
//! tight-subgraph cycle test). All arithmetic is `i128`, no floating point.
//! The search runs on each cyclic strongly connected component's own
//! induced subgraph, so the oracles never relax the acyclic rest of the
//! graph.

use crate::bellman_ford::{has_positive_cycle, longest_paths, LongestPaths};
use crate::scc::condensation;
use crate::Digraph;
use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative rational number `num/den` with `den > 0`, kept in
/// lowest terms.
///
/// Every constructor normalizes, so structural equality *is* value
/// equality: `Ratio::new(2, 4) == Ratio::new(1, 2)`. Ordering is
/// value-based (cross-multiplication in `i128`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

impl Ratio {
    /// Creates `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or either argument is negative.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den > 0, "ratio denominator must be positive");
        assert!(num >= 0, "ratio numerator must be non-negative");
        let g = gcd(num, den).max(1);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// The integer `n` as a ratio `n/1`.
    pub fn integer(n: i64) -> Self {
        Ratio::new(n, 1)
    }

    /// Numerator (lowest terms).
    pub fn numer(&self) -> i64 {
        self.num
    }

    /// Denominator (lowest terms, positive).
    pub fn denom(&self) -> i64 {
        self.den
    }

    /// The value as `f64` (for reporting only; comparisons stay exact).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Smallest integer `>= self` — the clock period needed to realize this
    /// MDR ratio with unit-delay LUTs.
    pub fn ceil(&self) -> i64 {
        self.num.div_euclid(self.den) + i64::from(self.num.rem_euclid(self.den) != 0)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        ((self.num as i128) * (other.den as i128)).cmp(&((other.num as i128) * (self.den as i128)))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// Errors from [`max_cycle_ratio`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdrError {
    /// The graph has no directed cycle, so the MDR ratio is undefined
    /// (an acyclic circuit can be pipelined to any clock period).
    Acyclic,
    /// The graph has a positive-delay cycle whose edges carry no registers
    /// at all — a combinational loop; the ratio is unbounded.
    CombinationalCycle,
}

impl fmt::Display for MdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdrError::Acyclic => write!(f, "graph is acyclic; cycle ratio is undefined"),
            MdrError::CombinationalCycle => {
                write!(
                    f,
                    "graph has a register-free cycle; cycle ratio is unbounded"
                )
            }
        }
    }
}

impl std::error::Error for MdrError {}

/// Is there a cycle whose delay-to-register ratio strictly exceeds
/// `phi = num/den`?
///
/// Equivalent to asking for a cycle with positive total cost under
/// `cost(e) = den·d(e.to) − num·w(e)`. This is the feasibility oracle used
/// throughout the mapper: target clock period `φ` is achievable (loops
/// only) iff this returns `false` for the mapped circuit.
///
/// # Panics
///
/// Panics if `delay.len() != g.node_count()`.
pub fn exceeds_ratio(g: &Digraph, delay: &[i64], phi: Ratio) -> bool {
    assert_eq!(delay.len(), g.node_count(), "delay table size mismatch");
    exceeds_scaled(g, delay, phi.num as i128, phi.den as i128)
}

/// Is there a cycle with ratio `>= phi`? (Non-strict version of
/// [`exceeds_ratio`]: also detects zero-cost cycles via the tight
/// subgraph.)
///
/// # Panics
///
/// Panics if `delay.len() != g.node_count()`.
pub fn reaches_ratio(g: &Digraph, delay: &[i64], phi: Ratio) -> bool {
    assert_eq!(delay.len(), g.node_count(), "delay table size mismatch");
    reaches_scaled(g, delay, phi.num as i128, phi.den as i128)
}

fn exceeds_scaled(g: &Digraph, delay: &[i64], num: i128, den: i128) -> bool {
    has_positive_cycle(g, |e| den * delay[e.to] as i128 - num * e.weight as i128)
}

fn reaches_scaled(g: &Digraph, delay: &[i64], num: i128, den: i128) -> bool {
    let cost = |e: crate::EdgeRef| den * delay[e.to] as i128 - num * e.weight as i128;
    match longest_paths(g, cost) {
        LongestPaths::PositiveCycle(_) => true,
        LongestPaths::Finite(dist) => {
            // A zero-cost cycle must consist solely of tight edges
            // (dist[u] + cost(e) == dist[v]). A tight cycle witnesses
            // ratio == num/den only if it carries at least one register;
            // all-zero-register tight cycles are degenerate (0 delay and 0
            // registers) and must not count. So: build the tight subgraph,
            // and look for a cyclic SCC that contains a registered edge.
            let mut tight = Digraph::new(g.node_count());
            for e in g.edges() {
                if dist[e.from] + cost(e) == dist[e.to] {
                    tight.add_edge(e.from, e.to, e.weight);
                }
            }
            let cond = condensation(&tight);
            let witnessed = tight.edges().any(|e| {
                e.weight > 0
                    && cond.comp[e.from] == cond.comp[e.to]
                    && (cond.members[cond.comp[e.from]].len() > 1 || e.from == e.to)
            });
            witnessed
        }
    }
}

/// Computes the exact maximum cycle ratio (MDR ratio) of `g` under node
/// delays `delay` and edge register weights.
///
/// Every cycle lies inside one strongly connected component, so the ratio
/// is the maximum over the cyclic SCCs, and each SCC is searched on its
/// own induced subgraph. An SCC that cannot beat the best ratio found so
/// far costs one strict oracle call.
///
/// # Errors
///
/// * [`MdrError::Acyclic`] if the graph has no directed cycle.
/// * [`MdrError::CombinationalCycle`] if some positive-delay cycle carries
///   zero registers, making the ratio unbounded.
///
/// # Panics
///
/// Panics if `delay.len() != g.node_count()`, if any delay is negative, or
/// if any edge weight is negative.
pub fn max_cycle_ratio(g: &Digraph, delay: &[i64]) -> Result<Ratio, MdrError> {
    assert_eq!(delay.len(), g.node_count(), "delay table size mismatch");
    assert!(delay.iter().all(|&d| d >= 0), "negative node delay");
    assert!(
        g.weights_nonnegative(),
        "negative register count on an edge"
    );

    let cond = condensation(g);
    // `local[v]` is v's index in the subgraph of its own SCC; only read for
    // members of the SCC being built, so it is never reset.
    let mut local = vec![0usize; g.node_count()];
    let mut best: Option<Ratio> = None;
    for c in (0..cond.count()).filter(|&c| cond.is_cyclic(g, c)) {
        let members = &cond.members[c];
        for (i, &v) in members.iter().enumerate() {
            local[v] = i;
        }
        let mut sub = Digraph::new(members.len());
        let mut zero_sub = Digraph::new(members.len());
        for &v in members {
            for e in g.out_edges(v).filter(|e| cond.comp[e.to] == c) {
                sub.add_edge(local[v], local[e.to], e.weight);
                if e.weight == 0 {
                    zero_sub.add_edge(local[v], local[e.to], 0);
                }
            }
        }
        let sub_delay: Vec<i64> = members.iter().map(|&v| delay[v]).collect();

        // Register-free cycle with positive total delay => unbounded ratio.
        if has_positive_cycle(&zero_sub, |e| sub_delay[e.to] as i128) {
            return Err(MdrError::CombinationalCycle);
        }
        // NOTE: a zero-weight cycle whose nodes all have delay 0 contributes
        // ratio 0/0; it is ignored, matching the convention that only
        // registered loops constrain the clock. An SCC with no cycle of
        // positive ratio therefore still gives the ratio 0.
        let floor = *best.get_or_insert(Ratio::new(0, 1));
        if exceeds_scaled(&sub, &sub_delay, floor.num as i128, floor.den as i128) {
            best = Some(stern_brocot(&sub, &sub_delay));
        }
    }
    best.ok_or(MdrError::Acyclic)
}

/// The exact maximum cycle ratio of `g`, which must be positive and
/// finite.
///
/// Accelerated Stern–Brocot search. Invariant: lo < λ* < hi, where
/// hi = 1/0 plays the role of +infinity. Each step tests the mediant m:
///   λ* > m   → move lo (with exponential run acceleration),
///   λ* == m  → done,
///   λ* < m   → move hi (same acceleration).
fn stern_brocot(g: &Digraph, delay: &[i64]) -> Ratio {
    let mut lo: (i128, i128) = (0, 1);
    let mut hi: (i128, i128) = (1, 0);
    loop {
        let m = (lo.0 + hi.0, lo.1 + hi.1);
        if exceeds_scaled(g, delay, m.0, m.1) {
            // Largest k >= 1 with λ* > lo + k·hi (mediant repeated k times).
            let k = run_length(|k| {
                let cand = (lo.0 + k * hi.0, lo.1 + k * hi.1);
                exceeds_scaled(g, delay, cand.0, cand.1)
            });
            lo = (lo.0 + k * hi.0, lo.1 + k * hi.1);
        } else if reaches_scaled(g, delay, m.0, m.1) {
            let g2 = gcd128(m.0, m.1);
            return Ratio::new((m.0 / g2) as i64, (m.1 / g2) as i64);
        } else {
            // Largest k >= 1 with λ* < hi + k·lo.
            let k = run_length(|k| {
                let cand = (hi.0 + k * lo.0, hi.1 + k * lo.1);
                !reaches_scaled(g, delay, cand.0, cand.1)
            });
            hi = (hi.0 + k * lo.0, hi.1 + k * lo.1);
        }
    }
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs().max(1)
}

/// Largest `k >= 1` such that `pred(k)` holds, assuming `pred(1)` holds and
/// `pred` is monotone (true then false). Exponential search + binary search.
fn run_length(pred: impl Fn(i128) -> bool) -> i128 {
    debug_assert!(pred(1));
    let mut hi = 2i128;
    while pred(hi) {
        hi *= 2;
    }
    let mut lo = hi / 2; // pred(lo) true, pred(hi) false
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(n: usize) -> Vec<i64> {
        vec![1; n]
    }

    #[test]
    fn ratio_normalizes() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::new(0, 3));
        assert!(Ratio::new(3, 2) > Ratio::new(4, 3));
        assert_eq!(Ratio::new(7, 3).ceil(), 3);
        assert_eq!(Ratio::new(6, 3).ceil(), 2);
        assert_eq!(Ratio::new(0, 1).ceil(), 0);
        assert_eq!(Ratio::new(1, 2).to_string(), "1/2");
        assert_eq!(Ratio::new(4, 2).to_string(), "2");
        assert_eq!(Ratio::integer(5), Ratio::new(5, 1));
    }

    #[test]
    fn acyclic_is_error() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1, 1);
        assert_eq!(max_cycle_ratio(&g, &delays(2)), Err(MdrError::Acyclic));
    }

    #[test]
    fn combinational_cycle_is_error() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 0, 0);
        assert_eq!(
            max_cycle_ratio(&g, &delays(2)),
            Err(MdrError::CombinationalCycle)
        );
    }

    #[test]
    fn zero_delay_combinational_cycle_is_ignored() {
        // Zero-weight cycle whose nodes have delay 0, plus a registered loop.
        let mut g = Digraph::new(3);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 0, 0);
        g.add_edge(2, 2, 1);
        assert_eq!(max_cycle_ratio(&g, &[0, 0, 1]), Ok(Ratio::new(1, 1)));
    }

    #[test]
    fn single_registered_self_loop() {
        let mut g = Digraph::new(1);
        g.add_edge(0, 0, 1);
        assert_eq!(max_cycle_ratio(&g, &delays(1)), Ok(Ratio::new(1, 1)));
    }

    #[test]
    fn picks_the_worse_of_two_loops() {
        let mut g = Digraph::new(3);
        // loop A: nodes 0,1 delay 2, regs 1 => ratio 2
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 0);
        // loop B: nodes 0,2 delay 2, regs 2 => ratio 1
        g.add_edge(0, 2, 1);
        g.add_edge(2, 0, 1);
        assert_eq!(max_cycle_ratio(&g, &delays(3)), Ok(Ratio::new(2, 1)));
    }

    #[test]
    fn fractional_ratio() {
        // 3 nodes, 2 registers on the loop: ratio 3/2.
        let mut g = Digraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 0);
        assert_eq!(max_cycle_ratio(&g, &delays(3)), Ok(Ratio::new(3, 2)));
    }

    #[test]
    fn ratio_with_custom_delays() {
        // one loop: delays 5 + 1, 3 registers => 2.
        let mut g = Digraph::new(2);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 0, 1);
        assert_eq!(max_cycle_ratio(&g, &[5, 1]), Ok(Ratio::new(2, 1)));
    }

    #[test]
    fn zero_delay_cycle_gives_zero() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 1);
        assert_eq!(max_cycle_ratio(&g, &[0, 0]), Ok(Ratio::new(0, 1)));
    }

    #[test]
    fn large_integer_ratio() {
        // Self-loop with delay 1000 and one register: ratio 1000. Exercises
        // the exponential run acceleration (1000 Stern–Brocot steps folded
        // into ~20 oracle calls).
        let mut g = Digraph::new(1);
        g.add_edge(0, 0, 1);
        assert_eq!(max_cycle_ratio(&g, &[1000]), Ok(Ratio::new(1000, 1)));
    }

    #[test]
    fn small_fraction_near_zero() {
        // 1 unit of delay over 997 registers.
        let mut g = Digraph::new(2);
        g.add_edge(0, 1, 500);
        g.add_edge(1, 0, 497);
        assert_eq!(max_cycle_ratio(&g, &[1, 0]), Ok(Ratio::new(1, 997)));
    }

    #[test]
    fn exceeds_and_reaches() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 0);
        let d = delays(3);
        assert!(exceeds_ratio(&g, &d, Ratio::new(1, 1)));
        assert!(!exceeds_ratio(&g, &d, Ratio::new(3, 2)));
        assert!(reaches_ratio(&g, &d, Ratio::new(3, 2)));
        assert!(!reaches_ratio(&g, &d, Ratio::new(2, 1)));
    }

    #[test]
    fn max_over_separate_sccs() {
        // Loop {0,1}: delay 2, 1 register => 2. Loop {3,4}: delay 2, 2
        // registers => 1. A bridge through 2 joins them in either order.
        for forward in [true, false] {
            let mut g = Digraph::new(5);
            g.add_edge(0, 1, 1);
            g.add_edge(1, 0, 0);
            g.add_edge(3, 4, 1);
            g.add_edge(4, 3, 1);
            let (a, b) = if forward { (1, 3) } else { (4, 0) };
            g.add_edge(a, 2, 0);
            g.add_edge(2, b, 0);
            assert_eq!(max_cycle_ratio(&g, &delays(5)), Ok(Ratio::new(2, 1)));
        }
    }

    #[test]
    fn dag_plus_far_loop() {
        // A loop reachable only through a long feed-forward chain.
        let mut g = Digraph::new(6);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 2, 0);
        g.add_edge(2, 3, 0);
        g.add_edge(3, 4, 1);
        g.add_edge(4, 5, 1);
        g.add_edge(5, 3, 1);
        // loop {3,4,5}: delay 3, regs 3 => 1.
        assert_eq!(max_cycle_ratio(&g, &delays(6)), Ok(Ratio::new(1, 1)));
    }

    /// Brute-force check on random small graphs: enumerate simple cycles.
    #[test]
    fn matches_bruteforce_on_random_graphs() {
        let mut rng = crate::rng::StdRng::seed_from_u64(0xC0FFEE);
        for trial in 0..80 {
            let n = rng.random_range(2..7);
            let m = rng.random_range(1..12);
            let mut g = Digraph::new(n);
            for _ in 0..m {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                let w = rng.random_range(1..4);
                g.add_edge(a, b, w);
            }
            let delay: Vec<i64> = (0..n).map(|_| rng.random_range(0..5)).collect();
            let brute = brute_force_mdr(&g, &delay);
            let fast = max_cycle_ratio(&g, &delay);
            match (brute, fast) {
                (None, Err(MdrError::Acyclic)) => {}
                (Some(b), Ok(f)) => {
                    assert_eq!(b, f, "trial {trial}: brute {b} vs fast {f}");
                }
                (b, f) => panic!("trial {trial}: mismatch brute {b:?} fast {f:?}"),
            }
        }
    }

    /// Enumerates all simple cycles by DFS (small n only). Returns the best
    /// ratio over cycles with at least one register; `None` if acyclic.
    /// Graphs passed in have every weight >= 1, so zero-register cycles do
    /// not occur.
    fn brute_force_mdr(g: &Digraph, delay: &[i64]) -> Option<Ratio> {
        let n = g.node_count();
        let mut best: Option<Ratio> = None;

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            g: &Digraph,
            delay: &[i64],
            start: usize,
            v: usize,
            d: i64,
            w: i64,
            on_path: &mut Vec<bool>,
            best: &mut Option<Ratio>,
        ) {
            for e in g.out_edges(v) {
                if e.to == start {
                    let cw = w + e.weight;
                    if cw > 0 {
                        let r = Ratio::new(d, cw);
                        if !best.is_some_and(|b| r <= b) {
                            *best = Some(r);
                        }
                    }
                } else if e.to > start && !on_path[e.to] {
                    on_path[e.to] = true;
                    dfs(
                        g,
                        delay,
                        start,
                        e.to,
                        d + delay[e.to],
                        w + e.weight,
                        on_path,
                        best,
                    );
                    on_path[e.to] = false;
                }
            }
        }

        let mut on_path = vec![false; n];
        for s in 0..n {
            on_path[s] = true;
            dfs(g, delay, s, s, delay[s], 0, &mut on_path, &mut best);
            on_path[s] = false;
        }
        best
    }
}
