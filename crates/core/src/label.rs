//! Iterative label computation (Sections 3.2–3.4 of the paper).
//!
//! For a target MDR ratio φ, each node's **label** is the least root
//! height over all LUTs that can be rooted at it in any mapping solution
//! meeting φ. Labels are computed as in TurboMap \[11\]: lower bounds
//! start at 1 (0 for PIs) and are raised iteratively —
//!
//! ```text
//!   L(v)     = max{ l(u) − φ·w(e) | e(u, v) ∈ G }
//!   l_new(v) = L(v)      if some K-cut of E_v has height <= L(v)
//!                        (flow test), or — TurboSYN only — the cut
//!                        function resynthesizes to root label L(v)
//!              L(v) + 1  otherwise
//! ```
//!
//! φ is feasible iff the bounds converge; an infeasible φ shows up as a
//! positive loop whose labels grow forever, detected either by the
//! paper's predecessor-graph PLD test ([`crate::pld`]) or by the
//! conservative `n²` sweep bound of SeqMapII (kept for the speed
//! comparison experiment). SCCs are processed in topological order, as
//! required by the paper's Theorem 2.

use crate::budget::{Budget, DegradeEvent, Gauge, Interrupted};
use crate::cache::{LineageKey, SessionCaches};
use crate::expand::{ExpScratch, ExpandFail, ExpandLimits, Expansion, Scratch};
use crate::pld::{PldProbe, PldVerdict};
use std::sync::atomic::{AtomicBool, Ordering};
use turbosyn_graph::scc::condensation;
use turbosyn_netlist::{Circuit, NodeId, NodeKind};

/// Stopping criterion for infeasible targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// The paper's positive-loop detection: predecessor-graph isolation,
    /// checked after every sweep, with the 6n-per-SCC theorem bound as a
    /// backstop.
    Pld,
    /// SeqMapII's conservative bound: give up after `n²` sweeps of the
    /// SCC.
    NSquared,
}

/// Options for one label computation.
#[derive(Debug, Clone, Copy)]
pub struct LabelOptions {
    /// LUT input count K.
    pub k: usize,
    /// Target MDR ratio φ (integer; the binary search probes integers).
    pub phi: i64,
    /// Enable sequential functional decomposition (TurboSYN); disabled =
    /// TurboMap.
    pub resynthesis: bool,
    /// Infeasibility stopping rule.
    pub stop: StopRule,
    /// Expansion truncation limits.
    pub expand: ExpandLimits,
    /// Cut-size cap for resynthesis min-cuts (the paper uses 15). Cut
    /// functions are decomposed as truth tables of at most 16 inputs, so
    /// a resynthesis cut wider than 16 ends the descent as "no
    /// realization"; [`MapOptions`](crate::MapOptions) rejects
    /// `cmax > 16` outright.
    pub cmax: usize,
    /// Maximum encoding wires per extraction: 1 = the paper's
    /// single-output decomposition; 2 = the Roth–Karp multi-output
    /// extension the paper lists as future work.
    pub max_wires: usize,
    /// Label relaxation during mapping generation (the paper's first area
    /// technique): re-realize resynthesized roots as plain cuts at relaxed
    /// heights where consumer budgets allow.
    pub relax: bool,
    /// Worker threads for the per-sweep label updates. `1` (the default)
    /// runs serially; any value produces bit-identical labels — within a
    /// sweep every candidate is computed from the *frozen* previous-sweep
    /// labels (Jacobi style) and merged back in node order.
    pub jobs: usize,
    /// Disable the delta-driven worklist and re-evaluate every pending
    /// SCC member on every sweep (the pre-worklist behaviour). Labels
    /// are bit-identical either way — skipping a node whose relevant
    /// labels did not change re-derives the exact same candidate — so
    /// this knob exists for A/B comparison (the fixpoint property test
    /// and the `probe_ladder` bench), not correctness.
    pub full_sweeps: bool,
    /// Reuse the converged labels of an earlier feasible probe at a
    /// ratio `>= phi` as starting lower bounds (labels are anti-monotone
    /// in φ, so they are sound ones — see [`crate::cache`]). Converges
    /// to the same fixpoint as a cold start; off only for A/B
    /// comparison.
    pub warm_start: bool,
}

impl LabelOptions {
    /// TurboMap-style options (no resynthesis) at the given K and φ.
    pub fn turbomap(k: usize, phi: i64) -> Self {
        LabelOptions {
            k,
            phi,
            resynthesis: false,
            stop: StopRule::Pld,
            expand: ExpandLimits::default(),
            cmax: 15,
            max_wires: 1,
            relax: true,
            jobs: 1,
            full_sweeps: false,
            warm_start: true,
        }
    }

    /// TurboSYN-style options (resynthesis on) at the given K and φ.
    pub fn turbosyn(k: usize, phi: i64) -> Self {
        LabelOptions {
            resynthesis: true,
            ..LabelOptions::turbomap(k, phi)
        }
    }
}

/// Counters describing one label computation (drives the PLD speedup
/// experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Full sweeps over SCC members.
    pub sweeps: u64,
    /// Flow-based K-cut tests performed.
    pub cut_tests: u64,
    /// Resynthesis attempts (min-cut + decomposition descents).
    pub resyn_attempts: u64,
    /// Resynthesis attempts that achieved the lower label.
    pub resyn_successes: u64,
    /// Pending candidates the worklist proved quiescent (no relevant
    /// label rose since their last evaluation) and skipped — each one a
    /// cut test the full-sweep engine would have re-run.
    pub candidates_skipped: u64,
    /// Probes that drew on the engine's lineage instead of starting at
    /// the floor: warm starts from a feasible probe at a larger φ, and
    /// outright replays of an exact `(key, φ)` verdict (zero sweeps).
    pub warm_started_probes: u64,
    /// Positive-loop checks answered by the grounded fast path (a
    /// floor-labelled SCC member) without a reachability query.
    pub pld_checks_skipped: u64,
}

impl LabelStats {
    /// The counter increments between `earlier` and `self`. Saturating,
    /// so a reset between the snapshots yields post-reset totals rather
    /// than underflowed garbage.
    #[must_use]
    pub fn delta_since(&self, earlier: LabelStats) -> LabelStats {
        LabelStats {
            sweeps: self.sweeps.saturating_sub(earlier.sweeps),
            cut_tests: self.cut_tests.saturating_sub(earlier.cut_tests),
            resyn_attempts: self.resyn_attempts.saturating_sub(earlier.resyn_attempts),
            resyn_successes: self.resyn_successes.saturating_sub(earlier.resyn_successes),
            candidates_skipped: self
                .candidates_skipped
                .saturating_sub(earlier.candidates_skipped),
            warm_started_probes: self
                .warm_started_probes
                .saturating_sub(earlier.warm_started_probes),
            pld_checks_skipped: self
                .pld_checks_skipped
                .saturating_sub(earlier.pld_checks_skipped),
        }
    }
}

impl std::ops::Add for LabelStats {
    type Output = LabelStats;

    fn add(self, rhs: LabelStats) -> LabelStats {
        LabelStats {
            sweeps: self.sweeps + rhs.sweeps,
            cut_tests: self.cut_tests + rhs.cut_tests,
            resyn_attempts: self.resyn_attempts + rhs.resyn_attempts,
            resyn_successes: self.resyn_successes + rhs.resyn_successes,
            candidates_skipped: self.candidates_skipped + rhs.candidates_skipped,
            warm_started_probes: self.warm_started_probes + rhs.warm_started_probes,
            pld_checks_skipped: self.pld_checks_skipped + rhs.pld_checks_skipped,
        }
    }
}

/// Result of a label computation.
#[derive(Debug, Clone)]
pub enum LabelOutcome {
    /// φ is feasible: a mapping with MDR ratio `<= φ` exists. Labels are
    /// the converged per-node values (PIs 0).
    Feasible {
        /// Converged node labels.
        labels: Vec<i64>,
        /// Work counters.
        stats: LabelStats,
    },
    /// φ is infeasible: some loop cannot meet it in any mapping.
    Infeasible {
        /// Work counters (shows how fast infeasibility was detected).
        stats: LabelStats,
        /// Size of the SCC where the positive loop was detected.
        scc_size: usize,
    },
}

impl LabelOutcome {
    /// Work counters of either outcome.
    pub fn stats(&self) -> LabelStats {
        match self {
            LabelOutcome::Feasible { stats, .. } | LabelOutcome::Infeasible { stats, .. } => *stats,
        }
    }

    /// True if the target ratio was feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, LabelOutcome::Feasible { .. })
    }
}

/// One label update for node `v` (already knowing `big_l = L(v)`):
/// returns the new label and whether resynthesis was the enabler.
/// Exposed crate-wide so mapping generation replays the same decision.
///
/// When `deps` is given, every *successfully built* expansion consulted
/// along the way contributes its original-node set to it. That set is
/// exactly the label support of this evaluation: the verdict is a
/// deterministic function of the labels of those nodes (plus `v`'s
/// direct fanins, which determine `big_l`). The worklist engine
/// re-evaluates `v` only when one of these labels rises.
///
/// Budget interruptions abort the whole probe (`Err`) — they never alter
/// the label decision itself, which keeps governed and ungoverned runs
/// decision-identical up to the abort point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn label_candidate(
    c: &Circuit,
    v: usize,
    big_l: i64,
    labels: &[i64],
    opts: &LabelOptions,
    stats: &mut LabelStats,
    gauge: &Gauge,
    caches: &SessionCaches,
    scratch: &mut Scratch,
    mut deps: Option<&mut Vec<usize>>,
) -> Result<i64, Interrupted> {
    // Flow test: K-cut of height <= L(v)?
    stats.cut_tests += 1;
    let Some(exp) = build_charged(c, v, big_l, labels, opts, gauge, &mut scratch.exp)? else {
        return Ok(big_l + 1);
    };
    if let Some(d) = deps.as_deref_mut() {
        d.extend(exp.nodes.iter().map(|n| n.orig));
    }
    let cut = {
        let _t = gauge.trace().hot("flow.min_cut");
        exp.min_cut_in(opts.k, &mut scratch.cut)
    };
    if cut.is_some() {
        return Ok(big_l);
    }
    if opts.resynthesis {
        stats.resyn_attempts += 1;
        if resyn_realization(c, v, big_l, labels, opts, gauge, caches, scratch, deps)?.is_some() {
            stats.resyn_successes += 1;
            return Ok(big_l);
        }
    }
    Ok(big_l + 1)
}

/// Builds `E_v` at `height` into `arena` and charges its node count to
/// the gauge; `Ok(None)` when the expansion fails (a PI must be inside
/// the cone).
#[allow(clippy::too_many_arguments)]
fn build_charged<'a>(
    c: &Circuit,
    v: usize,
    height: i64,
    labels: &[i64],
    opts: &LabelOptions,
    gauge: &Gauge,
    arena: &'a mut ExpScratch,
) -> Result<Option<&'a Expansion>, Interrupted> {
    let built = {
        let _t = gauge.trace().hot("expand");
        arena.build(c, v, opts.phi, labels, height, opts.expand)
    };
    match built {
        Ok(exp) => {
            gauge.charge(exp.nodes.len() as u64)?;
            Ok(Some(exp))
        }
        Err(ExpandFail::PiMustBeInside) => Ok(None),
    }
}

/// The paper's LabelUpdateSYN descent (Figure 3): min-cuts of height
/// `L(v) − h` for growing `h`, capped at `Cmax` inputs, each tried for
/// decomposition to root label `L(v)`. Returns the realization so that
/// mapping generation can replay the exact same decision.
///
/// The expansion last built into `scratch.exp` must be `E_v` at height
/// `L(v)`, as the caller's flow test leaves it; it serves as the `h = 0`
/// step and is charged to the gauge again, so work budgets trip at the
/// same expansion as when every step was built (and charged) on its own.
/// Each later step is rebuilt in place.
///
/// A decomposition error (a cut wider than 16 inputs, or a bound-set
/// window wider than [`MAX_BOUND`](crate::seqdecomp::MAX_BOUND) at
/// K >= 13) ends the descent as "no realization" rather than aborting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resyn_realization(
    c: &Circuit,
    v: usize,
    big_l: i64,
    labels: &[i64],
    opts: &LabelOptions,
    gauge: &Gauge,
    caches: &SessionCaches,
    scratch: &mut Scratch,
    mut deps: Option<&mut Vec<usize>>,
) -> Result<Option<crate::seqdecomp::Realization>, Interrupted> {
    // Consecutive descent heights often yield the same min-cut; skip the
    // (expensive) decomposition retry when nothing changed.
    let mut last_cut: Option<Vec<(usize, i64)>> = None;
    for h in 0..64 {
        let exp = if h == 0 {
            let exp = scratch.exp.expansion();
            gauge.charge(exp.nodes.len() as u64)?;
            exp
        } else {
            let Some(exp) = build_charged(c, v, big_l - h, labels, opts, gauge, &mut scratch.exp)?
            else {
                return Ok(None);
            };
            if let Some(d) = deps.as_deref_mut() {
                d.extend(exp.nodes.iter().map(|n| n.orig));
            }
            exp
        };
        let cut = {
            let _t = gauge.trace().hot("flow.min_cut");
            exp.min_cut_in(opts.cmax, &mut scratch.cut)
        };
        let Some(cut) = cut else {
            return Ok(None); // cut-size > Cmax (give up)
        };
        if cut.len() <= opts.k && exp.cut_height(&cut, opts.phi, labels) <= big_l {
            // Narrow enough already (the deeper min-cut shrank below K).
            return Ok(crate::seqdecomp::Realization::from_cut(exp, c, &cut).ok());
        }
        let mut key: Vec<(usize, i64)> = cut
            .iter()
            .map(|&xi| (exp.nodes[xi].orig, exp.nodes[xi].weight))
            .collect();
        key.sort_unstable();
        if last_cut.as_ref() == Some(&key) {
            continue; // identical cut function and criticalities: same verdict
        }
        last_cut = Some(key);
        let resyn = {
            let _t = gauge.trace().hot("seqdecomp");
            crate::seqdecomp::resynthesize_cached(
                exp,
                c,
                &cut,
                opts.phi,
                labels,
                big_l,
                opts.k,
                opts.max_wires,
                &caches.decomp,
            )
        };
        match resyn {
            Ok(Some(r)) => return Ok(Some(r)),
            Ok(None) => {}
            Err(_) => return Ok(None),
        }
    }
    Ok(None)
}

/// Runs the iterative label computation for target ratio `opts.phi`.
///
/// Convenience wrapper over [`compute_labels_governed`] with an
/// unlimited budget — it can never be interrupted.
///
/// # Panics
///
/// Panics if the circuit is invalid or not K-bounded for `opts.k`.
pub fn compute_labels(c: &Circuit, opts: &LabelOptions) -> LabelOutcome {
    let gauge = Gauge::new(Budget::default());
    compute_labels_governed(c, opts, &gauge).expect("an unlimited budget never interrupts")
}

/// Runs the iterative label computation for target ratio `opts.phi`
/// under a resource [`Gauge`].
///
/// Governance is polled once per sweep and charged per expanded node,
/// so overshoot past an exhausted budget is bounded by a single sweep.
/// Two degradations are *soundness-preserving* (they can only declare a
/// feasible φ infeasible, never the reverse, so the binary search above
/// settles on a φ whose labels genuinely converged):
///
/// - `max_sweeps` in the gauge's budget caps total sweeps for this call
///   (noted as [`DegradeEvent::SweepCap`]);
/// - a PLD isolation signal that oscillates more often than the
///   detection window allows is treated as an anomaly: PLD is disabled
///   for that SCC (noted as [`DegradeEvent::PldAnomaly`]) and the
///   conservative `n²` sweep bound becomes the stopping rule.
///
/// # Errors
///
/// [`Interrupted`] when the gauge's cancel token fires, its deadline
/// expires, or its work budget runs out.
///
/// # Panics
///
/// Panics if the circuit is invalid or not K-bounded for `opts.k`.
pub fn compute_labels_governed(
    c: &Circuit,
    opts: &LabelOptions,
    gauge: &Gauge,
) -> Result<LabelOutcome, Interrupted> {
    let caches = SessionCaches::new();
    compute_labels_with(c, opts, gauge, &caches)
}

/// [`compute_labels_governed`] against caller-owned [`SessionCaches`]
/// (the engine's, shared across probes and runs).
///
/// ## The parallel sweep
///
/// The classic TurboMap sweep is Gauss–Seidel: each node's update reads
/// the labels its SCC neighbours got *earlier in the same sweep*. To run
/// updates concurrently, each sweep here is **Jacobi-style** instead:
/// every pending node's candidate is computed from the frozen labels of
/// the previous sweep, then all raises are merged back in node order.
/// Both iterations are chaotic iterations of the same monotone operator,
/// so they converge to the same least fixpoint — labels (and hence
/// feasibility and the final mapping) are identical, only the sweep
/// *count* differs from the Gauss–Seidel implementation. The `n²` and
/// PLD stopping arguments are per-sweep properties and hold unchanged.
///
/// Because tasks read only frozen labels and results are merged in task
/// order, the outcome is bit-identical for every `opts.jobs` value. A
/// worker hitting a budget interruption aborts the pool; the error
/// reported is re-derived from the gauge's sticky state so that the
/// *kind* of interruption is deterministic even though which worker
/// tripped first is not.
///
/// ## The delta-driven worklist
///
/// Unless [`LabelOptions::full_sweeps`] asks for the old behaviour, a
/// sweep only re-evaluates SCC members whose **label support** gained a
/// raise in the previous round. The support of `v`'s last evaluation is
/// the set recorded by [`label_candidate`]: the original nodes of every
/// expansion it built, plus `v`'s direct fanins. If none of those labels
/// rose, the evaluation would replay verbatim (an expansion's BFS reads
/// the labels of exactly the nodes it materializes, so each build is a
/// deterministic function of those labels) and produce the same
/// candidate, which by monotonicity cannot raise `labels[v]` again.
/// Hence the skipped and unskipped engines raise identical label sets
/// in every round, take the same number of sweeps, and converge to the
/// same least fixpoint — the worklist only removes provably-redundant
/// work. Direct fanins alone would *not* be a sound dirtiness signal: a
/// raise deep inside `v`'s expansion can flip a flow verdict (by turning
/// a node must-inside) without touching any direct fanin.
///
/// ## Warm-started probes
///
/// With [`LabelOptions::warm_start`], a probe first adopts the converged
/// labels of the engine's tightest feasible probe at a ratio
/// `φ' >= φ` (same [`LineageKey`]). Labels are anti-monotone in φ —
/// relaxing the ratio can only lower the fixpoint — so those labels are
/// `<=` this probe's least fixpoint pointwise, and chaotic iteration
/// started anywhere below the least fixpoint of a monotone inflationary
/// operator still converges exactly to it (Knaster–Tarski: every
/// iterate stays `<=` lfp by induction, and a terminating iterate is a
/// prefixpoint `<=` lfp, hence equal). Feasibility verdicts and final
/// labels are therefore identical to a cold start; only the sweep count
/// shrinks.
///
/// Two special cases of lineage short past warm-starting to an outright
/// **replay**: a probe at exactly a stored feasible `(key, φ)` returns
/// the stored labels (they are the fixpoint of a deterministic
/// computation), and a probe at a stored infeasible `(key, stop, φ)`
/// returns the stored verdict with its SCC size. Both finish with zero
/// sweeps and zero cut tests, which is what makes re-running a binary
/// search on a warm engine — the serve daemon's resubmission pattern —
/// nearly free. Sweep-cap degrades are never recorded as infeasible
/// marks (they depend on the caller's budget, not the circuit), so a
/// replayed verdict always matches what a cold ungoverned run decides.
/// Conversely, a probe under a `max_sweeps` budget reads no lineage at
/// all (no replay, no warm start): its sweep count, and hence whether
/// the cap trips, is then the cold run's, whatever the engine ran
/// before.
pub(crate) fn compute_labels_with(
    c: &Circuit,
    opts: &LabelOptions,
    gauge: &Gauge,
    caches: &SessionCaches,
) -> Result<LabelOutcome, Interrupted> {
    caches.bind(c);
    let outcome = compute_labels_inner(c, opts, gauge, caches)?;
    caches.note_label_stats(outcome.stats());
    if opts.warm_start {
        match &outcome {
            LabelOutcome::Feasible { labels, .. } => {
                caches.store_lineage(lineage_key(opts), opts.phi, labels);
            }
            LabelOutcome::Infeasible { scc_size, .. } => {
                // Only verdicts that reached their own stopping rule are
                // replayable: with a `max_sweeps` budget in force the
                // outcome may be a conservative sweep-cap degrade, which
                // depends on the caller's budget rather than the circuit.
                if gauge.budget().max_sweeps.is_none() {
                    caches.store_infeasible(lineage_key(opts), opts.stop, opts.phi, *scc_size);
                }
            }
        }
    }
    Ok(outcome)
}

/// The label-configuration identity under which converged labels may be
/// reused across φ probes (see [`LineageKey`] for what is excluded).
fn lineage_key(opts: &LabelOptions) -> LineageKey {
    LineageKey {
        k: opts.k,
        resynthesis: opts.resynthesis,
        slack: opts.expand.slack,
        max_nodes: opts.expand.max_nodes,
        cmax: opts.cmax,
        max_wires: opts.max_wires,
    }
}

fn compute_labels_inner(
    c: &Circuit,
    opts: &LabelOptions,
    gauge: &Gauge,
    caches: &SessionCaches,
) -> Result<LabelOutcome, Interrupted> {
    c.validate().expect("circuit must be valid");
    assert!(
        c.is_k_bounded(opts.k),
        "circuit must be {}-bounded (run kbound::decompose_to_k first)",
        opts.k
    );
    let n = c.node_count();
    let g = c.to_digraph();
    let mut labels = vec![0i64; n];
    let mut is_gate = vec![false; n];
    let mut is_anchor = vec![false; n];
    for id in c.node_ids() {
        match c.node(id).kind {
            NodeKind::Gate(_) => {
                labels[id.index()] = 1;
                is_gate[id.index()] = true;
            }
            NodeKind::Input => is_anchor[id.index()] = true,
            NodeKind::Output => {}
        }
    }

    let mut stats = LabelStats::default();
    // A `max_sweeps` budget counts the sweeps of this call, so a probe
    // under it reads no lineage: a replay or warm start would take fewer
    // sweeps than a cold run and make the budgeted outcome depend on what
    // the engine ran before.
    if opts.warm_start && gauge.budget().max_sweeps.is_none() {
        let key = lineage_key(opts);
        // Exact-φ replay: a probe that already ran to completion under
        // this key on this circuit is a deterministic function replay.
        // The stored labels *are* the fixpoint (and the stored SCC size
        // *is* the verdict), so the probe finishes with zero sweeps —
        // this is what makes a resubmitted binary search nearly free.
        if let Some(prev) = caches.exact_lineage(&key, opts.phi, n) {
            stats.warm_started_probes += 1;
            return Ok(LabelOutcome::Feasible {
                labels: prev,
                stats,
            });
        }
        if let Some(scc_size) = caches.infeasible_verdict(&key, opts.stop, opts.phi) {
            stats.warm_started_probes += 1;
            return Ok(LabelOutcome::Infeasible { stats, scc_size });
        }
        if let Some(prev) = caches.lineage_labels(&key, opts.phi, n) {
            // Adopt the earlier feasible probe's labels as starting lower
            // bounds (anti-monotone in φ, see the caller's docs). Gates
            // only: PIs stay 0 and POs carry no label.
            for v in 0..n {
                if is_gate[v] {
                    labels[v] = labels[v].max(prev[v]);
                }
            }
            stats.warm_started_probes += 1;
        }
    }

    // Opened *after* the warm-start early returns: a fully replayed probe
    // emits no `label.probe` span, which is exactly what the serve
    // `metrics` cold/warm comparison measures.
    let _probe_span = gauge.trace().span("label.probe");
    let cond = condensation(&g);
    let worklist = !opts.full_sweeps;
    // Member-local index of each node (u32::MAX = not in the current
    // SCC); allocated once, reset per SCC.
    let mut local = vec![u32::MAX; n];
    // One scratch per label worker, kept for every sweep of this probe.
    let mut scratches: Vec<Scratch> = Vec::new();

    for sc in 0..cond.count() {
        let members: Vec<usize> = cond.members[sc]
            .iter()
            .copied()
            .filter(|&v| is_gate[v])
            .collect();
        if members.is_empty() {
            continue;
        }
        for (li, &v) in members.iter().enumerate() {
            local[v] = u32::try_from(li).expect("member count fits u32");
        }
        let cyclic = cond.is_cyclic(&g, sc);
        let nn = members.len() as u64;
        // Both stopping rules share the conservative n² backstop; PLD adds
        // the fast path below.
        let sweep_cap: u64 = if cyclic { (nn * nn).max(4) } else { 1 };
        // PLD: predecessor-graph isolation witnesses a positive loop once
        // it *persists* while labels still change. A single isolated sweep
        // can be a transient of a converging computation (the support
        // chains re-anchor on the next sweep), so we require several
        // consecutive isolated-and-changing sweeps. The window is capped
        // so detection stays fast on huge SCCs (the paper's 6n bound is a
        // worst case, not the typical delay); a converging computation
        // exits through the `!changed` check regardless, and PLD/n²
        // agreement is validated by a 180-circuit scan plus every suite
        // row.
        let isolation_trigger = nn.min(32) + 2;
        let mut consecutive_isolated = 0u64;
        // PLD anomaly tracking: an isolation signal that keeps flipping
        // back off is not behaving like a persisting positive loop. After
        // too many flips we stop trusting it for this SCC and fall back to
        // the quadratic sweep bound above.
        let mut isolation_resets = 0u64;
        let mut pld_disabled = false;
        // The incremental PLD probe: non-member anchors are frozen while
        // this SCC sweeps (only member labels mutate), so snapshot them
        // once instead of rescanning the whole graph every check.
        let mut probe = (cyclic && opts.stop == StopRule::Pld)
            .then(|| PldProbe::new(&g, &labels, &is_anchor, &members));

        // Worklist state, member-local: the support set of each member's
        // last evaluation, and which members rose in the previous/current
        // round. Round 0 treats every member as dirty.
        let m = members.len();
        let mut deps: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut raised_prev = vec![false; m];
        let mut raised_cur = vec![false; m];
        let mut round = 0u64;

        let mut sweep = 0u64;
        loop {
            let _sweep_span = gauge.trace().span("label.sweep");
            gauge.check()?;
            sweep += 1;
            stats.sweeps += 1;
            if let Some(cap) = gauge.budget().max_sweeps {
                if stats.sweeps > cap {
                    // Degrade conservatively: report this φ infeasible.
                    // The search settles on a larger φ whose labels
                    // converged within the cap, so the result stays a
                    // verified upper bound.
                    gauge.note(DegradeEvent::SweepCap {
                        phi: opts.phi,
                        scc_size: members.len(),
                    });
                    return Ok(LabelOutcome::Infeasible {
                        stats,
                        scc_size: members.len(),
                    });
                }
            }
            // Gather this sweep's pending updates from the frozen labels:
            // members whose current label might still rise (fast path:
            // the candidate is at most L+1, so `labels[v] > L` is final
            // for now) and — in worklist mode — whose support actually
            // gained a raise last round.
            let mut tasks: Vec<(usize, i64)> = Vec::new();
            for (li, &v) in members.iter().enumerate() {
                let big_l = c
                    .node(NodeId::from_index(v))
                    .fanins
                    .iter()
                    .map(|f| labels[f.source.index()] - opts.phi * i64::from(f.weight))
                    .max()
                    .unwrap_or(0);
                if labels[v] > big_l {
                    continue;
                }
                // An empty support set means "never evaluated" (every
                // evaluated member of a cyclic SCC records at least one
                // in-SCC fanin) — those are always dirty, as is everything
                // in round 0.
                if worklist
                    && round > 0
                    && !deps[li].is_empty()
                    && !deps[li].iter().any(|&d| raised_prev[d as usize])
                {
                    // Quiescent: the last evaluation would replay
                    // verbatim. The full-sweep engine re-runs it anyway.
                    stats.candidates_skipped += 1;
                    continue;
                }
                tasks.push((v, big_l));
            }
            if tasks.is_empty() {
                break; // converged
            }
            let results = run_label_tasks(
                c,
                opts,
                &labels,
                &tasks,
                gauge,
                caches,
                &mut scratches,
                worklist,
            );
            let mut first_err = None;
            for r in &results {
                if let Some(Err(i)) = r {
                    first_err = Some(*i);
                    break;
                }
            }
            if let Some(i) = first_err {
                return Err(normalize_interrupt(gauge, i));
            }
            // Merge raises back in task (= node) order.
            raised_cur.iter_mut().for_each(|r| *r = false);
            let mut changed = false;
            for (&(v, _), r) in tasks.iter().zip(results) {
                let (cand, tstats, tdeps) = r
                    .expect("every task ran: no worker aborted")
                    .expect("errors handled above");
                stats.cut_tests += tstats.cut_tests;
                stats.resyn_attempts += tstats.resyn_attempts;
                stats.resyn_successes += tstats.resyn_successes;
                let li = local[v] as usize;
                let cand = cand.max(1);
                if cand > labels[v] {
                    labels[v] = cand;
                    raised_cur[li] = true;
                    changed = true;
                }
                if worklist {
                    // Replace (not merge) the support set: labels of the
                    // support were unchanged since the last evaluation
                    // (else v would have been dirty), so the new set
                    // subsumes the old decision's reach.
                    let dl = &mut deps[li];
                    dl.clear();
                    dl.extend(
                        c.node(NodeId::from_index(v))
                            .fanins
                            .iter()
                            .filter(|f| local[f.source.index()] != u32::MAX)
                            .map(|f| local[f.source.index()]),
                    );
                    dl.extend(
                        tdeps
                            .iter()
                            .filter(|&&o| local[o] != u32::MAX)
                            .map(|&o| local[o]),
                    );
                    dl.sort_unstable();
                    dl.dedup();
                }
            }
            std::mem::swap(&mut raised_prev, &mut raised_cur);
            round += 1;
            if !changed {
                break; // converged
            }
            if !cyclic {
                // One more pass would be a no-op: members of an acyclic
                // SCC (a single node without self-loop) depend only on
                // upstream, already-converged labels.
                break;
            }
            if opts.stop == StopRule::Pld && !pld_disabled {
                let _pld_span = gauge.trace().span("pld.check");
                let verdict = probe
                    .as_mut()
                    .expect("probe built for cyclic PLD SCCs")
                    .isolated(&g, &labels, opts.phi, &members);
                match verdict {
                    PldVerdict::Isolated => {
                        consecutive_isolated += 1;
                        if consecutive_isolated >= isolation_trigger {
                            return Ok(LabelOutcome::Infeasible {
                                stats,
                                scc_size: members.len(),
                            });
                        }
                    }
                    PldVerdict::Grounded { fast } => {
                        if fast {
                            stats.pld_checks_skipped += 1;
                        }
                        if consecutive_isolated > 0 {
                            isolation_resets += 1;
                            if isolation_resets > isolation_trigger {
                                pld_disabled = true;
                                gauge.note(DegradeEvent::PldAnomaly {
                                    phi: opts.phi,
                                    scc_size: members.len(),
                                });
                            }
                        }
                        consecutive_isolated = 0;
                    }
                }
            }
            if sweep >= sweep_cap {
                return Ok(LabelOutcome::Infeasible {
                    stats,
                    scc_size: members.len(),
                });
            }
        }
        for &v in &members {
            local[v] = u32::MAX;
        }
    }
    Ok(LabelOutcome::Feasible { labels, stats })
}

/// One sweep task's result: the candidate label, the work counters it
/// accumulated, and (worklist mode) the support set of the evaluation as
/// raw original-node indices. `None` slots mean the task never ran
/// because a sibling worker aborted the pool (only possible alongside an
/// `Err`).
type TaskResult = Result<(i64, LabelStats, Vec<usize>), Interrupted>;

/// Runs this sweep's label updates, serially or across a scoped worker
/// pool. The unit of partitioning is the *worklist* — the already
/// filtered pending tasks — not the SCC's node range, so workers stay
/// evenly loaded even when most members are quiescent. Tasks are split
/// into contiguous chunks (one per worker), each worker owns one
/// [`Scratch`] of `scratches` (grown to the worker count on demand and
/// kept by the caller across sweeps), and results land in per-task slots
/// — so the caller merges them in deterministic task order regardless of
/// scheduling.
#[allow(clippy::too_many_arguments)]
fn run_label_tasks(
    c: &Circuit,
    opts: &LabelOptions,
    labels: &[i64],
    tasks: &[(usize, i64)],
    gauge: &Gauge,
    caches: &SessionCaches,
    scratches: &mut Vec<Scratch>,
    collect_deps: bool,
) -> Vec<Option<TaskResult>> {
    let jobs = opts.jobs.max(1).min(tasks.len());
    let mut results: Vec<Option<TaskResult>> = vec![None; tasks.len()];
    if scratches.len() < jobs {
        scratches.resize_with(jobs, Scratch::default);
    }
    if jobs <= 1 {
        let scratch = &mut scratches[0];
        for (&(v, big_l), slot) in tasks.iter().zip(results.iter_mut()) {
            let r = run_one_task(
                c,
                v,
                big_l,
                labels,
                opts,
                gauge,
                caches,
                scratch,
                collect_deps,
            );
            let stop = r.is_err();
            *slot = Some(r);
            if stop {
                break;
            }
        }
        return results;
    }
    let abort = AtomicBool::new(false);
    let chunk = tasks.len().div_ceil(jobs);
    std::thread::scope(|s| {
        let chunks = tasks.chunks(chunk).zip(results.chunks_mut(chunk));
        for ((tchunk, rchunk), scratch) in chunks.zip(scratches.iter_mut()) {
            let abort = &abort;
            s.spawn(move || {
                for (&(v, big_l), slot) in tchunk.iter().zip(rchunk.iter_mut()) {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    let r = run_one_task(
                        c,
                        v,
                        big_l,
                        labels,
                        opts,
                        gauge,
                        caches,
                        scratch,
                        collect_deps,
                    );
                    let stop = r.is_err();
                    if stop {
                        abort.store(true, Ordering::Relaxed);
                    }
                    *slot = Some(r);
                    if stop {
                        return;
                    }
                }
            });
        }
    });
    results
}

/// One worklist task: evaluate `v`'s candidate, collecting the support
/// set when the worklist needs it for dirtiness tracking.
#[allow(clippy::too_many_arguments)]
fn run_one_task(
    c: &Circuit,
    v: usize,
    big_l: i64,
    labels: &[i64],
    opts: &LabelOptions,
    gauge: &Gauge,
    caches: &SessionCaches,
    scratch: &mut Scratch,
    collect_deps: bool,
) -> TaskResult {
    let mut tstats = LabelStats::default();
    let mut tdeps = Vec::new();
    let deps = if collect_deps { Some(&mut tdeps) } else { None };
    label_candidate(
        c,
        v,
        big_l,
        labels,
        opts,
        &mut tstats,
        gauge,
        caches,
        scratch,
        deps,
    )
    .map(|cand| (cand, tstats, tdeps))
}

/// Re-derives the interruption kind from the gauge's sticky state, so
/// the error a parallel sweep reports does not depend on which worker
/// happened to trip first: cancellation and deadline are readable flags,
/// and an exceeded work budget shows in the monotone work counter. Only
/// when none of those explain the abort is the recorded error kept.
fn normalize_interrupt(gauge: &Gauge, recorded: Interrupted) -> Interrupted {
    if let Err(i) = gauge.check() {
        return i;
    }
    if let Some(cap) = gauge.budget().max_work {
        if gauge.work() > cap {
            return Interrupted::WorkExhausted;
        }
    }
    recorded
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::gen;

    #[test]
    fn acyclic_pipeline_feasible_at_one() {
        let c = gen::pipeline(3, 4, 1);
        let out = compute_labels(&c, &LabelOptions::turbomap(5, 1));
        assert!(out.is_feasible());
    }

    #[test]
    fn ring_feasibility_matches_mdr() {
        // ring(6,2): gate-level MDR 3; with K=5 covering up to ... the
        // minimum mapped ratio is ceil over achievable coverings.
        let c = gen::ring(6, 2);
        // phi=3 must be feasible (identity mapping works).
        assert!(compute_labels(&c, &LabelOptions::turbomap(5, 3)).is_feasible());
        // phi large enough is always feasible.
        assert!(compute_labels(&c, &LabelOptions::turbomap(5, 10)).is_feasible());
    }

    #[test]
    fn ring_covering_reduces_ratio() {
        // ring(4,2) with K=5: two XOR gates cover into one LUT with
        // inputs {pi, pi, loop} — 2 LUTs over 2 registers: phi=1 feasible.
        let c = gen::ring(4, 2);
        let out = compute_labels(&c, &LabelOptions::turbomap(5, 1));
        assert!(out.is_feasible(), "K=5 covering reaches ratio 1");
    }

    #[test]
    fn infeasible_phi_detected_by_pld() {
        // figure1: TurboMap cannot reach phi=1 (cuts too wide).
        let c = gen::figure1();
        let out = compute_labels(&c, &LabelOptions::turbomap(5, 1));
        assert!(!out.is_feasible());
    }

    #[test]
    fn turbosyn_fixes_figure1() {
        let c = gen::figure1();
        let out = compute_labels(&c, &LabelOptions::turbosyn(5, 1));
        assert!(out.is_feasible(), "resynthesis reaches phi=1 on figure 1");
        if let LabelOutcome::Feasible { stats, .. } = out {
            assert!(stats.resyn_successes > 0, "resynthesis actually used");
        }
        // And TurboMap agrees at phi=2.
        assert!(compute_labels(&c, &LabelOptions::turbomap(5, 2)).is_feasible());
    }

    #[test]
    fn pld_and_nsquared_agree() {
        for (gates, regs) in [(4usize, 2i64), (6, 2), (5, 1)] {
            let c = gen::ring(gates, regs as usize);
            for phi in 1..=4 {
                let pld = compute_labels(
                    &c,
                    &LabelOptions {
                        stop: StopRule::Pld,
                        ..LabelOptions::turbomap(4, phi)
                    },
                );
                let n2 = compute_labels(
                    &c,
                    &LabelOptions {
                        stop: StopRule::NSquared,
                        ..LabelOptions::turbomap(4, phi)
                    },
                );
                assert_eq!(
                    pld.is_feasible(),
                    n2.is_feasible(),
                    "ring({gates},{regs}) phi={phi}"
                );
            }
        }
    }

    #[test]
    fn pld_is_faster_on_infeasible() {
        let c = gen::figure1();
        let pld = compute_labels(&c, &LabelOptions::turbomap(5, 1));
        let n2 = compute_labels(
            &c,
            &LabelOptions {
                stop: StopRule::NSquared,
                ..LabelOptions::turbomap(5, 1)
            },
        );
        assert!(!pld.is_feasible() && !n2.is_feasible());
        assert!(
            pld.stats().sweeps < n2.stats().sweeps,
            "PLD {} sweeps vs n² {}",
            pld.stats().sweeps,
            n2.stats().sweeps
        );
    }

    #[test]
    fn fsm_has_finite_min_ratio() {
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 3,
            outputs: 2,
            depth: 2,
            seed: 11,
        });
        // Gate-level MDR is an upper bound that must be feasible.
        let ub = turbosyn_retime::period_lower_bound(&c);
        let out = compute_labels(&c, &LabelOptions::turbomap(5, ub));
        assert!(out.is_feasible(), "gate-level bound {ub} must be feasible");
    }

    #[test]
    fn monotone_in_phi() {
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 2,
            outputs: 1,
            depth: 2,
            seed: 3,
        });
        let mut last = false;
        for phi in 1..=6 {
            let f = compute_labels(&c, &LabelOptions::turbomap(4, phi)).is_feasible();
            assert!(!last || f, "feasibility must be monotone in phi");
            last = f;
        }
        assert!(last, "large phi must be feasible");
    }
}
