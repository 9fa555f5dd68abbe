//! The mapping algorithms: TurboSYN and its baselines.
//!
//! * [`turbosyn`] — the paper's contribution: binary search of the
//!   minimum MDR ratio with label computation that folds in sequential
//!   functional decomposition (Figure 4 of the paper).
//! * [`turbomap`] — Cong–Wu ICCD'96: same label framework without
//!   resynthesis (the paper's main baseline).
//! * [`flowsyn_s`] — FlowSYN applied per combinational subcircuit after
//!   cutting the circuit at its flip-flops, then re-merged (the paper's
//!   second baseline, "FlowSYN-s").
//! * [`map_combinational`] — FlowMap / FlowSYN for combinational
//!   networks (FlowMap falls out of the sequential machinery as the
//!   zero-register special case).
//!
//! Every mapper returns a [`MapReport`] whose mapped circuit is verified
//! against the input, and whose final circuit has been retimed and
//! pipelined to the reported clock period.

use crate::area;
use crate::budget::{Budget, Degradation, DegradeEvent, Gauge, Interrupted};
use crate::cache::SessionCaches;
use crate::error::SynthesisError;
use crate::expand::ExpandLimits;
use crate::label::{compute_labels_with, LabelOptions, LabelOutcome, LabelStats, StopRule};
use crate::mapgen::generate_mapping_with;
use crate::verify::verify_mapping;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use turbosyn_netlist::kbound::decompose_to_k;
use turbosyn_netlist::tt::MAX_VARS;
use turbosyn_netlist::{Circuit, Fanin, NodeId, NodeKind};
use turbosyn_retime::{mdr_ratio, period_lower_bound, retime_with_pipelining};

/// Tunables shared by all mappers.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// LUT input count K (the paper's experiments use 5).
    pub k: usize,
    /// Infeasibility stopping rule (PLD on/off — the Section 4 ablation).
    pub stop: StopRule,
    /// Expanded-circuit truncation limits.
    pub expand: ExpandLimits,
    /// Min-cut size cap for resynthesis (the paper uses 15). At most 16:
    /// cut functions are decomposed as truth tables of up to 16 inputs.
    pub cmax: usize,
    /// Encoding wires per resynthesis extraction (1 = the paper's
    /// single-output decomposition; 2 = the multi-output extension).
    pub max_wires: usize,
    /// Label relaxation during mapping generation (the paper's first
    /// area technique).
    pub relax: bool,
    /// Run the packing area pass after mapping.
    pub pack: bool,
    /// Run exact minimum-register retiming (Leiserson–Saxe OPT) on the
    /// final circuit. Quadratic in the LUT count, so off by default and
    /// skipped automatically above
    /// [`turbosyn_retime::minreg::MAX_NODES`] nodes.
    pub minimize_registers: bool,
    /// Cycles of post-mapping co-simulation used for verification.
    pub verify_cycles: usize,
    /// Worker threads for the per-sweep label updates (`--jobs` on the
    /// CLI). `1` runs serially; any value yields bit-identical reports
    /// (see [`crate::label::compute_labels_governed`]).
    pub jobs: usize,
    /// Disable the delta-driven label worklist and re-evaluate every
    /// pending node each sweep (the pre-worklist engine, kept for A/B
    /// comparison — see [`crate::label::LabelOptions::full_sweeps`]).
    /// Reports are bit-identical either way.
    pub full_sweeps: bool,
    /// Warm-start later φ probes from the converged labels of earlier
    /// feasible ones (see [`crate::label::LabelOptions::warm_start`]).
    /// Reports are bit-identical either way.
    pub warm_start: bool,
    /// Resource budget for the whole run: wall clock, expansion work,
    /// labeling sweeps, and a cancel token.
    /// Defaults to unlimited. On exhaustion the mappers degrade to the
    /// best already-verified mapping (reported via
    /// [`MapReport::degradation`]) or fail with a typed
    /// [`SynthesisError`] if no sound result exists yet.
    pub budget: Budget,
    /// Phase-trace sink. Disabled by default (instrumentation compiles
    /// to near-no-ops); attach an enabled sink and drain it after the
    /// run to collect spans, hot-op histograms, and counters. Tracing
    /// never alters any mapping decision or report byte.
    pub trace: turbosyn_trace::TraceSink,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            k: 5,
            stop: StopRule::Pld,
            expand: ExpandLimits::default(),
            cmax: 15,
            max_wires: 1,
            relax: true,
            pack: true,
            minimize_registers: false,
            verify_cycles: 48,
            jobs: 1,
            full_sweeps: false,
            warm_start: true,
            budget: Budget::default(),
            trace: turbosyn_trace::TraceSink::disabled(),
        }
    }
}

impl MapOptions {
    /// Default options at a given K.
    pub fn with_k(k: usize) -> Self {
        MapOptions {
            k,
            ..MapOptions::default()
        }
    }

    fn labels_for(&self, phi: i64, resynthesis: bool) -> LabelOptions {
        LabelOptions {
            k: self.k,
            phi,
            resynthesis,
            stop: self.stop,
            expand: self.expand,
            cmax: self.cmax,
            max_wires: self.max_wires,
            relax: self.relax,
            jobs: self.jobs,
            full_sweeps: self.full_sweeps,
            warm_start: self.warm_start,
        }
    }

    /// Rejects option combinations the engine does not support, instead
    /// of hitting internal assertions later.
    fn validate(&self) -> Result<(), SynthesisError> {
        if !(2..=16).contains(&self.k) {
            return Err(SynthesisError::InvalidInput(format!(
                "K = {} out of the supported range 2..=16",
                self.k
            )));
        }
        if self.cmax > usize::from(MAX_VARS) {
            return Err(SynthesisError::InvalidInput(format!(
                "cmax = {} exceeds the {MAX_VARS}-input truth-table limit",
                self.cmax
            )));
        }
        if !(1..=2).contains(&self.max_wires) {
            return Err(SynthesisError::InvalidInput(format!(
                "max_wires = {} out of the supported range 1..=2",
                self.max_wires
            )));
        }
        if self.jobs == 0 {
            return Err(SynthesisError::InvalidInput(
                "jobs = 0; use 1 for a serial run".into(),
            ));
        }
        Ok(())
    }
}

/// Result of one mapping run.
#[derive(Debug, Clone)]
pub struct MapReport {
    /// Which algorithm produced this report.
    pub algorithm: &'static str,
    /// The minimum MDR ratio found (the paper's Φ column). For acyclic
    /// circuits this is 1 (pipelining alone reaches one LUT level).
    pub phi: i64,
    /// The mapped LUT circuit (after area passes; cycle-accurate
    /// equivalent to the input).
    pub mapped: Circuit,
    /// LUT count of `mapped`.
    pub lut_count: usize,
    /// Register count of `mapped` with output sharing.
    pub register_count: u64,
    /// The mapped circuit after retiming + pipelining.
    pub final_circuit: Circuit,
    /// Clock period of `final_circuit` (equals `max(1, ⌈MDR⌉) <= phi` on
    /// cyclic circuits).
    pub clock_period: i64,
    /// Label-computation work accumulated over every φ probe.
    pub stats: LabelStats,
    /// The (φ, feasible) probes of the binary search, in order.
    pub probes: Vec<(i64, bool)>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// What resource governance cut short, if anything. `None` means the
    /// run was exact; `Some` means the reported φ is a *verified upper
    /// bound* — the mapping is sound and meets it, but a smaller ratio
    /// might have been found with more resources.
    pub degradation: Option<Degradation>,
}

/// Shared driver: binary search the minimum feasible integer φ, map at
/// it, clean up, verify, retime — all under the caller's [`Gauge`].
///
/// Each feasible probe leaves its converged labels in the session's
/// probe-lineage slot; because the search only moves to *smaller* φ
/// after a feasible probe, every later probe can warm-start from them
/// (labels are anti-monotone in φ), collapsing most of its sweeps. The
/// lineage is keyed by the label configuration — the TurboSYN prepass
/// (resynthesis off) can never leak labels into the resynthesis search.
///
/// Degradation protocol: a budget interruption mid-search keeps the best
/// already-proven-feasible φ and reports what was abandoned; with no
/// feasible probe completed yet it becomes a hard
/// [`SynthesisError::BudgetExceeded`]. Cancellation is always hard.
fn drive(
    algorithm: &'static str,
    input: &Circuit,
    opts: &MapOptions,
    resynthesis: bool,
    ub_hint: Option<i64>,
    gauge: &Gauge,
    caches: &SessionCaches,
) -> Result<MapReport, SynthesisError> {
    let start = Instant::now();
    let _drive_span = gauge.trace().span("drive");
    opts.validate()?;
    let c = prepare(input, opts.k)?;
    gauge.check()?; // a pre-cancelled token / zero deadline fails fast

    let mut stats = LabelStats::default();
    let mut probes = Vec::new();

    // Upper bound: the gate-level MDR ceiling (the identity mapping
    // realizes it), or 1 for acyclic circuits.
    let ub = ub_hint
        .unwrap_or_else(|| {
            let _t = gauge.trace().span("period_lower_bound");
            period_lower_bound(&c)
        })
        .max(1);

    let mut best: Option<(i64, Vec<i64>)> = None;
    let mut lo = 1i64;
    let mut hi = ub;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let out = match compute_labels_with(&c, &opts.labels_for(mid, resynthesis), gauge, caches) {
            Ok(out) => out,
            Err(i) => match interrupt_policy(i, best.is_some(), mid, gauge)? {
                // Budget ran out but a verified-feasible φ exists: stop
                // searching and ship that one.
                SearchCut::KeepBest => break,
            },
        };
        stats = add_stats(stats, out.stats());
        probes.push((mid, out.is_feasible()));
        match out {
            LabelOutcome::Feasible { labels, .. } => {
                best = Some((mid, labels));
                hi = mid - 1;
            }
            LabelOutcome::Infeasible { .. } => lo = mid + 1,
        }
    }
    let (phi, labels) = match best {
        Some(b) => b,
        None => {
            // The upper bound must be feasible; probe upwards as a
            // fallback (reachable if ub_hint was too optimistic, or if
            // sweep caps degraded every probe to "infeasible"). Capped:
            // under tight caps nothing may ever converge.
            let mut found = None;
            for phi in (ub + 1)..=(ub + 64) {
                let out =
                    compute_labels_with(&c, &opts.labels_for(phi, resynthesis), gauge, caches)?;
                stats = add_stats(stats, out.stats());
                probes.push((phi, out.is_feasible()));
                if let LabelOutcome::Feasible { labels, .. } = out {
                    found = Some((phi, labels));
                    break;
                }
            }
            match found {
                Some(b) => b,
                None if gauge.budget().max_sweeps.is_some() => {
                    return Err(SynthesisError::BudgetExceeded {
                        what: "labeling sweep cap: no φ probe converged".into(),
                    })
                }
                None => {
                    return Err(SynthesisError::Internal(format!(
                        "no feasible ratio found in [1, {}]",
                        ub + 64
                    )))
                }
            }
        }
    };

    // Mapping generation + verification run to completion even past a
    // deadline: the search already committed to φ, and a verified result
    // beats a wasted run (bounded soft overshoot, documented on Budget).
    let lopts = opts.labels_for(phi, resynthesis);
    let mapped = {
        let _t = gauge.trace().span("mapgen");
        let mut mapped = generate_mapping_with(&c, &labels, &lopts, caches)
            .map_err(|e| SynthesisError::Internal(e.to_string()))?;
        area::sweep(&mut mapped);
        if opts.pack {
            area::pack(&mut mapped, opts.k);
            area::sweep(&mut mapped);
        }
        mapped
    };
    {
        let _t = gauge.trace().span("verify");
        verify_mapping(&c, &mapped, opts.k, phi, opts.verify_cycles)?;
    }

    let _retime_span = gauge.trace().span("retime");
    let rr = retime_with_pipelining(&mapped);
    let final_circuit = finalize_registers(rr.circuit, rr.period, opts);
    Ok(MapReport {
        algorithm,
        phi,
        lut_count: mapped.gate_count(),
        register_count: final_circuit.register_count_shared(),
        clock_period: rr.period,
        final_circuit,
        mapped,
        stats,
        probes,
        elapsed: start.elapsed(),
        degradation: gauge.take_degradation(phi),
    })
}

/// How the φ search reacts to a budget interruption at probe `phi`.
enum SearchCut {
    /// Stop the search and keep the best verified-feasible φ found.
    KeepBest,
}

fn interrupt_policy(
    i: Interrupted,
    have_best: bool,
    phi: i64,
    gauge: &Gauge,
) -> Result<SearchCut, SynthesisError> {
    match i {
        // Cancellation is a hard stop regardless of partial results.
        Interrupted::Cancelled => Err(SynthesisError::Cancelled),
        _ if !have_best => Err(i.into()),
        Interrupted::DeadlineExpired => {
            gauge.note(DegradeEvent::Deadline { phi_abandoned: phi });
            Ok(SearchCut::KeepBest)
        }
        Interrupted::WorkExhausted => {
            gauge.note(DegradeEvent::WorkExhausted { phi_abandoned: phi });
            Ok(SearchCut::KeepBest)
        }
    }
}

/// Optional exact register minimization of the final (already pipelined)
/// circuit; pure retiming, so the period is preserved.
fn finalize_registers(circuit: Circuit, period: i64, opts: &MapOptions) -> Circuit {
    if !opts.minimize_registers || circuit.node_count() > turbosyn_retime::minreg::MAX_NODES {
        return circuit;
    }
    match turbosyn_retime::min_register_retiming(&circuit, period) {
        Some(r) if r.circuit.register_count_shared() < circuit.register_count_shared() => r.circuit,
        _ => circuit,
    }
}

fn add_stats(a: LabelStats, b: LabelStats) -> LabelStats {
    a + b
}

/// K-bounds the input if needed (the paper assumes this preprocessing).
fn prepare(c: &Circuit, k: usize) -> Result<Circuit, SynthesisError> {
    c.validate()
        .map_err(|e| SynthesisError::InvalidInput(e.to_string()))?;
    if c.is_k_bounded(k) {
        Ok(c.clone())
    } else {
        Ok(decompose_to_k(c, k))
    }
}

/// TurboMap \[11\]: performance-optimal mapping with retiming, no
/// resynthesis.
///
/// # Errors
///
/// [`SynthesisError::InvalidInput`] on bad circuits or options;
/// [`SynthesisError::BudgetExceeded`] / [`SynthesisError::Cancelled`]
/// when [`MapOptions::budget`] runs out before any verified mapping
/// exists; [`SynthesisError::Verify`] if the produced mapping fails its
/// own verification (an internal bug, never expected on valid inputs).
pub fn turbomap(c: &Circuit, opts: &MapOptions) -> Result<MapReport, SynthesisError> {
    turbomap_with(c, opts, &SessionCaches::new())
}

pub(crate) fn turbomap_with(
    c: &Circuit,
    opts: &MapOptions,
    caches: &SessionCaches,
) -> Result<MapReport, SynthesisError> {
    let gauge = Gauge::new(opts.budget.clone()).with_trace(opts.trace.clone());
    drive("TurboMap", c, opts, false, None, &gauge, caches)
}

/// TurboSYN (the paper): mapping with retiming, pipelining and
/// sequential functional decomposition. Runs TurboMap's bound first, as
/// in the paper's Figure 4.
///
/// # Errors
///
/// Same contract as [`turbomap`]. The TurboMap prepass and the main
/// search share one budget; a budget cut in the prepass just leaves the
/// search with a looser upper bound.
pub fn turbosyn(c: &Circuit, opts: &MapOptions) -> Result<MapReport, SynthesisError> {
    turbosyn_with(c, opts, &SessionCaches::new())
}

pub(crate) fn turbosyn_with(
    c: &Circuit,
    opts: &MapOptions,
    caches: &SessionCaches,
) -> Result<MapReport, SynthesisError> {
    opts.validate()?;
    // Upper bound from TurboMap's label search (labels only — cheap).
    let prep = prepare(c, opts.k)?;
    let gauge = Gauge::new(opts.budget.clone()).with_trace(opts.trace.clone());
    let tm_ub = {
        let _t = gauge.trace().span("period_lower_bound");
        period_lower_bound(&prep).max(1)
    };
    let mut ub = tm_ub;
    // Find TurboMap's minimum phi to tighten the search range.
    let mut lo = 1;
    let mut hi = tm_ub;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match compute_labels_with(&prep, &opts.labels_for(mid, false), &gauge, caches) {
            Ok(out) if out.is_feasible() => {
                ub = mid;
                hi = mid - 1;
            }
            Ok(_) => lo = mid + 1,
            Err(Interrupted::Cancelled) => return Err(SynthesisError::Cancelled),
            // The prepass only tightens the bound; on exhaustion keep the
            // looser ub and let drive() report the degradation.
            Err(_) => break,
        }
    }
    drive("TurboSYN", c, opts, true, Some(ub), &gauge, caches)
}

/// FlowMap / FlowSYN for a combinational circuit: returns the mapped
/// network and its LUT depth. `resynthesis = true` selects FlowSYN.
///
/// # Errors
///
/// [`SynthesisError::InvalidInput`] if the circuit contains registers or
/// fails validation; otherwise the same contract as [`turbomap`].
pub fn map_combinational(
    c: &Circuit,
    opts: &MapOptions,
    resynthesis: bool,
) -> Result<(Circuit, i64), SynthesisError> {
    map_combinational_with(c, opts, resynthesis, &SessionCaches::new())
}

pub(crate) fn map_combinational_with(
    c: &Circuit,
    opts: &MapOptions,
    resynthesis: bool,
    caches: &SessionCaches,
) -> Result<(Circuit, i64), SynthesisError> {
    opts.validate()?;
    if !c
        .node_ids()
        .all(|id| c.node(id).fanins.iter().all(|f| f.weight == 0))
    {
        return Err(SynthesisError::InvalidInput(
            "map_combinational requires a register-free circuit".into(),
        ));
    }
    let prep = prepare(c, opts.k)?;
    let gauge = Gauge::new(opts.budget.clone()).with_trace(opts.trace.clone());
    // With zero register weights the sequential labeler *is* FlowMap: φ
    // is irrelevant (no weights), and every φ is feasible on a DAG.
    let lopts = opts.labels_for(1, resynthesis);
    let labels = match compute_labels_with(&prep, &lopts, &gauge, caches)? {
        LabelOutcome::Feasible { labels, .. } => labels,
        // Combinational circuits are always feasible; only a sweep cap
        // can degrade the outcome to "infeasible".
        LabelOutcome::Infeasible { .. } => {
            return Err(SynthesisError::BudgetExceeded {
                what: "labeling sweep cap".into(),
            })
        }
    };
    let mut mapped = generate_mapping_with(&prep, &labels, &lopts, caches)
        .map_err(|e| SynthesisError::Internal(e.to_string()))?;
    area::sweep(&mut mapped);
    if opts.pack {
        area::pack(&mut mapped, opts.k);
        area::sweep(&mut mapped);
    }
    verify_mapping(&prep, &mapped, opts.k, i64::MAX, opts.verify_cycles)?;
    let depth = turbosyn_retime::clock_period(&mapped);
    Ok((mapped, depth))
}

/// FlowSYN-s (the paper's Section 5 baseline): cut the sequential circuit
/// at every flip-flop, map each combinational piece with FlowSYN, merge
/// the mapped pieces back with the original registers, then retime and
/// pipeline.
///
/// # Errors
///
/// Same contract as [`turbomap`].
pub fn flowsyn_s(c: &Circuit, opts: &MapOptions) -> Result<MapReport, SynthesisError> {
    flowsyn_s_with(c, opts, &SessionCaches::new())
}

pub(crate) fn flowsyn_s_with(
    c: &Circuit,
    opts: &MapOptions,
    caches: &SessionCaches,
) -> Result<MapReport, SynthesisError> {
    let start = Instant::now();
    opts.validate()?;
    let prep = prepare(c, opts.k)?;
    let gauge = Gauge::new(opts.budget.clone()).with_trace(opts.trace.clone());

    // --- Split at registers -------------------------------------------
    // Pseudo-PI per distinct (source, weight>0) pair; every register
    // source and PO driver becomes a root to map.
    let mut comb = Circuit::new(format!("{}_comb", prep.name()));
    let mut node_map: HashMap<usize, NodeId> = HashMap::new(); // orig -> comb node
    let mut pseudo: HashMap<(usize, u32), NodeId> = HashMap::new(); // (src, w) -> comb PI
    for &pi in prep.inputs() {
        node_map.insert(pi.index(), comb.add_input(prep.node(pi).name.clone()));
    }
    // Gates (two-phase for feedback).
    for id in prep.node_ids() {
        if let NodeKind::Gate(tt) = &prep.node(id).kind {
            let ph = vec![Fanin::wire(NodeId::from_index(0)); prep.node(id).fanins.len()];
            node_map.insert(
                id.index(),
                comb.add_gate(prep.node(id).name.clone(), tt.clone(), ph),
            );
        }
    }
    let mut roots: Vec<usize> = Vec::new(); // original gate indices to map
    let mut root_set = std::collections::HashSet::new();
    for id in prep.node_ids() {
        if !matches!(prep.node(id).kind, NodeKind::Gate(_)) {
            continue;
        }
        for (slot, f) in prep.node(id).fanins.iter().enumerate() {
            let src = f.source.index();
            let comb_src = if f.weight == 0 {
                node_map[&src]
            } else {
                *pseudo.entry((src, f.weight)).or_insert_with(|| {
                    comb.add_input(format!("ff__{}__{}", prep.node(f.source).name, f.weight))
                })
            };
            if f.weight > 0
                && matches!(prep.node(f.source).kind, NodeKind::Gate(_))
                && root_set.insert(src)
            {
                roots.push(src);
            }
            comb.set_fanin(node_map[&id.index()], slot, Fanin::wire(comb_src));
        }
    }
    for &po in prep.outputs() {
        let f = prep.node(po).fanins[0];
        let src = f.source.index();
        if matches!(prep.node(f.source).kind, NodeKind::Gate(_)) && root_set.insert(src) {
            roots.push(src);
        }
    }
    // Every root becomes a comb PO so mapping keeps it.
    for &r in &roots {
        comb.add_output(
            format!("root__{}", prep.node(NodeId::from_index(r)).name),
            Fanin::wire(node_map[&r]),
        );
    }

    // --- Map the combinational network with FlowSYN --------------------
    let lopts = opts.labels_for(1, true);
    let labels = match compute_labels_with(&comb, &lopts, &gauge, caches)? {
        LabelOutcome::Feasible { labels, .. } => labels,
        // The split network is acyclic, hence always feasible; only a
        // sweep cap can degrade the outcome.
        LabelOutcome::Infeasible { .. } => {
            return Err(SynthesisError::BudgetExceeded {
                what: "labeling sweep cap".into(),
            })
        }
    };
    let mut mapped_comb = generate_mapping_with(&comb, &labels, &lopts, caches)
        .map_err(|e| SynthesisError::Internal(e.to_string()))?;
    area::sweep(&mut mapped_comb);
    if opts.pack {
        area::pack(&mut mapped_comb, opts.k);
        area::sweep(&mut mapped_comb);
    }

    // --- Merge back ----------------------------------------------------
    // mapped_comb's PIs: original PIs + pseudo PIs; its gates are LUTs.
    let mut merged = Circuit::new(format!("{}_mapped_k{}", prep.name(), opts.k));
    let mut mm: HashMap<usize, NodeId> = HashMap::new(); // mapped_comb node -> merged node
    for &pi in prep.inputs() {
        let name = prep.node(pi).name.clone();
        let cpi = mapped_comb.find(&name).expect("PI preserved by mapping");
        mm.insert(cpi.index(), merged.add_input(name));
    }
    for id in mapped_comb.node_ids() {
        if let NodeKind::Gate(tt) = &mapped_comb.node(id).kind {
            let ph = vec![Fanin::wire(NodeId::from_index(0)); mapped_comb.node(id).fanins.len()];
            mm.insert(
                id.index(),
                merged.add_gate(mapped_comb.node(id).name.clone(), tt.clone(), ph),
            );
        }
    }
    // Root lookup: original root gate -> merged driver node.
    let merged_driver =
        |orig: usize, mapped_comb: &Circuit, mm: &HashMap<usize, NodeId>| -> NodeId {
            let name = &prep.node(NodeId::from_index(orig)).name;
            let comb_root = mapped_comb
                .find(name)
                .expect("root LUT keeps the original gate name");
            mm[&comb_root.index()]
        };
    // Pseudo-PI resolution: (src, w) -> merged fanin.
    let resolve_pseudo =
        |comb_pi_name: &str, mapped_comb: &Circuit, mm: &HashMap<usize, NodeId>| -> Option<Fanin> {
            // Names look like ff__<origname>__<w>.
            let rest = comb_pi_name.strip_prefix("ff__")?;
            let (orig_name, w) = rest.rsplit_once("__")?;
            let w: u32 = w.parse().ok()?;
            let orig = prep.find(orig_name)?;
            let src = match prep.node(orig).kind {
                NodeKind::Input => mm[&mapped_comb.find(orig_name)?.index()],
                NodeKind::Gate(_) => merged_driver(orig.index(), mapped_comb, mm),
                NodeKind::Output => return None,
            };
            Some(Fanin::registered(src, w))
        };
    for id in mapped_comb.node_ids() {
        if !matches!(mapped_comb.node(id).kind, NodeKind::Gate(_)) {
            continue;
        }
        let new_id = mm[&id.index()];
        for (slot, f) in mapped_comb.node(id).fanins.iter().enumerate() {
            let src_node = mapped_comb.node(f.source);
            let fanin = match src_node.kind {
                NodeKind::Input => {
                    if let Some(p) = resolve_pseudo(&src_node.name, &mapped_comb, &mm) {
                        p
                    } else {
                        Fanin::wire(mm[&f.source.index()])
                    }
                }
                NodeKind::Gate(_) => Fanin::wire(mm[&f.source.index()]),
                NodeKind::Output => unreachable!("gates never read POs"),
            };
            merged.set_fanin(new_id, slot, fanin);
        }
    }
    for &po in prep.outputs() {
        let f = prep.node(po).fanins[0];
        let src = match prep.node(f.source).kind {
            NodeKind::Input => {
                let name = &prep.node(f.source).name;
                mm[&mapped_comb.find(name).expect("PI kept").index()]
            }
            NodeKind::Gate(_) => merged_driver(f.source.index(), &mapped_comb, &mm),
            NodeKind::Output => unreachable!(),
        };
        merged.add_output(prep.node(po).name.clone(), Fanin::registered(src, f.weight));
    }
    area::sweep(&mut merged);

    // The merged circuit computes the original signals exactly.
    verify_mapping(&prep, &merged, opts.k, i64::MAX, opts.verify_cycles)?;
    let phi = match mdr_ratio(&merged) {
        Ok(r) => r.ceil().max(1),
        Err(_) => 1,
    };
    let rr = retime_with_pipelining(&merged);
    let final_circuit = finalize_registers(rr.circuit, rr.period, opts);
    Ok(MapReport {
        algorithm: "FlowSYN-s",
        phi,
        lut_count: merged.gate_count(),
        register_count: final_circuit.register_count_shared(),
        clock_period: rr.period,
        final_circuit,
        mapped: merged,
        stats: LabelStats::default(),
        probes: Vec::new(),
        elapsed: start.elapsed(),
        degradation: gauge.take_degradation(phi),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::gen;

    /// Out-of-range options are a typed `InvalidInput`, never an internal
    /// assertion; `cmax` stops at the 16-input truth-table limit.
    #[test]
    fn out_of_range_options_are_invalid_input() {
        let c = gen::figure1();
        let rows = [
            MapOptions::with_k(1),
            MapOptions::with_k(17),
            MapOptions {
                max_wires: 3,
                ..MapOptions::default()
            },
            MapOptions {
                jobs: 0,
                ..MapOptions::default()
            },
            MapOptions {
                cmax: 17,
                ..MapOptions::default()
            },
        ];
        for opts in &rows {
            let err = turbosyn(&c, opts).expect_err("rejected");
            assert!(matches!(err, SynthesisError::InvalidInput(_)), "{err}");
        }
        let widest = MapOptions {
            cmax: 16,
            ..MapOptions::default()
        };
        assert_eq!(turbosyn(&c, &widest).expect("maps").phi, 1);
    }

    #[test]
    fn figure1_headline() {
        let c = gen::figure1();
        let opts = MapOptions::default();
        let tm = turbomap(&c, &opts).expect("maps");
        let ts = turbosyn(&c, &opts).expect("maps");
        assert_eq!(tm.phi, 2, "TurboMap stuck at ratio 2");
        assert_eq!(ts.phi, 1, "TurboSYN reaches ratio 1");
        assert_eq!(ts.clock_period, 1);
        assert!(tm.clock_period <= 2);
        // The paper's note: TurboSYN pays area for the win.
        assert!(ts.lut_count >= 2);
    }

    #[test]
    fn turbosyn_never_worse_than_turbomap() {
        for seed in [3u64, 9, 21] {
            let c = gen::fsm(gen::FsmConfig {
                state_bits: 3,
                inputs: 3,
                outputs: 2,
                depth: 2,
                seed,
            });
            let opts = MapOptions::default();
            let tm = turbomap(&c, &opts).expect("maps");
            let ts = turbosyn(&c, &opts).expect("maps");
            assert!(ts.phi <= tm.phi, "seed {seed}: {} > {}", ts.phi, tm.phi);
            assert!(ts.clock_period <= ts.phi);
        }
    }

    #[test]
    fn flowsyn_s_runs_and_verifies() {
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 3,
            outputs: 2,
            depth: 2,
            seed: 7,
        });
        let fs = flowsyn_s(&c, &MapOptions::default()).expect("maps");
        assert!(fs.phi >= 1);
        assert!(fs.lut_count > 0);
        assert!(fs.clock_period <= fs.phi.max(1));
    }

    #[test]
    fn turbomap_beats_or_ties_flowsyn_s() {
        // TurboMap considers retiming during mapping; FlowSYN-s does not,
        // so its ratio can only be >= the optimum TurboMap finds... on
        // these small circuits they may tie; TurboSYN must win or tie both.
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 4,
            inputs: 3,
            outputs: 2,
            depth: 3,
            seed: 13,
        });
        let opts = MapOptions::default();
        let fs = flowsyn_s(&c, &opts).expect("maps");
        let ts = turbosyn(&c, &opts).expect("maps");
        assert!(
            ts.phi <= fs.phi,
            "TurboSYN {} vs FlowSYN-s {}",
            ts.phi,
            fs.phi
        );
    }

    #[test]
    fn multi_wire_extension_unlocks_mux_loops() {
        // figure1_mux: side column multiplicity 4 — Ashenhurst (1 wire)
        // cannot bury the sides, Roth–Karp with 2 wires can.
        let c = gen::figure1_mux();
        let single = MapOptions::default();
        let multi = MapOptions {
            max_wires: 2,
            ..MapOptions::default()
        };
        let ts1 = turbosyn(&c, &single).expect("maps");
        let ts2 = turbosyn(&c, &multi).expect("maps");
        assert_eq!(ts1.phi, 2, "single-output decomposition is blocked");
        assert_eq!(ts2.phi, 1, "multi-output decomposition breaks the loop");
        // The win costs encoder LUTs.
        assert!(ts2.lut_count > ts1.lut_count);
    }

    #[test]
    fn combinational_mapping_depth() {
        let mut c = Circuit::new("tree");
        let pis: Vec<_> = (0..8).map(|i| c.add_input(format!("i{i}"))).collect();
        let mut layer = pis.clone();
        let mut n = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                n += 1;
                next.push(c.add_gate(
                    format!("g{n}"),
                    turbosyn_netlist::TruthTable::and2(),
                    vec![Fanin::wire(pair[0]), Fanin::wire(pair[1])],
                ));
            }
            layer = next;
        }
        c.add_output("o", Fanin::wire(layer[0]));
        let (mapped, depth) = map_combinational(&c, &MapOptions::default(), false).expect("maps");
        // AND8 with K=5: 2 levels.
        assert_eq!(depth, 2);
        assert!(mapped.gate_count() <= 3);
    }

    #[test]
    fn register_minimization_never_hurts() {
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 3,
            outputs: 2,
            depth: 4,
            seed: 4,
        });
        let plain = turbomap(&c, &MapOptions::default()).expect("maps");
        let minimized = turbomap(
            &c,
            &MapOptions {
                minimize_registers: true,
                ..MapOptions::default()
            },
        )
        .expect("maps");
        assert_eq!(plain.phi, minimized.phi);
        assert_eq!(plain.clock_period, minimized.clock_period);
        assert!(
            minimized.register_count <= plain.register_count,
            "min-reg {} vs plain {}",
            minimized.register_count,
            plain.register_count
        );
        assert!(minimized.final_circuit.validate().is_ok());
    }

    #[test]
    fn flowsyn_depth_at_most_flowmap() {
        // FlowSYN (decomposition on) can only improve combinational depth.
        use turbosyn_netlist::tt::TruthTable;
        let mut c = Circuit::new("wide_tree");
        let pis: Vec<_> = (0..9).map(|i| c.add_input(format!("i{i}"))).collect();
        // Three 3-input side products feeding a 3-input collector: the
        // collector's cone is 9 inputs > K = 5, decomposition buries them.
        let and3 = TruthTable::from_fn(3, |i| i == 7);
        let sides: Vec<_> = (0..3)
            .map(|j| {
                c.add_gate(
                    format!("s{j}"),
                    and3.clone(),
                    (0..3).map(|b| Fanin::wire(pis[3 * j + b])).collect(),
                )
            })
            .collect();
        let maj = TruthTable::from_fn(3, |i| i.count_ones() >= 2);
        let root = c.add_gate("root", maj, sides.iter().map(|&s| Fanin::wire(s)).collect());
        c.add_output("o", Fanin::wire(root));

        let opts = MapOptions::default();
        let (_, d_flowmap) = map_combinational(&c, &opts, false).expect("FlowMap");
        let (_, d_flowsyn) = map_combinational(&c, &opts, true).expect("FlowSYN");
        assert!(
            d_flowsyn <= d_flowmap,
            "FlowSYN {d_flowsyn} vs FlowMap {d_flowmap}"
        );
        assert_eq!(d_flowmap, 2, "9-input cone needs two levels with K=5");
    }

    #[test]
    fn ring_reports_are_consistent() {
        let c = gen::ring(6, 3);
        let opts = MapOptions::default();
        let tm = turbomap(&c, &opts).expect("maps");
        // Covering pairs of XORs with K=5 reaches ratio 1.
        assert_eq!(tm.phi, 1);
        assert_eq!(tm.clock_period, 1);
        assert!(tm.probes.iter().any(|&(p, f)| p == 1 && f));
    }
}
