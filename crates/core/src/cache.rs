//! Session state that survives across binary-search probes (and across
//! runs of one [`Engine`](crate::Engine)): the decomposition cache, the
//! probe lineage, the infeasible-probe marks and the label-work totals.
//!
//! Decomposition verdicts are pure functions of their signatures, and a
//! lineage slot or infeasible mark is keyed by everything its probe's
//! outcome depends on, so sharing this state changes wall-clock, never
//! results. A probe under a `max_sweeps` budget reads no lineage and
//! stores no infeasible mark, since its outcome also depends on that
//! budget (see [`crate::label`]). Expansions are not cached: each label update builds the
//! expansions it needs and hands the flow test's one to the resynthesis
//! descent (see [`crate::label`]).

use crate::label::{LabelStats, StopRule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use turbosyn_netlist::{Circuit, NodeKind};

/// Where a template LUT input comes from, positionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TemplateInput {
    /// Index into the original cut (the caller's input order).
    Cut(usize),
    /// Output of an earlier LUT of the same template.
    Lut(usize),
}

/// One LUT of a cached realization, in circuit-free form: a flat truth
/// table over positional inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TemplateLut {
    /// Input count of the truth table.
    pub nvars: u8,
    /// Truth-table bits, 64 minterms per word (LSB-first).
    pub bits: Vec<u64>,
    /// Ordered inputs (truth-table input `i` = `inputs[i]`).
    pub inputs: Vec<TemplateInput>,
}

/// A whole cached realization: the LUT tree with `luts[root]` computing
/// the cut function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LutTemplate {
    /// All LUTs; [`TemplateInput::Lut`] references point into this list.
    pub luts: Vec<TemplateLut>,
    /// Index of the root LUT.
    pub root: usize,
}

/// Canonical signature of one decomposition attempt: everything its
/// verdict depends on and nothing else.
///
/// The pipeline re-sorts the inputs by criticality, and that sort is a
/// stable function of the deltas, so the table stays in cut order. The
/// pipeline only ever compares `λ_i` against `height − 1` / `height − 2`
/// and takes maxima, so the deltas `λ_i − height` carry all the timing
/// information, and signatures hit across probes at different absolute
/// labels with the same slack profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SignatureKey {
    /// Input count of the cut function.
    pub nvars: u8,
    /// Truth table of the cut function in cut order.
    pub tt: Vec<u64>,
    /// Per-input criticality deltas `λ_i − height`, in cut order.
    pub deltas: Vec<i64>,
    /// LUT input bound.
    pub k: u8,
    /// Encoder wires allowed per extraction.
    pub max_wires: u8,
}

/// The memoized verdict of one decomposition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CachedOutcome {
    /// A realization meeting the height constraint was found.
    Realized(LutTemplate),
    /// No realization exists under these constraints.
    NoRealization,
}

/// Thread-safe memo table for decomposition outcomes, with hit/miss
/// counters. Entries are never evicted individually; once
/// [`DecompCache::DEFAULT_CAPACITY`] distinct signatures are stored,
/// further inserts are dropped (the computation still returns its fresh
/// result — only the memo is skipped, so behaviour is unaffected).
///
/// Because the cached value is a pure function of its key, concurrent
/// workers may race to insert the same entry without affecting results:
/// whoever wins stores the same value the loser computed.
#[derive(Debug, Default)]
pub(crate) struct DecompCache {
    map: Mutex<HashMap<SignatureKey, CachedOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecompCache {
    /// Capacity: enough for every distinct cut function of a large run
    /// while bounding worst-case memory.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Looks up a signature, counting the hit or miss.
    pub fn get(&self, key: &SignatureKey) -> Option<CachedOutcome> {
        let got = self
            .map
            .lock()
            .expect("decomp cache poisoned")
            .get(key)
            .cloned();
        let counter = if got.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Stores an outcome (dropped silently once the cache is full; a
    /// racing insert of the same key keeps whichever value landed first
    /// — both are identical by construction).
    pub fn insert(&self, key: SignatureKey, outcome: CachedOutcome) {
        let mut map = self.map.lock().expect("decomp cache poisoned");
        if map.len() >= Self::DEFAULT_CAPACITY && !map.contains_key(&key) {
            return;
        }
        map.entry(key).or_insert(outcome);
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Zeroes the hit/miss counters while keeping every cached entry —
    /// so an embedding service can report per-request deltas from a
    /// still-warm cache.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// A snapshot of every stored entry, for tests that replay the
    /// verdicts through a reference decomposition.
    #[cfg(test)]
    pub fn entries(&self) -> Vec<(SignatureKey, CachedOutcome)> {
        let map = self.map.lock().expect("decomp cache poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

/// Cache performance counters of one engine/session.
///
/// Counters are monotonic totals; [`CacheStats::delta_since`] turns two
/// snapshots into the per-request delta an embedding service reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: expansions are no longer cached. Kept so existing
    /// readers of the struct still compile.
    pub expansion_hits: u64,
    /// Always 0, like [`CacheStats::expansion_hits`].
    pub expansion_misses: u64,
    /// Decomposition signatures answered from the cache.
    pub decomposition_hits: u64,
    /// Decomposition signatures computed fresh.
    pub decomposition_misses: u64,
}

impl CacheStats {
    /// The counter increments between `earlier` and `self`.
    ///
    /// Saturating: a reset between the two snapshots yields the
    /// post-reset totals instead of an underflowed garbage delta.
    #[must_use]
    pub fn delta_since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            decomposition_hits: self
                .decomposition_hits
                .saturating_sub(earlier.decomposition_hits),
            decomposition_misses: self
                .decomposition_misses
                .saturating_sub(earlier.decomposition_misses),
            ..CacheStats::default()
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            decomposition_hits: self.decomposition_hits + rhs.decomposition_hits,
            decomposition_misses: self.decomposition_misses + rhs.decomposition_misses,
            ..CacheStats::default()
        }
    }
}

/// Identity of a label-computation configuration, as far as converged
/// labels are concerned. Two probes with equal keys and equal φ produce
/// identical labels on the same circuit; the φ dimension is kept outside
/// the key because it carries an *order* ([`ProbeLineage`] exploits the
/// anti-monotonicity of labels in φ).
///
/// Deliberately excluded: `stop` (only changes how infeasibility is
/// detected, never a feasible fixpoint), `jobs`/`full_sweeps`/
/// `warm_start` (bit-identical labels by the chaotic-iteration argument
/// in [`crate::label`]), and `relax` (mapping generation only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineageKey {
    pub k: usize,
    pub resynthesis: bool,
    pub slack: usize,
    pub max_nodes: usize,
    pub cmax: usize,
    pub max_wires: usize,
}

/// A warm-start slot: converged labels of a *feasible* probe under one
/// `(key, φ)` pair.
///
/// Labels are anti-monotone in φ (a smaller ratio is harder, so every
/// lower bound can only be larger) — hence the stored labels are valid
/// starting lower bounds for any probe at `φ' <= φ` with the same key,
/// and for a probe at exactly the stored φ they *are* the fixpoint (the
/// engine is deterministic), so the probe can replay them outright.
/// One slot per `(key, φ)` keeps every rung of a binary-search ladder
/// available: a resubmitted search replays each feasible probe from its
/// own slot instead of re-converging from the tightest one. Keys get
/// distinct slots so the TurboSYN prepass (resynthesis off) and the
/// resynthesis search each keep their own lineage across runs instead
/// of clobbering each other's.
#[derive(Debug)]
struct ProbeLineage {
    key: LineageKey,
    phi: i64,
    labels: Vec<i64>,
}

/// A completed *infeasible* probe: under `(key, stop, phi)` the label
/// computation on the bound circuit is deterministic, so the verdict —
/// including the size of the SCC whose positive loop tripped detection —
/// replays without re-running the climb. Only probes that ran to their
/// natural stopping rule are marked (a sweep-cap degrade depends on the
/// caller's budget, not on the circuit, and is never recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InfeasibleMark {
    key: LineageKey,
    stop: StopRule,
    phi: i64,
    scc_size: usize,
}

/// The caches one engine shares across runs (and across the workers of
/// one parallel label sweep).
#[derive(Debug)]
pub(crate) struct SessionCaches {
    /// Structural fingerprint of the circuit the per-circuit state is
    /// currently bound to (lineage labels and infeasible marks are
    /// indexed by node, so a different circuit must flush them;
    /// decomposition signatures are circuit-free and survive).
    fingerprint: Mutex<Option<u64>>,
    pub decomp: DecompCache,
    /// Warm-start lineage for φ probes, one slot per `(LineageKey, φ)`
    /// pair (bounded by the handful of label configurations and probe
    /// ratios a caller uses); labels are per-circuit, so
    /// [`SessionCaches::bind`] clears it on a circuit change.
    lineage: Mutex<Vec<ProbeLineage>>,
    /// Completed infeasible verdicts, one per `(LineageKey, stop, φ)`;
    /// per-circuit like the lineage, flushed on rebind.
    infeasible: Mutex<Vec<InfeasibleMark>>,
    /// Label-work counters accumulated over every probe of this session
    /// (the engine-level observability feed; per-run counters live in
    /// [`crate::mappers::MapReport::stats`]).
    label_totals: Mutex<LabelStats>,
}

impl SessionCaches {
    pub fn new() -> Self {
        SessionCaches {
            fingerprint: Mutex::new(None),
            decomp: DecompCache::default(),
            lineage: Mutex::new(Vec::new()),
            infeasible: Mutex::new(Vec::new()),
            label_totals: Mutex::new(LabelStats::default()),
        }
    }

    /// Binds the caches to `c`, flushing the probe lineage and the
    /// infeasible marks (both hold per-circuit labels) when the circuit
    /// structure changed since the previous bind.
    pub fn bind(&self, c: &Circuit) {
        let fp = fingerprint(c);
        let mut cur = self.fingerprint.lock().expect("fingerprint poisoned");
        if *cur != Some(fp) {
            self.lineage.lock().expect("lineage poisoned").clear();
            self.infeasible.lock().expect("infeasible poisoned").clear();
            *cur = Some(fp);
        }
    }

    /// Warm-start labels for a probe at `phi` under `key`: the stored
    /// feasible labels that converged at the *smallest* ratio `>= phi`
    /// (anti-monotonicity makes every such slot a valid lower bound;
    /// the smallest ratio gives the tightest one).
    pub fn lineage_labels(&self, key: &LineageKey, phi: i64, n: usize) -> Option<Vec<i64>> {
        let slots = self.lineage.lock().expect("lineage poisoned");
        slots
            .iter()
            .filter(|l| l.key == *key && l.phi >= phi && l.labels.len() == n)
            .min_by_key(|l| l.phi)
            .map(|l| l.labels.clone())
    }

    /// The converged labels of an earlier feasible probe at *exactly*
    /// `(key, phi)`, if one completed on the bound circuit. Label
    /// computation is deterministic, so these are not merely a warm
    /// start — they are the fixpoint itself, and the probe can return
    /// them without a single sweep.
    pub fn exact_lineage(&self, key: &LineageKey, phi: i64, n: usize) -> Option<Vec<i64>> {
        let slots = self.lineage.lock().expect("lineage poisoned");
        slots
            .iter()
            .find(|l| l.key == *key && l.phi == phi && l.labels.len() == n)
            .map(|l| l.labels.clone())
    }

    /// Records the converged labels of a feasible probe, replacing any
    /// earlier slot for the same `(key, phi)` pair.
    pub fn store_lineage(&self, key: LineageKey, phi: i64, labels: &[i64]) {
        let mut slots = self.lineage.lock().expect("lineage poisoned");
        let entry = ProbeLineage {
            key,
            phi,
            labels: labels.to_vec(),
        };
        match slots.iter_mut().find(|l| l.key == key && l.phi == phi) {
            Some(slot) => *slot = entry,
            None => slots.push(entry),
        }
    }

    /// The recorded SCC size of an earlier infeasible probe at exactly
    /// `(key, stop, phi)`, if one ran to its natural stopping rule on
    /// the bound circuit.
    pub fn infeasible_verdict(&self, key: &LineageKey, stop: StopRule, phi: i64) -> Option<usize> {
        let marks = self.infeasible.lock().expect("infeasible poisoned");
        marks
            .iter()
            .find(|m| m.key == *key && m.stop == stop && m.phi == phi)
            .map(|m| m.scc_size)
    }

    /// Records a completed infeasible verdict. The caller must ensure
    /// the probe stopped through its own rule (PLD or the n² bound),
    /// not through a budget degrade.
    pub fn store_infeasible(&self, key: LineageKey, stop: StopRule, phi: i64, scc_size: usize) {
        let mut marks = self.infeasible.lock().expect("infeasible poisoned");
        let entry = InfeasibleMark {
            key,
            stop,
            phi,
            scc_size,
        };
        match marks
            .iter_mut()
            .find(|m| m.key == key && m.stop == stop && m.phi == phi)
        {
            Some(mark) => *mark = entry,
            None => marks.push(entry),
        }
    }

    /// Folds one probe's work counters into the session totals.
    pub fn note_label_stats(&self, stats: LabelStats) {
        let mut totals = self.label_totals.lock().expect("label totals poisoned");
        *totals = *totals + stats;
    }

    /// Label-work totals accumulated since construction (or the last
    /// [`SessionCaches::reset_stats`]).
    pub fn label_totals(&self) -> LabelStats {
        *self.label_totals.lock().expect("label totals poisoned")
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            decomposition_hits: self.decomp.hits(),
            decomposition_misses: self.decomp.misses(),
            ..CacheStats::default()
        }
    }

    /// Zeroes every counter (cache and label-work totals) while keeping
    /// the decomposition cache and the warm-start lineage warm.
    pub fn reset_stats(&self) {
        self.decomp.reset_counters();
        *self.label_totals.lock().expect("label totals poisoned") = LabelStats::default();
    }
}

/// FNV-1a over the circuit's structure (kinds, truth tables, fanins).
/// Names are ignored: they do not influence labels or cuts.
fn fingerprint(c: &Circuit) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(c.node_count() as u64);
    for id in c.node_ids() {
        let node = c.node(id);
        match &node.kind {
            NodeKind::Input => mix(1),
            NodeKind::Output => mix(2),
            NodeKind::Gate(tt) => {
                mix(3);
                mix(u64::from(tt.nvars()));
                for &w in tt.bits() {
                    mix(w);
                }
            }
        }
        for f in &node.fanins {
            mix(f.source.index() as u64);
            mix(u64::from(f.weight));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::gen;

    #[test]
    fn stats_reset_keeps_entries_and_deltas_are_saturating() {
        let caches = SessionCaches::new();
        caches.bind(&gen::figure1());
        let key = SignatureKey {
            nvars: 1,
            tt: vec![0b10],
            deltas: vec![0],
            k: 5,
            max_wires: 1,
        };
        assert_eq!(caches.decomp.get(&key), None);
        caches
            .decomp
            .insert(key.clone(), CachedOutcome::NoRealization);
        assert!(caches.decomp.get(&key).is_some());
        let before = caches.stats();
        assert_eq!(
            (before.decomposition_hits, before.decomposition_misses),
            (1, 1)
        );
        assert_eq!((before.expansion_hits, before.expansion_misses), (0, 0));
        caches.reset_stats();
        assert_eq!(caches.stats(), CacheStats::default(), "counters zeroed");
        assert!(caches.decomp.get(&key).is_some());
        let after = caches.stats();
        assert_eq!(
            after.decomposition_hits, 1,
            "entries stayed warm across reset"
        );
        // A saturating delta across the reset reports the fresh totals.
        assert_eq!(after.delta_since(before).decomposition_hits, 0);
        assert_eq!(after.delta_since(CacheStats::default()), after);
        let sum = after + before;
        assert_eq!(sum.decomposition_misses, 1);
    }

    fn key(tag: u64) -> SignatureKey {
        SignatureKey {
            nvars: 2,
            tt: vec![tag],
            deltas: vec![-1, -2],
            k: 4,
            max_wires: 1,
        }
    }

    #[test]
    fn decomp_cache_counts_hits_and_misses() {
        let c = DecompCache::default();
        assert!(c.get(&key(6)).is_none());
        c.insert(key(6), CachedOutcome::NoRealization);
        assert_eq!(c.get(&key(6)), Some(CachedOutcome::NoRealization));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn decomp_cache_capacity_bounds_inserts() {
        let c = DecompCache::default();
        let cap = DecompCache::DEFAULT_CAPACITY as u64;
        for tag in 0..=cap {
            c.insert(key(tag), CachedOutcome::NoRealization);
        }
        assert_eq!(
            c.entries().len() as u64,
            cap,
            "insert past capacity dropped"
        );
        assert!(c.get(&key(cap)).is_none());
        // Re-inserting a stored key at capacity keeps the first value.
        let lut = TemplateLut {
            nvars: 0,
            bits: vec![0],
            inputs: vec![],
        };
        let realized = CachedOutcome::Realized(LutTemplate {
            luts: vec![lut],
            root: 0,
        });
        c.insert(key(2), realized);
        assert_eq!(c.get(&key(2)), Some(CachedOutcome::NoRealization));
    }

    #[test]
    fn decomp_cache_concurrent_inserts_are_safe() {
        let c = DecompCache::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..64 {
                        c.insert(key(i % 8), CachedOutcome::NoRealization);
                        let _ = c.get(&key((i + t) % 8));
                    }
                });
            }
        });
        assert_eq!(c.entries().len(), 8);
    }

    #[test]
    fn fingerprint_ignores_names_but_sees_structure() {
        let a = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 2,
            outputs: 1,
            depth: 2,
            seed: 5,
        });
        let b = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 2,
            outputs: 1,
            depth: 2,
            seed: 6,
        });
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b), "different seeds differ");
    }

    fn lineage_key(resynthesis: bool) -> LineageKey {
        LineageKey {
            k: 5,
            resynthesis,
            slack: 1,
            max_nodes: 64,
            cmax: 4,
            max_wires: 16,
        }
    }

    #[test]
    fn lineage_slots_are_per_key_and_phi_ordered() {
        let caches = SessionCaches::new();
        caches.bind(&gen::figure1());
        let key = lineage_key(true);
        let other = lineage_key(false);
        assert_eq!(caches.lineage_labels(&key, 1, 3), None, "empty at start");
        caches.store_lineage(key, 3, &[1, 2, 3]);
        // Valid for probes at φ <= 3 (anti-monotone), never above.
        assert_eq!(caches.lineage_labels(&key, 2, 3), Some(vec![1, 2, 3]));
        assert_eq!(caches.lineage_labels(&key, 3, 3), Some(vec![1, 2, 3]));
        assert_eq!(caches.lineage_labels(&key, 4, 3), None);
        // Wrong length (a different circuit shape) never matches.
        assert_eq!(caches.lineage_labels(&key, 2, 4), None);
        // A different key neither reads nor clobbers this slot.
        assert_eq!(caches.lineage_labels(&other, 2, 3), None);
        caches.store_lineage(other, 5, &[9, 9, 9]);
        assert_eq!(caches.lineage_labels(&key, 2, 3), Some(vec![1, 2, 3]));
        assert_eq!(caches.lineage_labels(&other, 4, 3), Some(vec![9, 9, 9]));
        // A second rung coexists with the first; a warm-start lookup
        // picks the tightest valid one (smallest stored φ >= probe φ).
        caches.store_lineage(key, 2, &[4, 5, 6]);
        assert_eq!(caches.lineage_labels(&key, 2, 3), Some(vec![4, 5, 6]));
        assert_eq!(caches.lineage_labels(&key, 1, 3), Some(vec![4, 5, 6]));
        assert_eq!(caches.lineage_labels(&key, 3, 3), Some(vec![1, 2, 3]));
        // Re-storing the same (key, φ) replaces in place.
        caches.store_lineage(key, 2, &[7, 8, 9]);
        assert_eq!(caches.lineage_labels(&key, 2, 3), Some(vec![7, 8, 9]));
    }

    #[test]
    fn exact_lineage_requires_the_same_phi() {
        let caches = SessionCaches::new();
        caches.bind(&gen::figure1());
        let key = lineage_key(true);
        caches.store_lineage(key, 3, &[1, 2, 3]);
        assert_eq!(caches.exact_lineage(&key, 3, 3), Some(vec![1, 2, 3]));
        // φ = 2 may warm-start from the φ = 3 slot, but it is not a
        // replayable fixpoint for φ = 2.
        assert_eq!(caches.exact_lineage(&key, 2, 3), None);
        assert_eq!(caches.exact_lineage(&key, 4, 3), None);
        assert_eq!(caches.exact_lineage(&key, 3, 4), None, "wrong length");
        assert_eq!(caches.exact_lineage(&lineage_key(false), 3, 3), None);
    }

    #[test]
    fn infeasible_marks_are_exact_and_flushed_on_rebind() {
        let caches = SessionCaches::new();
        caches.bind(&gen::figure1());
        let key = lineage_key(true);
        assert_eq!(caches.infeasible_verdict(&key, StopRule::Pld, 1), None);
        caches.store_infeasible(key, StopRule::Pld, 1, 7);
        assert_eq!(caches.infeasible_verdict(&key, StopRule::Pld, 1), Some(7));
        // Exact on every dimension: φ, stopping rule, and key.
        assert_eq!(caches.infeasible_verdict(&key, StopRule::Pld, 2), None);
        assert_eq!(caches.infeasible_verdict(&key, StopRule::NSquared, 1), None);
        assert_eq!(
            caches.infeasible_verdict(&lineage_key(false), StopRule::Pld, 1),
            None
        );
        caches.store_infeasible(key, StopRule::Pld, 1, 9);
        assert_eq!(
            caches.infeasible_verdict(&key, StopRule::Pld, 1),
            Some(9),
            "same coordinates replace in place"
        );
        caches.bind(&gen::ring(4, 2));
        assert_eq!(
            caches.infeasible_verdict(&key, StopRule::Pld, 1),
            None,
            "marks are per-circuit"
        );
    }

    #[test]
    fn bind_to_new_circuit_flushes_lineage() {
        let caches = SessionCaches::new();
        let c1 = gen::figure1();
        caches.bind(&c1);
        let key = lineage_key(true);
        caches.store_lineage(key, 3, &[1, 2, 3]);
        caches.bind(&c1); // same circuit: lineage survives
        assert_eq!(caches.lineage_labels(&key, 3, 3), Some(vec![1, 2, 3]));
        caches.bind(&gen::ring(4, 2)); // new circuit: labels are stale
        assert_eq!(caches.lineage_labels(&key, 3, 3), None);
    }
}
