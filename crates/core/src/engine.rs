//! A synthesis engine owning cross-run caches.
//!
//! The free mapper functions ([`turbosyn`](crate::turbosyn) and friends)
//! are stateless: every call builds its caches from scratch. An
//! [`Engine`] keeps the probe lineage (converged labels of earlier φ
//! probes) and the infeasible-probe marks alive across calls, so mapping
//! the same circuit again replays its binary search instead of sweeping.
//! Decompositions are never reused: every cut function is decomposed
//! afresh. Results are identical either way — the lineage only changes
//! wall-clock (the crate-private `cache` module gives the argument).
//! That includes runs under a
//! [`Budget::max_sweeps`](crate::Budget::max_sweeps) cap: their probes read no
//! lineage, so a warm engine sweeps exactly as a cold one.

use crate::budget::{Budget, Gauge};
use crate::cache::{CacheStats, SessionCaches};
use crate::error::SynthesisError;
use crate::label::{self, LabelOptions, LabelOutcome, LabelStats};
use crate::mappers::{self, MapOptions, MapReport};
use turbosyn_netlist::Circuit;

/// A stateful synthesis session: mapper entry points plus shared caches.
#[derive(Debug)]
pub struct Engine {
    caches: SessionCaches,
    trace: turbosyn_trace::TraceSink,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine with empty caches and tracing disabled.
    pub fn new() -> Self {
        Engine {
            caches: SessionCaches::new(),
            trace: turbosyn_trace::TraceSink::disabled(),
        }
    }

    /// A fresh engine whose runs record into `sink` by default. A
    /// per-call [`MapOptions::trace`] that is enabled takes precedence;
    /// otherwise every mapper call on this engine instruments into
    /// `sink`, and the owner drains it between runs (the
    /// `turbosyn-serve` worker discipline).
    pub fn with_trace(sink: turbosyn_trace::TraceSink) -> Self {
        Engine {
            caches: SessionCaches::new(),
            trace: sink,
        }
    }

    /// The engine-default trace sink (disabled unless constructed via
    /// [`Engine::with_trace`]).
    pub fn trace(&self) -> &turbosyn_trace::TraceSink {
        &self.trace
    }

    /// Per-call options overlaid with the engine default sink.
    fn effective(&self, opts: &MapOptions) -> MapOptions {
        let mut opts = opts.clone();
        if !opts.trace.is_enabled() {
            opts.trace = self.trace.clone();
        }
        opts
    }

    /// Cache counters of this engine: every field is always 0, since
    /// neither expansions nor decompositions are cached (see
    /// [`CacheStats`]). The lineage's effect shows in
    /// [`LabelStats::warm_started_probes`] instead.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Label-computation work counters accumulated over every probe this
    /// engine ran. Totals are monotonic; to attribute work to one
    /// request, snapshot before and after the run and take
    /// [`LabelStats::delta_since`] — exact whenever the engine runs
    /// requests serially (one engine per worker thread, the
    /// `turbosyn-serve` pool discipline).
    pub fn label_stats(&self) -> LabelStats {
        self.caches.label_totals()
    }

    /// [`label::compute_labels`](crate::label::compute_labels) sharing
    /// this engine's caches — in particular the probe-lineage slot, so
    /// consecutive probes at descending φ warm-start from each other.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is invalid or not K-bounded for `opts.k`.
    pub fn compute_labels(&self, c: &Circuit, opts: &LabelOptions) -> LabelOutcome {
        let gauge = Gauge::new(Budget::default());
        label::compute_labels_with(c, opts, &gauge, &self.caches)
            .expect("an unlimited budget never interrupts")
    }

    /// [`crate::turbomap`] sharing this engine's caches.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::turbomap`].
    pub fn turbomap(&self, c: &Circuit, opts: &MapOptions) -> Result<MapReport, SynthesisError> {
        mappers::turbomap_with(c, &self.effective(opts), &self.caches)
    }

    /// [`crate::turbosyn`] sharing this engine's caches.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::turbosyn`].
    pub fn turbosyn(&self, c: &Circuit, opts: &MapOptions) -> Result<MapReport, SynthesisError> {
        mappers::turbosyn_with(c, &self.effective(opts), &self.caches)
    }

    /// [`crate::flowsyn_s`] sharing this engine's caches.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::flowsyn_s`].
    pub fn flowsyn_s(&self, c: &Circuit, opts: &MapOptions) -> Result<MapReport, SynthesisError> {
        mappers::flowsyn_s_with(c, &self.effective(opts), &self.caches)
    }

    /// [`crate::map_combinational`] sharing this engine's caches.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::map_combinational`].
    pub fn map_combinational(
        &self,
        c: &Circuit,
        opts: &MapOptions,
        resynthesis: bool,
    ) -> Result<(Circuit, i64), SynthesisError> {
        mappers::map_combinational_with(c, &self.effective(opts), resynthesis, &self.caches)
    }
}
