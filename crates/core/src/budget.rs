//! Resource governance: budgets, cancellation, and degradation reports.
//!
//! The labeling machinery can blow up super-linearly on adversarial loop
//! structures (wide reconvergent cuts, huge expanded circuits). A
//! [`Budget`] puts hard ceilings on that work and a [`CancelToken`]
//! allows an embedding service (or a Ctrl-C handler) to stop a run from
//! another thread. Budgets are *polled* at the natural choke points —
//! once per labeling sweep, once per materialized expansion — so
//! overshoot is bounded by one work item (an expansion is capped by
//! [`ExpandLimits::max_nodes`](crate::ExpandLimits); a decomposition
//! works on a truth table of at most 16 inputs).
//!
//! Exhaustion degrades instead of aborting wherever a sound result
//! exists:
//!
//! * a deadline (or work budget) expiring mid-binary-search returns the
//!   best already-proven mapping at the lowest φ whose labels converged,
//!   tagged with a [`Degradation`] report on
//!   [`MapReport`](crate::MapReport);
//! * an oscillating PLD isolation signal disables the fast path for that
//!   SCC and lets the quadratic ([`StopRule::NSquared`]
//!   (crate::StopRule::NSquared)) backstop decide the probe.
//!
//! Only cancellation and a deadline that expires before *any* feasible φ
//! was proven surface as hard errors
//! ([`SynthesisError`](crate::SynthesisError)).
//!
//! Budget checks never alter an in-probe decision — they abort the whole
//! probe — so mapping generation replays exactly the decisions the
//! (governed) label search made.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cheap, clonable cancellation flag (`Arc<AtomicBool>`).
///
/// Clone it into another thread (or a signal handler's poller) and call
/// [`CancelToken::cancel`]; every governed computation holding a clone
/// observes the flag at its next poll point and stops with
/// [`Interrupted::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Resource ceilings for one synthesis run. `None` everywhere (the
/// default) means unlimited — exactly the pre-governance behaviour.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock deadline, measured from the start of the mapper call.
    pub deadline: Option<Duration>,
    /// Total expanded-circuit nodes materialized across the φ search.
    pub max_work: Option<u64>,
    /// Labeling sweeps per φ probe; a probe that exceeds it is treated
    /// as infeasible (sound: the search then settles on a higher,
    /// convergent φ).
    pub max_sweeps: Option<u64>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
}

impl Budget {
    /// An explicitly unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the total expanded-node work budget.
    #[must_use]
    pub fn with_max_work(mut self, nodes: u64) -> Self {
        self.max_work = Some(nodes);
        self
    }

    /// Sets the per-probe labeling sweep cap.
    #[must_use]
    pub fn with_max_sweeps(mut self, sweeps: u64) -> Self {
        self.max_sweeps = Some(sweeps);
        self
    }

    /// Installs a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Why a governed computation stopped before finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// The wall-clock deadline expired.
    DeadlineExpired,
    /// The expanded-node work budget ran out.
    WorkExhausted,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupted::Cancelled => write!(f, "cancelled"),
            Interrupted::DeadlineExpired => write!(f, "wall-clock deadline expired"),
            Interrupted::WorkExhausted => write!(f, "expanded-node work budget exhausted"),
        }
    }
}

/// One concession the engine made to stay within its [`Budget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeEvent {
    /// The wall-clock deadline expired while probing `phi_abandoned`;
    /// the search stopped with the best φ proven so far.
    Deadline {
        /// φ probe that was cut short.
        phi_abandoned: i64,
    },
    /// The work budget ran out while probing `phi_abandoned`.
    WorkExhausted {
        /// φ probe that was cut short.
        phi_abandoned: i64,
    },
    /// The sweep cap cut a probe short; that probe was treated as
    /// infeasible (the final φ is still verified feasible).
    SweepCap {
        /// φ probe whose labeling was truncated.
        phi: i64,
        /// Size of the SCC being swept when the cap fired.
        scc_size: usize,
    },
    /// The PLD isolation signal oscillated past its trust window; the
    /// quadratic backstop decided the probe instead of the fast path.
    PldAnomaly {
        /// φ probe in which the anomaly was observed.
        phi: i64,
        /// Size of the affected SCC.
        scc_size: usize,
    },
}

impl std::fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeEvent::Deadline { phi_abandoned } => {
                write!(f, "deadline expired during the phi={phi_abandoned} probe")
            }
            DegradeEvent::WorkExhausted { phi_abandoned } => {
                write!(
                    f,
                    "work budget exhausted during the phi={phi_abandoned} probe"
                )
            }
            DegradeEvent::SweepCap { phi, scc_size } => {
                write!(
                    f,
                    "sweep cap truncated the phi={phi} probe (SCC of {scc_size})"
                )
            }
            DegradeEvent::PldAnomaly { phi, scc_size } => write!(
                f,
                "PLD anomaly at phi={phi} (SCC of {scc_size}); quadratic backstop used"
            ),
        }
    }
}

/// Structured account of what a budgeted run gave up — attached to
/// [`MapReport`](crate::MapReport) when any concession was made.
///
/// The contract: the returned mapping is **verified** at
/// `phi_achieved` (per-LUT trace equivalence, K-bound, MDR ratio `<=
/// phi_achieved`), but `phi_achieved` may exceed the true minimum the
/// unbudgeted algorithm would have found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Everything that was cut short, in occurrence order (deduplicated).
    pub events: Vec<DegradeEvent>,
    /// The φ the returned mapping is verified at; an upper bound on the
    /// minimum MDR ratio, not necessarily the minimum itself.
    pub phi_achieved: i64,
}

/// Run-scoped meter: pairs a [`Budget`] with the run's start time, the
/// work consumed so far, and the degradation events recorded. Created by
/// the mappers; exposed so callers of
/// [`compute_labels_governed`](crate::label::compute_labels_governed)
/// can govern their own label computations.
///
/// All mutation goes through `&self`: the work counter is an atomic
/// (`fetch_add`, so concurrent workers can never under-count a charge)
/// and the event list sits behind a mutex. One gauge therefore governs a
/// whole worker pool — every worker polls the same deadline, the same
/// cancellation flag, and the same work cap, and any of them tripping a
/// limit drains the pool at its next poll point.
#[derive(Debug)]
pub struct Gauge {
    budget: Budget,
    start: Instant,
    work: AtomicU64,
    events: Mutex<Vec<DegradeEvent>>,
    trace: turbosyn_trace::TraceSink,
}

impl Gauge {
    /// Starts metering against `budget`; the deadline clock starts now.
    /// Tracing is disabled; attach a sink with [`Gauge::with_trace`].
    pub fn new(budget: Budget) -> Self {
        Gauge {
            budget,
            start: Instant::now(),
            work: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            trace: turbosyn_trace::TraceSink::disabled(),
        }
    }

    /// Attaches a trace sink. The gauge is already threaded through
    /// every governed hot path, so it doubles as the instrumentation
    /// carrier — label sweeps, min-cuts, and expansions record into
    /// whatever sink rides here.
    #[must_use]
    pub fn with_trace(mut self, sink: turbosyn_trace::TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The trace sink riding on this gauge (disabled by default).
    pub fn trace(&self) -> &turbosyn_trace::TraceSink {
        &self.trace
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Expanded-circuit nodes charged so far.
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::SeqCst)
    }

    /// Degradation events recorded so far (a snapshot).
    pub fn events(&self) -> Vec<DegradeEvent> {
        self.events.lock().expect("gauge events poisoned").clone()
    }

    /// Polls the cancellation flag and the deadline.
    ///
    /// # Errors
    ///
    /// [`Interrupted::Cancelled`] or [`Interrupted::DeadlineExpired`].
    pub fn check(&self) -> Result<(), Interrupted> {
        if self.budget.cancel.is_cancelled() {
            return Err(Interrupted::Cancelled);
        }
        if let Some(d) = self.budget.deadline {
            if self.start.elapsed() >= d {
                return Err(Interrupted::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// Charges `nodes` units of expansion work and polls every limit.
    ///
    /// The charge is a single `fetch_add`, so parallel workers each see
    /// the running total *including* their own contribution — two
    /// workers charging simultaneously can both trip the cap, but
    /// neither can slip under it.
    ///
    /// # Errors
    ///
    /// Any [`Interrupted`] cause; the work counter is charged regardless
    /// so a later retry cannot launder the overage.
    pub fn charge(&self, nodes: u64) -> Result<(), Interrupted> {
        // `fetch_add` wraps on overflow; clamp manually so a saturated
        // counter stays pinned at the ceiling instead of wrapping to 0.
        let prior = self.work.fetch_add(nodes, Ordering::SeqCst);
        let total = match prior.checked_add(nodes) {
            Some(t) => t,
            None => {
                self.work.store(u64::MAX, Ordering::SeqCst);
                u64::MAX
            }
        };
        self.check()?;
        if let Some(cap) = self.budget.max_work {
            if total > cap {
                return Err(Interrupted::WorkExhausted);
            }
        }
        Ok(())
    }

    /// Records a degradation event (deduplicated).
    pub fn note(&self, event: DegradeEvent) {
        let mut events = self.events.lock().expect("gauge events poisoned");
        if !events.contains(&event) {
            events.push(event);
        }
    }

    /// Consumes the recorded events into a [`Degradation`] report, or
    /// `None` when the run made no concession.
    pub fn take_degradation(&self, phi_achieved: i64) -> Option<Degradation> {
        let mut events = self.events.lock().expect("gauge events poisoned");
        if events.is_empty() {
            return None;
        }
        Some(Degradation {
            events: std::mem::take(&mut *events),
            phi_achieved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_never_interrupts() {
        let g = Gauge::new(Budget::default());
        g.check().expect("no limits");
        g.charge(u64::MAX / 2).expect("no work cap");
        g.charge(u64::MAX / 2).expect("saturates, still no cap");
        g.charge(u64::MAX).expect("pinned at ceiling, still no cap");
        assert_eq!(g.work(), u64::MAX, "overflow clamps instead of wrapping");
        assert!(g.take_degradation(1).is_none());
    }

    #[test]
    fn cancel_token_observed_across_clones() {
        let token = CancelToken::new();
        let budget = Budget::default().with_cancel(token.clone());
        let g = Gauge::new(budget);
        g.check().expect("not yet cancelled");
        token.cancel();
        assert_eq!(g.check(), Err(Interrupted::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let g = Gauge::new(Budget::default().with_deadline(Duration::ZERO));
        assert_eq!(g.check(), Err(Interrupted::DeadlineExpired));
    }

    #[test]
    fn work_budget_trips_and_stays_tripped() {
        let g = Gauge::new(Budget::default().with_max_work(100));
        g.charge(60).expect("within budget");
        assert_eq!(g.charge(60), Err(Interrupted::WorkExhausted));
        // The overage is not forgotten.
        assert_eq!(g.charge(0), Err(Interrupted::WorkExhausted));
        assert_eq!(g.work(), 120);
    }

    #[test]
    fn concurrent_charges_never_under_count() {
        // 8 threads x 1000 charges of 3 units: the atomic counter must
        // land on the exact total, and the cap must trip for every
        // thread that charges past it.
        let g = Gauge::new(Budget::default().with_max_work(12_000));
        let tripped = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        if g.charge(3).is_err() {
                            tripped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(g.work(), 24_000, "every charge is counted exactly once");
        // 24k charged against a 12k cap: at least the second half of the
        // charges (in global order) must have been rejected.
        assert!(tripped.load(Ordering::SeqCst) >= 4000);
    }

    #[test]
    fn gauge_is_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Gauge>();
        assert_sync::<CancelToken>();
    }

    #[test]
    fn events_deduplicate_and_report() {
        let g = Gauge::new(Budget::default());
        let cap = DegradeEvent::SweepCap {
            phi: 1,
            scc_size: 4,
        };
        g.note(cap.clone());
        g.note(cap);
        g.note(DegradeEvent::Deadline { phi_abandoned: 2 });
        let d = g.take_degradation(3).expect("events recorded");
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.phi_achieved, 3);
        assert!(g.take_degradation(3).is_none(), "events were drained");
    }
}
