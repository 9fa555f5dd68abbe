//! Graceful-degradation contract: when a resource budget trips mid-run,
//! the mapper still returns a *verified* mapping at the lowest φ it could
//! prove feasible, and says so through [`MapReport::degradation`].

use std::time::Duration;
use turbosyn::{
    compute_labels_governed, report_to_json, turbomap, turbosyn, verify_mapping, Budget,
    CancelToken, DegradeEvent, Gauge, LabelOptions, LabelOutcome, MapOptions, SynthesisError,
};
use turbosyn_netlist::{blif, gen, Circuit};

#[test]
fn sweep_cap_degrades_but_stays_verified() {
    let c = gen::figure1();

    // Unbudgeted, resynthesis reaches the paper's φ = 1.
    let free = turbosyn(&c, &MapOptions::default()).expect("maps unbudgeted");
    assert_eq!(free.phi, 1);
    assert!(free.degradation.is_none());

    // Two sweeps per probe are too few for the 4-gate loop to settle at
    // φ = 1: the cap truncates a probe, and the report says so.
    let opts = MapOptions {
        budget: Budget::default().with_max_sweeps(2),
        ..MapOptions::default()
    };
    let capped = turbosyn(&c, &opts).expect("still maps under the sweep cap");
    assert!(capped.phi >= free.phi, "degradation never improves φ");

    let d = capped
        .degradation
        .as_ref()
        .expect("degradation is reported");
    assert_eq!(d.phi_achieved, capped.phi);
    assert!(
        d.events
            .iter()
            .any(|e| matches!(e, DegradeEvent::SweepCap { .. })),
        "events: {:?}",
        d.events
    );

    // The degraded mapping is still a real mapping: verified per-LUT.
    verify_mapping(&c, &capped.mapped, 5, capped.phi, 48).expect("degraded mapping verifies");
}

/// A sweep cap binds the same way on a warm engine as on a cold one:
/// a probe under `max_sweeps` replays no converged labels and no
/// infeasible verdict from earlier runs, so the outcome and its
/// degradation events do not depend on what the engine mapped before.
#[test]
fn sweep_cap_binds_on_a_warm_engine() {
    let c = gen::figure1();
    let capped = |sweeps| MapOptions {
        budget: Budget::default().with_max_sweeps(sweeps),
        ..MapOptions::default()
    };
    let summary = |r: Result<turbosyn::MapReport, SynthesisError>| {
        r.map(|r| (r.phi, r.probes, r.degradation, blif::write(&r.mapped)))
    };
    // (cap of the earlier run on the warm engine, cap of the compared run)
    for (before, cap) in [(2, 1), (1, 2), (20, 2), (20, 1)] {
        let cold = summary(turbosyn::Engine::new().turbosyn(&c, &capped(cap)));
        let warm_engine = turbosyn::Engine::new();
        let _ = warm_engine.turbosyn(&c, &capped(before));
        let warm = summary(warm_engine.turbosyn(&c, &capped(cap)));
        assert_eq!(
            warm, cold,
            "max_sweeps {cap} after a max_sweeps {before} run"
        );
    }
    // The cold outcomes the pairs above are compared against: one sweep
    // proves no φ, two sweeps settle at a degraded φ.
    let one = turbosyn::Engine::new().turbosyn(&c, &capped(1));
    assert!(
        matches!(one, Err(SynthesisError::BudgetExceeded { .. })),
        "{one:?}"
    );
    let two = turbosyn::Engine::new()
        .turbosyn(&c, &capped(2))
        .expect("two sweeps map");
    let events = two.degradation.expect("degraded").events;
    assert!(
        events
            .iter()
            .any(|e| matches!(e, DegradeEvent::SweepCap { .. })),
        "events: {events:?}"
    );
}

#[test]
fn pre_cancelled_token_fails_promptly() {
    let token = CancelToken::new();
    token.cancel();
    let opts = MapOptions {
        budget: Budget::default().with_cancel(token),
        ..MapOptions::default()
    };
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 2,
        depth: 4,
        seed: 77,
    });
    let start = std::time::Instant::now();
    let err = turbosyn(&c, &opts).expect_err("cancelled before any work");
    assert!(matches!(err, SynthesisError::Cancelled), "got {err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cancellation must short-circuit, not finish the run"
    );
}

#[test]
fn zero_deadline_is_budget_exceeded() {
    let opts = MapOptions {
        budget: Budget::default().with_deadline(Duration::ZERO),
        ..MapOptions::default()
    };
    let err = turbomap(&gen::figure1(), &opts).expect_err("expired before the first probe");
    assert!(
        matches!(err, SynthesisError::BudgetExceeded { .. }),
        "got {err}"
    );
}

/// A budget that never trips.
fn generous() -> MapOptions {
    MapOptions {
        budget: Budget::default()
            .with_deadline(Duration::from_secs(600))
            .with_max_work(u64::MAX)
            .with_cancel(CancelToken::new()),
        ..MapOptions::default()
    }
}

/// Maps `c` with TurboSYN unbudgeted and under [`generous`], and checks
/// that the report bytes and the final netlist are identical: polling a
/// budget must never change a decision.
fn assert_generous_budget_changes_nothing(name: &str, c: &Circuit) {
    let free = turbosyn(c, &MapOptions::default()).expect("maps");
    let governed = turbosyn(c, &generous()).expect("maps governed");
    assert!(governed.degradation.is_none(), "{name}");
    assert_eq!(
        report_to_json(&governed).write(),
        report_to_json(&free).write(),
        "{name}: report"
    );
    assert_eq!(
        blif::write(&governed.final_circuit),
        blif::write(&free.final_circuit),
        "{name}: final circuit"
    );
}

#[test]
fn generous_budget_changes_nothing() {
    // A budget that never trips must be decision-identical to no budget.
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 2,
        outputs: 2,
        depth: 3,
        seed: 9,
    });
    assert_generous_budget_changes_nothing("fsm seed 9", &c);
    for b in gen::suite() {
        if ["kirkman", "dk16", "s420"].contains(&b.name) {
            assert_generous_budget_changes_nothing(b.name, &b.circuit);
        }
    }
}

/// The same check over every suite row, s5378 included. Run it in a
/// release build: `cargo test --release -p turbosyn --test degradation
/// -- --ignored generous_budget_changes_nothing_on_the_suite`.
#[test]
#[ignore = "release-only: maps the whole suite twice with TurboSYN"]
fn generous_budget_changes_nothing_on_the_suite() {
    for b in gen::suite() {
        assert_generous_budget_changes_nothing(b.name, &b.circuit);
    }
}

#[test]
fn tiny_work_budget_keeps_best_verified_mapping_or_fails_typed() {
    // A small expanded-node work budget may cut the binary search short.
    // Contract: either a typed BudgetExceeded error (no mapping proven
    // yet) or a verified mapping with a degradation report — never a
    // panic, never an unverified result.
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 4,
        inputs: 3,
        outputs: 3,
        depth: 4,
        seed: 5,
    });
    let opts = MapOptions {
        budget: Budget::default().with_max_work(2_000),
        ..MapOptions::default()
    };
    match turbosyn(&c, &opts) {
        Ok(report) => {
            verify_mapping(&c, &report.mapped, 5, report.phi, 48).expect("mapping verifies");
            if let Some(d) = &report.degradation {
                assert_eq!(d.phi_achieved, report.phi);
                assert!(!d.events.is_empty());
            }
        }
        Err(e) => assert!(
            matches!(e, SynthesisError::BudgetExceeded { .. }),
            "got {e}"
        ),
    }
}

/// The work a label computation charges to its gauge is pinned:
/// `max_work` budgets trip where the charges say, so handing the flow
/// test's expansion to the resynthesis descent must charge what
/// rebuilding it there did.
#[test]
fn label_work_charges_are_pinned() {
    let suite = gen::suite();
    let bbara = &suite.iter().find(|b| b.name == "bbara").expect("a row");
    let gauge = Gauge::new(Budget::default());
    let out = compute_labels_governed(&bbara.circuit, &LabelOptions::turbosyn(5, 1), &gauge)
        .expect("an unlimited budget never interrupts");
    assert!(matches!(out, LabelOutcome::Infeasible { .. }));
    assert_eq!(out.stats().resyn_attempts, 434);
    assert_eq!(gauge.work(), 62_357, "charged work");
}
