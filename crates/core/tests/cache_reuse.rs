//! Cache-correctness contract for [`Engine`]: mapping the same circuit
//! twice through one engine replays the probe lineage on the second
//! pass, and still produces an identical report.

use turbosyn::{Engine, MapOptions, MapReport};
use turbosyn_netlist::{blif, gen};

#[allow(clippy::type_complexity)]
fn fingerprint(r: &MapReport) -> (i64, usize, u64, i64, Vec<(i64, bool)>, String) {
    (
        r.phi,
        r.lut_count,
        r.register_count,
        r.clock_period,
        r.probes.clone(),
        blif::write(&r.final_circuit),
    )
}

#[test]
fn second_run_hits_caches_and_matches_first() {
    // figure1 exercises resynthesis (φ drops 2 → 1 through sequential
    // decomposition) over a multi-probe binary search.
    let c = gen::figure1();
    let engine = Engine::new();
    let opts = MapOptions::default();

    let first = engine.turbosyn(&c, &opts).expect("first run maps");
    let work_first = engine.label_stats();

    let second = engine.turbosyn(&c, &opts).expect("second run maps");
    let work_second = engine.label_stats().delta_since(work_first);

    assert_eq!(
        fingerprint(&second),
        fingerprint(&first),
        "cached rerun must be bit-identical"
    );
    assert!(
        work_second.warm_started_probes > 0,
        "second run must warm-start its probes: {work_second:?}"
    );
    assert!(
        work_second.cut_tests < work_first.cut_tests,
        "second run must test fewer cuts: {work_second:?} vs {work_first:?}"
    );
}

#[test]
fn engine_matches_stateless_mappers() {
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 2,
        depth: 4,
        seed: 21,
    });
    let opts = MapOptions::default();
    let engine = Engine::new();
    let stateless = turbosyn::turbosyn(&c, &opts).expect("stateless maps");
    let warm = {
        engine.turbosyn(&c, &opts).expect("warm-up run");
        engine.turbosyn(&c, &opts).expect("cached run")
    };
    assert_eq!(fingerprint(&warm), fingerprint(&stateless));
}

#[test]
fn structural_change_flushes_per_circuit_state_but_stays_correct() {
    // Alternating circuits through one engine: the per-circuit state
    // (probe lineage, infeasible marks) is keyed to a structural
    // fingerprint and must never leak from one circuit into another.
    let a = gen::figure1();
    let b = gen::fsm(gen::FsmConfig {
        state_bits: 2,
        inputs: 2,
        outputs: 2,
        depth: 3,
        seed: 4,
    });
    let opts = MapOptions::default();
    let engine = Engine::new();

    let a_cold = engine.turbosyn(&a, &opts).expect("a cold");
    let b_cold = engine.turbosyn(&b, &opts).expect("b cold");
    let a_again = engine.turbosyn(&a, &opts).expect("a again");
    let b_again = engine.turbosyn(&b, &opts).expect("b again");

    let a_ref = turbosyn::turbosyn(&a, &opts).expect("a stateless");
    let b_ref = turbosyn::turbosyn(&b, &opts).expect("b stateless");
    for r in [&a_cold, &a_again] {
        assert_eq!(fingerprint(r), fingerprint(&a_ref));
    }
    for r in [&b_cold, &b_again] {
        assert_eq!(fingerprint(r), fingerprint(&b_ref));
    }
}
