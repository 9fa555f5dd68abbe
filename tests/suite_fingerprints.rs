//! Golden fingerprints of the mappers' output on the benchmark suite.
//!
//! Each fingerprint is FNV-1a over the canonical report JSON followed by
//! the BLIF text of the final circuit. The constants pin the exact
//! reports, so a refactor or optimisation that claims to change nothing
//! must leave every one of them as it is. TurboMap covers all 16
//! `gen::suite()` rows (s5378 included); TurboSYN covers kirkman, bbara
//! and cse, which exercise resynthesis and the `cmax = 15` descent. A
//! warm-engine arm maps the TurboSYN rows and s5378 twice through one
//! [`Engine`]: both runs must hash to the same constants, which pins the
//! contract that a long-lived engine (the serve worker) never changes a
//! report.
//!
//! The runs take seconds in a release build but minutes in a debug one,
//! so the tests are ignored by default: `cargo test --release --test
//! suite_fingerprints -- --ignored`.

use turbosyn::{report_to_json, turbomap, turbosyn, Engine, MapOptions, MapReport};
use turbosyn_netlist::{blif, gen};

/// TurboMap fingerprints, one per suite row, in `gen::suite()` order.
const TURBOMAP: [(&str, u64); 16] = [
    ("bbara", 0x7376_fd8e_e7a2_105d),
    ("bbsse", 0x68dc_2c61_50b3_acdc),
    ("cse", 0x09b2_7180_d023_78cd),
    ("dk16", 0xf749_88b2_de78_75af),
    ("keyb", 0x75ae_bc24_cf0f_5110),
    ("kirkman", 0xcf8d_14d2_f55a_e722),
    ("planet", 0x0a52_fe91_60ce_4531),
    ("pma", 0xbc44_4660_25a9_edcb),
    ("s1", 0xd6a5_2d38_5b04_c691),
    ("sand", 0xf389_3d7d_b87c_f2de),
    ("scf", 0x4b13_58d0_3848_5c2b),
    ("styr", 0xb9d5_0c36_59a5_58c9),
    ("s420", 0x8eff_c20e_204f_43d7),
    ("s838", 0x60dc_d016_7eb2_3163),
    ("s1423", 0xc929_1467_5802_0d3a),
    ("s5378", 0x5a5e_e87f_a8e2_9db0),
];

/// TurboSYN fingerprints on the rows that exercise resynthesis.
const TURBOSYN: [(&str, u64); 3] = [
    ("kirkman", 0xea67_87bf_c141_af8a),
    ("bbara", 0x6a16_6bc9_ee14_2011),
    ("cse", 0x45ab_ea4f_2ecf_9040),
];

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(report: &MapReport) -> u64 {
    let h = fnv1a(
        report_to_json(report).write().as_bytes(),
        0xcbf2_9ce4_8422_2325,
    );
    fnv1a(blif::write(&report.final_circuit).as_bytes(), h)
}

/// Compares every row before failing, so one run lists all drifts.
fn check(
    mapper: &str,
    golden: &[(&str, u64)],
    map: impl Fn(&turbosyn_netlist::Circuit) -> MapReport,
) {
    let suite = gen::suite();
    let mut drift = Vec::new();
    for &(name, want) in golden {
        let bench = suite
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("{name} is not a suite row"));
        let got = fingerprint(&map(&bench.circuit));
        if got != want {
            drift.push(format!("{mapper} {name}: {got:#018x} (want {want:#018x})"));
        }
    }
    assert!(
        drift.is_empty(),
        "fingerprints drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
#[ignore = "release-only: maps the whole suite"]
fn turbomap_suite_fingerprints() {
    assert_eq!(TURBOMAP.len(), gen::suite().len(), "every row is pinned");
    check("turbomap", &TURBOMAP, |c| {
        turbomap(c, &MapOptions::default()).expect("maps")
    });
}

#[test]
#[ignore = "release-only: runs TurboSYN on three FSM rows"]
fn turbosyn_suite_fingerprints() {
    check("turbosyn", &TURBOSYN, |c| {
        turbosyn(c, &MapOptions::default()).expect("maps")
    });
}

/// Runs `map` twice; both runs must fingerprint alike.
fn twice(map: impl Fn() -> MapReport) -> MapReport {
    let first = map();
    let second = map();
    assert_eq!(
        fingerprint(&first),
        fingerprint(&second),
        "a warm rerun changed the report"
    );
    second
}

#[test]
#[ignore = "release-only: runs TurboSYN on three FSM rows and TurboMap on s5378, twice each"]
fn warm_engine_runs_match_the_golden_fingerprints() {
    // One engine for every row: per-circuit state is flushed between
    // circuits, and the decomposition cache carries across them.
    let engine = Engine::new();
    let opts = MapOptions::default();
    check("warm turbosyn", &TURBOSYN, |c| {
        twice(|| engine.turbosyn(c, &opts).expect("maps"))
    });
    let s5378: Vec<_> = TURBOMAP
        .iter()
        .copied()
        .filter(|r| r.0 == "s5378")
        .collect();
    check("warm turbomap", &s5378, |c| {
        twice(|| engine.turbomap(c, &opts).expect("maps"))
    });
}
