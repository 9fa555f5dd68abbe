//! Exact MDR ratios of the benchmark suite.
//!
//! The golden suite fingerprints see the MDR ratio only through the final
//! clock period. These constants pin the gate-level ratio of every
//! `gen::suite()` row after 5-bounding, and the period lower bound that
//! the mappers' φ search starts from, so a change to the cycle-ratio
//! kernel that moves either one fails here by name.

use turbosyn_graph::cycle_ratio::Ratio;
use turbosyn_netlist::gen;
use turbosyn_retime::{mdr_ratio, period_lower_bound};

/// `(row, numerator, denominator)` in `gen::suite()` order.
const RATIOS: [(&str, i64, i64); 16] = [
    ("bbara", 6, 1),
    ("bbsse", 7, 1),
    ("cse", 8, 1),
    ("dk16", 16, 3),
    ("keyb", 20, 3),
    ("kirkman", 6, 1),
    ("planet", 10, 1),
    ("pma", 9, 1),
    ("s1", 9, 1),
    ("sand", 10, 1),
    ("scf", 10, 1),
    ("styr", 13, 2),
    ("s420", 3, 2),
    ("s838", 7, 2),
    ("s1423", 27, 11),
    ("s5378", 4, 1),
];

#[test]
fn suite_mdr_ratios_are_pinned() {
    let suite = gen::suite();
    assert_eq!(suite.len(), RATIOS.len());
    for (row, &(name, num, den)) in suite.iter().zip(&RATIOS) {
        assert_eq!(row.name, name, "suite order changed");
        let c = gen::ensure_k_bounded(&row.circuit, 5);
        let want = Ratio::new(num, den);
        assert_eq!(mdr_ratio(&c), Ok(want), "{name}: MDR ratio");
        assert_eq!(period_lower_bound(&c), want.ceil(), "{name}: lower bound");
    }
}
