//! The three workloads: their circuits, their operations and the seeded
//! order in which a pass issues them.
//!
//! Circuits come from the suite's generator configurations. Circuit seed
//! 0 (the default) reproduces `gen::suite()` exactly; any other circuit
//! seed regenerates every row from the same configuration shape with a
//! derived generator seed, which gives held-out circuits. The workload
//! seed (`--seed`) only decides the order of operations and the request
//! stream, so different workload seeds measure the same circuits (see
//! README.md for why).

use std::time::Instant;
use turbosyn_netlist::gen::{self, FsmConfig, IscasConfig};
use turbosyn_netlist::{blif, Circuit};

/// SplitMix64: the benchmark's own deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A suite row: its name and the generator configuration of its shape.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Fsm(FsmConfig),
    Iscas(IscasConfig),
}

const fn fsm(state_bits: usize, inputs: usize, outputs: usize, depth: usize, seed: u64) -> Shape {
    Shape::Fsm(FsmConfig {
        state_bits,
        inputs,
        outputs,
        depth,
        seed,
    })
}

const fn iscas(
    layers: usize,
    width: usize,
    inputs: usize,
    outputs: usize,
    feedback_pct: u8,
    seed: u64,
) -> Shape {
    Shape::Iscas(IscasConfig {
        layers,
        width,
        inputs,
        outputs,
        feedback_pct,
        seed,
    })
}

/// The Table-1 rows in `gen::suite()` order, with the configurations
/// `gen::suite()` uses (checked by the `default_seed_is_the_suite`
/// test).
pub const SUITE: [(&str, Shape); 16] = [
    ("bbara", fsm(4, 4, 2, 6, 101)),
    ("bbsse", fsm(4, 7, 7, 7, 102)),
    ("cse", fsm(4, 7, 7, 8, 103)),
    ("dk16", fsm(5, 2, 3, 10, 104)),
    ("keyb", fsm(5, 7, 2, 8, 105)),
    ("kirkman", fsm(4, 12, 6, 6, 106)),
    ("planet", fsm(6, 7, 19, 10, 107)),
    ("pma", fsm(5, 8, 8, 9, 108)),
    ("s1", fsm(5, 8, 6, 9, 109)),
    ("sand", fsm(5, 11, 9, 10, 110)),
    ("scf", fsm(7, 10, 20, 10, 111)),
    ("styr", fsm(5, 9, 10, 9, 112)),
    ("s420", iscas(6, 35, 18, 2, 20, 201)),
    ("s838", iscas(8, 55, 34, 2, 20, 202)),
    ("s1423", iscas(10, 70, 17, 5, 24, 203)),
    ("s5378", iscas(12, 230, 35, 49, 24, 204)),
];

/// The generator seed of a row: the suite's own at circuit seed 0, a
/// derived one otherwise.
fn derived_seed(base: u64, circuit_seed: u64) -> u64 {
    if circuit_seed == 0 {
        base
    } else {
        Rng::new(circuit_seed ^ base.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
    }
}

/// Generates suite row `name` at `circuit_seed`.
pub fn generate(name: &str, circuit_seed: u64) -> Circuit {
    let (row, shape) = SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .expect("workload rows are suite rows");
    let mut c = match *shape {
        Shape::Fsm(cfg) => gen::fsm(FsmConfig {
            seed: derived_seed(cfg.seed, circuit_seed),
            ..cfg
        }),
        Shape::Iscas(cfg) => gen::iscas_like(IscasConfig {
            seed: derived_seed(cfg.seed, circuit_seed),
            ..cfg
        }),
    };
    c.set_name(*row);
    c
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mapper {
    TurboMap,
    TurboSyn,
}

impl Mapper {
    pub fn name(self) -> &'static str {
        match self {
            Mapper::TurboMap => "turbomap",
            Mapper::TurboSyn => "turbosyn",
        }
    }
}

/// One workload input: the circuit as generated and as BLIF text, the
/// form an operation receives.
#[derive(Debug)]
pub struct Input {
    pub name: &'static str,
    pub circuit: Circuit,
    pub blif: String,
}

/// One operation: map input `input` with `mapper`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Request {
    pub mapper: Mapper,
    pub input: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FsmTurbosyn,
    TurbomapSuite,
    Resubmit,
}

/// FSM rows of `fsm-turbosyn`: a small, a middle and a large TurboSYN
/// row (0.2 s, 1.6 s and 3.5 s cold), so a pass fits several times in a
/// run and the median operation is the middle row.
const FSM_TURBOSYN_ROWS: [&str; 3] = ["kirkman", "bbara", "cse"];
/// TurboSYN rows of the `resubmit` pool: the rows that map cold in
/// about 1.5 s or less.
const RESUBMIT_TURBOSYN_ROWS: [&str; 6] = ["bbara", "kirkman", "dk16", "s420", "s838", "s1423"];
/// Requests per (circuit, mapper) pair in one `resubmit` stream: the
/// first writes the engine's caches, the rest read them. An assumed
/// burst length: nothing in the repository records how often serve
/// clients resubmit a design (see README.md).
pub const RESUBMIT_COPIES: usize = 4;

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FsmTurbosyn, Kind::TurbomapSuite, Kind::Resubmit];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FsmTurbosyn => "fsm-turbosyn",
            Kind::TurbomapSuite => "turbomap-suite",
            Kind::Resubmit => "resubmit",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether one engine serves a whole pass (the serve worker) rather
    /// than a fresh engine serving each operation (a CLI call).
    pub fn long_lived_engine(self) -> bool {
        self == Kind::Resubmit
    }

    /// The rows this workload maps.
    pub fn rows(self) -> Vec<&'static str> {
        match self {
            Kind::FsmTurbosyn => FSM_TURBOSYN_ROWS.to_vec(),
            Kind::TurbomapSuite | Kind::Resubmit => SUITE.iter().map(|(n, _)| *n).collect(),
        }
    }

    /// The distinct operations of the workload.
    pub fn pairs(self, inputs: &[Input]) -> Vec<Request> {
        let mut pairs = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let syn = match self {
                Kind::FsmTurbosyn => true,
                Kind::TurbomapSuite => false,
                Kind::Resubmit => RESUBMIT_TURBOSYN_ROWS.contains(&input.name),
            };
            if self != Kind::FsmTurbosyn {
                pairs.push(Request {
                    mapper: Mapper::TurboMap,
                    input: i,
                });
            }
            if syn {
                pairs.push(Request {
                    mapper: Mapper::TurboSyn,
                    input: i,
                });
            }
        }
        pairs
    }

    /// The operations of one pass, in the order the client issues them;
    /// every pass of a run issues the same order. Cold workloads issue
    /// every pair once in a seeded order. The `resubmit` stream visits
    /// the circuits in a seeded order and issues each circuit's pairs,
    /// TurboMap first, as bursts of [`RESUBMIT_COPIES`] requests — an
    /// assumed bursty client resubmitting the design it is working on.
    /// Most requests repeat the one before them, and every seed sees the
    /// same cache interplay between a circuit's two mappers.
    pub fn pass_order(self, pairs: &[Request], seed: u64) -> Vec<Request> {
        let mut rng = Rng::new(seed);
        if self != Kind::Resubmit {
            let mut order = pairs.to_vec();
            rng.shuffle(&mut order);
            return order;
        }
        // `pairs` lists each circuit's pairs together.
        let mut circuits: Vec<usize> = pairs.iter().map(|r| r.input).collect();
        circuits.dedup();
        rng.shuffle(&mut circuits);
        circuits
            .into_iter()
            .flat_map(|c| pairs.iter().filter(move |r| r.input == c))
            .flat_map(|&req| std::iter::repeat(req).take(RESUBMIT_COPIES))
            .collect()
    }

    /// Seconds one pass takes at the commit that introduced the
    /// benchmark on a shared 2-core x86-64 machine in its slower state
    /// (passes there run up to 1.5x faster at times). A run makes
    /// `--seconds` divided by this many passes, so runs of a workload at
    /// the same `--seconds` have the same sample count and tail
    /// percentile.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Kind::FsmTurbosyn => 5.0,
            Kind::TurbomapSuite => 3.2,
            Kind::Resubmit => 10.0,
        }
    }
}

/// Generates the workload's inputs; returns them with the time taken.
pub fn setup(kind: Kind, circuit_seed: u64) -> (Vec<Input>, f64) {
    let t = Instant::now();
    let inputs: Vec<Input> = kind
        .rows()
        .into_iter()
        .map(|name| {
            let circuit = generate(name, circuit_seed);
            let blif = blif::write(&circuit);
            Input {
                name,
                circuit,
                blif,
            }
        })
        .collect();
    (inputs, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_suite() {
        let suite = gen::suite();
        assert_eq!(suite.len(), SUITE.len());
        for (b, (name, _)) in suite.iter().zip(SUITE.iter()) {
            assert_eq!(b.name, *name);
            assert_eq!(blif::write(&b.circuit), blif::write(&generate(name, 0)));
        }
    }

    #[test]
    fn other_seeds_hold_out_circuits_of_the_same_shape() {
        let base = generate("bbara", 0);
        let held = generate("bbara", 7);
        assert_eq!(held, generate("bbara", 7));
        assert_ne!(blif::write(&base), blif::write(&held));
        assert_eq!(base.inputs().len(), held.inputs().len());
        assert_eq!(base.outputs().len(), held.outputs().len());
    }

    #[test]
    fn resubmit_streams_repeat_pairs_and_vary_with_the_seed() {
        let (inputs, _) = setup(Kind::Resubmit, 0);
        let pairs = Kind::Resubmit.pairs(&inputs);
        assert_eq!(pairs.len(), 16 + RESUBMIT_TURBOSYN_ROWS.len());
        let a = Kind::Resubmit.pass_order(&pairs, 1);
        assert_eq!(a.len(), pairs.len() * RESUBMIT_COPIES);
        assert_eq!(a, Kind::Resubmit.pass_order(&pairs, 1));
        assert_ne!(a, Kind::Resubmit.pass_order(&pairs, 2));
        assert!(a
            .chunks(RESUBMIT_COPIES)
            .all(|burst| burst.iter().all(|r| *r == burst[0])));
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), pairs.len());
    }
}
