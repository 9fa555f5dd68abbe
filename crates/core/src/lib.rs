//! **TurboSYN** — FPGA synthesis with retiming and pipelining for clock
//! period minimization of sequential circuits (Cong & Wu, DAC 1997) —
//! plus the baselines it is evaluated against.
//!
//! Given a K-bounded sequential circuit, [`turbosyn`] finds a K-LUT
//! mapping whose **maximum delay-to-register (MDR) ratio** over all loops
//! is minimized; after retiming and pipelining (performed here too, via
//! [`turbosyn_retime`]), that ratio *is* the clock period, because
//! pipelining eliminates every critical I/O path and only loops remain.
//! The search probes integer target ratios φ by the TurboMap label
//! computation ([`label`]), extended with two ideas from the paper:
//!
//! 1. **Sequential functional decomposition** ([`seqdecomp`]): when no
//!    K-feasible cut of the required height exists on the expanded
//!    circuit ([`expand`]), the cut function is resynthesized by
//!    functional decomposition (on truth tables of at most 16 inputs) so
//!    that non-critical inputs are buried in extra LUT levels and critical
//!    loops break.
//! 2. **Positive loop detection** ([`pld`]): infeasible φ probes are
//!    detected by a predecessor-graph isolation test instead of the
//!    `n²`-iteration bound, the paper's 10–50x label-computation speedup.
//!
//! Baselines: [`turbomap`] (no resynthesis), [`flowsyn_s`] (combinational
//! FlowSYN per register-bounded subcircuit), and [`map_combinational`]
//! (FlowMap / FlowSYN). Every mapper verifies its own output:
//! cycle-accurate equivalence by co-simulation, K-boundedness, and the
//! claimed ratio ([`verify`]).
//!
//! All mappers run under a resource-governance layer ([`budget`]): a
//! [`Budget`] caps wall-clock time, expansion work and labeling sweeps,
//! a [`CancelToken`] allows cooperative cancellation, and on exhaustion
//! the engine degrades to the best verified mapping it can still
//! guarantee (reported via [`Degradation`]) instead of
//! panicking or spinning. Failures surface as typed [`SynthesisError`]s.
//!
//! # Quickstart
//!
//! ```
//! use turbosyn::{turbosyn, turbomap, MapOptions};
//! use turbosyn_netlist::gen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Figure 1 class: a loop whose cuts are too wide for
//! // K = 5 until resynthesis extracts the off-loop side products.
//! let circuit = gen::figure1();
//! let opts = MapOptions::default(); // K = 5, PLD on
//! let tm = turbomap(&circuit, &opts)?;
//! let ts = turbosyn(&circuit, &opts)?;
//! assert_eq!(tm.phi, 2); // pure mapping cannot beat clock period 2
//! assert_eq!(ts.phi, 1); // resynthesis reaches the MDR bound 1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod budget;
mod cache;
pub mod engine;
pub mod error;
pub mod expand;
pub mod flow;
pub mod label;
pub mod mapgen;
pub mod mappers;
pub mod pld;
pub mod report_json;
pub mod seqdecomp;
pub mod verify;

pub use budget::{Budget, CancelToken, Degradation, DegradeEvent, Gauge, Interrupted};
pub use cache::CacheStats;
pub use engine::Engine;
pub use error::SynthesisError;
pub use expand::ExpandLimits;
pub use label::{
    compute_labels, compute_labels_governed, LabelOptions, LabelOutcome, LabelStats, StopRule,
};
pub use mapgen::generate_mapping;
pub use mappers::{flowsyn_s, map_combinational, turbomap, turbosyn, MapOptions, MapReport};
pub use report_json::{degradation_to_json, label_stats_to_json, report_to_json};
pub use turbosyn_trace as trace;
pub use turbosyn_trace::TraceSink;
pub use verify::{verify_mapping, VerifyError};
