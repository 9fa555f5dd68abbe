//! One operation — what a CLI `--emit-json` call or a serve `map`
//! request does — and the independent check of its output.

use crate::workload::{Input, Mapper};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use turbosyn::{CacheStats, Engine, LabelStats, MapOptions, TraceSink};
use turbosyn_netlist::{blif, equiv, Circuit};

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// What an operation hands back, plus the deterministic work counters
/// the benchmark reads from the report and the engine.
#[derive(Debug)]
pub struct Product {
    pub phi: i64,
    pub lut_count: usize,
    pub register_count: u64,
    pub clock_period: i64,
    pub probes: Vec<(i64, bool)>,
    pub stats: LabelStats,
    pub cache: CacheStats,
    pub json: String,
    pub final_blif: String,
    pub final_circuit: Circuit,
}

impl Product {
    /// The report fingerprint: Φ, LUTs, FFs, clock period, probes and the
    /// final BLIF.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.int(self.phi);
        h.int(self.lut_count as i64);
        h.int(self.register_count as i64);
        h.int(self.clock_period);
        for &(phi, feasible) in &self.probes {
            h.int(phi);
            h.int(i64::from(feasible));
        }
        h.bytes(self.final_blif.as_bytes());
        h.0
    }
}

/// Runs one operation on `engine`: BLIF text in, `blif::parse`, the
/// mapper call, `report_to_json` and `blif::write` of the final circuit
/// out. Returns the operation's wall time and its product; an error, a
/// panic or a degraded report is a failure. When `sink` is enabled the
/// benchmark's own spans go around each public call.
pub fn run(
    engine: &Engine,
    input: &Input,
    mapper: Mapper,
    sink: &TraceSink,
) -> (Duration, Result<Product, String>) {
    let before = engine.cache_stats();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _op = sink.span("bench.op");
        let circuit = {
            let _s = sink.span("netlist.blif.parse");
            blif::parse(&input.blif).map_err(|e| format!("parse: {e}"))?
        };
        let opts = MapOptions::default();
        let report = {
            let _s = sink.span("core.mappers");
            match mapper {
                Mapper::TurboMap => engine.turbomap(&circuit, &opts),
                Mapper::TurboSyn => engine.turbosyn(&circuit, &opts),
            }
            .map_err(|e| format!("{}: {e}", mapper.name()))?
        };
        let json = {
            let _s = sink.span("json.report");
            turbosyn::report_to_json(&report).write()
        };
        let final_blif = {
            let _s = sink.span("netlist.blif.write");
            blif::write(&report.final_circuit)
        };
        Ok((report, json, final_blif))
    }));
    let elapsed = start.elapsed();
    let product = match result {
        Err(_) => Err(format!("{} panicked", mapper.name())),
        Ok(Err(e)) => Err(e),
        Ok(Ok((report, _, _))) if report.degradation.is_some() => {
            Err(format!("degraded: {:?}", report.degradation))
        }
        Ok(Ok((report, json, final_blif))) => Ok(Product {
            phi: report.phi,
            lut_count: report.lut_count,
            register_count: report.register_count,
            clock_period: report.clock_period,
            probes: report.probes,
            stats: report.stats,
            cache: engine.cache_stats().delta_since(before),
            json,
            final_blif,
            final_circuit: report.final_circuit,
        }),
    };
    (elapsed, product)
}

/// LUT input count of `MapOptions::default()`.
const K: usize = 5;

/// Checks an operation's output against its input without the mapper's
/// own `verify_mapping`: co-simulation aligns every output, the final
/// circuit's clock period is the reported one and at most Φ, every LUT
/// has at most K inputs, and both emitted texts read back.
pub fn check(input: &Input, p: &Product) -> Result<(), String> {
    let alignment = equiv::sequential_equiv_by_simulation(
        &input.circuit,
        &p.final_circuit,
        400,
        40,
        64,
        0x5eed,
    )
    .map_err(|e| format!("not equivalent: {e}"))?;
    if alignment.lags.len() != input.circuit.outputs().len() {
        return Err("not every output aligned".into());
    }
    let period = turbosyn_retime::clock_period(&p.final_circuit);
    if period != p.clock_period || p.clock_period > p.phi {
        return Err(format!(
            "clock period {period}, reported {}, phi {}",
            p.clock_period, p.phi
        ));
    }
    if !p.final_circuit.is_k_bounded(K) {
        return Err(format!("final circuit is not {K}-bounded"));
    }
    let reread = blif::parse(&p.final_blif).map_err(|e| format!("output BLIF: {e}"))?;
    if blif::write(&reread) != p.final_blif {
        return Err("output BLIF does not read back".into());
    }
    let json = turbosyn_json::Json::parse(&p.json).map_err(|e| format!("report JSON: {e}"))?;
    let field = |key: &str| json.get(key).and_then(turbosyn_json::Json::as_int);
    if field("phi") != Some(i128::from(p.phi))
        || field("clock_period") != Some(i128::from(p.clock_period))
        || field("lut_count") != Some(p.lut_count as i128)
    {
        return Err("report JSON disagrees with the report".into());
    }
    Ok(())
}

/// Checks that a generated input reads back from its BLIF text.
pub fn check_input(input: &Input) -> Result<(), String> {
    let parsed = blif::parse(&input.blif).map_err(|e| format!("input BLIF: {e}"))?;
    if blif::write(&parsed) != input.blif {
        return Err(format!("{}: input BLIF does not read back", input.name));
    }
    Ok(())
}
