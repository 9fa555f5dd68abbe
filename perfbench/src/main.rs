//! The repository benchmark: batch-compile time and clock-period quality
//! of the TurboSYN mappers on three workloads, with per-layer
//! attribution from a separate traced run. See README.md.
//!
//! ```text
//! perfbench --workload <fsm-turbosyn|turbomap-suite|resubmit>
//!           [--seed N] [--seconds S] [--trace 0|1] [--circuit-seed N]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod calib;
mod layers;
mod op;
mod stats;
mod workload;

use op::{Fnv, Product};
use stats::{median, percentile, tail_percentile};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};
use std::time::Instant;
use turbosyn::{Engine, TraceSink};
use turbosyn_netlist::gen;
use workload::{Input, Kind, Request};

/// Set-up repetitions before the first pass and after each pass;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;
/// A run makes its planned passes unless the next one would end later
/// than this share of `--seconds` (after at least two), so a run on a
/// machine slower than the nominal one still ends in time.
const OVERRUN: f64 = 1.3;

struct Args {
    kind: Kind,
    seed: u64,
    circuit_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut circuit_seed, mut seconds, mut trace) = (0, 0, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = number()?,
            "--circuit-seed" => circuit_seed = number()?,
            "--seconds" => seconds = number()? as f64,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        circuit_seed,
        seconds,
        trace,
    })
}

/// What the benchmark keeps of one operation once it is checked.
struct OpRecord {
    req: Request,
    latency_s: f64,
    first_sight: bool,
    outcome: Result<Quality, String>,
}

#[derive(Clone, Copy)]
struct Quality {
    fingerprint: u64,
    phi: i64,
    luts: usize,
    ffs: u64,
}

struct Pass {
    traced: bool,
    wall_s: f64,
    /// `calib::REFERENCE_S` over the median probe time of the pass: the
    /// factor that scales its timings to the reference machine speed.
    scale: f64,
    ops: Vec<OpRecord>,
    digest: u64,
    /// Report and cache counters (every pass).
    counters: Vec<(&'static str, u64)>,
    /// Counts the trace records (traced passes; empty otherwise).
    trace_counters: Vec<(&'static str, u64)>,
    /// Per-layer metrics and the attribution table (traced passes).
    layers: Option<(layers::Values, layers::Table)>,
}

/// Independent checks already made, keyed by operation and fingerprint:
/// the check is a function of input and output, so a repeat with the
/// same output needs no second simulation.
type CheckMemo = HashMap<(Request, u64), Result<(), String>>;

fn run_pass(
    kind: Kind,
    inputs: &[Input],
    pairs: &[Request],
    seed: u64,
    traced: bool,
    memo: &mut CheckMemo,
    probe: &mut calib::Probe,
) -> Pass {
    let order = kind.pass_order(pairs, seed);
    let sink = if traced {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let new_engine = || {
        if traced {
            Engine::with_trace(sink.clone())
        } else {
            Engine::new()
        }
    };
    let shared = kind.long_lived_engine().then(new_engine);
    let mut seen = HashSet::new();
    let mut timed: Vec<(Request, f64, bool, Result<Product, String>)> = Vec::new();
    let start = Instant::now();
    for &req in &order {
        probe.sample();
        let fresh;
        let engine = match &shared {
            Some(e) => e,
            None => {
                fresh = new_engine();
                &fresh
            }
        };
        let (latency, product) = op::run(engine, &inputs[req.input], req.mapper, &sink);
        timed.push((req, latency.as_secs_f64(), seen.insert(req), product));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let scale = calib::REFERENCE_S / median(&probe.take());
    drop(shared);

    let products: Vec<&Product> = timed.iter().filter_map(|t| t.3.as_ref().ok()).collect();
    let counters = layers::report_counters(&products);
    let mut trace_counters = Vec::new();
    let layers = traced.then(|| {
        let trace = sink.drain();
        trace_counters = layers::trace_counters(&trace);
        let plb_ns = period_lower_bound_ns(inputs, &order);
        (
            layers::pass_metrics(&trace, &products, plb_ns),
            layers::attribution(&trace),
        )
    });

    let mut first: HashMap<Request, u64> = HashMap::new();
    let ops: Vec<OpRecord> = timed
        .into_iter()
        .map(|(req, latency_s, first_sight, product)| {
            let outcome = product.and_then(|p| {
                let fingerprint = p.fingerprint();
                memo.entry((req, fingerprint))
                    .or_insert_with(|| op::check(&inputs[req.input], &p))
                    .clone()?;
                if *first.entry(req).or_insert(fingerprint) != fingerprint {
                    return Err("output differs from the pair's first sight".into());
                }
                Ok(Quality {
                    fingerprint,
                    phi: p.phi,
                    luts: p.lut_count,
                    ffs: p.register_count,
                })
            });
            OpRecord {
                req,
                latency_s,
                first_sight,
                outcome,
            }
        })
        .collect();
    let digest = digest(inputs, &ops);
    Pass {
        traced,
        wall_s,
        scale,
        ops,
        digest,
        counters,
        trace_counters,
        layers,
    }
}

/// The time `period_lower_bound` takes on the prepared inputs of the
/// pass's operations — one call per operation, as the mappers make it —
/// measured once per distinct input and scaled by its operation count.
fn period_lower_bound_ns(inputs: &[Input], order: &[Request]) -> u64 {
    let mut per_input = vec![0u64; inputs.len()];
    for req in order {
        per_input[req.input] += 1;
    }
    let mut total = 0;
    for (input, &ops) in inputs.iter().zip(&per_input) {
        if ops == 0 {
            continue;
        }
        let prepared = gen::ensure_k_bounded(&input.circuit, 5);
        let t = Instant::now();
        black_box(turbosyn_retime::period_lower_bound(black_box(&prepared)));
        total += t.elapsed().as_nanos() as u64 * ops;
    }
    total
}

/// FNV digest over the fingerprints of the pass's distinct operations,
/// in a fixed order.
fn digest(inputs: &[Input], ops: &[OpRecord]) -> u64 {
    let mut distinct: Vec<&OpRecord> = Vec::new();
    for op in ops {
        if !distinct.iter().any(|d| d.req == op.req) {
            distinct.push(op);
        }
    }
    distinct.sort_by_key(|op| op.req);
    let mut h = Fnv::default();
    for op in distinct {
        h.bytes(op.req.mapper.name().as_bytes());
        h.bytes(inputs[op.req.input].name.as_bytes());
        match &op.outcome {
            Ok(q) => h.bytes(&q.fingerprint.to_le_bytes()),
            Err(_) => h.bytes(b"failed"),
        }
    }
    h.0
}

fn json_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Re-executes the benchmark with address-space layout randomization
/// off, as `setarch -R` does. Where the heap and the libraries land
/// changes how fast the mappers run by up to 15% from one process to the
/// next; with one fixed layout, runs of the same binary spread far less.
/// Returns (and the run keeps its random layout) if either step fails.
fn fix_address_layout() {
    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: personality(2) takes a plain integer and only reads (QUERY)
    // or sets this process's execution-domain flags; no memory is shared.
    let current = unsafe { personality(QUERY) };
    if current < 0 || current as c_ulong & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above.
    if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        let err = Command::new(exe).args(std::env::args_os().skip(1)).exec();
        eprintln!("perfbench: cannot re-execute with a fixed layout ({err})");
    }
}

fn main() -> ExitCode {
    fix_address_layout();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--circuit-seed N]",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;

    // Set-up is timed in rounds spread over the run, so its median sees
    // the same machine conditions as the passes.
    let mut setup_times = Vec::new();
    let mut set_up = || {
        let mut inputs = Vec::new();
        for _ in 0..SETUP_REPS {
            let (generated, secs) = workload::setup(kind, args.circuit_seed);
            setup_times.push(secs);
            inputs = black_box(generated);
        }
        inputs
    };
    let inputs = set_up();
    let mut correct = true;
    for input in &inputs {
        if let Err(e) = op::check_input(input) {
            println!("input check failed: {e}");
            correct = false;
        }
    }
    let pairs = kind.pairs(&inputs);

    let start = Instant::now();
    let mut memo = CheckMemo::new();
    let mut probe = calib::Probe::default();
    let mut passes: Vec<Pass> = Vec::new();
    let planned = ((args.seconds / kind.nominal_pass_s()).round() as usize).max(2);
    while passes.len() < planned {
        if passes.len() >= 2 {
            let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
            if start.elapsed().as_secs_f64() + median(&walls) > OVERRUN * args.seconds {
                break;
            }
        }
        // A traced run alternates untraced and traced passes, so both
        // see the same machine conditions.
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(run_pass(
            kind, &inputs, &pairs, args.seed, traced, &mut memo, &mut probe,
        ));
        set_up();
    }
    let scales: Vec<f64> = passes.iter().map(|p| p.scale).collect();
    let setup_s = median(&setup_times) * median(&scales);

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let attempted: usize = passes.iter().map(|p| p.ops.len()).sum();
    let mut failed = 0;
    for op in passes.iter().flat_map(|p| &p.ops) {
        if let Err(e) = &op.outcome {
            failed += 1;
            println!(
                "FAILED {} {}: {e}",
                op.req.mapper.name(),
                inputs[op.req.input].name
            );
        }
    }
    correct &= failed == 0;

    println!(
        "workload {} seed {} circuit-seed {}: {} passes ({} traced), {} operations, {} cores",
        kind.name(),
        args.seed,
        args.circuit_seed,
        passes.len(),
        traced.len(),
        attempted,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // The report digest must not depend on the pass or on tracing.
    let digest = passes[0].digest;
    if passes.iter().all(|p| p.digest == digest) {
        println!(
            "report digest {digest:016x}: identical across {} passes",
            passes.len()
        );
    } else {
        correct = false;
        let all: Vec<String> = passes
            .iter()
            .map(|p| format!("{:016x}", p.digest))
            .collect();
        println!("report digest DIFFERS between passes: {}", all.join(" "));
    }
    correct &= report_counter_exactness(&passes);
    let walls: Vec<String> = passes
        .iter()
        .map(|p| {
            let t = if p.traced { "t" } else { "" };
            format!("{:.3}{t}x{:.3}", p.wall_s, p.scale)
        })
        .collect();
    println!(
        "pass wall times (s, t = traced) x machine-speed scale: {}",
        walls.join(" ")
    );

    let latencies = |first: Option<bool>| -> Vec<f64> {
        untraced
            .iter()
            .flat_map(|p| p.ops.iter().map(move |op| (op, p.scale)))
            .filter(|(op, _)| first.map_or(true, |f| op.first_sight == f))
            .map(|(op, scale)| op.latency_s * 1e3 * scale)
            .collect()
    };
    let all_ms = latencies(None);
    let (tail_p, beyond) = tail_percentile(all_ms.len());
    let pass_s = pass_estimate(&untraced, true);
    let quality: Vec<Quality> = {
        let mut seen = HashSet::new();
        passes[0]
            .ops
            .iter()
            .filter(|op| seen.insert(op.req))
            .filter_map(|op| op.outcome.as_ref().ok().copied())
            .collect()
    };
    let e2e: Vec<(&str, &str, f64)> = vec![
        ("setup_s", "s", setup_s),
        ("pass_s", "s", pass_s),
        ("op_p50_ms", "ms", median(&all_ms)),
        ("op_tail_ms", "ms", percentile(&all_ms, tail_p)),
        (
            "phi_sum",
            "count",
            quality.iter().map(|q| q.phi).sum::<i64>() as f64,
        ),
        (
            "lut_sum",
            "count",
            quality.iter().map(|q| q.luts).sum::<usize>() as f64,
        ),
        (
            "ff_sum",
            "count",
            quality.iter().map(|q| q.ffs).sum::<u64>() as f64,
        ),
        ("ok_frac", "ratio", 1.0 - failed as f64 / attempted as f64),
        ("peak_rss_mb", "MB", probe.peak_rss_mb()),
    ];
    println!(
        "machine-speed scale {:.3} (median over passes); unscaled: pass_s {:.4} s, set-up {:.6} s",
        median(&scales),
        pass_estimate(&untraced, false),
        median(&setup_times),
    );
    println!("end-to-end ({} untraced passes, scaled):", untraced.len());
    for (name, unit, value) in &e2e {
        let samples = match *name {
            "setup_s" => format!("median of {} set-ups", setup_times.len()),
            "pass_s" => format!("per-operation medians over {} passes", untraced.len()),
            "op_p50_ms" => format!("n = {}", all_ms.len()),
            "op_tail_ms" => format!("p{tail_p}, n = {}, {beyond} beyond", all_ms.len()),
            "phi_sum" | "lut_sum" | "ff_sum" => format!("{} distinct operations", quality.len()),
            "ok_frac" => format!("{failed} of {attempted} failed"),
            _ => String::new(),
        };
        println!("  {name:<12} {value:>14.4} {unit:<6} {samples}");
    }

    let metrics = if args.trace {
        per_layer(&untraced, &traced, &latencies)
    } else {
        e2e
    };
    println!("{}", json_result(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// One pass's wall time, scaled to the reference speed when `scaled`,
/// estimated robustly: every pass issues the same operations in the same
/// order, so take each position's median latency across passes and sum
/// them. A few seconds of machine-speed noise then moves one sample per
/// position instead of a whole pass.
fn pass_estimate(passes: &[&Pass], scaled: bool) -> f64 {
    (0..passes[0].ops.len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p.ops[i].latency_s * if scaled { p.scale } else { 1.0 })
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Reports every deterministic counter that does not repeat exactly:
/// report and cache counters across all passes, trace counts across
/// the traced passes. Returns whether every counter repeated.
fn report_counter_exactness(passes: &[Pass]) -> bool {
    let mut differing: Vec<&str> = Vec::new();
    let mut compare = |counters: Vec<&Vec<(&'static str, u64)>>| {
        for other in counters.iter().skip(1) {
            for (a, b) in counters[0].iter().zip(other.iter()) {
                if a != b && !differing.contains(&a.0) {
                    differing.push(a.0);
                }
            }
        }
    };
    compare(passes.iter().map(|p| &p.counters).collect());
    compare(
        passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| &p.trace_counters)
            .collect(),
    );
    // Runs compare through this digest: equal digests mean equal counts.
    let mut h = Fnv::default();
    for &(_, count) in &passes[0].counters {
        h.int(count as i64);
    }
    if differing.is_empty() {
        println!(
            "counter exactness: every counter repeats exactly across {} passes (counter digest {:016x})",
            passes.len(),
            h.0
        );
    } else {
        println!(
            "counter exactness: DIFFERING counters: {}",
            differing.join(", ")
        );
    }
    differing.is_empty()
}

fn per_layer(
    untraced: &[&Pass],
    traced: &[&Pass],
    latencies: &dyn Fn(Option<bool>) -> Vec<f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let n = traced.len() as f64;
    let mut mean: Vec<(&'static str, f64)> = Vec::new();
    for pass in traced {
        let (metrics, _) = pass.layers.as_ref().expect("traced passes carry layers");
        for &(name, value) in metrics {
            match mean.iter_mut().find(|m| m.0 == name) {
                Some(m) => m.1 += value / n,
                None => mean.push((name, value / n)),
            }
        }
    }
    mean.push((
        "trace.overhead_frac",
        pass_estimate(traced, true) / pass_estimate(untraced, true) - 1.0,
    ));
    let p50 = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    mean.push(("core.cache.first_sight_p50_ms", p50(latencies(Some(true)))));
    mean.push(("core.cache.repeat_p50_ms", p50(latencies(Some(false)))));

    if let Some((_, table)) = traced[0].layers.as_ref() {
        println!("attribution (first traced pass): layer, total ms, count, self ms");
        for (name, total, count, own) in table {
            println!("  {name:<20} {total:>12.3} {count:>9} {own:>12.3}");
        }
    }
    println!("per-layer (mean of {} traced passes):", traced.len());
    let units = layers::METRICS.iter().chain(layers::LATENCY_METRICS.iter());
    let mut out = Vec::new();
    for &(name, unit) in units {
        let value = mean.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        println!("  {name:<36} {value:>14.4} {unit}");
        out.push((name, unit, value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Mapper;

    /// Suite inputs and three quick pairs: one TurboSYN, two TurboMap.
    fn small() -> (Vec<Input>, Vec<Request>) {
        let (inputs, _) = workload::setup(Kind::TurbomapSuite, 0);
        let at = |name| {
            inputs
                .iter()
                .position(|i| i.name == name)
                .expect("suite row")
        };
        let pairs = vec![
            Request {
                mapper: Mapper::TurboSyn,
                input: at("kirkman"),
            },
            Request {
                mapper: Mapper::TurboMap,
                input: at("bbara"),
            },
            Request {
                mapper: Mapper::TurboMap,
                input: at("s420"),
            },
        ];
        (inputs, pairs)
    }

    #[test]
    fn digest_and_counters_repeat_across_passes_and_tracing() {
        let (inputs, pairs) = small();
        let mut memo = CheckMemo::new();
        let passes: Vec<Pass> = [false, true, false, true]
            .into_iter()
            .map(|traced| {
                run_pass(
                    Kind::TurbomapSuite,
                    &inputs,
                    &pairs,
                    7,
                    traced,
                    &mut memo,
                    &mut calib::Probe::default(),
                )
            })
            .collect();
        for pass in &passes {
            assert!(pass.ops.iter().all(|op| op.outcome.is_ok()));
            assert_eq!(pass.digest, passes[0].digest);
            assert_eq!(pass.layers.is_some(), pass.traced);
        }
        assert!(report_counter_exactness(&passes));
    }

    #[test]
    fn a_differing_counter_fails_the_exactness_check() {
        let (inputs, pairs) = small();
        let mut memo = CheckMemo::new();
        let mut passes: Vec<Pass> = (0..2)
            .map(|_| {
                run_pass(
                    Kind::TurbomapSuite,
                    &inputs,
                    &pairs[1..],
                    7,
                    false,
                    &mut memo,
                    &mut calib::Probe::default(),
                )
            })
            .collect();
        assert!(report_counter_exactness(&passes));
        passes[1].counters[0].1 += 1;
        assert!(!report_counter_exactness(&passes));
    }

    #[test]
    fn resubmit_repeats_replay_and_match_first_sight() {
        let (inputs, pairs) = small();
        let mut memo = CheckMemo::new();
        let pass = run_pass(
            Kind::Resubmit,
            &inputs,
            &pairs,
            7,
            true,
            &mut memo,
            &mut calib::Probe::default(),
        );
        assert_eq!(pass.ops.len(), pairs.len() * workload::RESUBMIT_COPIES);
        assert!(pass.ops.iter().all(|op| op.outcome.is_ok()));
        let (metrics, _) = pass.layers.as_ref().expect("traced");
        let replay = metrics
            .iter()
            .find(|m| m.0 == "core.cache.replay_ratio")
            .expect("reported")
            .1;
        assert!(replay > 0.5, "repeats replay their probes: {replay}");
    }

    #[test]
    fn the_independent_check_rejects_wrong_outputs() {
        let (inputs, pairs) = small();
        let input = &inputs[pairs[0].input];
        let run = || {
            op::run(
                &Engine::new(),
                input,
                Mapper::TurboSyn,
                &TraceSink::disabled(),
            )
            .1
            .expect("maps")
        };
        assert_eq!(op::check(input, &run()), Ok(()));

        let mut wrong_period = run();
        wrong_period.clock_period += 1;
        assert!(op::check(input, &wrong_period).is_err());

        let other = &inputs[pairs[1].input];
        let mut wrong_circuit = run();
        wrong_circuit.final_circuit = op::run(
            &Engine::new(),
            other,
            Mapper::TurboMap,
            &TraceSink::disabled(),
        )
        .1
        .expect("maps")
        .final_circuit;
        assert!(op::check(input, &wrong_circuit).is_err());
    }
}
