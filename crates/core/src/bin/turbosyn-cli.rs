//! Command-line front end: BLIF in, mapped BLIF out.
//!
//! ```text
//! turbosyn-cli [OPTIONS] <input.blif>
//!
//!   -o, --output <file>     write the mapped netlist (default: stdout)
//!       --emit-json <file>  also write the canonical MapReport JSON (the
//!                           same encoding the turbosyn-serve daemon returns)
//!       --trace-out <file>  write a Chrome-trace-format phase trace of the
//!                           run (load in chrome://tracing or Perfetto);
//!                           written on every exit path, including budget
//!                           cuts and Ctrl-C (the trace is then truncated
//!                           but well-formed). Tracing never changes the
//!                           mapping or the report bytes.
//!   -k <K>                  LUT input count (default 5)
//!   -a, --algorithm <name>  turbosyn | turbomap | flowsyn-s (default turbosyn)
//!       --max-wires <1|2>   decomposition wires (default 1)
//!       --timeout-ms <N>    wall-clock budget; past it the best verified
//!                           mapping found so far is emitted (exit code 3)
//!   -j, --jobs <N>          label-sweep worker threads (default 1; results
//!                           are identical for every N)
//!       --min-registers     run exact register minimization
//!       --no-pack           skip the LUT packing pass
//!       --optimize          run constant propagation + strash first
//!       --stats             print statistics to stderr
//!   -h, --help              this text
//! ```
//!
//! Exit codes: `0` success, `1` internal error (failed self-verification),
//! `2` bad input (unreadable / malformed BLIF, bad arguments), `3`
//! degraded success (a budget was hit; the emitted mapping is verified at
//! the reported φ, which is an upper bound), `4` budget exhausted or
//! cancelled before any verified mapping existed.
//!
//! Ctrl-C triggers cooperative cancellation: the run stops at the next
//! governance poll and exits with code 4.
//!
//! `turbosyn-cli serve ...` delegates to the `turbosyn-serve` daemon
//! binary (searched next to this executable, then on `PATH`), so the
//! service is reachable from the same front door as one-shot mapping.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use turbosyn::{
    flowsyn_s, turbomap, turbosyn, Budget, CancelToken, MapOptions, MapReport, SynthesisError,
    TraceSink,
};
use turbosyn_netlist::{blif, opt, Circuit};

const EXIT_OK: u8 = 0;
const EXIT_INTERNAL: u8 = 1;
const EXIT_BAD_INPUT: u8 = 2;
const EXIT_DEGRADED: u8 = 3;
const EXIT_BUDGET: u8 = 4;

#[derive(Debug)]
struct Args {
    input: String,
    output: Option<String>,
    emit_json: Option<String>,
    trace_out: Option<String>,
    k: usize,
    algorithm: String,
    max_wires: usize,
    timeout_ms: Option<u64>,
    jobs: usize,
    min_registers: bool,
    pack: bool,
    optimize: bool,
    stats: bool,
}

fn usage() -> &'static str {
    "usage: turbosyn-cli [-o out.blif] [--emit-json report.json] \
     [--trace-out trace.json] [-k K] \
     [-a turbosyn|turbomap|flowsyn-s] \
     [--max-wires 1|2] [--timeout-ms N] [-j N] \
     [--min-registers] [--no-pack] [--optimize] [--stats] input.blif\n\
     \x20      turbosyn-cli serve [turbosyn-serve options...]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        output: None,
        emit_json: None,
        trace_out: None,
        k: 5,
        algorithm: "turbosyn".into(),
        max_wires: 1,
        timeout_ms: None,
        jobs: 1,
        min_registers: false,
        pack: true,
        optimize: false,
        stats: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => return Err(usage().into()),
            "-o" | "--output" => {
                args.output = Some(it.next().ok_or("missing value for -o")?.clone());
            }
            "--emit-json" => {
                args.emit_json = Some(it.next().ok_or("missing value for --emit-json")?.clone());
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().ok_or("missing value for --trace-out")?.clone());
            }
            "-k" => {
                let v = it.next().ok_or("missing value for -k")?;
                args.k = v.parse().map_err(|_| format!("bad K: {v}"))?;
                if !(2..=8).contains(&args.k) {
                    return Err("K must be in 2..=8".into());
                }
            }
            "-a" | "--algorithm" => {
                let v = it.next().ok_or("missing value for -a")?.clone();
                if !["turbosyn", "turbomap", "flowsyn-s"].contains(&v.as_str()) {
                    return Err(format!("unknown algorithm {v}"));
                }
                args.algorithm = v;
            }
            "--max-wires" => {
                let v = it.next().ok_or("missing value for --max-wires")?;
                args.max_wires = v.parse().map_err(|_| format!("bad wire count: {v}"))?;
                if !(1..=2).contains(&args.max_wires) {
                    return Err("--max-wires must be 1 or 2".into());
                }
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("missing value for --timeout-ms")?;
                args.timeout_ms = Some(v.parse().map_err(|_| format!("bad timeout: {v}"))?);
            }
            "-j" | "--jobs" => {
                let v = it.next().ok_or("missing value for --jobs")?;
                args.jobs = v.parse().map_err(|_| format!("bad job count: {v}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be positive (use 1 for a serial run)".into());
                }
            }
            "--min-registers" => args.min_registers = true,
            "--no-pack" => args.pack = false,
            "--optimize" => args.optimize = true,
            "--stats" => args.stats = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            other => {
                if !args.input.is_empty() {
                    return Err("more than one input file".into());
                }
                args.input = other.to_string();
            }
        }
    }
    if args.input.is_empty() {
        return Err(usage().into());
    }
    Ok(args)
}

fn budget_for(args: &Args, cancel: CancelToken) -> Budget {
    Budget {
        deadline: args.timeout_ms.map(Duration::from_millis),
        cancel,
        ..Budget::default()
    }
}

fn run(
    args: &Args,
    circuit: &Circuit,
    cancel: CancelToken,
    trace: TraceSink,
) -> Result<MapReport, SynthesisError> {
    let opts = MapOptions {
        k: args.k,
        max_wires: args.max_wires,
        minimize_registers: args.min_registers,
        pack: args.pack,
        jobs: args.jobs,
        budget: budget_for(args, cancel),
        trace,
        ..MapOptions::default()
    };
    match args.algorithm.as_str() {
        "turbosyn" => turbosyn(circuit, &opts),
        "turbomap" => turbomap(circuit, &opts),
        "flowsyn-s" => flowsyn_s(circuit, &opts),
        _ => unreachable!("validated in parse_args"),
    }
}

fn exit_code_for(e: &SynthesisError) -> u8 {
    match e {
        SynthesisError::InvalidInput(_)
        | SynthesisError::Blif(_)
        | SynthesisError::TooManyVars { .. } => EXIT_BAD_INPUT,
        SynthesisError::BudgetExceeded { .. } | SynthesisError::Cancelled => EXIT_BUDGET,
        SynthesisError::Verify(_) | SynthesisError::Internal(_) => EXIT_INTERNAL,
    }
}

/// Flag set by the SIGINT handler; a poller thread forwards it to the
/// [`CancelToken`] (signal handlers must only touch async-signal-safe
/// state, and an atomic store qualifies while an `Arc` clone does not).
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_ctrl_c(token: CancelToken) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: installs an async-signal-safe handler (it only stores to a
    // static atomic). `signal` is the C standard library function.
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if SIGINT_SEEN.load(Ordering::SeqCst) {
            token.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

#[cfg(not(unix))]
fn install_ctrl_c(_token: CancelToken) {}

/// Drains `sink` and writes the Chrome-trace JSON to `path`. Returns
/// `false` (after printing the error) if the file cannot be written.
fn write_trace(path: &str, sink: &TraceSink) -> bool {
    let trace = sink.drain();
    let mut json = turbosyn_json::chrome::chrome_trace(&trace).write();
    json.push('\n');
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        return false;
    }
    true
}

/// Delegates `turbosyn-cli serve ...` to the `turbosyn-serve` binary:
/// first the one sitting next to this executable (the cargo layout),
/// then whatever `PATH` resolves.
fn delegate_serve(rest: &[String]) -> ExitCode {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("turbosyn-serve")))
        .filter(|p| p.exists());
    let program = sibling.unwrap_or_else(|| std::path::PathBuf::from("turbosyn-serve"));
    match std::process::Command::new(&program).args(rest).status() {
        Ok(status) => match status.code() {
            Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(EXIT_INTERNAL)),
            None => ExitCode::from(EXIT_INTERNAL),
        },
        Err(e) => {
            eprintln!("cannot launch {}: {e}", program.display());
            ExitCode::from(EXIT_INTERNAL)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return delegate_serve(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if argv.iter().any(|a| a == "-h" || a == "--help") => {
            println!("{msg}");
            return ExitCode::from(EXIT_OK);
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_BAD_INPUT);
        }
    };
    let text = match std::fs::read_to_string(&args.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.input);
            return ExitCode::from(EXIT_BAD_INPUT);
        }
    };
    let mut circuit = match blif::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("BLIF parse error: {e}");
            return ExitCode::from(EXIT_BAD_INPUT);
        }
    };
    if args.stats {
        eprintln!(
            "input: {}",
            turbosyn_netlist::stats::CircuitStats::of(&circuit)
        );
    }
    if args.optimize {
        let (clean, removed) = opt::optimize(&circuit);
        if args.stats {
            eprintln!("optimize: {removed} gates folded/merged");
        }
        circuit = clean;
    }
    let cancel = CancelToken::new();
    install_ctrl_c(cancel.clone());
    let sink = if args.trace_out.is_some() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let outcome = run(&args, &circuit, cancel, sink.clone());
    // The trace file is written on every exit path — a budget cut or
    // Ctrl-C yields a truncated but well-formed trace.
    if let Some(path) = &args.trace_out {
        if !write_trace(path, &sink) {
            return ExitCode::from(EXIT_INTERNAL);
        }
    }
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(exit_code_for(&e));
        }
    };
    if args.stats {
        eprintln!(
            "{}: min MDR ratio {} | {} LUTs, {} registers | clock period {} | {:?}",
            report.algorithm,
            report.phi,
            report.lut_count,
            report.register_count,
            report.clock_period,
            report.elapsed
        );
        eprintln!(
            "label work: {} sweeps, {} cut tests, {} resynthesis successes",
            report.stats.sweeps, report.stats.cut_tests, report.stats.resyn_successes
        );
        eprintln!(
            "label work saved: {} candidates skipped, {} warm-started probes, \
             {} PLD checks skipped",
            report.stats.candidates_skipped,
            report.stats.warm_started_probes,
            report.stats.pld_checks_skipped
        );
    }
    let degraded = report.degradation.is_some();
    if let Some(d) = &report.degradation {
        eprintln!(
            "degraded: mapping verified at phi={} (upper bound; a smaller ratio may exist)",
            d.phi_achieved
        );
        for ev in &d.events {
            eprintln!("  - {ev}");
        }
    }
    if let Some(path) = &args.emit_json {
        let mut json = turbosyn::report_to_json(&report).write();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    }
    let out_text = blif::write(&report.final_circuit);
    match &args.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, out_text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
        None => print!("{out_text}"),
    }
    ExitCode::from(if degraded { EXIT_DEGRADED } else { EXIT_OK })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let a = args(&["design.blif"]).expect("parses");
        assert_eq!(a.k, 5);
        assert_eq!(a.algorithm, "turbosyn");
        assert!(a.pack && !a.min_registers && !a.optimize && !a.stats);
        assert_eq!(a.output, None);
        assert_eq!(a.emit_json, None);
        assert_eq!(a.trace_out, None);
        assert_eq!(a.timeout_ms, None);
        assert_eq!(a.jobs, 1);
    }

    #[test]
    fn full_flags() {
        let a = args(&[
            "-o",
            "out.blif",
            "--emit-json",
            "report.json",
            "--trace-out",
            "trace.json",
            "-k",
            "4",
            "-a",
            "turbomap",
            "--max-wires",
            "2",
            "--timeout-ms",
            "2500",
            "--jobs",
            "8",
            "--min-registers",
            "--no-pack",
            "--optimize",
            "--stats",
            "in.blif",
        ])
        .expect("parses");
        assert_eq!(a.output.as_deref(), Some("out.blif"));
        assert_eq!(a.emit_json.as_deref(), Some("report.json"));
        assert_eq!(a.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(a.k, 4);
        assert_eq!(a.algorithm, "turbomap");
        assert_eq!(a.max_wires, 2);
        assert_eq!(a.timeout_ms, Some(2500));
        assert_eq!(a.jobs, 8);
        assert!(a.min_registers && !a.pack && a.optimize && a.stats);
        assert_eq!(a.input, "in.blif");
    }

    #[test]
    fn rejections() {
        assert!(args(&[]).is_err(), "missing input");
        assert!(args(&["-k", "1", "x.blif"]).is_err(), "K too small");
        assert!(
            args(&["-a", "magic", "x.blif"]).is_err(),
            "unknown algorithm"
        );
        assert!(
            args(&["--max-wires", "3", "x.blif"]).is_err(),
            "too many wires"
        );
        assert!(
            args(&["--timeout-ms", "soon", "x.blif"]).is_err(),
            "non-numeric timeout"
        );
        assert!(
            args(&["--max-bdd-nodes", "50", "x.blif"]).is_err(),
            "the BDD ceiling flag is gone"
        );
        assert!(args(&["--jobs", "0", "x.blif"]).is_err(), "zero jobs");
        assert!(args(&["--bogus", "x.blif"]).is_err(), "unknown flag");
        assert!(args(&["a.blif", "b.blif"]).is_err(), "two inputs");
        assert!(args(&["-o"]).is_err(), "missing value");
    }

    #[test]
    fn help_is_an_err_with_usage() {
        let e = args(&["--help"]).unwrap_err();
        assert!(e.contains("usage:"));
    }

    #[test]
    fn budget_reflects_flags() {
        let a = args(&["--timeout-ms", "100", "x.blif"]).expect("parses");
        let b = budget_for(&a, CancelToken::new());
        assert_eq!(b.deadline, Some(Duration::from_millis(100)));
    }

    #[test]
    fn exit_codes_partition_error_space() {
        assert_eq!(
            exit_code_for(&SynthesisError::InvalidInput("x".into())),
            EXIT_BAD_INPUT
        );
        assert_eq!(exit_code_for(&SynthesisError::Cancelled), EXIT_BUDGET);
        assert_eq!(
            exit_code_for(&SynthesisError::BudgetExceeded { what: "x".into() }),
            EXIT_BUDGET
        );
        assert_eq!(
            exit_code_for(&SynthesisError::Internal("x".into())),
            EXIT_INTERNAL
        );
    }
}
