//! turbosyn-serve — the synthesis daemon and its command-line client.
//!
//! Daemon:
//!
//! ```text
//! turbosyn-serve --listen 127.0.0.1:0 --jobs 4 --queue-cap 16
//! turbosyn-serve --stdio
//! ```
//!
//! The TCP daemon prints `LISTENING <addr>` on stdout once bound (parse
//! this to learn the ephemeral port), serves until a `shutdown` frame
//! or SIGINT, drains gracefully, and exits 0.
//!
//! Client:
//!
//! ```text
//! turbosyn-serve --client ADDR map circuit.blif [-k 5] [-a turbosyn]
//!                [--timeout-ms N] [--max-sweeps N] [--emit-json out.json]
//! turbosyn-serve --client ADDR stats|ping|shutdown|cancel TARGET
//! ```
//!
//! `map` exit codes mirror the one-shot CLI: 0 ok, 2 bad input,
//! 3 degraded, 4 budget exceeded or cancelled, 1 anything else.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use turbosyn_json::Json;
use turbosyn_serve::proto::{Algorithm, CircuitSource, MapRequest};
use turbosyn_serve::{Client, ClientError, ServeConfig, Server, ServerHandle};

const EXIT_OK: u8 = 0;
const EXIT_INTERNAL: u8 = 1;
const EXIT_BAD_INPUT: u8 = 2;
const EXIT_DEGRADED: u8 = 3;
const EXIT_BUDGET: u8 = 4;

const USAGE: &str = "\
turbosyn-serve: the TurboSYN synthesis service

daemon:
  turbosyn-serve --listen ADDR [--jobs N] [--queue-cap N] [--max-line BYTES]
  turbosyn-serve --stdio       [--jobs N] [--queue-cap N] [--max-line BYTES]

client:
  turbosyn-serve --client ADDR map FILE [-k N] [-a turbosyn|turbomap|flowsyn-s]
                 [--max-wires N] [--jobs N] [--no-pack] [--minimize-registers]
                 [--timeout-ms N] [--max-work N] [--max-sweeps N]
                 [--emit-json PATH]
  turbosyn-serve --client ADDR stats
  turbosyn-serve --client ADDR metrics
  turbosyn-serve --client ADDR ping
  turbosyn-serve --client ADDR cancel TARGET_ID
  turbosyn-serve --client ADDR shutdown

The TCP daemon prints \"LISTENING <addr>\" once bound and exits 0 after
a graceful drain (client `shutdown` frame or SIGINT).";

/// Flag set by the SIGINT handler; a poller thread forwards it to the
/// drain trigger (signal handlers must only touch async-signal-safe
/// state, and an atomic store qualifies).
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_ctrl_c(handle: ServerHandle) {
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
            handle.begin_drain();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

#[cfg(not(unix))]
fn install_ctrl_c(_handle: ServerHandle) {}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        println!("{USAGE}");
        return ExitCode::from(if argv.is_empty() {
            EXIT_BAD_INPUT
        } else {
            EXIT_OK
        });
    }
    if let Some(pos) = argv.iter().position(|a| a == "--client") {
        let Some(addr) = argv.get(pos + 1) else {
            eprintln!("--client needs an address");
            return ExitCode::from(EXIT_BAD_INPUT);
        };
        return run_client(addr, &argv[pos + 2..]);
    }
    run_daemon(&argv)
}

fn run_daemon(argv: &[String]) -> ExitCode {
    let mut listen: Option<String> = None;
    let mut stdio = false;
    let mut config = ServeConfig::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => return usage_error("--listen needs an address"),
            },
            "--stdio" => stdio = true,
            "--jobs" => match parse_flag(args.next(), "--jobs") {
                Ok(n) => config.jobs = n,
                Err(code) => return code,
            },
            "--queue-cap" => match parse_flag(args.next(), "--queue-cap") {
                Ok(n) => config.queue_cap = n,
                Err(code) => return code,
            },
            "--max-line" => match parse_flag(args.next(), "--max-line") {
                Ok(n) => config.max_line = n,
                Err(code) => return code,
            },
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }
    match (listen, stdio) {
        (Some(_), true) => usage_error("--listen and --stdio are mutually exclusive"),
        (None, false) => usage_error("daemon mode needs --listen ADDR or --stdio"),
        (None, true) => {
            turbosyn_serve::run_stdio(config);
            ExitCode::from(EXIT_OK)
        }
        (Some(addr), false) => {
            let server = match Server::bind(&addr, config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::from(EXIT_INTERNAL);
                }
            };
            println!("LISTENING {}", server.local_addr());
            let _ = std::io::stdout().flush();
            install_ctrl_c(server.handle());
            server.wait();
            ExitCode::from(EXIT_OK)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n\n{USAGE}");
    ExitCode::from(EXIT_BAD_INPUT)
}

fn parse_flag(value: Option<&String>, flag: &str) -> Result<usize, ExitCode> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| usage_error(&format!("{flag} needs a positive integer")))
}

fn run_client(addr: &str, rest: &[String]) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    match rest.first().map(String::as_str) {
        Some("map") => client_map(&mut client, &rest[1..]),
        Some("stats") => match client.stats() {
            Ok(stats) => {
                println!("{}", stats.write());
                ExitCode::from(EXIT_OK)
            }
            Err(e) => client_error(&e),
        },
        Some("metrics") => match client.metrics() {
            Ok(metrics) => {
                println!("{}", metrics.write());
                ExitCode::from(EXIT_OK)
            }
            Err(e) => client_error(&e),
        },
        Some("ping") => match client.ping() {
            Ok(()) => {
                println!("pong");
                ExitCode::from(EXIT_OK)
            }
            Err(e) => client_error(&e),
        },
        Some("cancel") => match rest.get(1) {
            None => usage_error("cancel needs the target request id"),
            Some(target) => match client.cancel(target) {
                Ok(found) => {
                    println!("cancelled target={target} found={found}");
                    ExitCode::from(EXIT_OK)
                }
                Err(e) => client_error(&e),
            },
        },
        Some("shutdown") => match client.shutdown() {
            Ok(()) => {
                println!("shutting down");
                ExitCode::from(EXIT_OK)
            }
            Err(e) => client_error(&e),
        },
        Some(other) => usage_error(&format!("unknown client command {other:?}")),
        None => usage_error("--client needs a command (map|stats|metrics|ping|cancel|shutdown)"),
    }
}

fn client_map(client: &mut Client, rest: &[String]) -> ExitCode {
    let Some(file) = rest.first() else {
        return usage_error("map needs a BLIF file path");
    };
    let blif_text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(EXIT_BAD_INPUT);
        }
    };
    let id = client.next_id();
    let mut request = MapRequest::new(id, String::new());
    request.source = CircuitSource::Blif(blif_text);
    let mut emit_json: Option<String> = None;
    let mut args = rest[1..].iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-k" => match parse_flag(args.next(), "-k") {
                Ok(n) => request.k = n,
                Err(code) => return code,
            },
            "-a" => match args.next().map(String::as_str) {
                Some("turbosyn") => request.algorithm = Algorithm::TurboSyn,
                Some("turbomap") => request.algorithm = Algorithm::TurboMap,
                Some("flowsyn-s") => request.algorithm = Algorithm::FlowSynS,
                _ => return usage_error("-a needs turbosyn, turbomap, or flowsyn-s"),
            },
            "--max-wires" => match parse_flag(args.next(), "--max-wires") {
                Ok(n) => request.max_wires = n,
                Err(code) => return code,
            },
            "--jobs" => match parse_flag(args.next(), "--jobs") {
                Ok(n) => request.jobs = n,
                Err(code) => return code,
            },
            "--no-pack" => request.pack = false,
            "--minimize-registers" => request.minimize_registers = true,
            "--timeout-ms" => match parse_flag(args.next(), "--timeout-ms") {
                Ok(n) => request.timeout_ms = Some(n as u64),
                Err(code) => return code,
            },
            "--max-work" => match parse_flag(args.next(), "--max-work") {
                Ok(n) => request.max_work = Some(n as u64),
                Err(code) => return code,
            },
            "--max-sweeps" => match parse_flag(args.next(), "--max-sweeps") {
                Ok(n) => request.max_sweeps = Some(n as u64),
                Err(code) => return code,
            },
            "--emit-json" => match args.next() {
                Some(path) => emit_json = Some(path.clone()),
                None => return usage_error("--emit-json needs a path"),
            },
            other => return usage_error(&format!("unknown map argument {other:?}")),
        }
    }
    let response = match client.map(&request) {
        Ok(response) => response,
        Err(e) => return client_error(&e),
    };
    let summary = |key: &str| {
        response
            .report
            .get(key)
            .and_then(Json::as_int)
            .unwrap_or(-1)
    };
    println!(
        "status={} worker={} phi={} luts={} registers={} period={} \
         decomposition_hits={} queue_ms={} run_ms={}",
        if response.degraded { "degraded" } else { "ok" },
        response.worker,
        summary("phi"),
        summary("lut_count"),
        summary("register_count"),
        summary("clock_period"),
        response.cache.decomposition_hits,
        response.queue_ms,
        response.run_ms,
    );
    if let Some(path) = emit_json {
        let mut line = response.report.write();
        line.push('\n');
        if let Err(e) = std::fs::write(&path, line) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    }
    ExitCode::from(if response.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    })
}

fn client_error(e: &ClientError) -> ExitCode {
    eprintln!("error: {e}");
    let code = match e {
        ClientError::Server { code, .. } => match code.as_str() {
            "bad_input" | "bad_frame" | "bad_json" => EXIT_BAD_INPUT,
            "budget_exceeded" | "cancelled" => EXIT_BUDGET,
            _ => EXIT_INTERNAL,
        },
        _ => EXIT_INTERNAL,
    };
    ExitCode::from(code)
}
