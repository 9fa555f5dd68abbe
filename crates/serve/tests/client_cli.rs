//! Exit-code contract of the `turbosyn-serve --client ... map` command
//! line, against a daemon on an ephemeral port.

use std::process::{Command, Output};
use turbosyn_netlist::{blif, gen};
use turbosyn_serve::{Client, ServeConfig, Server};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("turbosyn-serve-cli-{}-{name}", std::process::id()))
}

fn map_figure1(addr: &str, extra: &[&str]) -> (Output, String) {
    // Distinct names per flag set: tests run in parallel.
    let tag = extra.join("_");
    let input = temp_path(&format!("figure1{tag}.blif"));
    let report = temp_path(&format!("report{tag}.json"));
    std::fs::write(&input, blif::write(&gen::figure1())).expect("writes the fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_turbosyn-serve"))
        .args(["--client", addr, "map"])
        .arg(&input)
        .args(extra)
        .arg("--emit-json")
        .arg(&report)
        .output()
        .expect("spawns turbosyn-serve");
    let json = std::fs::read_to_string(&report).unwrap_or_default();
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&report).ok();
    (out, json)
}

/// Runs `check` against a fresh daemon, then shuts the daemon down.
fn with_daemon(check: impl FnOnce(&str)) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("binds");
    let addr = server.local_addr().to_string();
    check(&addr);
    Client::connect(&addr)
        .expect("connects")
        .shutdown()
        .expect("shutdown ack");
    server.wait();
}

/// Two labeling sweeps per probe are too few for figure 1's 4-gate loop
/// to settle at φ = 1: the cap truncates a probe, and the run is a
/// degraded success (exit 3) that still returns a report. One sweep
/// converges no probe at all (exit 4); twenty leave every probe whole
/// (exit 0). All three runs share one daemon: a probe under a sweep cap
/// replays nothing the engine converged before, so the one-sweep run
/// fails even right after the two-sweep run warmed the engine.
#[test]
fn sweep_cap_degrades_to_exit_three() {
    with_daemon(|addr| {
        let (out, report) = map_figure1(addr, &["--max-sweeps", "2"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(3),
            "stdout: {stdout}, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("status=degraded"), "stdout: {stdout}");
        assert!(
            report.contains("\"kind\":\"sweep_cap\""),
            "report: {report}"
        );
        let (out, _) = map_figure1(addr, &["--max-sweeps", "1"]);
        assert_eq!(out.status.code(), Some(4), "one sweep converges nothing");
        let (out, report) = map_figure1(addr, &["--max-sweeps", "20"]);
        assert_eq!(out.status.code(), Some(0), "twenty sweeps suffice");
        assert!(!report.contains("sweep_cap"), "report: {report}");
    });
}

/// The BDD-node ceiling flag went away with the BDD decomposition path:
/// the client rejects it as a usage error.
#[test]
fn removed_bdd_ceiling_flag_is_a_usage_error() {
    with_daemon(|addr| {
        let (out, _) = map_figure1(addr, &["--max-bdd-nodes", "50"]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--max-bdd-nodes"), "stderr: {stderr}");
    });
}
