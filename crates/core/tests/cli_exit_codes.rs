//! End-to-end exit-code contract for the `turbosyn-cli` binary.
//!
//! Exit codes under test: `0` clean success, `2` malformed input, `4`
//! budget exhausted before any verified mapping existed, and (only as
//! one legal outcome of a racing deadline) `3` degraded success. The
//! one-shot CLI sets no sweep cap, so its degraded exit has no
//! deterministic trigger; `turbosyn-serve`'s tests drive that path with
//! `--max-sweeps`.

use std::path::PathBuf;
use std::process::{Command, Output};

const GOOD_BLIF: &str = "\
.model gray3
.inputs step
.outputs g0 g1 g2
.names step q0 n0
10 1
01 1
.latch n0 q0 0
.names q0 step q1 n1
110 1
001 1
011 1
101 1
.latch n1 q1 0
.names q1 step q2 n2
110 1
001 1
011 1
101 1
.latch n2 q2 0
.names q2 g2
1 1
.names q2 q1 g1
10 1
01 1
.names q1 q0 g0
10 1
01 1
.end
";

const MALFORMED_BLIF: &str = "\
.model broken
.inputs a
.outputs y
.names a ghost y
11 1
.end
";

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("turbosyn-cli-e2e-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("writes temp fixture");
    path
}

fn run_cli(cli_args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_turbosyn-cli"))
        .args(cli_args)
        .output()
        .expect("spawns turbosyn-cli")
}

#[test]
fn good_input_exits_zero_and_emits_blif() {
    let input = write_temp("good.blif", GOOD_BLIF);
    let out = run_cli(&[input.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&input).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(".model"), "stdout should be a BLIF netlist");
    assert!(stdout.contains(".end"));
}

#[test]
fn malformed_input_exits_two() {
    let input = write_temp("malformed.blif", MALFORMED_BLIF);
    let out = run_cli(&[input.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&input).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("BLIF parse error"), "stderr: {stderr}");
}

#[test]
fn unreadable_input_exits_two() {
    let out = run_cli(&["/nonexistent/turbosyn-no-such-file.blif"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_arguments_exit_two() {
    let input = write_temp("args.blif", GOOD_BLIF);
    let path = input.to_str().expect("utf-8 path");
    let out = run_cli(&["-k", "99", path]);
    assert_eq!(out.status.code(), Some(2));
    // The BDD-node ceiling is gone with the BDD decomposition path.
    let out = run_cli(&["--max-bdd-nodes", "50", path]);
    std::fs::remove_file(&input).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option"), "stderr: {stderr}");
}

#[test]
fn expired_deadline_exits_four() {
    let input = write_temp("deadline.blif", GOOD_BLIF);
    // A zero-millisecond deadline expires before the first φ probe, so no
    // verified mapping can exist: deterministic budget-exhausted exit.
    let out = run_cli(&["--timeout-ms", "0", input.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&input).ok();
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn tight_deadline_exits_cleanly() {
    let input = write_temp("tight.blif", GOOD_BLIF);
    // One millisecond may or may not cover the full binary search; any of
    // clean success, degraded success, or budget-exhausted is legal — the
    // process must never panic or report an internal error.
    let out = run_cli(&["--timeout-ms", "1", input.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&input).ok();
    let code = out.status.code().expect("no signal death");
    assert!(
        [0, 3, 4].contains(&code),
        "unexpected exit {code}, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
