//! CLI surface of the `harness` binary: the shared `--threads` /
//! `--trace` flag parsers must reject bad values with the same
//! flag-naming messages as `gabm`, and `--trace` must record the
//! instrumented layers of whatever experiment ran.

use std::process::{Command, Output};

fn harness_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("harness binary runs")
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

#[test]
fn threads_flag_errors_name_the_flag() {
    let dir = tmpdir("gabm_harness_cli_threads");
    for bad in ["zero", "0", "-3"] {
        let out = harness_in(&dir, &["--threads", bad, "fig1"]);
        assert_eq!(exit_code(&out), 2, "value {bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "invalid value '{bad}' for --threads: expected a positive integer"
            )),
            "value {bad:?}: {stderr}"
        );
    }
    let out = harness_in(&dir, &["fig1", "--threads"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--threads requires a value"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_errors_name_the_flag() {
    let dir = tmpdir("gabm_harness_cli_trace_err");
    let out = harness_in(&dir, &["fig1", "--trace"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--trace requires a value"),
        "{out:?}"
    );
    let out = harness_in(&dir, &["--trace", "--threads", "2", "fig1"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid value '--threads' for --trace"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_records_an_experiment() {
    let dir = tmpdir("gabm_harness_cli_trace_run");
    // fig1 is the cheapest experiment that reaches the simulator (its
    // input-resistance rig solves operating points).
    let out = harness_in(
        &dir,
        &["--trace", "fig1_trace.json", "--threads", "2", "fig1"],
    );
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let text = std::fs::read_to_string(dir.join("fig1_trace.json")).expect("trace written");
    assert!(text.contains("\"traceEvents\""), "{text}");
    assert!(text.contains("\"sim."), "simulator spans recorded: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_exits_two() {
    let dir = tmpdir("gabm_harness_cli_unknown");
    let out = harness_in(&dir, &["frobnicate"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'frobnicate'"),
        "{stderr}"
    );
    // The error lists the valid experiment names.
    assert!(stderr.contains("table1"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
