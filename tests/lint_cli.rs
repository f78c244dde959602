//! End-to-end tests of the `gabm lint` command-line tool: exit codes,
//! output formats, and both input kinds (FAS source, diagram JSON).

use gabm::core::json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gabm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gabm"))
        .args(args)
        .output()
        .expect("gabm binary runs")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

#[test]
fn clean_fas_file_exits_zero() {
    let out = gabm(&["lint", fixture("clean.fas").to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no diagnostics"));
}

#[test]
fn errors_exit_one_with_code_and_location() {
    let out = gabm(&["lint", fixture("use_before_def.fas").to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[GABM030]"), "{stdout}");
    assert!(stdout.contains("--> 2:"), "{stdout}");
}

#[test]
fn warnings_pass_unless_denied() {
    let path = fixture("unused_variable.fas");
    let path = path.to_str().unwrap();
    let out = gabm(&["lint", path]);
    assert_eq!(exit_code(&out), 0, "warnings alone pass: {out:?}");
    let out = gabm(&["lint", path, "--deny-warnings"]);
    assert_eq!(exit_code(&out), 1, "denied warnings fail: {out:?}");
}

#[test]
fn json_format_is_valid_and_counts_match() {
    let out = gabm(&[
        "lint",
        fixture("const_arith.fas").to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(exit_code(&out), 1);
    let v = Value::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(v.get("errors").and_then(Value::as_f64), Some(3.0));
    let diags = match v.get("diagnostics") {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("diagnostics array expected, got {other:?}"),
    };
    let codes: Vec<_> = diags
        .iter()
        .map(|d| d.get("code").and_then(Value::as_str).unwrap().to_string())
        .collect();
    for code in ["GABM033", "GABM034", "GABM035"] {
        assert_eq!(
            codes.iter().filter(|c| *c == code).count(),
            1,
            "{code} exactly once in {codes:?}"
        );
    }
}

#[test]
fn constructs_lint_clean_via_cli() {
    for name in ["input-stage", "output-stage", "power-supply", "slew-rate"] {
        let out = gabm(&["lint", "--construct", name]);
        assert_eq!(exit_code(&out), 0, "{name}: {out:?}");
        let out = gabm(&["lint", "--construct", name, "--deny-warnings"]);
        assert_eq!(exit_code(&out), 0, "{name} has no warnings either: {out:?}");
    }
}

#[test]
fn diagram_json_input_is_linted() {
    use gabm::core::symbol::PropertyValue;
    use gabm::core::{FunctionalDiagram, SymbolKind};
    let mut d = FunctionalDiagram::new("lim");
    let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
    let lim = d.add_symbol_with(
        SymbolKind::Limiter,
        &[
            ("min", PropertyValue::Number(5.0)),
            ("max", PropertyValue::Number(1.0)),
        ],
        None,
    );
    d.connect(d.port(c, "out").unwrap(), d.port(lim, "in").unwrap())
        .unwrap();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("degenerate_limiter.json");
    std::fs::write(&path, gabm::core::json::to_string(&d)).unwrap();
    let out = gabm(&["lint", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[GABM011]"));
}

/// Builds the degenerate-limiter diagram used by the dispatch tests.
fn degenerate_diagram_json() -> String {
    use gabm::core::symbol::PropertyValue;
    use gabm::core::{FunctionalDiagram, SymbolKind};
    let mut d = FunctionalDiagram::new("lim");
    let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
    let lim = d.add_symbol_with(
        SymbolKind::Limiter,
        &[
            ("min", PropertyValue::Number(5.0)),
            ("max", PropertyValue::Number(1.0)),
        ],
        None,
    );
    d.connect(d.port(c, "out").unwrap(), d.port(lim, "in").unwrap())
        .unwrap();
    gabm::core::json::to_string(&d)
}

#[test]
fn uppercase_json_extension_dispatches_as_diagram() {
    // Regression: dispatch used to match the extension case-sensitively,
    // so FILE.JSON fell through to the FAS parser and failed with a bogus
    // lex error instead of being linted as a diagram.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("UPPERCASE.JSON");
    std::fs::write(&path, degenerate_diagram_json()).unwrap();
    let out = gabm(&["lint", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[GABM011]"));
}

#[test]
fn extensionless_diagram_is_sniffed_by_content() {
    // Regression: with no extension at all, the leading '{' identifies a
    // diagram file (no FAS source can start with one).
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("diagram_no_extension");
    std::fs::write(&path, degenerate_diagram_json()).unwrap();
    let out = gabm(&["lint", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[GABM011]"));
}

#[test]
fn lint_leaves_the_working_directory_untouched() {
    // Linting is a pure function of its input: repeated runs print the
    // same output and leave nothing behind where they ran.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_cwd");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fas = fixture("unused_variable.fas");
    let inputs: [&[&str]; 2] = [
        &["lint", fas.to_str().unwrap(), "--format", "json"],
        &["lint", "--construct", "input-stage", "--format", "json"],
    ];
    for args in inputs {
        let run = || {
            Command::new(env!("CARGO_BIN_EXE_gabm"))
                .args(args)
                .current_dir(&dir)
                .output()
                .expect("gabm binary runs")
        };
        let first = run();
        let second = run();
        assert_eq!(
            String::from_utf8_lossy(&first.stdout),
            String::from_utf8_lossy(&second.stdout),
            "{args:?}"
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(left.is_empty(), "{args:?} left {left:?}");
    }
}

#[test]
fn usage_errors_exit_two() {
    let out = gabm(&["lint"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let out = gabm(&["lint", "/nonexistent/file.fas"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let out = gabm(&["frobnicate"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
}

#[test]
fn list_passes_names_every_layer() {
    let out = gabm(&["lint", "--list-passes"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for expected in [
        "diagram: net-drivers",
        "ir: ir-use-before-def",
        "fas: fas-dead-branches",
    ] {
        assert!(stdout.contains(expected), "{stdout}");
    }
}
