//! Human-readable and machine-readable rendering of lint results.

use gabm_core::diag::{Diagnostic, Severity};
use gabm_core::json::Value;

/// Counts diagnostics by severity: `(errors, warnings, notes)`.
///
/// Each severity is counted explicitly — "everything that is not an error
/// is a warning" silently misclassifies notes (and any severity added
/// later) and once over-reported the warning total.
pub fn summarize(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut errors = 0;
    let mut warnings = 0;
    let mut notes = 0;
    for d in diags {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
            Severity::Note => notes += 1,
        }
    }
    (errors, warnings, notes)
}

/// Renders diagnostics the way a compiler prints them: one block per
/// diagnostic, followed by a summary line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let (errors, warnings, notes) = summarize(diags);
    if diags.is_empty() {
        out.push_str("no diagnostics\n");
    } else if notes > 0 {
        out.push_str(&format!(
            "{errors} error(s), {warnings} warning(s), {notes} note(s)\n"
        ));
    } else {
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
    }
    out
}

/// JSON form: `{"diagnostics": [...], "errors": n, "warnings": n, "notes": n}`.
pub fn to_json(diags: &[Diagnostic]) -> Value {
    let (errors, warnings, notes) = summarize(diags);
    Value::Object(vec![
        (
            "diagnostics".to_string(),
            Value::Array(diags.iter().map(Diagnostic::to_json).collect()),
        ),
        ("errors".to_string(), Value::Number(errors as f64)),
        ("warnings".to_string(), Value::Number(warnings as f64)),
        ("notes".to_string(), Value::Number(notes as f64)),
    ])
}

/// [`to_json`] serialized to text.
pub fn render_json(diags: &[Diagnostic]) -> String {
    to_json(diags).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::diag::{Code, Location};

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new(
                Code::UndrivenNet,
                "net 'n1' has no driver".to_string(),
                Location::None,
            ),
            Diagnostic::new(
                Code::FasUnusedVariable,
                "variable 'x' is assigned but never used".to_string(),
                Location::Source { line: 3, col: 1 },
            ),
        ]
    }

    fn with_note() -> Vec<Diagnostic> {
        let mut diags = sample();
        let mut note = Diagnostic::new(
            Code::FasDeadBranch,
            "condition is always true; the else branch never runs".to_string(),
            Location::Source { line: 5, col: 1 },
        );
        note.severity = Severity::Note;
        diags.push(note);
        diags
    }

    #[test]
    fn text_includes_codes_and_summary() {
        let text = render_text(&sample());
        assert!(text.contains("error[GABM002]"));
        assert!(text.contains("warning[GABM031]"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(render_text(&[]).contains("no diagnostics"));
    }

    #[test]
    fn json_roundtrips_with_counts() {
        let v = Value::parse(&render_json(&sample())).expect("valid JSON");
        assert_eq!(v.get("errors").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("warnings").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("notes").and_then(Value::as_f64), Some(0.0));
        let diags = v.get("diagnostics").unwrap();
        match diags {
            Value::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn notes_are_not_counted_as_warnings() {
        let diags = with_note();
        let (errors, warnings, notes) = summarize(&diags);
        assert_eq!((errors, warnings, notes), (1, 1, 1));
        let v = to_json(&diags);
        assert_eq!(v.get("warnings").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("notes").and_then(Value::as_f64), Some(1.0));
        let text = render_text(&diags);
        assert!(text.contains("1 error(s), 1 warning(s), 1 note(s)"));
    }
}
