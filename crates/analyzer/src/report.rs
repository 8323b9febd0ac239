//! Diagnostics and the two output formats.
//!
//! Human output is one `file:line: RULE contract — detail` line per
//! finding; `--json` emits a single document with a stable member
//! order, written by a ~40-line escaper in the house style of the
//! server's dependency-free `json` module (output only — the analyzer
//! never parses JSON). Findings are always sorted by
//! `(file, line, rule)` so reports diff cleanly between runs.

use crate::rules::RuleId;
use crate::workspace::WorkspaceReport;
use std::fmt::{self, Write as _};

/// One finding: a rule, a place, and a message. Its `Display` is the
/// canonical one-line rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the element type of the public field `WorkspaceReport::diagnostics`
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// What exactly matched.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic (used by the engine and by tests).
    pub(crate) fn new(rule: RuleId, file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {} — {}",
            self.file,
            self.line,
            self.rule.code(),
            self.rule.contract(),
            self.message
        )
    }
}

/// Sorts findings into report order: file, then line, then rule.
pub(crate) fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Renders the human report: one line per finding plus a summary line.
pub fn render_human(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(
        out,
        "analyze: {} finding(s), {} suppressed, {} pub item(s), {} file(s) scanned",
        report.diagnostics.len(),
        report.suppressed,
        report.pub_items,
        report.files_scanned
    );
    out
}

/// Renders the JSON report with a fixed member order:
/// `{"version":…,"files_scanned":…,"suppressed":…,"pub_items":…,"findings":[…]}`.
pub fn render_json(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":1,\"files_scanned\":{},\"suppressed\":{},\"pub_items\":{},\"findings\":[",
        report.files_scanned, report.suppressed, report.pub_items
    );
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        write_json_str(&mut out, d.rule.code());
        out.push_str(",\"file\":");
        write_json_str(&mut out, &d.file);
        let _ = write!(out, ",\"line\":{}", d.line);
        out.push_str(",\"contract\":");
        write_json_str(&mut out, d.rule.contract());
        out.push_str(",\"message\":");
        write_json_str(&mut out, &d.message);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_sorted_and_stable() {
        let mut diags = vec![
            Diagnostic::new(RuleId::Srv001, "b.rs", 9, "x".to_string()),
            Diagnostic::new(RuleId::Det001, "a.rs", 12, "y".to_string()),
            Diagnostic::new(RuleId::Det001, "a.rs", 3, "z".to_string()),
        ];
        sort_diagnostics(&mut diags);
        let files: Vec<_> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(files, [("a.rs", 3), ("a.rs", 12), ("b.rs", 9)]);
        let (files_scanned, suppressed, pub_items) = (3, 1, 7);
        let report = WorkspaceReport {
            diagnostics: diags,
            files_scanned,
            suppressed,
            pub_items,
        };
        let human = render_human(&report);
        assert!(human.contains("a.rs:3: DET001"));
        assert!(human.ends_with("3 finding(s), 1 suppressed, 7 pub item(s), 3 file(s) scanned\n"));
    }

    #[test]
    fn json_member_order_is_fixed_and_escaped() {
        let diags = vec![Diagnostic::new(
            RuleId::Hyg003,
            "crates/x/src/lib.rs",
            4,
            "`println!` with \"quotes\"\tand tabs".to_string(),
        )];
        let (files_scanned, suppressed, pub_items) = (10, 0, 5);
        let report = WorkspaceReport {
            diagnostics: diags,
            files_scanned,
            suppressed,
            pub_items,
        };
        let json = render_json(&report);
        assert!(json
            .starts_with("{\"version\":1,\"files_scanned\":10,\"suppressed\":0,\"pub_items\":5,"));
        assert!(json.contains("\"rule\":\"HYG003\""));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\t"));
        // No raw control bytes survive.
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
    }
}
