//! Findings and their human / JSON renderings.

use crate::lints::{lint_by_name, Allow};
use std::fmt::Write as _;

/// One audit finding: where, what, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Lint name (an entry of [`crate::lints::LINTS`]).
    pub lint: &'static str,
    /// The offending token span (or a short description for meta lints).
    pub span: String,
    /// The enclosing function (`Type::name`), when the finding came from
    /// the function-level concurrency analysis.
    pub function: Option<String>,
    /// The two lock slots involved, sorted, for `lock-order-inversion`.
    pub lock_pair: Option<(String, String)>,
}

impl Finding {
    /// Builds a finding; `lint` must be a catalogue name.
    #[must_use]
    pub fn new(
        file: &str,
        line: usize,
        col: usize,
        lint: &'static str,
        span: impl Into<String>,
    ) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            col,
            lint,
            span: span.into(),
            function: None,
            lock_pair: None,
        }
    }

    /// Attaches the enclosing function's qualified name.
    #[must_use]
    pub fn with_function(mut self, function: impl Into<String>) -> Finding {
        self.function = Some(function.into());
        self
    }

    /// Attaches the conflicting lock pair (callers pass them sorted).
    #[must_use]
    pub fn with_lock_pair(mut self, a: impl Into<String>, b: impl Into<String>) -> Finding {
        self.lock_pair = Some((a.into(), b.into()));
        self
    }

    /// The fix hint from the lint catalogue.
    #[must_use]
    pub fn hint(&self) -> &'static str {
        lint_by_name(self.lint).map_or("", |l| l.hint)
    }
}

/// The whole run: findings, allows, and scan statistics.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Findings that survived suppression, in path order.
    pub findings: Vec<Finding>,
    /// Every valid allow directive in the tree.
    pub allows: Vec<Allow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Human-readable rendering: one block per finding plus a summary.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] `{}`\n    hint: {}",
                f.file,
                f.line,
                f.col,
                f.lint,
                f.span,
                f.hint()
            );
        }
        let _ = writeln!(
            out,
            "audit: {} finding(s) across {} file(s); {} allow directive(s)",
            self.findings.len(),
            self.files_scanned,
            self.allows.len()
        );
        out
    }

    /// The `--list-allows` rendering: every suppression with its reason.
    #[must_use]
    pub fn render_allows(&self) -> String {
        let mut out = String::new();
        for a in &self.allows {
            let _ = writeln!(
                out,
                "{}:{}: allow({}) [{}] — {}",
                a.file,
                a.line,
                a.lint,
                if a.used { "used" } else { "UNUSED" },
                a.reason
            );
        }
        let _ = writeln!(out, "audit: {} allow directive(s)", self.allows.len());
        out
    }

    /// Machine-readable rendering (`--json`): a single JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let function = f
                .function
                .as_deref()
                .map_or_else(|| "null".to_owned(), json_str);
            let lock_pair = f.lock_pair.as_ref().map_or_else(
                || "null".to_owned(),
                |(a, b)| format!("[{}, {}]", json_str(a), json_str(b)),
            );
            let _ = write!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"lint\": {}, \
                 \"span\": {}, \"function\": {}, \"lock_pair\": {}, \"hint\": {}}}",
                json_str(&f.file),
                f.line,
                f.col,
                json_str(f.lint),
                json_str(&f.span),
                function,
                lock_pair,
                json_str(f.hint())
            );
            out.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"used\": {}, \
                 \"reason\": {}}}",
                json_str(&a.file),
                a.line,
                json_str(a.lint),
                a.used,
                json_str(&a.reason)
            );
            out.push_str(if i + 1 < self.allows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}
