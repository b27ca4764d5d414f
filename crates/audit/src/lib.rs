//! `rfid-audit` — the workspace's static-analysis gate.
//!
//! Every reproduced number in this repository rests on one invariant the
//! test suite can only spot-check: a simulation replays **bit-identically
//! from its seed at any thread count**. One stray `HashMap` iteration, a
//! wall-clock read, or an ambient-RNG call in a deterministic crate
//! silently breaks that guarantee, and `clippy` has no lint for it. This
//! crate is that lint: a workspace-wide pass with its own lightweight
//! Rust lexer (string-, raw-string-, char-literal- and nested-comment-
//! aware — `syn` is unavailable offline) that walks every workspace
//! `.rs` file and enforces the per-crate **policy tier** declared in
//! `audit.toml` at the repo root.
//!
//! * Tier `deterministic` (phys, geom, gen2, sim, core, track, stats,
//!   experiments): forbids nondeterminism sources — default-hasher
//!   `HashMap`/`HashSet`, `Instant::now`/`SystemTime`, `thread_rng`/
//!   `from_entropy`, `std::env`, and `.sum::<f64>()` float accumulation.
//! * Tier `io` (readerapi, bench, this crate): forbids `unwrap()`/
//!   `expect()`/`panic!` outside `#[cfg(test)]`, and requires every
//!   `unsafe` block to carry a `// audit: safety:` justification.
//! * Tier `exempt` (vendored stand-ins, demo examples): scanned, never
//!   linted.
//!
//! On top of the token lints sits a syntax-aware pass: a delimiter-
//! matched item tree ([`syntax`]) feeds an intra-file concurrency
//! analysis ([`concurrency`]) that reports lock-order inversions, lock
//! guards held across blocking calls (`send`/`recv`/`wait`/`join`/IO,
//! with `Condvar::wait` on the same slot exempted), condvar waits
//! outside loops, and tier-contract violations (`Operator` impls or
//! watermark state outside the deterministic tier; thread spawns or
//! channel construction inside it).
//!
//! Suppression is explicit: `// audit:allow(<lint>, reason = "…")` on
//! (or directly above) the offending line. Run it with
//! `cargo run -p rfid-audit`; the exit code is the finding count, so it
//! slots in as the first stage of `scripts/ci.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod syntax;

pub use config::{Config, ConfigError, Tier};
pub use lints::{lint_by_name, Allow, LINTS};
pub use report::{AuditReport, Finding};
pub use syntax::{FnDecl, Item, ItemKind, SyntaxTree};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A fatal error: the audit could not run at all (as opposed to running
/// and producing findings).
#[derive(Debug)]
pub enum AuditError {
    /// The policy file was missing or unreadable.
    Config(ConfigError),
    /// Filesystem access failed.
    Io(PathBuf, io::Error),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Config(e) => write!(f, "{e}"),
            AuditError::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<ConfigError> for AuditError {
    fn from(e: ConfigError) -> Self {
        AuditError::Config(e)
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "node_modules"];

/// Runs the full audit: loads `<root>/audit.toml`, walks every `.rs`
/// file under `root`, lints each against its tier, and aggregates.
///
/// # Errors
///
/// Returns [`AuditError`] only when the audit cannot run (unreadable
/// policy or filesystem); lint violations are findings, not errors.
pub fn run(root: &Path) -> Result<AuditReport, AuditError> {
    let config_path = root.join("audit.toml");
    let text =
        fs::read_to_string(&config_path).map_err(|e| AuditError::Io(config_path.clone(), e))?;
    let config = Config::parse(&text)?;
    run_with_config(root, &config)
}

/// [`run`], with an already-parsed policy (used by the fixture tests).
///
/// # Errors
///
/// Returns [`AuditError::Io`] if the tree cannot be walked or a source
/// file cannot be read.
pub fn run_with_config(root: &Path, config: &Config) -> Result<AuditReport, AuditError> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();

    let mut report = AuditReport::default();
    for rel in files {
        let abs = root.join(&rel);
        let src = fs::read_to_string(&abs).map_err(|e| AuditError::Io(abs.clone(), e))?;
        report.files_scanned += 1;
        let Some(tier) = config.tier_of(&rel) else {
            report
                .findings
                .push(Finding::new(&rel, 1, 1, "no-policy", rel.clone()));
            continue;
        };
        let mut outcome = lints::scan_file(&rel, &src, tier, is_test_path(&rel));
        report.findings.append(&mut outcome.findings);
        report.allows.append(&mut outcome.allows);
    }
    Ok(report)
}

/// True for files whose entire compilation context is test-only:
/// anything under a `tests/` or `benches/` directory component.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

/// Recursively gathers workspace-relative `.rs` paths (forward slashes).
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), AuditError> {
    let entries = fs::read_dir(dir).map_err(|e| AuditError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| AuditError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}
