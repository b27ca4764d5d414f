//! The `rfid-audit` binary: run the workspace static-analysis gate.
//!
//! ```text
//! rfid-audit [--root <dir>] [--json] [--list-allows]
//! ```
//!
//! * default mode prints human-readable findings; the **exit code is the
//!   finding count** (capped at 200), so `0` means the tree is clean;
//! * `--json` prints one JSON object with findings and allows;
//! * `--list-allows` prints every `audit:allow` directive with its
//!   reason (exit 0 — it is a review aid, not a gate);
//! * `--root` points at a tree other than the current directory (the
//!   fixture tests use this; CI runs from the repo root).
//!
//! Fatal problems (missing/invalid `audit.toml`, unreadable files) exit
//! with 201, above the finding-count range, so a broken gate can never
//! masquerade as a clean tree.

use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code for "the audit could not run at all".
const EXIT_FATAL: u8 = 201;
/// Findings are capped to stay below [`EXIT_FATAL`].
const MAX_FINDING_EXIT: u8 = 200;

struct Options {
    root: PathBuf,
    json: bool,
    list_allows: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        list_allows: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list-allows" => opts.list_allows = true,
            "--root" => {
                let Some(dir) = args.next() else {
                    return Err("--root requires a directory argument".to_owned());
                };
                opts.root = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                return Err("usage: rfid-audit [--root <dir>] [--json] [--list-allows]".to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("rfid-audit: {message}");
            return ExitCode::from(EXIT_FATAL);
        }
    };
    let report = match rfid_audit::run(&opts.root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rfid-audit: fatal: {e}");
            return ExitCode::from(EXIT_FATAL);
        }
    };
    if opts.list_allows {
        print!("{}", report.render_allows());
        return ExitCode::SUCCESS;
    }
    if opts.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    let count = report.findings.len().min(usize::from(MAX_FINDING_EXIT));
    ExitCode::from(count as u8)
}
