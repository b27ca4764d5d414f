//! End-to-end tests of the `rfid-audit` binary: fixture trees with
//! seeded violations, the exit-code protocol, allow suppression, and
//! the self-hosting check (the auditor must pass on this repository).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Minimal policy file for fixture trees: one directory per tier.
const FIXTURE_CONFIG: &str = r#"version = 1
[tier.deterministic]
paths = ["det"]
[tier.io]
paths = ["io"]
[tier.exempt]
paths = ["vendor"]
"#;

/// Builds a fresh fixture tree under the test-scoped tmpdir and returns
/// its root. `files` are `(relative_path, contents)` pairs; an
/// `audit.toml` is added unless the caller provides one.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    let has_config = files.iter().any(|(p, _)| *p == "audit.toml");
    if !has_config {
        write_file(&root.join("audit.toml"), FIXTURE_CONFIG);
    }
    for (rel, contents) in files {
        write_file(&root.join(rel), contents);
    }
    root
}

fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create fixture dir");
    }
    std::fs::write(path, contents).expect("write fixture file");
}

/// Runs the audit binary against `root` with extra `args`; returns
/// `(exit_code, stdout)`.
fn run_audit(root: &Path, args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_rfid-audit"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("spawn rfid-audit");
    let code = output.status.code().expect("audit exited via signal");
    (
        code,
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn clean_tree_exits_zero() {
    let root = fixture(
        "clean",
        &[
            ("det/src/lib.rs", "pub fn f() -> u32 { 1 }\n"),
            (
                "io/src/lib.rs",
                "pub fn g() -> Result<u32, String> { Ok(2) }\n",
            ),
        ],
    );
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 0, "clean tree must exit 0:\n{out}");
    assert!(out.contains("0 finding(s)"), "{out}");
}

/// One file per lint, each seeding exactly one violation: the exit code
/// is the finding count and every lint name appears in the report.
#[test]
fn every_lint_fires_on_its_seeded_violation() {
    let seeds: &[(&str, &str, &str)] = &[
        (
            "det/src/hash.rs",
            "pub fn f() -> usize { std::collections::HashMap::<u8, u8>::new().len() }\n",
            "hash-collections",
        ),
        (
            "det/src/clock.rs",
            "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
            "wall-clock",
        ),
        (
            "det/src/rng.rs",
            "pub fn f() -> u32 { thread_rng().next_u32() }\n",
            "ambient-rng",
        ),
        (
            "det/src/env.rs",
            "pub fn f() -> Option<String> { std::env::var(\"X\").ok() }\n",
            "process-env",
        ),
        (
            "det/src/sum.rs",
            "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
            "unordered-float-sum",
        ),
        (
            "io/src/unwrap.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            "unchecked-unwrap",
        ),
        (
            "io/src/panic.rs",
            "pub fn f() { panic!(\"boom\") }\n",
            "panic-in-prod",
        ),
        (
            "io/src/raw.rs",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            "unsafe-without-justification",
        ),
    ];
    // Seed the violations one tree at a time (isolates each lint), then
    // all together (exit code = total).
    for (path, src, lint) in seeds {
        let root = fixture("single", &[(*path, *src)]);
        let (code, out) = run_audit(&root, &[]);
        assert_eq!(code, 1, "{lint}: want exactly one finding:\n{out}");
        assert!(out.contains(lint), "{lint} missing from:\n{out}");
    }
    let files: Vec<(&str, &str)> = seeds.iter().map(|(p, s, _)| (*p, *s)).collect();
    let root = fixture("all-lints", &files);
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(
        code,
        seeds.len() as i32,
        "exit code is the finding count:\n{out}"
    );
    for (_, _, lint) in seeds {
        assert!(out.contains(lint), "{lint} missing from:\n{out}");
    }
}

#[test]
fn hash_collections_inside_strings_and_tests_stay_silent() {
    let root = fixture(
        "shielded",
        &[(
            "det/src/lib.rs",
            "pub fn name() -> &'static str { \"HashMap\" }\n\
             // HashMap in a comment\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::collections::HashMap;\n\
                 #[test]\n\
                 fn t() { let _: HashMap<u8, u8> = HashMap::new(); }\n\
             }\n",
        )],
    );
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 0, "shielded tokens must not fire:\n{out}");
}

#[test]
fn allow_directive_suppresses_and_is_listed() {
    let src = "use std::collections::HashMap; // audit:allow(hash-collections, reason = \"fixture: keyed by opaque id, order never observed\")\n\
               pub fn f() -> HashMap<u8, u8> { HashMap::new() }\n";
    // The second line's HashMap uses still fire: only the directive's
    // own line is covered, so the suppression cannot spread.
    let root = fixture("allowed", &[("det/src/lib.rs", src)]);
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 2, "only line 1 is suppressed:\n{out}");

    let (code, allows) = run_audit(&root, &["--list-allows"]);
    assert_eq!(code, 0, "--list-allows is a review aid, not a gate");
    assert!(allows.contains("hash-collections"), "{allows}");
    assert!(allows.contains("order never observed"), "{allows}");
    assert!(allows.contains("[used]"), "{allows}");
}

#[test]
fn standalone_allow_covers_the_next_code_line() {
    let src = "// audit:allow(wall-clock, reason = \"fixture: diagnostic timer only\")\n\
               pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    let root = fixture("standalone-allow", &[("det/src/lib.rs", src)]);
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 0, "standalone allow targets the next line:\n{out}");
}

#[test]
fn unused_and_malformed_allows_are_findings() {
    let root = fixture(
        "bad-allows",
        &[
            (
                "det/src/unused.rs",
                "// audit:allow(wall-clock, reason = \"nothing here uses the clock\")\n\
                 pub fn f() -> u32 { 1 }\n",
            ),
            (
                "det/src/malformed.rs",
                "// audit:allow(made-up-lint, reason = \"no such lint\")\n\
                 pub fn g() -> u32 { 2 }\n",
            ),
            (
                "det/src/no_reason.rs",
                "// audit:allow(wall-clock)\n\
                 pub fn h() -> std::time::Instant { std::time::Instant::now() }\n",
            ),
        ],
    );
    let (code, out) = run_audit(&root, &[]);
    // unused-allow + bad-allow-directive + (bad directive does not
    // suppress, so the wall-clock finding below it also fires).
    assert_eq!(code, 4, "{out}");
    assert!(out.contains("unused-allow"), "{out}");
    assert!(out.contains("bad-allow-directive"), "{out}");
    assert!(out.contains("wall-clock"), "{out}");
}

#[test]
fn unmatched_file_needs_a_policy() {
    let root = fixture("orphan", &[("orphan/src/lib.rs", "pub fn f() {}\n")]);
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("no-policy"), "{out}");
}

#[test]
fn exempt_tier_is_scanned_but_never_linted() {
    let root = fixture(
        "exempt",
        &[(
            "vendor/src/lib.rs",
            "use std::collections::HashMap;\npub fn f() { panic!(\"vendored\") }\n",
        )],
    );
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 0, "exempt files carry no lints:\n{out}");
    assert!(out.contains("1 file(s)"), "{out}");
}

#[test]
fn missing_config_is_fatal_not_clean() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-config");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    write_file(&root.join("det/src/lib.rs"), "pub fn f() {}\n");
    let (code, _) = run_audit(&root, &[]);
    assert_eq!(code, 201, "a gate that cannot run must not look clean");
}

#[test]
fn json_output_carries_findings_and_counts() {
    let root = fixture(
        "json",
        &[(
            "det/src/lib.rs",
            "pub fn f() -> std::time::SystemTime { todo!() }\n",
        )],
    );
    let (code, out) = run_audit(&root, &["--json"]);
    assert_eq!(code, 1);
    for needle in [
        "\"findings\"",
        "\"wall-clock\"",
        "\"file\": \"det/src/lib.rs\"",
        "\"files_scanned\": 1",
    ] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }
}

/// One fixture per syntax-aware lint, each seeding exactly one
/// violation that must be the only finding in its tree.
#[test]
fn every_concurrency_lint_fires_on_its_seeded_violation() {
    let seeds: &[(&str, &str, &str, &str)] = &[
        (
            "lock-order",
            "det/src/lib.rs",
            "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn ab(&self) -> u32 {\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     *ga + *gb\n\
                 }\n\
                 pub fn ba(&self) -> u32 {\n\
                     let gb = self.b.lock().unwrap();\n\
                     let ga = self.a.lock().unwrap();\n\
                     *ga + *gb\n\
                 }\n\
             }\n",
            "lock-order-inversion",
        ),
        (
            "guard-blocking",
            "det/src/lib.rs",
            "use std::sync::mpsc::SyncSender;\n\
             use std::sync::Mutex;\n\
             pub struct S { m: Mutex<u32>, tx: SyncSender<u32> }\n\
             impl S {\n\
                 pub fn leak(&self) {\n\
                     let g = self.m.lock().unwrap();\n\
                     let _ = self.tx.send(*g);\n\
                 }\n\
             }\n",
            "guard-held-across-blocking",
        ),
        (
            "condvar-loop",
            "det/src/lib.rs",
            "use std::sync::{Condvar, Mutex};\n\
             pub struct S { m: Mutex<bool>, cv: Condvar }\n\
             impl S {\n\
                 pub fn once(&self) {\n\
                     let g = self.m.lock().unwrap();\n\
                     let _g = self.cv.wait(g).unwrap();\n\
                 }\n\
                 pub fn looped(&self) {\n\
                     let mut g = self.m.lock().unwrap();\n\
                     while !*g {\n\
                         g = self.cv.wait(g).unwrap();\n\
                     }\n\
                 }\n\
             }\n",
            "condvar-wait-not-in-loop",
        ),
        (
            "operator-tier",
            "io/src/lib.rs",
            "pub trait Operator { fn push(&mut self); }\n\
             pub struct Passthrough;\n\
             impl Operator for Passthrough { fn push(&mut self) {} }\n",
            "operator-tier-mismatch",
        ),
        (
            "watermark-tier",
            "io/src/lib.rs",
            "pub struct Reorder { watermark_s: f64 }\n\
             pub fn f(r: &Reorder) -> f64 { r.watermark_s }\n",
            "operator-tier-mismatch",
        ),
        (
            "thread-spawn",
            "det/src/lib.rs",
            "pub fn f() { std::thread::spawn(|| {}).join().ok(); }\n",
            "thread-spawn-tier",
        ),
    ];
    for (name, path, src, lint) in seeds {
        let root = fixture(name, &[(*path, *src)]);
        let (code, out) = run_audit(&root, &[]);
        assert_eq!(code, 1, "{name}: want exactly the {lint} finding:\n{out}");
        assert!(out.contains(lint), "{name}: {lint} missing from:\n{out}");
    }
}

/// The condvar exemption: a guard consumed by `Condvar::wait` on the
/// same slot is not "held across blocking", and a wait inside a
/// predicate loop is correct usage — the canonical pattern must be
/// finding-free.
#[test]
fn canonical_condvar_pattern_is_clean() {
    let root = fixture(
        "condvar-clean",
        &[(
            "det/src/lib.rs",
            "use std::sync::{Condvar, Mutex};\n\
             pub struct S { m: Mutex<bool>, cv: Condvar }\n\
             impl S {\n\
                 pub fn wait_ready(&self) {\n\
                     let mut g = self.m.lock().unwrap();\n\
                     while !*g {\n\
                         g = self.cv.wait(g).unwrap();\n\
                     }\n\
                 }\n\
             }\n",
        )],
    );
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 0, "the canonical wait loop must be clean:\n{out}");
}

/// A dropped or scope-ended guard is not live: blocking after release
/// must not fire.
#[test]
fn released_guard_does_not_fire() {
    let root = fixture(
        "guard-released",
        &[(
            "det/src/lib.rs",
            "use std::sync::mpsc::SyncSender;\n\
             use std::sync::Mutex;\n\
             pub struct S { m: Mutex<u32>, tx: SyncSender<u32> }\n\
             impl S {\n\
                 pub fn scoped(&self) {\n\
                     let v = { let g = self.m.lock().unwrap(); *g };\n\
                     let _ = self.tx.send(v);\n\
                 }\n\
                 pub fn dropped(&self) {\n\
                     let g = self.m.lock().unwrap();\n\
                     let v = *g;\n\
                     drop(g);\n\
                     let _ = self.tx.send(v);\n\
                 }\n\
             }\n",
        )],
    );
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 0, "released guards are not held:\n{out}");
}

/// Blocking reached *through* a local call fires at the call site: the
/// analysis propagates callee facts over the approximate call graph.
#[test]
fn transitive_blocking_fires_at_the_call_site() {
    let root = fixture(
        "guard-transitive",
        &[(
            "det/src/lib.rs",
            "use std::sync::mpsc::SyncSender;\n\
             use std::sync::Mutex;\n\
             pub struct S { m: Mutex<u32>, tx: SyncSender<u32> }\n\
             impl S {\n\
                 fn notify(&self, v: u32) {\n\
                     let _ = self.tx.send(v);\n\
                 }\n\
                 pub fn leak(&self) {\n\
                     let g = self.m.lock().unwrap();\n\
                     self.notify(*g);\n\
                 }\n\
             }\n",
        )],
    );
    let (code, out) = run_audit(&root, &[]);
    assert_eq!(code, 1, "the self.notify call blocks transitively:\n{out}");
    assert!(out.contains("guard-held-across-blocking"), "{out}");
    assert!(
        out.contains("notify"),
        "finding anchors the call site:\n{out}"
    );
}

/// Pins the `--json` schema: every finding object carries `lint`,
/// `function`, and `lock_pair` keys — populated by the concurrency
/// lints, null for token lints — so downstream tooling can rely on
/// their presence.
#[test]
fn json_schema_pins_function_and_lock_pair() {
    let root = fixture(
        "json-schema",
        &[
            (
                "det/src/order.rs",
                "use std::sync::Mutex;\n\
                 pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                 impl S {\n\
                     pub fn ab(&self) -> u32 {\n\
                         let ga = self.a.lock().unwrap();\n\
                         let gb = self.b.lock().unwrap();\n\
                         *ga + *gb\n\
                     }\n\
                     pub fn ba(&self) -> u32 {\n\
                         let gb = self.b.lock().unwrap();\n\
                         let ga = self.a.lock().unwrap();\n\
                         *ga + *gb\n\
                     }\n\
                     pub fn leak(&self, tx: &std::sync::mpsc::SyncSender<u32>) {\n\
                         let g = self.a.lock().unwrap();\n\
                         let _ = tx.send(*g);\n\
                     }\n\
                 }\n",
            ),
            (
                "det/src/clock.rs",
                "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
            ),
        ],
    );
    let (code, out) = run_audit(&root, &["--json"]);
    assert_eq!(code, 3, "{out}");
    for needle in [
        // The inversion carries the sorted lock pair.
        "\"lock_pair\": [\"self.a\", \"self.b\"]",
        // The concurrency findings carry their enclosing function.
        "\"function\": \"S::leak\"",
        // Token lints carry explicit nulls, not absent keys.
        "\"function\": null",
        "\"lock_pair\": null",
        "\"lint\": \"wall-clock\"",
    ] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }
}

/// Self-hosting: the gate must pass on the repository that ships it.
/// This is the same invocation `scripts/ci.sh` runs first.
#[test]
fn the_repository_itself_is_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let (code, out) = run_audit(&repo_root, &[]);
    assert_eq!(code, 0, "the repo must pass its own gate:\n{out}");

    let (code, allows) = run_audit(&repo_root, &["--list-allows"]);
    assert_eq!(code, 0);
    // Every allow in the tree must be earning its keep.
    assert!(
        !allows.contains("[UNUSED]"),
        "stale allow directives:\n{allows}"
    );
}
