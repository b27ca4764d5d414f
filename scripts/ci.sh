#!/usr/bin/env bash
# The workspace CI gate: static-analysis audit, formatting, lints
# (warnings denied), release build, and the full test suite. Run from
# anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Stage 1: the in-repo audit gate — token lints plus the syntax-aware
# concurrency and tier-contract passes. Its exit code is the finding
# count, so any determinism, robustness, or lock-discipline violation
# fails CI before a single crate compiles; the grep pins the literal
# zero-findings summary so a suppressed-by-baseline run can never pass
# silently (CI runs without `--baseline` on purpose). The allow list is
# printed so suppressions stay visible in every CI log (each carries a
# mandatory reason; the audit's own test suite fails on unused ones).
audit_out="$(mktemp)"
cargo run -q -p rfid-audit | tee "$audit_out"
grep -q "audit: 0 finding(s)" "$audit_out"
rm -f "$audit_out"
cargo run -q -p rfid-audit -- --list-allows

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo build --release --examples
cargo test --workspace -q

# Drive the runnable demos end-to-end under a wall-clock budget:
# `quickstart` is the front-door experience, and `reader_emulation`
# exercises the full streaming data plane (live TCP sessions through the
# wire adapter and reorder buffer into the location tracker, asserting
# the streamed zone history matches batch). A hang or panic in either
# fails the gate instead of wedging the runner.
timeout 120 cargo run --release -q --example quickstart >/dev/null
timeout 120 cargo run --release -q --example reader_emulation >/dev/null

# Boot the site tracking daemon end to end: a live server, two portal
# sessions dialing in over TCP, a query client, and a graceful drain.
# The run asserts the drained tracker is bit-identical to a batch
# replay; the greps pin the proof lines so a silent downgrade of the
# check fails CI. `timeout` guards against shutdown regressions that
# would otherwise wedge the runner.
site_out="$(mktemp)"
timeout 120 cargo run --release -q -p rfid-site-server -- \
    --self-drive --portals 2 --tags 4 --steps 30 | tee "$site_out"
grep -q "matches batch replay" "$site_out"
grep -q "graceful shutdown complete" "$site_out"
rm -f "$site_out"

# The sharded-plane identity suite under its own budget: these
# proptests prove the EPC-partitioned parallel chains bit-identical to
# K=1 for arbitrary shard counts, chunkings, and watermark schedules —
# a deadlocked merge would otherwise wedge the runner.
timeout 120 cargo test -q --test shard_identity

# The durable-store recovery suites under their own budget: crash
# recovery (torn tails, flipped checksum bytes, deleted segments) must
# be a typed error or a bit-exact prefix — never a panic or a hang on
# hostile segment files — and a daemon restarted on a store directory
# must replay to the exact live state.
timeout 120 cargo test -q -p rfid-track --test store_recovery
timeout 120 cargo test -q -p rfid-site-server --test store_replay

# Re-run the wire-path failure suites under a hard wall-clock budget.
# These tests exist to prove a stalled or faulted peer cannot hang the
# client; if a hang regression slips back in, `timeout` fails the gate
# fast instead of wedging CI until the runner is killed.
timeout 120 cargo test -q -p rfid-readerapi --test reader_error_paths
timeout 120 cargo test -q --test reader_fault_injection

# The campaign checkpoint recovery suite under its own budget: the
# exhaustive every-byte-offset torn-tail sweep plus resume-equals-
# uninterrupted proofs must stay typed-error-or-bit-exact, never a
# panic or a hang on hostile checkpoint files.
timeout 180 cargo test -q -p rfid-experiments --test campaign_recovery

# Kill-and-resume the campaign runner end to end through the CLI: a
# seeded smoke campaign halted at an instance boundary, resumed from
# its checkpoint, must print the same state digest as a fresh
# uncheckpointed run — the user-facing face of the bit-identical
# recovery contract. `timeout` guards against a resume loop regression.
campaign_dir="$(mktemp -d)"
halted_out="$campaign_dir/halted.txt"
resumed_out="$campaign_dir/resumed.txt"
fresh_out="$campaign_dir/fresh.txt"
timeout 120 cargo run --release -q -p rfid-experiments --bin campaign -- \
    --spec smoke --seed 11 --checkpoint "$campaign_dir/smoke.ckpt" \
    --halt-after 2 | tee "$halted_out"
grep -q "halted after 2 instance(s)" "$halted_out"
timeout 120 cargo run --release -q -p rfid-experiments --bin campaign -- \
    --spec smoke --seed 11 --checkpoint "$campaign_dir/smoke.ckpt" \
    | tee "$resumed_out"
grep -q "resumed from checkpoint at instance 2" "$resumed_out"
timeout 120 cargo run --release -q -p rfid-experiments --bin campaign -- \
    --spec smoke --seed 11 | tee "$fresh_out"
resumed_digest="$(grep "state digest" "$resumed_out")"
fresh_digest="$(grep "state digest" "$fresh_out")"
test -n "$resumed_digest"
test "$resumed_digest" = "$fresh_digest"
rm -rf "$campaign_dir"

# Build the end-to-end benchmark and smoke every workload with its
# correctness gates. perfbench is a package with a workspace of its
# own, so the stages above never compile it; without this stage a
# break in an API it calls (the tracker, the store, the ingest plane)
# would surface only when the benchmark runs. `timeout` covers the
# build as well as the ~12 s of smoke runs.
timeout 600 cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Smoke the benchmark snapshot tool: it must run, assert the memoized
# and reference paths bit-identical (and the campaign's streaming fold
# identical to batch, kill+resume identical to uninterrupted), and emit
# parseable JSON.
smoke_out="$(mktemp)"
trap 'rm -f "$smoke_out"' EXIT
scripts/bench-snapshot.sh "$smoke_out" --smoke
grep -q '"speedup"' "$smoke_out"
grep -q '"events_per_sec"' "$smoke_out"
grep -q '"site_server"' "$smoke_out"
grep -q '"sharded_streaming"' "$smoke_out"
grep -q '"ingest_batch_speedup"' "$smoke_out"
grep -q '"store"' "$smoke_out"
grep -q '"append_events_per_sec"' "$smoke_out"
grep -q '"fleet_campaign"' "$smoke_out"
grep -q '"objects_per_sec"' "$smoke_out"
grep -q '"peak_accumulator_bytes"' "$smoke_out"
grep -q '"streaming_matches_batch": true' "$smoke_out"
grep -q '"resume_digest_matches": true' "$smoke_out"
