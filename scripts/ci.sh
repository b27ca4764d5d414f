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
# zero-findings summary, so only a clean tree passes. The allow list is
# printed so suppressions stay visible in every CI log (each carries a
# mandatory reason; the audit's own test suite fails on unused ones).
audit_out="$(mktemp)"
cargo run -q -p rfid-audit | tee "$audit_out"
grep -q "audit: 0 finding(s)" "$audit_out"
rm -f "$audit_out"
cargo run -q -p rfid-audit -- --list-allows

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# The API docs build with warnings denied, so a doc link to a renamed,
# moved or private item fails the gate instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --workspace --release
cargo build --release --examples
# The workspace suite under one wall-clock budget, with the test
# binaries built first so the budget covers only the run (under a
# minute on 2 vCPUs). Several suites exist to prove that nothing hangs,
# and without the budget a hang would wedge the runner instead of
# failing the gate:
# - `shard_identity` runs sessions on threads of their own, where a
#   deadlocked ticket wait would block forever;
# - `store_recovery` and `store_replay` feed crash recovery torn tails,
#   flipped checksum bytes and deleted segments, which must end in a
#   typed error or a bit-exact prefix, never a hang;
# - `reader_error_paths` and `reader_fault_injection` prove a stalled
#   or faulted peer cannot hang the client, and `wire_properties` feeds
#   the one-pass decoder hostile frames, where a loop that stops
#   advancing would spin;
# - `campaign_recovery` sweeps every byte offset of a torn checkpoint
#   and proves resume equals an uninterrupted run.
cargo test --workspace --no-run -q
timeout 300 cargo test --workspace -q
# The tracking crates and the statistics codecs again under the release
# profile, which is how the daemon ships: `debug_assert!` guards are
# compiled out there, and integer overflow wraps instead of panicking.
# A decoder's overflow check must hold without the debug panic, and a
# tracker history shifts and rebases its run positions and packs its
# zone keys with plain integer arithmetic, where a slip would wrap
# silently. So does the store's span list: a segment's gap to the one
# listed before it is a plain `u32` subtraction, positive only because
# segments close in ascending order. Only a release run tests the code
# that ships. The run includes `history_bytes.rs` and
# `store_index_bytes.rs`, the counting-allocator bounds on tracker and
# span-index heap, as the workspace run above does. These tests drive
# the store's threaded in-order segment reader, so `timeout` fails the
# gate on a deadlocked reader instead of hanging it.
timeout 300 cargo test --release -q -p rfid-track -p rfid-site-server -p rfid-stats
# The campaign's overflow tests under the release profile too: a
# checkpoint's counts are merged on resume, and before the merges were
# checked a count at `u64::MAX` panicked only a debug build and wrapped
# to a small number in release.
timeout 300 cargo test --release -q -p rfid-experiments --lib overflow

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

# Reproduce the paper: `repro all` regenerates every table and figure
# at the paper's trial counts and exits non-zero if any of its 15
# shape checks is violated, so a change to the simulation that bends a
# published result fails the gate (about 7 s in release). The grep pins
# the count: an experiment that dropped out of the list would leave
# every remaining check holding and the exit code at zero. `timeout`
# guards against a runaway experiment.
repro_out="$(mktemp)"
timeout 300 cargo run --release -q -p rfid-experiments --bin repro -- all | tee "$repro_out"
grep -q "shape checks: 15/15 HOLD" "$repro_out"
rm -f "$repro_out"

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
# would surface only when the benchmark runs. `--locked` fails the
# stage if a change to the repo's crates would rewrite
# `perfbench/Cargo.lock`, instead of silently changing what the
# benchmark builds. `timeout` covers the build as well as the ~12 s of
# smoke runs.
timeout 600 cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

# Smoke the benchmark snapshot tool: every case must pass its identity
# gate before it is timed (memoized paths bit-identical to the
# reference, each streaming chain equal to its batch API, the
# campaign's streaming fold identical to batch and kill+resume
# identical to uninterrupted), and the tool must emit parseable JSON.
smoke_out="$(mktemp)"
trap 'rm -f "$smoke_out"' EXIT
scripts/bench-snapshot.sh "$smoke_out" --smoke
grep -q '"speedup"' "$smoke_out"
grep -q '"events_per_sec"' "$smoke_out"
grep -q '"matches_batch": true' "$smoke_out"
grep -q '"fleet_campaign"' "$smoke_out"
grep -q '"objects_per_sec"' "$smoke_out"
grep -q '"peak_accumulator_bytes"' "$smoke_out"
grep -q '"streaming_matches_batch": true' "$smoke_out"
grep -q '"resume_digest_matches": true' "$smoke_out"
