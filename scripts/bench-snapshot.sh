#!/usr/bin/env bash
# Records a performance snapshot as JSON of what no other tool times:
# the memoized hot path vs the unmemoized reference (moving cart pass +
# static read range), the streaming operator chains and the fleet
# campaign. Each case passes an identity gate before it is timed. The
# daemon, wire and store are timed by perfbench (perfbench/README.md).
#
#   scripts/bench-snapshot.sh                  # writes BENCH_<date>.json
#   scripts/bench-snapshot.sh out.json         # explicit output path
#   scripts/bench-snapshot.sh out.json --smoke # tiny trial counts (CI)
#   scripts/bench-snapshot.sh out.json --fleet # the >=100k-object campaign
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%Y-%m-%d).json}"
shift || true
cargo run --release -q -p rfid-bench --bin bench_snapshot -- "$out" "$@"
