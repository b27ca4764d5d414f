#!/usr/bin/env bash
# Records a performance snapshot as JSON: the memoized hot path vs the
# unmemoized reference (moving cart pass + static read range), the
# streaming operator chains, the site-server ingest/query load section,
# the durable store and the fleet campaign.
#
#   scripts/bench-snapshot.sh                  # writes BENCH_<date>.json
#   scripts/bench-snapshot.sh out.json         # explicit output path
#   scripts/bench-snapshot.sh out.json --smoke # tiny trial counts (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%Y-%m-%d).json}"
shift || true
cargo run --release -q -p rfid-bench --bin bench_snapshot -- "$out" "$@"
