#!/usr/bin/env bash
# Serving smoke test (the serve crate's tests run in Tier-1): the TCP
# wire surface (200 requests including expired deadlines, wrong shapes,
# non-finite pixels, invalid JSON and an oversized frame — every reply
# typed, clean drain), then the chaos soak acceptance gate (tiny scale):
# breaker trips within K batches of mid-run fault injection, >= 99 % of
# post-trip batches on the fallback, accuracy within 1 pt of clean, p99
# under the deadline, shed requests typed, clean run bit-identical
# across ULL_THREADS {1, 4}.
set -euo pipefail
cd "$(dirname "$0")/.."

# Serving is network + thread heavy; a wedged queue must fail the job,
# not hang it.
SMOKE_TIMEOUT="${SMOKE_TIMEOUT:-900}"

echo "== wire-protocol smoke (200 requests over TCP) =="
cargo build --release -p ull-bench --bin serve_smoke --bin serve_soak
timeout "$SMOKE_TIMEOUT" ./target/release/serve_smoke

echo "== chaos soak acceptance gate (tiny scale) =="
timeout "$SMOKE_TIMEOUT" ./target/release/serve_soak --gate

# The gate writes only its tiny report; the committed small-scale
# BENCH_serve.json comes from `serve_soak --scale small`.
echo "== artifact check =="
test -s reports/serve_soak_tiny.json
grep -q '"batches_to_trip"' reports/serve_soak_tiny.json
grep -q '"timeline"' reports/serve_soak_tiny.json
grep -q '"thread_invariant": true' reports/serve_soak_tiny.json
test -s reports/serve_smoke_metrics.json
grep -q '"serve.served"' reports/serve_smoke_metrics.json

echo "serve smoke test passed"
