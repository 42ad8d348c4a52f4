#!/usr/bin/env bash
# Model-lifecycle smoke test (the lifecycle/manifest unit and fuzz tests
# run in Tier-1): the chaos acceptance gate — corrupted or regressed
# candidates are never promoted and are quarantined typed,
# mid-canary corruption rolls back within a bounded number of canary
# batches, a clean reload drops zero replies, canary routing and
# post-promotion outputs are bit-identical across reruns, and an engine
# with no manifest behaves byte-identically to one without the
# subsystem. The gate binary itself checks ULL_THREADS {1, 4}
# invariance internally; running it under both settings additionally
# proves the *ambient* thread count cannot leak into any decision.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_TIMEOUT="${SMOKE_TIMEOUT:-900}"

echo "== lifecycle chaos acceptance gate =="
cargo build --release -p ull-bench --bin serve_lifecycle
ULL_THREADS=1 timeout "$SMOKE_TIMEOUT" ./target/release/serve_lifecycle --gate
ULL_THREADS=4 timeout "$SMOKE_TIMEOUT" ./target/release/serve_lifecycle --gate

# The gate writes only its tiny report; the committed
# BENCH_lifecycle.json comes from a run without --gate.
echo "== artifact check =="
test -s reports/serve_lifecycle_tiny.json
grep -q '"no_manifest_identical": true' reports/serve_lifecycle_tiny.json
grep -q '"torn_manifest_tolerated": true' reports/serve_lifecycle_tiny.json
grep -q '"rerun_identical": true' reports/serve_lifecycle_tiny.json
grep -q '"thread_invariant": true' reports/serve_lifecycle_tiny.json
grep -q '"timeline"' reports/serve_lifecycle_tiny.json

echo "lifecycle smoke test passed"
