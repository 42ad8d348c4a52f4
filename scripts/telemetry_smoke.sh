#!/usr/bin/env bash
# Telemetry smoke test (the obs and serve telemetry tests run in
# Tier-1): the live-scrape acceptance gate — scrape polling during a
# chaos soak with a monotone approach to the shutdown snapshot, exact final-scrape reconciliation, histogram p99 within one
# log2 bucket of the exact sorted value, a parseable breaker-trip
# blackbox dump, and thread/rerun-invariant trace ids. Finishes with
# obs_summary forward-compat (unknown trace variants are counted, not
# fatal; garbage still fails --validate). The obs overhead gate, with
# histogram calls in its calibration loop, runs in obs_smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_TIMEOUT="${SMOKE_TIMEOUT:-900}"

echo "== telemetry probe acceptance gate =="
cargo build --release -p ull-bench --bin telemetry_probe --bin obs_summary
timeout "$SMOKE_TIMEOUT" ./target/release/telemetry_probe --gate

# The gate writes only its tiny report; the committed
# BENCH_telemetry.json comes from a run without --gate.
echo "== artifact check =="
test -s reports/telemetry_probe_tiny.json
grep -q '"scrape_monotone": true' reports/telemetry_probe_tiny.json
grep -q '"reconciled": true' reports/telemetry_probe_tiny.json
grep -q '"p99_within_one_bucket": true' reports/telemetry_probe_tiny.json
grep -q '"blackbox_parsed": true' reports/telemetry_probe_tiny.json
grep -q '"determinism": true' reports/telemetry_probe_tiny.json
ls reports/blackbox_telemetry/blackbox-*-breaker_trip.json > /dev/null
ls reports/blackbox_telemetry/blackbox-*-drain.json > /dev/null

echo "== trace validation: unknown variants counted, garbage fatal =="
test -s reports/telemetry_trace.jsonl
TMP_TRACE="$(mktemp)"
trap 'rm -f "$TMP_TRACE"' EXIT
cp reports/telemetry_trace.jsonl "$TMP_TRACE"
# A well-formed event from a future writer must be skipped and counted,
# not fail validation.
echo '{"HistV2": {"key": "future", "value": 1, "sketch": [2, 3]}}' >> "$TMP_TRACE"
SUMMARY_OUT="$(./target/release/obs_summary --validate "$TMP_TRACE")"
grep -q '1 skipped unknown' <<< "$SUMMARY_OUT"
# Structurally broken lines must still fail it.
echo '{broken' >> "$TMP_TRACE"
if ./target/release/obs_summary --validate "$TMP_TRACE" > /dev/null 2>&1; then
  echo "obs_summary --validate accepted garbage" >&2
  exit 1
fi

echo "telemetry smoke test passed"
