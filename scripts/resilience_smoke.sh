#!/usr/bin/env bash
# Resilience smoke test (the fault-injection determinism suite runs in
# Tier-1 at both thread counts): the resilience_sweep acceptance gate
# (tiny scale): watchdog detection >= 90 % at BER 1e-2 with zero false
# positives over 20 clean checks, anytime inference saving steps within 1 accuracy point,
# and the gate's reports/resilience_tiny.json artifact present and
# well-formed. The gate leaves the committed BENCH_resilience.json alone.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== resilience acceptance gate (tiny scale) =="
cargo build --release -p ull-bench --bin resilience_sweep
./target/release/resilience_sweep --gate

echo "== artifact check =="
test -s reports/resilience_tiny.json
grep -q '"watchdog"' reports/resilience_tiny.json
grep -q '"anytime"' reports/resilience_tiny.json
grep -q '"cells"' reports/resilience_tiny.json

echo "resilience smoke test passed"
