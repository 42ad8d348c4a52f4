#!/usr/bin/env bash
# Packed-kernel smoke test: the weight-stationary packed kernels must be
# bit-identical to the unpacked dense kernels for every shape, sparsity
# and thread count (the packed_diff differential harness), packing must
# move no counted work (the acs_counters binary), and packs must be built
# once per network and survive weight mutation via re-pack (the
# alloc_free reuse/staleness gates). Wall-clock is never gated — only
# counted work and bit-identity are reliable on a small shared machine.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== packed-kernel differential harness (tensor) =="
ULL_THREADS=1 cargo test -p ull-tensor --test packed_diff -q
ULL_THREADS=4 cargo test -p ull-tensor --test packed_diff -q

echo "== counted work: executed ACs and packing deltas (tensor) =="
ULL_THREADS=1 cargo test -p ull-tensor --test acs_counters -q
ULL_THREADS=4 cargo test -p ull-tensor --test acs_counters -q

echo "== pack reuse, staleness and allocation gates (snn) =="
ULL_THREADS=1 cargo test -p ull-snn --test alloc_free -q
ULL_THREADS=1 cargo test -p ull-snn packing -q

echo "kernel smoke test passed"
