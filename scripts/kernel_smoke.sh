#!/usr/bin/env bash
# Packed-kernel smoke test: the weight-stationary packed kernels must be
# bit-identical to the scalar reference kernels for every shape, sparsity
# and thread count (the packed_diff differential harness), and packing
# must move no counted work (the acs_counters binary). Each network owns
# its pack: it is built once per weight version, shared by later clones,
# dropped by every `&mut` accessor and rebuilt once when racing threads
# run the first forward (the `packing` ownership tests, at 1 and 4
# threads), and steady-state forwards allocate nothing (alloc_free).
# Eval and training share the packed kernels, so every forward entry
# point and the forward_train tape must match the allocating reference
# step bit for bit (tape_oracle, at 1 and 4 threads). The DNN forward runs the
# same panel core (packing its weights per call), so two epochs of DNN
# training and the alpha/beta conversion are pinned bit for bit too
# (train_pin, convert_pin, at 1 and 4 threads). Wall-clock is never gated
# — only counted work and bit-identity are reliable on a small shared
# machine.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== packed-kernel differential harness (tensor) =="
ULL_THREADS=1 cargo test -p ull-tensor --test packed_diff -q
ULL_THREADS=4 cargo test -p ull-tensor --test packed_diff -q

echo "== counted work: executed ACs and packing deltas (tensor) =="
ULL_THREADS=1 cargo test -p ull-tensor --test acs_counters -q
ULL_THREADS=4 cargo test -p ull-tensor --test acs_counters -q

echo "== pack ownership, staleness and allocation gates (snn) =="
ULL_THREADS=1 cargo test -p ull-snn --test alloc_free -q
ULL_THREADS=1 cargo test -p ull-snn packing -q
ULL_THREADS=4 cargo test -p ull-snn packing -q

echo "== step engine vs unpacked reference: eval and training tape (snn) =="
ULL_THREADS=1 cargo test -p ull-snn --test tape_oracle -q
ULL_THREADS=4 cargo test -p ull-snn --test tape_oracle -q

echo "== dense forward on the panel core: DNN training and conversion pins =="
ULL_THREADS=1 cargo test -p ull-nn --test train_pin -q
ULL_THREADS=1 cargo test -p ull-core --test convert_pin -q
ULL_THREADS=4 cargo test -p ull-nn --test train_pin -q
ULL_THREADS=4 cargo test -p ull-core --test convert_pin -q

echo "kernel smoke test passed"
