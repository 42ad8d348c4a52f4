#!/usr/bin/env bash
# Kill-and-resume smoke test: run the quickstart example with checkpointing
# enabled, SIGKILL it once it has committed its KILL_AT-th checkpoint, then
# rerun and require it to resume from the on-disk checkpoint and finish.
# Exercises the crash-safety contract end to end (see DESIGN.md,
# "Crash-safety and recovery").
#
# The kill is keyed to the checkpoint directory, not to a timer, so the
# test kills mid-run on any machine speed. A first run that finishes (or
# fails) before it is killed fails the test: nothing was resumed.
set -euo pipefail
cd "$(dirname "$0")/.."

# The quickstart commits 17 checkpoints over its run; killing after the
# third leaves both a checkpoint to resume from and epochs left to run.
KILL_AT=3
export ULL_CHECKPOINT_DIR="$(mktemp -d)"
trap 'rm -rf "$ULL_CHECKPOINT_DIR"' EXIT

cargo build --release --example quickstart

echo "== first run (SIGKILL at its checkpoint #${KILL_AT}) =="
./target/release/examples/quickstart &
pid=$!
# Committed checkpoints are renamed into place as `ckpt-*.json` (in-flight
# writes end in `.tmp`); names sort in commit order and old ones are pruned,
# so count every distinct name seen.
declare -A seen=()
killed=0
while kill -0 "$pid" 2> /dev/null; do
    for f in "$ULL_CHECKPOINT_DIR"/ckpt-*.json; do
        [ -e "$f" ] && seen["$f"]=1
    done
    if [ "${#seen[@]}" -ge "$KILL_AT" ]; then
        kill -KILL "$pid" 2> /dev/null && killed=1
        break
    fi
    sleep 0.05
done
set +e
wait "$pid"
status=$?
set -e
if [ "$killed" -ne 1 ]; then
    echo "FAIL: first run exited (status $status) after ${#seen[@]} checkpoint(s), before it was killed; nothing to resume" >&2
    exit 1
fi
echo "first run killed after ${#seen[@]} checkpoints (exit $status)"

# The killed run must have left at least one valid checkpoint.
ls "$ULL_CHECKPOINT_DIR"/ckpt-*.json > /dev/null

echo "== second run (must resume and finish) =="
./target/release/examples/quickstart
echo "resume smoke test passed"
