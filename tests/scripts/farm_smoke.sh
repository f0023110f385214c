#!/usr/bin/env bash
# Farm smoke test: a >=100-cell campaign run through `ratsim farm` must
# survive a mid-campaign kill -9 of a worker, resume from the shared
# on-disk cache simulating only the missing cells, walk and share one
# prewarm checkpoint per workload and seed, and produce JSON and CSV
# reports byte-identical to a single-process `ratsim sweep`. Runs
# without --cache share through a private checkpoint directory that
# must be gone when they end, also when a cell fails.
#
# Usage: farm_smoke.sh /path/to/ratsim
set -u

RATSIM=${1:?usage: farm_smoke.sh /path/to/ratsim}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ratsim_farm_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# 2 policies x 2 workloads x 26 seeds = 104 cells.
SEEDS=$(seq -s, 1 26)
GRID=(--policies ICOUNT,RaT --workloads "art,mcf;swim,twolf"
      --seeds "$SEEDS" --measure 400 --warmup 100 --prewarm 2000)

echo "== reference sweep (single process) =="
"$RATSIM" sweep "${GRID[@]}" \
    --json "$WORK/ref.json" --csv "$WORK/ref.csv" \
    > "$WORK/sweep.log" 2>&1 || fail "reference sweep failed"
grep -q "sweep: 104 cells" "$WORK/sweep.log" \
    || fail "expected a 104-cell grid, got: $(cat "$WORK/sweep.log")"

echo "== farm run 1: sole worker killed after 30 cells =="
# --no-respawn: this leg's premise is the abort-then-resume path; with
# respawning (the default) the farm would just heal and finish.
if RATSIM_FARM_TEST_KILL_AFTER=30 "$RATSIM" farm "${GRID[@]}" \
    --workers 1 --no-respawn --cache "$WORK/cache" \
    --json "$WORK/dead.json" --csv "$WORK/dead.csv" \
    > "$WORK/farm1.log" 2>&1; then
    fail "farm must exit non-zero when its only worker is killed"
fi
grep -q "30 simulated" "$WORK/farm1.log" \
    || fail "killed run should land exactly 30 cells: $(cat "$WORK/farm1.log")"
[ ! -e "$WORK/dead.json" ] || fail "aborted farm must not write reports"

echo "== farm run 2: resume on 3 workers =="
"$RATSIM" farm "${GRID[@]}" \
    --workers 3 --cache "$WORK/cache" \
    --json "$WORK/farm.json" --csv "$WORK/farm.csv" \
    > "$WORK/farm2.log" 2>&1 || fail "resume failed: $(cat "$WORK/farm2.log")"
# The resume must reuse every cell the killed run landed and simulate
# only the remainder.
grep -q "farm: 104 cells (74 simulated, 30 from cache, 0 failed stores)" \
    "$WORK/farm2.log" \
    || fail "resume accounting wrong: $(cat "$WORK/farm2.log")"
# The killed run landed 15 whole workload/seed pairs; each of the other
# 37 is walked exactly once, however the 3 workers interleave.
grep -q "0 failed stores), 37 prewarm walks" "$WORK/farm2.log" \
    || fail "resume should walk 37 prewarms: $(cat "$WORK/farm2.log")"

echo "== shared prewarm checkpoints =="
# Exact cells share one post-prewarm checkpoint per (programs, seed,
# geometry): both policies of a workload/seed use one file, and no
# writer leaves a temp behind.
CKPTS=$(find "$WORK/cache/ckpt" -maxdepth 1 -name '*.ratck2' | wc -l)
[ "$CKPTS" -eq 52 ] \
    || fail "expected 52 checkpoints (2 workloads x 26 seeds), got $CKPTS"
TMPS=$(find "$WORK/cache/ckpt" -maxdepth 1 -name '*.tmp' | wc -l)
[ "$TMPS" -eq 0 ] || fail "$TMPS checkpoint temp file(s) left behind"

echo "== byte-identity against the reference sweep =="
cmp "$WORK/farm.json" "$WORK/ref.json" || fail "JSON reports differ"
cmp "$WORK/farm.csv" "$WORK/ref.csv" || fail "CSV reports differ"

echo "== sweep without --cache: private checkpoint directory =="
mkdir -p "$WORK/tmp"
TMPDIR="$WORK/tmp" "$RATSIM" sweep "${GRID[@]}" --jobs 3 \
    > "$WORK/private.log" 2>&1 || fail "uncached sweep failed"
grep -q "0 failed stores), 52 prewarm walks" "$WORK/private.log" \
    || fail "uncached sweep should walk 52 prewarms: $(cat "$WORK/private.log")"
[ -z "$(ls -A "$WORK/tmp")" ] \
    || fail "private checkpoint dir left behind: $(ls -A "$WORK/tmp")"

# `ratsim sweep` rejects unknown programs before any cell runs, so the
# failing cell comes from a farm without --cache: cell 5 kills its
# worker on every attempt and is quarantined (exit 1) while the other
# cells share the private directory. (The in-process fatal() exit is a
# gtest death test, CheckpointSharing.FatalCellLeavesNoPrivateDirectory.)
if RATSIM_FAULT="seed=1:kill@x5" TMPDIR="$WORK/tmp" "$RATSIM" farm \
    "${GRID[@]}" --workers 3 --max-retries 1 \
    > "$WORK/failing.log" 2>&1; then
    fail "a farm with a quarantined cell must exit non-zero"
fi
grep -q "103 simulated" "$WORK/failing.log" \
    || fail "other cells must still land: $(cat "$WORK/failing.log")"
[ -z "$(ls -A "$WORK/tmp")" ] \
    || fail "failing farm left a private checkpoint dir: $(ls -A "$WORK/tmp")"

echo "PASS: farm resumed after kill -9 and matched sweep byte-for-byte"
