#!/usr/bin/env bash
# Offline-safe CI for the Loom reproduction workspace.
#
# Every dependency is an in-workspace path crate (see shims/), so no
# step below ever touches a registry; --offline just makes that
# explicit and turns any accidental network dependency into an error.
#
# Usage: ci.sh [--quick|--full]
#
#   --full  (default) everything: lints and rustdoc, the 1M-edge
#           bounded-memory smoke with its WAL-on twin, and the quality
#           gate against the committed BENCH_results.json.
#   --quick the fast pre-commit loop: build, tests, fmt and the serve
#           and bounded-memory smokes at 200k edges; skips clippy,
#           rustdoc, the WAL twin and the quality gate.
#
# The run is split into named stages; a failure reports the stage by
# name, and a per-stage timing table prints on every exit.
set -euo pipefail
cd "$(dirname "$0")"

MODE=full
case "${1:---full}" in
  --quick) MODE=quick ;;
  --full) MODE=full ;;
  *) echo "usage: ci.sh [--quick|--full]" >&2; exit 2 ;;
esac

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_START=0
FAILED_STAGE=""

finish_stage() {
  if [ -n "$CURRENT_STAGE" ]; then
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECS+=($((SECONDS - STAGE_START)))
    CURRENT_STAGE=""
  fi
}

stage() {
  finish_stage
  CURRENT_STAGE="$1"
  STAGE_START=$SECONDS
  echo
  echo "== $1 =="
}

report() {
  local status=$?
  if [ $status -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
    FAILED_STAGE="$CURRENT_STAGE"
  fi
  finish_stage
  echo
  echo "-- ci stage timings ($MODE mode) --"
  local i total=0
  for i in "${!STAGE_NAMES[@]}"; do
    printf '   %-32s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
  done
  printf '   %-32s %4ds\n' total "$total"
  if [ $status -ne 0 ]; then
    echo "ci: FAILED in stage '${FAILED_STAGE:-unknown}' (exit $status)" >&2
  else
    echo "ci: all green ($MODE mode)"
  fi
}
trap report EXIT

# Wall time of a command in milliseconds (its stdout and stderr are
# dropped). Every perf gate below compares these: whole-second
# arithmetic cannot see a 0.2 s run, which is how the old gates came
# to skip themselves. Returns the command's own exit status — carried
# out by hand, because bash clears -e inside $(...): a command that
# dies at start-up would otherwise be the fastest run there is.
wall_ms() {
  local t0 status=0
  t0=$(date +%s%N)
  "$@" > /dev/null 2>&1 || status=$?
  echo $(( ($(date +%s%N) - t0) / 1000000 ))
  return "$status"
}
# The fastest of three runs: the gates compare two sub-second
# processes on a shared box, and one descheduled run is not a
# regression. Fails, printing nothing, as soon as one run fails.
best_ms() {
  local best="" ms
  for _ in 1 2 3; do
    ms=$(wall_ms "$@") || return $?
    if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best=$ms; fi
  done
  echo "$best"
}

stage "gate self-test (a failing command cannot be timed)"
# Every timing gate below is `X_MS=$(best_ms ...)` or `$(wall_ms ...)`
# under set -e, so it is only a gate if both fail when the command they
# time does.
if best_ms false > /dev/null; then
  echo "gate self-test: best_ms timed a failing command as a pass" >&2
  exit 1
fi
if wall_ms false > /dev/null; then
  echo "gate self-test: wall_ms timed a failing command as a pass" >&2
  exit 1
fi
if [ -z "$(best_ms true)" ]; then
  echo "gate self-test: best_ms printed no time for a passing command" >&2
  exit 1
fi
echo "gate self-test: best_ms and wall_ms fail on false, best_ms true prints a time"

stage "tier-1: build"
cargo build --release --offline

stage "tier-1: test"
# The test-count floor: the sum of every "test result:" line's passed
# count. A test binary that silently compiles zero tests (a lost
# `mod`, a cfg that never holds) passes cargo and fails here. The
# floor is the count at the last PR that changed it; only a PR whose
# CHANGES.md entry carries a retirement ledger for the tests it
# deletes may lower it.
TEST_FLOOR=499
cargo test -q --offline 2>&1 | tee target/ci-test.txt
PASSED=$(awk '/^test result:/ { for (i = 2; i <= NF; i++) if ($i == "passed;") s += $(i - 1) }
  END { print s + 0 }' target/ci-test.txt)
echo "tier-1 test count: $PASSED passed (floor $TEST_FLOOR)"
if [ "$PASSED" -lt "$TEST_FLOOR" ]; then
  echo "tier-1 test count: $PASSED passed, under the floor of $TEST_FLOOR" >&2
  exit 1
fi

stage "benchmark package builds against the workspace"
# benchmark/ is a package of its own (empty [workspace] table), so the
# tier-1 build never compiles it: a change to an API it calls —
# loom-wal's write_checkpoint / scan_journal / JournalWriter, the
# engine's resume_from_wal — has to break here, not at the driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

stage "batch-equivalence suite"
# The batched-ingest contract, by name: every pull size must be
# bit-identical to pulls of one edge, and those to the partitioner's
# `on_edge` driver (assignments, stats, snapshots, arena/adjacency
# occupancy). Already part of the tier-1 run above; re-running the one
# suite is cheap and makes a violation name itself in the stage table.
cargo test -q --offline -p loom-core --test batch_equivalence

stage "recovery suite (kill/resume matrix)"
# The crash-recovery contract, by name: a run killed at any point —
# mid-batch, exactly at a checkpoint, one past it — and resumed from
# its WAL must be bit-identical to one uninterrupted run, across
# batch sizes; torn journal tails and corrupt or
# missing checkpoints must recover from the checksummed prefix or
# fail loudly naming the record (DESIGN.md §15). Also in tier-1 above;
# the binary's end of it (--stop-after / --resume) is in the CLI
# surface stage.
cargo test -q --offline -p loom-core --test recovery_equivalence

stage "CLI surface (loom and repro binaries)"
# Both binaries end to end: the flag table (unknown flags, hostile and
# out-of-bound values as named exit-1 errors, --help on every command),
# stop/resume through the WAL, serve against its stream twin, and
# repro's exit codes. Also in tier-1 above; re-run so a flag
# regression names its stage.
cargo test -q --offline -p loom-cli

stage "format"
cargo fmt --check

if [ "$MODE" = full ]; then
  stage "lints (clippy -D warnings)"
  cargo clippy --offline --workspace --all-targets -- -D warnings

  stage "docs (rustdoc -D warnings)"
  # Every intra-doc link resolves, and no public item's docs link a
  # private one: a broken link fails here, not in a reader's browser.
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
fi

stage "stream smoke (stdin ingest, online engine)"
# A small-scale generate emits ~15k edges; stream must ingest them from
# stdin (never materialised) and print >= 2 mid-stream snapshots.
SNAPSHOTS=$(./target/release/loom generate --dataset dblp --scale small --seed 7 2>/dev/null \
  | ./target/release/loom stream --k 4 --system ldg --snapshot-every 5000 2>/dev/null \
  | { grep -c '^snapshot ' || true; })
if [ "$SNAPSHOTS" -lt 3 ]; then
  echo "stream smoke failed: expected >= 3 snapshot lines, got $SNAPSHOTS" >&2
  exit 1
fi
echo "stream smoke: $SNAPSHOTS snapshots"

stage "serve smoke (live readers over paced ingest)"
# The serving contract end to end (DESIGN.md §16): a `loom serve` run
# answering four concurrent `loom query` readers over a paced
# 200k-edge ingest must serve every query and refuse none, every
# reader must get OK replies, and the serve run's ingest stdout must
# be byte-identical to a `loom stream` twin once the serving-only
# "queries" snapshot segment is stripped — reads never perturb the
# partitioning stream. The linger flag is a cap: the server exits as
# soon as the last reader disconnects.
SERVE_ARGS=(--k 4 --system ldg --source synthetic --max-edges 200000
  --snapshot-every 20000 --seed 13 --labels 4)
./target/release/loom stream "${SERVE_ARGS[@]}" 2>/dev/null > target/ci-serve-twin.txt
rm -f target/ci-serve-err.txt
./target/release/loom serve "${SERVE_ARGS[@]}" --listen 127.0.0.1:0 \
  --pace-ms 5 --linger-ms 30000 \
  2> target/ci-serve-err.txt > target/ci-serve-out.txt &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 200); do
  SERVE_ADDR=$(sed -n 's/^serve: listening on //p' target/ci-serve-err.txt 2>/dev/null | head -1)
  [ -n "$SERVE_ADDR" ] && break
  sleep 0.05
done
if [ -z "$SERVE_ADDR" ]; then
  echo "serve smoke: server never printed its listen address" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
QUERY_PIDS=()
for i in 1 2 3 4; do
  ./target/release/loom query --connect "$SERVE_ADDR" \
    --request 'STATS;EPOCH;KHOP 3 2 2000;MATCH 0-1 500;PART 7' --count 25 \
    > "target/ci-serve-reader$i.txt" 2>/dev/null &
  QUERY_PIDS+=($!)
done
READERS_OK=0
for pid in "${QUERY_PIDS[@]}"; do
  if wait "$pid"; then READERS_OK=$((READERS_OK + 1)); fi
done
wait "$SERVE_PID"
if [ "$READERS_OK" -ne 4 ]; then
  echo "serve smoke: only $READERS_OK of 4 readers got any reply" >&2
  exit 1
fi
for i in 1 2 3 4; do
  if ! grep -q '^OK ' "target/ci-serve-reader$i.txt"; then
    echo "serve smoke: reader $i got no OK replies" >&2
    exit 1
  fi
done
# Admission: 4 readers x 25 rounds x 5 requests, every one answered
# and none refused.
SERVED=500
if ! grep -q "^serve: $SERVED served, 0 refused," target/ci-serve-err.txt; then
  echo "serve smoke: expected '$SERVED served, 0 refused' (stderr tail: $(tail -n 1 target/ci-serve-err.txt))" >&2
  exit 1
fi
sed 's/  queries .*$//' target/ci-serve-out.txt > target/ci-serve-stripped.txt
if ! diff -u target/ci-serve-twin.txt target/ci-serve-stripped.txt; then
  echo "serve smoke: serve ingest output diverged from the stream twin" >&2
  exit 1
fi
echo "serve smoke: $SERVED queries served across 4 live readers, outputs identical (queries segment aside)"

# The serve-cost gate: what view publication costs ingest when nobody
# is reading. `loom serve` with zero clients at the default
# --publish-every against `loom stream` on the same Loom-partitioned
# synthetic stream (1M edges in full mode, 200k in quick). The gate
# reads the median of five serve/stream ratios, each from a stream run
# and a serve run back to back, so a slow spell on the shared box hits
# both sides of a ratio: the two sides' separate best-of-3 times
# overlapped here. Medians measured on the 2-core box, 6-11 rounds
# each: with the views built on their own thread 1.61-2.43x at 200k and
# 1.65-2.40x at 1M; with that upkeep on the ingest thread 2.98-3.30x
# and 3.06-3.68x. The gate sits between them at 2.8x, so a return of the
# upkeep to the ingest thread fails it, and rebuilding each view from
# scratch (45x) fails it by far. (DESIGN.md §16, "Publication off the
# ingest thread", says where the time goes.)
WORKLOAD=target/ci-smoke-workload.wl
./target/release/loom workload --dataset dblp --out "$WORKLOAD" 2>/dev/null
if [ "$MODE" = full ]; then GATE_EDGES=1000000; else GATE_EDGES=200000; fi
GATE_ARGS=(--k 4 --system loom --source synthetic --max-edges "$GATE_EDGES"
  --window 1024 --workload "$WORKLOAD" --labels 4)
RATIOS=()
for _ in 1 2 3 4 5; do
  STREAM_MS=$(wall_ms ./target/release/loom stream "${GATE_ARGS[@]}")
  SERVE_MS=$(wall_ms ./target/release/loom serve "${GATE_ARGS[@]}")
  RATIOS+=($((100 * SERVE_MS / (STREAM_MS > 0 ? STREAM_MS : 1))))
done
RATIO_X100=$(printf '%s\n' "${RATIOS[@]}" | sort -n | sed -n 3p)
echo "serve-cost gate: zero-client serve / stream over $GATE_EDGES edges," \
  "median $((RATIO_X100 / 100)).$(printf '%02d' $((RATIO_X100 % 100)))x of (x100) ${RATIOS[*]}"
if [ "$RATIO_X100" -gt 280 ]; then
  echo "serve-cost gate: zero-client serve over 2.8x stream: is view upkeep back on the ingest thread?" >&2
  exit 1
fi

stage "long stream smoke (bounded-memory plateaus)"
# Synthetic edges through the full Loom partitioner with a bounded
# window: BOTH stream-length-proportional stores must plateau, not
# grow with edges seen —
#   arena <live>/<total> cells ... gen <g>   (match-arena reclamation)
#   adjacency <live>/<total> entries gen <g> (neighbourhood retention)
# For each we assert (a) at least one generational compaction ran
# (gen >= 1) and (b) the last snapshot's resident total is within 6x
# of the smallest mid-stream snapshot — a plateau, not a ramp. Full
# mode drives 1M edges under the default window-tied horizon (64
# windows); quick mode drives 200k.
if [ "$MODE" = full ]; then
  SMOKE_EDGES=1000000
  SMOKE_EVERY=100000
else
  SMOKE_EDGES=200000
  SMOKE_EVERY=20000
fi
SMOKE_ARGS=(--k 4 --system loom --source synthetic
  --max-edges "$SMOKE_EDGES" --window 1024 --snapshot-every "$SMOKE_EVERY"
  --workload "$WORKLOAD" --labels 4)
./target/release/loom stream "${SMOKE_ARGS[@]}" 2>/dev/null > target/ci-smoke.txt
awk '
    /^snapshot .* arena .* adjacency / {
      # First "gen" on the line belongs to the arena, second to the
      # adjacency (the printer emits "arena ... gen G  adjacency ...
      # gen G").
      ngen = 0
      for (i = 1; i <= NF; i++) {
        if ($i == "arena") split($(i+1), ac, "/")
        if ($i == "adjacency") split($(i+1), jc, "/")
        if ($i == "gen") gens[++ngen] = $(i+1)
      }
      n += 1
      if (n == 1 || ac[2] < min_arena) min_arena = ac[2]
      if (n == 1 || jc[2] < min_adj) min_adj = jc[2]
      last_arena = ac[2]; last_adj = jc[2]
      arena_gen = gens[1]; adj_gen = gens[2]
    }
    END {
      if (n < 5) { print "long smoke: only " n " parsable snapshots" > "/dev/stderr"; exit 1 }
      if (arena_gen + 0 < 1) { print "long smoke: arena never compacted (gen " arena_gen ")" > "/dev/stderr"; exit 1 }
      if (last_arena + 0 > 6 * min_arena) {
        print "long smoke: arena cells grew " min_arena " -> " last_arena " (no plateau)" > "/dev/stderr"; exit 1
      }
      if (adj_gen + 0 < 1) { print "long smoke: adjacency never compacted (gen " adj_gen ")" > "/dev/stderr"; exit 1 }
      if (last_adj + 0 > 6 * min_adj) {
        print "long smoke: adjacency entries grew " min_adj " -> " last_adj " (no plateau)" > "/dev/stderr"; exit 1
      }
      print "long smoke: arena plateau at " last_arena " cells (min " min_arena ", gen " arena_gen ")"
      print "long smoke: adjacency plateau at " last_adj " entries (min " min_adj ", gen " adj_gen ")"
    }' target/ci-smoke.txt

if [ "$MODE" = full ]; then
  stage "recovery smoke (1M edges with --wal)"
  # The 1M-edge smoke once more with a WAL attached: every digit of
  # the snapshot stream must match the WAL-off run once the wal
  # bookkeeping segment is stripped (the journal and checkpoints are
  # pure observation), and journaling + checkpointing stay within the
  # overhead gate below.
  WAL_DIR=target/ci-smoke-wal
  WAL_ARGS=("${SMOKE_ARGS[@]}" --wal "$WAL_DIR" --checkpoint-every 250000)
  rm -rf "$WAL_DIR"
  ./target/release/loom stream "${WAL_ARGS[@]}" 2>/dev/null > target/ci-smoke-wal.txt
  sed 's/  wal .*$//' target/ci-smoke-wal.txt > target/ci-smoke-wal-stripped.txt
  if ! diff -u target/ci-smoke.txt target/ci-smoke-wal-stripped.txt; then
    echo "recovery smoke: WAL-on output diverged from WAL-off" >&2
    exit 1
  fi
  echo "recovery smoke: WAL-on and WAL-off outputs identical (wal segment aside)"
  # The WAL-overhead gate. Measured on the 2-core box, best of three
  # each: 1.47x in this script (461 ms against 313 ms) and 1.34-1.83x
  # over five stand-alone repeats (median 1.56x; the tree before the
  # CRC kernel and one-pass framing read 1.82-2.17x beside them); the
  # gate is the median + 30%. What is left is mostly encoding the four
  # O(vertices-ever-seen) checkpoints field by field — ROADMAP
  # direction 4a, the checkpoint encode — on the way to 1.3x. Each
  # WAL-on run starts from an empty directory: a fresh journal, not a
  # resume.
  wal_fresh() { rm -rf "$WAL_DIR"; ./target/release/loom stream "${WAL_ARGS[@]}"; }
  WAL_OFF_MS=$(best_ms ./target/release/loom stream "${SMOKE_ARGS[@]}")
  WAL_ON_MS=$(best_ms wal_fresh)
  echo "recovery smoke timing: WAL-off ${WAL_OFF_MS}ms, WAL-on ${WAL_ON_MS}ms, $(du -sh "$WAL_DIR" | cut -f1) on disk"
  if [ $((10 * WAL_ON_MS)) -gt $((20 * WAL_OFF_MS)) ]; then
    echo "recovery smoke: WAL overhead over 2.0x (WAL-off ${WAL_OFF_MS}ms, WAL-on ${WAL_ON_MS}ms)" >&2
    exit 1
  fi
  echo "recovery smoke: overhead gate passed"
  # The disk ceiling (ROADMAP 6(d)). Pruning keeps two checkpoints and
  # rotation keeps the journal from the older one on, so however long
  # the stream, the directory holds at most two ckpt-* files and two
  # checkpoint intervals of journal at 16.1 B an edge (16 B of edge,
  # the rest record framing). Finding no journal file fails as well:
  # a ceiling with nothing to measure would pass silently.
  CKPT_FILES=$(find "$WAL_DIR" -maxdepth 1 -type f -name 'ckpt-*' | wc -l)
  JOURNAL_FILES=$(find "$WAL_DIR" -maxdepth 1 -type f -name 'journal*' | wc -l)
  JOURNAL_BYTES=$(find "$WAL_DIR" -maxdepth 1 -type f -name 'journal*' -printf '%s\n' \
    | awk '{ s += $1 } END { print s + 0 }')
  JOURNAL_CEILING=$((2 * 250000 * 161 / 10))
  echo "recovery smoke ceiling: ${CKPT_FILES} checkpoints, ${JOURNAL_FILES} journal files of ${JOURNAL_BYTES} bytes (ceiling ${JOURNAL_CEILING})"
  if [ "$JOURNAL_FILES" -eq 0 ]; then
    echo "recovery smoke: no journal file in $WAL_DIR — the disk ceiling measured nothing" >&2
    exit 1
  fi
  if [ "$CKPT_FILES" -gt 2 ] || [ "$JOURNAL_BYTES" -gt "$JOURNAL_CEILING" ]; then
    echo "recovery smoke: WAL directory over its ceiling (${CKPT_FILES} checkpoints > 2, or ${JOURNAL_BYTES} journal bytes > ${JOURNAL_CEILING})" >&2
    exit 1
  fi
  echo "recovery smoke: disk ceiling holds"
  rm -rf "$WAL_DIR"
fi
rm -f "$WORKLOAD"

if [ "$MODE" = full ]; then
  stage "quality gate (regenerate vs committed BENCH_results.json)"
  # Regenerates the bench summary (small scale, seed 42) and compares
  # it against the committed copy: the run shape (scale, seed, cells,
  # systems) and every weighted_ipt/imbalance digit must match exactly.
  # ms_per_10k_edges is written as Table 2's informational column and
  # never gated: throughput lives in benchmark/ (`benchmark -- compare`)
  # and in the serve-cost and WAL gates above. The before/after table
  # prints to stderr. repro's exit codes separate the failure kinds —
  # report each by name, because the operator action differs:
  #   1 = quality drift (a PR changed partitioning behaviour)
  #   3 = the committed baseline is missing or corrupt (re-generate
  #       and commit BENCH_results.json; nothing drifted)
  GATE_STATUS=0
  ./target/release/repro --scale small --seed 42 \
    --bench-json target/ci-bench-fresh.json \
    --compare-bench BENCH_results.json > /dev/null || GATE_STATUS=$?
  case "$GATE_STATUS" in
    0) ;;
    3) echo "quality gate: committed BENCH_results.json unreadable — refresh the baseline (exit 3)" >&2
       exit 3 ;;
    *) echo "quality gate: drift against the committed baseline (exit $GATE_STATUS)" >&2
       exit "$GATE_STATUS" ;;
  esac
fi
