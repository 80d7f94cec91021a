#!/usr/bin/env bash
# Shared benchmark loop used by scripts/run_all.sh (paper scale) and the
# CI workflow (smoke scale) — one place encodes which binaries take
# which flags, so the two callers cannot drift apart again.
#
# Besides streaming every bench's normal output, the loop assembles a
# perf trajectory file (default BUILD_DIR/BENCH_PERF.json; the committed
# copy at the repo root is regenerated with --perf-json=BENCH_PERF.json):
#   * host                 — where it ran: nproc, CPU model, compiler and
#                            version, build type (from BUILD_DIR's CMake
#                            cache), quick flag, micro_ops min time and
#                            repetitions
#   * micro_ns_per_op      — google-benchmark real_time per micro_ops
#                            bench, the median of MICRO_REPETITIONS runs
#                            (one pass would record host drift as a
#                            speedup)
#   * end_to_end_seconds   — host wall-clock per figure/ablation bench,
#                            collected from the ##WALLCLOCK lines emitted
#                            by bench_util.h's WallClock
#   * cache/scale/batch/load/wire — the ##CACHE/##SCALE/... summary lines
# Timed entries carry {baseline, current, speedup}: the baseline is the
# committed file's current value when that file's host block equals this
# run's (else baseline and speedup are null, so a speedup never compares
# two machines), and entries of benchmarks that no longer exist are
# dropped.
# Host wall-clock is NOT a simulated metric; see docs/COST_MODEL.md
# ("Host wall-clock vs simulated cost").
#
# Usage: scripts/run_benches.sh BUILD_DIR [--quick] [--min-time=T] [--perf-json=FILE]
#   BUILD_DIR        build tree containing bench/ binaries
#   --quick          propagate the harness's 1/10-scale flag to the
#                    scenario benches (everything except micro_ops)
#   --min-time=T     cap google-benchmark runtime for micro_ops, e.g.
#                    --min-time=0.01s (micro_ops rejects foreign flags, so
#                    it only ever receives --benchmark_min_time)
#   --perf-json=F    where to write the perf trajectory (default
#                    BUILD_DIR/BENCH_PERF.json)
set -euo pipefail

BUILD_DIR="${1:?usage: run_benches.sh BUILD_DIR [--quick] [--min-time=T] [--perf-json=FILE]}"
shift

QUICK=""
MIN_TIME=""
PERF_JSON=""
COMMITTED="$(cd "$(dirname "$0")/.." && pwd)/BENCH_PERF.json"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    --min-time=*)
      # Pass a plain double: google-benchmark <1.8 rejects the "0.01s"
      # suffix form and >=1.8 still accepts suffixless seconds.
      T="${arg#--min-time=}"
      MIN_TIME="--benchmark_min_time=${T%s}"
      ;;
    --perf-json=*) PERF_JSON="${arg#--perf-json=}" ;;
    *) echo "run_benches.sh: unknown flag $arg" >&2; exit 2 ;;
  esac
done
PERF_JSON="${PERF_JSON:-$BUILD_DIR/BENCH_PERF.json}"
MICRO_REPETITIONS=5

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT
MICRO_JSON="$TMP_DIR/micro.json"
WALL_LOG="$TMP_DIR/wallclock.txt"
CACHE_LOG="$TMP_DIR/cache.txt"
SCALE_LOG="$TMP_DIR/scale.txt"
BATCH_LOG="$TMP_DIR/batch.txt"
LOAD_LOG="$TMP_DIR/load.txt"
WIRE_LOG="$TMP_DIR/wire.txt"
: > "$WALL_LOG"
: > "$CACHE_LOG"
: > "$SCALE_LOG"
: > "$BATCH_LOG"
: > "$LOAD_LOG"
: > "$WIRE_LOG"

for b in "$BUILD_DIR"/bench/*; do
  [ -x "$b" ] || continue
  [ -f "$b" ] || continue
  echo "===== $b ${QUICK:-} ${MIN_TIME:-}"
  case "$b" in
    *micro_ops)
      "$b" ${MIN_TIME:+"$MIN_TIME"} \
        --benchmark_repetitions="$MICRO_REPETITIONS" \
        --benchmark_report_aggregates_only=true \
        --benchmark_out="$MICRO_JSON" --benchmark_out_format=json
      ;;
    *)
      "$b" ${QUICK:+"$QUICK"} | tee "$TMP_DIR/out.txt"
      grep '^##WALLCLOCK ' "$TMP_DIR/out.txt" >> "$WALL_LOG" || true
      grep '^##CACHE ' "$TMP_DIR/out.txt" >> "$CACHE_LOG" || true
      grep '^##SCALE ' "$TMP_DIR/out.txt" >> "$SCALE_LOG" || true
      grep '^##BATCH ' "$TMP_DIR/out.txt" >> "$BATCH_LOG" || true
      grep '^##LOAD ' "$TMP_DIR/out.txt" >> "$LOAD_LOG" || true
      grep '^##WIRE ' "$TMP_DIR/out.txt" >> "$WIRE_LOG" || true
      ;;
  esac
done

# The host block, read from the machine and the build tree.  The
# project's CMakeLists defaults an empty build type to RelWithDebInfo.
CACHE_FILE="$BUILD_DIR/CMakeCache.txt"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$CACHE_FILE" 2>/dev/null || true)"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
COMPILER_FILE="$(ls "$BUILD_DIR"/CMakeFiles/*/CMakeCXXCompiler.cmake 2>/dev/null | head -n 1 || true)"
COMPILER="unknown"
if [ -n "$COMPILER_FILE" ]; then
  COMPILER="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' "$COMPILER_FILE") $(sed -n 's/^set(CMAKE_CXX_COMPILER_VERSION "\(.*\)")$/\1/p' "$COMPILER_FILE")"
fi
NPROC="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
CPU="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1 || true)"
PREV="$TMP_DIR/baseline.json"
if [ -f "$COMMITTED" ] && jq -e . "$COMMITTED" > /dev/null 2>&1; then
  cp "$COMMITTED" "$PREV"
else
  echo '{}' > "$PREV"
fi

# Assemble the perf trajectory.  jq is present on the dev image and the
# CI runners; degrade to a notice (not a failure) elsewhere.
[ -f "$MICRO_JSON" ] || echo '{}' > "$MICRO_JSON"
if command -v jq > /dev/null 2>&1; then
  jq -n \
    --slurpfile micro_doc "$MICRO_JSON" \
    --slurpfile prev "$PREV" \
    --rawfile wall "$WALL_LOG" \
    --rawfile cache "$CACHE_LOG" \
    --rawfile scale "$SCALE_LOG" \
    --rawfile batch "$BATCH_LOG" \
    --rawfile load "$LOAD_LOG" \
    --rawfile wire "$WIRE_LOG" \
    --arg quick "${QUICK:-}" \
    --arg min_time "${MIN_TIME#--benchmark_min_time=}" \
    --arg micro_reps "$MICRO_REPETITIONS" \
    --arg nproc "$NPROC" \
    --arg cpu "$CPU" \
    --arg compiler "$COMPILER" \
    --arg build_type "$BUILD_TYPE" \
    '
     # "##TAG key value" lines -> {key: value}
     def tagged: split("\n") | map(select(length > 0) | split(" ")
                                   | {(.[1]): (.[2] | tonumber)})
                 | add // {};
     {
       nproc: ($nproc | tonumber),
       cpu: $cpu,
       compiler: $compiler,
       build_type: $build_type,
       quick: ($quick != ""),
       micro_min_time_s: (if $min_time == "" then null
                          else ($min_time | tonumber) end),
       micro_repetitions: ($micro_reps | tonumber)
     } as $host
     # Baselines come from the committed file only if it ran on this host.
     | def prevValue($section; $name):
       if $prev[0].host == $host then $prev[0][$section][$name].current
       else null end;
     def trajectory($section):
       to_entries
       | map(prevValue($section; .key) as $b
             | {(.key): {baseline: $b, current: .value,
                         speedup: (if $b == null or .value == 0 then null
                                   else (($b / .value) * 100 | round) / 100
                                   end)}})
       | add // {};
     {
       host: $host,
       note: "Generated by scripts/run_benches.sh. Host wall-clock only: micro_ns_per_op is the median google-benchmark real time per op over host.micro_repetitions runs, end_to_end_seconds is host seconds per bench binary; baseline is the previous file'"'"'s current value when that file'"'"'s host block equals this one (else null), and entries of benchmarks that no longer exist are dropped. cache/scale/batch/load/wire are the ##TAG summary lines of the same run (simulated counts are bit-identical across hosts). See docs/COST_MODEL.md.",
       micro_ns_per_op:
         (($micro_doc[0].benchmarks // [])
          | map(select(.aggregate_name == "median")
                | {(.run_name): ((.real_time * 10 | round) / 10)})
          | add // {}
          | trajectory("micro_ns_per_op")),
       end_to_end_seconds: ($wall | tagged | trajectory("end_to_end_seconds")),
       cache: ($cache | tagged),
       scale: ($scale | tagged),
       batch: ($batch | tagged),
       load: ($load | tagged),
       wire: ($wire | tagged)
     }' > "$PERF_JSON.tmp"
  mv "$PERF_JSON.tmp" "$PERF_JSON"
  echo "perf trajectory written to $PERF_JSON"
else
  echo "run_benches.sh: jq not found; skipping $PERF_JSON" >&2
fi
