#!/usr/bin/env sh
# Performance regression gate: re-run `perf_stack --smoke` and compare the
# named cases' parallel_ms against the committed smoke baseline
# (BENCH_perf_stack_smoke.json at the repo root — a `perf_stack --smoke`
# run, so both sides measure the same problem sizes under the same
# conditions), row by row at equal (name, size). A case more than 25%
# slower than its baseline fails the gate; bit_identical failures fail it
# too (perf_stack itself exits non-zero on those).
#
# Usage:
#
#   scripts/perf_gate.sh BUILD_DIR [BASELINE_JSON]
#
# Most smoke timings are sub-millisecond, so the 1.25x ratio is cushioned
# by a 0.25 ms absolute slack — the gate is meant to catch real regressions
# (an accidental O(n^2), a dropped parallel path), not CI scheduling
# jitter. Cases of several milliseconds (model_grid_predict,
# stream_featurize) are decided by the ratio.
set -eu

build_dir=${1:?usage: perf_gate.sh BUILD_DIR [BASELINE_JSON]}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)
script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
baseline=${2:-"$script_dir/../BENCH_perf_stack_smoke.json"}

[ -f "$baseline" ] || {
  echo "perf_gate: baseline $baseline not found" >&2
  exit 1
}

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT INT TERM

echo "perf_gate: running perf_stack --alloc-report"
"$build_dir/perf_stack" --alloc-report || {
  echo "perf_gate: serve hot path allocates at steady state" >&2
  exit 1
}

# Three smoke runs, each row keeping its fastest time: on a shared VM one
# process can spend its whole life on a slow vCPU (measured 1.6-1.8x slower
# on one of four, and which one changes over minutes), which a single run
# cannot tell from a regression.
for run in 1 2 3; do
  echo "perf_gate: running perf_stack --smoke ($run of 3)"
  "$build_dir/perf_stack" --smoke --out "$work_dir/smoke$run.json" || {
    echo "perf_gate: perf_stack failed (bit-identity violation or crash)" >&2
    exit 1
  }
done
current="$work_dir/smoke1.json"

# One case object per line in the JSON — extract "<name> <size> <parallel_ms>".
extract() { # file...
  sed -n 's/.*"name": "\([a-z_]*\)", "size": \([0-9]*\),.*"parallel_ms": \([0-9.]*\).*/\1 \2 \3/p' "$@"
}
extract "$baseline" >"$work_dir/base.txt"
extract "$work_dir/smoke1.json" "$work_dir/smoke2.json" "$work_dir/smoke3.json" | awk '
  { k = $1 " " $2
    if (!(k in best)) { order[++n] = k; best[k] = $3 } else if ($3 < best[k]) best[k] = $3 }
  END { for (i = 1; i <= n; i++) print order[i], best[order[i]] }' >"$work_dir/cur.txt"

# The gated cases: the stack's headline hot paths. Sub-0.1 ms cases are
# covered by the absolute slack more than the ratio.
cases="svr_train svr_batch_predict model_grid_predict pareto_front predict_plus_pareto matrix_multiply simd_kernel_matrix stream_featurize protocol_request_codec protocol_response_codec protocol_parse_arena serving_hotpath"

# Each smoke row is compared with the baseline row of the same name AND
# size. A gated case with no smoke row, or a smoke row with no baseline row
# at its size, fails the gate rather than comparing unlike problem sizes.
fail=0
awk -v cases="$cases" '
  BEGIN { n = split(cases, want, " "); for (i = 1; i <= n; i++) gated[want[i]] = 1 }
  NR == FNR { base[$1 " " $2] = $3; next }
  ($1 in gated) {
    seen[$1] = 1
    if (!(($1 " " $2) in base)) {
      printf "perf_gate: %-24s n=%-7s no baseline row at this size\n", $1, $2
      bad = 1
      next
    }
    b = base[$1 " " $2]
    verdict = ($3 > b * 1.25 + 0.25) ? "REGRESSED" : "ok"
    printf "perf_gate: %-24s n=%-7s baseline %8.3f ms   current %8.3f ms   %s\n", $1, $2, b, $3, verdict
    if (verdict != "ok") bad = 1
  }
  END {
    for (i = 1; i <= n; i++) {
      if (!(want[i] in seen)) { printf "perf_gate: case %s missing from the smoke run\n", want[i]; bad = 1 }
    }
    exit bad
  }' "$work_dir/base.txt" "$work_dir/cur.txt" || fail=1

# The observability overhead contract: the serving row with mode
# "obs-overhead" reports the instrumented-vs-disabled CPU cost per request
# in percent (median over ABBA pairs of blocks, so machine noise is already
# filtered; noise can make it negative). Gated against an absolute bound,
# not the baseline — the contract is "metrics cost <= 3% of serving CPU",
# full stop.
obs_pct=$(sed -n 's/.*"mode": "obs-overhead".*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' "$current")
if [ -z "$obs_pct" ]; then
  echo "perf_gate: obs-overhead row missing from perf_stack output" >&2
  fail=1
else
  obs_verdict=$(awk -v p="$obs_pct" 'BEGIN { print (p > 3.0) ? "REGRESSED" : "ok" }')
  printf 'perf_gate: %-20s overhead %6.2f %%   (bound 3.00 %%)   %s\n' \
    "obs-overhead" "$obs_pct" "$obs_verdict"
  [ "$obs_verdict" = "ok" ] || fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "perf_gate: FAILED — a gated case regressed more than 25% (+0.25 ms slack) or the obs-overhead bound was exceeded" >&2
  exit 1
fi
echo "perf_gate: OK"
