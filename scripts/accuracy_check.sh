#!/usr/bin/env sh
# Accuracy record check: run the paper's accuracy experiments —
# fig6_speedup_error, fig7_energy_error and table2_pareto_eval — in a
# fresh directory (the first one trains the model, the others load it) and
# compare what they report with the committed record, BENCH_accuracy.txt
# at the repo root. quickstart runs first in the same directory, so the
# harnesses share their model cache with a program that trains on another
# suite, as they do in any working directory both have run in:
#
#  - each figure's per-memory-level "Memory Frequency" and "RMSE" lines;
#  - table2_pareto_eval.csv (coverage, set sizes and extreme-point
#    distances of every test benchmark's predicted Pareto set);
#  - the SHA-256 of every model the runs saved under .repro_model_cache/
#    (quickstart's default-suite model and the harnesses' seeded-suite
#    model, 4,240 training samples each), one per line, sorted. File names
#    are left out: a name encodes the cache key, not the weights. These
#    lines pin every bit of both models, not just the printed precision of
#    the figures above.
#
# Any difference fails the check and prints a unified diff. A change that
# moves prediction bits on purpose shows its accuracy deltas here; one that
# should not move them (a refactor, an optimization) must leave the record
# byte-identical. Usage:
#
#   scripts/accuracy_check.sh BUILD_DIR            compare with the record
#   scripts/accuracy_check.sh BUILD_DIR --write    rewrite the record
set -eu

build_dir=${1:?usage: accuracy_check.sh BUILD_DIR [--write]}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)
mode=${2:-check}
script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
record="$script_dir/../BENCH_accuracy.txt"

case $mode in
  check|--write) ;;
  *) echo "usage: accuracy_check.sh BUILD_DIR [--write]" >&2; exit 2 ;;
esac

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT INT TERM
cd "$work_dir"

for bench in quickstart fig6_speedup_error fig7_energy_error table2_pareto_eval; do
  echo "accuracy_check: running $bench"
  "$build_dir/$bench" >"$bench.out" 2>"$bench.err" || {
    echo "accuracy_check: $bench failed" >&2
    cat "$bench.err" >&2
    exit 1
  }
done

{
  for fig in fig6_speedup_error fig7_energy_error; do
    echo "== $fig"
    grep -E '^(Memory Frequency|RMSE)' "$fig.out"
  done
  echo "== table2_pareto_eval.csv"
  cat bench_out/table2_pareto_eval.csv
  echo "== model digests"
  for model in .repro_model_cache/*.model; do
    sha256sum "$model" | cut -d' ' -f1
  done | sort
} >accuracy.txt

if [ "$mode" = "--write" ]; then
  cp accuracy.txt "$record"
  echo "accuracy_check: wrote $record"
  exit 0
fi

[ -f "$record" ] || {
  echo "accuracy_check: record $record not found (run with --write)" >&2
  exit 1
}
if diff -u "$record" accuracy.txt; then
  echo "accuracy_check: OK (matches $(basename -- "$record"))"
else
  echo "accuracy_check: FAILED — accuracy figures differ from the record" >&2
  exit 1
fi
