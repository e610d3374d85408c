#!/usr/bin/env sh
# Multi-process integration smoke of the serving fleet: real repro_serve
# worker processes under repro_fleet (supervisor + balancer), checked for
# the three fleet contracts the in-process tests cannot prove:
#
#   1. A cold fleet trains once: 4 workers started together on an empty
#      cache directory queue on the model's lock file, so one trains and
#      the others load its copy — the fleet-merged repro_cache_misses
#      reads 1.
#   2. Bit-identity across worker counts: the balancer endpoint answers a
#      predict_source request with byte-identical --dump output at 1, 2,
#      and 4 workers (cold and warm), and identical to a direct repro_serve
#      with no fleet in between.
#   3. Worker loss is invisible: kill -9 one worker in the middle of a
#      pipelined 128-request burst; every request must still be answered
#      (the balancer re-dispatches, the supervisor respawns).
#
# Usage:
#
#   scripts/fleet_smoke.sh BUILD_DIR
#
# Exits non-zero on any failure; wired into CI as the fleet-smoke job.
set -eu

build_dir=${1:?usage: fleet_smoke.sh BUILD_DIR}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)

work_dir=$(mktemp -d)
cache_dir="$work_dir/model-cache"
train_flags="--suite-stride 8 --num-configs 8"

cleanup() {
  for pid in ${pids:-}; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$work_dir"
}
trap cleanup EXIT INT TERM
pids=""

wait_ready() { # log_file
  i=0
  while [ "$i" -lt 240 ]; do
    if grep -q '^READY ' "$1" 2>/dev/null; then
      return 0
    fi
    sleep 0.5
    i=$((i + 1))
  done
  echo "fleet_smoke: no READY in $1" >&2
  cat "$1" >&2
  return 1
}

# On a failure, send one traced probe request through the same endpoint and
# print its trace id + per-stage timing table — where the (failing) fleet
# spends its time, attached to the failure report.
trace_probe() { # unix_sock
  echo "fleet_smoke: per-stage trace of a probe request through $1:" >&2
  "$build_dir/repro_serve_client" --unix "$1" --trace --dump \
    >/dev/null 2>"$work_dir/trace-probe.txt" || true
  cat "$work_dir/trace-probe.txt" >&2
}

# --- reference: a direct repro_serve, no fleet in between --------------------
direct_sock="$work_dir/direct.sock"
direct_log="$work_dir/direct.log"
# shellcheck disable=SC2086
"$build_dir/repro_serve" --unix "$direct_sock" $train_flags \
  --cache-dir "$cache_dir" >"$direct_log" 2>&1 &
direct_pid=$!
pids="$pids $direct_pid"
wait_ready "$direct_log"
"$build_dir/repro_serve_client" --unix "$direct_sock" --dump >"$work_dir/direct.txt"
kill -TERM "$direct_pid"
wait "$direct_pid" || {
  echo "fleet_smoke: direct server exited uncleanly" >&2
  cat "$direct_log" >&2
  exit 1
}
pids=$(echo "$pids" | sed "s/ $direct_pid//")

stop_fleet() { # pid log_file label
  kill -TERM "$1"
  fleet_status=0
  wait "$1" || fleet_status=$?
  if [ "$fleet_status" -ne 0 ]; then
    echo "fleet_smoke: repro_fleet ($3) exited with $fleet_status" >&2
    cat "$2" >&2
    exit 1
  fi
  grep -q 'shutting down' "$2" || {
    echo "fleet_smoke: no graceful shutdown message" >&2
    cat "$2" >&2
    exit 1
  }
  pids=$(echo "$pids" | sed "s/ $1//")
}

# --- cold start: 4 workers on an empty cache train once ----------------------
cold_dir="$work_dir/fleet-cold"
mkdir -p "$cold_dir"
cold_sock="$work_dir/fleet-cold.sock"
cold_log="$work_dir/fleet-cold.log"
# shellcheck disable=SC2086
"$build_dir/repro_fleet" --unix "$cold_sock" --workers 4 \
  --dir "$cold_dir" --cache-dir "$work_dir/cold-cache" $train_flags \
  --serve-binary "$build_dir/repro_serve" >"$cold_log" 2>&1 &
cold_pid=$!
pids="$pids $cold_pid"
wait_ready "$cold_log"
"$build_dir/repro_serve_client" --unix "$cold_sock" --metrics >"$work_dir/cold-metrics.txt"
if ! grep -qx '# merged across 4 worker(s)' "$work_dir/cold-metrics.txt" ||
   ! grep -qx 'repro_cache_misses 1' "$work_dir/cold-metrics.txt"; then
  echo "fleet_smoke: a cold 4-worker fleet did not train exactly once:" >&2
  grep -e '^# merged' -e '^repro_cache_' "$work_dir/cold-metrics.txt" >&2 || true
  cat "$cold_log" >&2
  exit 1
fi
"$build_dir/repro_serve_client" --unix "$cold_sock" --dump >"$work_dir/fleet-cold.txt"
if ! cmp -s "$work_dir/direct.txt" "$work_dir/fleet-cold.txt"; then
  echo "fleet_smoke: cold 4-worker fleet is NOT bit-identical to direct serving" >&2
  diff "$work_dir/direct.txt" "$work_dir/fleet-cold.txt" >&2 || true
  trace_probe "$cold_sock"
  exit 1
fi
echo "fleet_smoke: cold 4-worker fleet trained once, bit-identical to direct serving"
stop_fleet "$cold_pid" "$cold_log" "cold, 4 workers"

# --- bit-identity at 1, 2, and 4 workers -------------------------------------
for workers in 1 2 4; do
  fleet_dir="$work_dir/fleet-$workers"
  mkdir -p "$fleet_dir"
  fleet_sock="$work_dir/fleet-$workers.sock"
  fleet_log="$work_dir/fleet-$workers.log"
  # shellcheck disable=SC2086
  "$build_dir/repro_fleet" --unix "$fleet_sock" --workers "$workers" \
    --dir "$fleet_dir" --cache-dir "$cache_dir" $train_flags \
    --serve-binary "$build_dir/repro_serve" >"$fleet_log" 2>&1 &
  fleet_pid=$!
  pids="$pids $fleet_pid"
  wait_ready "$fleet_log"

  "$build_dir/repro_serve_client" --unix "$fleet_sock" --dump \
    >"$work_dir/fleet-$workers.txt"
  if ! cmp -s "$work_dir/direct.txt" "$work_dir/fleet-$workers.txt"; then
    echo "fleet_smoke: fleet with $workers worker(s) is NOT bit-identical to direct serving" >&2
    diff "$work_dir/direct.txt" "$work_dir/fleet-$workers.txt" >&2 || true
    trace_probe "$fleet_sock"
    exit 1
  fi
  echo "fleet_smoke: $workers worker(s) bit-identical to direct serving"

  if [ "$workers" -eq 2 ]; then
    # --- kill one worker mid-burst; zero requests may be lost ----------------
    "$build_dir/repro_serve_client" --unix "$fleet_sock" --pipeline 128 \
      >"$work_dir/burst.out" 2>&1 &
    burst_pid=$!
    sleep 0.2
    victim=$(sed -n 's/^WORKER 0 pid \([0-9]*\) .*/\1/p' "$fleet_log" | head -n 1)
    if [ -n "$victim" ] && kill -0 "$victim" 2>/dev/null; then
      kill -9 "$victim"
      echo "fleet_smoke: killed worker 0 (pid $victim) mid-burst"
    else
      echo "fleet_smoke: worker 0 pid not found/already gone; burst still must complete" >&2
    fi
    burst_status=0
    wait "$burst_pid" || burst_status=$?
    cat "$work_dir/burst.out"
    if [ "$burst_status" -ne 0 ] || ! grep -q '128/128 responses OK' "$work_dir/burst.out"; then
      echo "fleet_smoke: pipelined burst lost requests across the worker kill" >&2
      cat "$fleet_log" >&2
      trace_probe "$fleet_sock"
      exit 1
    fi
    # A fresh request after the kill: the respawned (or surviving) fleet
    # must still answer bit-identically.
    "$build_dir/repro_serve_client" --unix "$fleet_sock" --dump \
      >"$work_dir/after-kill.txt"
    cmp -s "$work_dir/direct.txt" "$work_dir/after-kill.txt" || {
      echo "fleet_smoke: post-kill reply differs from the reference" >&2
      trace_probe "$fleet_sock"
      exit 1
    }
  fi

  stop_fleet "$fleet_pid" "$fleet_log" "$workers workers"
done

echo "fleet_smoke: OK"
