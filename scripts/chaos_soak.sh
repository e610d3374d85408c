#!/usr/bin/env sh
# Chaos soak of the serving fleet: real repro_serve workers under
# repro_fleet, with every failure mode the robustness layer claims to
# absorb switched on at once —
#
#   * supervisor chaos mode (--chaos-kill-ms): SIGKILLs a random live
#     worker on a timer; the monitor respawns it,
#   * seeded socket-fault injection in the workers (--worker-faults /
#     REPRO_FAULTS): short reads/writes, EINTR storms, injected latency,
#     and occasional connection drops on every worker socket operation,
#   * overload: a pipelined burst arrives as fast as one connection can
#     carry it, far above a few workers' service rate, with admission
#     shedding armed (--max-queue-delay-us).
#
# The contract under all of that, checked here end to end:
#
#   1. Every request in the burst is answered — a bit-identical prediction
#      (same fnv1a as a direct no-fleet repro_serve) or a retryable error
#      (worker draining, overload shed, expired deadline). Never a hang,
#      never a non-retryable error, never a lost id.
#   2. The burst terminates inside a wall-clock bound (no wedged sockets).
#   3. The model cache survives the kills: zero torn/unparseable model
#      files and zero leftover *.tmp.* files (repro_cache_check).
#   4. Running out of threads is not fatal: under a 1.5 GB address-space
#      limit, 64 idle connections to repro_serve and to a 1-worker
#      repro_fleet exhaust thread creation; both must close the
#      connections they cannot serve, stay up, and answer bit-identically
#      once the flood is gone.
#
# Usage:
#
#   scripts/chaos_soak.sh BUILD_DIR [--quick]
#
# --quick (the CI leg) shrinks the burst and kill count to keep the job in
# tens of seconds; the full soak is the pre-merge check.
set -eu

build_dir=${1:?usage: chaos_soak.sh BUILD_DIR [--quick]}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)
quick=0
[ "${2:-}" = "--quick" ] && quick=1

if [ "$quick" -eq 1 ]; then
  burst=128
  kill_ms=400
  burst_timeout=90
else
  burst=256
  kill_ms=250
  burst_timeout=180
fi
workers=3
# Benign faults dominate (they must be invisible); drops are rare but
# present so backend connections actually die mid-request now and then.
faults='7:short_rw=0.05,eintr=0.05,delay_ms=2,delay_p=0.05,drop=0.002'
train_flags="--suite-stride 8 --num-configs 8"

work_dir=$(mktemp -d)
cache_dir="$work_dir/model-cache"

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
  echo "chaos_soak: no READY in $1" >&2
  cat "$1" >&2
  return 1
}

# On a burst failure, send one traced probe request through the fleet and
# print its trace id + per-stage timing table — which hop the struggling
# fleet spends its time in, attached to the failure report.
trace_probe() { # unix_sock
  echo "chaos_soak: per-stage trace of a probe request through $1:" >&2
  timeout 30 "$build_dir/repro_serve_client" --unix "$1" --trace --dump \
    >/dev/null 2>"$work_dir/trace-probe.txt" || true
  cat "$work_dir/trace-probe.txt" >&2
}

# --- reference hash: a direct repro_serve, no fleet, no faults ----------------
direct_sock="$work_dir/direct.sock"
direct_log="$work_dir/direct.log"
# shellcheck disable=SC2086
"$build_dir/repro_serve" --unix "$direct_sock" $train_flags \
  --cache-dir "$cache_dir" >"$direct_log" 2>&1 &
direct_pid=$!
pids="$pids $direct_pid"
wait_ready "$direct_log"
"$build_dir/repro_serve_client" --unix "$direct_sock" --pipeline 1 --dump \
  >"$work_dir/reference.out"
kill -TERM "$direct_pid"
wait "$direct_pid" || {
  echo "chaos_soak: direct server exited uncleanly" >&2
  cat "$direct_log" >&2
  exit 1
}
pids=$(echo "$pids" | sed "s/ $direct_pid//")

ref_hash=$(awk '$1 == "req" && $3 == "ok" { print $4; exit }' "$work_dir/reference.out")
if [ -z "$ref_hash" ]; then
  echo "chaos_soak: could not extract the reference hash" >&2
  cat "$work_dir/reference.out" >&2
  exit 1
fi
echo "chaos_soak: reference hash $ref_hash"

# --- the fleet, with every chaos knob on --------------------------------------
fleet_dir="$work_dir/fleet"
mkdir -p "$fleet_dir"
fleet_sock="$work_dir/fleet.sock"
fleet_log="$work_dir/fleet.log"
# shellcheck disable=SC2086
"$build_dir/repro_fleet" --unix "$fleet_sock" --workers "$workers" \
  --dir "$fleet_dir" --cache-dir "$cache_dir" $train_flags \
  --max-queue-delay-us 50000 \
  --chaos-kill-ms "$kill_ms" \
  --worker-faults "$faults" \
  --serve-binary "$build_dir/repro_serve" >"$fleet_log" 2>&1 &
fleet_pid=$!
pids="$pids $fleet_pid"
wait_ready "$fleet_log"

# Resident-set sample of the fleet front process (the balancer, whose
# per-connection splitter/arena/pool path the burst hammers). Compared
# against a second sample after the burst: pooled buffers and arenas mean
# steady state must not grow the heap with request count.
rss_kb() { # pid
  awk '/^VmRSS:/ { print $2; exit }' "/proc/$1/status" 2>/dev/null || echo 0
}
rss_before=$(rss_kb "$fleet_pid")

# --- the burst: pipelined, overloading, deadline-stamped ----------------------
burst_status=0
timeout "$burst_timeout" \
  "$build_dir/repro_serve_client" --unix "$fleet_sock" \
  --pipeline "$burst" --dump --deadline-ms 30000 \
  >"$work_dir/burst.out" 2>&1 || burst_status=$?
tail -n 3 "$work_dir/burst.out"
if [ "$burst_status" -eq 124 ]; then
  echo "chaos_soak: burst HUNG past ${burst_timeout}s" >&2
  cat "$fleet_log" >&2
  trace_probe "$fleet_sock"
  exit 1
fi
if [ "$burst_status" -ne 0 ]; then
  echo "chaos_soak: burst saw non-retryable failures (exit $burst_status)" >&2
  grep ' error ' "$work_dir/burst.out" >&2 || true
  cat "$fleet_log" >&2
  trace_probe "$fleet_sock"
  exit 1
fi

# Every id answered exactly once.
answered=$(grep -c '^req ' "$work_dir/burst.out" || true)
if [ "$answered" -ne "$burst" ]; then
  echo "chaos_soak: $answered of $burst requests answered — ids were lost" >&2
  trace_probe "$fleet_sock"
  exit 1
fi

# Every ok reply bit-identical to the no-fleet reference.
bad_hashes=$(awk -v ref="$ref_hash" \
  '$1 == "req" && $3 == "ok" && $4 != ref { n++ } END { print n + 0 }' \
  "$work_dir/burst.out")
ok_count=$(grep -c ' ok ' "$work_dir/burst.out" || true)
retry_count=$(grep -c ' retryable ' "$work_dir/burst.out" || true)
if [ "$bad_hashes" -ne 0 ]; then
  echo "chaos_soak: $bad_hashes replies differ from the reference hash $ref_hash" >&2
  trace_probe "$fleet_sock"
  exit 1
fi
if [ "$ok_count" -eq 0 ]; then
  echo "chaos_soak: every request was refused — the fleet served nothing" >&2
  cat "$fleet_log" >&2
  trace_probe "$fleet_sock"
  exit 1
fi
echo "chaos_soak: $ok_count ok (all bit-identical), $retry_count retryable, 0 lost"

# Steady RSS across the burst: the front process must not grow its resident
# set with request count (pooled splitter buffers, per-connection arenas).
# The bound is deliberately loose — 64 MB covers late-faulting pages and
# allocator slack, while a per-request leak on even this burst would blow
# far past it.
rss_after=$(rss_kb "$fleet_pid")
rss_growth_kb=$((rss_after - rss_before))
echo "chaos_soak: fleet front VmRSS ${rss_before} kB -> ${rss_after} kB (+${rss_growth_kb} kB) across the burst"
if [ "$rss_before" -gt 0 ] && [ "$rss_growth_kb" -gt 65536 ]; then
  echo "chaos_soak: fleet front RSS grew ${rss_growth_kb} kB across the burst — per-request memory is leaking past the pools" >&2
  exit 1
fi

# Chaos actually happened: at least one worker was SIGKILLed during the run.
sleep 1
if ! grep -q 'chaos' "$fleet_log"; then
  echo "chaos_soak: no chaos kill was logged — the soak did not soak" >&2
  cat "$fleet_log" >&2
  exit 1
fi

# --- graceful teardown, then the crash-safety audit ---------------------------
kill -TERM "$fleet_pid"
fleet_status=0
wait "$fleet_pid" || fleet_status=$?
if [ "$fleet_status" -ne 0 ]; then
  echo "chaos_soak: repro_fleet exited with $fleet_status" >&2
  cat "$fleet_log" >&2
  exit 1
fi
pids=$(echo "$pids" | sed "s/ $fleet_pid//")

# Every model file parses, checksum intact; no torn tmp files left behind.
"$build_dir/repro_cache_check" "$cache_dir" >"$work_dir/cache.out" || {
  echo "chaos_soak: cache check found corrupt model files" >&2
  cat "$work_dir/cache.out" >&2
  exit 1
}
cat "$work_dir/cache.out"
if grep -q '^tmp ' "$work_dir/cache.out"; then
  echo "chaos_soak: leftover tmp files after the soak" >&2
  exit 1
fi

# --- idle-connection flood under an address-space limit ----------------------
# Every connection costs a reader and a writer thread, each reserving stack
# and malloc-arena address space; under `ulimit -v 1500000` thread creation
# starts failing after a few dozen connections. Both binaries must refuse
# what they cannot serve (close + log) instead of aborting.
hold_idle() { # unix_sock count seconds
  python3 - "$@" <<'PY'
import socket, sys, time
path, count, hold = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
conns = []
for _ in range(count):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    conns.append(s)
time.sleep(hold)
PY
}

alive() { # pid
  [ -r "/proc/$1/status" ] && ! grep -q '^State:[[:space:]]*Z' "/proc/$1/status"
}

for target in serve fleet; do
  sock="$work_dir/idle-$target.sock"
  log="$work_dir/idle-$target.log"
  if [ "$target" = serve ]; then
    # shellcheck disable=SC2086
    (ulimit -v 1500000 && exec "$build_dir/repro_serve" --unix "$sock" \
      $train_flags --cache-dir "$cache_dir") >"$log" 2>&1 &
  else
    mkdir -p "$work_dir/idle-fleet"
    # shellcheck disable=SC2086
    (ulimit -v 1500000 && exec "$build_dir/repro_fleet" --unix "$sock" \
      --workers 1 --dir "$work_dir/idle-fleet" --cache-dir "$cache_dir" \
      $train_flags --serve-binary "$build_dir/repro_serve") >"$log" 2>&1 &
  fi
  idle_pid=$!
  pids="$pids $idle_pid"
  wait_ready "$log"
  hold_idle "$sock" 64 2 || {
    echo "chaos_soak: could not open 64 idle connections to repro_$target" >&2
    cat "$log" >&2
    exit 1
  }
  if ! alive "$idle_pid"; then
    echo "chaos_soak: repro_$target died under 64 idle connections" >&2
    cat "$log" >&2
    exit 1
  fi
  timeout 30 "$build_dir/repro_serve_client" --unix "$sock" --pipeline 1 --dump \
    >"$work_dir/idle-$target.out" 2>&1 || true
  if ! cmp -s "$work_dir/reference.out" "$work_dir/idle-$target.out"; then
    echo "chaos_soak: repro_$target answered differently after the idle flood" >&2
    cat "$work_dir/idle-$target.out" "$log" >&2
    exit 1
  fi
  kill -TERM "$idle_pid"
  idle_status=0
  wait "$idle_pid" || idle_status=$?
  if [ "$idle_status" -ne 0 ]; then
    echo "chaos_soak: repro_$target exited with $idle_status after the idle flood" >&2
    cat "$log" >&2
    exit 1
  fi
  pids=$(echo "$pids" | sed "s/ $idle_pid//")
  echo "chaos_soak: repro_$target survived 64 idle connections under ulimit -v 1500000" \
    "($(grep -c 'cannot start' "$log" || true) refused)"
done

echo "chaos_soak: OK"
