#!/usr/bin/env sh
# Socket round-trip smoke of the serving stack: start repro_serve on a Unix
# socket (small training suite so startup is seconds), then exercise the
# wire end to end — a predict_source request (OpenCL source featurized on
# the worker shards), a warm repeat, and a pipelined burst (several
# predict_source requests written before any response is read, answered in
# request order) — then read the live server's counters through a metrics
# request, and finally shut the server down gracefully and require a clean
# exit. Usage:
#
#   scripts/serve_smoke.sh BUILD_DIR
#
# Exits non-zero on any failure; used by CI after the build (including the
# ASan+UBSan leg).
set -eu

build_dir=${1:?usage: serve_smoke.sh BUILD_DIR}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)

work_dir=$(mktemp -d)
sock="$work_dir/repro_serve.sock"
log="$work_dir/server.log"

cleanup() {
  if [ -n "${server_pid:-}" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -9 "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work_dir"
}
trap cleanup EXIT INT TERM

"$build_dir/repro_serve" --unix "$sock" --suite-stride 8 --num-configs 8 \
  --cache-dir "$work_dir/model-cache" --shards 2 >"$log" 2>&1 &
server_pid=$!

# Wait for READY (training takes a few seconds on a cold cache).
ready=0
i=0
while [ "$i" -lt 240 ]; do
  if grep -q '^READY ' "$log" 2>/dev/null; then
    ready=1
    break
  fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "serve_smoke: server exited before READY" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.5
  i=$((i + 1))
done
if [ "$ready" -ne 1 ]; then
  echo "serve_smoke: server did not become ready in time" >&2
  cat "$log" >&2
  exit 1
fi

# predict_source end to end: the client ships raw OpenCL-C, the server
# featurizes it on a worker shard and answers with the Pareto table.
client_out=$("$build_dir/repro_serve_client" --unix "$sock")
echo "$client_out"
case $client_out in
  *"Pareto-optimal configurations"*) ;;
  *)
    echo "serve_smoke: client output missing the Pareto table" >&2
    exit 1
    ;;
esac

# A second client exercises the warm path (and the connection accounting).
"$build_dir/repro_serve_client" --unix "$sock" >/dev/null

# Pipelined predict_source: 6 requests written back-to-back on one
# connection; the server must answer all of them, in request order.
pipeline_out=$("$build_dir/repro_serve_client" --unix "$sock" --pipeline 6)
echo "$pipeline_out"
case $pipeline_out in
  *"6/6 responses OK"*) ;;
  *)
    echo "serve_smoke: pipelined predict_source burst failed" >&2
    exit 1
    ;;
esac

# The live server's registry must have counted exactly that traffic: 1 + 1
# + 6 predict_source requests over 3 connections, plus the metrics
# client's own connection, and no protocol errors.
metrics_out=$("$build_dir/repro_serve_client" --unix "$sock" --metrics)
for expected in \
  "repro_requests_total 8" \
  "repro_source_requests_total 8" \
  "repro_connections_total 4" \
  "repro_protocol_errors_total 0"; do
  if ! printf '%s\n' "$metrics_out" | grep -qx "$expected"; then
    echo "serve_smoke: live metrics lack '$expected'" >&2
    printf '%s\n' "$metrics_out" | grep -E '^repro_[a-z_]+_total ' >&2
    exit 1
  fi
done
echo "serve_smoke: live counters match the traffic sent"

kill -TERM "$server_pid"
server_status=0
wait "$server_pid" || server_status=$?
if [ "$server_status" -ne 0 ]; then
  echo "serve_smoke: server exited with status $server_status" >&2
  cat "$log" >&2
  exit 1
fi
grep -q 'shutting down' "$log" || {
  echo "serve_smoke: no graceful shutdown message" >&2
  cat "$log" >&2
  exit 1
}
echo "serve_smoke: OK"
