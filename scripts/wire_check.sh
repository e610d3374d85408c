#!/usr/bin/env sh
# Wire record check: drive a fixed script of requests through repro_serve
# and through a 2-worker repro_fleet front, in both framings, and compare
# every reply byte with the committed record, BENCH_wire.txt at the repo
# root. The record has one section per endpoint and framing:
#
#   == serve json    == serve binary    == fleet json    == fleet binary
#
# Each section is one fresh server process (so its counters depend only on
# the script) on one shared, trained model cache. The script sends hello at
# protocol 1 and 99, two feature predicts, a predict_source, a request
# whose deadline_ms is 0, malformed and unknown requests, the retired
# "stats" request, health (uptime masked) and metrics (only the counters
# the script alone determines), and, last and on a connection of its own,
# an overlong message. The binary sections add chunk streams: one ended,
# one aborted, Chunk/End/Abort for unknown ids, a duplicate Begin id, 65
# empty streams open at once on one connection (one more than the
# default max_inflight), a response frame sent as a request and a request
# frame with a trailing byte.
#
# Every reply is recorded as escaped bytes, one per line, under the name of
# the step that provoked it; a step that gets no reply records nothing (a
# hello after each step marks where its replies end). A formatter, an
# error string or a connection rule that changes shows up here as a diff.
# The SIMD-on and SIMD-off builds must write the same record. Usage:
#
#   scripts/wire_check.sh BUILD_DIR            compare with the record
#   scripts/wire_check.sh BUILD_DIR --write    rewrite the record
set -eu

build_dir=${1:?usage: wire_check.sh BUILD_DIR [--write]}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)
mode=${2:-check}
script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
record="$script_dir/../BENCH_wire.txt"

case $mode in
  check|--write) ;;
  *) echo "usage: wire_check.sh BUILD_DIR [--write]" >&2; exit 2 ;;
esac

work_dir=$(mktemp -d)
cache_dir="$work_dir/model-cache"
train_flags="--suite-stride 8 --num-configs 8"
server_pid=""

cleanup() {
  if [ -n "$server_pid" ]; then kill -9 "$server_pid" 2>/dev/null || true; fi
  rm -rf "$work_dir"
}
trap cleanup EXIT INT TERM

wait_ready() { # log_file
  i=0
  while [ "$i" -lt 240 ]; do
    if grep -q '^READY ' "$1" 2>/dev/null; then return 0; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.25
    i=$((i + 1))
  done
  echo "wire_check: no READY in $1" >&2
  cat "$1" >&2
  return 1
}

stop_server() { # log_file
  kill -TERM "$server_pid"
  status=0
  wait "$server_pid" || status=$?
  server_pid=""
  if [ "$status" -ne 0 ]; then
    echo "wire_check: server exited with $status" >&2
    cat "$1" >&2
    exit 1
  fi
}

# The client: python3 stdlib only. Writes one section to stdout.
run_client() { # endpoint framing sock
  python3 - "$@" <<'PY'
import json, re, socket, struct, sys

endpoint, framing, path = sys.argv[1], sys.argv[2], sys.argv[3]
binary = framing == "binary"
MAX_LINE = 1 << 20  # ServerOptions/BalancerOptions max_line_bytes default

FEATURES_A = [12, 0, 0, 0, 8, 8, 0, 0, 3, 0]
FEATURES_B = [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
SOURCE = ("kernel void scale(global float* x, float a) {\n"
          "  int i = get_global_id(0);\n"
          "  x[i] = a * x[i] + 1.0f;\n"
          "}\n")
# Counters no other process moves: the workers' connection counts include
# the balancer and supervisor, and batch counts depend on timing.
SERVE_COUNTERS = ["repro_connections_total", "repro_deadline_exceeded_total",
                  "repro_protocol_errors_total", "repro_rejected_total",
                  "repro_requests_total", "repro_shed_total",
                  "repro_source_requests_total", "repro_streamed_total"]
FLEET_COUNTERS = [n for n in SERVE_COUNTERS if n != "repro_connections_total"] + [
    "repro_balancer_backend_failures_total", "repro_balancer_connections_total",
    "repro_balancer_dispatches_total", "repro_balancer_protocol_errors_total",
    "repro_balancer_reconnects_total", "repro_balancer_redispatches_total",
    "repro_balancer_requests_total"]

MAGIC = 0xB1
REQUEST, RESPONSE, BEGIN, CHUNK, END, ABORT = 1, 2, 3, 4, 5, 6
KIND_PREDICT, KIND_SOURCE, KIND_HEALTH, KIND_STATS, KIND_HELLO, KIND_METRICS = 0, 1, 2, 3, 4, 5


def frame(ftype, payload):
    return bytes([MAGIC, ftype]) + struct.pack("<I", len(payload)) + payload


def s32(b):
    return struct.pack("<I", len(b)) + b


def bin_request(rid, kind, body=b"", deadline=None, kernel=b""):
    flags = 0 if deadline is None else 1
    out = struct.pack("<QBB", rid, kind, flags)
    if deadline is not None:
        out += struct.pack("<d", deadline)
    return out + s32(kernel) + body


def hello(rid, version):
    if binary:
        return frame(REQUEST, bin_request(rid, KIND_HELLO, struct.pack("<I", version)))
    return b'{"id":%d,"type":"hello","max_protocol":%d}\n' % (rid, version)


def predict(rid, features, deadline=None):
    if binary:
        body = bytes([len(features)]) + b"".join(struct.pack("<d", f) for f in features)
        return frame(REQUEST, bin_request(rid, KIND_PREDICT, body, deadline))
    extra = "" if deadline is None else ',"deadline_ms":%s' % deadline
    return ('{"id":%d,"type":"predict","features":%s%s}\n'
            % (rid, json.dumps(features).replace(" ", ""), extra)).encode()


def predict_source(rid):
    if binary:
        return frame(REQUEST, bin_request(rid, KIND_SOURCE, s32(SOURCE.encode())))
    return ('{"id":%d,"type":"predict_source","source":%s}\n'
            % (rid, json.dumps(SOURCE))).encode()


def simple(rid, kind, name):
    if binary:
        return frame(REQUEST, bin_request(rid, kind))
    return b'{"id":%d,"type":"%s"}\n' % (rid, name.encode())


def begin(rid):
    return frame(BEGIN, struct.pack("<QB", rid, 0) + s32(b""))


def chunk(rid, data):
    return frame(CHUNK, struct.pack("<Q", rid) + data)


def end(rid):
    return frame(END, struct.pack("<Q", rid))


def abort(rid):
    return frame(ABORT, struct.pack("<Q", rid))


def escape(data):
    out = []
    for c in data:
        if c == 0x5C:
            out.append("\\\\")
        elif c == 0x0A:
            out.append("\\n")
        elif 0x20 <= c < 0x7F:
            out.append(chr(c))
        else:
            out.append("\\x%02x" % c)
    return "".join(out)


class Conn:
    def __init__(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(30)
        self.sock.connect(path)
        self.buf = b""

    def read_message(self):
        """One reply (JSON line or binary frame, raw bytes), or None at EOF."""
        while True:
            if self.buf[:1] == bytes([MAGIC]) and len(self.buf) >= 6:
                n = 6 + struct.unpack("<I", self.buf[2:6])[0]
                if len(self.buf) >= n:
                    msg, self.buf = self.buf[:n], self.buf[n:]
                    return msg
            elif self.buf and self.buf[:1] != bytes([MAGIC]) and b"\n" in self.buf:
                i = self.buf.index(b"\n") + 1
                msg, self.buf = self.buf[:i], self.buf[i:]
                return msg
            data = self.sock.recv(65536)
            if not data:
                return None
            self.buf += data


def reply_id(msg):
    if msg[:1] == bytes([MAGIC]):
        return struct.unpack("<Q", msg[6:14])[0]
    m = re.match(rb'\{"id":(\d+)', msg)
    return int(m.group(1)) if m else None


def mask_health(msg):
    if msg[:1] == bytes([MAGIC]):
        # u64 id, u8 body, then the f64 uptime.
        return escape(msg[:15]) + "<uptime>" + escape(msg[23:])
    return escape(re.sub(rb'"uptime_s":[^,}]*', b'"uptime_s":<uptime>', msg))


def metric_values(msg):
    if msg[:1] == bytes([MAGIC]):
        payload, pos = msg[6:], 9
        text_len = struct.unpack_from("<I", payload, pos)[0]
        pos += 4 + text_len
        count = struct.unpack_from("<I", payload, pos)[0]
        pos += 4
        values = {}
        for _ in range(count):
            n = struct.unpack_from("<I", payload, pos)[0]
            name = payload[pos + 4:pos + 4 + n].decode()
            pos += 4 + n
            values[name] = struct.unpack_from("<d", payload, pos)[0]
            pos += 8
        return values
    return json.loads(msg)["metrics"]["values"]


conn = Conn()
marker = [9000]


def step(name, data, render=escape):
    """Send one step's bytes plus a hello marker; record every reply
    before the marker's."""
    marker[0] += 1
    conn.sock.sendall(data + hello(marker[0], 2))
    print("# " + name)
    while True:
        msg = conn.read_message()
        if msg is None:
            print("! EOF before the step's marker")
            sys.exit(1)
        if reply_id(msg) == marker[0]:
            return
        print(render(msg))


step("hello max_protocol 1", hello(1, 1))
step("hello max_protocol 99", hello(2, 99))
step("predict A", predict(3, FEATURES_A))
step("predict B", predict(4, FEATURES_B))
step("predict_source", predict_source(5))
step("deadline_ms 0", predict(6, FEATURES_A, deadline=0))
if binary:
    step("unknown kind 9", simple(7, 9, ""))
    step("retired stats, kind 3", simple(8, KIND_STATS, ""))
    halves = (SOURCE[:40].encode(), SOURCE[40:].encode())
    step("stream ended", begin(20) + chunk(20, halves[0]) + chunk(20, halves[1]) + end(20))
    step("stream aborted", begin(21) + chunk(21, halves[0]) + abort(21))
    step("chunk, end and abort for unknown ids", chunk(901, b"x") + end(902) + abort(903))
    step("duplicate begin id", begin(22) + begin(22) + end(22))
    ids = range(100, 165)
    step("65 empty streams open at once, then ended",
         b"".join(begin(i) for i in ids) + b"".join(end(i) for i in ids))
    step("response frame sent as a request",
         frame(RESPONSE, struct.pack("<QBI", 30, 4, 2)))
    step("request frame with a trailing byte",
         frame(REQUEST, bin_request(31, KIND_HEALTH) + b"\x00"))
else:
    step("malformed json", b'{"id":7,"type":"predict","features":[1,2\n')
    step("unknown type", simple(8, 0, "nope"))
    step("retired stats", simple(9, KIND_STATS, "stats"))
step("health", simple(40, KIND_HEALTH, "health"), render=mask_health)
wanted = SERVE_COUNTERS if endpoint == "serve" else FLEET_COUNTERS


def render_metrics(msg):
    values = metric_values(msg)
    kept = ["%s %.17g" % (n, values[n]) for n in wanted if n in values]
    return "metrics id %d: %s" % (reply_id(msg), ", ".join(kept))


step("metrics", simple(41, KIND_METRICS, "metrics"), render=render_metrics)
conn.sock.close()

# Last, on a connection of its own: a message one byte over the bound. The
# server answers once and closes.
conn = Conn()
print("# overlong message")
if binary:
    conn.sock.sendall(bytes([MAGIC, REQUEST]) + struct.pack("<I", MAX_LINE + 1))
else:
    conn.sock.sendall(b"x" * (MAX_LINE + 1))
while True:
    msg = conn.read_message()
    if msg is None:
        print("EOF")
        break
    print(escape(msg))
conn.sock.close()
PY
}

out="$work_dir/wire.txt"
: >"$out"
for endpoint in serve fleet; do
  for framing in json binary; do
    sock="$work_dir/$endpoint-$framing.sock"
    log="$work_dir/$endpoint-$framing.log"
    if [ "$endpoint" = serve ]; then
      # shellcheck disable=SC2086
      "$build_dir/repro_serve" --unix "$sock" $train_flags \
        --cache-dir "$cache_dir" >"$log" 2>&1 &
    else
      mkdir -p "$work_dir/fleet-$framing"
      # shellcheck disable=SC2086
      "$build_dir/repro_fleet" --unix "$sock" --workers 2 \
        --dir "$work_dir/fleet-$framing" --cache-dir "$cache_dir" $train_flags \
        --serve-binary "$build_dir/repro_serve" >"$log" 2>&1 &
    fi
    server_pid=$!
    wait_ready "$log"
    echo "== $endpoint $framing" >>"$out"
    run_client "$endpoint" "$framing" "$sock" >>"$out" || {
      echo "wire_check: the $endpoint $framing client failed" >&2
      cat "$out" "$log" >&2
      exit 1
    }
    stop_server "$log"
  done
done

if [ "$mode" = "--write" ]; then
  cp "$out" "$record"
  echo "wire_check: wrote $record"
  exit 0
fi

[ -f "$record" ] || {
  echo "wire_check: no record at $record (run with --write)" >&2
  exit 1
}
if ! diff -u "$record" "$out"; then
  echo "wire_check: replies differ from $record" >&2
  exit 1
fi
echo "wire_check: OK"
