#!/usr/bin/env bash
# Server-mode smoke: one daemon, concurrent submissions, a warm-cache
# resubmission, metrics consistency, and a SIGTERM drain.
#
#   scripts/server_smoke.sh [path/to/cmc]
#
# Sequence (all against a throwaway work dir):
#   1. `cmc serve` on a Unix-domain socket with a cache dir, journal, and
#      trace; wait for the socket to appear.
#   2. Submit AFS-1 and composed AFS-2 concurrently; both must report
#      Holds (AFS-1: 6 obligations, AFS-2: 12).
#   3. Resubmit the identical composed AFS-2: every obligation must be
#      served from the process-lifetime cache (verdict_source "cache",
#      never "checked") — the warm-win the daemon exists for.
#   4. STATS must be self-consistent: checks_admitted == checks_completed,
#      request_seconds_count matches, the cumulative +Inf latency bucket
#      equals the count, and nothing is left in flight.
#   5. Any JSON layout is a request: over a raw socket, python3 sends
#      {"cmd":"STATUS"}, { "cmd" : "STATUS" } and a compact json.dumps
#      CHECK; the CHECK's deadline and node budget must reach its report,
#      and its \u-escaped id must come back as UTF-8.
#   6. SIGTERM must drain: the daemon exits 0, reports the drain on
#      stdout, and unlinks its socket.
set -u

CMC=${1:-build/tools/cmc}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-server-smoke.XXXXXX")
SOCK=$WORK/cmc.sock
SRV=

cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "server-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "server-smoke: $*"; }
# The job's own verdict: a grep for one obligation's "Holds" would also
# match a job that Fails.
job_verdict() { # report.json
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["verdict"])' "$1"
}

[ -x "$CMC" ] || fail "no cmc binary at $CMC"

# A STATS metric line is "name value"; missing means 0.
metric() { awk -v n="$1" '$1 == n { print $2; found = 1 } END { if (!found) print 0 }' "$WORK/stats.txt"; }

# ---------------------------------------------------------------------------
# 1. Start the daemon
# ---------------------------------------------------------------------------
"$CMC" serve --socket "$SOCK" --cache-dir "$WORK/cache" \
  --journal "$WORK/journal.jsonl" --trace "$WORK/trace.jsonl" \
  > "$WORK/serve.log" 2>&1 &
SRV=$!

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SRV" 2>/dev/null || fail "daemon died on start: $(cat "$WORK/serve.log")"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon never bound $SOCK: $(cat "$WORK/serve.log")"
note "daemon up (pid $SRV) on $SOCK"

# ---------------------------------------------------------------------------
# 2. Concurrent submissions: AFS-1 and composed AFS-2
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$SOCK" --id afs1 --report "$WORK/afs1.json" \
  models/afs1_composed.smv > "$WORK/afs1.log" 2>&1 &
A=$!
"$CMC" submit --socket "$SOCK" --id afs2-cold --compose \
  --report "$WORK/afs2-cold.json" \
  models/afs2_composed.smv > "$WORK/afs2-cold.log" 2>&1 &
B=$!
wait "$A" || fail "AFS-1 submission failed: $(cat "$WORK/afs1.log")"
wait "$B" || fail "AFS-2 submission failed: $(cat "$WORK/afs2-cold.log")"
for r in afs1 afs2-cold; do
  [ "$(job_verdict "$WORK/$r.json")" = Holds ] || fail "$r does not hold"
done
grep -q '"cmc_version": "' "$WORK/afs1.json" \
  || fail "report is not version-stamped"
note "concurrent AFS-1 + AFS-2: both hold"

# ---------------------------------------------------------------------------
# 3. Identical resubmission must be served entirely from the cache
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$SOCK" --id afs2-warm --compose \
  --report "$WORK/afs2-warm.json" \
  models/afs2_composed.smv > "$WORK/afs2-warm.log" 2>&1 \
  || fail "warm AFS-2 submission failed: $(cat "$WORK/afs2-warm.log")"
[ "$(job_verdict "$WORK/afs2-warm.json")" = Holds ] || fail "warm AFS-2 does not hold"
grep -q '"verdict_source": "cache"' "$WORK/afs2-warm.json" \
  || fail "warm run served nothing from the cache"
if grep -q '"verdict_source": "checked"' "$WORK/afs2-warm.json"; then
  fail "warm run re-checked an obligation"
fi
hits=$(grep -c '"verdict_source": "cache"' "$WORK/afs2-warm.json")
note "warm AFS-2: all $hits obligations from cache"

# ---------------------------------------------------------------------------
# 4. STATS consistency
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$SOCK" --stats > "$WORK/stats.txt" 2>&1 \
  || fail "STATS failed: $(cat "$WORK/stats.txt")"
admitted=$(metric checks_admitted)
completed=$(metric checks_completed)
[ "$admitted" -eq 3 ] || fail "expected 3 admitted checks, got $admitted"
[ "$completed" -eq "$admitted" ] \
  || fail "admitted ($admitted) != completed ($completed) with the server idle"
[ "$(metric request_seconds_count)" -eq "$admitted" ] \
  || fail "request_seconds_count disagrees with checks_admitted"
[ "$(metric 'request_seconds_bucket{le="+Inf"}')" -eq "$admitted" ] \
  || fail "+Inf latency bucket does not equal the request count"
[ "$(metric requests_in_flight)" -eq 0 ] || fail "requests still in flight"
[ "$(metric requests_queued)" -eq 0 ] || fail "requests still queued"
[ "$(metric checks_rejected_busy)" -eq 0 ] || fail "unexpected BUSY rejections"
note "STATS consistent: $admitted admitted == $completed completed"

# ---------------------------------------------------------------------------
# 5. Raw-socket JSON in any layout
# ---------------------------------------------------------------------------
python3 - "$SOCK" models/afs1_composed.smv > "$WORK/raw.log" 2>&1 <<'EOF' \
  || fail "raw-socket JSON requests: $(cat "$WORK/raw.log")"
import json, socket, sys

sock_path, model = sys.argv[1], sys.argv[2]


def ask(line):
    s = socket.socket(socket.AF_UNIX)
    s.connect(sock_path)
    s.sendall(line.encode() + b"\n")
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    s.close()
    return json.loads(buf)


for line in ('{"cmd":"STATUS"}', '{ "cmd" : "STATUS" }'):
    r = ask(line)
    assert r.get("ok") is True and r.get("cmd") == "STATUS", (line, r)
check = json.dumps({"cmd": "CHECK", "id": "compact-caf\u00e9\u20ac",
                    "smv": open(model).read(), "deadline_ms": 1500,
                    "node_budget": 5000000}, separators=(",", ":"))
r = ask(check)
assert r.get("ok") is True, r
assert r["id"] == "compact-caf\u00e9\u20ac", r["id"]
options = json.loads(r["report"])["options"]
assert options["deadline_seconds"] == 1.5, options
assert options["node_budget"] == 5000000, options
EOF
note "raw-socket JSON: compact and spaced STATUS, compact CHECK keeps its budgets"

# ---------------------------------------------------------------------------
# 6. SIGTERM drains and exits 0
# ---------------------------------------------------------------------------
kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
SRV=
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM: $(cat "$WORK/serve.log")"
grep -q "drained" "$WORK/serve.log" || fail "no drain summary in the serve log"
[ ! -S "$SOCK" ] || fail "socket not unlinked on shutdown"
[ -s "$WORK/journal.jsonl" ] || fail "no journal written"
note "SIGTERM drained cleanly (exit 0)"

note "PASS"
