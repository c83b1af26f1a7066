#!/usr/bin/env bash
# Cluster-mode smoke: a coordinator fronting three shard daemons, with
# fingerprint routing, a fleet-wide warm-cache resubmission, health
# accounting, offline cache compaction, the submit retry backoff, and a
# SIGTERM drain that leaves the shards serving.
#
#   scripts/cluster_smoke.sh [path/to/cmc]
#
# Sequence (all against a throwaway work dir):
#   1. Three `cmc serve` shards on Unix sockets, each with its own cache
#      dir; a topology file names them; `cmc coordinator` fronts them and
#      must report 3/3 shards up over STATUS (version + protocol_rev
#      stamped).
#   2. Submit composed AFS-2 through the coordinator: Holds, 12
#      obligations, every outcome attributed to a shard, and the work
#      actually spread over more than one shard.
#   3. Resubmit identically: rendezvous routing sends every obligation
#      back to the shard that decided it, so the whole job is served from
#      shard caches (verdict_source "cache", never "checked") — the
#      fleet-wide warm win the coordinator exists for.
#   4. `cmc cache compact` over a shard's store: idempotent, size
#      reported, and the store still loads afterwards (the warm resubmit
#      repeated after compaction stays all-cache).
#   5. Dynamic membership: TOPOLOGY lists the roster with lifecycle
#      state; JOIN admits a fourth shard without restarting the
#      coordinator (and rendezvous routing hands it keys); LEAVE
#      decommissions it again; SIGHUP re-reads the topology file.
#   6. Hedged dispatch: a second coordinator with --hedge-ms fronts the
#      same shards; with one shard SIGSTOPped, its obligations must be
#      hedged to the next rendezvous candidate ("hedged": true) and the
#      job still completes with no attribution to the stalled shard.
#   7. Replica tier: SIGKILL a shard that decided cold work; the warm
#      resubmit is still all-cache with nothing attributed to the dead
#      shard (its verdicts are served by the rendezvous successor's
#      replica); restart the same `cmc serve` and JOIN it back — the
#      fleet returns to 3/3 with no coordinator restart.
#   8. Submit retry: against a coordinator with --max-inflight 0 (always
#      BUSY), `--max-retries 2` must retry with backoff and then exit 6;
#      without the flag it must fail fast with exit 6 and no retries.
#   9. SIGTERM drains the coordinator (exit 0, socket unlinked) while the
#      shards keep serving; then the shards drain cleanly too.
set -u

CMC=${1:-build/tools/cmc}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-cluster-smoke.XXXXXX")
MODEL=models/afs2_composed.smv
PIDS=

cleanup() {
  for p in $PIDS; do kill -9 "$p" 2>/dev/null; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "cluster-smoke: $*"; }
# The job's own verdict: a grep for one obligation's "Holds" would also
# match a job that Fails.
job_verdict() { # report.json
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["verdict"])' "$1"
}

[ -x "$CMC" ] || fail "no cmc binary at $CMC"

wait_ready() { # socket, logfile
  for _ in $(seq 100); do
    "$CMC" submit --socket "$1" --status > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "nothing answered on $1: $(cat "$2")"
}

# ---------------------------------------------------------------------------
# 1. Three shards + a coordinator
# ---------------------------------------------------------------------------
for i in 1 2 3; do
  "$CMC" serve --socket "$WORK/s$i.sock" --cache-dir "$WORK/cache$i" \
    > "$WORK/s$i.log" 2>&1 &
  PIDS="$PIDS $!"
  eval "S$i=$!"
done
for i in 1 2 3; do wait_ready "$WORK/s$i.sock" "$WORK/s$i.log"; done

# Any JSON layout loads: s3's line is written compact.
cat > "$WORK/topology.jsonl" <<EOF
# the smoke fleet: three local shards
{"name": "s1", "socket": "$WORK/s1.sock"}
{"name": "s2", "socket": "$WORK/s2.sock"}
{"name":"s3","socket":"$WORK/s3.sock"}
EOF

"$CMC" coordinator --socket "$WORK/coord.sock" \
  --topology "$WORK/topology.jsonl" > "$WORK/coord.log" 2>&1 &
COORD=$!
PIDS="$PIDS $COORD"
wait_ready "$WORK/coord.sock" "$WORK/coord.log"

"$CMC" submit --socket "$WORK/coord.sock" --status > "$WORK/status.json" 2>&1 \
  || fail "coordinator STATUS failed: $(cat "$WORK/status.json")"
grep -q '"role": "coordinator"' "$WORK/status.json" || fail "no coordinator role in STATUS"
grep -q '"shards_up": 3' "$WORK/status.json" || fail "expected 3 shards up: $(cat "$WORK/status.json")"
grep -q '"cmc_version": "' "$WORK/status.json" || fail "STATUS is not version-stamped"
grep -q '"protocol_rev": ' "$WORK/status.json" || fail "STATUS carries no protocol revision"
note "coordinator up, fronting 3/3 shards"

# ---------------------------------------------------------------------------
# 2. Cold submit through the coordinator
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$WORK/coord.sock" --id cold --compose \
  --report "$WORK/cold.json" "$MODEL" > "$WORK/cold.log" 2>&1 \
  || fail "cold submission failed: $(cat "$WORK/cold.log")"
[ "$(job_verdict "$WORK/cold.json")" = Holds ] || fail "cold run does not hold"
n=$(grep -c '"verdict_source": "checked"' "$WORK/cold.json")
[ "$n" -eq 12 ] || fail "expected 12 checked obligations, got $n"
shards=$(grep -o '"shard": "s[0-9]*"' "$WORK/cold.json" | sort -u | wc -l)
[ "$(grep -c '"shard": "s' "$WORK/cold.json")" -eq 12 ] \
  || fail "not every obligation is attributed to a shard"
[ "$shards" -ge 2 ] || fail "all obligations landed on one shard"
note "cold AFS-2: 12 obligations checked across $shards shards"

# ---------------------------------------------------------------------------
# 3. Warm resubmission must be served entirely from shard caches
# ---------------------------------------------------------------------------
warm_all_cache() { # id
  "$CMC" submit --socket "$WORK/coord.sock" --id "$1" --compose \
    --report "$WORK/$1.json" "$MODEL" > "$WORK/$1.log" 2>&1 \
    || fail "$1 submission failed: $(cat "$WORK/$1.log")"
  [ "$(job_verdict "$WORK/$1.json")" = Holds ] || fail "$1 run does not hold"
  if grep -q '"verdict_source": "checked"' "$WORK/$1.json"; then
    fail "$1 run re-checked an obligation"
  fi
  hits=$(grep -c '"verdict_source": "cache"' "$WORK/$1.json")
  [ "$hits" -eq 12 ] || fail "$1: only $hits of 12 obligations from cache"
}
warm_all_cache warm
note "warm AFS-2: all 12 obligations from shard caches"

# ---------------------------------------------------------------------------
# 4. Offline compaction keeps the stores loadable (and warm)
# ---------------------------------------------------------------------------
for i in 1 2 3; do
  if [ -s "$WORK/cache$i/obligations.jsonl" ]; then
    "$CMC" cache compact --cache-dir "$WORK/cache$i" > "$WORK/compact$i.log" 2>&1 \
      || fail "compaction of cache$i failed: $(cat "$WORK/compact$i.log")"
    grep -q "cache compact: " "$WORK/compact$i.log" \
      || fail "no compaction summary for cache$i"
  fi
done
warm_all_cache warm2
note "compaction: stores rewritten, resubmission still all-cache"

# ---------------------------------------------------------------------------
# 5. Dynamic membership: TOPOLOGY, JOIN, LEAVE, SIGHUP reload
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$WORK/coord.sock" --topology > "$WORK/topo.json" 2>&1 \
  || fail "TOPOLOGY failed: $(cat "$WORK/topo.json")"
[ "$(grep -o '"state": "up"' "$WORK/topo.json" | wc -l)" -eq 3 ] \
  || fail "TOPOLOGY does not list 3 up shards: $(cat "$WORK/topo.json")"
grep -q '"protocol_rev": 3' "$WORK/topo.json" || fail "TOPOLOGY lacks protocol_rev 3"
grep -q '"replication": ' "$WORK/topo.json" || fail "TOPOLOGY lacks the replication factor"
grep -q '"probation_required": ' "$WORK/topo.json" || fail "TOPOLOGY lacks lifecycle detail"

# JOIN a fourth shard while the coordinator keeps serving.
"$CMC" serve --socket "$WORK/s4.sock" --cache-dir "$WORK/cache4" \
  > "$WORK/s4.log" 2>&1 &
S4=$!
PIDS="$PIDS $S4"
wait_ready "$WORK/s4.sock" "$WORK/s4.log"
"$CMC" submit --socket "$WORK/coord.sock" --join s4 \
  --shard-socket "$WORK/s4.sock" > "$WORK/join.json" 2>&1 \
  || fail "JOIN s4 failed: $(cat "$WORK/join.json")"
grep -q '"state": "up"' "$WORK/join.json" || fail "joined shard not up: $(cat "$WORK/join.json")"
"$CMC" submit --socket "$WORK/coord.sock" --topology > "$WORK/topo4.json" 2>&1
grep -q '"shards_total": 4' "$WORK/topo4.json" || fail "roster did not grow to 4"

# Rendezvous hashing must hand the newcomer keys.  The cluster threshold
# is part of the fingerprint, so each threshold re-keys the whole job;
# the chance that three independent keyings all miss one of four shards
# is (3/4)^36 — negligible.
found=
for t in 1025 1026 1027; do
  "$CMC" submit --socket "$WORK/coord.sock" --id "join-t$t" --compose \
    --cluster "$t" --report "$WORK/join-t$t.json" "$MODEL" \
    > "$WORK/join-t$t.log" 2>&1 \
    || fail "submission at threshold $t failed: $(cat "$WORK/join-t$t.log")"
  if grep -q '"shard": "s4"' "$WORK/join-t$t.json"; then found=$t; break; fi
done
[ -n "$found" ] || fail "no keying ever routed an obligation to the joined shard"
note "membership: s4 joined live and owns keys (threshold $found)"

# LEAVE decommissions it again, and SIGHUP re-reads the topology file
# (which still names the original three) as a no-op diff.
"$CMC" submit --socket "$WORK/coord.sock" --leave s4 > "$WORK/leave.json" 2>&1 \
  || fail "LEAVE s4 failed: $(cat "$WORK/leave.json")"
"$CMC" submit --socket "$WORK/coord.sock" --topology > "$WORK/topo3.json" 2>&1
grep -q '"shards_total": 3' "$WORK/topo3.json" || fail "roster did not shrink to 3"
kill -TERM "$S4" 2>/dev/null
wait "$S4" 2>/dev/null
kill -HUP "$COORD"
for _ in $(seq 50); do
  grep -q "topology reload" "$WORK/coord.log" && break
  sleep 0.1
done
grep -q "topology reload" "$WORK/coord.log" \
  || fail "SIGHUP produced no topology reload summary: $(cat "$WORK/coord.log")"
note "membership: s4 left, SIGHUP reload acknowledged"

# ---------------------------------------------------------------------------
# 6. Hedged dispatch around a stalled shard
# ---------------------------------------------------------------------------
victim=$(grep -o '"shard": "s[0-9]*"' "$WORK/cold.json" | head -1 \
  | sed 's/.*"\(s[0-9]*\)"/\1/')
[ -n "$victim" ] || fail "no shard attribution in the cold report"
eval "VPID=\$S${victim#s}"

# A dedicated coordinator with hedging on and probes effectively off, so
# the stalled shard stays nominally healthy and the hedge (not a
# mark-down) is what rescues its keys.
"$CMC" coordinator --socket "$WORK/hedge.sock" --topology "$WORK/topology.jsonl" \
  --hedge-ms 200 --probe-interval-ms 60000 > "$WORK/hedge-coord.log" 2>&1 &
HEDGE=$!
PIDS="$PIDS $HEDGE"
wait_ready "$WORK/hedge.sock" "$WORK/hedge-coord.log"

kill -STOP "$VPID"
"$CMC" submit --socket "$WORK/hedge.sock" --id hedged --compose \
  --report "$WORK/hedged.json" "$MODEL" > "$WORK/hedged.log" 2>&1 \
  || { kill -CONT "$VPID"; fail "hedged submission failed: $(cat "$WORK/hedged.log")"; }
kill -CONT "$VPID"
[ "$(job_verdict "$WORK/hedged.json")" = Holds ] || fail "hedged run does not hold"
grep -q '"hedged": true' "$WORK/hedged.json" \
  || fail "no obligation was hedged around the stalled shard"
grep -q "\"shard\": \"$victim\"" "$WORK/hedged.json" \
  && fail "the stalled shard still won an obligation"
kill -TERM "$HEDGE"
wait "$HEDGE" 2>/dev/null
note "hedging: $victim stalled, its keys hedged to the next candidate"

# ---------------------------------------------------------------------------
# 7. Replica tier serves a dead shard's verdicts; the shard rejoins live
# ---------------------------------------------------------------------------
vnum=${victim#s}
kill -9 "$VPID"
"$CMC" submit --socket "$WORK/coord.sock" --id replica --compose \
  --report "$WORK/replica.json" "$MODEL" > "$WORK/replica.log" 2>&1 \
  || fail "post-kill submission failed: $(cat "$WORK/replica.log")"
hits=$(grep -c '"verdict_source": "cache"' "$WORK/replica.json")
[ "$hits" -eq 12 ] || fail "replica run: only $hits of 12 from cache"
grep -q '"verdict_source": "checked"' "$WORK/replica.json" \
  && fail "replica run re-checked an obligation"
grep -q "\"shard\": \"$victim\"" "$WORK/replica.json" \
  && fail "an obligation is still attributed to the dead shard"
note "replica tier: $victim dead, all 12 verdicts served from caches"

# The same `cmc serve` invocation comes back, and JOIN readmits it — the
# coordinator never restarts.  A rejoin lands in probation (or, if the
# background probe beat us to it, is already serving).
"$CMC" serve --socket "$WORK/s$vnum.sock" --cache-dir "$WORK/cache$vnum" \
  >> "$WORK/s$vnum.log" 2>&1 &
eval "S$vnum=$!"
PIDS="$PIDS $!"
wait_ready "$WORK/s$vnum.sock" "$WORK/s$vnum.log"
rc=0
"$CMC" submit --socket "$WORK/coord.sock" --join "$victim" \
  --shard-socket "$WORK/s$vnum.sock" > "$WORK/rejoin.json" 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
  grep -q '"state": "probation"' "$WORK/rejoin.json" \
    || fail "rejoin not in probation: $(cat "$WORK/rejoin.json")"
else
  grep -q "already" "$WORK/rejoin.json" \
    || fail "rejoin failed: $(cat "$WORK/rejoin.json")"
fi
for _ in $(seq 100); do
  "$CMC" submit --socket "$WORK/coord.sock" --status > "$WORK/rejoin-status.json" 2>/dev/null
  grep -q '"shards_up": 3' "$WORK/rejoin-status.json" && break
  sleep 0.2
done
grep -q '"shards_up": 3' "$WORK/rejoin-status.json" \
  || fail "$victim never served out probation: $(cat "$WORK/rejoin-status.json")"
warm_all_cache warm3
note "rejoin: $victim back through probation, fleet 3/3, still all-cache"

# ---------------------------------------------------------------------------
# 8. Submit retry backoff against an always-BUSY coordinator
# ---------------------------------------------------------------------------
"$CMC" coordinator --socket "$WORK/busy.sock" --max-inflight 0 \
  --topology "$WORK/topology.jsonl" > "$WORK/busy-coord.log" 2>&1 &
BUSY=$!
PIDS="$PIDS $BUSY"
wait_ready "$WORK/busy.sock" "$WORK/busy-coord.log"

rc=0
"$CMC" submit --socket "$WORK/busy.sock" --id fast "$MODEL" \
  > "$WORK/fastfail.log" 2>&1 || rc=$?
[ "$rc" -eq 6 ] || fail "fail-fast BUSY submit exited $rc, want 6"
grep -Eq "retry [0-9]+/" "$WORK/fastfail.log" && fail "retried without --max-retries"

rc=0
"$CMC" submit --socket "$WORK/busy.sock" --id retried \
  --max-retries 2 --retry-ms 50 "$MODEL" > "$WORK/retry.log" 2>&1 || rc=$?
[ "$rc" -eq 6 ] || fail "retried BUSY submit exited $rc, want 6"
[ "$(grep -Ec "retry [0-9]+/" "$WORK/retry.log")" -eq 2 ] \
  || fail "expected 2 retry attempts: $(cat "$WORK/retry.log")"
kill -TERM "$BUSY" 2>/dev/null
wait "$BUSY" 2>/dev/null
note "submit retry: fail-fast without the flag, 2 backoff retries with it"

# ---------------------------------------------------------------------------
# 9. Drain the coordinator; the shards must survive it
# ---------------------------------------------------------------------------
kill -TERM "$COORD"
rc=0
wait "$COORD" || rc=$?
[ "$rc" -eq 0 ] || fail "coordinator exited $rc on SIGTERM: $(cat "$WORK/coord.log")"
grep -q "drained" "$WORK/coord.log" || fail "no drain summary in the coordinator log"
[ ! -S "$WORK/coord.sock" ] || fail "coordinator socket not unlinked"
for i in 1 2 3; do
  "$CMC" submit --socket "$WORK/s$i.sock" --status > /dev/null 2>&1 \
    || fail "shard s$i stopped serving when the coordinator drained"
done
note "coordinator drained (exit 0); all shards still serving"

for i in 1 2 3; do
  eval "pid=\$S$i"
  kill -TERM "$pid"
  rc=0
  wait "$pid" || rc=$?
  [ "$rc" -eq 0 ] || fail "shard s$i exited $rc on SIGTERM"
done
PIDS=
note "shards drained cleanly"

note "PASS"
