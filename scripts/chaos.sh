#!/usr/bin/env bash
# Chaos harness for the failpoint framework and the crash-safe run journal.
#
#   scripts/chaos.sh [path/to/cmc]
#
# Needs a cmc built with -DCMC_FAILPOINTS=ON (default: build-chaos/tools/cmc).
# Five phases, all against models/afs2_composed.smv (12 obligations, all of
# which hold on a healthy run):
#
#  1. Sweep: every registered failpoint site is armed with `error` and with
#     `1in(3)`, each where it is reached: the check's sites on `cmc check`
#     (scheduler.retry under a one-node budget, so every attempt runs out),
#     cache.compact on `cmc cache compact`, net.accept and net.read on a
#     `cmc serve` daemon (with `1in(2)` instead of `1in(3)`, so one
#     CHECK's few connections meet a failure), and cluster.hedge_delay on a
#     coordinator that hedges every forward.  cmc prints each armed site's
#     hit count on exit; a run that never hit its site does not count, and
#     a site that no run reached fails the script.  Each check run must
#     terminate, produce a report, and never flip a verdict to Fails.
#     What else we can demand depends on the site:
#       - durability/telemetry sites (cache.*, trace.write, journal.*)
#         degrade: all 12 obligations still Hold and the run exits 0;
#       - scheduler sites fail per obligation: all 12 are reported, each
#         either Holds or the injected Error;
#       - deep sites (bdd.alloc_node, smv.elaborate) can take out the
#         scout's elaboration, collapsing the job to a single
#         <elaboration> Error obligation — so only the no-Fails and
#         termination guarantees apply.
#
#  2. Kill-and-resume: a run wedged at the scheduler.dispatch delay
#     failpoint is SIGKILLed mid-batch; the journal must already hold
#     decided verdicts, and `cmc check --resume` must serve them
#     (verdict_source "journal") and finish with a report identical,
#     verdict for verdict, to a clean run's.
#
#  3. Server kill-and-resume: the same crash, but of the daemon.  A
#     `cmc serve` slowed by the dispatch delay is SIGKILLed mid-CHECK
#     (the submitting client sees the connection drop); a fresh daemon on
#     the SAME socket path, journal, and cache dir must come up (stale
#     socket handling), and resubmitting the model must yield a report
#     identical, verdict for verdict, to the clean run's — with the
#     already-decided obligations served from the journal/cache, never
#     re-checked from scratch.  Then SIGTERM must drain it with exit 0.
#
#  4. Cluster shard loss: a coordinator fronts three dispatch-delayed
#     shards; one shard is SIGKILLed mid-batch while its obligations are
#     in flight.  The coordinator must mark it down, re-dispatch its
#     obligations along their rendezvous order, and still hand the client
#     a report identical, verdict for verdict, to the single-daemon clean
#     run — the client never sees the crash.
#
#  5. Shard death and rejoin with the replica tier (RF=2): a shard that
#     already decided part of a cold batch is SIGKILLed late in the
#     batch.  The client still succeeds; a warm resubmission while the
#     shard is down must be served entirely from caches — the dead
#     shard's decided keys by its rendezvous successor's replica, never
#     re-checked.  Then the same shard (same socket, same cache dir) is
#     restarted and JOINed back in — no coordinator restart — and after
#     probation the warm run matches the clean verdicts with work
#     attributed to the rejoined shard again.
set -u

CMC=${1:-build-chaos/tools/cmc}
MODEL=models/afs2_composed.smv
COMMON="--compose --quiet --threads 2"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-chaos.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "chaos: FAIL: $*" >&2; exit 1; }
note() { echo "chaos: $*"; }

[ -x "$CMC" ] || fail "no cmc binary at $CMC"
"$CMC" failpoints | grep -q "compiled in;" \
  || fail "$CMC was not built with -DCMC_FAILPOINTS=ON"

# "<id> <verdict>" per obligation, sorted — the report is one JSON line.
verdicts() {
  grep -o '"id": "[^"]*", "target": "[^"]*", "spec": "[^"]*", "spec_text": "[^"]*", "verdict": "[^"]*"' "$1" \
    | sed 's/.*"id": "\([^"]*\)".*"verdict": "\([^"]*\)"$/\1 \2/' | sort
}

run_cmc() { # name, cache args..., then extra cmc args
  local name=$1; shift
  timeout 180 "$CMC" check $COMMON \
    --journal "$WORK/$name.journal.jsonl" \
    --report "$WORK/$name.json" \
    --trace "$WORK/$name.trace.jsonl" \
    "$@" "$MODEL" > "$WORK/$name.log" 2>&1
}

# ---------------------------------------------------------------------------
# Baseline: clean run, cold cache (also warms $WORK/warm.cache for the
# cache.disk_load sweeps).
# ---------------------------------------------------------------------------
run_cmc clean --cache-dir "$WORK/warm.cache" \
  || fail "clean run exited $? (log: $(cat "$WORK/clean.log"))"
verdicts "$WORK/clean.json" > "$WORK/clean.verdicts"
TOTAL=$(wc -l < "$WORK/clean.verdicts")
[ "$TOTAL" -eq 12 ] || fail "expected 12 obligations in the clean run, got $TOTAL"
[ "$(awk '$2 != "Holds"' "$WORK/clean.verdicts" | wc -l)" -eq 0 ] \
  || fail "clean run is not all-Holds"
[ -s "$WORK/warm.cache/obligations.jsonl" ] || fail "baseline left no cache store"
note "baseline: $TOTAL obligations, all hold"

# ---------------------------------------------------------------------------
# Phase 1: sweep every site with `error` and `1in(3)`
# ---------------------------------------------------------------------------
SITES=$("$CMC" failpoints | sed -n 's/^  \([a-z_.]*\) .*/\1/p')
[ -n "$SITES" ] || fail "no failpoint sites listed"
echo "$SITES" | grep -q "scheduler.dispatch" || fail "site list looks wrong: $SITES"

# Every cmc run with armed sites ends by printing "cmc: failpoint SITE: N
# hits" for each.  A site counts as reached once a run hit it; after the
# sweep, a site that no run reached fails the script.
REACHED=$WORK/reached.sites
: > "$REACHED"
hits() { # log, site
  local n
  n=$(grep -F "cmc: failpoint $2: " "$1" | sed -n 's/.*: \([0-9]*\) hits$/\1/p' | tail -n 1)
  echo "${n:-0}"
}
reached() { # log, site
  [ "$(hits "$1" "$2")" -gt 0 ] && echo "$2" >> "$REACHED"
}

# 1a: the sites a check reaches, on `cmc check`.  The daemon sites get
# daemons below, and cache.compact runs on `cmc cache compact`.
for site in $SITES; do
  case $site in net.*|cluster.*|cache.compact) continue ;; esac
  for action in error '1in(3)'; do
    name="sweep-$site-$action"
    case $site in
      cache.disk_load)
        # Needs a populated store to load; degradation must not corrupt it
        # for later iterations, but keep runs independent anyway.
        cp -r "$WORK/warm.cache" "$WORK/$name.cache"
        set -- --cache-dir "$WORK/$name.cache" ;;
      journal.load)
        # Only fires on --resume: replay a copy of the baseline journal.
        cp "$WORK/clean.journal.jsonl" "$WORK/$name.journal.jsonl"
        set -- --no-cache --resume ;;
      scheduler.retry)
        # Only fires when an attempt exhausts its budget: a one-node budget
        # exhausts every attempt, so every obligation reaches the retry.
        set -- --cache-dir "$WORK/$name.cache" --node-budget 1 ;;
      *)
        set -- --cache-dir "$WORK/$name.cache" ;;
    esac
    run_cmc "$name" "$@" --failpoint "$site=$action"
    rc=$?
    [ "$rc" -ne 124 ] || fail "$site=$action: run timed out (hang)"
    [ -s "$WORK/$name.json" ] || fail "$site=$action: no report written"
    verdicts "$WORK/$name.json" > "$WORK/$name.verdicts"
    n=$(wc -l < "$WORK/$name.verdicts")
    [ "$n" -ge 1 ] || fail "$site=$action: empty report"
    # Injection must never flip a verdict: the model holds, so anything
    # other than Holds must be the injected Error — never Fails, and never
    # a bogus budget verdict.  Under the one-node budget nothing is
    # decided: both engines run out (Inconclusive) unless the injected
    # Error comes first.
    decided=Holds
    [ "$site" = scheduler.retry ] && decided=Inconclusive
    bad=$(awk -v ok="$decided" '$2 != ok && $2 != "Error"' "$WORK/$name.verdicts")
    [ -z "$bad" ] || fail "$site=$action: unexpected verdicts: $bad"
    case $site in
      cache.*|trace.*|journal.*)
        # Durability/telemetry sites degrade; verdicts must be untouched.
        [ "$n" -eq "$TOTAL" ] \
          || fail "$site=$action: $n of $TOTAL obligations reported"
        errs=$(awk '$2 == "Error"' "$WORK/$name.verdicts" | wc -l)
        [ "$errs" -eq 0 ] \
          || fail "$site=$action: degradation site produced $errs Error verdict(s)"
        [ "$rc" -eq 0 ] || fail "$site=$action: degraded run exited $rc"
        ;;
      scheduler.*)
        # Fails per obligation: siblings must all still be reported.
        [ "$n" -eq "$TOTAL" ] \
          || fail "$site=$action: $n of $TOTAL obligations reported"
        ;;
    esac
    reached "$WORK/$name.log" "$site"
    note "sweep $site=$action: ok (exit $rc, $(hits "$WORK/$name.log" "$site") hits, $(awk -v ok="$decided" '$2 == ok' "$WORK/$name.verdicts" | wc -l)/$n $decided)"
  done
done

# 1b: cache.compact, on an offline compaction of a copy of the warm store.
# An injected error aborts it before the rename, so either way the store
# must be intact: a warm check on it serves every verdict from the cache.
for action in error '1in(3)'; do
  name="sweep-cache.compact-$action"
  cp -r "$WORK/warm.cache" "$WORK/$name.cache"
  rc=0
  CMC_FAILPOINTS="cache.compact=$action" "$CMC" cache compact \
    --cache-dir "$WORK/$name.cache" > "$WORK/$name.log" 2>&1 || rc=$?
  if [ "$action" = error ]; then
    [ "$rc" -ne 0 ] || fail "cache.compact=error: compaction reported success"
  else
    [ "$rc" -eq 0 ] || fail "cache.compact=$action: compaction exited $rc"
  fi
  run_cmc "$name-warm" --cache-dir "$WORK/$name.cache" \
    || fail "cache.compact=$action: warm run exited $?"
  verdicts "$WORK/$name-warm.json" > "$WORK/$name.verdicts"
  diff -u "$WORK/clean.verdicts" "$WORK/$name.verdicts" \
    || fail "cache.compact=$action: warm verdicts differ from the clean run"
  [ "$(grep -o '"verdict_source": "cache"' "$WORK/$name-warm.json" | wc -l)" -eq "$TOTAL" ] \
    || fail "cache.compact=$action: the store lost verdicts"
  reached "$WORK/$name.log" cache.compact
  note "sweep cache.compact=$action: ok (exit $rc, $(hits "$WORK/$name.log" cache.compact) hits, store intact)"
done

# 1c: net.accept and net.read, on a `cmc serve` daemon.  `error` drops
# every connection: no request is answered, yet the daemon survives,
# drains on SIGTERM, and its final metrics event counts the failures.
# `1in(2)` fails every other accept or read: after one STATUS, the CHECK's
# connection is dropped at accept (or the STATUS connection at its last
# read), and `cmc submit --max-retries` must still get the CHECK through
# with the clean run's verdicts.
for site in net.accept net.read; do
  counter=net_accept_failures
  [ "$site" = net.read ] && counter=net_read_failures
  for action in error '1in(2)'; do
    name="sweep-$site-$action"
    sock="$WORK/$name.sock"
    "$CMC" serve --socket "$sock" --compose --threads 2 --no-cache \
      --trace "$WORK/$name.trace.jsonl" --failpoint "$site=$action" \
      > "$WORK/$name.log" 2>&1 &
    srv=$!
    for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.1; done
    [ -S "$sock" ] || fail "$site=$action: daemon never listened: $(cat "$WORK/$name.log")"
    "$CMC" submit --socket "$sock" --status > /dev/null 2>&1
    rc=0
    timeout 60 "$CMC" submit --socket "$sock" --max-retries 4 --retry-ms 50 \
      --report "$WORK/$name.json" "$MODEL" > "$WORK/$name.submit.log" 2>&1 || rc=$?
    kill -0 "$srv" 2>/dev/null || fail "$site=$action: the daemon died"
    if [ "$action" = error ]; then
      [ "$rc" -ne 0 ] || fail "$site=$action: a CHECK was answered"
    else
      [ "$rc" -eq 0 ] || fail "$site=$action: CHECK failed: $(cat "$WORK/$name.submit.log")"
      verdicts "$WORK/$name.json" > "$WORK/$name.verdicts"
      diff -u "$WORK/clean.verdicts" "$WORK/$name.verdicts" \
        || fail "$site=$action: verdicts differ from the clean run"
    fi
    kill -TERM "$srv"
    rc=0
    wait "$srv" || rc=$?
    [ "$rc" -eq 0 ] || fail "$site=$action: daemon exited $rc on SIGTERM"
    failures=$(grep '"event": "metrics"' "$WORK/$name.trace.jsonl" | tail -n 1 \
      | grep -o "\"$counter\": [0-9]*" | sed 's/.*: //')
    [ "${failures:-0}" -gt 0 ] || fail "$site=$action: $counter stayed 0"
    reached "$WORK/$name.log" "$site"
    note "sweep $site=$action: ok ($(hits "$WORK/$name.log" "$site") hits, $counter $failures)"
  done
done

# 1d: cluster.hedge_delay, on a coordinator that hedges every forward:
# each obligation stalls 300 ms on its shard and the hedge fires at 50 ms.
# `error` suppresses every hedge; `1in(3)` every third, so the others
# launch.  Either way the verdicts are the clean run's.
for i in 1 2; do
  "$CMC" serve --socket "$WORK/hs$i.sock" --threads 2 --no-cache \
    --failpoint "scheduler.dispatch=delay(300)" > "$WORK/hs$i.log" 2>&1 &
  eval "HS$i=$!"
done
for i in 1 2; do
  for _ in $(seq 100); do
    "$CMC" submit --socket "$WORK/hs$i.sock" --status > /dev/null 2>&1 && break
    sleep 0.1
  done
done
printf '{"name": "s%s", "socket": "%s"}\n' 1 "$WORK/hs1.sock" 2 "$WORK/hs2.sock" \
  > "$WORK/htopology.jsonl"
for action in error '1in(3)'; do
  name="sweep-cluster.hedge_delay-$action"
  csock="$WORK/$name.sock"
  "$CMC" coordinator --socket "$csock" --topology "$WORK/htopology.jsonl" \
    --hedge-ms 50 --failpoint "cluster.hedge_delay=$action" \
    > "$WORK/$name.log" 2>&1 &
  coord=$!
  for _ in $(seq 100); do
    "$CMC" submit --socket "$csock" --status > /dev/null 2>&1 && break
    sleep 0.1
  done
  timeout 120 "$CMC" submit --socket "$csock" --compose \
    --report "$WORK/$name.json" "$MODEL" > "$WORK/$name.submit.log" 2>&1 \
    || fail "cluster.hedge_delay=$action: CHECK failed: $(cat "$WORK/$name.submit.log")"
  verdicts "$WORK/$name.json" > "$WORK/$name.verdicts"
  diff -u "$WORK/clean.verdicts" "$WORK/$name.verdicts" \
    || fail "cluster.hedge_delay=$action: verdicts differ from the clean run"
  "$CMC" submit --socket "$csock" --stats > "$WORK/$name.stats" 2>&1
  hedges=$(awk '$1 == "cluster_hedges" { print $2 }' "$WORK/$name.stats")
  if [ "$action" = error ]; then
    [ "${hedges:-0}" -eq 0 ] || fail "cluster.hedge_delay=error: $hedges hedge(s) launched"
  else
    [ "${hedges:-0}" -ge 1 ] || fail "cluster.hedge_delay=$action: no hedge launched"
  fi
  kill -TERM "$coord"
  rc=0
  wait "$coord" || rc=$?
  [ "$rc" -eq 0 ] || fail "cluster.hedge_delay=$action: coordinator exited $rc on SIGTERM"
  reached "$WORK/$name.log" cluster.hedge_delay
  note "sweep cluster.hedge_delay=$action: ok ($(hits "$WORK/$name.log" cluster.hedge_delay) hits, ${hedges:-0} hedges)"
done
for pid in "$HS1" "$HS2"; do
  kill -TERM "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
done

for site in $SITES; do
  grep -qxF "$site" "$REACHED" || fail "site $site: no sweep run reached it"
done
note "sweep reached all $(echo "$SITES" | wc -w) sites"

# ---------------------------------------------------------------------------
# Phase 2: SIGKILL mid-batch, then --resume
# ---------------------------------------------------------------------------
CMC_FAILPOINTS="scheduler.dispatch=delay(1000)" "$CMC" check $COMMON --no-cache \
  --journal "$WORK/kr.journal.jsonl" --report "$WORK/kr.json" \
  --trace "$WORK/kr.trace.jsonl" "$MODEL" > "$WORK/kr.log" 2>&1 &
pid=$!
sleep 3
kill -9 "$pid" 2>/dev/null || fail "run finished before the SIGKILL (delay too short)"
wait "$pid" 2>/dev/null
note "SIGKILLed pid $pid mid-batch"

[ -s "$WORK/kr.journal.jsonl" ] || fail "no journal survived the SIGKILL"
decided=$(grep -c '"verdict": "Holds"' "$WORK/kr.journal.jsonl" || true)
[ "$decided" -gt 0 ] || fail "journal holds no decided verdicts"
[ "$decided" -lt "$TOTAL" ] || fail "all obligations decided before the kill"
note "journal survived with $decided/$TOTAL decided verdicts"

run_cmc resume --no-cache --resume --journal "$WORK/kr.journal.jsonl" \
  || fail "resume run exited $? (log: $(cat "$WORK/resume.log"))"
served=$(grep -o '"verdict_source": "journal"' "$WORK/resume.json" | wc -l)
[ "$served" -gt 0 ] || fail "resume served nothing from the journal"
verdicts "$WORK/resume.json" > "$WORK/resume.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/resume.verdicts" \
  || fail "resumed report differs from the clean run"
note "resume served $served journaled verdicts; final report matches clean"

# ---------------------------------------------------------------------------
# Phase 3: SIGKILL the daemon mid-CHECK, restart on the same state, resubmit
# ---------------------------------------------------------------------------
SOCK=$WORK/chaos.sock
start_daemon() { # extra serve args...
  "$CMC" serve --socket "$SOCK" --compose --threads 2 \
    --journal "$WORK/srv.journal.jsonl" --cache-dir "$WORK/srv.cache" \
    --trace "$WORK/srv.trace.jsonl" "$@" >> "$WORK/srv.log" 2>&1 &
  SRV=$!
  # A stale socket file from a SIGKILLed predecessor still exists, so poll
  # with a real STATUS round-trip, not a file check.
  for _ in $(seq 100); do
    "$CMC" submit --socket "$SOCK" --status > /dev/null 2>&1 && return 0
    kill -0 "$SRV" 2>/dev/null || fail "daemon died on start: $(cat "$WORK/srv.log")"
    sleep 0.1
  done
  fail "daemon never answered on $SOCK: $(cat "$WORK/srv.log")"
}

start_daemon --failpoint "scheduler.dispatch=delay(1000)"
"$CMC" submit --socket "$SOCK" --id doomed --report "$WORK/srv-doomed.json" \
  "$MODEL" > "$WORK/srv-doomed.log" 2>&1 &
client=$!
sleep 3
kill -9 "$SRV" 2>/dev/null || fail "daemon finished before the SIGKILL"
wait "$SRV" 2>/dev/null
wait "$client" 2>/dev/null \
  && fail "client reported success although its daemon was SIGKILLed"
note "SIGKILLed daemon pid $SRV mid-CHECK"

[ -s "$WORK/srv.journal.jsonl" ] || fail "no server journal survived the SIGKILL"
decided=$(grep -c '"verdict": "Holds"' "$WORK/srv.journal.jsonl" || true)
[ "$decided" -gt 0 ] || fail "server journal holds no decided verdicts"
[ "$decided" -lt "$TOTAL" ] || fail "all obligations decided before the kill"
note "server journal survived with $decided/$TOTAL decided verdicts"

# Restart on the same socket (now stale), journal, and cache; no failpoint.
start_daemon --resume
"$CMC" submit --socket "$SOCK" --id retry --report "$WORK/srv-retry.json" \
  "$MODEL" > "$WORK/srv-retry.log" 2>&1 \
  || fail "resubmission failed: $(cat "$WORK/srv-retry.log")"
verdicts "$WORK/srv-retry.json" > "$WORK/srv-retry.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/srv-retry.verdicts" \
  || fail "post-restart report differs from the clean run"
replayed=$(grep -o '"verdict_source": "\(journal\|cache\)"' "$WORK/srv-retry.json" | wc -l)
[ "$replayed" -ge "$decided" ] \
  || fail "only $replayed of $decided decided obligations were replayed"
note "restarted daemon replayed $replayed verdicts; report matches clean"

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM: $(cat "$WORK/srv.log")"
[ ! -S "$SOCK" ] || fail "socket not unlinked on drain"
note "daemon drained cleanly after the chaos (exit 0)"

# ---------------------------------------------------------------------------
# Phase 4: SIGKILL one shard of a cluster mid-batch
# ---------------------------------------------------------------------------
# Every obligation takes >= 1 s on a shard, so a kill 0.8 s into the batch
# is guaranteed to catch the victim's obligations either in flight (the
# transport error path) or still queued (the connect-failure path); both
# must end in a re-dispatch, never in a client-visible error.
for i in 1 2 3; do
  "$CMC" serve --socket "$WORK/cs$i.sock" --threads 2 \
    --failpoint "scheduler.dispatch=delay(1000)" \
    > "$WORK/cs$i.log" 2>&1 &
  eval "CS$i=$!"
done
for i in 1 2 3; do
  for _ in $(seq 100); do
    "$CMC" submit --socket "$WORK/cs$i.sock" --status > /dev/null 2>&1 && break
    sleep 0.1
  done
done
cat > "$WORK/topology.jsonl" <<EOF
{"name": "s1", "socket": "$WORK/cs1.sock"}
{"name": "s2", "socket": "$WORK/cs2.sock"}
{"name": "s3", "socket": "$WORK/cs3.sock"}
EOF
"$CMC" coordinator --socket "$WORK/coord.sock" \
  --topology "$WORK/topology.jsonl" \
  --probe-interval-ms 200 --fail-threshold 1 > "$WORK/coord.log" 2>&1 &
COORD=$!
for _ in $(seq 100); do
  "$CMC" submit --socket "$WORK/coord.sock" --status > /dev/null 2>&1 && break
  sleep 0.1
done

"$CMC" submit --socket "$WORK/coord.sock" --id doomed-shard --compose \
  --report "$WORK/cluster.json" "$MODEL" > "$WORK/cluster.log" 2>&1 &
client=$!
sleep 0.8
kill -9 "$CS2" 2>/dev/null || fail "shard s2 died before the SIGKILL"
wait "$CS2" 2>/dev/null
note "SIGKILLed shard s2 (pid $CS2) mid-batch"

wait "$client" \
  || fail "client failed although the ring survived: $(cat "$WORK/cluster.log")"
verdicts "$WORK/cluster.json" > "$WORK/cluster.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/cluster.verdicts" \
  || fail "cluster report differs from the single-daemon clean run"
grep -q '"shard": "s2"' "$WORK/cluster.json" \
  && fail "an outcome is attributed to the killed shard"

"$CMC" submit --socket "$WORK/coord.sock" --status > "$WORK/coord-status.json" 2>&1
grep -q '"shards_up": 2' "$WORK/coord-status.json" \
  || fail "killed shard not marked down: $(cat "$WORK/coord-status.json")"
"$CMC" submit --socket "$WORK/coord.sock" --stats > "$WORK/coord-stats.txt" 2>&1
redispatched=$(awk '$1 == "cluster_redispatches" { print $2 }' "$WORK/coord-stats.txt")
[ -n "$redispatched" ] && [ "$redispatched" -ge 1 ] \
  || fail "no re-dispatch recorded after the shard kill"
note "cluster survived the shard kill: verdicts match clean, $redispatched re-dispatched"

kill -TERM "$COORD"
rc=0
wait "$COORD" || rc=$?
[ "$rc" -eq 0 ] || fail "coordinator exited $rc on SIGTERM: $(cat "$WORK/coord.log")"
for pid in "$CS1" "$CS3"; do
  kill -TERM "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
done
note "cluster drained cleanly after the chaos"

# ---------------------------------------------------------------------------
# Phase 5: shard death mid-batch, replica-served warm run, live rejoin
# ---------------------------------------------------------------------------
# Fresh fleet, this time with per-shard cache dirs so the RF=2 replica
# tier has somewhere to land.  The kill comes at 1.5 s: with a 1 s
# dispatch delay and 2 threads per shard, the victim has decided its
# first wave (so there ARE replicas of its verdicts) but not its last.
for i in 1 2 3; do
  "$CMC" serve --socket "$WORK/r$i.sock" --threads 2 \
    --cache-dir "$WORK/rcache$i" \
    --failpoint "scheduler.dispatch=delay(1000)" \
    > "$WORK/r$i.log" 2>&1 &
  eval "RS$i=$!"
done
for i in 1 2 3; do
  for _ in $(seq 100); do
    "$CMC" submit --socket "$WORK/r$i.sock" --status > /dev/null 2>&1 && break
    sleep 0.1
  done
done
cat > "$WORK/rtopology.jsonl" <<EOF
{"name": "s1", "socket": "$WORK/r1.sock"}
{"name": "s2", "socket": "$WORK/r2.sock"}
{"name": "s3", "socket": "$WORK/r3.sock"}
EOF
"$CMC" coordinator --socket "$WORK/rcoord.sock" \
  --topology "$WORK/rtopology.jsonl" \
  --probe-interval-ms 200 --fail-threshold 1 > "$WORK/rcoord.log" 2>&1 &
RCOORD=$!
for _ in $(seq 100); do
  "$CMC" submit --socket "$WORK/rcoord.sock" --status > /dev/null 2>&1 && break
  sleep 0.1
done

"$CMC" submit --socket "$WORK/rcoord.sock" --id replica-cold --compose \
  --report "$WORK/rcold.json" "$MODEL" > "$WORK/rcold.log" 2>&1 &
client=$!
sleep 1.5
kill -9 "$RS3" 2>/dev/null || fail "shard s3 died before the SIGKILL"
wait "$RS3" 2>/dev/null
note "SIGKILLed shard s3 (pid $RS3) mid-batch, after its first wave"

wait "$client" \
  || fail "client failed although the ring survived: $(cat "$WORK/rcold.log")"
verdicts "$WORK/rcold.json" > "$WORK/rcold.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/rcold.verdicts" \
  || fail "cold report differs from the clean run"
vdecided=$(grep -o '"shard": "s3"' "$WORK/rcold.json" | wc -l)
[ "$vdecided" -ge 1 ] \
  || fail "the victim decided nothing before the kill (kill came too early)"

# Warm resubmission with the victim down: every verdict must come from a
# cache — the victim's own decided keys from its successor's replica.
"$CMC" submit --socket "$WORK/rcoord.sock" --id replica-warm --compose \
  --report "$WORK/rwarm.json" "$MODEL" > "$WORK/rwarm.log" 2>&1 \
  || fail "warm submission failed: $(cat "$WORK/rwarm.log")"
hits=$(grep -o '"verdict_source": "cache"' "$WORK/rwarm.json" | wc -l)
[ "$hits" -eq "$TOTAL" ] || fail "warm run: only $hits of $TOTAL from cache"
grep -q '"verdict_source": "checked"' "$WORK/rwarm.json" \
  && fail "warm run re-checked an obligation while the victim was down"
grep -q '"shard": "s3"' "$WORK/rwarm.json" \
  && fail "an outcome is attributed to the dead shard"
"$CMC" submit --socket "$WORK/rcoord.sock" --stats > "$WORK/rcoord-stats.txt" 2>&1
rputs=$(awk '$1 == "cluster_replica_puts" { print $2 }' "$WORK/rcoord-stats.txt")
[ -n "$rputs" ] && [ "$rputs" -ge 1 ] \
  || fail "no replica write-through recorded"
note "replica tier: victim's $vdecided decided verdicts survived it ($rputs replica puts)"

# Same shard, same socket, same cache dir — and JOIN readmits it without
# touching the coordinator.  A rejoin starts in probation (the 200 ms
# probe loop may readmit it before the JOIN lands; both are fine).
"$CMC" serve --socket "$WORK/r3.sock" --threads 2 \
  --cache-dir "$WORK/rcache3" >> "$WORK/r3.log" 2>&1 &
RS3=$!
for _ in $(seq 100); do
  "$CMC" submit --socket "$WORK/r3.sock" --status > /dev/null 2>&1 && break
  sleep 0.1
done
rc=0
"$CMC" submit --socket "$WORK/rcoord.sock" --join s3 \
  --shard-socket "$WORK/r3.sock" > "$WORK/rejoin.json" 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
  grep -q '"state": "probation"' "$WORK/rejoin.json" \
    || fail "rejoin not in probation: $(cat "$WORK/rejoin.json")"
else
  grep -q "already" "$WORK/rejoin.json" \
    || fail "rejoin failed: $(cat "$WORK/rejoin.json")"
fi
for _ in $(seq 100); do
  "$CMC" submit --socket "$WORK/rcoord.sock" --status > "$WORK/rstatus.json" 2>/dev/null
  grep -q '"shards_up": 3' "$WORK/rstatus.json" && break
  sleep 0.2
done
grep -q '"shards_up": 3' "$WORK/rstatus.json" \
  || fail "rejoined shard never served out probation: $(cat "$WORK/rstatus.json")"

# With the owner back, its keys route home again: verdicts still match
# the clean run, and s3 is doing (or serving) its share once more.
"$CMC" submit --socket "$WORK/rcoord.sock" --id replica-back --compose \
  --report "$WORK/rback.json" "$MODEL" > "$WORK/rback.log" 2>&1 \
  || fail "post-rejoin submission failed: $(cat "$WORK/rback.log")"
verdicts "$WORK/rback.json" > "$WORK/rback.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/rback.verdicts" \
  || fail "post-rejoin report differs from the clean run"
[ "$(grep -o '"shard": "s3"' "$WORK/rback.json" | wc -l)" -ge 1 ] \
  || fail "no work routed back to the rejoined shard"
note "rejoin: s3 back through probation, verdicts match clean"

kill -TERM "$RCOORD"
rc=0
wait "$RCOORD" || rc=$?
[ "$rc" -eq 0 ] || fail "coordinator exited $rc on SIGTERM: $(cat "$WORK/rcoord.log")"
for pid in "$RS1" "$RS2" "$RS3"; do
  kill -TERM "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
done
note "replica fleet drained cleanly"

note "PASS"
