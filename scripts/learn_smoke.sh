#!/usr/bin/env bash
# Assume-guarantee learning smoke: `cmc learn` must derive exactly the
# verdicts of a direct composed check, actually learn (not just fall
# back), and serve a warm rerun entirely from the obligation cache.
#
#   scripts/learn_smoke.sh [path/to/cmc]
#
# Sequence (all against a throwaway work dir):
#   1. `cmc learn` on composed AFS-2 with a cold cache dir: Holds, every
#      composed obligation discharged with verdict_source "learned" and
#      assumption metadata (states, relation size, query counts) in the
#      report.
#   2. `cmc check --compose` on the same model: the per-obligation
#      verdicts of the learned and the direct run must be identical.
#   3. Rerun `cmc learn` against the warm cache dir: zero cache misses —
#      every membership/premise query is a pure cache hit — and the same
#      verdicts.
#   4. `genmodel` regenerates the committed goldens byte-identically,
#      exits 1 on a failed write and 2 (usage) on a count that is not
#      plain digits or overflows, and learn-vs-direct agreement holds on
#      the generated ring_3 too (where station 0 needs a genuinely refined
#      3-state assumption).
set -u

CMC=${1:-build/tools/cmc}
GENMODEL=$(dirname "$CMC")/genmodel
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-learn-smoke.XXXXXX")
MODEL=models/afs2_composed.smv

cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

fail() { echo "learn-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "learn-smoke: $*"; }
# The job's own verdict: a grep for one obligation's "Holds" would also
# match a job that Fails.
job_verdict() { # report.json
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["verdict"])' "$1"
}

[ -x "$CMC" ] || fail "no cmc binary at $CMC"
[ -x "$GENMODEL" ] || fail "no genmodel binary at $GENMODEL"
[ -f "$MODEL" ] || fail "run from the repo root ($MODEL not found)"

# Composed-obligation "id verdict" lines of a report, sorted.
composed_verdicts() { # report.json
  python3 - "$1" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for o in sorted(report["obligations"], key=lambda o: o["id"]):
    if o["target"] == "composed":
        print(o["id"], o["verdict"])
EOF
}

# --- 1. cold learned run -----------------------------------------------------

"$CMC" learn "$MODEL" --cache-dir "$WORK/cache" --no-journal \
  --report "$WORK/learn.json" --quiet >"$WORK/learn.out" 2>&1 \
  || fail "cmc learn exited $? ($(cat "$WORK/learn.out"))"
[ "$(job_verdict "$WORK/learn.json")" = Holds ] || fail "learned run not Holds"
grep -q '"verdict_source": "learned"' "$WORK/learn.json" \
  || fail "no obligation was actually learned"
grep -q '"assumption_states"' "$WORK/learn.json" \
  || fail "learned metadata missing from the report"
note "cold learn: Holds, learned obligations present"

# --- 2. direct cross-validation ---------------------------------------------

"$CMC" check --compose "$MODEL" --no-cache --no-journal \
  --report "$WORK/direct.json" --quiet >/dev/null 2>&1 \
  || fail "direct check exited $?"
composed_verdicts "$WORK/learn.json" >"$WORK/learn.verdicts"
composed_verdicts "$WORK/direct.json" >"$WORK/direct.verdicts"
[ -s "$WORK/learn.verdicts" ] || fail "learned report has no composed obligations"
diff -u "$WORK/direct.verdicts" "$WORK/learn.verdicts" >&2 \
  || fail "learned verdicts differ from the direct composed check"
note "learned verdicts match the direct check ($(wc -l <"$WORK/learn.verdicts") composed obligations)"

# --- 3. warm rerun: all cache -----------------------------------------------

"$CMC" learn "$MODEL" --cache-dir "$WORK/cache" --no-journal \
  --report "$WORK/warm.json" --quiet >/dev/null 2>&1 \
  || fail "warm learn exited $?"
grep -q '"misses": 0' "$WORK/warm.json" \
  || fail "warm rerun missed the cache: $(grep -o '"cache": {[^}]*}' "$WORK/warm.json")"
composed_verdicts "$WORK/warm.json" >"$WORK/warm.verdicts"
diff -u "$WORK/learn.verdicts" "$WORK/warm.verdicts" >&2 \
  || fail "warm rerun changed a verdict"
note "warm rerun: zero cache misses, verdicts stable"

# --- 4. generated models -----------------------------------------------------

for spec in ring_3 afs2_3; do
  family=${spec%_*}; n=${spec#*_}
  "$GENMODEL" "$family" "$n" -o "$WORK/$spec.smv" || fail "genmodel $family $n"
  cmp -s "models/gen/$spec.smv" "$WORK/$spec.smv" \
    || fail "models/gen/$spec.smv is not what genmodel $family $n produces"
done
note "goldens regenerate byte-identically"

"$GENMODEL" afs2 5 -o /dev/full 2>"$WORK/genmodel.err"
rc=$?
[ "$rc" -eq 1 ] || fail "genmodel writing to /dev/full exited $rc, not 1"
grep -q '^genmodel: cannot write /dev/full$' "$WORK/genmodel.err" \
  || fail "genmodel did not report the failed write: $(cat "$WORK/genmodel.err")"
for count in " 3" "+4" 99999999999999999999; do
  "$GENMODEL" afs2 "$count" >/dev/null 2>"$WORK/genmodel.err"
  rc=$?
  [ "$rc" -eq 2 ] || fail "genmodel afs2 '$count' exited $rc, not 2"
  grep -q '^usage: genmodel' "$WORK/genmodel.err" \
    || fail "genmodel afs2 '$count' printed no usage"
done
note "genmodel reports a failed write and refuses malformed counts"

"$CMC" learn "$WORK/ring_3.smv" --no-cache --no-journal \
  --report "$WORK/ring-learn.json" --quiet >/dev/null 2>&1 \
  || fail "learn on ring_3 exited $?"
"$CMC" check --compose "$WORK/ring_3.smv" --no-cache --no-journal \
  --report "$WORK/ring-direct.json" --quiet >/dev/null 2>&1 \
  || fail "direct check on ring_3 exited $?"
composed_verdicts "$WORK/ring-learn.json" >"$WORK/ring-learn.verdicts"
composed_verdicts "$WORK/ring-direct.json" >"$WORK/ring-direct.verdicts"
diff -u "$WORK/ring-direct.verdicts" "$WORK/ring-learn.verdicts" >&2 \
  || fail "ring_3 learned verdicts differ from direct"
grep -q '"assumption_states": 3' "$WORK/ring-learn.json" \
  || fail "ring_3 station 0 should need a refined 3-state assumption"
note "ring_3: learned == direct, refinement exercised"

note "PASS"
