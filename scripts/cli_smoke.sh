#!/usr/bin/env bash
# Command-line smoke: every subcommand reads its arguments through the one
# reader in tools/cmc.cpp, so each kind of bad argument gets one message,
# prefixed with the subcommand that refused it, and exit 2.
#
#   scripts/cli_smoke.sh [path/to/cmc]
#
# Sequence (all against a throwaway work dir):
#   1. For check, serve, coordinator, submit and cache compact: a flag
#      missing its value, an integer out of range, an unknown option (which
#      prints the usage too) and a stray positional argument each exit 2
#      with "cmc <subcommand>: ..." on stderr.  check takes every positional
#      as a model and cache compact takes no integer flag, so those two
#      cases are not theirs.
#   2. A job option is read in the same pass: its missing value is
#      prefixed the same way.
#   3. `submit --tcp 0` is refused (port 0 is ephemeral only for a
#      listener), and so is a coordinator with --tcp but no --socket.
#   4. `cmc serve` started with the benchmark's flags answers STATUS and
#      drains on DRAIN with exit 0.
set -u

CMC=${1:-build/tools/cmc}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-cli-smoke.XXXXXX")
SOCK=$WORK/cmc.sock
MODEL=models/afs1_composed.smv
SRV=

cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "cli-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "cli-smoke: $*"; }

[ -x "$CMC" ] || fail "no cmc binary at $CMC"

# refused MESSAGE USAGE ARGS...: `cmc ARGS` exits 2 and the first line of
# its stderr is exactly MESSAGE; USAGE=1 asks for the usage text after it.
refused() {
  local message=$1 usage=$2
  shift 2
  local rc=0
  timeout 10 "$CMC" "$@" > "$WORK/out" 2> "$WORK/err" || rc=$?
  [ "$rc" -eq 2 ] || fail "cmc $* exited $rc, not 2: $(head -n 3 "$WORK/err")"
  [ "$(head -n 1 "$WORK/err")" = "$message" ] \
    || fail "cmc $* said '$(head -n 1 "$WORK/err")', not '$message'"
  if [ "$usage" -eq 1 ]; then
    grep -q '^usage: cmc' "$WORK/err" || fail "cmc $* printed no usage"
  fi
}

# ---------------------------------------------------------------------------
# 1. Each kind of bad argument, under each subcommand
# ---------------------------------------------------------------------------
refused "cmc check: --threads requires a value" 0 check "$MODEL" --threads
refused "cmc check: --threads needs an integer in 0..4294967295, got '4294967296'" 0 \
  check --threads 4294967296 "$MODEL"
refused "cmc check: unknown option --bogus" 1 check --bogus "$MODEL"

refused "cmc serve: --max-inflight requires a value" 0 \
  serve --socket "$SOCK" --max-inflight
refused "cmc serve: --tcp needs an integer in 0..65535, got '65536'" 0 \
  serve --socket "$SOCK" --tcp 65536
refused "cmc serve: unknown option --bogus" 1 serve --socket "$SOCK" --bogus
refused "cmc serve: unexpected argument stray" 1 serve --socket "$SOCK" stray

printf '{"name": "s1", "socket": "%s/s1.sock"}\n' "$WORK" > "$WORK/topology.jsonl"
refused "cmc coordinator: --topology requires a value" 0 \
  coordinator --socket "$SOCK" --topology
refused "cmc coordinator: --fail-threshold needs an integer in 1..2147483647, got '0'" 0 \
  coordinator --socket "$SOCK" --topology "$WORK/topology.jsonl" \
  --fail-threshold 0
refused "cmc coordinator: unknown option --bogus" 1 \
  coordinator --socket "$SOCK" --bogus
refused "cmc coordinator: unexpected argument stray" 1 \
  coordinator --socket "$SOCK" --topology "$WORK/topology.jsonl" stray

refused "cmc submit: --socket requires a value" 0 submit --status --socket
refused "cmc submit: --retry-ms needs an integer in 1..2147483647, got '0'" 0 \
  submit --socket "$SOCK" --retry-ms 0 "$MODEL"
refused "cmc submit: unknown option --bogus" 1 submit --socket "$SOCK" --bogus
refused "cmc submit: control commands take no model arguments" 0 \
  submit --socket "$SOCK" --status "$MODEL"

refused "cmc cache compact: --cache-dir requires a value" 0 \
  cache compact --cache-dir
refused "cmc cache compact: unknown option --bogus" 1 cache compact --bogus
refused "cmc cache compact: unexpected argument two" 1 \
  cache compact "$WORK/one" two
note "bad arguments refused under every subcommand"

# ---------------------------------------------------------------------------
# 2. Job options go through the same reader
# ---------------------------------------------------------------------------
refused "cmc check: --deadline-ms requires a value" 0 check "$MODEL" --deadline-ms
refused "cmc serve: --node-budget needs an integer in 0..18446744073709551615, got 'x'" 0 \
  serve --socket "$SOCK" --node-budget x
refused "cmc coordinator: --engine must be auto, partitioned, or monolithic" 0 \
  coordinator --socket "$SOCK" --engine bes
refused "cmc submit: --cluster requires a value" 0 \
  submit --socket "$SOCK" "$MODEL" --cluster
refused "cmc cache compact: unknown option --compose" 1 \
  cache compact --compose "$WORK/one"
note "job options read in the same pass"

# ---------------------------------------------------------------------------
# 3. Ports and required listeners
# ---------------------------------------------------------------------------
refused "cmc submit: --tcp needs an integer in 1..65535, got '0'" 0 \
  submit --tcp 0 --status
refused "cmc coordinator: --socket PATH is required" 0 \
  coordinator --tcp 1 --topology "$WORK/topology.jsonl"
refused "cmc serve: --socket PATH is required" 0 serve --tcp 0
note "submit needs a real port; both daemons need --socket"

# ---------------------------------------------------------------------------
# 4. The benchmark's daemon command line
# ---------------------------------------------------------------------------
"$CMC" serve --socket "$SOCK" --threads 2 --cache-dir "$WORK/cache" \
  --journal "$WORK/journal.jsonl" --metrics-interval-ms 0 \
  > "$WORK/serve.log" 2>&1 &
SRV=$!
up=0
for _ in $(seq 100); do
  if "$CMC" submit --socket "$SOCK" --status > "$WORK/status.json" 2>&1; then
    up=1
    break
  fi
  kill -0 "$SRV" 2>/dev/null || fail "daemon died on start: $(cat "$WORK/serve.log")"
  sleep 0.1
done
[ "$up" -eq 1 ] || fail "daemon never answered STATUS: $(cat "$WORK/serve.log")"
grep -q '"ok": true' "$WORK/status.json" \
  || fail "STATUS answered $(cat "$WORK/status.json")"
"$CMC" submit --socket "$SOCK" --drain > "$WORK/drain.json" 2>&1 \
  || fail "DRAIN refused: $(cat "$WORK/drain.json")"
rc=0
wait "$SRV" || rc=$?
SRV=
[ "$rc" -eq 0 ] || fail "daemon exited $rc after DRAIN: $(cat "$WORK/serve.log")"
grep -q '^cmc serve: drained; ' "$WORK/serve.log" \
  || fail "daemon did not report its drain: $(cat "$WORK/serve.log")"
note "serve with the benchmark's flags answered STATUS and drained (exit 0)"

note "PASS"
