#!/usr/bin/env bash
# Perf gate for the parallel-service and engine-chooser work.
#
#   scripts/bench_smoke.sh [path/to/build-dir]
#
# Regenerates BENCH_service.json and BENCH_partition.json from the bench
# binaries (report mode only, --benchmark_filter=NONE) and fails if the
# headline wins regress:
#
#   1. service-pool must beat serial at afs1-batch-8 and afs1-batch-16,
#      within a generous tolerance (pool <= serial * SERVICE_TOL): CI
#      runners are noisy single-tenant VMs, so the gate bounds "parallel
#      must not lose", while the committed baselines in bench/results/
#      record the strict wins from a quiet machine.
#   2. The auto engine must stay within RING_TOL of the best of
#      {partitioned, monolithic} on every ring model — this bounds the
#      chooser's probe overhead on models where both engines are cheap.
#   3. auto must retain the afs2-2 peak-live-node win over monolithic.
#      Node counts are deterministic, so this gate is exact.
#
# A one-line summary is appended to bench/results/trend.csv so local runs
# accumulate a history of the headline ratios over time.
set -u

BUILD=${1:-build}
BENCH_DIR=$BUILD/bench
SERVICE_TOL=${SERVICE_TOL:-1.10}
RING_TOL=${RING_TOL:-1.25}
TREND=bench/results/trend.csv

fail() { echo "bench_smoke: FAIL: $*" >&2; exit 1; }
note() { echo "bench_smoke: $*"; }

[ -x "$BENCH_DIR/bench_service" ] || fail "no bench_service in $BENCH_DIR"
[ -x "$BENCH_DIR/bench_partition" ] || fail "no bench_partition in $BENCH_DIR"

# The binaries write BENCH_<name>.json to the CWD; run them where the
# JSONs should land so a later `cp` into bench/results/ is deliberate.
( cd "$BENCH_DIR" && ./bench_service --benchmark_filter=NONE ) \
  || fail "bench_service exited $?"
( cd "$BENCH_DIR" && ./bench_partition --benchmark_filter=NONE ) \
  || fail "bench_partition exited $?"
[ -s "$BENCH_DIR/BENCH_service.json" ] || fail "no BENCH_service.json written"
[ -s "$BENCH_DIR/BENCH_partition.json" ] || fail "no BENCH_partition.json written"

python3 - "$BENCH_DIR" "$SERVICE_TOL" "$RING_TOL" "$TREND" <<'EOF'
import json, sys, time

bench_dir, service_tol, ring_tol, trend = (
    sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
failures = []

# --- gate 1: service-pool vs serial at batch >= 8 -------------------------
with open(f"{bench_dir}/BENCH_service.json") as f:
    service = json.load(f)["results"]
by_model = {}
for r in service:
    by_model.setdefault(r["model"], {})[r["mode"]] = r
ratios = {}
for model in ("afs1-batch-8", "afs1-batch-16"):
    modes = by_model.get(model, {})
    if "serial" not in modes or "service-pool" not in modes:
        failures.append(f"{model}: missing serial/service-pool rows")
        continue
    ratio = modes["service-pool"]["seconds"] / modes["serial"]["seconds"]
    ratios[model] = ratio
    verdict = "ok" if ratio <= service_tol else "FAIL"
    print(f"bench_smoke: {model}: pool/serial = {ratio:.2f} "
          f"(tol {service_tol:.2f}) {verdict}")
    if ratio > service_tol:
        failures.append(f"{model}: service-pool/serial {ratio:.2f} "
                        f"> {service_tol:.2f}")

# --- gates 2+3: auto engine on rings, afs2-2 peak win ---------------------
with open(f"{bench_dir}/BENCH_partition.json") as f:
    partition = json.load(f)["results"]
by_model = {}
for r in partition:
    if r["spec"] == "ALL":
        by_model.setdefault(r["model"], {})[r["mode"]] = r
worst_ring = 0.0
for model, modes in sorted(by_model.items()):
    if not model.startswith("ring"):
        continue
    best = min(modes["partitioned"]["seconds"], modes["monolithic"]["seconds"])
    ratio = modes["auto"]["seconds"] / best
    worst_ring = max(worst_ring, ratio)
    verdict = "ok" if ratio <= ring_tol else "FAIL"
    print(f"bench_smoke: {model}: auto/best = {ratio:.2f} "
          f"(tol {ring_tol:.2f}) {verdict}")
    if ratio > ring_tol:
        failures.append(f"{model}: auto/best {ratio:.2f} > {ring_tol:.2f}")
afs2 = by_model.get("afs2-2", {})
if "auto" in afs2 and "monolithic" in afs2:
    auto_peak = afs2["auto"]["peak_live_nodes"]
    mono_peak = afs2["monolithic"]["peak_live_nodes"]
    print(f"bench_smoke: afs2-2: auto peak {auto_peak} vs "
          f"monolithic peak {mono_peak}")
    if auto_peak > mono_peak:
        failures.append(f"afs2-2: auto peak {auto_peak} > "
                        f"monolithic peak {mono_peak}")
else:
    failures.append("afs2-2: missing auto/monolithic rows")

# --- trend line -----------------------------------------------------------
stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
line = (f"{stamp},{ratios.get('afs1-batch-8', float('nan')):.3f},"
        f"{ratios.get('afs1-batch-16', float('nan')):.3f},"
        f"{worst_ring:.3f},{afs2.get('auto', {}).get('peak_live_nodes', 0)}")
try:
    with open(trend, "a") as f:
        if f.tell() == 0:
            f.write("utc,pool_serial_batch8,pool_serial_batch16,"
                    "worst_ring_auto_best,afs2_2_auto_peak\n")
        f.write(line + "\n")
    print(f"bench_smoke: trend: {line} >> {trend}")
except OSError as e:
    print(f"bench_smoke: trend append skipped ({e})")

if failures:
    for msg in failures:
        print(f"bench_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)
EOF
rc=$?
[ "$rc" -eq 0 ] || exit "$rc"
note "PASS"
