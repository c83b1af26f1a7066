#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cmc on the afs2(n)/ring(n) corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds cmc, genmodel and the probe from
source into .bench_build, then runs the workload for about S seconds.  With
--trace 0 every cmc process is timed from outside (wall clock, rusage) and
the end-to-end metrics are printed; with --trace 1 the same inputs are
replayed in-process through each layer's public functions and the per-layer
metrics are printed.  Every verdict is checked against answers.json.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  README.md in this directory documents workloads and metrics.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import answers  # noqa: E402
import procs  # noqa: E402
import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
CMC = os.path.join(BUILD, "cmc")
GENMODEL = os.path.join(BUILD, "genmodel")
PROBE = os.path.join(BUILD, "probe")

# Worker threads and client connections never exceed the host's cores.
THREADS = min(4, os.cpu_count() or 1)
CHECK_LIMITS = procs.Limits(wall_s=60, rss_mb=2048)
SERVE_LIMITS = procs.Limits(wall_s=120, rss_mb=2048)
REPLAY_LIMITS = procs.Limits(wall_s=150, rss_mb=2048)
REQUEST_LIMIT_MS = 30000
# No pass starts after this many seconds of a run, whatever --seconds says.
RUN_BUDGET_S = 120
SETUP_REPEATS = 3

WORKLOADS = {
    "afs2-compose": {"family": "afs2", "sizes": (4, 8, 12, 16),
                     "compose": True},
    "ring-compose": {"family": "ring", "sizes": (32, 48, 64), "compose": True},
    "afs2-components": {"family": "afs2", "sizes": (48, 64),
                        "compose": False},
    "serve-mix": {"serve": True},
}
# serve-mix: SERVE_PICK sizes of each family per pass, drawn by seed, sent
# as component jobs; the first sighting of a model is a cold request, every
# other request repeats an already-sent model (SERVE_REPEAT_SHARE).
SERVE_AFS2 = tuple(range(8, 49, 4))
SERVE_RING = tuple(range(8, 97, 8))
SERVE_PICK = 8
SERVE_REQUESTS = 64
SERVE_REPEAT_SHARE = 1 - 2 * SERVE_PICK / SERVE_REQUESTS

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/cmc.cpp",
              "tools/genmodel.cpp"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("repository sources missing: " + ", ".join(missing))
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(THREADS),
                      "--target", "cmc_cli", "genmodel", "probe"])
        for argv in steps:
            if subprocess.run(argv, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"build failed; see {BUILD}/build.log")


def generate(family, n, directory):
    path = os.path.join(directory, f"{family}_{n}.smv")
    subprocess.run([GENMODEL, family, str(n), "-o", path], check=True)
    return path


def setup_inputs(models, workdir):
    """Generate `models` ([(family, n)]) SETUP_REPEATS times, each into a
    fresh directory; returns the last set of paths and the set-up times."""
    times = []
    for k in range(SETUP_REPEATS):
        directory = os.path.join(workdir, f"inputs{k}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        t0 = time.perf_counter()
        paths = {m: generate(*m, directory) for m in models}
        times.append(time.perf_counter() - t0)
    return paths, times


class Tally:
    """Operations (obligations) attempted and failed, with every problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, what, expected, verdicts):
        """Score one job's verdicts against its expected ones, per id."""
        bad = answers.mismatches(expected, verdicts)
        self.attempted += len(expected)
        self.failed += len({line.split(":", 1)[0] for line in bad})
        self.problems += [f"{what}: {line}" for line in bad[:5]]

    def fail(self, what, count, error):
        """`count` operations failed outright (killed, refused, crashed)."""
        self.attempted += count
        self.failed += count
        self.problems.append(f"{what}: {error}")


def report_verdicts(path):
    with open(path) as f:
        report = json.load(f)
    return {o["id"]: o["verdict"] for o in report["obligations"]}


# ---------------------------------------------------------------------------
# check workloads: one `cmc check` per model

def check_pass(w, name, order, known, workdir, tally):
    paths, setups = setup_inputs([(w["family"], n) for n in order], workdir)
    per_n = {}
    for n in order:
        key = answers.model_key(w["family"], n, w["compose"])
        stem = os.path.join(workdir, key)
        argv = [CMC, "check", "--no-cache", "--no-journal", "--quiet",
                "--threads", str(THREADS), "--report", stem + ".report.json",
                "--trace", stem + ".trace.jsonl", paths[(w["family"], n)]]
        if w["compose"]:
            argv.insert(2, "--compose")
        o = procs.run(argv, CHECK_LIMITS)
        what = f"{name} n={n}"
        if o.killed or o.returncode != 0:
            tally.fail(what, len(known[key]),
                       f"killed ({o.killed})" if o.killed
                       else f"exit code {o.returncode}")
        else:
            tally.add(what, known[key], report_verdicts(stem + ".report.json"))
        per_n[n] = o
    return setups, per_n


def run_check(name, w, seconds, rng, workdir, tally):
    known = answers.load()
    setups, passes = [], []
    t_run = time.perf_counter()
    while True:
        order = rng.sample(w["sizes"], len(w["sizes"]))
        s, per_n = check_pass(w, name, order, known, workdir, tally)
        setups += s
        passes.append(per_n)
        elapsed = time.perf_counter() - t_run
        mean_pass = elapsed / len(passes)
        if elapsed + mean_pass > min(seconds, RUN_BUDGET_S):
            break
    sizes = sorted(w["sizes"])
    med = {n: {k: statistics.median([getattr(p[n], k) for p in passes])
               for k in ("wall_s", "cpu_s", "peak_rss_mb")} for n in sizes}
    log(f"{name}: {len(passes)} passes in {elapsed:.1f} s, "
        f"--threads {THREADS}, seed order of last pass {order}")
    for n in sizes:
        log(f"  n={n:<3} wall {med[n]['wall_s']:.3f} s  cpu "
            f"{med[n]['cpu_s']:.3f} s  peak rss {med[n]['peak_rss_mb']:.1f} MB"
            f"  (median of {len(passes)})")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(med[n]["wall_s"] for n in sizes),
        "cpu_s": sum(med[n]["cpu_s"] for n in sizes),
        "peak_rss_mb": statistics.median(
            [max(p[n].peak_rss_mb for n in sizes) for p in passes]),
    }
    extra = {}
    if w["compose"]:
        extra["scaling_exp"] = (stats.scaling_exponent(
            sizes, [med[n]["wall_s"] for n in sizes]), "1",
            f"log-log slope of per-n median wall over n = {sizes}")
    return metrics, extra, {"setup": len(setups), "passes": len(passes)}


# ---------------------------------------------------------------------------
# serve-mix: one `cmc serve` daemon per pass, closed-loop load through the
# probe (net::Client)

def draw_stream(rng):
    """The pass's models and request stream: every model's first sighting
    is spread over the stream; every other slot repeats a model already
    sent."""
    models = ([("afs2", n) for n in rng.sample(SERVE_AFS2, SERVE_PICK)] +
              [("ring", n) for n in rng.sample(SERVE_RING, SERVE_PICK)])
    rng.shuffle(models)
    firsts = set([0] + rng.sample(range(1, SERVE_REQUESTS), len(models) - 1))
    stream, seen = [], []
    for i in range(SERVE_REQUESTS):
        if i in firsts:
            seen.append(models[len(seen)])
            stream.append(seen[-1])
        else:
            stream.append(rng.choice(seen))
    return models, stream


def command(sock_path, cmd):
    """One protocol line to the daemon; the parsed response."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10)
        s.connect(sock_path)
        s.sendall(json.dumps({"cmd": cmd}).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


def start_daemon(workdir):
    sock = os.path.relpath(os.path.join(workdir, "cmc.sock"))
    argv = [CMC, "serve", "--socket", sock, "--threads", str(THREADS),
            "--cache-dir", os.path.join(workdir, "cache"),
            "--journal", os.path.join(workdir, "journal.jsonl"),
            "--metrics-interval-ms", "0"]
    daemon = procs.Child(argv, SERVE_LIMITS)
    deadline = time.perf_counter() + 10
    while True:
        try:
            if command(sock, "STATUS").get("ok"):
                return daemon, sock
        except (OSError, ValueError):
            pass
        if time.perf_counter() > deadline:
            daemon.signal(signal.SIGKILL)
            daemon.wait()
            raise BenchError("cmc serve did not answer STATUS within 10 s")
        time.sleep(0.002)


def serve_pass(rng, known, workdir, tally):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    models, stream = draw_stream(rng)
    paths, gen_times = setup_inputs(models, workdir)
    t0 = time.perf_counter()
    daemon, sock = start_daemon(workdir)
    setup_s = statistics.median(gen_times) + (time.perf_counter() - t0)
    drained = False
    try:
        stream_path = os.path.join(workdir, "stream.txt")
        with open(stream_path, "w") as f:
            for i, m in enumerate(stream):
                f.write(f"r{i} {paths[m]}\n")
        out_path = os.path.join(workdir, "responses.jsonl")
        load = procs.run([PROBE, "load", "--socket", sock, "--clients",
                          str(THREADS), "--stream", stream_path, "--out",
                          out_path, "--limit-ms", str(REQUEST_LIMIT_MS)],
                         SERVE_LIMITS)
        server_stats = command(sock, "STATS")
        command(sock, "DRAIN")
        drained = True
    finally:
        if not drained:
            daemon.signal(signal.SIGKILL)
        o = daemon.wait()
    requests = []
    if load.killed or load.returncode != 0:
        for m in stream:
            tally.fail(f"serve-mix {m[0]}({m[1]})",
                       len(known[answers.model_key(*m, False)]),
                       f"load client {load.killed or load.returncode}")
    else:
        seen = set()
        with open(out_path) as f:
            for line, m in zip(f, stream):
                requests.append(score_request(json.loads(line), m,
                                              m not in seen, known, tally))
                seen.add(m)
    if o.killed:
        tally.fail("serve-mix daemon", 1, f"killed ({o.killed})")
    files = {name: os.path.getsize(os.path.join(workdir, name))
             for name in ("journal.jsonl", "cache/obligations.jsonl")
             if os.path.exists(os.path.join(workdir, name))}
    return {"setup_s": setup_s, "daemon": o, "requests": requests,
            "stats": server_stats, "files": files, "models": models,
            "paths": paths}


def score_request(r, model, first, known, tally):
    """Check one response.  A first sighting is a cold request (check, cache
    insert, journal append); a repeat answered wholly from the cache is a
    warm one.  A repeat sent before its first sighting was decided is
    neither."""
    what = f"serve-mix {r['id']} {model[0]}({model[1]})"
    expected = known[answers.model_key(*model, False)]
    resp = r.get("response") or {}
    rec = {"id": r["id"], "ms": r["end_ms"] - r["start_ms"],
           "start_ms": r["start_ms"],
           "end_ms": r["end_ms"], "kind": None, "busy": False}
    if not r["ok"]:
        tally.fail(what, len(expected), r.get("error", "no response"))
    elif not resp.get("ok"):
        rec["busy"] = resp.get("code") == "BUSY"
        tally.fail(what, len(expected),
                   f"{resp.get('code')}: {resp.get('error')}")
    else:
        report = json.loads(resp["report"])
        tally.add(what, expected,
                  {o["id"]: o["verdict"] for o in report["obligations"]})
        warm = resp["cache_hits"] == resp["obligations"]
        rec["kind"] = "cold" if first else "warm" if warm else "raced"
        rec["server_ms"] = resp["wall_seconds"] * 1000.0
    return rec


def run_serve(seconds, rng, workdir, tally):
    known = answers.load()
    passes = []
    t_run = time.perf_counter()
    while True:
        passes.append(serve_pass(rng, known, os.path.join(workdir, "serve"),
                                 tally))
        elapsed = time.perf_counter() - t_run
        if elapsed + elapsed / len(passes) > min(seconds, RUN_BUDGET_S):
            break
    reqs = [r for p in passes for r in p["requests"]]
    walls = [(max(r["end_ms"] for r in p["requests"]) -
              min(r["start_ms"] for r in p["requests"])) / 1000.0
             for p in passes if p["requests"]]
    if not walls:
        raise BenchError("serve-mix: no request completed")
    metrics = {
        "setup_s": statistics.median([p["setup_s"] for p in passes]),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([p["daemon"].cpu_s for p in passes]),
        "peak_rss_mb": statistics.median([p["daemon"].peak_rss_mb
                                     for p in passes]),
    }
    lat = [r["ms"] for r in reqs]
    log(f"serve-mix: {len(passes)} passes in {elapsed:.1f} s; each pass "
        f"{SERVE_REQUESTS} CHECKs over {2 * SERVE_PICK} models, "
        f"{SERVE_REPEAT_SHARE:.0%} repeats, closed loop of {THREADS} "
        f"connections, --threads {THREADS}")
    extra = {"request_ms.p50": (statistics.median(lat), "ms",
                                f"{len(lat)} requests")}
    p95 = stats.percentile_if_supported(lat, 95.0)
    if p95 is not None:
        extra["request_ms.p95"] = (p95, "ms", f"{len(lat)} requests")
    tail = stats.tail_percentile(lat)
    if tail is not None:
        extra["request_ms.tail"] = (tail[1], "ms", f"p{tail[0]:g} of "
                                    f"{tail[2]} requests, >= "
                                    f"{stats.MIN_BEYOND} beyond it")
    raced = sum(r["kind"] == "raced" for r in reqs)
    log(f"  {raced} of {len(reqs)} requests repeated a model whose first "
        "sighting was still running (neither warm nor cold)")
    for kind in ("warm", "cold"):
        xs = [r["ms"] for r in reqs if r["kind"] == kind]
        if xs:
            extra[f"{kind}_ms.p50"] = (statistics.median(xs), "ms",
                                       f"{len(xs)} {kind} requests")
    return metrics, extra, {"setup": len(passes), "passes": len(passes),
                            "last_pass": passes[-1]}


# ---------------------------------------------------------------------------
# traced run: the same inputs replayed in-process through the probe

def replay(models, compose, workdir, tally, name):
    spans_path = os.path.join(workdir, "spans.jsonl")
    out_path = os.path.join(workdir, "replay.jsonl")
    argv = [PROBE, "replay", "--spans", spans_path, "--out", out_path]
    if compose:
        argv.append("--compose")
    o = procs.run(argv + list(models.values()), REPLAY_LIMITS)
    if o.killed or o.returncode != 0:
        raise BenchError(f"{name}: replay {o.killed or o.returncode}")
    known = answers.load()
    jobs = []
    with open(out_path) as f:
        for line, m in zip(f, models):
            job = json.loads(line)
            expected = known[answers.model_key(*m, compose)]
            tally.add(f"{name} run {job['job']}", expected, job["verdicts"])
            tally.add(f"{name} replay {job['job']}", expected,
                      job["replay_verdicts"])
            jobs.append(job)
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    return jobs, spans


def layer_metrics(jobs, spans, untraced_wall_s):
    """Per-layer metrics of one traced replay (see README.md)."""
    def total(key):
        return sum(j[key] for j in jobs)

    def ms(span):
        return sum(j["ms"].get(span, 0.0) for j in jobs)

    m = {}
    m["smv.parse_ms"] = (ms("smv::parseProgram"), "ms")
    m["smv.elaborate_ms"] = (ms("smv::elaborate"), "ms")
    m["smv.canon_ms"] = (ms("smv::canonicalModule"), "ms")
    m["smv.modules"] = (total("modules"), "count")
    m["smv.bool_vars"] = (total("bool_vars"), "count")
    m["symbolic.probe_ms"] = (ms("symbolic::chooseEngine"), "ms")
    m["symbolic.probe_aborted"] = (total("probe_aborted"), "count")
    m["symbolic.fixpoint_ms"] = (ms("symbolic::Checker::check"), "ms")
    m["symbolic.checks"] = (total("checks"), "count")
    m["symbolic.partitioned_share"] = (
        stats.ratio(total("checks_partitioned"), total("checks")), "ratio")
    m["symbolic.trans_nodes"] = (total("trans_nodes"), "count")
    m["bdd.nodes_allocated"] = (total("nodes_allocated"), "count")
    m["bdd.op_cache_hit_ratio"] = (
        stats.ratio(total("op_cache_hits"), total("op_cache_lookups")),
        "ratio")
    m["bdd.op_cache_lookups"] = (total("op_cache_lookups"), "count")
    m["bdd.unique_lookups"] = (total("unique_lookups"), "count")
    m["bdd.peak_live_nodes"] = (max(j["peak_live_nodes"] for j in jobs),
                                "count")
    m["bdd.gc_runs"] = (total("gc_runs"), "count")
    m["bdd.gc_reclaimed"] = (total("gc_reclaimed"), "count")
    m["bdd.import_ms"] = (ms("bdd::Importer::Importer"), "ms")
    m["bdd.import_nodes"] = (total("import_nodes"), "count")
    m["comp.composed_obligations"] = (total("composed_obligations"), "count")
    m["comp.global_fallbacks"] = (total("global_fallbacks"), "count")
    m["service.snapshot_ms"] = (ms("service::buildSnapshot"), "ms")
    m["service.import_ms"] = (ms("service::importModule"), "ms")
    m["service.run_ms"] = (ms("service::VerificationService::run"), "ms")
    m["service.overhead_ms"] = (
        m["service.run_ms"][0] - m["service.snapshot_ms"][0] -
        ms("bench::obligation"), "ms")
    m["service.obligations"] = (total("obligations"), "count")
    m["service.attempts"] = (total("attempts"), "count")
    m["service.retries"] = (total("retries"), "count")
    by_layer, traced_wall = stats.layer_self_times(spans)
    for layer in ("smv", "symbolic", "bdd", "service", "bench"):
        m[f"self_ms.{layer}"] = (by_layer.get(layer, 0.0), "ms")
    m["trace.wall_ms"] = (traced_wall, "ms")
    m["trace.overhead_ms"] = (traced_wall - untraced_wall_s * 1000.0, "ms")

    extra = {}
    if ms("symbolic::composeAll") > 0:
        extra["symbolic.compose_ms"] = (ms("symbolic::composeAll"), "ms", "")
    if by_layer.get("comp"):
        extra["comp.classify_ms"] = (ms("comp::classify"), "ms", "")
        extra["self_ms.comp"] = (by_layer["comp"], "ms", "")
    if total("composed_obligations"):
        c, f = total("composed_obligations"), total("global_fallbacks")
        extra["comp.compositional_ratio"] = (
            stats.ratio(c - f, c), "ratio",
            "base comp.composed_obligations: " + stats.format_ratio(c - f, c))
    return m, extra, by_layer, traced_wall


def print_replay(jobs, by_layer, traced_wall):
    stages = (("parse", "smv::parseProgram"), ("elaborate", "smv::elaborate"),
              ("canon", "smv::canonicalModule"),
              ("chooseEngine", "symbolic::chooseEngine"),
              ("gc", "bdd::Manager::collectGarbage"))
    for j in jobs:
        ms = j["ms"]
        log(f"  {j['job']}: buildSnapshot {ms['service::buildSnapshot']:.1f} "
            "ms; its stages replayed one call each: " +
            ", ".join(f"{label} {ms.get(s, 0.0):.1f}" for label, s in stages) +
            f", all stages {ms['bench::snapshot_stages']:.1f} ms")
        c, f = j["composed_obligations"], j["global_fallbacks"]
        if c:
            log(f"    comp.compositional_ratio {stats.format_ratio(c - f, c)}"
                f" ({f} global fallbacks)")
    covered = sum(v for k, v in by_layer.items() if k != "bench")
    log("  layer self times (ms): " + ", ".join(
        f"{k} {v:.1f}" for k, v in sorted(by_layer.items())))
    log(f"  layers cover {covered / traced_wall:.1%} of the traced wall "
        f"{traced_wall:.1f} ms; the rest is the benchmark's own glue")


def run_traced(name, w, seed, workdir, tally):
    rng = random.Random(seed)
    if w.get("serve"):
        metrics, extra, info = run_serve(0, rng, workdir, tally)
        p = info["last_pass"]
        models = {m: p["paths"][m] for m in p["models"]}
        compose = False
        untraced = metrics["wall_s"]
    else:
        metrics, extra, info = run_check(name, w, 0, rng, workdir, tally)
        compose = w["compose"]
        models = {}
        for n in sorted(w["sizes"]):
            models[(w["family"], n)] = generate(w["family"], n, workdir)
        untraced = metrics["wall_s"]
    rdir = os.path.join(workdir, "replay")
    os.makedirs(rdir, exist_ok=True)
    jobs, spans = replay(models, compose, rdir, tally, name)
    m, more, by_layer, traced_wall = layer_metrics(jobs, spans, untraced)
    log(f"{name} traced replay (single-threaded, in-process), "
        f"untraced wall_s {untraced:.3f} s:")
    print_replay(jobs, by_layer, traced_wall)
    if w.get("serve"):
        more.update(serve_layer_metrics(info["last_pass"]))
    trace_out = os.path.join(OUT, f"trace-{name}.jsonl")
    shutil.copyfile(os.path.join(rdir, "spans.jsonl"), trace_out)
    if w.get("serve"):
        # The load client's requests, on its own clock (origin: first send).
        with open(trace_out, "a") as f:
            for k, r in enumerate(info["last_pass"]["requests"]):
                f.write(json.dumps({
                    "id": len(spans) + k, "name": "net::Client::request",
                    "job": r["id"], "op": "", "parent": -1,
                    "start_ms": r["start_ms"], "end_ms": r["end_ms"]}) + "\n")
    log(f"  spans written to {os.path.relpath(trace_out)}")
    return m, more


def serve_layer_metrics(p):
    reqs = [r for r in p["requests"] if r["kind"]]
    s = p["stats"]
    counters = json.loads(s.get("metrics", "{}")).get("counters", {})
    lookups = s.get("cache_hits", 0) + s.get("cache_misses", 0)
    extra = {
        "service.cache_hit_ratio": (
            stats.ratio(s.get("cache_hits", 0), lookups), "ratio",
            "base lookups: " + stats.format_ratio(s.get("cache_hits", 0),
                                                  lookups)),
        "service.snapshot_reuses": (counters.get("snapshot_reuses", 0),
                                    "count", ""),
        "service.cache_inserts": (s.get("cache_inserts", 0), "count", ""),
        "net.busy": (sum(r["busy"] for r in p["requests"]), "count", ""),
    }
    if "journal.jsonl" in p["files"]:
        extra["service.journal_bytes"] = (p["files"]["journal.jsonl"],
                                          "bytes", "")
    if "cache/obligations.jsonl" in p["files"]:
        extra["service.cache_store_bytes"] = (
            p["files"]["cache/obligations.jsonl"], "bytes", "")
    if reqs:
        n = f"{len(reqs)} requests"
        extra["net.roundtrip_ms.p50"] = (statistics.median([r["ms"] for r in reqs]),
                                         "ms", n)
        extra["net.server_ms.p50"] = (
            statistics.median([r["server_ms"] for r in reqs]), "ms", n)
        extra["net.overhead_ms.p50"] = (
            statistics.median([r["ms"] - r["server_ms"] for r in reqs]), "ms", n)
    return {k: v for k, v in extra.items() if v[0] is not None}


# ---------------------------------------------------------------------------

def result_line(tally, metrics):
    """The run's last line: a run is correct only when every operation was
    decided as answers.json says."""
    return {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items() if v is not None},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    name, w = args.workload, WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally()
    try:
        if args.trace:
            metrics, extra = run_traced(name, w, args.seed, workdir, tally)
        else:
            rng = random.Random(args.seed)
            if w.get("serve"):
                raw, extra, info = run_serve(args.seconds, rng, workdir, tally)
            else:
                raw, extra, info = run_check(name, w, args.seconds, rng,
                                             workdir, tally)
            metrics = {k: (raw[k], unit) for k, unit in END_TO_END}
            log(f"  setup_s median of {info['setup']} set-ups; wall_s, cpu_s "
                f"and peak_rss_mb medians over {info['passes']} passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, (v, unit) in metrics.items():
        log(f"  {k} = {v:.6g} {unit}" if v is not None else f"  {k}: omitted")
    for k, (v, unit, note) in extra.items():
        log(f"  {k} = {v:.6g} {unit}" + (f"  ({note})" if note else ""))
    log(f"  failed_ratio = {stats.format_ratio(tally.failed, tally.attempted)}"
        " (obligations not decided correctly within the limits)")
    for p in tally.problems[:20]:
        log(f"  FAILED {p}")
    print(json.dumps(result_line(tally, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
