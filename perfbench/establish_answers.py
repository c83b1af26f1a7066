#!/usr/bin/env python3
"""Write answers.json: the expected verdict of every obligation of every
model a workload can run.  Run once from the repository root:

    python3 perfbench/establish_answers.py

The verdicts come from engines independent of the symbolic engines the
benchmark measures, at the sizes they can decide, plus the families' design:

1. The explicit-state checker (kripke, via `probe explicit`) decides every
   component and composed obligation of afs2(1) and ring(3..5).
2. The explicit BES solver (`cmc check --engine bes`) decides every
   component obligation of afs2(1..4) and ring(3..8).
3. By construction every member of a family instantiates the same spec
   templates per client / station (src/gen/modelgen.cpp), and every
   template holds at the sizes above, so every obligation of every size
   is expected to hold.  The obligation ids of a model are read from its
   generated text (answers.obligation_ids), not from a checker run.
"""

import json
import os
import subprocess
import sys
import tempfile

import answers
import run

EXPLICIT = [("afs2", 1), ("ring", 3), ("ring", 4), ("ring", 5)]
BES = [("afs2", n) for n in range(1, 5)] + [("ring", n) for n in range(3, 9)]


def explicit_verdicts(path):
    out = subprocess.run([run.PROBE, "explicit", "--compose", path],
                         check=True, capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


def bes_verdicts(path, directory):
    report = os.path.join(directory, "bes.report.json")
    subprocess.run([run.CMC, "check", "--engine", "bes", "--no-cache",
                    "--no-journal", "--quiet", "--report", report, "--trace",
                    os.path.join(directory, "bes.trace.jsonl"), path],
                   check=True, stdout=subprocess.DEVNULL)
    with open(report) as f:
        obligations = json.load(f)["obligations"]
    engines = {a["engine"] for o in obligations for a in o["attempts"]}
    if engines != {"bes"}:
        raise SystemExit(f"{path}: BES did not decide every obligation "
                         f"(engines {sorted(engines)})")
    return {o["id"]: o["verdict"] for o in obligations}


def workload_models():
    models = set()
    for w in run.WORKLOADS.values():
        if w.get("serve"):
            models |= {("afs2", n, False) for n in run.SERVE_AFS2}
            models |= {("ring", n, False) for n in run.SERVE_RING}
        else:
            models |= {(w["family"], n, w["compose"]) for n in w["sizes"]}
    return sorted(models)


def main():
    run.build()
    provenance = {"method": __doc__.split("\n\n", 2)[2].strip(),
                  "explicit": {}, "bes": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        def text_ids(family, n, compose):
            path = run.generate(family, n, tmp)
            with open(path) as f:
                return path, answers.obligation_ids(f.read(), compose)

        for family, n in EXPLICIT:
            path, ids = text_ids(family, n, True)
            verdicts = explicit_verdicts(path)
            if answers.mismatches(dict.fromkeys(ids, "Holds"), verdicts):
                raise SystemExit(f"explicit checker: {family}({n}) "
                                 f"disagrees: {verdicts}")
            provenance["explicit"][f"{family}_{n}"] = len(verdicts)
        for family, n in BES:
            path, ids = text_ids(family, n, False)
            verdicts = bes_verdicts(path, tmp)
            if answers.mismatches(dict.fromkeys(ids, "Holds"), verdicts):
                raise SystemExit(f"BES: {family}({n}) disagrees: {verdicts}")
            provenance["bes"][f"{family}_{n}"] = len(verdicts)

        models = {}
        for family, n, compose in workload_models():
            _, ids = text_ids(family, n, compose)
            models[answers.model_key(family, n, compose)] = dict.fromkeys(
                ids, "Holds")
    with open(answers.ANSWERS_PATH, "w") as f:
        json.dump({"provenance": provenance, "models": models}, f, indent=0,
                  sort_keys=True)
        f.write("\n")
    print(f"wrote {len(models)} models, "
          f"{sum(len(v) for v in models.values())} obligations to "
          f"{os.path.relpath(answers.ANSWERS_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
