"""Known answers: the committed expected verdict of every obligation of
every model a workload can run (answers.json, made by establish_answers.py).
Verdicts are never taken from the run being measured."""

import json
import os
import re

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "answers.json")


def model_key(family, n, compose):
    return f"{family}_{n}" + ("+compose" if compose else "")


def load(path=ANSWERS_PATH):
    with open(path) as f:
        return json.load(f)["models"]


def obligation_ids(smv_text, compose):
    """The obligation ids a job of this text has, read from the text alone:
    one per (module, SPEC), plus one per SPEC on the composition."""
    specs = []  # (module, number of SPECs)
    for line in smv_text.splitlines():
        m = re.match(r"MODULE\s+(\S+)", line)
        if m:
            specs.append([m.group(1), 0])
        elif re.match(r"SPEC\b", line) and specs:
            specs[-1][1] += 1
    ids = [f"{m}/{m}.SPEC{j}" for m, k in specs for j in range(1, k + 1)]
    if compose and len(specs) > 1:
        ids += [f"composed/{m}.SPEC{j}" for m, k in specs
                for j in range(1, k + 1)]
    return ids


def mismatches(expected, verdicts):
    """Every way `verdicts` ({obligation id: verdict}) differs from
    `expected`: a wrong or undecided verdict, a missing or an extra id."""
    out = []
    for oid, want in expected.items():
        got = verdicts.get(oid)
        if got != want:
            out.append(f"{oid}: expected {want}, got {got or 'no verdict'}")
    for oid in verdicts:
        if oid not in expected:
            out.append(f"{oid}: not a known obligation")
    return out
