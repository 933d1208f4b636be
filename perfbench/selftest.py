"""Shows that the benchmark's checks are not vacuous.

    python3 perfbench/selftest.py [--seed 0]

Runs every operation of every workload once.  Each genuine output must pass
its check (the known-fault operations must fail it), and every corrupted
copy of an output must be rejected.  Exits 1 when any of that does not hold.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import workloads


def _scaled(value, factor, first_only=False):
    """Copy of a JSON value with its numbers (or only the first nonzero one)
    scaled by ``factor``."""
    done = [False]

    def walk(v):
        if done[0] or isinstance(v, bool):
            return v
        if isinstance(v, (int, float)) and v != 0:
            done[0] = first_only
            return v * factor
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        return v

    return walk(copy.deepcopy(value))


def cli_corruptions(argv, out):
    """Wrong outputs of one command, each of which its check must reject."""
    code, text = out
    doc = json.loads(text)
    wrong = [(code + 1, text), (code, text[: len(text) // 2])]
    command = argv[0]
    if command == "decide" and doc["similar"]:
        w = doc["witness"]
        wrong.append({**doc, "witness": {**w, "d": _scaled(w["d"], 1.01, first_only=True)}})
        wrong.append({**doc, "witness": {**w, "sigma": w["sigma"][1:] + w["sigma"][:1]}})
        wrong.append({"similar": False})
    elif command == "decide":
        wrong.append({"similar": True, "witness": {"m": 3, "sigma": [1], "d": [[1.0, 0.0]]}})
    elif command in ("transform", "product"):
        wrong.append({**doc, "entries": _scaled(doc["entries"], 1.001)})
    elif command == "invariants":
        wrong.append({**doc, "nnz": doc["nnz"] + 1})
        wrong.append({**doc, "is_diagonal": not doc["is_diagonal"]})
        wrong.append({**doc, "canonical_hash": "0" * 64})
    elif command == "charpoly":
        wrong.append({**doc, "spectrum": _scaled(doc["spectrum"], 1.001)})
        wrong.append({**doc, "spectrum": doc["spectrum"][1:]})
    elif command == "check-witness":
        wrong.append({**doc, "passed": False})
        wrong.append({**doc, "unit_preserving": False})
    elif command == "decompose":
        wrong.append({**doc, "sigma": doc["sigma"][1:] + doc["sigma"][:1]})
        wrong.append({**doc, "d": _scaled(doc["d"], 1.01, first_only=True)})
    return [w if isinstance(w, tuple) else (code, json.dumps(w, indent=2)) for w in wrong]


def witness_corruptions(ts, w, n):
    """Wrong results of ``decide_similar`` for a pair of dimension ``n``."""
    if w is None:
        return [ts.StructuredWitness(ts.Permutation.identity(n), ts.DiagonalScaling.ones(n), 3)]
    d = np.array(w.d.values)
    d[0] *= 1.01
    images = w.sigma.images
    return [
        None,
        ts.StructuredWitness(w.sigma, ts.DiagonalScaling(d), w.m),
        ts.StructuredWitness(ts.Permutation(images[1:] + images[:1]), w.d, w.m),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    ts = run.import_tensim()
    if ts is None:
        print(f"error: no tensim package under {run.SRC}", file=sys.stderr)
        return 2
    problems = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name, build in workloads.WORKLOADS.items():
            ops = build(ts, args.seed, workdir)
            outputs = {op.key: op.run() for op in ops}
            rejected = 0
            for op in ops:
                out = outputs[op.key]
                if run.Run.passes(op, outputs) == op.known_fault:
                    problems.append(f"{op.key}: genuine output judged wrongly")
                if op.known_fault:
                    continue
                if op.argv:
                    wrong = cli_corruptions(op.argv, out)
                else:
                    wrong = witness_corruptions(ts, out, op.dim)
                for bad in wrong:
                    if run.Run.passes(op, {**outputs, op.key: bad}):
                        problems.append(f"{op.key}: corrupted output accepted")
                    else:
                        rejected += 1
            print(f"{name}: {len(ops)} outputs checked, {rejected} corruptions rejected")
        for k in range(20):
            a, b, _, _ = workloads.forward_pair(workloads.rng_for(args.seed, "proof", k), 3, 5, 1.0)
            if checks.provably_not_similar(a, b):
                problems.append(f"forward pair {k} passed the not-similar proof")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print("PROBLEM:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
