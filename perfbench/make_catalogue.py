"""Rebuild catalogue.json, the candidate instances of the two
elimination-route workloads with the cost of each of their ops.

Usage, from the repository root:

    python3 perfbench/make_catalogue.py

For each workload and each p in {2, 3}, candidates are drawn from the
workload's family with a fixed seed.  Each op of a candidate is run once
in this process under ``sys.setprofile``, and its cost is the number of
Python function calls it makes.  Unlike a time, that count does not
depend on what else the machine is doing; on these families op time is
within about 20% of 0.18 us per call.  The ops are ``cross-check`` for
crosscheck-toric and the seven session commands for ideal-session.  A
candidate whose ops make more than CAP_CALLS calls (about 2.5 s) is left
out, so that no single instance takes more than about half a pass; how
many were left out is recorded in the file.  A candidate on which an op
fails stops the build: failures must show in the benchmark, not be
filtered out of it.  The build takes about ten minutes.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import import_program, run_op  # noqa: E402
from workloads import (CATALOGUE, NONFANO, ideal_problem,  # noqa: E402
                       matrix_problem, random_exponents, random_matrix)

MASTER_SEED = 1704
CAP_CALLS = 15_000_000
# stops a candidate far over the cap early; profiling makes ops ~4x slower
ALARM_S = 60
SESSION = (["valuation"], ["bases"], ["circuits"], ["cocircuits"],
           ["minor", "--delete", "1", "--contract", "2"],
           ["flock", "--alpha", "0,0,0,0,0,0,0"], ["verify"])
PER_P = {"crosscheck-toric": 42, "ideal-session": 30}


class OverCap(BaseException):
    """Raised from the timer signal; not an Exception, so it is not
    mistaken for a failing op."""


def _alarm(signum, frame):
    raise OverCap()


def op_calls(cli, problem, ops, directory):
    """Python function calls made by each op, run in order with a fresh
    cache; None if the ops make more than CAP_CALLS calls."""
    path = os.path.join(directory, "problem.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
    cache = tempfile.mkdtemp(dir=directory)
    counts = []
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        for op in ops:
            calls = 0
            sys.setprofile(count)
            try:
                _, code, _, err = run_op(
                    cli, [op[0], path, "--format", "json", "--cache", cache] + op[1:])
            finally:
                sys.setprofile(None)
            if code != 0:
                sys.exit(f"{op} failed on {json.dumps(problem)}: {code} {err}")
            counts.append(calls)
    except OverCap:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return counts if sum(counts) <= CAP_CALLS else None


def main():
    cli = import_program()
    signal.signal(signal.SIGALRM, _alarm)
    out = {"master_seed": MASTER_SEED, "cap_calls": CAP_CALLS, "dropped_over_cap": {}}
    with tempfile.TemporaryDirectory() as directory:
        out["nonfano_calls"] = op_calls(cli, matrix_problem(NONFANO, 2),
                                        [["cross-check"]], directory)
        for workload, wanted in PER_P.items():
            out[workload] = {}
            for p in (2, 3):
                rng = random.Random(f"{MASTER_SEED}-{workload}-{p}")
                kept, dropped = [], 0
                while len(kept) < wanted:
                    if workload == "crosscheck-toric":
                        entries = random_matrix(rng, 3, 7, 0, 2)
                        problem = matrix_problem(entries, p)
                        costs = op_calls(cli, problem, [["cross-check"]], directory)
                        candidate = {"entries": entries}
                    else:
                        a = random_exponents(rng)
                        problem = ideal_problem(a, p)
                        costs = op_calls(cli, problem, SESSION, directory)
                        candidate = {"a": a}
                    if costs is None:
                        dropped += 1
                        continue
                    candidate["op_calls"] = costs
                    kept.append(candidate)
                    print(f"{workload} p={p} {len(kept)}/{wanted} {sum(costs)} calls",
                          file=sys.stderr)
                out[workload][str(p)] = kept
                out["dropped_over_cap"][f"{workload} p={p}"] = dropped
    with open(CATALOGUE, "w", encoding="utf-8") as fh:
        fh.write(catalogue_text(out))


def catalogue_text(out):
    """JSON with one candidate per line."""
    lines = []
    for key, value in out.items():
        if key in PER_P:
            lists = [f'  "{p}": [\n' + ",\n".join(f"   {json.dumps(c)}" for c in cands)
                     + "\n  ]" for p, cands in value.items()]
            lines.append(f' "{key}": {{\n' + ",\n".join(lists) + "\n }")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    main()
