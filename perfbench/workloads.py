"""Workload families, seeded input generation and output checks.

Every input is drawn from ``random.Random(seed)``; the program under test
only ever sees the JSON problem files written here.  The checks use
exact arithmetic from the standard library (``fractions``), or compare
one route of the program against the other, and never run inside the
timed region.

The two elimination-route workloads draw their instances from
``catalogue.json`` instead of drawing matrices afresh: one op on a
random 3x7 toric matrix costs anywhere from 0.04 s to over 30 s, so a
pass of a dozen fresh draws would change length by a factor of two from
one seed to the next.  The catalogue holds candidates from the same
families with the cost of each of its ops, counted in Python function
calls so that it does not depend on the load of the machine.  A seed takes one
candidate from each cost band and keeps the draw only if the mean,
median and tail of its op costs match a fixed reference pool within
``BALANCE`` (see ``balanced_draw``), so seeds change the instances but
not the shape of the latency distribution.  Run ``make_catalogue.py``
to rebuild it.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(HERE, "catalogue.json")
BALANCE = 0.03

# The 3x7 exponent matrix of the non-Fano parametrization.
NONFANO = ((1, 0, 0, 1, 1, 0, 1), (0, 1, 0, 1, 0, 1, 1), (0, 0, 1, 0, 1, 1, 1))


# -- exact linear algebra, independent of the program ------------------------


def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def determinant(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def p_valuation(k: int, p: int) -> int:
    k = abs(k)
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


# -- input families ----------------------------------------------------------


def random_matrix(rng, d, n, lo, hi):
    """Full row rank, no zero column, entries uniform in [lo, hi]."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)]
        if all(any(r[j] for r in rows) for j in range(n)) and rank(rows) == d:
            return rows


def random_exponents(rng, d=3, k=4, hi=2):
    """k nonzero exponent columns in [0, hi]^d, stored as d rows."""
    cols = []
    while len(cols) < k:
        col = [rng.randint(0, hi) for _ in range(d)]
        if any(col):
            cols.append(col)
    return [[c[i] for c in cols] for i in range(d)]


def graph_matrix(a):
    """[I_d | A]: the toric presentation of the graph ideal of A."""
    d = len(a)
    return [[int(i == j) for j in range(d)] + list(a[i]) for i in range(d)]


def graph_generators(a):
    """x_{d+k} - x^{a_k} for each column a_k of A."""
    d, k = len(a), len(a[0])
    out = []
    for j in range(k):
        factors = [
            f"x{i + 1}" if a[i][j] == 1 else f"x{i + 1}^{a[i][j]}"
            for i in range(d) if a[i][j]
        ]
        out.append(f"x{d + j + 1} - " + "*".join(factors))
    return out


def matrix_problem(rows, p):
    return {"kind": "matrix", "p": p, "rows": len(rows), "cols": len(rows[0]),
            "entries": [list(r) for r in rows]}


def ideal_problem(a, p):
    n = len(a) + len(a[0])
    return {"kind": "ideal", "p": p, "vars": [f"x{i}" for i in range(1, n + 1)],
            "generators": graph_generators(a)}


def load_catalogue():
    with open(CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    return (100 * (n - 10)) // n


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[-(-pct * len(sorted_values) // 100) - 1]


def profile(op_costs, pct):
    xs = sorted(op_costs)
    return (sum(xs) / len(xs), statistics.median(xs), percentile(xs, pct))


def balanced_draw(rng, by_p, picks, pct, fixed=()):
    """One candidate per cost band for each (p, bands) in ``picks``,
    redrawn until the mean, median and pct-th percentile of the op costs
    of the draw plus ``fixed`` are each within BALANCE of those of the
    pool made of every band's middle candidate.  Returns (p, candidate)
    pairs with p alternating in the order listed."""
    bands = {}
    for p, count in picks:
        ranked = sorted(by_p[str(p)], key=lambda c: sum(c["op_calls"]))
        size = len(ranked) // count
        bands[p] = [ranked[i * size:(i + 1) * size] for i in range(count)]

    def costs(pool):
        return [*fixed, *(s for p in pool for c in pool[p] for s in c["op_calls"])]

    target = profile(costs({p: [b[len(b) // 2] for b in bands[p]] for p in bands}), pct)
    while True:
        chosen = {p: [rng.choice(band) for band in bands[p]] for p in bands}
        got = profile(costs(chosen), pct)
        if all(abs(g / t - 1) <= BALANCE for g, t in zip(got, target)):
            break
    for p in chosen:
        rng.shuffle(chosen[p])
    order = []
    for i in range(max(len(v) for v in chosen.values())):
        for p, _ in picks:
            if i < len(chosen[p]):
                order.append((p, chosen[p][i]))
    return order


# -- workloads ---------------------------------------------------------------


@dataclass
class Instance:
    """One problem file and the commands run on it, in order."""

    name: str
    problem: dict
    ops: list                   # argv tails after the input path
    cached: bool = False        # ops get a fresh --cache directory per pass
    reference: dict = None      # a matrix problem for the same ideal
    # what check_output compares against, filled on first use
    expected: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    passes_min: int
    # groebner counters the traced run must see at zero on this workload
    expect_zero: tuple
    instances: list = field(default_factory=list)

    @property
    def ops_per_pass(self):
        return sum(len(i.ops) for i in self.instances)

    @property
    def tail_percentile(self):
        return tail_percentile(self.ops_per_pass * self.passes_min)


GROEBNER_COUNTS = ("groebner.saturate.calls", "groebner.eliminate.calls",
                   "groebner.buchberger.calls", "groebner.normal_form.calls")


def crosscheck_toric(seed):
    rng = random.Random(seed)
    catalogue = load_catalogue()
    w = Workload("crosscheck-toric", 3, ())
    w.instances.append(Instance("nonfano", matrix_problem(NONFANO, 2),
                                [["cross-check"]], cached=True))
    pct = tail_percentile(14 * w.passes_min)
    draw = balanced_draw(rng, catalogue["crosscheck-toric"], [(3, 7), (2, 6)], pct,
                         catalogue["nonfano_calls"])
    for k, (p, cand) in enumerate(draw):
        w.instances.append(Instance(f"toric{k}", matrix_problem(cand["entries"], p),
                                    [["cross-check"]], cached=True))
    return w


def ideal_session(seed):
    rng = random.Random(seed)
    cat = load_catalogue()["ideal-session"]
    w = Workload("ideal-session", 3, ("groebner.saturate.calls",))
    pct = tail_percentile(8 * 7 * w.passes_min)
    for k, (p, cand) in enumerate(balanced_draw(rng, cat, [(2, 4), (3, 4)], pct)):
        a = cand["a"]
        n = len(a) + len(a[0])
        delete, contract = rng.sample(range(1, n + 1), 2)
        alpha = ",".join(str(rng.randint(-1, 1)) for _ in range(n))
        ops = [["valuation"], ["bases"], ["circuits"], ["cocircuits"],
               ["minor", "--delete", str(delete), "--contract", str(contract)],
               ["flock", "--alpha", alpha], ["verify"]]
        w.instances.append(Instance(f"session{k}", ideal_problem(a, p), ops,
                                    cached=True,
                                    reference=matrix_problem(graph_matrix(a), p)))
    return w


def matrix_valuation(seed):
    rng = random.Random(seed)
    w = Workload("matrix-valuation", 3, GROEBNER_COUNTS)
    for k in range(14):
        rows = random_matrix(rng, 4, 12, -3, 4)
        w.instances.append(Instance(f"matrix{k}", matrix_problem(rows, (2, 3)[k % 2]),
                                    [["valuation"]]))
    return w


def verify_box(seed):
    rng = random.Random(seed)
    w = Workload("verify-box", 4, GROEBNER_COUNTS)
    for k in range(10):
        rows = random_matrix(rng, 3, 7, -2, 3)
        w.instances.append(Instance(f"verify{k}", matrix_problem(rows, (2, 3)[k % 2]),
                                    [["verify"]]))
    return w


WORKLOADS = {
    "crosscheck-toric": crosscheck_toric,
    "ideal-session": ideal_session,
    "matrix-valuation": matrix_valuation,
    "verify-box": verify_box,
}


# -- output checks -----------------------------------------------------------


class CheckFailed(Exception):
    pass


def expected_valuation(problem):
    """Basis -> p-adic valuation of its maximal minor, shifted to min 0,
    computed with Fraction determinants on a row basis."""
    rows, p = problem["entries"], problem["p"]
    basis_rows = []
    for r in rows:
        if rank(basis_rows + [r]) > len(basis_rows):
            basis_rows.append(r)
    d, n = len(basis_rows), len(rows[0])
    values = {}
    for cols in combinations(range(n), d):
        det = determinant([[r[j] for j in cols] for r in basis_rows])
        if det:
            values[tuple(j + 1 for j in cols)] = p_valuation(det.numerator, p)
    low = min(values.values())
    return {b: v - low for b, v in values.items()}


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "input_sha256"}


def check_output(workload, inst, op, code, text, reference_run):
    """Raise CheckFailed unless ``text`` (the op's stdout) is right.

    ``reference_run(problem, argv_tail)`` runs the matrix route of the
    program on ``problem`` and returns its parsed JSON document."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}")
    command = op[0]
    if command == "cross-check":
        if doc.get("agree") is not True:
            raise CheckFailed(f"routes disagree: {doc.get('details')}")
    elif command == "verify":
        if doc.get("ok") is not True:
            raise CheckFailed("verify reported violations")
    elif workload == "matrix-valuation":
        if "bases" not in inst.expected:
            inst.expected["bases"] = expected_valuation(inst.problem)
        got = {tuple(b["set"]): b["value"] for b in doc.get("bases", ())}
        if got != inst.expected["bases"]:
            raise CheckFailed("basis values differ from the p-adic minors")
    else:
        key = tuple(op)
        if key not in inst.expected:
            inst.expected[key] = _strip(reference_run(inst.reference, op))
        if _strip(doc) != inst.expected[key]:
            raise CheckFailed(f"{command} differs from the matrix route")
        if command == "valuation":
            inst.expected["cold"] = doc
        elif command in ("bases", "circuits", "cocircuits"):
            cold = inst.expected.get("cold")
            if cold is None or doc[command] != cold[command]:
                raise CheckFailed(f"warm {command} differs from the cold document")
