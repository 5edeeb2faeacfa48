"""Shared fixtures: the 3x7 non-Fano configuration and small helpers.

Expected values tagged as derived in the test files were produced by the
in-file brute-force oracles (minor enumeration over the matrix columns),
never by the code paths under test.
"""

from collections import deque
from itertools import combinations

import pytest

from algval.algmat import Matroid
from algval.ffpoly import INF, CircuitVector, Polynomial
from algval.groebner import Ideal, eliminate
from algval.valmat import (
    AxiomReport,
    InconsistentValuationError,
    Valuation,
    valuated_circuit_family,
)

# The 3x7 exponent matrix of the non-Fano parametrization: column i holds
# the exponents of the monomial x_i in the parameters t1, t2, t3.
NONFANO_A = (
    (1, 0, 0, 1, 1, 0, 1),
    (0, 1, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1, 1, 1),
)

NONFANO_VARS = tuple(f"x{i}" for i in range(1, 8))

# Kernel presentation of the same configuration: x4=t1t2, x5=t1t3,
# x6=t2t3, x7=t1t2t3 with x1,x2,x3 mapping to the free parameters, so
# the graph relations already generate the full prime ideal.
NONFANO_GENERATORS = (
    "x4 - x1*x2",
    "x5 - x1*x3",
    "x6 - x2*x3",
    "x7 - x1*x2*x3",
)


@pytest.fixture(scope="session")
def nonfano_ideal():
    return Ideal.from_strings(2, NONFANO_VARS, NONFANO_GENERATORS)


def S(*elements):
    """Frozenset of 1-based elements, converted to internal 0-based."""
    return frozenset(e - 1 for e in elements)


def columns(matrix, subset):
    return [[row[j] for j in sorted(subset)] for row in matrix]


def minor_det(matrix, rows, cols):
    """Determinant by Laplace expansion; oracle-grade, exact ints."""
    rows, cols = list(rows), list(cols)
    if not rows:
        return 1
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    total = 0
    for k, c in enumerate(cols):
        entry = matrix[rows[0]][c]
        if entry:
            sub = minor_det(matrix, rows[1:], cols[:k] + cols[k + 1:])
            total += (-1) ** k * entry * sub
    return total


def column_rank(matrix, subset):
    """Rank of a column subset via exhaustive nonzero-minor search."""
    d = len(matrix)
    cols = sorted(subset)
    for size in range(min(d, len(cols)), 0, -1):
        for rsel in combinations(range(d), size):
            for csel in combinations(cols, size):
                if minor_det(matrix, rsel, csel) != 0:
                    return size
    return 0


def basis_rank(matroid, subset):
    """Rank of a subset as the largest |subset & B| over the basis masks,
    without the bitsets the matroid keeps."""
    s = sum(1 << e for e in subset)
    return max((m & s).bit_count() for m in matroid.masks)


def exchange_holds(bases):
    """The basis-exchange axiom by the pair scan: for every two bases b1,
    b2 and u in b1 - b2, some v in b2 - b1 makes b1 - u + v a basis."""
    bases = {frozenset(b) for b in bases}
    return all(
        any(b1 - {u} | {v} in bases for v in b2 - b1)
        for b1 in bases for b2 in bases for u in b1 - b2
    )


def reference_exchange_failure(n, masks):
    """The exchange check on basis masks that ORs holding[v] only when
    it adds a basis: the reference for the check made in the pass that
    builds the near sets.  The first violation as (position of b1,
    position of b2, element u of b1), or None when the family passes."""
    holding = [0] * n
    for k, m in enumerate(masks):
        for e in range(n):
            if m >> e & 1:
                holding[e] |= 1 << k
    known = set(masks)
    everyone = (1 << len(masks)) - 1
    for k1, m1 in enumerate(masks):
        outside = [v for v in range(n) if not m1 >> v & 1]
        for u in range(n):
            if not m1 >> u & 1:
                continue
            rest = m1 ^ 1 << u
            ok = holding[u]
            for v in outside:
                if holding[v] & ~ok and (rest | 1 << v) in known:
                    ok |= holding[v]
            if ok != everyone:
                failing = everyone & ~ok
                return k1, (failing & -failing).bit_length() - 1, u
    return None


def probe_exchange_table(n, masks):
    """One pass over every (basis b, u in b, v outside b) of bases on
    {0..n-1}, given as ints with bit e set for element e, that asks
    whether b - u + v is a basis.  Row k of the table holds, for each e,
    the fundamental circuit of e (e outside the k-th basis) or its
    fundamental cocircuit (e inside).  Returns (rows, None), or (None,
    (k1, k2, u)) for the first basis b1 and u in it, in order, whose
    cocircuit misses a basis, and the first such b2: exchange holds
    exactly when every basis meets every fundamental cocircuit.  The
    reference for the near sets of the (r-1)-sets B - u and the far sets
    of the (r+1)-sets B + v that a Matroid keeps, which hold the same
    entries without probing each v."""
    bits = [1 << e for e in range(n)]
    holding = [0] * n
    for k, m in enumerate(masks):
        for e, b in enumerate(bits):
            if m & b:
                holding[e] |= 1 << k
    known = set(masks)
    everyone = (1 << len(masks)) - 1
    rows = []
    for k1, m in enumerate(masks):
        row = bits[:]
        outside = [(v, b) for v, b in enumerate(bits) if not m & b]
        for u, ubit in [(u, b) for u, b in enumerate(bits) if m & b]:
            rest = m ^ ubit
            ok = holding[u]
            for v, vbit in outside:
                if rest | vbit in known:
                    row[u] |= vbit
                    row[v] |= ubit
                    ok |= holding[v]
            if ok != everyone:  # the lowest clear bit of ok is the first b2
                return None, (k1, (~ok & ok + 1).bit_length() - 1, u)
        rows.append(row)
    return rows, None


def frozenset_fundamental_circuit(known, b, v):
    """The circuit of v and every u with b - u + v in the set of bases
    known, on frozensets."""
    return frozenset({v}) | {u for u in b if b - {u} | {v} in known}


def frozenset_fundamental_circuits(matroid):
    """The fundamental-circuit sweep written on frozensets: for each
    basis in order and each outside element v in ascending order, the
    circuit of v and every u with basis - u + v a basis, keeping the
    first pair per circuit; circuits ascending by size then
    lexicographically.  The reference for the circuits read off the far
    sets."""
    known = set(matroid.bases)
    found = {}
    for b in matroid.bases:
        for v in range(matroid.n):
            if v not in b:
                found.setdefault(frozenset_fundamental_circuit(known, b, v), (b, v))
    order = sorted(found, key=lambda c: (len(c), sorted(c)))
    return {c: found[c] for c in order}


def reference_table_family(valuation, inside):
    """Canonical vectors on the circuits (inside false) or cocircuits
    (inside true) as an earlier design read them: the rows of
    probe_exchange_table, one per basis, scanned in order for circuits
    and in reverse for cocircuits, elements ascending, each vector built
    at the first (basis b, element v) whose row entry it is, with entry
    u = value(b - {u, v} + {u, v} swapped) less the least such value.  On
    a valuation that is not a valuated matroid the pair decides the
    entries, so this pins which pair each vector is read from."""
    m = valuation.matroid
    value = {sum(1 << e for e in b): x for b, x in valuation.items()}
    rows = probe_exchange_table(m.n, m.masks)[0]
    found = {}
    for mask, row in list(zip(m.masks, rows))[::-1 if inside else 1]:
        for v, circuit in enumerate(row):
            if mask >> v & 1 == inside and circuit not in found:
                swapped = mask ^ 1 << v
                support = [u for u in range(m.n) if circuit >> u & 1]
                raw = {u: value[swapped ^ 1 << u] for u in support}
                low = min(raw.values())
                found[circuit] = CircuitVector(
                    [raw[u] - low if u in raw else INF for u in range(m.n)])
    return sorted(found.values(), key=CircuitVector.sort_key)


def minimal_dependent_sets(n, dependent, max_size):
    """Yield the minimal dependent subsets of {0..n-1} with at most
    max_size elements, ascending by size then lexicographically.

    dependent is asked only about sets that contain no set already
    yielded; since every smaller set was asked first, each set it
    flags is minimal.  The reference enumeration for circuits read off
    a basis family or a minor table."""
    found = []
    for size in range(1, max_size + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if any(c <= s for c in found):
                continue
            if dependent(s):
                found.append(s)
                yield s


def reference_valuation_from_circuits(matroid, vcircuits):
    """Basis values by a breadth-first search over the exchange graph
    from the first basis, then a full pass of
    reference_check_exchange_consistency over the result; the two-pass
    reference for the single exchange walk.  Circuits are computed on
    frozensets, not read off the far sets."""
    by_support = {c.support: c.canonical() for c in vcircuits}
    if set(by_support) != set(frozenset_fundamental_circuits(matroid)):
        raise InconsistentValuationError("circuit covers do not match the matroid")
    known = set(matroid.bases)
    start = matroid.bases[0]
    values = {start: 0}
    queue = deque([start])
    ground = set(range(matroid.n))
    while queue:
        b = queue.popleft()
        for v in ground - b:
            circ = by_support[frozenset_fundamental_circuit(known, b, v)]
            for u in circ.support - {v}:
                neighbor = b - {u} | {v}
                if neighbor not in values:
                    values[neighbor] = values[b] + circ[u] - circ[v]
                    queue.append(neighbor)
    if len(values) != len(matroid.bases):
        raise InconsistentValuationError("exchange graph left bases unreached")
    valuation = Valuation(matroid, values)
    report = reference_check_exchange_consistency(valuation, vcircuits)
    if report.violations:
        raise InconsistentValuationError(report.violations[0])
    return valuation


def reference_check_exchange_consistency(valuation, vcircuits=None):
    """The exchange identity at every (basis, u, v), with the infinite
    sides compared by asking the basis family whether basis - u + v is a
    basis: the same checks and messages as the exchange walk."""
    report = AxiomReport()
    m = valuation.matroid
    known = set(m.bases)
    if vcircuits is None:
        vcircuits = valuated_circuit_family(valuation)
    by_support = {c.support: c.canonical() for c in vcircuits}
    ground = set(range(m.n))
    for b in m.bases:
        for v in ground - b:
            support = frozenset_fundamental_circuit(known, b, v)
            circ = by_support.get(support)
            if circ is None:
                report.violations.append(
                    f"no valuated circuit on support {sorted(support)}"
                )
                continue
            for u in b:
                report.checked += 1
                neighbor = b - {u} | {v}
                left_inf = circ[u] == INF
                right_inf = neighbor not in known
                if left_inf != right_inf:
                    report.violations.append(
                        f"infinite sides disagree at basis {sorted(b)}, "
                        f"u={u}, v={v}"
                    )
                    continue
                if left_inf:
                    continue
                lhs = valuation.value(b) + circ[u]
                rhs = valuation.value(neighbor) + circ[v]
                if lhs != rhs:
                    report.violations.append(
                        f"exchange identity fails at basis {sorted(b)}, "
                        f"u={u}, v={v}: {lhs} != {rhs}"
                    )
    return report


def reference_minor(valuation, delete=(), contract=()):
    """The greedy completion: a greedy basis of the contracted set, then
    greedy padding from the deleted set until the kept elements and the
    completion span; each basis of the minor, completed, is a basis of
    the original and keeps its value.  The reference for minors by
    deletion and duality."""
    delete = frozenset(delete)
    contract = frozenset(contract)
    if delete & contract:
        raise ValueError(
            f"delete and contract sets overlap: {sorted(delete & contract)}"
        )
    m = valuation.matroid
    ground = frozenset(range(m.n))
    if not (delete | contract) <= ground:
        raise ValueError("delete/contract sets outside the ground set")
    keep = sorted(ground - delete - contract)
    b_f = set()
    for i in sorted(contract):
        if basis_rank(m, b_f | {i}) == len(b_f) + 1:
            b_f.add(i)
    padding = set()
    base = set(keep) | contract
    cur = basis_rank(m, base)
    for g in sorted(delete):
        if cur == m.rank:
            break
        if basis_rank(m, base | padding | {g}) > cur:
            padding.add(g)
            cur += 1
    completion = frozenset(b_f | padding)
    values = {}
    for b in m.bases:
        if completion <= b and b - completion <= set(keep):
            values[b - completion] = valuation.values[b]
    position = {e: i for i, e in enumerate(keep)}
    dense = {frozenset(position[e] for e in b): v for b, v in values.items()}
    labels = tuple(valuation.labels[e] for e in keep)
    return Valuation(Matroid(len(keep), dense.keys()), dense, labels=labels)


def saturate_by_inverse_variable(ideal, monomial):
    """The saturation (I : m^inf) with no grading: a fresh inverse
    variable w with w*m - 1 is adjoined and then eliminated.  The
    reference for the graded saturation."""
    monomial = tuple(monomial)
    if ideal.is_zero():
        return ideal
    w = "w_"
    while w in ideal.vars:
        w += "_"
    ext_vars = ideal.vars + (w,)
    field = ideal.field
    lifted = [
        Polynomial(field, ext_vars, {e + (0,): c for e, c in g.terms.items()})
        for g in ideal.generators
    ]
    inverse = Polynomial(
        field, ext_vars, {monomial + (1,): 1, (0,) * (ideal.n + 1): -1},
    )
    kept = eliminate(Ideal(field, ext_vars, lifted + [inverse]), range(ideal.n))
    stripped = [
        Polynomial(field, ideal.vars, {e[:-1]: c for e, c in g.terms.items()})
        for g in kept
    ]
    return Ideal(field, ideal.vars, stripped)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "criterion" in nodeid:
                name = nodeid.split("::")[-1]
                rows[name] = "PASS" if outcome == "passed" else "FAIL"
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{rows[name]} {name}")
