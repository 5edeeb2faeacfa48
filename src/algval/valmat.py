"""Valuated matroids presented by circuits.

Each circuit polynomial yields a vector of minimum p-adic exponent
valuations; shifting by multiples of the all-ones vector does not
change the class, so one canonical representative (minimum finite entry
0) is kept per circuit.  The basis valuation is recovered from the
exchange identity

    value(B) + C_u = value(B - u + v) + C_v

which ties the values of adjacent bases to the entries of the circuit
spanned inside B + {v}; the identity holds with both sides infinite
exactly when B - u + v is not a basis.  One walk over the bases in
their sorted order gives each neighbor without a value its value from
the identity and checks the identity at every other one.  Duality,
cocircuits, minors and executable checks live here as well: verify's
certificate chain (the 3-term Plucker relations, one canonical vector
per support, the identity per vector) and the pair checks it implies,
the circuit axioms and orthogonality, kept for the library and its
tests.  A minor is a deletion, which
completes every basis by one fixed subset of the deleted set, followed
by a contraction, which is a deletion in the dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

from algval.algmat import Matroid, _holding, _mask
from algval.ffpoly import INF, CircuitVector, circuit_vector


class InconsistentValuationError(RuntimeError):
    """Two propagation paths assign different values to one basis; the
    supplied circuit data does not come from a valuated matroid."""


class Valuation:
    """Integer value per basis, stored in distinguished form: the minimum
    over all bases is 0.  labels maps ground-set positions to original
    element ids (identity except for minors)."""

    __slots__ = ("matroid", "values", "labels", "_masked", "_plucker")

    def __init__(self, matroid: Matroid, values, labels=None):
        self.matroid = matroid
        vals = {frozenset(b): int(v) for b, v in values.items()}
        if set(vals) != set(matroid.bases):
            raise ValueError("values must cover exactly the bases of the matroid")
        shift = min(vals.values())
        if shift:
            vals = {b: v - shift for b, v in vals.items()}
        self.values = vals
        self.labels = tuple(labels) if labels is not None else tuple(range(matroid.n))
        self._masked = None
        self._plucker = None

    @property
    def n(self):
        return self.matroid.n

    def value(self, basis) -> int:
        return self.values[frozenset(basis)]

    def by_mask(self) -> dict:
        """The values keyed by basis mask (Matroid.masks), built on first use."""
        if self._masked is None:
            self._masked = {m: v for m, (_, v) in zip(self.matroid.masks, self.items())}
        return self._masked

    def plucker(self) -> "AxiomReport":
        """check_plucker_relations(self), computed on first use."""
        if self._plucker is None:
            self._plucker = check_plucker_relations(self)
        return self._plucker

    def items(self):
        """(basis, value) pairs in deterministic order."""
        return [(b, self.values[b]) for b in self.matroid.bases]

    def __eq__(self, other):
        return (isinstance(other, Valuation)
                and self.matroid == other.matroid
                and self.values == other.values
                and self.labels == other.labels)

    def __repr__(self):
        return f"Valuation(rank={self.matroid.rank}, bases={len(self.values)})"


def valuated_circuits(circuit_records):
    """One canonical circuit vector per circuit polynomial, sorted by
    support then entries."""
    out = [circuit_vector(rec.polynomial).canonical() for rec in circuit_records]
    return sorted(out, key=lambda c: c.sort_key())


def valuation_from_circuits(matroid: Matroid, vcircuits) -> Valuation:
    """Walk the exchange identity from value 0 at the first basis, then
    shift so the minimum is 0.

    Circuit supports that differ from the matroid's circuits, or an
    exchange edge the walk finds violated, mean the circuit family does
    not come from a valuated matroid: a corrupted family, or an ideal
    that is not prime.  The walk checks the identity at every (basis, u,
    v) where it gives no value, and the values it gives satisfy the
    identity there.
    """
    by_support = {c.support: c.canonical() for c in vcircuits}
    matroid_circuits = set(matroid.circuits())
    if set(by_support) != matroid_circuits:
        missing = sorted(map(sorted, matroid_circuits - set(by_support)))
        extra = sorted(map(sorted, set(by_support) - matroid_circuits))
        raise InconsistentValuationError(
            f"circuit covers do not match the matroid (missing {missing}, "
            f"unexpected {extra})"
        )
    # every start basis gives the same values after the shift to minimum 0
    values = {matroid.bases[0]: 0}
    report = _exchange_walk(matroid, by_support, values)
    if report.violations:
        raise InconsistentValuationError(report.violations[0])
    return Valuation(matroid, values)


def _table_vector(n, value, key, circuit) -> CircuitVector:
    """Canonical circuit vector on circuit, an int mask: entry u is
    value[key ^ {u}] less the least such value, one lookup per set bit of
    circuit.  key is B + v for the fundamental circuit of (B, v), whose
    entry u is read at B - u + v, and B - u for the fundamental cocircuit
    of u in B, whose entry v is read there too."""
    entries, support = [INF] * n, []
    while circuit:
        bit = circuit & -circuit
        u = bit.bit_length() - 1
        entries[u] = value[key ^ bit]
        support.append(u)
        circuit ^= bit
    low = min(entries)
    if low:
        for u in support:
            entries[u] -= low
    return CircuitVector.trusted(tuple(entries), frozenset(support))


def fundamental_valuated_circuit(valuation: Valuation, basis, v) -> CircuitVector:
    """Canonical circuit vector supported on the unique circuit inside
    basis + {v}, rebuilt from basis values via the exchange identity."""
    support = valuation.matroid.fundamental_circuit(basis, v)
    return _table_vector(valuation.n, valuation.by_mask(), _mask(basis) | 1 << v,
                         _mask(support))


def _table_family(valuation: Valuation, inside):
    """Canonical vectors on the fundamental circuits (inside false) or
    cocircuits (inside true), each read at the first key whose set it is.
    Circuits take the far sets in order, which is the order of their
    first (basis, outside element); cocircuits take the near sets of
    B - u over the bases in reverse, the dual's order, and u ascending."""
    m, value, found = valuation.matroid, valuation.by_mask(), {}
    if inside:
        near = m.near()
        keys = [mask ^ 1 << u for mask in reversed(m.masks)
                for u in _elements(mask)]
        pairs = zip(keys, map(near.__getitem__, keys))
    else:
        pairs = m.far().items()
    for key, circuit in pairs:
        if circuit not in found:
            found[circuit] = _table_vector(m.n, value, key, circuit)
    return sorted(found.values(), key=CircuitVector.sort_key)


def valuated_circuit_family(valuation: Valuation):
    """All canonical valuated circuits, recovered from the valuation, each
    from the first (basis, outside element) whose circuit it is."""
    return _table_family(valuation, False)


def dual(valuation: Valuation) -> Valuation:
    """Complement the bases and transport the values; the minimum is
    preserved, so the result is already in distinguished form."""
    ground = frozenset(range(valuation.n))
    values = {ground - b: v for b, v in valuation.values.items()}
    return Valuation(valuation.matroid.dual(), values, labels=valuation.labels)


def cocircuits(valuation: Valuation):
    """Canonical valuated circuits of the dual, read off the fundamental
    cocircuits without building the dual; their supports are the
    complements of the hyperplanes."""
    return _table_family(valuation, True)


def _delete(valuation: Valuation, delete) -> Valuation:
    """Delete a set, relabeling the kept elements densely.  X, the
    deleted part of the first basis that keeps the most elements, is a
    basis of the contraction to the deleted set, so each basis of the
    deletion together with X is a basis of the original and carries its
    value; another choice of X shifts every value by one constant.  The
    bases keep their order, and a deletion needs no exchange check."""
    if not delete:
        return valuation
    m = valuation.matroid
    keep = [e for e in range(m.n) if e not in delete]
    x = min(m.bases, key=lambda b: len(b & delete)) & delete
    position = {e: i for i, e in enumerate(keep)}
    values = {frozenset(position[e] for e in b - x): v
              for b, v in valuation.items() if b & delete == x}
    labels = tuple(valuation.labels[e] for e in keep)
    return Valuation(Matroid.trusted(len(keep), values), values, labels=labels)


def minor(valuation: Valuation, delete=(), contract=()) -> Valuation:
    """Valuated minor: delete one set and contract another (disjoint)
    one, relabeled to a dense ground set whose labels track the original
    elements.  Contraction is deletion in the dual, M/C = (M* \\ C)*."""
    delete = frozenset(delete)
    contract = frozenset(contract)
    if delete & contract:
        raise ValueError(
            f"delete and contract sets overlap: {sorted(delete & contract)}"
        )
    if not (delete | contract) <= frozenset(range(valuation.n)):
        raise ValueError("delete/contract sets outside the ground set")
    keep = [e for e in range(valuation.n) if e not in delete]
    contract = frozenset(i for i, e in enumerate(keep) if e in contract)
    return dual(_delete(dual(_delete(valuation, delete)), contract))


@dataclass
class AxiomReport:
    """Outcome of an executable axiom suite; empty violations = pass."""

    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_plucker_relations(valuation: Valuation) -> AxiomReport:
    """The 3-term tropical Plucker relations, one check each, every
    failing one listed: for each (r-2)-set S inside a basis and a < b <
    c < d outside it, the least of w(Sab) + w(Scd), w(Sac) + w(Sbd) and
    w(Sad) + w(Sbc), INF off the bases, is attained twice.  On the bases
    of a matroid they hold exactly when the values form a valuated
    matroid (Murota, Matrices and Matroids for Systems Analysis, 2000,
    section 5.2; Dress-Wenzel, Valuated matroids, Adv. Math. 1992).
    Matroid(...) checks exchange, and Matroid.trusted builds only duals
    and deletions, so the support is a matroid."""
    report = AxiomReport()
    if valuation.matroid.rank < 2:
        return report
    value, n = valuation.by_mask(), valuation.n
    inner = set()
    for m in value:
        bits = [1 << e for e in range(n) if m >> e & 1]
        inner.update(m ^ a ^ b for a, b in combinations(bits, 2))
    report.checked = len(inner) * comb(n - valuation.matroid.rank + 2, 4)
    for s in sorted(inner):
        outside = [1 << e for e in range(n) if not s >> e & 1]
        w = {a | b: value.get(s | a | b, INF) for a, b in combinations(outside, 2)}
        for a, b, c, d in combinations(outside, 4):
            terms = (w[a | b] + w[c | d], w[a | c] + w[b | d], w[a | d] + w[b | c])
            low, second, _ = sorted(terms)
            if low < second:
                report.violations.append(
                    f"3-term relation at S={sorted(_elements(s))}, "
                    f"{[e.bit_length() - 1 for e in (a, b, c, d)]}: the least "
                    f"of {', '.join(map(str, terms))} is attained once")
    return report


def check_supports(vectors, supports) -> AxiomReport:
    """Whether the vectors lie one on each set in supports, the circuits
    of a matroid or the complements of its hyperplanes, on no other set,
    each in canonical form.  One check per vector and per support."""
    report = AxiomReport(checked=len(vectors) + len(supports))
    expected, seen = set(supports), set()
    for c in vectors:
        if c.support in seen:
            report.violations.append(
                f"a second vector {c} on support {sorted(c.support)}")
        elif c.support not in expected:
            report.violations.append(
                f"{c} lies on {sorted(c.support)}, outside the expected supports")
        elif not c.is_canonical:
            report.violations.append(f"{c} is not canonical")
        seen.add(c.support)
    report.violations += [f"no vector on support {s}"
                          for s in sorted(map(sorted, expected - seen))]
    return report


def check_circuit_axioms(vcircuits, matroid: Matroid) -> AxiomReport:
    """Exhaustively verify the four circuit axioms of a valuated matroid
    on canonical representatives.

    (1) the supports are the circuits of the matroid; (2)+(3) the family
    holds exactly one canonical representative per support; (4) for every
    support pair spanning a rank deficit of two, every alignment at a
    shared finite entry u and every separating element v admits a family
    member that avoids u, matches the aligned value at v, and dominates
    the entrywise minimum.
    """
    report = AxiomReport()
    vectors = [c for c in vcircuits]
    supports = [c.support for c in vectors]
    masks = list(map(_mask, supports))

    # (1) support family = circuits of the matroid
    expected = set(matroid.circuits())
    got = set(supports)
    report.checked += 1
    if got != expected:
        report.violations.append(
            f"axiom 1: supports {sorted(map(sorted, got))} differ from the "
            f"matroid circuits {sorted(map(sorted, expected))}"
        )
    for c in vectors:
        report.checked += 1
        if not c.support:
            report.violations.append("axiom 1: empty support")
    report.checked += len(masks) ** 2
    # the supports inside a set are those that hold no element outside it
    holding = _holding(max(masks, default=0).bit_length(), masks)
    everyone = (1 << len(masks)) - 1

    def members(mask):
        inside = everyone
        for e, h in enumerate(holding):
            if not mask >> e & 1:
                inside &= ~h
        found = []
        while inside:
            b = inside & -inside
            found.append(b.bit_length() - 1)
            inside ^= b
        return found

    nested = sorted((a, b) for b, mb in enumerate(masks)
                    for a in members(mb) if masks[a] != mb)
    for a, b in nested:
        report.violations.append(
            f"axiom 1: support {sorted(supports[a])} strictly inside "
            f"{sorted(supports[b])}"
        )

    # (2)+(3): canonical representatives, unique per support
    seen = {}
    for c in vectors:
        report.checked += 1
        # an empty support has no finite entry to be 0: axiom 1 lists it
        if c.support and not c.is_canonical:
            report.violations.append(f"axiom 2/3: {c} is not canonical")
        if c.support in seen and seen[c.support] != c:
            report.violations.append(
                f"axiom 3: two distinct representatives on support "
                f"{sorted(c.support)}"
            )
        seen[c.support] = c

    # (4) elimination with controlled entries, on the pairs whose union
    # has a rank deficit of two, each union ranked once; a union of more
    # than rank + 2 elements has a larger deficit.  An eliminating member
    # d lies inside the union minus u, since a finite entry outside it
    # would sit below an infinite floor; on a valuated matroid that set
    # holds exactly one circuit, and many pairs share it.  d, shifted to
    # match c at v, dominates the floor exactly when c[v] - d[v] is at
    # least d's largest gap floor[x] - d[x] over its support; the gap at
    # v is c[v] - d[v] itself, so d serves v exactly when v lies in d's
    # support and its gap is largest there.  The pair taken the other
    # way round shifts the floor and every gap by -lam, so one floor per
    # unordered pair and u serves both.
    limit = matroid.rank + 2
    inside_of, found = {}, []
    for i, mi in enumerate(masks):
        partners = [j for j in range(i + 1, len(masks))
                    if (mi | masks[j]).bit_count() <= limit]
        for j in partners:
            union = mi | masks[j]
            size = union.bit_count()
            if vectors[i] is vectors[j] or matroid.rank_of_mask(union) != size - 2:
                continue
            shared, apart = _elements(mi & masks[j]), _elements(mi ^ masks[j])
            report.checked += len(shared) * len(apart)
            c, cp = vectors[i].entries, vectors[j].entries
            for u in shared:
                lam = c[u] - cp[u]
                inside = union ^ 1 << u
                if (candidates := inside_of.get(inside)) is None:
                    candidates = inside_of[inside] = [
                        (_elements(masks[k]), vectors[k].entries)
                        for k in members(inside) if masks[k]]
                served = set()
                for elements, d in candidates:
                    gaps = [min(c[x], cp[x] + lam) - d[x] for x in elements]
                    most = max(gaps)
                    served.update(x for x, gap in zip(elements, gaps) if gap == most)
                found += [(i, j, u, v) if mi >> v & 1 else (j, i, u, v)
                          for v in apart if v not in served]
    for i, j, u, v in sorted(found):
        report.violations.append(
            f"axiom 4: no eliminating circuit for supports "
            f"{sorted(supports[i])}, {sorted(supports[j])} with u={u}, v={v}"
        )
    return report


@lru_cache(maxsize=1 << 12)
def _elements(mask):
    """The elements of a mask, ascending."""
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


def check_exchange_consistency(valuation: Valuation, vcircuits=None) -> AxiomReport:
    """Check the exchange identity at every (basis, u, v) against the
    valuated circuit on the fundamental circuit of basis + v."""
    if vcircuits is None:
        vcircuits = valuated_circuit_family(valuation)
    by_support = {c.support: c.canonical() for c in vcircuits}
    return _exchange_walk(valuation.matroid, by_support, dict(valuation.values))


def _exchange_walk(matroid: Matroid, by_support, values) -> AxiomReport:
    """For each basis b in order, v outside b and u in the circuit of
    b + v, give b - u + v its value from the exchange identity if it has
    none yet, else check the identity there.  values holds the first
    basis and gains the rest: each later basis b has an earlier
    neighbor, since for v in the first (greedy) basis and outside b the
    circuit of b + v holds some u > v, and b - u + v sorts before b."""
    report = AxiomReport()
    by_mask = {_mask(c): circ for c, circ in by_support.items()}
    ground, far = set(range(matroid.n)), matroid.far()
    for b, m in zip(matroid.bases, matroid.masks):
        if b not in values:
            raise InconsistentValuationError("exchange graph left bases unreached")
        for v in ground - b:
            circ = by_mask.get(far[m | 1 << v])
            if circ is None:
                support = sorted(matroid.fundamental_circuit(b, v))
                report.violations.append(f"no valuated circuit on support {support}")
                continue
            for u in b:
                report.checked += 1
                if circ[u] == INF:
                    continue
                lhs = values[b] + circ[u]
                rhs = values.setdefault(b - {u} | {v}, lhs - circ[v]) + circ[v]
                if lhs != rhs:
                    report.violations.append(
                        f"exchange identity fails at basis {sorted(b)}, "
                        f"u={u}, v={v}: {lhs} != {rhs}"
                    )
    return report


def check_orthogonality(circuit_vectors, cocircuit_vectors) -> AxiomReport:
    """For every circuit/cocircuit pair with intersecting supports, the
    minimum of the entrywise sum must be attained at least twice.  The
    sums are taken where the supports meet: every other sum has an
    infinite term, so it is neither the minimum nor ties it."""
    report = AxiomReport()
    cocircs = [(_mask(d.support), d) for d in cocircuit_vectors]
    for c in circuit_vectors:
        mask, entries = _mask(c.support), c.entries
        meets = [(mask & m, d) for m, d in cocircs if mask & m]
        report.checked += len(meets)
        for meet, d in meets:
            f = d.entries
            sums = [entries[e] + f[e] for e in _elements(meet)]
            if sums.count(min(sums)) < 2:
                report.violations.append(
                    f"minimum of circuit {c} + cocircuit {d} attained once"
                )
    return report
