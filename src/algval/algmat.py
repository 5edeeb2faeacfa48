"""Algebraic matroid of an ideal, read off from elimination ideals.

A subset S of the ground set is independent exactly when the ideal
meets the subring on the variables indexed by S in zero.  Circuits are
the minimal dependent sets; each carries the monic generator of its
(principal) elimination ideal, the circuit polynomial.  Only bases()
asks the oracle about subsets; circuits() reads the circuits off the
basis family and takes each polynomial from that circuit's own
elimination.  Elimination is by far the dominant cost, so elimination
queries are memoized and can optionally persist to an on-disk cache
shared between runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations

from algval.ffpoly import Polynomial, parse_polynomial
from algval.groebner import Ideal, NotPrincipalError, eliminate, principal_generator


def _mask(elements) -> int:
    """The int with bit e set for each element e."""
    return sum(1 << e for e in frozenset(elements))


def exchange_failure(n, masks):
    """The first violation of basis exchange in a family of bases on
    {0..n-1}, each given as an int with bit e set for element e: the
    positions of bases b1 and b2 and the element u of b1 at which they
    fail, or None when the family passes.

    Bases b2 satisfy exchange with b1 at u in b1 exactly when they hold
    u or some v outside b1 with b1 - u + v a basis.  holding[e] has bit
    k set when the k-th basis holds e, so one pass over each (b1, u, v)
    finds every b2 that fails, and the first one is reported."""
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


class Matroid:
    """Matroid on ground set {0..n-1} given by its bases; the
    basis-exchange axiom is verified on construction.  masks[k] is the
    k-th basis as an int with bit e set for element e; adjacency tests
    run on these ints."""

    __slots__ = ("n", "bases", "rank", "masks", "_maskset", "_sweep")

    def __init__(self, n, bases):
        cleaned = sorted({frozenset(b) for b in bases}, key=sorted)
        if not cleaned:
            raise ValueError("a matroid needs at least one basis")
        sizes = {len(b) for b in cleaned}
        if len(sizes) != 1:
            raise ValueError(f"bases of unequal size: {sorted(sizes)}")
        ground = frozenset(range(n))
        for b in cleaned:
            if not b <= ground:
                raise ValueError(f"basis {sorted(b)} outside ground set of size {n}")
        self._adopt(n, tuple(cleaned), tuple(map(_mask, cleaned)))
        failure = exchange_failure(n, self.masks)
        if failure is not None:
            b1, b2, u = self.bases[failure[0]], self.bases[failure[1]], failure[2]
            raise ValueError(
                f"basis exchange fails for {[e + 1 for e in sorted(b1)]}, "
                f"{[e + 1 for e in sorted(b2)]} at {u + 1}"
            )

    def _adopt(self, n, bases, masks):
        """Fill the slots from sorted, distinct bases of equal size and
        their masks."""
        self.n = n
        self.bases = bases
        self.rank = len(bases[0])
        self.masks = masks
        self._maskset = frozenset(masks)
        self._sweep = None

    def rank_of(self, subset) -> int:
        s = _mask(subset)
        return max((m & s).bit_count() for m in self.masks)

    def circuits(self):
        """Minimal dependent sets, ascending by size then
        lexicographically."""
        return list(self.fundamental_circuits())

    def fundamental_circuits(self) -> dict:
        """Each circuit, ascending by size then lexicographically, mapped
        to the first (basis, outside element) whose fundamental circuit
        it is, taking bases in order and elements in ascending order;
        every circuit is the fundamental circuit of some such pair.

        The circuit of (basis m, element v) collects v and each u in m
        with m - u + v a basis, all on masks, and each distinct circuit
        becomes a frozenset once.  The sweep runs once per matroid; each
        call returns a fresh copy of it."""
        if self._sweep is None:
            known = self._maskset
            found = {}
            for b, m in zip(self.bases, self.masks):
                rests = [(1 << u, m ^ 1 << u) for u in b]
                for v in range(self.n):
                    bit = 1 << v
                    if m & bit:
                        continue
                    c = bit
                    for ubit, rest in rests:
                        if rest | bit in known:
                            c |= ubit
                    if c not in found:
                        found[c] = (b, v)
            as_sets = {
                frozenset(e for e in range(self.n) if c >> e & 1): pair
                for c, pair in found.items()
            }
            order = sorted(as_sets, key=lambda c: (len(c), sorted(c)))
            self._sweep = {c: as_sets[c] for c in order}
        return dict(self._sweep)

    def fundamental_circuit(self, basis, v) -> frozenset:
        """The unique circuit inside basis + {v}; always contains v."""
        basis = frozenset(basis)
        m = _mask(basis)
        known = self._maskset
        if m not in known:
            raise ValueError(f"{sorted(basis)} is not a basis")
        if v in basis:
            raise ValueError(f"{v} already lies in the basis")
        bit = 1 << v
        return frozenset([v, *(u for u in basis if (m ^ 1 << u) | bit in known)])

    def hyperplanes(self):
        """Maximal subsets of rank one less than the matroid."""
        if self.rank < 1:
            raise ValueError("hyperplanes need rank at least 1")
        out = []
        ground = set(range(self.n))
        for size in range(self.n, -1, -1):
            for combo in combinations(range(self.n), size):
                h = frozenset(combo)
                if self.rank_of(h) != self.rank - 1:
                    continue
                if all(self.rank_of(h | {v}) == self.rank for v in ground - h):
                    out.append(h)
        return sorted(out, key=sorted)

    def dual(self) -> "Matroid":
        """The matroid of the complements of the bases.  They pass basis
        exchange because these bases do, so they are not checked again;
        complementing equal-size sets reverses their order by elements,
        so the dual's bases come out sorted."""
        ground = frozenset(range(self.n))
        full = (1 << self.n) - 1
        out = Matroid.__new__(Matroid)
        out._adopt(self.n, tuple(ground - b for b in reversed(self.bases)),
                   tuple(full ^ m for m in reversed(self.masks)))
        return out

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.n == other.n
                and self._maskset == other._maskset)

    def __hash__(self):
        return hash((self.n, self._maskset))

    def __repr__(self):
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.bases)})"


@dataclass(frozen=True)
class CircuitRecord:
    """A circuit support together with its monic circuit polynomial."""

    support: frozenset
    polynomial: Polynomial

    def __post_init__(self):
        if self.support != self.polynomial.support():
            raise ValueError(
                f"circuit support {sorted(self.support)} does not match the "
                f"variables of {self.polynomial}"
            )


class EliminationOracle:
    """Memoized elimination queries against a fixed ideal.

    With a cache directory, each elimination result is persisted as a
    JSON file keyed by (ideal fingerprint, subset); files are written to
    a temporary name and renamed into place, so concurrent runs that
    compute identical content can share a directory safely.  The oracle
    also keeps the matroid that bases() builds, so the callers sharing
    an oracle build and exchange-check the basis family once.
    """

    def __init__(self, ideal: Ideal, cache_dir=None, fingerprint=None):
        self.ideal = ideal
        self._memo = {}
        self._matroid = None
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            if fingerprint is None:
                raise ValueError("a cache directory needs an input fingerprint")

    def _cache_path(self, subset):
        mask = sum(1 << i for i in subset)
        return os.path.join(self.cache_dir, f"{self.fingerprint}-elim-{mask:x}.json")

    def elimination(self, subset):
        subset = frozenset(subset)
        if subset in self._memo:
            return self._memo[subset]
        if self.cache_dir is not None:
            try:
                with open(self._cache_path(subset), encoding="utf-8") as fh:
                    texts = json.load(fh)["generators"]
                if not isinstance(texts, list):
                    raise TypeError("cached generators are not a list")
                gens = tuple(
                    parse_polynomial(t, self.ideal.vars, self.ideal.field.p)
                    for t in texts
                )
            except (FileNotFoundError, KeyError, TypeError, ValueError):
                # a missing or corrupt entry is a miss and gets rewritten;
                # ValueError covers undecodable JSON or text and ParseError
                pass
            else:
                self._memo[subset] = gens
                return gens
        gens = tuple(eliminate(self.ideal, subset))
        self._memo[subset] = gens
        if self.cache_dir is not None:
            payload = json.dumps({"generators": [str(g) for g in gens]})
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                os.replace(tmp, self._cache_path(subset))
            except BaseException:
                os.unlink(tmp)
                raise
        return gens

    def independent(self, subset) -> bool:
        return not self.elimination(subset)


def independent(ideal: Ideal, subset, oracle=None) -> bool:
    """True iff the elimination ideal on the subset's variables is zero."""
    oracle = oracle or EliminationOracle(ideal)
    return oracle.independent(subset)


def rank(ideal: Ideal, subset, oracle=None) -> int:
    """Size of a maximum independent subset, grown greedily (exchange
    makes greedy exact)."""
    oracle = oracle or EliminationOracle(ideal)
    current = []
    for i in sorted(subset):
        if oracle.independent(frozenset(current) | {i}):
            current.append(i)
    return len(current)


def circuits(ideal: Ideal, oracle=None):
    """The circuits of the basis family, ascending by size then
    lexicographically, each with its circuit polynomial: the generator
    of its own elimination ideal.  A circuit whose elimination ideal is
    zero or not principal, or whose polynomial is a p-th power (every
    exponent divisible by p), means the ideal is not prime
    (NotPrincipalError); primality is not otherwise decided."""
    oracle = oracle or EliminationOracle(ideal)
    p = ideal.field.p
    found = []
    for s in bases(ideal, oracle).circuits():
        gens = oracle.elimination(s)
        if not gens:
            names = ", ".join(ideal.vars[i] for i in sorted(s))
            raise NotPrincipalError(
                f"circuit {{{names}}} of the basis family has a zero "
                f"elimination ideal: the ideal is not prime"
            )
        f = principal_generator(gens)
        if all(e % p == 0 for expo in f.terms for e in expo):
            raise NotPrincipalError(
                f"circuit polynomial {f} is a {p}-th power: the ideal is not prime"
            )
        found.append(CircuitRecord(s, f))
    return found


def bases(ideal: Ideal, oracle=None) -> Matroid:
    """The matroid whose bases are the independent subsets of full rank,
    with basis exchange checked; the oracle keeps it for later calls.
    Independent sets that fail exchange mean the ideal is not prime
    (NotPrincipalError)."""
    oracle = oracle or EliminationOracle(ideal)
    if oracle._matroid is not None:
        return oracle._matroid
    n = ideal.n
    if not oracle.independent(frozenset()):
        raise NotPrincipalError("the unit ideal carries no matroid")
    r = rank(ideal, range(n), oracle)
    family = [
        frozenset(combo)
        for combo in combinations(range(n), r)
        if oracle.independent(frozenset(combo))
    ]
    try:
        oracle._matroid = Matroid(n, family)
    except ValueError as exc:
        raise NotPrincipalError(
            f"the independent sets are not a matroid ({exc}): "
            f"the ideal is not prime"
        )
    return oracle._matroid


def hyperplanes(matroid: Matroid):
    return matroid.hyperplanes()
