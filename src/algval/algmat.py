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


class Matroid:
    """Matroid on ground set {0..n-1} given by its bases; the
    basis-exchange axiom is verified on construction."""

    __slots__ = ("n", "bases", "rank", "_baseset")

    def __init__(self, n, bases):
        self.n = n
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
        self.bases = tuple(cleaned)
        self._baseset = frozenset(cleaned)
        self.rank = sizes.pop()
        self._check_exchange()

    def _check_exchange(self):
        """Bases b2 satisfy exchange with b1 at u in b1 exactly when they
        hold u or some v outside b1 with b1 - u + v a basis.  holding[e]
        has bit k set when the k-th basis holds e, so one pass over each
        (b1, u, v) finds every b2 that fails, and the first one is named
        by 1-based elements."""
        holding = [0] * self.n
        masks = []
        for k, b in enumerate(self.bases):
            for e in b:
                holding[e] |= 1 << k
            masks.append(sum(1 << e for e in b))
        known = set(masks)
        everyone = (1 << len(self.bases)) - 1
        for b1, m1 in zip(self.bases, masks):
            outside = [v for v in range(self.n) if v not in b1]
            for u in sorted(b1):
                rest = m1 ^ 1 << u
                ok = holding[u]
                for v in outside:
                    if holding[v] & ~ok and (rest | 1 << v) in known:
                        ok |= holding[v]
                if ok != everyone:
                    failing = everyone & ~ok
                    b2 = self.bases[(failing & -failing).bit_length() - 1]
                    raise ValueError(
                        f"basis exchange fails for {[e + 1 for e in sorted(b1)]}, "
                        f"{[e + 1 for e in sorted(b2)]} at {u + 1}"
                    )

    def is_basis(self, subset) -> bool:
        return frozenset(subset) in self._baseset

    def rank_of(self, subset) -> int:
        subset = frozenset(subset)
        return max(len(b & subset) for b in self.bases)

    def circuits(self):
        """Minimal dependent sets, ascending by size then
        lexicographically."""
        return list(self.fundamental_circuits())

    def fundamental_circuits(self) -> dict:
        """Each circuit, ascending by size then lexicographically, mapped
        to the first (basis, outside element) whose fundamental circuit
        it is, taking bases in order and elements in ascending order;
        every circuit is the fundamental circuit of some such pair."""
        found = {}
        for b in self.bases:
            for v in range(self.n):
                if v not in b:
                    found.setdefault(self.fundamental_circuit(b, v), (b, v))
        order = sorted(found, key=lambda c: (len(c), sorted(c)))
        return {c: found[c] for c in order}

    def fundamental_circuit(self, basis, v) -> frozenset:
        """The unique circuit inside basis + {v}; always contains v."""
        basis = frozenset(basis)
        if not self.is_basis(basis):
            raise ValueError(f"{sorted(basis)} is not a basis")
        if v in basis:
            raise ValueError(f"{v} already lies in the basis")
        return frozenset({v}) | {
            u for u in basis if basis - {u} | {v} in self._baseset
        }

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
        ground = frozenset(range(self.n))
        return Matroid(self.n, [ground - b for b in self.bases])

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.n == other.n
                and self._baseset == other._baseset)

    def __hash__(self):
        return hash((self.n, self._baseset))

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
