"""Algebraic matroid of an ideal, read off from elimination ideals.

A subset S of the ground set is independent exactly when the ideal
meets the subring on the variables indexed by S in zero.  Circuits are
the minimal dependent sets; each carries the monic generator of its
(principal) elimination ideal, the circuit polynomial.  Only bases()
asks the oracle about subsets; circuits() reads the circuits off the
basis family and takes each polynomial from that circuit's own
elimination.  A Matroid rests on two mask-keyed dicts.  The near set
of an (r-1)-set R holds the elements that complete R to a basis; the
near set of B - u is the fundamental cocircuit of u in B.  The exchange
check builds the near sets with the bases that meet them, so exchange
at (B, u) is one dict lookup, and the matroid keeps them; a dual or a
deletion passes exchange by construction and builds them alone.  The
far set of an (r+1)-set S holds the elements whose removal leaves a
basis; the far set of B + v is the fundamental circuit of (B, v).  Rank
reads one int per element, the bases holding it, which the exchange
check also builds; a set X + e is independent exactly when some basis
holds X and e.  Hyperplanes are closures of the sets B - u, read off
the basis masks alone.
Elimination is by far the dominant cost, so the oracle decides a set
before eliminating it where a certificate does: an input
generator on the set proves it dependent, and the leading monomials of
the Groebner bases earlier eliminations computed can prove it
independent.  Each elimination it runs removes one variable from an
ideal it has already restricted, so no block of the order holds more
than one eliminated variable.  Answers are memoized and can optionally
persist between runs in one cache file per input, which the oracle reads
at most once and its save() writes once.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations

from algval.ffpoly import Polynomial, parse_polynomial
from algval.groebner import Ideal, NotPrincipalError, eliminate, principal_generator

CACHE_FORMAT = 2  # the version of the elimination cache file


def _mask(elements) -> int:
    """The int with bit e set for each element e."""
    return sum(1 << e for e in frozenset(elements))


def _holding(n, masks):
    """The members of a family of sets on {0..n-1} that hold each
    element: one int per element e, with bit k set when masks[k] holds
    e."""
    holding = [0] * n
    k = 1
    for m in masks:
        while m:
            b = m & -m
            holding[b.bit_length() - 1] |= k
            m ^= b
        k <<= 1
    return holding


def _neighbourhoods(n, masks):
    """The near sets of the (r-1)-sets of bases on {0..n-1}, given as
    ints with bit e set for element e, the exchange failure and the
    bases' _holding.  One pass over every (basis b, u in b) with R = b -
    u sets bit u of near[R], so near[R] ends up as every v with R + v a
    basis, and ORs holding[u], the bases holding u, into reach[R], which
    ends up as the bases that meet near[R].  The fundamental cocircuit
    of u in b is near[b - u], so exchange holds at (b1, u) exactly when
    reach[b1 - u] is every basis.  Returns (near, None, holding), or
    (near, (k1, k2, u), holding) for the first b1 and u in it, in order,
    that fail, and the first basis b2 outside reach[b1 - u]."""
    holding = _holding(n, masks)
    near, reach = {}, {}
    for m in masks:
        x = m
        while x:
            b = x & -x
            x ^= b
            rest = m ^ b
            near[rest] = near.get(rest, 0) | b
            reach[rest] = reach.get(rest, 0) | holding[b.bit_length() - 1]
    everyone = (1 << len(masks)) - 1
    if min(reach.values(), default=everyone) == everyone:
        return near, None, holding
    # some reach misses a basis: find the first (b1, u) in order
    for k1, m in enumerate(masks):
        for u in range(n):
            if m >> u & 1 and (ok := reach[m ^ 1 << u]) != everyone:
                # the lowest clear bit of ok is the first b2
                return near, (k1, (~ok & ok + 1).bit_length() - 1, u), holding


def _near_sets(masks):
    """The near sets of a family that passes exchange, as
    _neighbourhoods builds them but without its check: bit u of
    near[b - u] for every basis b and u in b."""
    near = {}
    for m in masks:
        x = m
        while x:
            b = x & -x
            x ^= b
            near[m ^ b] = near.get(m ^ b, 0) | b
    return near


def exchange_failure(n, masks):
    """The (k1, k2, u) failure of _neighbourhoods, or None."""
    return _neighbourhoods(n, masks)[1]


class Matroid:
    """Matroid on ground set {0..n-1} given by its bases; the
    basis-exchange axiom is verified on construction.  masks[k] is the
    k-th basis as an int with bit e set for element e; the near sets
    and the bases' _holding that the check produces are kept, and the
    far sets are built on first use."""

    __slots__ = ("n", "bases", "rank", "masks", "_index", "_near", "_far",
                 "_holding")

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
        masks = tuple(map(_mask, cleaned))
        near, failure, holding = _neighbourhoods(n, masks)
        if failure is not None:
            b1, b2, u = cleaned[failure[0]], cleaned[failure[1]], failure[2]
            raise ValueError(
                f"basis exchange fails for {[e + 1 for e in sorted(b1)]}, "
                f"{[e + 1 for e in sorted(b2)]} at {u + 1}"
            )
        self._adopt(n, tuple(cleaned), masks, near, holding)

    @classmethod
    def trusted(cls, n, bases, masks=None):
        """Sorted, distinct bases that pass exchange by construction, as a
        dual's or a deletion's: no check runs; the near sets and the
        bases' _holding come on use."""
        out = cls.__new__(cls)
        out._adopt(n, tuple(bases), masks, None, None)
        return out

    def _adopt(self, n, bases, masks, near, holding):
        self.n = n
        self.bases = bases
        self.rank = len(bases[0])
        self.masks = masks = tuple(masks or map(_mask, bases))
        self._index = {m: k for k, m in enumerate(masks)}
        self._near = near
        self._far = None
        self._holding = holding

    def near(self) -> dict:
        """near[R] for each (r-1)-set R inside a basis, as masks: every v
        with R + v a basis.  The fundamental cocircuit of u in basis B is
        near[B - u].  The exchange check leaves it; a trusted matroid
        builds it on first use, without the check."""
        if self._near is None:
            self._near = _near_sets(self.masks)
        return self._near

    def far(self) -> dict:
        """far[S] for each (r+1)-set S holding a basis, as masks: the one
        circuit inside S, every x with S - x a basis.  The fundamental
        circuit of (B, v) is far[B + v].  Built on first use in one pass
        over each basis in order and each v outside it ascending, setting
        bit v of far[B + v], so the keys come in the order of their first
        such pair."""
        if self._far is None:
            far, full = {}, (1 << self.n) - 1
            for m in self.masks:
                x = full ^ m
                while x:
                    b = x & -x
                    x ^= b
                    s = m | b
                    far[s] = far.get(s, 0) | b
            self._far = far
        return self._far

    def _elements(self, mask) -> frozenset:
        return frozenset(e for e in range(self.n) if mask >> e & 1)

    def rank_of(self, subset) -> int:
        return self.rank_of_mask(_mask(subset))

    def rank_of_mask(self, s) -> int:
        """The rank of the set with mask s: a greedy walk over its
        elements keeps each e that some basis holding the kept set also
        holds, and reach narrows to those bases."""
        if self._holding is None:
            self._holding = _holding(self.n, self.masks)
        reach, kept = (1 << len(self.masks)) - 1, 0
        while s:
            b = s & -s
            s ^= b
            if together := reach & self._holding[b.bit_length() - 1]:
                reach = together
                kept += 1
        return kept

    def circuits(self):
        """Minimal dependent sets, ascending by size then
        lexicographically."""
        return list(self.fundamental_circuits())

    def fundamental_circuits(self) -> dict:
        """Each circuit, ascending by size then lexicographically, mapped
        to the first (basis, outside element) whose fundamental circuit
        it is, taking bases in order and elements in ascending order;
        every circuit is the fundamental circuit of some such pair.  The
        far sets come in the order of their first pairs, and the first
        pair of S is (S - v, v) for v the largest element of far[S]:
        removing a larger element leaves an earlier basis."""
        found = {}
        for s, c in self.far().items():
            if c not in found:
                v = c.bit_length() - 1
                found[c] = (self.bases[self._index[s ^ 1 << v]], v)
        as_sets = {self._elements(c): pair for c, pair in found.items()}
        return dict(sorted(as_sets.items(), key=lambda cp: (len(cp[0]), sorted(cp[0]))))

    def fundamental_circuit(self, basis, v) -> frozenset:
        """The unique circuit inside basis + {v}; always contains v."""
        m = _mask(basis)
        if m not in self._index:
            raise ValueError(f"{sorted(basis)} is not a basis")
        if v in basis:
            raise ValueError(f"{v} already lies in the basis")
        return self._elements(self.far()[m | 1 << v])

    def hyperplanes(self):
        """Maximal subsets of rank one less than the matroid, sorted: the
        closures of the independent (r-1)-sets B - u, each of which adds
        every element e with B - u + e not a basis."""
        if self.rank < 1:
            raise ValueError("hyperplanes need rank at least 1")
        index, bits = self._index, [1 << e for e in range(self.n)]
        below, flats = set(), set()
        for m in self.masks:
            for b in bits:
                if m & b and (r := m ^ b) not in below:
                    below.add(r)
                    flats.add(r | sum(e for e in bits if r | e not in index))
        return sorted(map(self._elements, flats), key=sorted)

    def dual(self) -> "Matroid":
        """The matroid of the complements of the bases, which come out
        sorted: complementing sets of one size reverses their order.  Its
        near and far sets are built from its masks on first use."""
        ground = frozenset(range(self.n))
        full = (1 << self.n) - 1
        return Matroid.trusted(
            self.n, [ground - b for b in reversed(self.bases)],
            [full ^ m for m in reversed(self.masks)])

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.n == other.n
                and self._index.keys() == other._index.keys())

    def __hash__(self):
        return hash((self.n, frozenset(self.masks)))

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
    """Memoized elimination queries against a fixed ideal, answered from
    certificates where it can.

    The ideal on a set K, I meet F_p[x_K], is eliminated from the
    memoized ideal on K + {y}, y the least index missing from K, which
    removes y alone; the whole ideal is the root.  So the ideals on the
    larger sets are shared by all the sets below them, and the answer
    is still the reduced basis of I meet F_p[x_K] under
    BlockElimination(E - K, n), which is unique: the same generators
    as eliminating E - K at once.  These steps leave no cache entry.

    A set that holds the support of an input generator is dependent.  A
    set that holds the support of no leading monomial of a reduced
    Groebner basis of an ideal J, under any order, meets J in zero
    (Kredel-Weispfenning): the leading monomial of a nonzero polynomial
    on the set would be divisible by one of them.  Each J is I meet
    F_p[x_G] for the ground set G of its step, and meeting it in zero
    says the same of I only for subsets of G, so the oracle keeps the
    leading monomials of every basis its eliminations compute tagged
    with G, and eliminates only the sets that no certificate decides.

    With a cache directory, the answers persist in one JSON file per
    input fingerprint, <fingerprint>-elim.json: {"format": 2,
    "eliminations": {subset mask in hex: generator texts}}.  The file is
    read at most once, at the first query the memo misses, and an entry
    is parsed only when its set is queried.  An unreadable or corrupt
    file, one of another format, and an entry that is not a list of
    texts or does not parse are misses, each counted in rejected.  Each
    queried set that is eliminated or certified independent goes into
    the table that save() writes; the sets proved dependent by an input
    generator and the steps between queried sets do not.  save() keeps
    the entries the file holds by then that this run lacks and renames
    a temporary file into place, so runs that save at once may drop each
    other's entries but never leave a partial file; with no new answers
    it writes nothing.  The directory is created if missing; one that
    cannot be created or written raises OSError on construction, and a
    write that fails later (a full disk, say) raises OSError from save()
    and leaves no temporary file.  The oracle also keeps the matroid
    that bases() builds, so the callers sharing an oracle build and
    exchange-check the basis family once.
    """

    def __init__(self, ideal: Ideal, cache_dir=None, fingerprint=None):
        self.ideal = ideal
        self._memo = {}
        self._steps = {}
        self._matroid = None
        self._leads = []
        self._supports = [_mask(g.support()) for g in ideal.generators]
        self.cache_dir = cache_dir
        self.rejected = 0
        self._stored = None
        self._fresh = {}
        if cache_dir is not None:
            if fingerprint is None:
                raise ValueError("a cache directory needs an input fingerprint")
            os.makedirs(cache_dir, exist_ok=True)
            if not os.access(cache_dir, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                      cache_dir)
            self._path = os.path.join(cache_dir, f"{fingerprint}-elim.json")

    def _read_cache(self):
        """The entries of the cache file, unparsed, and whether the file
        was rejected; a missing file has no entries and is not."""
        try:
            with open(self._path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return {}, False
        except (OSError, ValueError, RecursionError):
            # ValueError covers undecodable JSON and text, RecursionError
            # JSON nested too deep to decode
            return {}, True
        if (not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT
                or not isinstance(entries := doc.get("eliminations"), dict)):
            return {}, True
        return entries, False

    def _cached(self, key):
        """The parsed generators the cache file holds under key, or None."""
        if self._stored is None:
            self._stored, rejected = self._read_cache()
            self.rejected += rejected
        if key not in self._stored:
            return None
        texts = self._stored[key]
        if isinstance(texts, list) and all(isinstance(t, str) for t in texts):
            try:
                return tuple(parse_polynomial(t, self.ideal.vars, self.ideal.field.p)
                             for t in texts)
            except ValueError:
                pass
        self.rejected += 1
        return None

    def elimination(self, subset):
        subset = frozenset(subset)
        if subset in self._memo:
            return self._memo[subset]
        key = f"{_mask(subset):x}"
        gens = self._cached(key) if self.cache_dir is not None else None
        if gens is None:
            gens = self._restriction(subset)
            if self.cache_dir is not None:
                self._fresh[key] = [str(g) for g in gens]
        self._memo[subset] = gens
        return gens

    def save(self):
        """Write the answers this run computed into the cache file, with
        every other entry the file holds now; nothing when there are
        none."""
        if not self._fresh:
            return
        entries = {**self._read_cache()[0], **self._fresh}
        payload = json.dumps({"format": CACHE_FORMAT, "eliminations": entries})
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self._path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _restriction(self, keep):
        """The reduced generators of the ideal meet F_p[x_keep], as a
        memoized step: the whole ideal's for the full set, and otherwise
        the step of keep + {y}, y the least index outside keep, with y
        eliminated."""
        if keep in self._steps:
            return self._steps[keep]
        s = _mask(keep)
        if any(not s & ~ground and all(m & ~s for m in leads)
               for ground, leads in self._leads):
            gens = ()
        else:
            y = next((i for i in range(self.ideal.n) if i not in keep), None)
            if y is None:
                ground, gens = s, self.ideal.generators
            else:
                ground, gens = s | 1 << y, self._restriction(keep | {y})
            if gens:
                leads = []
                gens = tuple(eliminate(Ideal(self.ideal.field, self.ideal.vars, gens),
                                       keep, leads))
                self._leads.append((ground, leads[0]))
        self._steps[keep] = gens
        return gens

    def independent(self, subset) -> bool:
        s = _mask(subset)
        if any(not g & ~s for g in self._supports):
            return False
        return not self.elimination(subset)


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
                f"circuit polynomial {f} is a p-th power (p = {p}): "
                f"the ideal is not prime"
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
