"""Reduced Groebner bases over a prime field.

Buchberger's algorithm with the Gebauer-Moller pair criteria and the
normal (minimum-lcm) selection strategy, block elimination orders,
elimination ideals, principal-generator extraction, and saturation of
an ideal that is homogeneous under a positive grading by a monomial, one
variable at a time under a graded reverse-lex order (Sturmfels, Lemma
12.1).  The reduced basis is unique for a fixed order, so results
are reproducible no matter how the input generators are listed.
Inside the computation each monomial is a single int (see `_Ring`),
and polynomials are converted only on the way in and out.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import mul

from algval.ffpoly import Polynomial, PrimeField


class NotPrincipalError(RuntimeError):
    """An elimination ideal expected to be principal is not; the queried
    set was not a circuit, or the input ideal was not prime."""


class MonomialOrder:
    """Total multiplicative well-order on exponent vectors, given by
    weight rows: a monomial's key is its tuple of weighted row sums,
    compared lexicographically (largest key = leading monomial).  The
    integer rows of weights() come first, then the 0/1 rows of rows()."""

    def weights(self):
        """Nonnegative integer weight rows, one entry per variable, above
        the rows of rows().  An order with any must end with a unit row
        for every variable, from which `_Ring.lcm` rebuilds them."""
        return ()

    def rows(self):
        """The weight rows, each as the tuple of the variables where it
        is 1.  Every variable has a row of its own, and at most one row
        has several variables: it comes just before the rows of exactly
        those variables, which come last."""
        raise NotImplementedError

    def key(self, expo):
        return (*(sum(map(mul, w, expo)) for w in self.weights()),
                *(sum(expo[i] for i in row) for row in self.rows()))


class Lex(MonomialOrder):
    def __init__(self, n, positions=None):
        self.n = n
        self.positions = tuple(positions) if positions is not None else tuple(range(n))

    def rows(self):
        return tuple((i,) for i in self.positions)

    def __repr__(self):
        return f"Lex({self.n}, {self.positions})"


class GradedLex(MonomialOrder):
    def __init__(self, n, positions=None):
        self.n = n
        self.positions = tuple(positions) if positions is not None else tuple(range(n))

    def rows(self):
        return (tuple(range(self.n)), *((i,) for i in self.positions))

    def __repr__(self):
        return f"GradedLex({self.n}, {self.positions})"


class BlockElimination(MonomialOrder):
    """Lex on the eliminated block, tie-broken by graded-lex on the kept
    block; leading monomials free of eliminated variables certify
    membership in the elimination subring."""

    def __init__(self, eliminated, n):
        self.n = n
        self.eliminated = tuple(sorted(eliminated))
        self.kept = tuple(i for i in range(n) if i not in set(self.eliminated))

    def rows(self):
        return (*((i,) for i in self.eliminated), self.kept, *((i,) for i in self.kept))

    def __repr__(self):
        return f"BlockElimination({self.eliminated}, {self.n})"


class GradedRevLex(MonomialOrder):
    """Graded by positive integer weights, then reverse-lex in the
    variable `last`: rows (w), (w with w_last = 0), then the unit rows.
    Among the terms of a w-homogeneous polynomial the leading one has
    the least power of x_last, so x_last divides the leading term
    exactly when it divides every term (Sturmfels, Lemma 12.1)."""

    def __init__(self, grading, last):
        if min(grading) <= 0:
            raise ValueError(f"grading {tuple(grading)} is not positive")
        self.n = len(grading)
        self.grading = tuple(grading)
        self.last = last

    def weights(self):
        w = self.grading
        return w, (*w[:self.last], 0, *w[self.last + 1:])

    def rows(self):
        return tuple((i,) for i in range(self.n))

    def __repr__(self):
        return f"GradedRevLex({self.grading}, {self.last})"


def _check_generators(polys, field, vars):
    for g in polys:
        if g.is_zero():
            raise ValueError("generators must be nonzero polynomials")
        if g.field != field or g.vars != vars:
            raise ValueError("generator context mismatch")


class Ideal:
    """Finitely generated ideal of F_p[x_1..x_n].  An empty generator
    tuple encodes the zero ideal."""

    __slots__ = ("field", "vars", "generators")

    def __init__(self, field: PrimeField, vars, generators):
        self.field = field
        self.vars = tuple(vars)
        self.generators = tuple(generators)
        _check_generators(self.generators, field, self.vars)

    @classmethod
    def from_strings(cls, p, vars, texts):
        from algval.ffpoly import parse_polynomial

        field = PrimeField(p)
        gens = []
        for text in texts:
            f = parse_polynomial(text, vars, p)
            if not f.is_zero():
                gens.append(f)
        return cls(field, vars, gens)

    @property
    def n(self):
        return len(self.vars)

    def is_zero(self):
        return not self.generators

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.field != other.field or self.vars != other.vars:
            return False
        order = GradedLex(self.n)
        return buchberger(self.generators, order) == buchberger(other.generators, order)

    def __repr__(self):
        return f"Ideal(p={self.field.p}, <{', '.join(map(str, self.generators))}>)"


class _Overflow(Exception):
    """A monomial does not fit its bit fields."""


class _Packed(dict):
    """Polynomial inside the core: packed monomial -> coefficient in
    [1, p)."""

    __slots__ = ()

    def is_zero(self):
        return not self


class _Ring:
    """F_p[x] with each monomial packed into one int: one `width`-bit
    field per weight row of the order, the first row most significant.
    Every field of a valid monomial keeps its top (guard) bit clear, so
    a + b is the product of a and b, a < b is the order, and a divides
    b exactly when (b | guard) - a keeps every guard bit; that
    difference ^ guard is then the quotient.  Packing checks the total
    degree times the largest weight, which bounds every field; a sum of
    two valid monomials can only spill into its own guard bits, which
    are checked on each new term.  `_Overflow` is raised when a monomial
    does not fit."""

    __slots__ = ("field", "vars", "p", "width", "guard", "half", "mask", "units",
                 "shifts", "degree", "scale", "weighted", "limit")

    def __init__(self, field, vars, order, width):
        self.field, self.vars, self.p, self.width = field, vars, field.p, width
        weights, rows = order.weights(), order.rows()
        fields = len(weights) + len(rows)
        top = width * (fields - 1)
        self.half = 1 << width - 1
        self.mask = (1 << width) - 1
        self.guard = sum(self.half << top - width * k for k in range(fields))
        # units[i] is x_i packed; shifts[i] places x_i's own row; degree
        # is the number of fields below a row of several variables
        self.units, self.shifts, self.degree = [0] * len(vars), [0] * len(vars), 0
        for k, row in enumerate(rows, len(weights)):
            for i in row:
                self.units[i] += 1 << top - width * k
            if len(row) == 1:
                self.shifts[row[0]] = top - width * k
            else:
                self.degree = len(row)
        # weighted holds (shift, multiplier) per integer row: the product
        # of the unit fields with the multiplier has the row's weighted
        # sum in field n - 1 (see lcm); limit bounds the top fields of
        # two lcm arguments, whose degrees are at most w.a / min(w)
        self.scale = max(map(max, weights), default=1)
        self.weighted, self.limit = [], 0
        low = width * (len(vars) - 1)
        for k, row in enumerate(weights):
            shift = top - width * k
            for i, w in enumerate(row):
                self.units[i] += w << shift
            self.weighted.append(
                (shift, sum(w << low - s for w, s in zip(row, self.shifts))))
        if weights:
            self.limit = min(weights[0]) << width

    def monomial(self, expo):
        # every field's weights are at most scale, so the total degree
        # times scale bounds every field
        if sum(expo) * self.scale >= self.half:
            raise _Overflow
        return sum(map(mul, expo, self.units))

    def exponents(self, m):
        return [m >> s & self.mask for s in self.shifts]

    def support(self, m):
        return sum(1 << i for i, s in enumerate(self.shifts) if m >> s & self.mask)

    def lcm(self, a, b):
        # ge marks the guard bit of each field where a >= b, and
        # ge - (ge >> w - 1) sets every other bit of those fields, which
        # selects a fieldwise max.  The row of several variables must be
        # the sum of the fields below it instead; the product with a 1
        # in each of those fields adds them up.
        w, guard = self.width, self.guard
        ge = ((a | guard) - b) & guard
        m = b ^ (a ^ b) & (ge - (ge >> w - 1))
        if self.degree:
            k = self.degree * w
            low = m & ((1 << k) - 1)
            deg = low * (guard >> w - 1 & (1 << k) - 1) >> k - w & self.mask
            if deg >= self.half:
                raise _Overflow
            m = m >> k + w << k + w | deg << k | low
        elif self.weighted:
            # each integer row is rebuilt from the unit fields, which are
            # the last n; every partial sum in the product is at most
            # scale times the degree, so no field carries into the next
            # while the top fields (w.a and w.b) keep below the limit
            top = self.weighted[0][0]
            if ((a >> top) + (b >> top)) * self.scale >= self.limit:
                raise _Overflow
            k = w * len(self.vars)
            m = low = m & (1 << k) - 1
            for shift, mult in self.weighted:
                row = low * mult >> k - w & self.mask
                if row >= self.half:
                    raise _Overflow
                m |= row << shift
        return m

    def divides(self, a, b):
        return ((b | self.guard) - a) & self.guard == self.guard

    def pack(self, f: Polynomial):
        return _Packed({self.monomial(e): c for e, c in f.terms.items()})

    def polynomial(self, f):
        return Polynomial(self.field, self.vars,
                          {tuple(self.exponents(m)): c for m, c in f.items()})

    def reducer(self, f):
        """(leading monomial, inverse lead coefficient, remaining terms)
        of the packed f, the form in which `normal_form` divides by f."""
        lm = max(f)
        return lm, pow(f[lm], -1, self.p), [(m, c) for m, c in f.items() if m != lm]

    def monic(self, f):
        """f scaled to lead coefficient 1, and its reducer."""
        inv = pow(f[max(f)], -1, self.p)
        if inv != 1:
            f = _Packed({m: c * inv % self.p for m, c in f.items()})
        return f, self.reducer(f)


def _in_ring(field, vars, order, compute):
    """compute(ring) at 16-bit fields, or at the first doubling of the
    width at which no monomial overflows."""
    width = 16
    while True:
        try:
            return compute(_Ring(field, vars, order, width))
        except _Overflow:
            width *= 2


def _remainder(f, reducers, ring):
    # the heap holds negated monomials, so it pops the leading one first
    p, guard = ring.p, ring.guard
    work = dict(f)
    heap = [-m for m in work]
    heapify(heap)
    remainder = _Packed()
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # cancelled, or already taken from a duplicate entry
        m_guarded = m | guard
        for lm, lc_inv, tail in reducers:
            q = m_guarded - lm
            if q & guard != guard:
                continue
            q ^= guard
            factor = c * lc_inv % p
            for mono, coeff in tail:
                key = mono + q
                if key & guard:
                    raise _Overflow
                old = work.get(key, 0)
                nc = (old - factor * coeff) % p
                if nc:
                    if not old:
                        heappush(heap, -key)
                    work[key] = nc
                elif old:
                    del work[key]
            break
        else:
            remainder[m] = c
    return remainder


def normal_form(f: Polynomial, basis, order: MonomialOrder, *, ring=None):
    """Remainder of f on division by the listed polynomials: no term of
    the result is divisible by any of their leading monomials.  Unique
    when the list is a Groebner basis for the order.  `buchberger`
    passes its `_Ring` as `ring`, f packed and its basis as reducers;
    the remainder is then packed too."""
    if ring is not None:
        return _remainder(f, basis, ring)
    _check_generators(basis, f.field, f.vars)

    def divide(ring):
        reducers = [ring.reducer(ring.pack(g)) for g in basis]
        return ring.polynomial(_remainder(ring.pack(f), reducers, ring))

    return _in_ring(f.field, f.vars, order, divide)


def _s_polynomial(red_f, red_g, lcm, ring):
    # f and g by their reducers; the leading terms cancel, so only the
    # remaining terms are shifted
    p, guard = ring.p, ring.guard
    (mf, inv_f, tail_f), (mg, inv_g, tail_g) = red_f, red_g
    qf, qg = ((lcm | guard) - mf) ^ guard, ((lcm | guard) - mg) ^ guard
    out = _Packed()
    for e, c in tail_f:
        key = e + qf
        if key & guard:
            raise _Overflow
        out[key] = c * inv_f % p
    for e, c in tail_g:
        key = e + qg
        if key & guard:
            raise _Overflow
        c = (out.get(key, 0) - c * inv_g) % p
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def buchberger(gens, order: MonomialOrder):
    """The unique reduced Groebner basis (monic leads, fully
    inter-reduced, sorted by ascending leading monomial), each member
    listing its terms from the leading one down.  An empty list encodes
    the zero ideal."""
    work = [g for g in gens if not g.is_zero()]
    if not work:
        return []
    field, vars = work[0].field, work[0].vars
    _check_generators(work[1:], field, vars)
    return _in_ring(field, vars, order, lambda ring: _buchberger(work, order, ring))


def _buchberger(work, order, ring):
    guard, divides = ring.guard, ring.divides

    # pre-reduce the input list against itself until stable
    work = [ring.pack(g) for g in work]
    while True:
        reduced, reducers = [], []
        for g in work:
            r = normal_form(g, reducers, order, ring=ring)
            if r:
                r, red = ring.monic(r)
                reduced.append(r)
                reducers.append(red)
        if reduced == work:
            break
        work = reduced

    basis = list(work)
    lead = [red[0] for red in reducers]
    support = [ring.support(m) for m in lead]

    def update(G, pairs, h):
        # Gebauer-Moller criteria for discarding unneeded critical pairs;
        # a pair is stored as (its lcm, i, j)
        mh, sh = lead[h], support[h]
        lcm_h = {g: ring.lcm(mh, lead[g]) for g in G}
        C, D = set(G), set()
        while C:
            g = C.pop()
            # lcm_h[k] divides lcm_h[g] when t - lcm_h[k] keeps the guard
            t = lcm_h[g] | guard
            if not sh & support[g] or (
                not any((t - lcm_h[k]) & guard == guard for k in C)
                and not any((t - lcm_h[k]) & guard == guard for _, k in D)
            ):
                D.add((h, g))
        E = {(lcm_h[g], h, g) for h, g in D if sh & support[g]}
        kept = {
            (lcm, i, j) for lcm, i, j in pairs
            if not divides(mh, lcm)
            or ring.lcm(lead[i], mh) == lcm
            or ring.lcm(lead[j], mh) == lcm
        }
        kept |= E
        newG = {g for g in G if not divides(mh, lead[g])}
        newG.add(h)
        return newG, kept

    def by_lead(k):
        return lead[k], k

    G, pairs = set(), set()
    todo = set(range(len(basis)))
    while todo:
        h = min(todo, key=by_lead)
        todo.remove(h)
        G, pairs = update(G, pairs, h)

    chosen = sorted(G, key=by_lead)
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        lcm, i, j = pair
        s = _s_polynomial(reducers[i], reducers[j], lcm, ring)
        r = normal_form(s, [reducers[k] for k in chosen], order, ring=ring)
        if not r:
            continue
        r, red = ring.monic(r)
        basis.append(r)
        reducers.append(red)
        lead.append(red[0])
        support.append(ring.support(red[0]))
        G, pairs = update(G, pairs, len(basis) - 1)
        chosen = sorted(G, key=by_lead)

    # minimalize: drop members whose lead is divisible by another lead
    minimal = [
        k for k in chosen
        if not any(m != k and divides(lead[m], lead[k]) for m in chosen)
    ]
    # tail-reduce each member against the others; leads are pairwise
    # indivisible, so each keeps its monic lead and the list stays sorted
    for k in minimal:
        others = [reducers[m] for m in minimal if m != k]
        basis[k] = normal_form(basis[k], others, order, ring=ring)
        reducers[k] = ring.reducer(basis[k])
    return [ring.polynomial(basis[k]) for k in minimal]


def eliminate(ideal: Ideal, keep, leads=None):
    """Reduced Groebner basis of the intersection with the subring on the
    kept variables (empty list iff that intersection is zero).  With a
    list as `leads`, also appends the support masks of the leading
    monomials of the whole reduced basis computed on the way."""
    keep = frozenset(keep)
    n = ideal.n
    if not keep <= set(range(n)):
        raise ValueError(f"keep set {sorted(keep)} out of range for n={n}")
    if ideal.is_zero():
        return []
    order = BlockElimination(set(range(n)) - keep, n)
    gb = buchberger(ideal.generators, order)
    if leads is not None:
        lms = (next(iter(g.terms)) for g in gb)
        leads.append([sum(1 << i for i, e in enumerate(lm) if e) for lm in lms])
    return [g for g in gb if g.support() <= keep]


def principal_generator(elim_gens) -> Polynomial:
    """The unique monic generator of a principal elimination ideal."""
    if len(elim_gens) != 1:
        raise NotPrincipalError(
            f"expected a single generator, found {len(elim_gens)}"
        )
    return elim_gens[0]


def saturate(ideal: Ideal, monomial, grading) -> Ideal:
    """The saturation (I : m^inf) under a grading: positive integer
    weights under which every generator is homogeneous.  It saturates at
    one variable x_i of m at a time (Sturmfels, Lemma 12.1): the reduced
    basis under GradedRevLex(grading, i), each member divided by its
    largest power of x_i, is a Groebner basis of I : x_i^inf.  The
    generators returned are that basis for the last x_i, not reduced."""
    monomial, grading = tuple(monomial), tuple(grading)
    if len(monomial) != ideal.n or any(e < 0 for e in monomial):
        raise ValueError(f"bad monomial exponent vector {monomial}")
    if len(grading) != ideal.n or min(grading) <= 0:
        raise ValueError(f"grading {grading} is not positive on n={ideal.n} variables")
    for g in ideal.generators:
        if len({sum(map(mul, grading, e)) for e in g.terms}) > 1:
            raise ValueError(f"generator {g} is not homogeneous under {grading}")
    gens = ideal.generators
    for i in (i for i, e in enumerate(monomial) if e):
        divided = []
        for g in buchberger(gens, GradedRevLex(grading, i)):
            k = min(e[i] for e in g.terms)
            divided.append(g if not k else Polynomial(
                ideal.field, ideal.vars,
                {(*e[:i], e[i] - k, *e[i + 1:]): c for e, c in g.terms.items()}))
        gens = divided
    return Ideal(ideal.field, ideal.vars, gens)
