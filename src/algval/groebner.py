"""Reduced Groebner bases over a prime field.

Buchberger's algorithm with the Gebauer-Moller pair criteria and the
normal (minimum-lcm) selection strategy, block elimination orders,
elimination ideals, principal-generator extraction, and saturation of
an ideal by a monomial via an auxiliary inverse variable.  The reduced
basis is unique for a fixed order, so results are reproducible no
matter how the input generators are listed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from algval.ffpoly import Polynomial, PrimeField


class NotPrincipalError(RuntimeError):
    """An elimination ideal expected to be principal is not; the queried
    set was not a circuit, or the input ideal was not prime."""


class MonomialOrder:
    """Total multiplicative well-order on exponent vectors, realized as a
    sort key (largest key = leading monomial)."""

    def key(self, expo):
        raise NotImplementedError


class Lex(MonomialOrder):
    def __init__(self, n, positions=None):
        self.n = n
        self.positions = tuple(positions) if positions is not None else tuple(range(n))

    def key(self, expo):
        return tuple(expo[i] for i in self.positions)

    def __repr__(self):
        return f"Lex({self.n}, {self.positions})"


class GradedLex(MonomialOrder):
    def __init__(self, n, positions=None):
        self.n = n
        self.positions = tuple(positions) if positions is not None else tuple(range(n))

    def key(self, expo):
        return (sum(expo), *(expo[i] for i in self.positions))

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

    def key(self, expo):
        return (
            tuple(expo[i] for i in self.eliminated)
            + (sum(expo[i] for i in self.kept),)
            + tuple(expo[i] for i in self.kept)
        )

    def __repr__(self):
        return f"BlockElimination({self.eliminated}, {self.n})"


class Ideal:
    """Finitely generated ideal of F_p[x_1..x_n].  An empty generator
    tuple encodes the zero ideal."""

    __slots__ = ("field", "vars", "generators")

    def __init__(self, field: PrimeField, vars, generators):
        self.field = field
        self.vars = tuple(vars)
        gens = tuple(generators)
        for g in gens:
            if g.is_zero():
                raise ValueError("ideal generators must be nonzero")
            if g.field != field or g.vars != self.vars:
                raise ValueError("generator context mismatch")
        self.generators = gens

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


def _lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _quot(a, b):
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Terms(dict):
    """Memo of one Groebner computation: exponent vector -> (negated
    order key, support bitmask, exponent vector, order key).  A total
    order gives each monomial its own key, and negated keys make a heapq
    min-heap pop the leading monomial first."""

    __slots__ = ("order",)

    def __init__(self, order):
        self.order = order

    def __missing__(self, expo):
        key = self.order.key(expo)
        mask = sum(1 << i for i, e in enumerate(expo) if e)
        entry = self[expo] = (tuple(-k for k in key), mask, expo, key)
        return entry


def _reducer(g: Polynomial, terms: _Terms):
    """(leading monomial, its support mask, inverse lead coefficient,
    remaining terms) of g, the form in which `normal_form` divides by g."""
    _, mask, lm, _ = min(map(terms.__getitem__, g.terms))
    tail = [(m, c) for m, c in g.terms.items() if m != lm]
    return lm, mask, g.field.inv(g.terms[lm]), tail


def _monic(f: Polynomial, terms: _Terms):
    """f scaled to lead coefficient 1, and its reducer."""
    red = _reducer(f, terms)
    if red[2] != 1:
        f = f * red[2]
        red = _reducer(f, terms)
    return f, red


def normal_form(f: Polynomial, basis, order: MonomialOrder, *,
                terms=None, reducers=None) -> Polynomial:
    """Remainder of f on division by the listed polynomials: no term of
    the result is divisible by any of their leading monomials.  Unique
    when the list is a Groebner basis for the order.  `buchberger`
    passes its memo as `terms` and its basis, already in `_reducer`
    form, as `reducers`."""
    if terms is None:
        terms = _Terms(order)
    if reducers is None:
        reducers = [_reducer(g, terms) for g in basis]
    p = f.field.p
    work = dict(f.terms)
    heap = [terms[m] for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        _, mask, m, _ = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # cancelled, or already taken from a duplicate entry
        for lm, lmask, lc_inv, tail in reducers:
            if lmask & ~mask:
                continue
            q = _quot(m, lm)
            if q is None:
                continue
            factor = c * lc_inv % p
            for mono, coeff in tail:
                key = tuple(a + b for a, b in zip(mono, q))
                old = work.get(key, 0)
                nc = (old - factor * coeff) % p
                if nc:
                    if not old:
                        heappush(heap, terms[key])
                    work[key] = nc
                elif old:
                    del work[key]
            break
        else:
            remainder[m] = c
    return Polynomial(f.field, f.vars, remainder)


def _s_polynomial(f, red_f, red_g, lcm):
    # f and g by their reducers; the leading terms cancel, so only the
    # remaining terms are shifted
    p = f.field.p
    (mf, _, inv_f, tail_f), (mg, _, inv_g, tail_g) = red_f, red_g
    qf, qg = _quot(lcm, mf), _quot(lcm, mg)
    out = {tuple(a + b for a, b in zip(e, qf)): c * inv_f for e, c in tail_f}
    for e, c in tail_g:
        key = tuple(a + b for a, b in zip(e, qg))
        out[key] = (out.get(key, 0) - c * inv_g) % p
    return Polynomial(f.field, f.vars, out)


def buchberger(gens, order: MonomialOrder):
    """The unique reduced Groebner basis (monic leads, fully
    inter-reduced, sorted by ascending leading monomial).  An empty list
    encodes the zero ideal."""
    work = [g for g in gens if not g.is_zero()]
    if not work:
        return []
    field, vars = work[0].field, work[0].vars
    for g in work[1:]:
        if g.field != field or g.vars != vars:
            raise ValueError("generator context mismatch")
    terms = _Terms(order)

    # pre-reduce the input list against itself until stable
    while True:
        reduced, reducers = [], []
        for g in work:
            r = normal_form(g, reduced, order, terms=terms, reducers=reducers)
            if not r.is_zero():
                r, red = _monic(r, terms)
                reduced.append(r)
                reducers.append(red)
        if reduced == work:
            break
        work = reduced

    basis = list(work)
    lead = [red[0] for red in reducers]

    def update(G, pairs, h):
        # Gebauer-Moller criteria for discarding unneeded critical pairs;
        # a pair is stored as (order key of its lcm, i, j, lcm)
        mh = lead[h]
        lcm_h = {g: _lcm(mh, lead[g]) for g in G}
        C, D = set(G), set()
        while C:
            g = C.pop()
            lcm_hg = lcm_h[g]

            def lcm_divides(k):
                return _quot(lcm_hg, lcm_h[k]) is not None

            if _coprime(mh, lead[g]) or (
                not any(lcm_divides(k) for k in C)
                and not any(lcm_divides(k) for _, k in D)
            ):
                D.add((h, g))
        E = {(terms[lcm_h[g]][3], h, g, lcm_h[g])
             for h, g in D if not _coprime(mh, lead[g])}
        kept = {
            (key, i, j, lcm) for key, i, j, lcm in pairs
            if _quot(lcm, mh) is None
            or _lcm(lead[i], mh) == lcm
            or _lcm(lead[j], mh) == lcm
        }
        kept |= E
        newG = {g for g in G if _quot(lead[g], mh) is None}
        newG.add(h)
        return newG, kept

    def by_lead(k):
        return terms[lead[k]][3], k

    G, pairs = set(), set()
    todo = set(range(len(basis)))
    while todo:
        h = min(todo, key=by_lead)
        todo.remove(h)
        G, pairs = update(G, pairs, h)

    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        _, i, j, lcm = pair
        s = _s_polynomial(basis[i], reducers[i], reducers[j], lcm)
        current = [reducers[k] for k in sorted(G, key=by_lead)]
        r = normal_form(s, None, order, terms=terms, reducers=current)
        if r.is_zero():
            continue
        r, red = _monic(r, terms)
        basis.append(r)
        reducers.append(red)
        lead.append(red[0])
        G, pairs = update(G, pairs, len(basis) - 1)

    # minimalize: drop members whose lead is divisible by another lead
    chosen = sorted(G, key=by_lead)
    minimal = [
        k for k in chosen
        if not any(m != k and _quot(lead[k], lead[m]) is not None for m in chosen)
    ]
    # tail-reduce each member against the others; leads are pairwise
    # indivisible, so each keeps its monic lead and the list stays sorted
    for k in minimal:
        others = [reducers[m] for m in minimal if m != k]
        basis[k] = normal_form(basis[k], None, order, terms=terms, reducers=others)
        reducers[k] = _reducer(basis[k], terms)
    return [basis[k] for k in minimal]


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
        lms = (max(g.terms, key=order.key) for g in gb)
        leads.append([sum(1 << i for i, e in enumerate(lm) if e) for lm in lms])
    return [g for g in gb if g.support() <= keep]


def principal_generator(elim_gens) -> Polynomial:
    """The unique monic generator of a principal elimination ideal."""
    if len(elim_gens) != 1:
        raise NotPrincipalError(
            f"expected a single generator, found {len(elim_gens)}"
        )
    return elim_gens[0]


def saturate(ideal: Ideal, monomial) -> Ideal:
    """The saturation (I : m^inf), via a fresh inverse variable w with
    w*m - 1 adjoined and then eliminated."""
    monomial = tuple(monomial)
    if len(monomial) != ideal.n or any(e < 0 for e in monomial):
        raise ValueError(f"bad monomial exponent vector {monomial}")
    if ideal.is_zero():
        return ideal
    w = "w_"
    while w in ideal.vars:
        w += "_"
    ext_vars = ideal.vars + (w,)
    field = ideal.field
    lifted = [
        Polynomial(field, ext_vars,
                   {e + (0,): c for e, c in g.terms.items()})
        for g in ideal.generators
    ]
    inverse = Polynomial(
        field, ext_vars,
        {monomial + (1,): 1, (0,) * (ideal.n + 1): -1},
    )
    ext = Ideal(field, ext_vars, lifted + [inverse])
    kept = eliminate(ext, range(ideal.n))
    stripped = [
        Polynomial(field, ideal.vars, {e[:-1]: c for e, c in g.terms.items()})
        for g in kept
    ]
    return Ideal(field, ideal.vars, stripped)
