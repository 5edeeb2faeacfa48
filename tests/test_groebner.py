import json
import os
import random
from operator import add, mul, sub

import pytest
from hypothesis import given, strategies as st

from algval import algmat, groebner
from algval.ffpoly import Polynomial, PrimeField, parse_polynomial
from algval.groebner import (
    _Overflow,
    _Ring,
    BlockElimination,
    GradedLex,
    GradedRevLex,
    Ideal,
    Lex,
    NotPrincipalError,
    buchberger,
    eliminate,
    normal_form,
    principal_generator,
    saturate,
)

from conftest import saturate_by_inverse_variable


def P(text, variables=("x1", "x2"), p=2):
    return parse_polynomial(text, variables, p)


def I(texts, variables=("x1", "x2"), p=2):
    return Ideal.from_strings(p, variables, texts)


class TestOrders:
    def test_lex_dominance(self):
        order = Lex(2)
        assert order.key((1, 0)) > order.key((0, 5))

    def test_graded_lex_degree_first(self):
        order = GradedLex(2)
        assert order.key((0, 3)) > order.key((2, 0))
        assert order.key((2, 0)) > order.key((1, 1))

    def test_block_elimination_property(self):
        # any monomial containing an eliminated variable outranks any
        # monomial without one
        order = BlockElimination((0,), 3)
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))

    def test_orders_are_multiplicative(self):
        rng = random.Random(7)
        for order in (Lex(3), GradedLex(3), BlockElimination((1,), 3)):
            for _ in range(200):
                a = tuple(rng.randrange(5) for _ in range(3))
                b = tuple(rng.randrange(5) for _ in range(3))
                c = tuple(rng.randrange(5) for _ in range(3))
                if order.key(a) < order.key(b):
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert order.key(ac) < order.key(bc)


class TestBuchberger:
    def test_single_generator_already_reduced(self):
        f = P("x1 - x2^2")
        gb = buchberger([f], Lex(2))
        assert gb == [P("x1 - x2^2")]

    def test_unit_ideal(self):
        gb = buchberger([P("x1*x2 - 1"), P("x1^2")], Lex(2))
        assert len(gb) == 1
        assert gb[0] == P("1")

    def test_equal_columns_binomial(self):
        gb = buchberger([P("x1 - x2")], GradedLex(2))
        assert gb == [P("x1 - x2")]

    def test_reduced_basis_unique_under_shuffle(self):
        vars3 = ("x1", "x2", "x3")
        gens = [
            P("x1*x2 - x3", vars3, 3),
            P("x2^2 - x1", vars3, 3),
            P("x1^2*x3 - x2", vars3, 3),
        ]
        order = GradedLex(3)
        reference = buchberger(gens, order)
        rng = random.Random(11)
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled, order) == reference

    def test_cyclic_power_sums(self):
        # hand derivation: substituting x = -y-z into the symmetric
        # generators leaves y^2+yz+z^2, and reducing xyz-1 leaves z^3-1
        vars3 = ("x", "y", "z")
        gens = [
            P("x + y + z", vars3, 7),
            P("x*y + y*z + z*x", vars3, 7),
            P("x*y*z - 1", vars3, 7),
        ]
        gb = buchberger(gens, Lex(3))
        assert gb == [
            P("z^3 - 1", vars3, 7),
            P("y^2 + y*z + z^2", vars3, 7),
            P("x + y + z", vars3, 7),
        ]

    def test_leads_are_monic_and_sorted(self):
        vars3 = ("x1", "x2", "x3")
        order = GradedLex(3)
        gb = buchberger(
            [P("2*x1^2 - x2", vars3, 5), P("2*x2^2 - x3", vars3, 5)], order
        )
        leads = [max(g.terms, key=order.key) for g in gb]
        keys = [order.key(lead) for lead in leads]
        assert keys == sorted(keys)
        for g, lead in zip(gb, leads):
            assert g.terms[lead] == 1


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        order = GradedLex(2)
        gb = buchberger([P("x1 - x2^2")], order)
        assert normal_form(gb[0], gb, order).is_zero()

    def test_hand_division(self):
        # x2^4 modulo x1 - x2^2 with x2 dominant leaves x1^2
        order = Lex(2, positions=(1, 0))
        gb = buchberger([P("x1 - x2^2")], order)
        assert normal_form(P("x2^4"), gb, order) == P("x1^2")

    def test_constant_survives_proper_ideal(self):
        order = GradedLex(2)
        gb = buchberger([P("x1 - x2^2")], order)
        assert normal_form(P("1"), gb, order) == P("1")

    def test_membership_agrees_across_orders(self):
        vars3 = ("x1", "x2", "x3")
        gens = [P("x1*x2 - x3", vars3, 3), P("x2^2 - x1", vars3, 3)]
        orders = (GradedLex(3), Lex(3), BlockElimination((0,), 3))
        bases = [buchberger(gens, o) for o in orders]
        rng = random.Random(3)
        field = PrimeField(3)
        for _ in range(25):
            # random ideal members: combinations of the generators
            combo = Polynomial.zero(field, vars3)
            for g in gens:
                expo = tuple(rng.randrange(3) for _ in vars3)
                combo = combo + g * Polynomial.monomial(
                    field, vars3, expo, rng.randrange(1, 3)
                )
            flags = [normal_form(combo, gb, o).is_zero()
                     for gb, o in zip(bases, orders)]
            assert flags == [True, True, True]
        probe = P("x1 + x2", vars3, 3)
        assert all(
            not normal_form(probe, gb, o).is_zero()
            for gb, o in zip(bases, orders)
        )


    def test_divisor_over_other_variables_rejected(self):
        vars3 = ("x1", "x2", "x3")
        f = P("x1^2 + x2", p=3)
        with pytest.raises(ValueError, match="generator context mismatch"):
            normal_form(f, [P("x1 - x3", vars3, 3)], Lex(2))

    def test_divisor_over_other_field_rejected(self):
        f = P("x1^2 + x2", p=3)
        with pytest.raises(ValueError, match="generator context mismatch"):
            normal_form(f, [P("x1 - x2", p=5)], Lex(2))

    def test_zero_divisor_rejected(self):
        f = P("x1^2 + x2", p=3)
        zero = Polynomial.zero(PrimeField(3), ("x1", "x2"))
        with pytest.raises(ValueError, match="nonzero"):
            normal_form(f, [P("x1", p=3), zero], Lex(2))


def _naive_remainder(f, divisors, order):
    """Division written apart from the library: the largest remaining
    term, by order.key over a plain dict, is cancelled by the first
    divisor whose leading monomial divides it, or else kept."""
    p = f.field.p
    leads = [(max(g.terms, key=order.key), g) for g in divisors]
    work, remainder = dict(f.terms), {}
    while work:
        m = max(work, key=order.key)
        for lm, g in leads:
            q = tuple(a - b for a, b in zip(m, lm))
            if all(e >= 0 for e in q):
                factor = work[m] * pow(g.terms[lm], -1, p)
                for e, c in g.terms.items():
                    t = tuple(a + b for a, b in zip(e, q))
                    value = (work.get(t, 0) - factor * c) % p
                    if value:
                        work[t] = value
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = work.pop(m)
    return remainder


def _naive_s_polynomial(f, g, lf, lg):
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    p = f.field.p
    out = {}
    for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
        q = tuple(a - b for a, b in zip(lcm, lh))
        scale = sign * pow(h.terms[lh], -1, p)
        for e, c in h.terms.items():
            t = tuple(a + b for a, b in zip(e, q))
            out[t] = (out.get(t, 0) + scale * c) % p
    return Polynomial(f.field, f.vars, out)


def _random_ideal(seed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 4), rng.choice((2, 3, 5))
    field, names = PrimeField(p), tuple(f"x{i}" for i in range(n))
    gens = [
        Polynomial(field, names, {
            tuple(rng.randint(0, 2) for _ in range(n)): rng.randrange(1, p)
            for _ in range(rng.randint(1, 3))
        })
        for _ in range(rng.randint(1, 3))
    ]
    block = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
    return rng, field, names, gens, (Lex(n), GradedLex(n), BlockElimination(block, n))


class TestBuchbergerIndependently:
    """Checks the reduced basis against criteria that share no code with
    the library's division: membership of the input, Buchberger's
    S-pair criterion, monic leads and full inter-reduction."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_ideal(self, seed):
        rng, field, names, gens, orders = _random_ideal(seed)
        for order in orders:
            gb = buchberger(gens, order)
            probe = gens[0] * Polynomial(field, names, {
                tuple(rng.randint(0, 1) for _ in names): 1,
                (0,) * len(names): rng.randrange(1, field.p),
            })
            _check_reduced_basis(gens, gb, order, probe)


def _check_reduced_basis(gens, gb, order, probe):
    """Membership of the input, Buchberger's S-pair criterion, monic
    leads listed first, full inter-reduction, and division of the input
    and of probe as the naive division does it."""
    assert gb
    leads = [max(g.terms, key=order.key) for g in gb]
    assert leads == [next(iter(g.terms)) for g in gb]
    assert [order.key(m) for m in leads] == sorted(map(order.key, leads))
    for g in gens:
        assert _naive_remainder(g, gb, order) == {}
    for a in range(len(gb)):
        assert gb[a].terms[leads[a]] == 1
        for b in range(a + 1, len(gb)):
            s = _naive_s_polynomial(gb[a], gb[b], leads[a], leads[b])
            assert _naive_remainder(s, gb, order) == {}
        for m in gb[a].terms:
            assert not any(
                b != a and all(x >= y for x, y in zip(m, leads[b]))
                for b in range(len(gb))
            )
    for f in (*gens, probe):
        assert normal_form(f, gb, order).terms == _naive_remainder(f, gb, order)


ORDERS3 = (Lex(3, (2, 1, 0)), GradedLex(3), BlockElimination((0,), 3),
           BlockElimination((1, 2), 3))

# reduced bases recorded before monomials were packed, one per order of
# ORDERS3; every case passes 2^15, the largest exponent that fits the
# core's starting 16-bit fields
WIDE = [
    # the input fits 16-bit fields; under Lex the basis carries past them
    (5, ("x1^25000 - x2*x3", "x3^3 - x1^25000"), (
        ("4*x1^75000 + x1^25000*x2^3", "x1^50000*x3 + 4*x1^25000*x2^2",
         "4*x1^25000 + x2*x3", "x1^25000*x3^2 + 4*x1^25000*x2", "4*x1^25000 + x3^3"),
        ("x3^3 + 4*x2*x3", "x1^25000 + 4*x2*x3"),
        ("x3^3 + 4*x2*x3", "x1^25000 + 4*x2*x3"),
        ("4*x1^25000 + x3^3", "4*x1^25000*x3^2 + x1^25000*x2", "4*x1^25000 + x2*x3"),
    )),
    # the input fits 16-bit fields; the degree of the lcm of the graded
    # leads does not
    (2, ("x1^30000 - x3", "x2^30000 - x3"), (
        ("x1^30000 + x2^30000", "x1^30000 + x3"),
        ("x2^30000 + x3", "x1^30000 + x3"),
        ("x2^30000 + x3", "x1^30000 + x3"),
        ("x1^30000 + x3", "x1^30000 + x2^30000"),
    )),
    # a single exponent carries past its 16-bit field
    (5, ("x1^70000 - x2*x3", "x3^2 - x1^70000"), (
        ("4*x1^140000 + x1^70000*x2^2", "4*x1^70000*x2 + x1^70000*x3",
         "4*x1^70000 + x2*x3", "4*x1^70000 + x3^2"),
        ("x2*x3 + 4*x3^2", "x1^70000 + 4*x3^2"),
        ("x2*x3 + 4*x3^2", "x1^70000 + 4*x3^2"),
        ("4*x1^70000 + x3^2", "x1^70000*x2 + 4*x1^70000*x3", "4*x1^70000 + x2*x3"),
    )),
    # past 2^31 in the input and past 2^32 in the basis
    (3, ("x1^2147483653 - x2", "x3^2 - x1^2147483653*x2"), (
        ("2*x1^2147483653 + x2", "2*x1^4294967306 + x3^2"),
        ("x2^2 + 2*x3^2", "x1^2147483653 + 2*x2"),
        ("x2^2 + 2*x3^2", "x1^2147483653 + 2*x2"),
        ("2*x1^4294967306 + x3^2", "2*x1^2147483653 + x2"),
    )),
]


class TestWideExponents:
    """Exponents past the starting field width: the core restarts at a
    wider field instead of returning a wrong basis."""

    @pytest.mark.parametrize("p, texts, expected", WIDE)
    def test_reduced_basis(self, p, texts, expected):
        vars3 = ("x1", "x2", "x3")
        gens = [P(t, vars3, p) for t in texts]
        probe = gens[0] * P("x2 + 1", vars3, p)
        for order, want in zip(ORDERS3, expected):
            gb = buchberger(gens, order)
            assert [str(g) for g in gb] == list(want), order
            _check_reduced_basis(gens, gb, order, probe)

    def test_input_bound(self):
        # one 0/1 row can sum every exponent, so the total degree bounds
        # every field; a guard-bit test alone would miss 70000 at 16 bits
        ring = _Ring(PrimeField(2), ("x1", "x2"), Lex(2), 16)
        assert ring.exponents(ring.monomial((32767, 0))) == [32767, 0]
        for expo in ((32768, 0), (70000, 0), (16384, 16384)):
            with pytest.raises(_Overflow):
                ring.monomial(expo)

    def test_weighted_input_bound(self):
        # weight times degree bounds a weighted field: degree 11 under
        # weight 3000 passes 2^15, so the core restarts at a wider field
        vars3 = ("x1", "x2", "x3")
        order = GradedRevLex((1000, 2000, 3000), 0)
        ring = _Ring(PrimeField(3), vars3, order, 16)
        assert ring.exponents(ring.monomial((0, 0, 10))) == [0, 0, 10]
        for expo in ((0, 0, 11), (11, 0, 0), (5, 3, 3)):
            with pytest.raises(_Overflow):
                ring.monomial(expo)
        gens = [P(t, vars3, 3) for t in ("x1*x2 - x3", "x2^3 - x3^2", "x1^12 - x2^6")]
        gb = buchberger(gens, order)
        _check_reduced_basis(gens, gb, order, gens[2] * P("x1 + 1", vars3, 3))


@st.composite
def _order_and_monomials(draw):
    n = draw(st.integers(1, 7))
    positions = draw(st.permutations(range(n)))
    block = draw(st.sets(st.integers(0, n - 1)))
    grading = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    order = draw(st.sampled_from((Lex(n), Lex(n, positions), GradedLex(n, positions),
                                  BlockElimination(block, n),
                                  GradedRevLex(grading, draw(st.integers(0, n - 1))))))
    # three monomials whose pairwise sums, times the largest weight,
    # stay below 2^15
    scale = max(map(max, order.weights()), default=1)
    monomial = st.tuples(*[st.integers(0, 1500 // scale)] * n)
    return order, draw(monomial), draw(monomial), draw(monomial)


@given(_order_and_monomials())
def test_packed_monomials_agree_with_tuples(case):
    order, a, b, c = case
    ring = _Ring(PrimeField(2), tuple(f"x{i}" for i in range(len(a))), order, 16)
    pa, pb, pc = map(ring.monomial, (a, b, c))
    ac = tuple(map(add, a, c))
    assert ring.exponents(pa) == list(a)
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert pa + pc == ring.monomial(ac)
    assert ring.lcm(pa, pb) == ring.monomial(tuple(map(max, a, b)))
    assert ring.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert ring.divides(pa, pa + pc)
    assert ring.divides(pa + pc, pa) == (not any(c))
    if ring.divides(pa, pb):
        assert ((pb | ring.guard) - pa) ^ ring.guard == ring.monomial(tuple(map(sub, b, a)))


def test_weighted_lcm_is_exact_or_overflows():
    """Near the top of 8-bit fields, the lcm of two valid monomials under
    a weighted order is the packed fieldwise max, or _Overflow when
    rebuilding its weighted fields could carry between fields."""
    rng = random.Random(3)
    exact = 0
    for _ in range(2000):
        n = rng.randint(2, 4)
        grading = [rng.randint(1, 9) for _ in range(n)]
        order = GradedRevLex(grading, rng.randrange(n))
        ring = _Ring(PrimeField(2), tuple(f"x{i}" for i in range(n)), order, 8)
        pair = []
        for _ in range(2):
            # one exponent at a time, up to the room the grading leaves
            e = [0] * n
            for i in rng.sample(range(n), n):
                room = (ring.half - 1 - sum(map(mul, grading, e))) // grading[i]
                e[i] = rng.randint(0, room)
            pair.append(e)
        a, b = pair
        top = tuple(map(max, a, b))
        try:
            got = ring.lcm(*(sum(map(mul, e, ring.units)) for e in pair))
        except _Overflow:
            continue
        assert order.key(top)[0] < ring.half
        assert got == sum(map(mul, top, ring.units))
        exact += 1
    assert exact > 100


GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden", "inputs")


@pytest.mark.parametrize("name, expected", [
    ("nonfano-ideal", {"eliminate": 51, "buchberger": 51, "normal_form": 576,
                       "nonzero remainders": 416}),
    ("p3-ideal", {"eliminate": 27, "buchberger": 27, "normal_form": 456,
                  "nonzero remainders": 308}),
])
def test_same_reductions_as_tuple_core(monkeypatch, name, expected):
    """The circuits of the golden ideals make exactly this many
    eliminations and reductions, with this many nonzero remainders, so
    a change to the core or to the oracle's one-variable steps that
    reduces other pairs shows here."""
    counts = dict.fromkeys(expected, 0)
    for module, fn in ((algmat, "eliminate"), (groebner, "buchberger"),
                       (groebner, "normal_form")):
        monkeypatch.setattr(module, fn, _counting(getattr(module, fn), counts))
    with open(os.path.join(GOLDEN_INPUTS, f"{name}.json"), encoding="utf-8") as fh:
        problem = json.load(fh)
    ideal = Ideal.from_strings(problem["p"], problem["vars"], problem["generators"])
    algmat.circuits(ideal)
    assert counts == expected


def _counting(fn, counts):
    def wrapper(*args, **kwargs):
        counts[fn.__name__] += 1
        result = fn(*args, **kwargs)
        if fn.__name__ == "normal_form" and not result.is_zero():
            counts["nonzero remainders"] += 1
        return result
    return wrapper


class TestEliminate:
    def test_transcendental_projection_is_zero(self):
        assert eliminate(I(["x1 - x2^2"]), {0}) == []

    def test_substitution(self):
        vars3 = ("x1", "x2", "x3")
        got = eliminate(I(["x2 - x1", "x3 - x1"], vars3), {1, 2})
        assert got == [P("x2 - x3", vars3)]

    def test_keep_everything(self):
        idl = I(["x1 - x2^2"])
        assert eliminate(idl, {0, 1}) == buchberger(idl.generators, GradedLex(2))

    def test_generators_live_in_kept_variables(self):
        vars4 = ("x1", "x2", "x3", "x4")
        idl = I(["x4 - x1*x2", "x3 - x1^2"], vars4, 3)
        for keep in ({0, 1}, {2, 3}, {1, 3}, {0, 2, 3}):
            for g in eliminate(idl, keep):
                assert g.support() <= keep

    def test_zero_ideal(self):
        field = PrimeField(2)
        idl = Ideal(field, ("x1", "x2"), ())
        assert eliminate(idl, {0}) == []


class TestPrincipalGenerator:
    def test_single(self):
        f = P("x1*x2 - x4", ("x1", "x2", "x3", "x4"))
        assert principal_generator([f]) == f

    def test_empty_rejected(self):
        with pytest.raises(NotPrincipalError):
            principal_generator([])

    def test_two_rejected(self):
        with pytest.raises(NotPrincipalError):
            principal_generator([P("x1"), P("x2")])


class TestSaturate:
    def test_strips_monomial_factor(self):
        vars3 = ("x1", "x2", "x3")
        idl = I(["x1*x2 - x1*x3"], vars3)
        got = saturate(idl, (1, 0, 0), (1, 1, 1))
        assert list(got.generators) == [P("x2 - x3", vars3)]

    def test_idempotent(self):
        vars3 = ("x1", "x2", "x3")
        idl = I(["x1*x2 - x1*x3", "x2^2 - x3^2"], vars3, 3)
        once = saturate(idl, (1, 1, 1), (1, 1, 1))
        twice = saturate(once, (1, 1, 1), (1, 1, 1))
        assert buchberger(once.generators, GradedLex(3)) == buchberger(
            twice.generators, GradedLex(3)
        )

    def test_unit_ideal_stays_unit(self):
        idl = I(["1"])
        got = saturate(idl, (1, 1), (1, 1))
        assert buchberger(got.generators, GradedLex(2)) == [P("1")]

    def test_zero_ideal_stays_zero(self):
        idl = Ideal(PrimeField(2), ("x1", "x2"), ())
        assert saturate(idl, (1, 1), (1, 1)).is_zero()

    @pytest.mark.parametrize("texts, variables, p, monomial, grading", [
        (["x1*x2 - x1*x3"], ("x1", "x2", "x3"), 2, (1, 0, 0), (1, 1, 1)),
        (["x1*x2 - x1*x3", "x2^2 - x3^2"], ("x1", "x2", "x3"), 3, (1, 1, 1), (1, 1, 1)),
        (["x1*x2 - x1*x3", "x2^2 - x3^2"], ("x1", "x2", "x3"), 3, (0, 2, 1), (1, 1, 1)),
        (["x1^2*x2 - x3^3", "x1*x3 - x2^2"], ("x1", "x2", "x3"), 5, (1, 1, 1), (3, 3, 3)),
        (["x1*x2^2 - x1*x3", "x2^2*x3 - x1^2"], ("x1", "x2", "x3"), 2, (1, 1, 0), (2, 1, 2)),
        (["1"], ("x1", "x2"), 2, (1, 1), (1, 2)),
        ([], ("x1", "x2"), 2, (1, 1), (1, 1)),
    ])
    def test_graded_matches_inverse_variable(self, texts, variables, p, monomial, grading):
        idl = I(texts, variables, p)
        order = GradedLex(len(variables))
        graded = saturate(idl, monomial, grading)
        assert buchberger(graded.generators, order) == buchberger(
            saturate_by_inverse_variable(idl, monomial).generators, order)

    def test_grading_must_fit(self):
        idl = I(["x1*x2 - x1*x3", "x2^2 - x3"], ("x1", "x2", "x3"), 3)
        with pytest.raises(ValueError, match="not homogeneous"):
            saturate(idl, (1, 1, 1), (1, 1, 1))
        # x2^2 - x3 is homogeneous under (1, 1, 2), its first generator not
        with pytest.raises(ValueError, match="not homogeneous"):
            saturate(idl, (1, 0, 0), (1, 1, 2))
        for grading in ((1, 0, 1), (1, -1, 2), (1, 1)):
            with pytest.raises(ValueError, match="not positive"):
                saturate(idl, (1, 1, 1), grading)
