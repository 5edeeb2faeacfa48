import pytest
from hypothesis import given, strategies as st

from algval.ffpoly import (
    INF,
    CircuitVector,
    ParseError,
    Polynomial,
    PrimeField,
    circuit_vector,
    is_prime,
    p_adic_valuation,
    parse_polynomial,
)

V7 = tuple(f"x{i}" for i in range(1, 8))


def P(text, variables=("x1", "x2"), p=2):
    return parse_polynomial(text, variables, p)


class TestPrimeField:
    def test_rejects_composite(self):
        for bad in (0, 1, 4, 9, 91):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            PrimeField((1 << 89) - 1)

    def test_inverse(self):
        f = PrimeField(7)
        for a in range(1, 7):
            assert a * f.inv(a) % 7 == 1


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_is_prime_refuses_past_its_witnesses():
    # the least strong pseudoprime to all twelve witnesses is composite
    pseudoprime = 3317044064679887385961981
    assert pseudoprime == 1287836182261 * 2575672364521
    assert is_prime(pseudoprime - 2) is False
    with pytest.raises(ValueError, match="decided only below"):
        is_prime(pseudoprime)
    assert is_prime(9223372036854775837)


class TestPadicValuation:
    def test_twelve(self):
        assert p_adic_valuation(12, 2) == 2

    def test_one(self):
        for p in (2, 3, 5):
            assert p_adic_valuation(1, p) == 0

    def test_eight(self):
        assert p_adic_valuation(8, 2) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            p_adic_valuation(0, 2)

    def test_base_below_two_rejected(self):
        with pytest.raises(ValueError):
            p_adic_valuation(6, 1)


class TestParse:
    def test_nonfano_relation(self):
        f = P("x1^2*x6 - x4*x5", V7, 2)
        assert f.terms == {
            (2, 0, 0, 0, 0, 1, 0): 1,
            (0, 0, 0, 1, 1, 0, 0): 1,
        }

    def test_zero_literal(self):
        for p in (2, 3, 7):
            assert P("0", ("x1",), p).is_zero()

    def test_cancellation_mod_2(self):
        assert P("3*x1 + x1", ("x1",), 2).is_zero()

    def test_leading_sign(self):
        assert P("-x1 + x2") == P("x2 - x1")

    def test_coefficient_reduces_mod_p(self):
        assert P("5*x1", p=3) == P("2*x1", p=3)

    def test_repeated_variable_multiplies(self):
        assert P("x1*x1", p=3) == P("x1^2", p=3)

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            P("x1 + y")
        assert err.value.position == 5

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            P("x1 + * x2")
        assert err.value.position == 5

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            P("x1^0")

    def test_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            P("(x1 + x2)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            P("x1 x2")


class TestArithmetic:
    def test_char2_doubling(self):
        f = P("x1 + x2")
        assert (f + f).is_zero()

    def test_difference_of_squares_mod_3(self):
        f = P("x1 - x2", p=3)
        g = P("x1 + x2", p=3)
        assert f * g == P("x1^2 - x2^2", p=3)

    def test_multiplicative_identity(self):
        f = P("x1^3 + 2*x2", ("x1", "x2"), 5)
        one = Polynomial.constant(f.field, f.vars, 1)
        assert f * one == f

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            P("x1", p=2) + P("x1", p=3)
        with pytest.raises(ValueError):
            P("x1", ("x1",), 2) + P("x1", ("x1", "x2"), 2)

    def test_scalar_multiplication(self):
        f = P("x1 + x2", p=5)
        assert 3 * f == P("3*x1 + 3*x2", p=5)
        assert 5 * f == Polynomial.zero(f.field, f.vars)


class TestCircuitVector:
    def test_nonfano_relation(self):
        f = P("x1^2*x6 - x4*x5", V7, 2)
        assert circuit_vector(f).entries == (1, INF, INF, 0, 0, 0, INF)

    def test_all_exponents_one(self):
        assert circuit_vector(P("x1 - x2")).entries == (0, 0)

    def test_min_over_occurrences(self):
        f = P("x1^4 + x1^2*x2 + x3", ("x1", "x2", "x3"), 2)
        assert circuit_vector(f).entries == (1, 0, 0)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            circuit_vector(P("0"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            circuit_vector(P("1"))


class TestCircuitVectorType:
    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError):
            CircuitVector((INF, INF))

    def test_canonical_shifts_min_to_zero(self):
        v = CircuitVector((3, INF, 1))
        assert v.canonical().entries == (2, INF, 0)
        assert v.canonical().is_canonical

    def test_support(self):
        assert CircuitVector((0, INF, 2)).support == frozenset({0, 2})

    def test_shift_roundtrip(self):
        v = CircuitVector((1, INF, 0))
        assert v.shifted(5).shifted(-5) == v

    def test_str(self):
        assert str(CircuitVector((1, INF, 0))) == "(1, inf, 0)"


# -- property tests ----------------------------------------------------------

_vars3 = ("x1", "x2", "x3")


@st.composite
def polys(draw, p=None, min_terms=0):
    p = p if p is not None else draw(st.sampled_from((2, 3, 5)))
    field = PrimeField(p)
    nterms = draw(st.integers(min_terms, 5))
    terms = {}
    for _ in range(nterms):
        expo = tuple(draw(st.integers(0, 6)) for _ in _vars3)
        terms[expo] = draw(st.integers(1, p - 1))
    return Polynomial(field, _vars3, terms)


@given(polys(), st.integers(0, 3))
def test_frobenius_shifts_circuit_vector(f, m):
    if f.is_zero() or not f.support():
        return
    base = circuit_vector(f)
    # f^(p^m) over F_p: coefficients stay, exponents scale by p^m
    q = f.field.p ** m
    power = Polynomial(f.field, f.vars,
                       {tuple(e * q for e in expo): c for expo, c in f.terms.items()})
    shifted = circuit_vector(power)
    assert shifted.entries == base.shifted(m).entries


@given(polys())
def test_circuit_vector_support_is_variable_set(f):
    if f.is_zero() or not f.support():
        return
    assert circuit_vector(f).support == f.support()


@given(polys(p=5))
def test_circuit_vector_scalar_invariance(f):
    if f.is_zero() or not f.support():
        return
    for c in range(2, 5):
        assert circuit_vector(c * f) == circuit_vector(f)


@given(polys())
def test_print_parse_roundtrip(f):
    assert parse_polynomial(str(f), f.vars, f.field.p) == f


@given(polys(p=3), polys(p=3), polys(p=3))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f - g) + g == f


@given(st.text(alphabet="x123 +-*^()y_", max_size=24))
def test_parser_never_crashes(text):
    try:
        parse_polynomial(text, ("x1", "x2"), 3)
    except ParseError:
        pass
