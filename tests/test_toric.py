import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import algval.toric as toric
from algval.algmat import EliminationOracle, Matroid, bases, circuits
from algval.ffpoly import INF, Polynomial, PrimeField, circuit_vector, p_adic_valuation
from algval.groebner import Ideal, buchberger, GradedLex
from algval.toric import (
    IntMatrix,
    KernelCircuit,
    bareiss_determinant,
    determinant_valuation,
    integer_kernel_circuits,
    integer_rank,
    kernel_basis,
    linear_valuated_matroid,
    row_basis,
    _minor_table,
    _pivoted,
    toric_ideal,
    toric_valuated_circuit,
)
from algval.valmat import (
    Valuation,
    valuated_circuit_family,
    valuated_circuits,
    valuation_from_circuits,
)

from conftest import (
    NONFANO_A,
    NONFANO_VARS,
    S,
    minimal_dependent_sets,
    minor_det,
    saturate_by_inverse_variable,
)

A7 = IntMatrix(NONFANO_A)


class TestExactLinearAlgebra:
    def test_bareiss_matches_laplace_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(m) == minor_det(m, range(n), range(n))

    def test_empty_determinant(self):
        assert bareiss_determinant([]) == 1

    def test_rank_matches_minor_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            d, n = rng.randrange(1, 4), rng.randrange(1, 5)
            m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(d)]
            expected = 0
            for size in range(min(d, n), 0, -1):
                if any(
                    minor_det(m, rs, cs) != 0
                    for rs in combinations(range(d), size)
                    for cs in combinations(range(n), size)
                ):
                    expected = size
                    break
            assert integer_rank(m) == expected

    def test_row_basis_spans(self):
        m = IntMatrix(((1, 2, 3), (2, 4, 6), (0, 1, 1)))
        assert row_basis(m) == [0, 2]


def fraction_elimination(rows):
    """Rank and, for a square matrix, determinant by Gaussian elimination
    over the rationals, column by column."""
    a = [[Fraction(e) for e in row] for row in rows]
    cols = len(a[0]) if a else 0
    rank, det = 0, Fraction(1)
    for col in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, len(a)):
            factor = a[i][col] / a[rank][col]
            for j in range(col, cols):
                a[i][j] -= factor * a[rank][j]
        rank += 1
    return rank, det


def prefix_rank_row_basis(rows):
    """Each row in turn, kept when it raises the rank of those kept."""
    chosen = []
    for i in range(len(rows)):
        candidate = chosen + [i]
        if fraction_elimination([rows[r] for r in candidate])[0] == len(candidate):
            chosen.append(i)
    return chosen


def seeded_eliminations():
    """Matrices up to 6x8, tall, square and wide: random ones, and ones
    with a row that combines the others, a zero column, or a column that
    combines the columns before it."""
    rng = random.Random(1968)
    for d in range(1, 7):
        for n in range(1, 9):
            for shape in ("random", "row", "zero", "column", "column"):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
                if shape == "row" and d > 1:
                    i = rng.randrange(d)
                    coeffs = [rng.randint(-2, 2) for _ in range(d - 1)]
                    others = rows[:i] + rows[i + 1:]
                    rows[i] = [sum(c * e for c, e in zip(coeffs, column))
                               for column in zip(*others)]
                elif shape == "zero":
                    j = rng.randrange(n)
                    for row in rows:
                        row[j] = 0
                elif shape == "column":
                    j = rng.randrange(n)
                    coeffs = [rng.randint(-2, 2) for _ in range(j)]
                    for row in rows:
                        row[j] = sum(c * e for c, e in zip(coeffs, row))
                yield rows


class TestOneElimination:
    """Rank, row basis and determinant all come from one fraction-free
    elimination; rational elimination and the prefix-rank row basis are
    the references."""

    def test_seeded_matrices(self):
        squares = singular = 0
        for rows in seeded_eliminations():
            rank, det = fraction_elimination(rows)
            assert integer_rank(rows) == rank
            basis = row_basis(IntMatrix(tuple(map(tuple, rows))))
            assert basis == prefix_rank_row_basis(rows)
            if len(rows) == len(rows[0]):
                assert bareiss_determinant(rows) == det
                squares, singular = squares + 1, singular + (det == 0)
            else:
                with pytest.raises(ValueError, match="square"):
                    bareiss_determinant(rows)
        assert squares == 30 and 10 < singular < 30

    def test_dependent_row_in_every_position(self):
        rng = random.Random(22)
        for d, n in ((2, 3), (4, 6), (6, 8), (6, 4)):
            for i in range(d):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
                rows[i] = [sum(row[j] for k, row in enumerate(rows) if k != i)
                           for j in range(n)]
                basis = row_basis(IntMatrix(tuple(map(tuple, rows))))
                assert basis == prefix_rank_row_basis(rows)
                assert len(basis) == fraction_elimination(rows)[0] < d

    def test_singular_square_with_middle_column_pivotless(self):
        rng = random.Random(68)
        for k in range(3, 7):
            for j in range(1, k - 1):
                rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
                for row in rows:
                    row[j] = 2 * row[0] - row[j - 1]
                assert bareiss_determinant(rows) == 0
                assert minor_det(rows, range(k), range(k)) == 0
                assert integer_rank(rows) == fraction_elimination(rows)[0]
                transpose = tuple(zip(*rows))
                assert row_basis(IntMatrix(transpose)) == prefix_rank_row_basis(transpose)

    def test_row_basis_runs_one_elimination(self, monkeypatch):
        real, calls = toric._bareiss, []

        def counted(matrix):
            calls.append(1)
            return real(matrix)

        monkeypatch.setattr(toric, "_bareiss", counted)
        matrix = IntMatrix(((1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 3, 4)))
        assert row_basis(matrix) == [0, 2]
        assert calls == [1]


def bareiss_minor_table(matrix):
    """The nonzero maximal minors on the row basis, one Bareiss
    elimination per column set, keyed in the order of the column sets."""
    rows = row_basis(matrix)
    table = {}
    for combo in combinations(range(matrix.n), len(rows)):
        det = bareiss_determinant(matrix.submatrix(rows, combo))
        if det:
            table[frozenset(combo)] = det
    return table


class TestMinorTable:
    """The table expands each minor along its last row from the smaller
    minors; one Bareiss elimination per column set is the reference."""

    @staticmethod
    def seeded():
        rng = random.Random(1704)
        for d, n in ((1, 4), (2, 5), (3, 7), (4, 12), (5, 14)):
            yield [[rng.randint(-3, 4) for _ in range(n)] for _ in range(d)]

    def assert_matches_bareiss(self, rows):
        matrix = IntMatrix(tuple(map(tuple, rows)))
        matroid, minors = _minor_table(matrix, row_basis(matrix))
        assert list(minors.items()) == list(bareiss_minor_table(matrix).items())
        assert set(matroid.bases) == set(minors)
        return minors

    def test_seeded_shapes(self):
        sizes = [len(self.assert_matches_bareiss(rows)) for rows in self.seeded()]
        assert len(sizes) == 5 and sizes[-1] > 1000

    def test_zero_matrix(self):
        assert self.assert_matches_bareiss([[0] * 5] * 3) == {frozenset(): 1}

    def test_zero_column(self):
        minors = self.assert_matches_bareiss([[1, 0, 2, 3], [0, 0, 1, -1], [2, 0, 5, 1]])
        assert minors and all(1 not in b for b in minors)

    def test_repeated_column(self):
        minors = self.assert_matches_bareiss([[1, 2, 1, 3], [4, -1, 4, 0], [0, 3, 0, 2]])
        assert minors and all(not {0, 2} <= b for b in minors)

    def test_dependent_first_row_is_skipped(self):
        rows = [[0, 0, 0, 0], [1, 2, 3, 4], [2, -1, 0, 5]]
        assert row_basis(IntMatrix(tuple(map(tuple, rows)))) == [1, 2]
        assert len(self.assert_matches_bareiss(rows)) == 6

    @pytest.mark.parametrize("d, n", [
        (4, 12), (5, 7), (11, 14), (12, 14), (20, 22), (13, 13)])
    def test_table_side_has_low_rank(self, d, n, monkeypatch):
        # row expansion holds every k-set of columns for k up to the
        # table's rank, C(22, 11) = 705,432 of them at rank 20 on 20x22;
        # above rank n/2 the valuation tables the kernel lattice instead,
        # of rank n - d, which is 0 for the full-rank 13x13; each side's
        # row basis is computed once
        real, seen, based = toric._minor_table, [], []

        def recorded(matrix, rows):
            seen.append((integer_rank(matrix.rows), matrix.n))
            assert rows == row_basis(matrix)
            return real(matrix, rows)

        def counted(matrix):
            based.append(matrix)
            return row_basis(matrix)

        monkeypatch.setattr(toric, "_minor_table", recorded)
        monkeypatch.setattr(toric, "row_basis", counted)
        rng = random.Random(1000 * d + n)
        rows = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(d)]
        assert integer_rank(rows) == d
        linear_valuated_matroid(IntMatrix(tuple(map(tuple, rows))), 2)
        assert seen == [(min(d, n - d), n)]
        assert len(based) == (1 if 2 * d <= n else 2)
        assert all(2 * rank <= cols for rank, cols in seen)


class TestKernelBasis:
    def test_spans_and_is_saturated(self):
        rng = random.Random(17)
        for _ in range(40):
            d, n = rng.randrange(1, 4), rng.randrange(1, 6)
            m = IntMatrix(tuple(
                tuple(rng.randrange(0, 4) for _ in range(n)) for _ in range(d)
            ))
            kb = kernel_basis(m)
            r = integer_rank(m.rows)
            assert len(kb) == n - r
            for u in kb:
                assert all(
                    sum(m.rows[i][j] * u[j] for j in range(n)) == 0
                    for i in range(d)
                )
            if kb:
                assert integer_rank(kb) == n - r

    def test_identity_kernel_is_trivial(self):
        m = IntMatrix(((1, 0), (0, 1)))
        assert kernel_basis(m) == []


class TestIntegerKernelCircuits:
    def test_nonfano_product_circuit(self):
        by_support = {c.support: c.vector for c in integer_kernel_circuits(A7)}
        assert by_support[S(1, 2, 4)] == (1, 1, 0, -1, 0, 0, 0)

    def test_nonfano_square_circuit(self):
        by_support = {c.support: c.vector for c in integer_kernel_circuits(A7)}
        assert by_support[S(1, 4, 5, 6)] == (2, 0, 0, -1, -1, 1, 0)

    def test_identity_matrix_has_none(self):
        assert integer_kernel_circuits(IntMatrix(((1, 0), (0, 1)))) == []

    def test_vectors_are_primitive_and_sign_normalized(self):
        for c in integer_kernel_circuits(A7):
            nonzero = [v for v in c.vector if v]
            assert nonzero[0] > 0
            g = 0
            for v in nonzero:
                g = __import__("math").gcd(g, abs(v))
            assert g == 1


def reference_kernel_circuits(matrix):
    """Every column subset up to rank + 1 asked of exact rank, skipping
    supersets of circuits already found, and one kernel vector per
    circuit by the cofactor rule on its own row basis: the construction
    integer_kernel_circuits used before it read the minor table."""
    n, rows = matrix.n, range(matrix.d)

    def dependent(s):
        return integer_rank(matrix.submatrix(rows, sorted(s))) < len(s)

    found = []
    for s in minimal_dependent_sets(n, dependent, integer_rank(matrix.rows) + 1):
        cols = sorted(s)
        rsel = row_basis(IntMatrix(matrix.submatrix(rows, cols)))
        vector = [0] * n
        for k, j in enumerate(cols):
            others = cols[:k] + cols[k + 1:]
            vector[j] = (-1) ** k * bareiss_determinant(matrix.submatrix(rsel, others))
        g = 0
        for v in vector:
            g = gcd(g, v)
        sign = 1 if next(v for v in vector if v) > 0 else -1
        found.append(KernelCircuit(tuple(sign * v // g for v in vector), s))
    return found


def _seeded_matrices():
    """Small random matrices and the shapes that stress a minor table:
    rank below the row count, zero and repeated columns, all zeros, and
    the 3x7 and 4x12 shapes the benchmark runs."""
    rng = random.Random(20260601)

    def draw(d, n, lo=-2, hi=2):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)]

    for _ in range(220):
        yield draw(rng.randint(1, 4), rng.randint(1, 8))
    for _ in range(30):
        # the last row is a combination of the others, so rank < d
        rows = draw(rng.randint(1, 3), rng.randint(2, 7))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        yield rows
    for _ in range(20):
        rows = draw(rng.randint(1, 3), rng.randint(1, 6))
        j = rng.randint(0, len(rows[0]))
        yield [r[:j] + [0] + r[j:] for r in rows]
    for _ in range(20):
        rows = draw(rng.randint(1, 3), rng.randint(1, 6))
        i = rng.randrange(len(rows[0]))
        j = rng.randint(0, len(rows[0]))
        yield [r[:j] + [r[i]] + r[j:] for r in rows]
    for d, n in ((1, 1), (1, 4), (2, 3), (3, 5), (4, 2)):
        yield [[0] * n for _ in range(d)]
    for _ in range(10):
        yield draw(3, 7, -2, 3)
    for _ in range(3):
        yield draw(4, 12, -3, 4)


class TestKernelCircuitsMatchReference:
    def test_same_circuits_and_order(self):
        count = 0
        for rows in _seeded_matrices():
            matrix = IntMatrix(tuple(map(tuple, rows)))
            assert integer_kernel_circuits(matrix) == reference_kernel_circuits(matrix)
            count += 1
        assert count >= 300

    def test_kernel_check_runs_past_the_first_row(self, monkeypatch):
        # a vector on the circuit that passes the first row but not the
        # second is caught
        matrix = IntMatrix(((1, 1, 1), (0, 1, 2)))
        assert [c.vector for c in integer_kernel_circuits(matrix)] == [(1, -2, 1)]
        monkeypatch.setattr("algval.toric._primitive",
                            lambda vector: (2, -3, 1))
        with pytest.raises(AssertionError, match=r"Cramer's rule failed on \[0, 1, 2\]"):
            integer_kernel_circuits(matrix)


class TestCircuitsFromBasisValues:
    def test_equal_to_the_kernel_route(self):
        # the matrix route reads its circuits off the basis values; the
        # kernel vectors of Cramer's rule, valued entrywise, are the
        # reference
        count = 0
        for k, rows in enumerate(_seeded_matrices()):
            matrix = IntMatrix(tuple(map(tuple, rows)))
            p = (2, 3, 5, 7)[k % 4]
            expected = sorted(
                (toric_valuated_circuit(c, p) for c in integer_kernel_circuits(matrix)),
                key=lambda c: c.sort_key(),
            )
            assert valuated_circuit_family(linear_valuated_matroid(matrix, p)) == expected
            count += 1
        assert count >= 300


class TestKernelCircuitType:
    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KernelCircuit((1, 0), frozenset({0, 1}))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            KernelCircuit((0, 0), frozenset())


class TestToricValuatedCircuit:
    def test_square_relation(self):
        c = KernelCircuit((2, 0, 0, -1, -1, 1, 0), S(1, 4, 5, 6))
        assert toric_valuated_circuit(c, 2).entries == (1, INF, INF, 0, 0, 0, INF)

    def test_difference(self):
        c = KernelCircuit((1, -1), frozenset({0, 1}))
        for p in (2, 3, 5):
            assert toric_valuated_circuit(c, p).entries == (0, 0)

    def test_mixed_powers(self):
        c = KernelCircuit((4, -2, 1), frozenset({0, 1, 2}))
        assert toric_valuated_circuit(c, 2).entries == (2, 1, 0)

    def test_matches_binomial_circuit_vector(self):
        # the binomial X^{u+} - X^{u-} of a kernel circuit has the same
        # valuated circuit as the entrywise valuation of u
        p = 2
        idl = toric_ideal(A7, p)
        for c in integer_kernel_circuits(A7):
            from algval.ffpoly import Polynomial, PrimeField

            plus = tuple(max(v, 0) for v in c.vector)
            minus = tuple(-min(v, 0) for v in c.vector)
            binom = Polynomial(PrimeField(p), idl.vars, {plus: 1, minus: -1})
            assert circuit_vector(binom).canonical() == toric_valuated_circuit(c, p)


class TestToricIdeal:
    def test_equal_columns(self):
        idl = toric_ideal(IntMatrix(((1, 1),)), 2)
        gb = buchberger(idl.generators, GradedLex(2))
        assert [str(g) for g in gb] == ["x1 + x2"]

    def test_identity_gives_zero_ideal(self):
        assert toric_ideal(IntMatrix(((1, 0), (0, 1))), 2).is_zero()

    def test_nonfano_matches_graph_presentation(self, nonfano_ideal):
        assert toric_ideal(A7, 2) == nonfano_ideal

    def test_saturation_matters(self):
        # columns (2) and (1,1): kernel (1,-2) gives X1 - X2^2 directly
        idl = toric_ideal(IntMatrix(((2, 1),)), 2)
        gb = buchberger(idl.generators, GradedLex(2))
        assert [str(g) for g in gb] == ["x2^2 + x1"]


def _reference_toric_basis(matrix, p):
    """The kernel_basis binomials saturated at the product of all the
    variables through an inverse variable: the reduced GradedLex basis."""
    field = PrimeField(p)
    vars = tuple(f"x{i}" for i in range(1, matrix.n + 1))
    gens = [Polynomial(field, vars, {tuple(max(v, 0) for v in u): 1,
                                     tuple(-min(v, 0) for v in u): -1})
            for u in kernel_basis(matrix)]
    lattice = saturate_by_inverse_variable(Ideal(field, vars, gens), (1,) * matrix.n)
    return buchberger(lattice.generators, GradedLex(matrix.n))


def _negated(rows):
    """The matrix whose toric ideal toric_ideal returns: the columns
    where y^T A < 0 negated, y all ones when every column sum is
    positive and (1, N, N^2, ...) with N = 2 max|a_ij| + 1 otherwise."""
    columns = list(zip(*rows))
    if min(map(sum, columns)) > 0:
        return rows
    big = 2 * max(abs(a) for col in columns for a in col) + 1
    signs = [1 if sum(a * big ** i for i, a in enumerate(col)) >= 0 else -1
             for col in columns]
    return tuple(tuple(s * a for s, a in zip(signs, row)) for row in rows)


def _differential_instances():
    """Seeded nonnegative and mixed-sign matrices with positive column
    sums, then fixed ones: a kernel with no entry +-1, a zero column (a
    loop), a mixed-sign matrix, an empty kernel, the 2x3 zero matrix and
    a 3x6 matrix whose fifth column sums to 0."""
    rng = random.Random(29)
    cases = []
    for low, count in ((0, 8), (-2, 6)):
        while count:
            d, n = rng.randint(2, 3), rng.randint(4, 6)
            rows = tuple(tuple(rng.randint(low, 3) for _ in range(n)) for _ in range(d))
            if min(map(sum, zip(*rows))) > 0:
                cases.append((rows, rng.choice((2, 3, 5))))
                count -= 1
    return cases + [
        (((3, 2),), 2), (((3, 2),), 3),
        (((1, 0, 2, 1), (0, 0, 1, 3)), 5), (((0, 1, -1, 2), (1, -2, 3, 0)), 3),
        (((1, 0), (0, 1)), 2), (((0, 0, 0), (0, 0, 0)), 3),
        (((-1, -2, 2, 2, 2, 1), (1, -1, -1, 1, -1, 1), (3, 0, -2, 2, -1, 2)), 3),
    ]


class TestToricIdealDifferential:
    """toric_ideal against the inverse-variable saturation of the raw
    lattice basis at every variable, by reduced GradedLex bases; on the
    mixed-sign and loop instances, the lattice of the negated matrix."""

    @pytest.mark.parametrize("rows, p", _differential_instances())
    def test_same_reduced_basis(self, rows, p):
        matrix = IntMatrix(rows)
        got = toric_ideal(matrix, p)
        assert buchberger(got.generators, GradedLex(matrix.n)) == \
            _reference_toric_basis(IntMatrix(_negated(rows)), p)

    @pytest.mark.parametrize("rows, p", _differential_instances())
    def test_pivoted_basis_spans_the_lattice(self, rows, p):
        basis = kernel_basis(IntMatrix(rows))
        pivoted, pivots = _pivoted(basis)
        for c in pivots:
            assert sorted(u[c] for u in pivoted) == [0] * (len(basis) - 1) + [1]
        # unimodular: each kernel_basis vector is an integer combination
        # of the pivoted rows, which are as many
        assert len(pivoted) == len(basis)
        if basis:
            assert integer_rank(pivoted) == len(basis)
            for u in basis:
                assert integer_rank([*pivoted, u]) == len(basis)

    def test_no_unit_entry_leaves_every_column_out_of_tau(self):
        assert _pivoted(kernel_basis(IntMatrix(((3, 2),)))) == ([[-2, 3]], [])


class TestDeterminantValuation:
    def test_nonfano_special_triple(self):
        assert bareiss_determinant(A7.submatrix((0, 1, 2), (3, 4, 5))) == -2
        assert determinant_valuation(A7, S(4, 5, 6), 2) == 1

    def test_unimodular_triple(self):
        assert determinant_valuation(A7, S(1, 2, 3), 2) == 0

    def test_dependent_columns_are_infinite(self):
        assert determinant_valuation(A7, S(1, 2, 4), 2) == INF

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            determinant_valuation(A7, S(1, 2), 2)


def _seeded_negated_instances():
    """40 seeded matrices, 2-3 x 3-6 with entries in [-3, 3] and p in
    {2, 3, 5}, drawn until some column sum is not positive, so that
    toric_ideal negates columns under y = (1, N, N^2, ...); every fourth
    has one column zeroed first, a loop."""
    rng = random.Random(31)
    cases = []
    while len(cases) < 40:
        d, n = rng.randint(2, 3), rng.randint(3, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        if len(cases) % 4 == 3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        rows = tuple(map(tuple, rows))
        if min(map(sum, zip(*rows))) <= 0:
            cases.append((rows, rng.choice((2, 3, 5))))
    return cases


class TestLinearValuatedMatroid:
    def test_nonfano_table(self):
        valuation = linear_valuated_matroid(A7, 2)
        assert len(valuation.values) == 29
        special = S(4, 5, 6)
        for basis, value in valuation.items():
            assert value == (1 if basis == special else 0)

    def test_identity(self):
        valuation = linear_valuated_matroid(IntMatrix(((1, 0), (0, 1))), 2)
        assert valuation.items() == [(frozenset({0, 1}), 0)]

    def test_one_by_two(self):
        valuation = linear_valuated_matroid(IntMatrix(((2, 1),)), 2)
        assert valuation.value({0}) == 1
        assert valuation.value({1}) == 0

    def test_rank_zero_matrix(self):
        valuation = linear_valuated_matroid(IntMatrix(((0, 0),)), 3)
        assert valuation.items() == [(frozenset(), 0)]

    def test_invariant_under_unimodular_row_mixing(self):
        rng = random.Random(23)
        for _ in range(10):
            rows = [list(r) for r in NONFANO_A]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = rng.randrange(-2, 3)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            mixed = IntMatrix(tuple(map(tuple, rows)))
            assert linear_valuated_matroid(mixed, 2) == linear_valuated_matroid(A7, 2)

    @pytest.mark.parametrize("rows, p", _seeded_negated_instances())
    def test_invariant_under_column_negation(self, rows, p):
        # F_p(x_j) = F_p(1/x_j), which lets toric_ideal negate columns
        direct = linear_valuated_matroid(IntMatrix(rows), p)
        for j in range(len(rows[0])):
            negated = tuple(tuple(-a if k == j else a for k, a in enumerate(row))
                            for row in rows)
            assert linear_valuated_matroid(IntMatrix(negated), p) == direct


class TestGaleSide:
    """Above rank n/2 the valuation is the dual of the kernel lattice's;
    the reference is A's own minor table, with no kernel and no dual."""

    @staticmethod
    def seeded():
        # every rank 0..n for n <= 9, as a product of d x r and r x n
        # factors, so rows beyond the rank are dependent and d runs from
        # 1 to n + 2: wide, square and tall
        rng = random.Random(1992)
        for n in range(1, 10):
            for r in range(n + 1):
                for _ in range(2):
                    d = rng.randint(max(r, 1), n + 2)
                    while True:
                        left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(d)]
                        right = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(r)]
                        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                                for row in left] if r else [[0] * n for _ in range(d)]
                        if integer_rank(rows) == r:
                            yield rows
                            break
        yield [[0] * 4] * 3
        yield [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        yield [[4, 0], [0, 9], [2, 3]]

    def test_equals_the_direct_table(self, monkeypatch):
        real, kernels = toric.kernel_basis, []

        def recorded(matrix):
            kernels.append(matrix)
            return real(matrix)

        monkeypatch.setattr(toric, "kernel_basis", recorded)
        ranks = []
        for k, rows in enumerate(self.seeded()):
            matrix, p = IntMatrix(tuple(map(tuple, rows))), (2, 3, 5)[k % 3]
            matroid, minors = _minor_table(matrix, row_basis(matrix))
            expected = Valuation(
                matroid, {b: p_adic_valuation(abs(det), p) for b, det in minors.items()})
            got = linear_valuated_matroid(matrix, p)
            assert got == expected
            assert got.matroid.bases == matroid.bases
            assert got.matroid.masks == matroid.masks
            fresh = Matroid(matrix.n, matroid.bases)
            assert got.matroid.near() == fresh.near()
            assert list(got.matroid.far().items()) == list(fresh.far().items())
            ranks.append((matroid.rank, matrix.n))
        # the kernel side ran exactly on the matrices of rank above n/2
        assert len(kernels) == sum(2 * r > n for r, n in ranks) > 50
        assert {r for r, n in ranks if n == 9} == set(range(10))


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "rows,p",
        [
            (((1, 1),), 2),
            (((2, 1),), 2),
            (((1, 0, 1), (0, 1, 1)), 2),
            (((2, 0, 1), (0, 3, 1)), 3),
            (((1, 2, 3),), 2),
            # twisted cubic: every 3-subset is a circuit, kernel rank 2
            (((3, 2, 1, 0), (0, 1, 2, 3)), 2),
            (((3, 2, 1, 0), (0, 1, 2, 3)), 3),
            # negative exponents (Laurent monomials) are allowed
            (((1, -1, 2), (0, 1, 1)), 2),
            (((-2, 1, 0, 3),), 3),
            *_seeded_negated_instances(),
        ],
    )
    def test_both_routes_agree(self, rows, p):
        matrix = IntMatrix(rows)
        direct = linear_valuated_matroid(matrix, p)
        idl = toric_ideal(matrix, p)
        oracle = EliminationOracle(idl)
        matroid = bases(idl, oracle=oracle)
        records = circuits(idl, oracle=oracle)
        derived = valuation_from_circuits(matroid, valuated_circuits(records))
        assert derived == direct
        toric_family = sorted(
            (toric_valuated_circuit(c, p) for c in integer_kernel_circuits(matrix)),
            key=lambda c: c.sort_key(),
        )
        assert toric_family == valuated_circuits(records)
