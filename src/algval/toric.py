"""Valuated matroids of integer matrices under the p-adic valuation.

The columns of a d x n integer matrix present n monomials in d
parameters.  Their algebraic relations form a binomial prime ideal, and
the valuated matroid can be read off directly from the matrix.  One
table of the nonzero maximal minors on a fixed row basis gives it: its
keys are the bases and their p-adic valuations are the basis values,
from which valmat reads the valuated circuits.  Row expansion builds
it through every column set up to the rank r, so above rank n/2 the
kernel lattice's table, of rank n - r, is built instead: its minor on
E - B is c det A_B up to sign, one rational c for every basis B
(Dress-Wenzel), so the dual of its valuated matroid is A's.  Cramer's
rule on A's own table gives each circuit's minimal-support integer
kernel vector, checked against every row: the tests' reference.  This
is both an input mode and an oracle for the elimination route, though
above rank n/2 both read kernel_basis, as toric_ideal takes its
generators from it.

The toric ideal is the lattice ideal of those generators saturated at
a product of variables.  Negating a column changes no subfield
F_p(x_B), so the columns where y^T A < 0 are negated first, for one y
read from the matrix (all ones when every column sum is positive), and
|y^T A| grades the lattice.  The basis is
row-reduced on entries +-1 to the identity on its pivot columns tau,
and only the other columns, sigma, are saturated, one at a time under
a graded reverse-lex order (Sturmfels, Lemma 12.1).  A zero column is
a loop, x_j - 1, outside the lattice.

All linear algebra is exact over unbounded Python integers.  One
fraction-free (Bareiss) elimination gives the rank (its pivot count),
the row basis (the pivot columns of the transpose) and determinants.
The minor table comes from division-free row expansion, and kernel
lattice bases from unimodular column reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import mul

from algval.algmat import Matroid
from algval.ffpoly import INF, CircuitVector, Polynomial, PrimeField, p_adic_valuation
from algval.groebner import Ideal, saturate
from algval.valmat import Valuation, dual


@dataclass(frozen=True)
class IntMatrix:
    """Exact-integer d x n matrix, rows as tuples."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @property
    def d(self):
        return len(self.rows)

    @property
    def n(self):
        return len(self.rows[0])

    def submatrix(self, row_indices, col_indices):
        return [[self.rows[i][j] for j in col_indices] for i in row_indices]


def _bareiss(matrix):
    """Fraction-free (Bareiss) elimination, column by column, on the first
    nonzero entry at or below the next pivot row.  Returns the pivot
    columns, which are the columns outside the span of the columns before
    them, and the last pivot times the sign of the row swaps: the
    determinant when the matrix is square and every column has a pivot."""
    a = [list(row) for row in matrix]
    cols = len(a[0]) if a else 0
    pivots, sign, prev = [], 1, 1
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        for i in range(r + 1, len(a)):
            for j in range(col + 1, cols):
                a[i][j] = (a[i][j] * a[r][col] - a[i][col] * a[r][j]) // prev
        prev = a[r][col]
        pivots.append(col)
        if r + 1 == len(a):
            break
    return pivots, sign * prev


def bareiss_determinant(matrix) -> int:
    """Fraction-free determinant of a square integer matrix."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("determinant needs a square matrix")
    pivots, det = _bareiss(matrix)
    return det if len(pivots) == len(matrix) else 0


def integer_rank(matrix) -> int:
    """Rank of an integer matrix: its number of pivot columns."""
    return len(_bareiss(matrix)[0])


def row_basis(matrix: IntMatrix):
    """First row subset, in order, spanning the row space: the pivot
    columns of the transpose."""
    return _bareiss(zip(*matrix.rows))[0]


def kernel_basis(matrix: IntMatrix):
    """Basis of the integer kernel lattice, via unimodular column
    reduction (so the returned vectors span the full lattice, not a
    finite-index sublattice)."""
    d, n = matrix.d, matrix.n
    m = [list(row) for row in matrix.rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def combine(dst, src, q):
        # column_dst -= q * column_src, in both m and u
        for i in range(d):
            m[i][dst] -= q * m[i][src]
        for i in range(n):
            u[i][dst] -= q * u[i][src]

    fixed = 0
    for r in range(d):
        while True:
            live = [j for j in range(fixed, n) if m[r][j] != 0]
            if len(live) <= 1:
                break
            jmin = min(live, key=lambda j: (abs(m[r][j]), j))
            for j in live:
                if j != jmin:
                    combine(j, jmin, m[r][j] // m[r][jmin])
        live = [j for j in range(fixed, n) if m[r][j] != 0]
        if live:
            j = live[0]
            if j != fixed:
                for row in m:
                    row[fixed], row[j] = row[j], row[fixed]
                for row in u:
                    row[fixed], row[j] = row[j], row[fixed]
            fixed += 1
    return [tuple(u[i][j] for i in range(n)) for j in range(fixed, n)]


@dataclass(frozen=True)
class KernelCircuit:
    """Primitive integer kernel vector of minimal support; the first
    nonzero entry is positive."""

    vector: tuple
    support: frozenset

    def __post_init__(self):
        vector = tuple(int(v) for v in self.vector)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "support", frozenset(self.support))
        if self.support != {i for i, v in enumerate(vector) if v}:
            raise ValueError("support does not match the vector")
        if not self.support:
            raise ValueError("kernel circuit cannot be the zero vector")


def _primitive(vector):
    g = 0
    for v in vector:
        g = gcd(g, abs(v))
    vector = [v // g for v in vector]
    first = next(v for v in vector if v)
    if first < 0:
        vector = [-v for v in vector]
    return tuple(vector)


def _minor_table(matrix: IntMatrix, rows):
    """The column matroid and its table of nonzero maximal minors on the
    given row basis (its size d is the rank), keyed by column set: the
    keys are the bases.  Row expansion builds level k, the minors
    of the first k basis rows on all k-sets of columns, from level k - 1
    in about sum k C(n, k) steps, which peak at C(n, n/2) sets: the
    valuation comes here only at rank n/2 or less."""
    n = matrix.n
    bits, level = [1 << j for j in range(n)], {0: 1}
    for k, i in enumerate(rows):
        row, nxt = matrix.rows[i], {}
        for combo in combinations(range(n), k + 1):
            mask, det = sum(map(bits.__getitem__, combo)), 0
            for c in combo:  # sign (-1)^(k + j) on the j-th column
                det = row[c] * level[mask ^ bits[c]] - det
            nxt[mask] = det
        level = nxt
    combos = combinations(range(n), len(rows))
    minors = {frozenset(c): det for c, det in zip(combos, level.values()) if det}
    return Matroid(n, minors), minors


def integer_kernel_circuits(matrix: IntMatrix):
    """One primitive kernel vector per circuit of the column matroid,
    ascending by support size then lexicographically.  Bases and
    circuits come from the table of maximal minors, and each kernel
    vector is read from it by Cramer's rule on the fundamental circuit C
    of its first spanning basis B and element v: entry v is det(B), and
    entry u in C - v is -(-1)^k det(B - u + v), where k counts the
    elements of B strictly between u and v.  A x = 0 is checked on every
    row."""
    matroid, minors = _minor_table(matrix, row_basis(matrix))
    found = []
    for s, (b, v) in matroid.fundamental_circuits().items():
        vector = [0] * matrix.n
        vector[v] = minors[b]
        cols = sorted(b)
        below = sum(e < v for e in cols)
        for i, u in enumerate(cols):
            if u in s:
                # column v replaces column i of B, then moves to its
                # place j in B - u + v: k = |i - j| transpositions
                j = below - (u < v)
                vector[u] = (-1) ** (i + j + 1) * minors[b - {u} | {v}]
        vec = _primitive(vector)
        if any(sum(row[j] * vec[j] for j in s) for row in matrix.rows):
            raise AssertionError(f"Cramer's rule failed on {sorted(s)}")
        found.append(KernelCircuit(vec, s))
    return found


def toric_valuated_circuit(circuit: KernelCircuit, p: int) -> CircuitVector:
    """Entrywise p-adic valuation of a kernel circuit (canonical: a
    primitive vector always has a unit entry somewhere)."""
    entries = [
        p_adic_valuation(abs(v), p) if v else INF for v in circuit.vector
    ]
    return CircuitVector(entries).canonical()


def _pivoted(basis):
    """The lattice basis row-reduced on entries +-1, and its pivot
    columns: each row in turn, with the earlier pivots cleared from it,
    is pivoted on its first entry +-1 if it has one, which is made 1 and
    cleared from every other row.  The steps are unimodular, so the rows
    still span the lattice."""
    rows, pivots = [list(u) for u in basis], []
    for r, row in enumerate(rows):
        c = next((j for j, v in enumerate(row) if v in (1, -1)), None)
        if c is None:
            continue
        if row[c] < 0:
            rows[r] = row = [-v for v in row]
        for other in rows:
            if other is not row and (q := other[c]):
                other[:] = [a - q * b for a, b in zip(other, row)]
        pivots.append(c)
    return rows, pivots


def toric_ideal(matrix: IntMatrix, p: int) -> Ideal:
    """The prime binomial ideal of relations among the monomials with
    exponent columns from the matrix, with the columns where y^T A < 0
    negated: y is all ones when every column sum is positive, and
    otherwise (1, N, N^2, ...) with N = 2 max|a_ij| + 1, so that y^T A
    is zero only on zero columns.  Since F_p(x_j) = F_p(1/x_j), the
    negation changes no value of the algebraic matroid's Lindstrom
    valuation and no valuated circuit.

    A zero column j is a loop: it adds x_j - 1 and takes no further part.
    On the other columns |y^T A| grades every lattice binomial.  Their
    kernel lattice basis B is pivoted on entries +-1 (_pivoted), so it
    is the identity on the pivot columns tau, and sigma holds the other
    columns.  Once the variables of sigma are inverted, each x_t for t in
    tau is a Laurent monomial in them, so I_B : (prod_sigma x)^inf is the
    kernel of a map into a domain under which every variable is a unit:
    the toric ideal.  `saturate` takes one variable of sigma at a time."""
    field, n = PrimeField(p), matrix.n
    vars = tuple(f"x{i}" for i in range(1, n + 1))
    columns = list(zip(*matrix.rows))
    base = 1  # y = (1, base, base^2, ...)
    if min(map(sum, columns)) <= 0:
        base = 2 * max(abs(a) for col in columns for a in col) + 1
    degrees = [sum(a * base ** i for i, a in enumerate(col)) for col in columns]
    signed = [[-a for a in col] if deg < 0 else col for col, deg in zip(columns, degrees)]
    basis, pivots = _pivoted(kernel_basis(IntMatrix(tuple(zip(*signed)))))
    # column reduction never touches a zero column, so kernel_basis gives
    # e_j for each loop j, a pivot, and vectors that vanish on the loops
    gens, loops = [], []
    for u in basis:
        binomial = Polynomial(field, vars, {tuple(max(v, 0) for v in u): 1,
                                            tuple(-min(v, 0) for v in u): -1})
        (gens if any(map(mul, u, degrees)) else loops).append(binomial)
    sigma = [int(j not in pivots) for j in range(n)]
    lattice = saturate(Ideal(field, vars, gens), sigma, [abs(d) or 1 for d in degrees])
    return Ideal(field, vars, lattice.generators + tuple(loops))


def determinant_valuation(matrix: IntMatrix, column_subset, p: int):
    """val_p of the maximal minor on a fixed row basis and the given
    columns; infinite when the columns are dependent.  The row-basis
    choice shifts all values by one constant, which the distinguished
    (min-0) normalization later removes."""
    rows = row_basis(matrix)
    cols = sorted(column_subset)
    if len(cols) != len(rows):
        raise ValueError(f"need exactly rank={len(rows)} columns, got {len(cols)}")
    det = bareiss_determinant(matrix.submatrix(rows, cols))
    return p_adic_valuation(abs(det), p) if det else INF


def linear_valuated_matroid(matrix: IntMatrix, p: int) -> Valuation:
    """Column bases valued by the p-adic valuation of their maximal
    minors, shifted to distinguished form; above rank n/2, the dual of
    the kernel lattice's, an empty kernel being one zero row."""
    rows = row_basis(matrix)
    if 2 * len(rows) > matrix.n:
        kernel = kernel_basis(matrix) or [(0,) * matrix.n]
        return dual(linear_valuated_matroid(IntMatrix(kernel), p))
    matroid, minors = _minor_table(matrix, rows)
    return Valuation(
        matroid, {b: p_adic_valuation(abs(det), p) for b, det in minors.items()}
    )
