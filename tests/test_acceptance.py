"""Acceptance suite: every criterion is exact (zero tolerance), and the
stated runtime budgets are asserted directly.

Criterion index
  1  matrix route end to end on the 3x7 configuration
  2  elimination route reproduces the identical table
  3  flock slices at the two worked directions
  4  flock axioms over the sampled [-2,1]^7 box
  5  circuit-axiom suite on fixed and random instances
  6  route equivalence (determinant oracle vs elimination) on the same
     random instances
  7  duality involution, tropical orthogonality, hyperplane complements
  8  exchange identity with the infinite-iff-infinite convention
"""

import random
import time
from dataclasses import dataclass
from itertools import product

import pytest

from algval.algmat import EliminationOracle, bases, circuits
from algval.cli import cross_check, ProblemInput
from algval.flock import check_flock_axioms, flock_slice, g
from algval.groebner import Ideal
from algval.toric import (
    IntMatrix,
    bareiss_determinant,
    integer_kernel_circuits,
    linear_valuated_matroid,
    toric_ideal,
    toric_valuated_circuit,
)
from algval.valmat import (
    check_circuit_axioms,
    check_exchange_consistency,
    check_orthogonality,
    cocircuits,
    dual,
    valuated_circuits,
    valuation_from_circuits,
)

from conftest import NONFANO_A, S

A7 = IntMatrix(NONFANO_A)
SPECIAL = S(4, 5, 6)
RANDOM_SEED = 20250811
INSTANCE_COUNT = 50


@dataclass
class Instance:
    matrix: IntMatrix
    p: int
    direct: object
    toric_circuits: list
    matroid: object
    vcircuits: list
    derived: object
    seconds: float


def _random_matrix(rng):
    d = rng.randint(1, 3)
    n = rng.randint(1, 6)
    return IntMatrix(
        tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d))
    )


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(RANDOM_SEED)
    out = []
    for k in range(INSTANCE_COUNT):
        matrix = _random_matrix(rng)
        p = (2, 3)[k % 2]
        start = time.perf_counter()
        direct = linear_valuated_matroid(matrix, p)
        toric_circs = sorted(
            (toric_valuated_circuit(c, p) for c in integer_kernel_circuits(matrix)),
            key=lambda c: c.sort_key(),
        )
        ideal = toric_ideal(matrix, p)
        oracle = EliminationOracle(ideal)
        matroid = bases(ideal, oracle=oracle)
        records = circuits(ideal, oracle=oracle)
        vcircs = valuated_circuits(records)
        derived = valuation_from_circuits(matroid, vcircs)
        seconds = time.perf_counter() - start
        out.append(
            Instance(matrix, p, direct, toric_circs, matroid, vcircs, derived, seconds)
        )
    return out


@pytest.fixture(scope="module")
def nonfano_direct():
    return linear_valuated_matroid(A7, 2)


@pytest.fixture(scope="module")
def nonfano_groebner():
    ideal = toric_ideal(A7, 2)
    oracle = EliminationOracle(ideal)
    matroid = bases(ideal, oracle=oracle)
    records = circuits(ideal, oracle=oracle)
    vcircs = valuated_circuits(records)
    return matroid, vcircs, valuation_from_circuits(matroid, vcircs)


@pytest.fixture(scope="module")
def parabola_groebner():
    ideal = Ideal.from_strings(2, ("x1", "x2"), ["x1 - x2^2"])
    matroid = bases(ideal)
    vcircs = valuated_circuits(circuits(ideal))
    return matroid, vcircs, valuation_from_circuits(matroid, vcircs)


def _expect_nonfano_table(valuation):
    assert len(valuation.values) == 29
    for basis, value in valuation.items():
        assert value == (1 if basis == SPECIAL else 0)


def test_criterion_1_matrix_route_end_to_end(nonfano_direct):
    start = time.perf_counter()
    valuation = linear_valuated_matroid(A7, 2)
    elapsed = time.perf_counter() - start
    _expect_nonfano_table(valuation)
    assert bareiss_determinant(A7.submatrix((0, 1, 2), (3, 4, 5))) == -2
    from algval.toric import determinant_valuation

    assert determinant_valuation(A7, SPECIAL, 2) == 1
    assert elapsed < 1.0


def test_criterion_2_elimination_route_end_to_end(nonfano_direct):
    start = time.perf_counter()
    ideal = toric_ideal(A7, 2)
    oracle = EliminationOracle(ideal)
    matroid = bases(ideal, oracle=oracle)
    records = circuits(ideal, oracle=oracle)
    vcircs = valuated_circuits(records)
    derived = valuation_from_circuits(matroid, vcircs)
    elapsed = time.perf_counter() - start
    _expect_nonfano_table(derived)
    assert derived == nonfano_direct
    assert elapsed < 30.0


def test_criterion_3_flock_slices(nonfano_direct):
    at_zero = flock_slice(nonfano_direct, (0,) * 7)
    assert at_zero.g_value == 0
    fano = set(at_zero.matroid.bases)
    assert len(fano) == 28
    assert SPECIAL not in fano
    assert fano == set(nonfano_direct.values) - {SPECIAL}

    alpha = (-1, -1, -1, 0, 0, 0, -1)
    assert g(nonfano_direct, alpha) == -1
    at_alpha = flock_slice(nonfano_direct, alpha)
    family = set(at_alpha.matroid.bases)
    assert SPECIAL in family
    assert S(3, 5, 6) in family
    heavy = S(1, 2, 3, 7)
    for basis in family:
        assert len(basis & heavy) < 2


def test_criterion_4_flock_axioms_box(nonfano_direct):
    box = list(product(range(-2, 2), repeat=7))
    rng = random.Random(RANDOM_SEED)
    sampled = rng.sample(box, 10_000)
    small_support = [a for a in box if sum(1 for v in a if v) <= 2]
    directions = list(dict.fromkeys(small_support + sampled))
    report = check_flock_axioms(nonfano_direct, alphas=directions)
    assert report.directions == len(directions)
    assert report.directions >= 10_000
    assert report.ok, report.violations[:5]


def test_criterion_5_circuit_axiom_suite(
    nonfano_groebner, parabola_groebner, instances
):
    for matroid, vcircs, _ in (nonfano_groebner, parabola_groebner):
        report = check_circuit_axioms(vcircs, matroid)
        assert report.ok, report.violations[:5]
    assert len(instances) >= 50
    for inst in instances:
        report = check_circuit_axioms(inst.vcircuits, inst.matroid)
        assert report.ok, (inst.matrix, report.violations[:5])
        assert inst.seconds < 10.0, (inst.matrix, inst.seconds)


def test_criterion_6_oracle_equivalence(instances):
    assert len(instances) >= 50
    for inst in instances:
        assert inst.derived == inst.direct, inst.matrix
        assert inst.vcircuits == inst.toric_circuits, inst.matrix
        problem = ProblemInput("matrix", inst.p, matrix=inst.matrix)
        report = cross_check(problem)
        assert report["agree"], (inst.matrix, report["details"])
        assert report["valuations_match"] and report["circuits_match"]


def test_criterion_7_duality_orthogonality(
    nonfano_groebner, parabola_groebner, instances
):
    valuations = [
        (nonfano_groebner[1], nonfano_groebner[2]),
        (parabola_groebner[1], parabola_groebner[2]),
    ] + [(inst.vcircuits, inst.derived) for inst in instances]
    for vcircs, valuation in valuations:
        assert dual(dual(valuation)) == valuation
        cocircs = cocircuits(valuation)
        report = check_orthogonality(vcircs, cocircs)
        assert report.ok, report.violations[:5]
        if valuation.matroid.rank >= 1:
            ground = frozenset(range(valuation.n))
            expected = {ground - h for h in valuation.matroid.hyperplanes()}
            assert {c.support for c in cocircs} == expected
        else:
            assert cocircs == []


def test_criterion_8_exchange_identity(
    nonfano_groebner, parabola_groebner, instances
):
    suites = [
        (nonfano_groebner[2], nonfano_groebner[1]),
        (parabola_groebner[2], parabola_groebner[1]),
    ] + [(inst.derived, inst.vcircuits) for inst in instances]
    for valuation, vcircs in suites:
        report = check_exchange_consistency(valuation, vcircs)
        assert report.ok, report.violations[:5]
        # the direct-route valuation must satisfy the same identities
    for inst in instances:
        report = check_exchange_consistency(inst.direct, inst.toric_circuits)
        assert report.ok, (inst.matrix, report.violations[:5])
