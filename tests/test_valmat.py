import json
import os
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from algval import algmat
from algval.algmat import CircuitRecord, EliminationOracle, Matroid, bases, circuits
from algval.ffpoly import INF, CircuitVector, Polynomial, parse_polynomial
from algval.groebner import Ideal, eliminate
from algval.toric import IntMatrix, linear_valuated_matroid
from algval.valmat import (
    AxiomReport,
    InconsistentValuationError,
    Valuation,
    check_circuit_axioms,
    check_exchange_consistency,
    check_orthogonality,
    cocircuits,
    dual,
    fundamental_valuated_circuit,
    minor,
    valuated_circuit_family,
    valuated_circuits,
    valuation_from_circuits,
)

from conftest import (
    NONFANO_VARS,
    S,
    basis_rank,
    reference_check_exchange_consistency,
    reference_minor,
    reference_table_family,
    reference_valuation_from_circuits,
)


def P(text, variables=("x1", "x2"), p=2):
    return parse_polynomial(text, variables, p)


@pytest.fixture(scope="module")
def nonfano(nonfano_ideal):
    oracle = EliminationOracle(nonfano_ideal)
    records = circuits(nonfano_ideal, oracle=oracle)
    matroid = bases(nonfano_ideal, oracle=oracle)
    vcircs = valuated_circuits(records)
    valuation = valuation_from_circuits(matroid, vcircs)
    return matroid, records, vcircs, valuation


@pytest.fixture(scope="module")
def parabola():
    idl = Ideal.from_strings(2, ("x1", "x2"), ["x1 - x2^2"])
    records = circuits(idl)
    matroid = bases(idl)
    vcircs = valuated_circuits(records)
    return matroid, vcircs, valuation_from_circuits(matroid, vcircs)


class TestValuatedCircuits:
    def test_product_circuit_all_zero(self, nonfano):
        _, _, vcircs, _ = nonfano
        by_support = {c.support: c for c in vcircs}
        assert by_support[S(1, 2, 4)].entries == (0, 0, INF, 0, INF, INF, INF)

    def test_square_circuit_carries_valuation_one(self, nonfano):
        _, _, vcircs, _ = nonfano
        by_support = {c.support: c for c in vcircs}
        assert by_support[S(1, 4, 5, 6)].entries == (1, INF, INF, 0, 0, 0, INF)

    def test_parabola_circuit(self):
        recs = [CircuitRecord(frozenset({0, 1}), P("x1 - x2^2"))]
        (got,) = valuated_circuits(recs)
        assert got.entries == (0, 1)

    def test_sorted_and_canonical(self, nonfano):
        _, _, vcircs, _ = nonfano
        keys = [c.sort_key() for c in vcircs]
        assert keys == sorted(keys)
        assert all(c.is_canonical for c in vcircs)


class TestValuationFromCircuits:
    def test_nonfano_table(self, nonfano):
        _, _, _, valuation = nonfano
        special = S(4, 5, 6)
        for basis, value in valuation.items():
            assert value == (1 if basis == special else 0)

    def test_parabola_values(self, parabola):
        _, _, valuation = parabola
        assert valuation.value({1}) == 0
        assert valuation.value({0}) == 1

    def test_free_matroid(self):
        m = Matroid(3, [{0, 1, 2}])
        v = valuation_from_circuits(m, [])
        assert v.items() == [(frozenset({0, 1, 2}), 0)]

    def test_missing_cover_rejected(self, nonfano):
        matroid, _, vcircs, _ = nonfano
        with pytest.raises(InconsistentValuationError):
            valuation_from_circuits(matroid, vcircs[:-1])

    def test_corrupted_circuit_detected(self, parabola):
        matroid, _, _ = parabola
        # a rank-one matroid on two parallel elements forces equal values;
        # inflating one entry contradicts the second exchange direction
        m = Matroid(3, [{0}, {1}, {2}])
        good = [
            CircuitVector((0, 0, INF)),
            CircuitVector((0, INF, 0)),
            CircuitVector((INF, 0, 1)),
        ]
        with pytest.raises(InconsistentValuationError):
            valuation_from_circuits(m, good)


class TestValuationType:
    def test_normalizes_to_min_zero(self):
        m = Matroid(2, [{0}, {1}])
        v = Valuation(m, {frozenset({0}): 5, frozenset({1}): 7})
        assert v.value({0}) == 0
        assert v.value({1}) == 2

    def test_cover_mismatch_rejected(self):
        m = Matroid(2, [{0}, {1}])
        with pytest.raises(ValueError):
            Valuation(m, {frozenset({0}): 0})


class TestFundamentalValuatedCircuit:
    def test_nonfano_exchange_entry(self, nonfano):
        _, _, _, valuation = nonfano
        got = fundamental_valuated_circuit(valuation, S(3, 5, 6), 3)
        assert got.support == S(3, 4, 5, 6)
        # entry at 3 records value({4,5,6}) - value({3,5,6}) = 1
        assert got.entries == (INF, INF, 1, 0, 0, 0, INF)

    def test_parabola(self, parabola):
        _, _, valuation = parabola
        got = fundamental_valuated_circuit(valuation, {1}, 0)
        assert got.entries == (0, 1)

    def test_balanced_exchange_gives_zero_entries(self):
        m = Matroid(2, [{0}, {1}])
        v = Valuation(m, {frozenset({0}): 0, frozenset({1}): 0})
        assert fundamental_valuated_circuit(v, {0}, 1).entries == (0, 0)

    def test_matches_polynomial_route_everywhere(self, nonfano):
        matroid, _, vcircs, valuation = nonfano
        by_support = {c.support: c for c in vcircs}
        for b in matroid.bases:
            for v in set(range(7)) - b:
                derived = fundamental_valuated_circuit(valuation, b, v)
                assert derived == by_support[derived.support]

    def test_family_reuses_the_supports_of_the_sweep(self, nonfano, monkeypatch):
        # the family takes each support from fundamental_circuits(), so it
        # never rebuilds one through Matroid.fundamental_circuit
        _, _, vcircs, valuation = nonfano
        expected_cocircuits = cocircuits(valuation)

        def refuse(self, basis, v):
            raise AssertionError("a fundamental circuit was rebuilt")

        monkeypatch.setattr(Matroid, "fundamental_circuit", refuse)
        assert valuated_circuit_family(valuation) == list(vcircs)
        assert cocircuits(valuation) == expected_cocircuits


class TestDual:
    def test_involution(self, nonfano):
        _, _, _, valuation = nonfano
        assert dual(dual(valuation)) == valuation

    def test_nonfano_dual_table(self, nonfano):
        _, _, _, valuation = nonfano
        dv = dual(valuation)
        special = S(1, 2, 3, 7)
        for basis, value in dv.items():
            assert value == (1 if basis == special else 0)

    def test_free_matroid_dual(self):
        m = Matroid(2, [{0, 1}])
        v = Valuation(m, {frozenset({0, 1}): 0})
        dv = dual(v)
        assert dv.matroid.bases == (frozenset(),)
        assert dv.value(frozenset()) == 0


class TestCocircuits:
    def test_nonfano_cocircuit_of_347(self, nonfano):
        _, _, _, valuation = nonfano
        by_support = {c.support: c for c in cocircuits(valuation)}
        got = by_support[frozenset(range(7)) - S(3, 4, 7)]
        assert got.entries == (0, 0, INF, INF, 0, 0, INF)

    def test_nonfano_supports_are_hyperplane_complements(self, nonfano):
        matroid, _, _, valuation = nonfano
        ground = frozenset(range(7))
        expected = {ground - h for h in matroid.hyperplanes()}
        assert {c.support for c in cocircuits(valuation)} == expected
        assert ground - S(1, 2, 4) in expected

    def test_parabola_single_cocircuit(self, parabola):
        _, _, valuation = parabola
        (got,) = cocircuits(valuation)
        assert got.support == frozenset({0, 1})
        assert got.entries == (1, 0)


def reference_fundamental_valuated_circuit(valuation, basis, v, support):
    """The circuit vector on support from frozenset bases: entry u is
    value(basis - u + v) - value(basis), shifted to canonical form."""
    entries = [INF] * valuation.n
    entries[v] = 0
    vb = valuation.value(basis)
    for u in support - {v}:
        entries[u] = valuation.value(basis - {u} | {v}) - vb
    return CircuitVector(entries).canonical()


def reference_circuit_family(valuation):
    return sorted(
        (reference_fundamental_valuated_circuit(valuation, b, v, support)
         for support, (b, v) in valuation.matroid.fundamental_circuits().items()),
        key=lambda c: c.sort_key(),
    )


def _seeded_and_tampered_valuations():
    """Matrix valuations of seeded matrices, and random integers on the
    bases of their matroids, which are mostly not valuated matroids: on
    those, which (basis, element) builds a vector decides its entries."""
    rng = random.Random(1716)
    for k, (d, n) in enumerate(((1, 4), (2, 5), (2, 6), (3, 6), (3, 7), (3, 7),
                                (4, 8), (4, 12))):
        rows = tuple(tuple(rng.randint(-3, 4) for _ in range(n)) for _ in range(d))
        valuation = linear_valuated_matroid(IntMatrix(rows), (2, 3, 5)[k % 3])
        yield valuation
        matroid = valuation.matroid
        yield Valuation(matroid, {b: rng.randint(0, 5) for b in matroid.bases})


class TestFamiliesMatchReference:
    def test_circuits(self):
        count = 0
        for valuation in _seeded_and_tampered_valuations():
            got = valuated_circuit_family(valuation)
            expected = reference_circuit_family(valuation)
            assert got == expected
            assert [c.support for c in got] == [c.support for c in expected]
            count += 1
        assert count == 16

    def test_cocircuits_equal_the_dual_family(self):
        count = 0
        for valuation in _seeded_and_tampered_valuations():
            got = cocircuits(valuation)
            expected = reference_circuit_family(dual(valuation))
            assert got == expected
            assert [c.support for c in got] == [c.support for c in expected]
            count += 1
        assert count == 16

    def test_tampered_families_match_the_row_scan(self):
        # the families read each vector at the same (basis, element) pair
        # as the scan of the exchange rows, so the tampered valuations,
        # whose vectors depend on that pair, give the same families
        rng = random.Random(2718)
        valuations = list(_seeded_and_tampered_valuations())
        for d, n in ((2, 6), (3, 7), (3, 8), (4, 9)):
            rows = tuple(tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(d))
            matroid = linear_valuated_matroid(IntMatrix(rows), 2).matroid
            for _ in range(3):
                valuations.append(Valuation(
                    matroid, {b: rng.randint(0, 9) for b in matroid.bases}))
        differ = 0
        for valuation in valuations + [dual(v) for v in valuations]:
            for inside, family in ((False, valuated_circuit_family),
                                   (True, cocircuits)):
                got = family(valuation)
                assert got == reference_table_family(valuation, inside)
                # the pair matters: scanning the bases the other way
                # gives another family on tampered valuations
                differ += got != _last_pair_family(valuation, inside)
        assert differ > 10

    def test_fundamental_circuit_at_every_pair(self):
        for valuation in _seeded_and_tampered_valuations():
            matroid = valuation.matroid
            for b in matroid.bases:
                for v in set(range(matroid.n)) - b:
                    support = matroid.fundamental_circuit(b, v)
                    assert (fundamental_valuated_circuit(valuation, b, v)
                            == reference_fundamental_valuated_circuit(
                                valuation, b, v, support))
            # the mask-keyed values are built once per valuation
            assert valuation.by_mask() is valuation.by_mask()
            assert valuation.by_mask() == {
                sum(1 << e for e in b): valuation.value(b) for b in matroid.bases}


def _last_pair_family(valuation, inside):
    """reference_table_family with the bases scanned in the opposite
    order, so that each vector is read at another pair."""
    m = valuation.matroid
    reverse = Valuation(Matroid.trusted(m.n, m.bases[::-1], m.masks[::-1]),
                        valuation.values)
    return reference_table_family(reverse, inside)


def exchange_reference_families(valuation):
    """Circuits and cocircuits from every (basis, element) pair, with no
    matroid method: for v outside b the circuit is v and each u in b with
    b - u + v a basis; for u in b the cocircuit is u and each v outside b
    with b - u + v a basis; either way entry x is value(b - u + v) at its
    swap, canonical, deduplicated and sorted as the families are.  Also
    returns whether some vector's least raw value was nonzero."""
    values, ground = valuation.values, frozenset(range(valuation.n))
    found, shifted = ({}, {}), False
    for b in valuation.matroid.bases:
        for x in ground:
            inside = x in b
            swaps = ({x: b} | {y: b - {x} | {y} for y in ground - b} if inside
                     else {x: b} | {u: b - {u} | {x} for u in b})
            near = {y: values[swap] for y, swap in swaps.items() if swap in values}
            shifted |= min(near.values()) != 0
            entries = [near.get(y, INF) for y in range(valuation.n)]
            vector = CircuitVector(entries).canonical()
            found[inside][vector] = vector.support
    families = [sorted(f, key=CircuitVector.sort_key) for f in found]
    for f in found:
        # one canonical vector per support on a valuated matroid
        assert len(set(f.values())) == len(f)
    return families[0], families[1], shifted


class TestTableFamiliesByExchange:
    def test_families_match_every_pair(self):
        rng = random.Random(2117)
        shifted_any = False
        for k, (d, n) in enumerate(((3, 6), (3, 7), (3, 8), (4, 8), (4, 9))):
            rows = tuple(tuple(rng.randint(-3, 4) for _ in range(n)) for _ in range(d))
            valuation = linear_valuated_matroid(IntMatrix(rows), (2, 3)[k % 2])
            for v in (valuation, dual(valuation)):
                circs, cocircs, shifted = exchange_reference_families(v)
                assert valuated_circuit_family(v) == circs
                assert cocircuits(v) == cocircs
                shifted_any |= shifted
        # some table vector had a nonzero least value, so the shift ran
        assert shifted_any


def _contracted_matrix(rows, contract, kept):
    """The kept columns of the rows that no column of contract pivots,
    after pivoting a basis of those columns out over the rationals,
    each row scaled to integers; one zero row if no row is left."""
    rows = [[Fraction(e) for e in row] for row in rows]
    pivots = set()
    for c in sorted(contract):
        pivot = next((i for i, row in enumerate(rows)
                      if i not in pivots and row[c]), None)
        if pivot is None:
            continue
        pivots.add(pivot)
        for i, row in enumerate(rows):
            if i != pivot and row[c]:
                factor = row[c] / rows[pivot][c]
                rows[i] = [a - factor * b for a, b in zip(row, rows[pivot])]
    out = []
    for i, row in enumerate(rows):
        if i not in pivots:
            scale = lcm(*(row[j].denominator for j in kept))
            out.append(tuple(int(row[j] * scale) for j in kept))
    return IntMatrix(tuple(out) or ((0,) * len(kept),))


class TestMinor:
    def test_identity_minor(self, nonfano):
        _, _, _, valuation = nonfano
        got = minor(valuation)
        assert got == valuation

    def test_delete_top_element(self, nonfano):
        _, _, _, valuation = nonfano
        got = minor(valuation, delete=S(7))
        assert got.labels == tuple(range(6))
        special = S(4, 5, 6)
        assert len(got.values) == sum(
            1 for b in valuation.matroid.bases if 6 not in b
        )
        for basis, value in got.items():
            assert value == (1 if basis == special else 0)

    def test_contract_first_element(self, nonfano):
        _, _, _, valuation = nonfano
        got = minor(valuation, contract=S(1))
        assert got.matroid.rank == 2
        assert got.labels == (1, 2, 3, 4, 5, 6)
        assert all(value == 0 for _, value in got.items())

    def test_overlapping_sets_rejected(self, nonfano):
        _, _, _, valuation = nonfano
        with pytest.raises(ValueError):
            minor(valuation, delete=S(1), contract=S(1, 2))

    def test_deletion_then_contraction_commutes(self, nonfano):
        _, _, _, valuation = nonfano
        for g, f in [(S(7), S(1)), (S(2), S(5)), (S(1, 7), S(4))]:
            combined = minor(valuation, delete=g, contract=f)
            deleted = minor(valuation, delete=g)
            # translate original labels into the deleted minor's positions
            translated = {deleted.labels.index(e) for e in f}
            staged = minor(deleted, contract=translated)
            assert staged == combined

    def test_contract_to_empty_ground_set(self, parabola):
        _, _, valuation = parabola
        got = minor(valuation, delete={0}, contract={1})
        assert got.matroid.n == 0
        assert got.items() == [(frozenset(), 0)]

    def test_contract_dependent_set(self, nonfano):
        _, _, _, valuation = nonfano
        got = minor(valuation, contract=S(1, 2, 4))
        # contracting a circuit of rank 2 leaves a rank-1 minor
        assert got.matroid.rank == 1
        assert min(v for _, v in got.items()) == 0

    def test_delete_non_coindependent_set(self, parabola):
        # deleting both elements around a rank-one matroid forces the
        # padding completion
        _, _, valuation = parabola
        got = minor(valuation, delete={1})
        assert got.matroid.n == 1
        assert got.items() == [(frozenset({0}), 0)]

    def test_deletion_equals_column_subconfiguration(self):
        # independent oracle: deleting columns of a matrix valuation must
        # give the valuation of the remaining columns (they share the
        # same valuated circuits, and the min-0 form pins the shift);
        # exercises both the direct and the rank-dropping completions
        import random

        from algval.toric import IntMatrix, linear_valuated_matroid

        from conftest import NONFANO_A

        rng = random.Random(41)
        cases = [(NONFANO_A, g) for g in ({6}, {0, 6}, {3, 4, 5})]
        for _ in range(15):
            d, n = rng.randint(1, 3), rng.randint(2, 6)
            rows = tuple(
                tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d)
            )
            size = rng.randint(1, n - 1)
            cases.append((rows, set(rng.sample(range(n), size))))
        for rows, deleted in cases:
            matrix = IntMatrix(rows)
            whole = linear_valuated_matroid(matrix, 2)
            kept = [j for j in range(matrix.n) if j not in deleted]
            sub = IntMatrix(tuple(tuple(r[j] for j in kept) for r in rows))
            expected = linear_valuated_matroid(sub, 2)
            got = minor(whole, delete=deleted)
            assert got.labels == tuple(kept)
            assert got.values == expected.values
            assert got.matroid == expected.matroid

    def test_contraction_equals_pivoted_matrix(self):
        # independent oracle: pivoting a basis of the contracted columns
        # out of the rows over the rationals scales every maximal minor
        # that holds them by one constant, so the remaining rows on the
        # remaining columns give the contraction; instances are seeded
        # matrices, some with a zero column, contracted by random sets
        # that are often dependent
        rng = random.Random(4243)
        for k in range(400):
            d, n, p = rng.randint(1, 4), rng.randint(2, 7), (2, 3, 5)[k % 3]
            rows = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(d)]
            if k % 5 == 0:
                zero = rng.randrange(n)
                for row in rows:
                    row[zero] = 0
            contract = set(rng.sample(range(n), rng.randint(1, n - 1)))
            got = minor(linear_valuated_matroid(IntMatrix(rows), p), contract=contract)
            kept = [j for j in range(n) if j not in contract]
            expected = linear_valuated_matroid(_contracted_matrix(rows, contract, kept), p)
            assert got.labels == tuple(kept)
            assert got.values == expected.values
            assert got.matroid == expected.matroid


    def test_ideal_deletion_equals_elimination_ideal(self):
        # independent construction: M \ D is the valuation of
        # I n F_p[x_{E-D}], up to the global shift, by the elimination
        # route run on that ideal; every single and pair D
        deletions = 0
        for ideal in _deletion_ideals():
            valuation = _ideal_route(ideal)
            n = ideal.n
            for deleted in [(e,) for e in range(n)] + list(combinations(range(n), 2)):
                keep = [e for e in range(n) if e not in deleted]
                expected = _ideal_route(_restricted(ideal, keep))
                got = minor(valuation, delete=deleted)
                assert got.matroid == expected.matroid, (ideal, deleted)
                assert got.values == expected.values, (ideal, deleted)
                deletions += 1
        assert deletions == 175

    def test_matches_greedy_completion(self, nonfano):
        # deletion and duality against the greedy completion on the
        # ideal-route non-Fano valuation and 300 seeded valuations with
        # their duals: the empty split, the whole ground set deleted or
        # contracted, random disjoint splits, and two splits that raise
        rng = random.Random(1992)
        valuations = [nonfano[3]]
        for valuation in _seeded_matrix_valuations(1992, 100):
            valuations += [valuation, dual(valuation)]
        for valuation in valuations:
            n = valuation.n
            splits = [((), ()), (range(n), ()), ((), range(n)),
                      ((), (n,)), ((0,), (0,))]
            for _ in range(4):
                elements = rng.sample(range(n), n)
                cut = rng.randint(0, n)
                split = rng.randint(0, cut)
                splits.append((elements[:split], elements[split:cut]))
            for delete, contract in splits:
                assert (_minor_outcome(minor, valuation, delete, contract)
                        == _minor_outcome(reference_minor, valuation, delete,
                                          contract))


    def test_minor_runs_no_exchange_pass(self, nonfano, monkeypatch):
        # a deletion of a matroid is a matroid, so neither step of a
        # two-sided minor checks exchange; the near and far sets come on
        # first use, the near sets without the check's pass
        valuation = nonfano[3]
        expected = reference_minor(valuation, delete=(0,), contract=(1,))
        passes = []
        check = algmat._neighbourhoods

        def counted(n, masks):
            passes.append(len(masks))
            return check(n, masks)

        monkeypatch.setattr(algmat, "_neighbourhoods", counted)
        got = minor(valuation, delete=(0,), contract=(1,))
        minor(valuation, delete=(2, 5), contract=(0,))
        minor(dual(valuation), contract=(3, 4))
        assert passes == []
        assert got.matroid.circuits() == expected.matroid.circuits()
        # the reference minor was checked on construction and kept its
        # near sets, which the trusted minor builds alone
        assert cocircuits(got) == cocircuits(expected)
        assert passes == []


def _ideal_route(ideal):
    """The valuation of a prime ideal by the elimination route."""
    oracle = EliminationOracle(ideal)
    matroid = bases(ideal, oracle=oracle)
    return valuation_from_circuits(
        matroid, valuated_circuits(circuits(ideal, oracle=oracle)))


def _restricted(ideal, keep):
    """I n F_p[x_keep], its generators rewritten over the kept variables."""
    names = [ideal.vars[i] for i in keep]
    gens = [Polynomial(ideal.field, names,
                       {tuple(e[i] for i in keep): c for e, c in f.terms.items()})
            for f in eliminate(ideal, keep)]
    return Ideal(ideal.field, names, gens)


def _deletion_ideals():
    """Both golden ideals and six seeded monomial graph ideals
    x_{3+j} - x^a_j, a_j in [0, 3]^3, over p in {2, 3}.  Graph ideals
    with a linear term added eliminate for minutes, so none is here."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")
    ideals = []
    for name in ("p3-ideal", "nonfano-ideal"):
        with open(os.path.join(golden, f"{name}.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        ideals.append(Ideal.from_strings(raw["p"], raw["vars"], raw["generators"]))
    rng = random.Random(490)
    for _ in range(6):
        p = rng.choice((2, 3))
        gens = []
        for j in range(3):
            a = [rng.randint(0, 3) for _ in range(3)]
            monomial = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(a) if e)
            gens.append(f"x{4 + j} - {monomial or 1}")
        ideals.append(Ideal.from_strings(p, [f"x{i}" for i in range(1, 7)], gens))
    return ideals


def _minor_outcome(construct, valuation, delete, contract):
    """Bases in order, values and labels of a minor, or the error type."""
    try:
        got = construct(valuation, delete=delete, contract=contract)
    except ValueError as exc:
        return type(exc)
    return got.matroid.bases, [v for _, v in got.items()], got.labels


class TestCircuitAxioms:
    def test_nonfano_passes(self, nonfano):
        matroid, _, vcircs, _ = nonfano
        report = check_circuit_axioms(vcircs, matroid)
        assert report.ok, report.violations
        assert report.checked > len(vcircs)

    def test_single_circuit_family(self, parabola):
        matroid, vcircs, _ = parabola
        report = check_circuit_axioms(vcircs, matroid)
        assert report.ok

    def test_perturbed_entry_detected(self, nonfano):
        matroid, _, vcircs, _ = nonfano
        mutated = []
        for c in vcircs:
            if c.support == S(1, 2, 4):
                entries = list(c.entries)
                entries[0] += 1
                mutated.append(CircuitVector(entries))
            else:
                mutated.append(c)
        axiom_report = check_circuit_axioms(mutated, matroid)
        try:
            valuation = valuation_from_circuits(matroid, mutated)
            exchange_ok = check_exchange_consistency(valuation, mutated).ok
        except InconsistentValuationError:
            exchange_ok = False
        assert not (axiom_report.ok and exchange_ok)

    def test_empty_support_reported(self, nonfano):
        # an all-infinite vector has no canonical form; the suite lists
        # it under axiom 1 instead of failing on it
        matroid, _, vcircs, _ = nonfano
        empty = CircuitVector.trusted((INF,) * matroid.n, frozenset())
        clean = check_circuit_axioms(vcircs, matroid)
        for family in (vcircs + [empty], [empty] + vcircs):
            report = check_circuit_axioms(family, matroid)
            assert report.violations[0].startswith("axiom 1: supports [[], ")
            assert report.violations[1:] == ["axiom 1: empty support"] + [
                f"axiom 1: support [] strictly inside {sorted(c.support)}"
                for c in vcircs]
            # one more vector: one empty-support check, 2 * len + 1 more
            # containment checks and one more canonical check
            assert report.checked == clean.checked + 2 * len(vcircs) + 3


def reference_circuit_axioms(vcircuits, matroid):
    """check_circuit_axioms as it was when axiom 4 ranked the union of
    every ordered pair of circuit vectors: the same checks and messages,
    each unordered pair's union ranked twice, by basis_rank."""
    report = AxiomReport()
    vectors = list(vcircuits)
    supports = [c.support for c in vectors]
    expected = set(matroid.circuits())
    report.checked += 1
    if set(supports) != expected:
        report.violations.append(
            f"axiom 1: supports {sorted(map(sorted, set(supports)))} differ "
            f"from the matroid circuits {sorted(map(sorted, expected))}"
        )
    for c in vectors:
        report.checked += 1
        if not c.support:
            report.violations.append("axiom 1: empty support")
    for a in supports:
        for b in supports:
            report.checked += 1
            if a < b:
                report.violations.append(
                    f"axiom 1: support {sorted(a)} strictly inside {sorted(b)}"
                )
    seen = {}
    for c in vectors:
        report.checked += 1
        if not c.is_canonical:
            report.violations.append(f"axiom 2/3: {c} is not canonical")
        if c.support in seen and seen[c.support] != c:
            report.violations.append(
                f"axiom 3: two distinct representatives on support "
                f"{sorted(c.support)}"
            )
        seen[c.support] = c
    n = matroid.n
    for c in vectors:
        for cp in vectors:
            if c is cp:
                continue
            union = c.support | cp.support
            if basis_rank(matroid, union) != len(union) - 2:
                continue
            for u in sorted(c.support & cp.support):
                aligned = cp.shifted(c[u] - cp[u])
                for v in sorted(c.support - cp.support):
                    report.checked += 1
                    floor = [min(c[i], aligned[i]) for i in range(n)]
                    if not any(
                        v in d.support and u not in d.support
                        and all(d[i] == INF or d[i] + c[v] - d[v] >= floor[i]
                                for i in range(n))
                        for d in vectors
                    ):
                        report.violations.append(
                            f"axiom 4: no eliminating circuit for supports "
                            f"{sorted(c.support)}, {sorted(cp.support)} with "
                            f"u={u}, v={v}"
                        )
    return report


def _tampered_families(vcircs):
    """The family as it is, and copies with one entry raised, one vector
    dropped, one vector listed twice, one non-canonical shift added, one
    vector joined by a copy with an entry raised and an equal copy, one
    vector replaced by two copies raised at different entries, and one
    vector joined by a copy on a smaller support."""
    yield list(vcircs)
    for k in range(0, len(vcircs), 3):
        c = vcircs[k]
        entries = list(c.entries)
        entries[min(c.support)] += 1 + k % 2
        yield vcircs[:k] + [CircuitVector(entries)] + vcircs[k + 1:]
    yield vcircs[1:]
    yield vcircs + vcircs[:1]
    yield vcircs + [vcircs[-1].shifted(2)]
    for k in range(0, len(vcircs), 4):
        c = vcircs[k]
        low, high = list(c.entries), list(c.entries)
        low[min(c.support)] += 1
        high[max(c.support)] += 1
        yield vcircs + [CircuitVector(high), CircuitVector(c.entries)]
        yield (vcircs[:k] + [CircuitVector(low), CircuitVector(high)]
               + vcircs[k + 1:])
        if len(c.support) > 1:
            low[min(c.support)] = INF
            yield vcircs + [CircuitVector(low)]


class TestCircuitAxiomsRankOnce:
    def test_same_reports_with_each_union_ranked_once(self, nonfano, monkeypatch):
        from algval.toric import IntMatrix, linear_valuated_matroid

        calls = []
        rank_of_mask = Matroid.rank_of_mask
        monkeypatch.setattr(Matroid, "rank_of_mask",
                            lambda m, s: calls.append(1) or rank_of_mask(m, s))
        matroid, _, vcircs, _ = nonfano
        cases = [(matroid, list(vcircs))]
        for rows in (((1, 0, 2, 1, 3), (0, 1, 1, 2, 1)),
                     ((2, 0, 0, 2, 1, 0), (0, 2, 0, 2, 0, 1), (0, 0, 2, 2, 1, 1))):
            valuation = linear_valuated_matroid(IntMatrix(rows), 2)
            cases.append((valuation.matroid, valuated_circuit_family(valuation)))
        violations = skipped = 0
        for m, family in cases:
            for tampered in _tampered_families(family):
                calls.clear()
                got = check_circuit_axioms(tampered, m)
                ranked = len(calls)
                calls.clear()
                expected = reference_circuit_axioms(tampered, m)
                assert (got.checked, got.violations) == (
                    expected.checked, expected.violations)
                pairs = [(a, b) for a, b in combinations(tampered, 2)
                         if a is not b]
                small = sum(len(a.support | b.support) <= m.rank + 2
                            for a, b in pairs)
                assert ranked == small and not calls
                violations += len(got.violations)
                skipped += len(pairs) - small
        assert violations > 0 and skipped > 0


def _doubled_candidates(family, matroid):
    """Whether some rank-deficit-2 pair has a union minus a shared u that
    holds two members of the family."""
    for c, cp in combinations(family, 2):
        union = c.support | cp.support
        if c is cp or basis_rank(matroid, union) != len(union) - 2:
            continue
        for u in c.support & cp.support:
            if sum(d.support <= union - {u} for d in family) > 1:
                return True
    return False


class TestCircuitAxiomsMatchReference:
    def test_seeded_tampered_families(self):
        violations = doubled = 0
        for valuation in _seeded_matrix_valuations(2606, 4):
            m, family = valuation.matroid, valuated_circuit_family(valuation)
            for tampered in _tampered_families(family) if family else ():
                got = check_circuit_axioms(tampered, m)
                assert _report(got) == _report(reference_circuit_axioms(tampered, m))
                violations += len(got.violations)
                doubled += _doubled_candidates(tampered, m)
        assert violations > 0 and doubled > 0

    def test_wide_negative_and_raised_entries(self):
        # the field width comes from the largest absolute entry, and the
        # offsets keep every field at least 0 for negative entries too
        rng = random.Random(3507)
        huge = negative = 0
        doubled = peaks = False
        for _ in range(2):
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(3))
            valuation = linear_valuated_matroid(IntMatrix(rows), rng.choice((2, 3)))
            for val in (valuation, dual(valuation)):
                m, family = val.matroid, valuated_circuit_family(val)
                for tampered in _stretched_families(family, rng):
                    got = check_circuit_axioms(tampered, m)
                    assert _report(got) == _report(reference_circuit_axioms(tampered, m))
                    finite = [e for c in tampered for e in c.entries if e != INF]
                    huge += max(finite) > 2**64 and len(got.violations)
                    negative += min(finite) < 0 and len(got.violations)
                    doubled = doubled or _doubled_candidates(tampered, m)
                    peaks = peaks or _peak_off_the_separating_set(tampered, m)
        assert huge > 0 and negative > 0 and doubled and peaks


def _scaled(vector, factor):
    return CircuitVector(tuple(e if e == INF else e * factor for e in vector.entries))


def _peak_off_the_separating_set(family, matroid):
    """Whether axiom 4 has an alignment, a pair, a shared u and a member
    d inside the union minus u, at which d's largest gap floor[x] - d[x]
    lies at no element of one support only."""
    for c, cp in combinations(family, 2):
        union = c.support | cp.support
        if c is cp or basis_rank(matroid, union) != len(union) - 2:
            continue
        apart = c.support ^ cp.support
        for u in c.support & cp.support:
            aligned = cp.shifted(c[u] - cp[u])
            floor = [min(a, b) for a, b in zip(c, aligned)]
            for d in family:
                if d.support <= union - {u}:
                    gaps = {x: floor[x] - d[x] for x in d.support}
                    top = max(gaps.values())
                    if all(gaps.get(v) != top for v in apart):
                        return True
    return False


def _stretched_families(family, rng):
    """Copies of a family that stretch the fields axiom 4 packs its
    vectors into: _tampered_families of the family with every entry
    scaled past 2**64, which lists some member twice, the family shifted
    by -3, the family with every finite entry redrawn in [-2, 2], which
    reaches the extremes of the offsets, and for every fourth vector and
    each element of its support the family with that entry raised by 1,
    every other one shifted by -3 as well."""
    yield from _tampered_families([_scaled(c, 2**65 + 3) for c in family])
    yield [c.shifted(-3) for c in family]
    yield [CircuitVector(tuple(e if e == INF else rng.randint(-2, 2) for e in c.entries))
           for c in family]
    for k in range(0, len(family), 4):
        for x in sorted(family[k].support):
            raised = _with_entry(family[k], x, family[k][x] + 1)
            tampered = family[:k] + [raised] + family[k + 1:]
            yield [c.shifted(-3) for c in tampered] if x % 2 else tampered


class TestExchangeConsistency:
    def test_nonfano_clean(self, nonfano):
        _, _, vcircs, valuation = nonfano
        report = check_exchange_consistency(valuation, vcircs)
        assert report.ok
        assert report.checked == 29 * 4 * 3

    def test_derived_family_default(self, nonfano):
        _, _, _, valuation = nonfano
        assert check_exchange_consistency(valuation).ok

    def test_tampered_value_detected(self, nonfano):
        matroid, _, vcircs, valuation = nonfano
        tampered = dict(valuation.values)
        tampered[S(1, 2, 3)] = 3
        report = check_exchange_consistency(Valuation(matroid, tampered), vcircs)
        assert not report.ok


def _seeded_matrix_valuations(seed, count):
    """count seeded matrices (d <= 4, n <= 8, entries in [-3, 3], p in
    {2, 3, 5}), about a third with a zeroed column and a third with a
    repeated row, so loops and rank deficits occur; yields each matrix's
    valuation, its dual and one minor."""
    rng = random.Random(seed)
    for _ in range(count):
        d, n = rng.randint(1, 4), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        if d > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        valuation = linear_valuated_matroid(
            IntMatrix(tuple(map(tuple, rows))), rng.choice((2, 3, 5)))
        yield valuation
        yield dual(valuation)
        elements = rng.sample(range(n), n)
        cut = rng.randint(0, n)
        split = rng.randint(0, cut)
        yield minor(valuation, delete=elements[:split],
                    contract=elements[split:cut])


def _with_entry(vector, k, value):
    entries = list(vector.entries)
    entries[k] = value
    return CircuitVector(entries)


def _corrupted_families(family, rng):
    """Three corruptions of a valuated circuit family: one finite entry
    moved, one finite entry made infinite, one circuit dropped; each is
    left out when the family has no circuit it would change."""
    wide = [i for i, c in enumerate(family) if len(c.support) >= 2]
    if wide:
        i = rng.choice(wide)
        k = rng.choice(sorted(family[i].support))
        moved = _with_entry(family[i], k, family[i][k] + rng.choice((-1, 1, 2)))
        yield family[:i] + [moved] + family[i + 1:]
        i = rng.choice(wide)
        k = rng.choice(sorted(family[i].support))
        yield family[:i] + [_with_entry(family[i], k, INF)] + family[i + 1:]
    if family:
        i = rng.randrange(len(family))
        yield family[:i] + family[i + 1:]


def _outcome(propagate, matroid, family):
    try:
        return propagate(matroid, family)
    except InconsistentValuationError:
        return None


def _report(report):
    return report.checked, report.violations


class TestExchangeWalk:
    """The single exchange walk against the breadth-first propagation
    and the separate checking pass it replaces."""

    def test_matches_two_pass_reference(self):
        rng = random.Random(9)
        instances = raises = violations = 0
        for valuation in _seeded_matrix_valuations(1704, 120):
            m = valuation.matroid
            family = valuated_circuit_family(valuation)
            assert valuation_from_circuits(m, family).values == valuation.values
            families = [family, *_corrupted_families(family, rng)]
            for fam in families:
                instances += 1
                derived = _outcome(valuation_from_circuits, m, fam)
                assert derived == _outcome(reference_valuation_from_circuits, m, fam)
                raises += derived is None
            tampered_values = Valuation(m, {
                b: x + rng.randint(0, 1) for b, x in valuation.values.items()})
            cases = [(valuation, fam) for fam in families]
            cases += [(tampered_values, family), (tampered_values, None)]
            for val, fam in cases:
                got = check_exchange_consistency(val, fam)
                assert _report(got) == _report(
                    reference_check_exchange_consistency(val, fam))
                violations += len(got.violations)
        assert instances >= 300
        assert 0 < raises < instances and violations > 0

    def test_every_later_basis_has_an_earlier_neighbor(self):
        count = 0
        for valuation in _seeded_matrix_valuations(1705, 150):
            for m in (valuation.matroid, valuation.matroid.dual()):
                count += 1
                for k in range(1, len(m.bases)):
                    assert any(len(m.bases[k] ^ a) == 2 for a in m.bases[:k])
        assert count == 900

    def test_support_shrunk_by_an_infinite_entry(self, nonfano):
        matroid, _, vcircs, valuation = nonfano
        target = next(c for c in vcircs if len(c.support) == 4)
        k = min(target.support)
        family = [_with_entry(c, k, INF) if c is target else c for c in vcircs]
        report = check_exchange_consistency(valuation, family)
        expected = f"no valuated circuit on support {sorted(target.support)}"
        spans = sum(matroid.fundamental_circuit(b, v) == target.support
                    for b in matroid.bases for v in range(7) if v not in b)
        assert report.violations == [expected] * spans and spans > 0
        assert _report(report) == _report(
            reference_check_exchange_consistency(valuation, family))
        with pytest.raises(InconsistentValuationError, match="circuit covers"):
            valuation_from_circuits(matroid, family)


class TestOrthogonality:
    def test_nonfano_pairs(self, nonfano):
        _, _, vcircs, valuation = nonfano
        report = check_orthogonality(vcircs, cocircuits(valuation))
        assert report.ok
        assert report.checked > 0

    def test_violation_detected(self):
        c = CircuitVector((0, 0, INF))
        d = CircuitVector((0, 1, INF))
        report = check_orthogonality([c], [d])
        assert not report.ok


def reference_orthogonality(circuit_vectors, cocircuit_vectors):
    """check_orthogonality as it was before it read entry tuples and
    support masks: frozenset intersections and sums by index."""
    report = AxiomReport()
    for c in circuit_vectors:
        for d in cocircuit_vectors:
            if not (c.support & d.support):
                continue
            report.checked += 1
            sums = [c[i] + d[i] for i in range(len(c))]
            best = min(sums)
            if sums.count(best) < 2:
                report.violations.append(
                    f"minimum of circuit {c} + cocircuit {d} attained once"
                )
    return report


class TestOrthogonalityMatchesReference:
    def test_tampered_cocircuit_families(self):
        rng = random.Random(2607)
        violations = cases = 0
        for valuation in _seeded_matrix_valuations(2607, 60):
            circuits = valuated_circuit_family(valuation)
            family = cocircuits(valuation)
            for cocircs in [family, *_corrupted_families(family, rng), family + family[:1]]:
                for circs in (circuits, *_corrupted_families(circuits, rng)):
                    got = check_orthogonality(circs, cocircs)
                    assert _report(got) == _report(reference_orthogonality(circs, cocircs))
                    violations += len(got.violations)
                    cases += 1
        assert violations > 0 and cases > 500

    def test_wide_entries_and_one_element_meets(self):
        # the sums are taken only where the supports meet, so a meet of
        # one element is a violation, and entries past 2**64 stay exact
        rng = random.Random(2608)
        huge = singles = 0
        for valuation in _seeded_matrix_valuations(2608, 30):
            circuits = valuated_circuit_family(valuation)
            family = cocircuits(valuation)
            # each cocircuit cut down to meet the first circuit that it
            # meets twice or more in its least shared element alone
            cut = []
            for d in family:
                c = next((c for c in circuits if len(c.support & d.support) > 1), None)
                if c is not None:
                    meet = sorted(c.support & d.support)
                    cut.append(CircuitVector(tuple(
                        INF if x in meet[1:] else e for x, e in enumerate(d.entries))))
            wide = [_scaled(c, 2**65 + 3) for c in circuits]
            wide_cocircs = [_scaled(d, 2**65 + 3) for d in family]
            cases = [(circuits, family + cut), (wide, wide_cocircs)]
            cases += [(wide, cocircs) for cocircs in _corrupted_families(wide_cocircs, rng)]
            for circs, cocircs in cases:
                got = check_orthogonality(circs, cocircs)
                assert _report(got) == _report(reference_orthogonality(circs, cocircs))
                singles += sum(len(c.support & d.support) == 1
                               for c in circs for d in cocircs)
                huge += circs is wide and len(got.violations)
        assert singles > 0 and huge > 0


class TestDerivedCircuitFamily:
    def test_matches_polynomial_route(self, nonfano):
        _, _, vcircs, valuation = nonfano
        assert valuated_circuit_family(valuation) == list(vcircs)

    def test_minor_circuit_supports(self, nonfano):
        _, _, _, valuation = nonfano
        got = minor(valuation, delete=S(7))
        family = valuated_circuit_family(got)
        assert {c.support for c in family} == set(got.matroid.circuits())

    def test_minors_are_valuated_matroids(self, nonfano):
        # the completion construction must produce values satisfying the
        # exchange identity and circuit axioms on the minor itself
        _, _, _, valuation = nonfano
        for g, f in [(S(7), S(1)), (S(1, 2), S(4)), (frozenset(), S(1, 2, 4))]:
            sub = minor(valuation, delete=g, contract=f)
            family = valuated_circuit_family(sub)
            assert check_exchange_consistency(sub, family).ok
            assert check_circuit_axioms(family, sub.matroid).ok

    def test_cocircuits_satisfy_dual_axioms(self, nonfano):
        _, _, _, valuation = nonfano
        report = check_circuit_axioms(
            cocircuits(valuation), valuation.matroid.dual()
        )
        assert report.ok, report.violations[:5]
