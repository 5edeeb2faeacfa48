import json
import os
import random
import tracemalloc
from itertools import combinations

import pytest

from algval import algmat
from algval.algmat import (
    CircuitRecord,
    EliminationOracle,
    Matroid,
    bases,
    circuits,
    exchange_failure,
    rank,
)
from algval.ffpoly import Polynomial, PrimeField, parse_polynomial
from algval.groebner import Ideal, NotPrincipalError, eliminate, principal_generator
from algval.toric import (
    IntMatrix, _minor_table, integer_rank, linear_valuated_matroid, row_basis,
    toric_ideal,
)
from algval.valmat import cocircuits, valuated_circuit_family, valuation_from_circuits

from conftest import (
    NONFANO_A,
    NONFANO_VARS,
    S,
    basis_rank,
    column_rank,
    exchange_holds,
    frozenset_fundamental_circuit,
    frozenset_fundamental_circuits,
    minimal_dependent_sets,
    minor_det,
    probe_exchange_table,
    reference_exchange_failure,
)


def P(text, variables=("x1", "x2"), p=2):
    return parse_polynomial(text, variables, p)


def I(texts, variables=("x1", "x2"), p=2):
    return Ideal.from_strings(p, variables, texts)


def _counted_eliminations(monkeypatch):
    calls = []

    def counted(ideal, keep, leads=None):
        calls.append(frozenset(keep))
        return eliminate(ideal, keep, leads)

    monkeypatch.setattr(algmat, "eliminate", counted)
    return calls


def _entries(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == 2
    return doc["eliminations"]


@pytest.fixture(scope="module")
def nonfano_oracle(nonfano_ideal):
    return EliminationOracle(nonfano_ideal)


@pytest.fixture(scope="module")
def nonfano_matroid(nonfano_ideal, nonfano_oracle):
    return bases(nonfano_ideal, oracle=nonfano_oracle)


@pytest.fixture(scope="module")
def nonfano_circuits(nonfano_ideal, nonfano_oracle):
    return circuits(nonfano_ideal, oracle=nonfano_oracle)


class TestMatroidType:
    def test_exchange_violation_rejected(self):
        # {1},{2,3} cannot be bases of one matroid (sizes differ)
        with pytest.raises(ValueError):
            Matroid(3, [{0}, {1, 2}])
        # equal sizes but exchange fails
        with pytest.raises(ValueError):
            Matroid(4, [{0, 1}, {2, 3}])

    def test_uniform_matroid_accepted(self):
        m = Matroid(4, combinations(range(4), 2))
        assert m.rank == 2
        assert len(m.bases) == 6

    def test_rank_of_and_independence(self):
        m = Matroid(3, [{0, 1}, {0, 2}])
        assert m.rank_of({1, 2}) == 1
        assert m.rank_of({0, 1}) == 2

    def test_dual_involution(self):
        m = Matroid(4, [{0, 1}, {0, 2}, {1, 2}])
        assert m.dual().dual() == m

    @pytest.mark.parametrize("n", [4, 9])
    def test_exchange_failure_named_by_elements(self, n):
        # checked at every n, and named by 1-based elements
        with pytest.raises(ValueError, match=(
                r"^basis exchange fails for \[1, 2\], \[3, 4\] at 1$")):
            Matroid(n, [{0, 1}, {2, 3}])

    def test_fundamental_circuit_formula(self):
        m = Matroid(3, [{0}, {1}])
        assert m.fundamental_circuit({0}, 1) == {0, 1}
        with pytest.raises(ValueError):
            m.fundamental_circuit({2}, 0)


def _random_families(seed, count):
    """Seeded families of equal-size subsets: every r-subset of
    {0..n-1} kept with one of a few probabilities, so that both
    matroids and non-matroids occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        r = rng.randint(0, n)
        keep = rng.choice((1.0, 0.9, 0.7, 0.4))
        family = [frozenset(c) for c in combinations(range(n), r)
                  if rng.random() < keep]
        if family:
            yield n, family


def subset_scan_circuits(n, family):
    """Every subset that lies in no basis while each of its one-smaller
    subsets does, ascending by size then lexicographically."""
    def independent(s):
        return any(s <= b for b in family)
    return [
        frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)
        if not independent(frozenset(c))
        and all(independent(frozenset(c) - {e}) for e in c)
    ]


class TestExchangeMatchesPairScan:
    def test_accepts_and_rejects_as_the_pair_scan(self):
        outcomes = set()
        for n, family in _random_families(6, 3000):
            expected = exchange_holds(family)
            outcomes.add(expected)
            if expected:
                Matroid(n, family)
            else:
                with pytest.raises(ValueError, match="basis exchange fails"):
                    Matroid(n, family)
        assert outcomes == {True, False}

    def test_mask_check_names_the_failure_matroid_reports(self):
        # exchange_failure is the check behind Matroid, run on masks
        for n, family in _random_families(11, 2000):
            bases = sorted(family, key=sorted)
            masks = [sum(1 << e for e in b) for b in bases]
            failure = exchange_failure(n, masks)
            assert failure == reference_exchange_failure(n, masks)
            assert (failure is None) == exchange_holds(family)
            if failure is None:
                continue
            b1, b2, u = bases[failure[0]], bases[failure[1]], failure[2]
            assert u in b1 - b2
            assert all(b1 - {u} | {v} not in family for v in b2 - b1)
            with pytest.raises(ValueError) as caught:
                Matroid(n, family)
            assert str(caught.value) == (
                f"basis exchange fails for {[e + 1 for e in sorted(b1)]}, "
                f"{[e + 1 for e in sorted(b2)]} at {u + 1}"
            )

    def test_circuits_match_the_subset_scan(self):
        for n, family in _random_families(7, 3000):
            if exchange_holds(family):
                assert Matroid(n, family).circuits() == subset_scan_circuits(n, family)


class TestFundamentalCircuitSweep:
    def test_first_spanning_pair_of_each_circuit(self):
        swept = 0
        for n, family in _random_families(8, 1500):
            if not exchange_holds(family):
                continue
            m = Matroid(n, family)
            sweep = m.fundamental_circuits()
            assert list(sweep) == subset_scan_circuits(n, family)
            pairs = [(b, v) for b in m.bases for v in range(n) if v not in b]
            for c, (b, v) in sweep.items():
                assert m.fundamental_circuit(b, v) == c
                # c lies inside b + v, which holds exactly one circuit
                assert c <= b | {v} and v in c
                first = next(q for q in pairs if m.fundamental_circuit(*q) == c)
                assert (b, v) == first
                swept += 1
        assert swept > 1000

    def test_free_and_loop_matroids(self):
        assert Matroid(3, [{0, 1, 2}]).fundamental_circuits() == {}
        loops = Matroid(2, [frozenset()]).fundamental_circuits()
        assert loops == {frozenset({0}): (frozenset(), 0),
                         frozenset({1}): (frozenset(), 1)}



def _benchmark_4x12_matrices(seed):
    """The 14 inputs of the benchmark's matrix-valuation workload at a
    seed: 4x12, entries in [-3, 4], full row rank, no zero column."""
    rng = random.Random(seed)
    for _ in range(14):
        while True:
            rows = [[rng.randint(-3, 4) for _ in range(12)] for _ in range(4)]
            if all(any(r[j] for r in rows) for j in range(12)) and integer_rank(rows) == 4:
                yield IntMatrix(tuple(map(tuple, rows)))
                break


class TestMaskSweepMatchesFrozensetSweep:
    """The sweep and the dual on basis masks against frozenset code."""

    def assert_sweeps_agree(self, m):
        expected = frozenset_fundamental_circuits(m)
        assert list(m.fundamental_circuits().items()) == list(expected.items())
        for c, (b, v) in expected.items():
            assert m.fundamental_circuit(b, v) == c

    def test_random_families_and_their_duals(self):
        swept = 0
        for n, family in _random_families(9, 4000):
            if exchange_holds(family):
                m = Matroid(n, family)
                self.assert_sweeps_agree(m)
                self.assert_sweeps_agree(m.dual())
                swept += 1
        assert swept >= 3000

    def test_benchmark_matrices_and_their_duals(self):
        for matrix in _benchmark_4x12_matrices(1):
            m = _minor_table(matrix, row_basis(matrix))[0]
            self.assert_sweeps_agree(m)
            self.assert_sweeps_agree(m.dual())

    def test_dual_equals_the_checked_complements(self):
        for n, family in _random_families(10, 1500):
            if not exchange_holds(family):
                continue
            m = Matroid(n, family)
            d = m.dual()
            ground = frozenset(range(n))
            checked = Matroid(n, [ground - b for b in m.bases])
            assert (d.n, d.rank, d.bases, d.masks) == (
                checked.n, checked.rank, checked.bases, checked.masks)
            assert d == checked
            # the dual builds its far sets from its own masks; the
            # reference sweeps the complements checked from scratch
            assert (list(d.fundamental_circuits().items())
                    == list(frozenset_fundamental_circuits(checked).items()))
            assert exchange_holds(d.bases)
            assert d.dual().bases == m.bases

    def test_sweep_is_shared_and_copied(self):
        m = Matroid(5, combinations(range(5), 3))
        expected = frozenset_fundamental_circuits(m)
        first = m.fundamental_circuits()
        assert first is not m.fundamental_circuits()
        first.clear()
        m.circuits().clear()
        assert m.fundamental_circuits() == expected
        assert m.circuits() == list(expected)


def _mask_of(elements):
    return sum(1 << e for e in elements)


def _frozenset_near_far(n, bases):
    """The near and far sets of a basis family on frozensets, as masks:
    near[R] for every (r-1)-set R inside a basis is every v with R + v a
    basis, and far[S] for every (r+1)-set S holding a basis is every x
    with S - x a basis.  far lists each S at its first (basis, v) pair,
    bases in order and v ascending."""
    known = set(bases)
    near, far = {}, {}
    for b in bases:
        for u in sorted(b):
            rest = b - {u}
            near[_mask_of(rest)] = _mask_of(v for v in range(n) if rest | {v} in known)
        for v in range(n):
            if v not in b and _mask_of(b | {v}) not in far:
                s = b | {v}
                far[_mask_of(s)] = _mask_of(x for x in s if s - {x} in known)
    return near, far


def _special_matroids():
    """Matroids with loops, coloops, rank 0 and full rank."""
    yield Matroid(1, [frozenset()])  # one loop, rank 0
    yield Matroid(4, [frozenset()])  # four loops
    yield Matroid(3, [{0, 1, 2}])  # free: every element a coloop
    yield Matroid(5, [{0, 1}, {0, 2}, {0, 3}])  # coloop 0, loop 4
    yield Matroid(6, [b | {5} for b in map(frozenset, combinations(range(4), 2))])
    yield Matroid(4, [{0}, {1}, {2}])  # rank 1 with a loop


class TestExchangeTable:
    """The near and far sets a matroid keeps, against their frozenset
    definitions, and the number of exchange-check passes
    (_neighbourhoods) a matroid runs."""

    @staticmethod
    def assert_near_far(m):
        near, far = _frozenset_near_far(m.n, m.bases)
        assert m.near() == near
        assert list(m.far().items()) == list(far.items())
        known = set(m.bases)
        for b, mask in zip(m.bases, m.masks):
            for e in range(m.n):
                if e in b:
                    # the fundamental cocircuit of e in b
                    expected = {e} | {v for v in range(m.n)
                                      if v not in b and b - {e} | {v} in known}
                    assert m.near()[mask ^ 1 << e] == _mask_of(expected)
                else:
                    expected = frozenset_fundamental_circuit(known, b, e)
                    assert m.far()[mask | 1 << e] == _mask_of(expected)

    def test_near_and_far_hold_cocircuits_and_circuits(self):
        tables = 0
        for n, family in _random_families(12, 1500):
            if not exchange_holds(family):
                continue
            m = Matroid(n, family)
            self.assert_near_far(m)
            # the dual builds its own from its masks, equal to those of
            # the complements checked from scratch
            ground = frozenset(range(n))
            checked = Matroid(n, [ground - b for b in m.bases])
            self.assert_near_far(m.dual())
            assert m.dual().near() == checked.near()
            assert list(m.dual().far().items()) == list(checked.far().items())
            tables += 1
        assert tables > 1000

    def test_loops_coloops_and_extreme_ranks(self):
        for m in _special_matroids():
            self.assert_near_far(m)
            self.assert_near_far(m.dual())
        # rank 0: no (r-1)-sets, and each loop is its own circuit
        loops = Matroid(2, [frozenset()])
        assert loops.near() == {}
        assert list(loops.far().items()) == [(0b01, 0b01), (0b10, 0b10)]
        # full rank: no (r+1)-sets, and each coloop is its own cocircuit
        free = Matroid(2, [{0, 1}])
        assert free.far() == {}
        assert free.near() == {0b10: 0b01, 0b01: 0b10}

    def test_one_pass_per_matroid(self, monkeypatch):
        passes, built = [], []
        check, near_sets = algmat._neighbourhoods, algmat._near_sets

        def counted(n, masks):
            passes.append(len(masks))
            return check(n, masks)

        def counted_near(masks):
            built.append(len(masks))
            return near_sets(masks)

        monkeypatch.setattr(algmat, "_neighbourhoods", counted)
        monkeypatch.setattr(algmat, "_near_sets", counted_near)
        valuation = linear_valuated_matroid(IntMatrix(NONFANO_A), 2)
        vcircs = valuated_circuit_family(valuation)
        valuation.matroid.circuits()
        assert valuation_from_circuits(valuation.matroid, vcircs) == valuation
        cocircuits(valuation)
        assert passes == [len(valuation.matroid.bases)] and built == []
        # a trusted matroid runs no check; its near sets come on first
        # use, built once without the check, equal to the checked ones
        d = valuation.matroid.dual()
        d.circuits()
        assert built == []
        assert d.near() is d.near()
        assert passes == [len(valuation.matroid.bases)]
        assert built == [len(d.bases)]
        assert d.near() == check(d.n, d.masks)[0]

    def test_failure_triple_of_the_check(self):
        assert algmat._neighbourhoods(4, [0b0011, 0b1100]) == (
            {0b0010: 0b0001, 0b0001: 0b0010, 0b1000: 0b0100, 0b0100: 0b1000},
            (0, 1, 0), [0b01, 0b01, 0b10, 0b10])
        assert algmat._neighbourhoods(2, [0]) == ({}, None, [0, 0])
        assert exchange_failure(4, [0b0011, 0b1100]) == (0, 1, 0)


class TestNeighbourhoodsMatchProbe:
    """The exchange check, the near sets and the far sets against the
    probe of every (basis, u in, v out): the same failure triple in any
    basis order, and on a family that passes, the probe's row entries
    near[B - u] for u in B and far[B + v] for v outside B."""

    @staticmethod
    def same_as_probe(n, masks):
        rows, failure = probe_exchange_table(n, masks)
        near, got, _ = algmat._neighbourhoods(n, masks)
        assert got == failure
        assert exchange_failure(n, masks) == failure
        if failure is None:
            bases = [frozenset(e for e in range(n) if m >> e & 1) for m in masks]
            far = Matroid.trusted(n, bases, masks).far()
            outside = [(m, b) for m in masks for b in (1 << e for e in range(n))]
            assert set(near) == {m ^ b for m, b in outside if m & b}
            assert set(far) == {m | b for m, b in outside if not m & b}
            for m, row in zip(masks, rows):
                for e in range(n):
                    b = 1 << e
                    assert row[e] == (near[m ^ b] if m & b else far[m | b])
        return failure is None

    def test_random_families_of_every_rank(self):
        rng = random.Random(1901)
        outcomes = set()
        for n in range(10):
            for r in range(n + 1):
                subsets = [_mask_of(c) for c in combinations(range(n), r)]
                for keep in (1.0, 0.8, 0.5, 0.2):
                    masks = [m for m in subsets if rng.random() < keep]
                    if not masks:
                        continue
                    if rng.random() < 0.5:
                        rng.shuffle(masks)
                    outcomes.add(self.same_as_probe(n, masks))
        assert outcomes == {True, False}

    def test_single_basis_families(self):
        rng = random.Random(1902)
        for n in range(10):
            for r in range(n + 1):
                basis = _mask_of(rng.sample(range(n), r))
                assert self.same_as_probe(n, [basis])

    def test_one_basis_away_from_a_matroid(self):
        # column matroids with one basis dropped or one r-set added
        rng = random.Random(1903)
        outcomes = {"dropped": set(), "added": set()}
        for _ in range(120):
            n = rng.randint(2, 9)
            r = rng.randint(1, min(n - 1, 4))
            matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            subsets = [_mask_of(c) for c in combinations(range(n), r)]
            masks = [m for m, c in zip(subsets, combinations(range(n), r))
                     if minor_det(matrix, range(r), c)]
            if not masks:
                continue
            assert self.same_as_probe(n, masks)
            if len(masks) > 1:
                k = rng.randrange(len(masks))
                outcomes["dropped"].add(self.same_as_probe(n, masks[:k] + masks[k + 1:]))
            others = [m for m in subsets if m not in masks]
            if others:
                extra = rng.choice(others)
                outcomes["added"].add(self.same_as_probe(n, sorted(masks + [extra])))
                outcomes["added"].add(self.same_as_probe(n, [extra] + masks))
        assert outcomes == {"dropped": {True, False}, "added": {True, False}}


class TestIndependent:
    def test_parameters_are_independent(self, nonfano_oracle):
        assert nonfano_oracle.independent(S(1, 2, 3))

    def test_empty_set(self, nonfano_oracle):
        assert nonfano_oracle.independent(frozenset())

    def test_product_relation_dependent(self, nonfano_oracle):
        assert not nonfano_oracle.independent(S(1, 2, 4))


def _certificate_ideals():
    rng = random.Random(1988)
    for k in range(6):
        d, n = rng.randint(1, 2), rng.randint(3, 5)
        rows = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d))
        p = (2, 3, 5)[k % 3]
        yield pytest.param(lambda rows=rows, p=p: toric_ideal(IntMatrix(rows), p),
                           id=f"toric{k}-p{p}")
    # x_{d+j} - f_j(x_1..x_d) with random f_j of one or two terms
    for k in range(6):
        d, m = rng.randint(1, 2), rng.randint(1, 3)
        names = tuple(f"x{i}" for i in range(1, d + m + 1))
        texts = []
        for j in range(m):
            terms = ["*".join([str(rng.randint(1, 4))] + [
                         f"x{i + 1}^{rng.randint(1, 3)}"
                         for i in range(d) if rng.random() < 0.7])
                     for _ in range(rng.randint(1, 2))]
            texts.append(f"x{d + j + 1} - " + " - ".join(terms))
        p = (2, 3, 5)[k % 3]
        yield pytest.param(lambda names=names, texts=texts, p=p:
                           Ideal.from_strings(p, names, texts),
                           id=f"graph{k}-p{p}")
    names = ("x1", "x2", "x3", "x4")
    yield pytest.param(lambda: I(["x1*x3", "x1*x4", "x2*x3", "x2*x4"], names, p=3),
                       id="two-planes")
    yield pytest.param(lambda: I(["x1*x3", "x2*x3"], names[:3], p=3), id="plane-and-line")
    # x3 = 1 forces x1 = 0, so x1*x2 = 1 fails: the unit ideal, though
    # no generator is a constant
    yield pytest.param(lambda: I(["x1*x2 - 1", "x1*x3", "x3 - 1"], names[:3], p=3),
                       id="unit")


class TestCertificates:
    @pytest.mark.parametrize("make_ideal", [*_certificate_ideals()])
    def test_answers_equal_plain_elimination(self, make_ideal):
        ideal = make_ideal()
        n = ideal.n
        subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(n), r)]
        plain = {s: tuple(eliminate(ideal, s)) for s in subsets}
        random.Random(n).shuffle(subsets)
        # one oracle asked only independent(), one only elimination(), so
        # each certificate meets sets that no elimination has decided
        by_independent, by_elimination = EliminationOracle(ideal), EliminationOracle(ideal)
        for s in subsets:
            assert by_independent.independent(s) == (not plain[s]), sorted(s)
            assert by_elimination.elimination(s) == plain[s], sorted(s)

    def test_cache_files_match_plain_elimination(self, nonfano_ideal, tmp_path,
                                                  monkeypatch):
        calls = _counted_eliminations(monkeypatch)
        cold = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        queried, elimination = set(), cold.elimination

        def asked(subset):
            queried.add(frozenset(subset))
            return elimination(subset)

        cold.elimination = asked
        matroid = bases(nonfano_ideal, oracle=cold)
        records = circuits(nonfano_ideal, oracle=cold)
        assert list(tmp_path.iterdir()) == []
        cold.save()
        # the one file holds an entry for every queried set and none for
        # the steps between them, and no keep set is eliminated twice
        assert len(set(calls)) == len(calls)
        assert [path.name for path in tmp_path.iterdir()] == ["fp-elim.json"]
        written = set()
        for key, texts in _entries(tmp_path / "fp-elim.json").items():
            mask = int(key, 16)
            assert key == f"{mask:x}"
            subset = frozenset(e for e in range(nonfano_ideal.n) if mask >> e & 1)
            written.add(subset)
            assert texts == [str(g) for g in eliminate(nonfano_ideal, subset)]
        assert written == queried

        calls.clear()
        warm = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        assert bases(nonfano_ideal, oracle=warm) == matroid
        assert circuits(nonfano_ideal, oracle=warm) == records
        assert calls == []
        assert warm.rejected == 0


def _golden_ideal(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "inputs", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        problem = json.load(fh)
    return Ideal.from_strings(problem["p"], problem["vars"], problem["generators"])


class TestOneVariableSteps:
    """Each elimination the oracle runs removes at most one variable
    from the ideal it is given, and no keep set is eliminated twice."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []

        def counted(ideal, keep, leads=None):
            used = frozenset().union(*(g.support() for g in ideal.generators))
            calls.append((frozenset(keep), used - frozenset(keep)))
            return eliminate(ideal, keep, leads)

        monkeypatch.setattr(algmat, "eliminate", counted)
        return calls

    @staticmethod
    def check(calls):
        assert calls
        assert all(len(outside) <= 1 for _, outside in calls), calls
        keeps = [keep for keep, _ in calls]
        assert len(set(keeps)) == len(keeps)

    @pytest.mark.parametrize("name", ["nonfano-ideal", "p3-ideal"])
    def test_golden_circuits(self, steps, name):
        circuits(_golden_ideal(name))
        self.check(steps)

    @pytest.mark.parametrize("make_ideal", [*_certificate_ideals()])
    def test_every_subset(self, steps, make_ideal):
        ideal = make_ideal()
        subsets = [frozenset(c) for r in range(ideal.n + 1)
                   for c in combinations(range(ideal.n), r)]
        random.Random(ideal.n).shuffle(subsets)
        oracle = EliminationOracle(ideal)
        for s in subsets:
            oracle.elimination(s)
        self.check(steps)


class TestLexStallGraph:
    """A graph ideal whose elimination of every variable but x3, x4 at
    once under a lex block ran for minutes; one variable at a time it
    takes about two seconds."""

    def test_circuits_vanish_on_the_graph(self):
        ideal = _golden_ideal("lex-stall-graph")
        found = circuits(ideal)
        degrees = [max(map(sum, rec.polynomial.terms)) for rec in found]
        assert degrees == [6, 6, 18, 20]
        # x3 and x4 as polynomials in x1, x2, checked by + and * alone
        field, names = ideal.field, ideal.vars
        minus = Polynomial.constant(field, names, -1)
        image = [Polynomial.variable(field, names, 0),
                 Polynomial.variable(field, names, 1),
                 minus * parse_polynomial("x1^3 + 2*x1*x2^3 + 2*x1^2*x2^4", names, 3),
                 minus * parse_polynomial("x1^4*x2^2", names, 3)]
        for rec in found:
            total = Polynomial.zero(field, names)
            for expo, c in rec.polynomial.terms.items():
                term = Polynomial.constant(field, names, c)
                for i, e in enumerate(expo):
                    for _ in range(e):
                        term = term * image[i]
                total = total + term
            assert total.is_zero(), rec.polynomial


class TestRank:
    def test_empty(self, nonfano_ideal, nonfano_oracle):
        assert rank(nonfano_ideal, frozenset(), oracle=nonfano_oracle) == 0

    def test_full_ground_set(self, nonfano_ideal, nonfano_oracle):
        assert rank(nonfano_ideal, range(7), oracle=nonfano_oracle) == 3

    def test_456_is_spanning(self, nonfano_ideal, nonfano_oracle):
        assert rank(nonfano_ideal, S(4, 5, 6), oracle=nonfano_oracle) == 3


class TestCircuits:
    def test_single_relation(self):
        got = circuits(I(["x1 - x2^2"]))
        assert len(got) == 1
        assert got[0].support == {0, 1}
        assert got[0].polynomial == P("x2^2 + x1")

    def test_nonfano_contains_product_circuit(self, nonfano_circuits):
        by_support = {rec.support: rec.polynomial for rec in nonfano_circuits}
        assert S(1, 2, 4) in by_support
        assert by_support[S(1, 2, 4)] == P("x1*x2 - x4", NONFANO_VARS, 2)

    def test_nonfano_supports_match_column_matroid(self, nonfano_circuits):
        # oracle: minimal dependent column sets of the exponent matrix
        expected = []
        for size in range(1, 5):
            for combo in combinations(range(7), size):
                s = frozenset(combo)
                if any(c <= s for c in expected):
                    continue
                if column_rank(NONFANO_A, s) < size:
                    expected.append(s)
        assert {rec.support for rec in nonfano_circuits} == set(expected)

    def test_free_ideal_has_none(self):
        field = PrimeField(2)
        assert circuits(Ideal(field, ("x1", "x2", "x3"), ())) == []

    def test_unit_ideal_rejected(self):
        with pytest.raises(NotPrincipalError):
            circuits(I(["1"]))

    @pytest.mark.parametrize("texts,p", [(["x1^2"], 2), (["x1^3 + x2^3"], 3)])
    def test_pth_power_circuit_rejected(self, texts, p):
        with pytest.raises(NotPrincipalError, match="th power"):
            circuits(I(texts, p=p))


def reference_circuits(ideal):
    """Every subset up to rank + 1 asked of its own oracle, skipping
    supersets of circuits already found: the enumeration circuits() ran
    before it read the circuits off the basis family."""
    oracle = EliminationOracle(ideal)
    r = rank(ideal, range(ideal.n), oracle)
    return [
        CircuitRecord(s, principal_generator(oracle.elimination(s)))
        for s in minimal_dependent_sets(
            ideal.n, lambda s: not oracle.independent(s), r + 1
        )
    ]


def _seeded_toric_ideals():
    rng = random.Random(20240917)
    for k in range(12):
        d, n = rng.randint(1, 3), rng.randint(2, 6)
        rows = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d))
        p = (2, 3)[k % 2]
        yield pytest.param(lambda rows=rows, p=p: toric_ideal(IntMatrix(rows), p),
                           id=f"toric{k}-p{p}")


def _seeded_graph_ideals():
    # x_{d+j} - x^{a_j} for each column a_j of a random d x m matrix A
    rng = random.Random(1704)
    for k in range(8):
        d, m = rng.randint(1, 3), rng.randint(2, 4)
        a = [[rng.randint(0, 2) for _ in range(m)] for _ in range(d)]
        names = tuple(f"x{i}" for i in range(1, d + m + 1))
        texts = [
            f"x{d + j + 1} - " + "*".join(
                [f"x{i + 1}^{a[i][j]}" for i in range(d) if a[i][j]] or ["1"]
            )
            for j in range(m)
        ]
        p = (2, 3)[k % 2]
        yield pytest.param(lambda names=names, texts=texts, p=p:
                           Ideal.from_strings(p, names, texts),
                           id=f"graph{k}-p{p}")


class TestCircuitsMatchReference:
    @pytest.mark.parametrize(
        "make_ideal", [*_seeded_toric_ideals(), *_seeded_graph_ideals()]
    )
    def test_same_supports_polynomials_and_order(self, make_ideal):
        ideal = make_ideal()
        assert circuits(ideal) == reference_circuits(ideal)

    def test_nonfano(self, nonfano_ideal, nonfano_circuits):
        assert nonfano_circuits == reference_circuits(nonfano_ideal)


class TestMinimalDependentSets:
    def test_minimal_members_of_an_up_closure(self):
        # a set is dependent when it holds one of these sets
        family = [frozenset(s) for s in ({1, 3}, {0, 1, 2}, {2, 3, 4}, {3})]
        asked = []

        def dependent(s):
            asked.append(s)
            return any(f <= s for f in family)

        got = list(minimal_dependent_sets(5, dependent, 3))
        expected = [frozenset({3}), frozenset({0, 1, 2})]
        assert got == expected
        # never asked about a superset of a set it already yielded
        for s in asked:
            assert not any(g < s for g in got)

    def test_order_and_bound(self):
        got = list(minimal_dependent_sets(4, lambda s: len(s) == 2, 3))
        assert got == [frozenset(c) for c in combinations(range(4), 2)]
        assert list(minimal_dependent_sets(4, lambda s: len(s) == 3, 2)) == []


class TestBases:
    def test_nonfano_basis_count(self, nonfano_matroid):
        # oracle: determinant check over all 35 column triples
        expected = {
            frozenset(c)
            for c in combinations(range(7), 3)
            if column_rank(NONFANO_A, c) == 3
        }
        assert len(expected) == 29
        assert set(nonfano_matroid.bases) == expected

    def test_free_ideal_single_basis(self):
        field = PrimeField(2)
        m = bases(Ideal(field, ("x1", "x2", "x3"), ()))
        assert m.bases == (frozenset({0, 1, 2}),)

    def test_rank_one_relation(self):
        m = bases(I(["x1 - x2"]))
        assert set(m.bases) == {frozenset({0}), frozenset({1})}

    def test_oracle_keeps_the_matroid(self, nonfano_ideal, nonfano_oracle,
                                      nonfano_matroid):
        assert bases(nonfano_ideal, oracle=nonfano_oracle) is nonfano_matroid

    @pytest.mark.parametrize("n", [4, 9])
    def test_non_matroid_independent_sets_rejected(self, n):
        # the zero set is the planes x1 = x2 = 0 and x3 = x4 = 0, so
        # {x1, x2} and {x3, x4} are the only independent pairs, and they
        # fail basis exchange; x5..xn are free and keep n past any cutoff
        names = tuple(f"x{i}" for i in range(1, n + 1))
        idl = I(["x1*x3", "x1*x4", "x2*x3", "x2*x4"], names, p=3)
        with pytest.raises(NotPrincipalError, match="not a matroid"):
            bases(idl)

    def test_zero_elimination_circuit_rejected(self):
        # (x1*x3, x2*x3): the only basis {x1, x2} makes x3 a loop, but x3
        # is free on the line x1 = x2 = 0
        idl = I(["x1*x3", "x2*x3"], ("x1", "x2", "x3"), p=3)
        with pytest.raises(NotPrincipalError, match=r"circuit \{x3\}.*zero"):
            circuits(idl)


class TestHyperplanes:
    def test_nonfano_contains_expected(self, nonfano_matroid):
        got = set(nonfano_matroid.hyperplanes())
        # oracle: closed rank-2 column sets of the exponent matrix
        for h in (S(1, 2, 4), S(3, 4, 7)):
            assert column_rank(NONFANO_A, h) == 2
            assert all(
                column_rank(NONFANO_A, h | {v}) == 3 for v in set(range(7)) - h
            )
            assert h in got

    def test_rank_one_matroid(self):
        m = Matroid(2, [{0}, {1}])
        assert m.hyperplanes() == [frozenset()]

    def test_free_matroid(self):
        m = Matroid(2, [{0, 1}])
        assert m.hyperplanes() == [frozenset({0}), frozenset({1})]

    def test_rank_zero_rejected(self):
        m = Matroid(2, [frozenset()])
        with pytest.raises(ValueError):
            m.hyperplanes()


def _seeded_matroids(seed, count):
    """Column matroids of seeded small matrices, with a zeroed column (a
    loop) or a unit column alone in its row (a coloop) in about a third
    each, their duals, and the rank-0 and rank-1 matroids of a few
    ground sets."""
    rng = random.Random(seed)
    for n in range(1, 5):
        yield Matroid(n, [frozenset()])
        yield Matroid(n, [{e} for e in range(0, n, 2)])
        yield Matroid(n, [{e} for e in range(n)])
    for _ in range(count):
        d, n = rng.randint(1, 4), rng.randint(1, 8)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
        j = rng.randrange(n)
        pick = rng.random()
        if pick < 0.3:
            for row in rows:
                row[j] = 0
        elif pick < 0.6:
            rows.append([int(k == j) for k in range(n)])
        m = linear_valuated_matroid(IntMatrix(tuple(map(tuple, rows))), 2).matroid
        yield m
        yield m.dual()


def brute_hyperplanes(m):
    """The subsets of rank r - 1 to which every other element adds rank,
    over all 2^n subsets, ranked by basis_rank."""
    out = []
    for size in range(m.n + 1):
        for h in map(frozenset, combinations(range(m.n), size)):
            if basis_rank(m, h) == m.rank - 1 and all(
                    basis_rank(m, h | {v}) == m.rank for v in range(m.n) if v not in h):
                out.append(h)
    return sorted(out, key=sorted)


class TestIndependentSetTable:
    def test_rank_and_hyperplanes_match_brute_force(self):
        ranks = set()
        loops = coloops = 0
        for m in _seeded_matroids(2604, 120):
            for size in range(m.n + 1):
                for subset in combinations(range(m.n), size):
                    assert m.rank_of(subset) == basis_rank(m, subset)
            if m.rank >= 1:
                assert m.hyperplanes() == brute_hyperplanes(m)
            ranks.add(m.rank)
            loops += any(all(e not in b for b in m.bases) for e in range(m.n))
            coloops += any(all(e in b for b in m.bases) for e in range(m.n))
        assert {0, 1, 2, 3, 4} <= ranks and loops > 20 and coloops > 20

    def test_built_once_and_kept_by_trusted_matroids(self, monkeypatch):
        # the bases holding each element: a checked matroid keeps the
        # exchange check's, a trusted one builds its own on the first
        # rank query and keeps it
        built = []
        holding = algmat._holding
        monkeypatch.setattr(algmat, "_holding",
                            lambda n, masks: built.append(n) or holding(n, masks))
        m = Matroid(4, [{0, 1}, {0, 2}, {1, 2}])
        table = m._holding
        assert built == [4] and m.rank_of({0, 3}) == 1 and m._holding is table
        dual = m.dual()
        assert dual._holding is None and built == [4]
        assert dual.rank_of({2, 3}) == 2 and built == [4, 4]
        table = dual._holding
        assert dual.rank_of({0, 1, 2}) == 1 and dual._holding is table
        assert built == [4, 4]
        for matroid in (m, dual):
            assert matroid._holding == [
                sum(1 << k for k, b in enumerate(matroid.bases) if e in b)
                for e in range(4)]

    def test_wide_ground_set_needs_no_subset_table(self):
        # a seeded 2x24 matrix (random.Random(2024), entries in [-3, 4],
        # p = 2): a table of one byte per subset would take 16 MB, and
        # rank and hyperplanes must stay under 1 MB together
        rng = random.Random(2024)
        rows = tuple(tuple(rng.randint(-3, 4) for _ in range(24)) for _ in range(2))
        m = linear_valuated_matroid(IntMatrix(rows), 2).matroid
        subsets = [frozenset(e for e in range(24) if rng.random() < k / 10)
                   for k in range(11) for _ in range(20)]
        tracemalloc.start()
        try:
            ranks = [m.rank_of(s) for s in subsets]
            planes = m.hyperplanes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert ranks == [basis_rank(m, s) for s in subsets]
        # every hyperplane is the closure of an independent (r-1)-set
        closures = {frozenset(e for e in range(24) if basis_rank(m, set(r) | {e}) < m.rank)
                    for r in combinations(range(24), m.rank - 1)
                    if basis_rank(m, r) == m.rank - 1}
        assert m.rank == 2 and planes == sorted(closures, key=sorted)


class TestMatroidRankFunction:
    def test_monotone_submodular_unit_increase(self, nonfano_matroid):
        m = nonfano_matroid
        subsets = [frozenset(c) for k in range(4) for c in combinations(range(7), k)]
        for a in subsets:
            for b in subsets:
                ra, rb = m.rank_of(a), m.rank_of(b)
                assert m.rank_of(a | b) + m.rank_of(a & b) <= ra + rb
                if a <= b:
                    assert ra <= rb
        for a in subsets:
            ra = m.rank_of(a)
            for v in set(range(7)) - a:
                assert m.rank_of(a | {v}) in (ra, ra + 1)


class TestCircuitBasisConsistency:
    def test_no_circuit_inside_a_basis(self, nonfano_matroid, nonfano_circuits):
        for b in nonfano_matroid.bases:
            for rec in nonfano_circuits:
                assert not rec.support <= b

    def test_exactly_one_circuit_added_per_element(
        self, nonfano_matroid, nonfano_circuits
    ):
        for b in nonfano_matroid.bases:
            for v in set(range(7)) - b:
                inside = [
                    rec.support
                    for rec in nonfano_circuits
                    if rec.support <= b | {v}
                ]
                assert len(inside) == 1
                assert v in inside[0]


class TestCircuitRecord:
    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CircuitRecord(frozenset({0}), P("x1 - x2"))


class TestDiskCache:
    IDEAL = (["x4 - x1*x2"], ("x1", "x2", "x3", "x4"))

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        idl = I(*self.IDEAL)
        first = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        m1 = bases(idl, oracle=first)
        first.save()
        files = list(tmp_path.iterdir())
        assert [f.name for f in files] == ["t1-elim.json"]
        content = files[0].read_bytes()
        # a fresh oracle over the same directory must reuse the file, and
        # having computed nothing, leave it as it is
        calls = _counted_eliminations(monkeypatch)
        second = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        m2 = bases(idl, oracle=second)
        second.save()
        assert m1 == m2
        assert calls == []
        assert list(tmp_path.iterdir()) == files
        assert files[0].read_bytes() == content

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        idl = I(*self.IDEAL)
        oracle = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("algval.algmat.os.replace", broken_replace)
        oracle.elimination({0, 1})
        with pytest.raises(OSError):
            oracle.save()
        assert list(tmp_path.iterdir()) == []

    def test_warm_run_reads_the_file_once(self, nonfano_ideal, tmp_path, monkeypatch):
        cold = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        records = circuits(nonfano_ideal, oracle=cold)
        cold.save()
        path = tmp_path / "fp-elim.json"
        entries, content = _entries(path), path.read_bytes()
        opened, parsed = [], []

        def counted_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def counted_parse(text, *args):
            parsed.append(text)
            return parse_polynomial(text, *args)

        monkeypatch.setattr(algmat, "open", counted_open, raising=False)
        monkeypatch.setattr(algmat, "parse_polynomial", counted_parse)
        calls = _counted_eliminations(monkeypatch)
        warm = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        assert circuits(nonfano_ideal, oracle=warm) == records
        warm.save()
        assert calls == [] and warm.rejected == 0
        assert opened == [os.path.join(tmp_path, "fp-elim.json")]
        assert sorted(parsed) == sorted(t for texts in entries.values() for t in texts)
        assert path.read_bytes() == content
        # a query parses its own entry and no other
        key, texts = next((k, t) for k, t in entries.items() if t)
        parsed.clear()
        one = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        subset = frozenset(e for e in range(nonfano_ideal.n) if int(key, 16) >> e & 1)
        assert [str(g) for g in one.elimination(subset)] == texts
        assert parsed == texts

    def test_saves_keep_each_others_entries(self, tmp_path, monkeypatch):
        idl = I(*self.IDEAL)
        a = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        b = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        # b reads the cache before a saves, and saves after it
        b.elimination({2, 3})
        a.elimination({0, 1})
        a.save()
        b.save()
        entries = _entries(tmp_path / "t1-elim.json")
        assert entries == {f"{0b11:x}": [], f"{0b1100:x}": []}
        calls = _counted_eliminations(monkeypatch)
        c = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        assert c.elimination({0, 1}) == c.elimination({2, 3}) == ()
        assert calls == []

    def test_old_format_files_are_ignored_and_kept(self, tmp_path, monkeypatch):
        idl = I(*self.IDEAL)
        # one file per set, the earlier layout; read, this false entry
        # would make {x1, x2} dependent
        old = tmp_path / f"t1-elim-{0b11:x}.json"
        old.write_text(json.dumps({"generators": ["x1 + x2"]}), encoding="utf-8")
        calls = _counted_eliminations(monkeypatch)
        oracle = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        assert oracle.elimination({0, 1}) == ()
        assert calls and oracle.rejected == 0
        oracle.save()
        assert sorted(p.name for p in tmp_path.iterdir()) == [old.name, "t1-elim.json"]
        assert json.loads(old.read_text(encoding="utf-8")) == {"generators": ["x1 + x2"]}

    def test_truncated_file_is_rewritten_whole(self, nonfano_ideal, tmp_path,
                                               monkeypatch):
        calls = _counted_eliminations(monkeypatch)
        cold = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        records = circuits(nonfano_ideal, oracle=cold)
        cold.save()
        cold_calls = list(calls)
        path = tmp_path / "fp-elim.json"
        intact = path.read_text(encoding="utf-8")
        path.write_text(intact[: len(intact) // 2], encoding="utf-8")
        calls.clear()
        warm = EliminationOracle(nonfano_ideal, cache_dir=tmp_path, fingerprint="fp")
        assert circuits(nonfano_ideal, oracle=warm) == records
        assert calls == cold_calls and warm.rejected == 1
        warm.save()
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(intact)
        assert [p.name for p in tmp_path.iterdir()] == ["fp-elim.json"]

    @pytest.mark.parametrize("entry", [
        "x1 + x2", None, {"x1": 1}, [3], ["x1 +* x2"], ["y9"], [["x1"]]])
    def test_rejected_entry_is_counted_and_recomputed(self, tmp_path, monkeypatch,
                                                     entry):
        idl = I(*self.IDEAL)
        first = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        records = circuits(idl, oracle=first)
        first.save()
        path = tmp_path / "t1-elim.json"
        entries = _entries(path)
        key = f"{0b1011:x}"  # {x1, x2, x4}: the circuit
        assert entries[key] == [str(g) for g in eliminate(idl, {0, 1, 3})]
        tampered = {**entries, key: entry}
        path.write_text(json.dumps({"format": 2, "eliminations": tampered}),
                        encoding="utf-8")
        calls = _counted_eliminations(monkeypatch)
        second = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        assert circuits(idl, oracle=second) == records
        # the steps from the whole ideal down to the circuit, and no more
        assert calls == [frozenset({0, 1, 2, 3}), frozenset({0, 1, 3})]
        assert second.rejected == 1
        second.save()
        assert _entries(path) == entries

    @pytest.mark.parametrize("content", [
        "{", "", "\xff", "[]", "null", '{"eliminations": {}}',
        '{"format": 1, "eliminations": {}}', '{"format": "2", "eliminations": {}}',
        '{"format": 2}', '{"format": 2, "eliminations": []}',
        pytest.param("[" * 100000, id="nested-too-deep")])
    def test_rejected_file_is_counted_once_and_recomputed(self, tmp_path, monkeypatch,
                                                         content):
        idl = I(*self.IDEAL)
        first = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        m1 = bases(idl, oracle=first)
        first.save()
        path = tmp_path / "t1-elim.json"
        entries = _entries(path)
        path.write_bytes(content.encode("latin-1"))
        calls = _counted_eliminations(monkeypatch)
        second = EliminationOracle(idl, cache_dir=str(tmp_path), fingerprint="t1")
        assert bases(idl, oracle=second) == m1
        assert len(calls) == len(set(calls)) > 0
        assert second.rejected == 1
        second.save()
        assert _entries(path) == entries

    def test_missing_fingerprint_creates_no_directory(self, tmp_path):
        idl = I(["x4 - x1*x2"], ("x1", "x2", "x3", "x4"))
        with pytest.raises(ValueError, match="fingerprint"):
            EliminationOracle(idl, cache_dir=str(tmp_path / "new"))
        assert not (tmp_path / "new").exists()

    def test_unusable_directory_fails_on_construction(self, tmp_path, monkeypatch):
        idl = I(["x4 - x1*x2"], ("x1", "x2", "x3", "x4"))
        plain = tmp_path / "file"
        plain.write_text("")
        for path in (plain, plain / "sub"):
            with pytest.raises(OSError):
                EliminationOracle(idl, cache_dir=str(path), fingerprint="t1")
        # a privileged user writes through mode bits, so the access check
        # is made to deny instead of relying on chmod
        locked = tmp_path / "locked"
        locked.mkdir()
        monkeypatch.setattr("algval.algmat.os.access", lambda path, mode: False)
        with pytest.raises(PermissionError):
            EliminationOracle(idl, cache_dir=str(locked), fingerprint="t1")
        assert list(locked.iterdir()) == []
