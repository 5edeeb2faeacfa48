import os
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from algval.algmat import (
    EliminationOracle,
    Matroid,
    bases,
    circuits,
    exchange_failure,
)
from algval.cli import load_problem
from algval.toric import IntMatrix, linear_valuated_matroid
from algval.ffpoly import INF
from algval.valmat import Valuation, check_plucker_relations
from algval import flock
from algval.flock import (
    FlockReport,
    FlockSlice,
    check_flock_axioms,
    default_box_radius,
    flock_slice,
    g,
)

from conftest import NONFANO_A, S, exchange_holds, probe_exchange_table

ALPHA_MINUS = (-1, -1, -1, 0, 0, 0, -1)


@pytest.fixture(scope="module")
def nonfano_valuation():
    return linear_valuated_matroid(IntMatrix(NONFANO_A), 2)


class TestG:
    def test_zero_direction(self, nonfano_valuation):
        assert g(nonfano_valuation, (0,) * 7) == 0

    def test_worked_direction(self, nonfano_valuation):
        assert g(nonfano_valuation, ALPHA_MINUS) == -1

    def test_all_ones_shift_adds_rank(self, nonfano_valuation):
        rng = random.Random(2)
        for _ in range(20):
            alpha = tuple(rng.randrange(-3, 4) for _ in range(7))
            shifted = tuple(a + 1 for a in alpha)
            assert g(nonfano_valuation, shifted) == g(nonfano_valuation, alpha) + 3

    def test_length_checked(self, nonfano_valuation):
        with pytest.raises(ValueError):
            g(nonfano_valuation, (0, 0))


class TestFlockSlice:
    def test_zero_direction_drops_special_basis(self, nonfano_valuation):
        got = flock_slice(nonfano_valuation, (0,) * 7)
        assert got.g_value == 0
        assert len(got.matroid.bases) == 28
        assert S(4, 5, 6) not in set(got.matroid.bases)
        assert set(got.matroid.bases) == set(nonfano_valuation.values) - {S(4, 5, 6)}

    def test_worked_direction_membership(self, nonfano_valuation):
        got = flock_slice(nonfano_valuation, ALPHA_MINUS)
        family = set(got.matroid.bases)
        assert S(4, 5, 6) in family
        assert S(3, 5, 6) in family
        heavy = S(1, 2, 3, 7)
        for b in family:
            assert len(b & heavy) < 2

    def test_single_basis_valuation(self):
        m = Matroid(3, [{0, 1, 2}])
        v = Valuation(m, {frozenset({0, 1, 2}): 0})
        for alpha in [(0, 0, 0), (2, -1, 5), (-3, -3, -3)]:
            got = flock_slice(v, alpha)
            assert got.matroid.bases == (frozenset({0, 1, 2}),)

    def test_slices_are_matroids(self, nonfano_valuation):
        rng = random.Random(31)
        for _ in range(15):
            alpha = tuple(rng.randrange(-2, 3) for _ in range(7))
            got = flock_slice(nonfano_valuation, alpha)
            assert isinstance(got, FlockSlice)
            assert got.matroid.rank == 3


class TestFlockAxioms:
    def test_nonfano_box_radius_one(self, nonfano_valuation):
        report = check_flock_axioms(nonfano_valuation, radius=1)
        assert report.ok, report.violations[:5]
        assert report.directions == 3**7

    def test_default_radius_respects_budget(self, nonfano_valuation):
        r = default_box_radius(nonfano_valuation)
        assert r == 1
        assert (2 * r + 1) ** 7 * 7 * 29 <= 10**6

    def test_perturbed_valuation_violates(self, nonfano_valuation):
        # bumping one basis value yields slices that are no longer
        # matroids
        tampered = dict(nonfano_valuation.values)
        tampered[S(1, 2, 3)] = 1
        broken = Valuation(nonfano_valuation.matroid, tampered)
        report = check_flock_axioms(broken, radius=1)
        assert not report.ok
        assert any("not a matroid" in v for v in report.violations)

    def test_single_element_ground_set(self):
        m = Matroid(1, [{0}])
        v = Valuation(m, {frozenset({0}): 0})
        report = check_flock_axioms(v, radius=2)
        assert report.ok
        assert report.directions == 5

    def test_negative_radius_rejected(self, nonfano_valuation):
        with pytest.raises(ValueError, match="box radius must be at least 0"):
            check_flock_axioms(nonfano_valuation, radius=-1)
        assert check_flock_axioms(nonfano_valuation, radius=0).directions == 1

    def test_box_too_large_to_index_rejected(self, nonfano_valuation, monkeypatch):
        # the largest radius whose box a list could index passes the
        # check and reaches the certificate; one more fails before it runs
        def refuse(*args, **kwargs):
            raise AssertionError("certificate run")

        monkeypatch.setattr(Valuation, "plucker", refuse)
        radius = 0
        while (2 * radius + 3) ** 7 <= sys.maxsize:
            radius += 1
        with pytest.raises(AssertionError, match="certificate run"):
            check_flock_axioms(nonfano_valuation, radius=radius)
        for too_large in (radius + 1, 100000):
            with pytest.raises(ValueError, match="more than a list can index"):
                check_flock_axioms(nonfano_valuation, radius=too_large)

    def test_radius_and_direction_list_rejected(self, nonfano_valuation, monkeypatch):
        # a sweep of the list would leave the radius unused; both are
        # refused before the certificate runs
        def refuse(*args, **kwargs):
            raise AssertionError("certificate run")

        monkeypatch.setattr(Valuation, "plucker", refuse)
        for radius, alphas in [(1, [(0,) * 7]), (0, []), (100000, [ALPHA_MINUS])]:
            with pytest.raises(ValueError, match="not both"):
                check_flock_axioms(nonfano_valuation, radius=radius, alphas=alphas)

    def test_explicit_direction_list(self, nonfano_valuation):
        report = check_flock_axioms(
            nonfano_valuation, alphas=[(0,) * 7, ALPHA_MINUS]
        )
        assert report.ok
        assert report.directions == 2

    def test_gr_route_matches_matrix_route(self, nonfano_ideal, nonfano_valuation):
        from algval.valmat import valuated_circuits, valuation_from_circuits

        oracle = EliminationOracle(nonfano_ideal)
        matroid = bases(nonfano_ideal, oracle=oracle)
        records = circuits(nonfano_ideal, oracle=oracle)
        derived = valuation_from_circuits(matroid, valuated_circuits(records))
        assert flock_slice(derived, ALPHA_MINUS).matroid == flock_slice(
            nonfano_valuation, ALPHA_MINUS
        ).matroid


def _reference_slice(valuation, alpha):
    """Per-basis scan: the argmax family at alpha and its maximum."""
    best = None
    bases = []
    for basis, value in valuation.values.items():
        score = sum(alpha[i] for i in basis) - value
        if best is None or score > best:
            best = score
            bases = [basis]
        elif score == best:
            bases.append(basis)
    return frozenset(bases), best


def _reference_sweep(valuation, alphas):
    """The flock sweep written over per-basis scans: one exchange check
    per direction."""
    report = FlockReport()
    exchange_ok = {}
    for alpha in alphas:
        alpha = tuple(alpha)
        report.directions += 1
        report.checked += 1
        here = _reference_slice(valuation, alpha)[0]
        if here not in exchange_ok:
            exchange_ok[here] = exchange_holds(here)
        if not exchange_ok[here]:
            report.violations.append(
                f"slice at alpha={alpha} is not a matroid (exchange fails)")
    return report


def _contract(bases, i):
    if any(i in b for b in bases):
        return frozenset(b - {i} for b in bases if i in b)
    return bases


def _delete(bases, i):
    if all(i in b for b in bases):
        return frozenset(b - {i} for b in bases)
    return frozenset(b for b in bases if i not in b)


def _identity_failures(sliced, alpha, n):
    """The flock identities at alpha over the families sliced gives: a
    message for each i with slice(alpha)/i != slice(alpha+e_i)\\i, and
    one if slice(alpha) != slice(alpha+1)."""
    here = sliced(alpha)
    failures = []
    for i in range(n):
        bumped = tuple(a + (j == i) for j, a in enumerate(alpha))
        if _contract(here, i) != _delete(sliced(bumped), i):
            failures.append(f"contraction/deletion mismatch at alpha={alpha}, i={i}")
    if here != sliced(tuple(a + 1 for a in alpha)):
        failures.append(f"all-ones shift changes the slice at {alpha}")
    return failures


def _random_matrix_valuation(rng, d, n, p):
    while True:
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(d)]
        valuation = linear_valuated_matroid(IntMatrix(rows), p)
        if valuation.matroid.rank == d:
            return valuation


def _reweighted(valuation, rng, top):
    """The same bases with seeded values in [0, top]: mostly not a
    valuated matroid, so the sweep reports violations."""
    return Valuation(valuation.matroid, {
        b: rng.randint(0, top) for b in valuation.values
    })


def _tampered_radius_three():
    """Three reweighted 2x4 valuations whose radius-3 boxes hold slices
    that fail exchange at many directions."""
    rng = random.Random(408)
    return [_reweighted(_random_matrix_valuation(rng, 2, 4, 2), rng, 6)
            for _ in range(3)]


def _sixteen_byte_valuations(radius):
    """A 3x5 matrix valuation scaled by 2**70, and four reweightings of
    it with one basis at 2**70, far above the rest: values wider than a
    machine word."""
    rng = random.Random(409 + radius)
    base = _random_matrix_valuation(rng, 3, 5, 3)
    scaled = Valuation(base.matroid, {
        b: v * 2**70 for b, v in base.values.items()})
    tampered = []
    for _ in range(4):
        # the box's slices come from the other bases, with small seeded
        # values
        values = _reweighted(base, rng, 3).values
        values[base.matroid.bases[0]] = 2**70
        tampered.append(Valuation(base.matroid, values))
    return scaled, tampered


class TestPackedScoresMatchScan:
    """check_flock_axioms, flock_slice and g against the per-basis scan."""

    def assert_sweeps_agree(self, valuation, radius=None, alphas=None):
        if alphas is None:
            expected = _reference_sweep(
                valuation, product(range(-radius, radius + 1), repeat=valuation.n))
            got = check_flock_axioms(valuation, radius=radius)
        else:
            alphas = list(alphas)
            expected = _reference_sweep(valuation, alphas)
            got = check_flock_axioms(valuation, alphas=iter(alphas))
        assert got.directions == expected.directions
        assert got.checked == expected.checked
        assert got.violations == expected.violations
        return got

    def assert_slices_agree(self, valuation, alphas):
        for alpha in alphas:
            family, best = _reference_slice(valuation, alpha)
            assert g(valuation, alpha) == best
            if not exchange_holds(family):
                with pytest.raises(ValueError):
                    flock_slice(valuation, alpha)
                continue
            got = flock_slice(valuation, alpha)
            assert set(got.matroid.bases) == family
            assert got.g_value == best
            assert got.alpha == tuple(alpha)

    def test_matrix_valuations(self):
        rng = random.Random(401)
        for d, n, p in [(2, 5, 2), (3, 6, 3), (3, 6, 5), (2, 6, 2), (3, 7, 2)]:
            valuation = _random_matrix_valuation(rng, d, n, p)
            report = self.assert_sweeps_agree(valuation, radius=1)
            assert report.ok
            alphas = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(30)]
            self.assert_slices_agree(valuation, alphas)

    def test_tampered_values_violate_identically(self):
        rng = random.Random(402)
        for d, n, top in [(2, 5, 3), (3, 6, 2), (2, 4, 5)]:
            valuation = _reweighted(_random_matrix_valuation(rng, d, n, 2), rng, top)
            report = self.assert_sweeps_agree(valuation, radius=1)
            assert not report.ok
            alphas = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(30)]
            self.assert_slices_agree(valuation, alphas)

    def test_wide_values_force_wide_fields(self):
        rng = random.Random(403)
        base = _random_matrix_valuation(rng, 2, 5, 3)
        # values of one to nine bytes
        for top in (200, 40_000, 2**40, 2**70):
            # one basis pinned at the top and one at 0 fix the value range
            values = {b: rng.randint(0, top) for b in base.values}
            first, second = base.matroid.bases[:2]
            values[first], values[second] = top, 0
            valuation = Valuation(base.matroid, values)
            self.assert_sweeps_agree(valuation, radius=1)
            # scaled matrix values keep the flock axioms and stay exact
            scaled = Valuation(base.matroid, {
                b: v * top for b, v in base.values.items()})
            assert self.assert_sweeps_agree(scaled, radius=1).ok
            self.assert_slices_agree(valuation, [
                tuple(rng.randint(-top, top) for _ in range(5)) for _ in range(10)])

    def test_explicit_and_generated_directions(self):
        rng = random.Random(404)
        valuation = _random_matrix_valuation(rng, 3, 6, 2)
        tampered = _reweighted(valuation, rng, 4)
        listed = [(0,) * 6, (1, -1, 0, 2, -2, 1), (-5, 7, 0, 0, 3, -1)]
        for v in (valuation, tampered):
            self.assert_sweeps_agree(v, alphas=listed)
            generated = [tuple(rng.randint(-10**6, 10**6) for _ in range(6))
                         for _ in range(40)]
            generated += [tuple(rng.randint(-1, 1) for _ in range(6))
                          for _ in range(40)]
            self.assert_sweeps_agree(v, alphas=generated)
            self.assert_slices_agree(v, generated)
        huge = [tuple(rng.randint(-10**20, 10**20) for _ in range(6)) for _ in range(5)]
        self.assert_sweeps_agree(tampered, alphas=huge)
        self.assert_slices_agree(tampered, huge)

    def test_radius_zero_and_two(self):
        rng = random.Random(405)
        for d, n in [(2, 4), (2, 5)]:
            valuation = _random_matrix_valuation(rng, d, n, 3)
            for v in (valuation, _reweighted(valuation, rng, 3)):
                self.assert_sweeps_agree(v, radius=0)
                self.assert_sweeps_agree(v, radius=2)

    def test_single_element(self):
        rng = random.Random(406)
        for bases in ([{0}], [set()]):
            valuation = Valuation(Matroid(1, bases), {frozenset(bases[0]): 0})
            for radius in (0, 1, 2):
                assert self.assert_sweeps_agree(valuation, radius=radius).ok
            alphas = [(rng.randint(-10**6, 10**6),) for _ in range(10)]
            self.assert_sweeps_agree(valuation, alphas=alphas)
            self.assert_slices_agree(valuation, alphas)

    @pytest.mark.parametrize("n,bases", [(0, [set()]), (1, [{0}]), (1, [set()])])
    def test_empty_and_one_element_ground_sets(self, n, bases):
        # with n = 0 every direction is (), which has no last coordinate
        # to step a box row along; with n = 1 every box row is the whole
        # box
        for value in (0, 5):
            valuation = Valuation(Matroid(n, bases), {frozenset(bases[0]): value})
            for radius in (0, 1, 2):
                assert self.assert_sweeps_agree(valuation, radius=radius).directions \
                    == (2 * radius + 1) ** n
            for c in (-2, 0, 3):
                listed = [(c,) * n] * 3 + [(c - 1,) * n, (c,) * n]
                assert self.assert_sweeps_agree(valuation, alphas=listed).ok


class TestBoxTable:
    """Whole boxes against the per-basis scan, where violations are many
    or the fields are wide."""

    def test_tampered_radius_three_keeps_violation_order(self):
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        violations = 0
        for valuation in _tampered_radius_three():
            report = agree(valuation, radius=3)
            assert report.directions == 7**4
            assert not report.ok
            violations += len(report.violations)
        # violations at many directions, so that their order pins the
        # forward emission
        assert violations > 200

    @pytest.mark.parametrize("radius", [1, 2])
    def test_sixteen_byte_fields(self, radius):
        # values past 2**70, which no machine word holds
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        scaled, tampered_boxes = _sixteen_byte_valuations(radius)
        assert agree(scaled, radius=radius).ok
        violations = 0
        for tampered in tampered_boxes:
            violations += len(agree(tampered, radius=radius).violations)
        assert violations

    def test_radius_zero_and_listed_directions_match_reference(self, nonfano_valuation):
        rng = random.Random(410)
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        tampered = _reweighted(nonfano_valuation, rng, 3)
        listed = [tuple(rng.randint(-2, 2) for _ in range(7)) for _ in range(60)]
        for valuation in (nonfano_valuation, tampered):
            agree(valuation, radius=0)
            # repeated directions and a list that runs downwards
            agree(valuation, alphas=listed + listed[:5])
            agree(valuation, alphas=sorted(listed, reverse=True))
        assert not agree(tampered, alphas=listed).ok


def _split_sweep(valuation, alphas, size):
    """The violations of sweeps of the runs of size listed directions,
    in order."""
    return [v for start in range(0, len(alphas), size)
            for v in check_flock_axioms(
                valuation, alphas=alphas[start:start + size]).violations]


class TestSlabs:
    """Sweeps of boxes and lists against the per-basis scan, whole or cut
    into runs of listed directions: the runs are independent, so where a
    box or list is cut changes no violation and no order."""

    @pytest.mark.parametrize("d,n,radius", [
        (2, 4, 0), (3, 5, 0), (2, 4, 1), (2, 4, 2), (3, 5, 1), (2, 3, 3)])
    def test_boxes_match_reference(self, d, n, radius):
        rng = random.Random(407 + 10 * n + radius)
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        valuation = _random_matrix_valuation(rng, d, n, 3)
        assert agree(valuation, radius=radius).ok
        tampered = _reweighted(valuation, rng, 4)
        assert agree(tampered, radius=radius).directions == (2 * radius + 1) ** n

    def test_listed_directions_match_reference(self, nonfano_valuation):
        rng = random.Random(411)
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        tampered = _reweighted(nonfano_valuation, rng, 3)
        listed = [tuple(rng.randint(-3, 3) for _ in range(7)) for _ in range(40)]
        for valuation in (nonfano_valuation, tampered):
            assert agree(valuation, alphas=[]).directions == 0
            agree(valuation, alphas=[ALPHA_MINUS, (0,) * 7] * 2)
            agree(valuation, alphas=listed + listed[::3])
            agree(valuation, alphas=sorted(listed, reverse=True))

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_split_boxes_match_reference(self, radius):
        rng = random.Random(420 + radius)
        side = 2 * radius + 1
        violations = 0
        for d, n in [(2, 4), (3, 5)][:4 - radius]:
            valuation = _random_matrix_valuation(rng, d, n, 2)
            tampered = _reweighted(valuation, rng, 4)
            listed = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
            listed += listed[:3]
            box = list(product(range(-radius, radius + 1), repeat=n))
            expected = [(v, _reference_sweep(v, box)) for v in (valuation, tampered)]
            expected_list = _reference_sweep(tampered, listed)
            for v, want in expected:
                assert check_flock_axioms(v, radius=radius) == want
            assert check_flock_axioms(tampered, alphas=listed) == expected_list
            # runs of one direction, part of a row, a row and a part, and
            # several rows
            for size in (1, 2, side + 2, 2 * side, side * side + 1):
                for v, want in expected:
                    assert _split_sweep(v, box, size) == want.violations
                assert _split_sweep(tampered, listed, size) == expected_list.violations
            violations += len(expected[1][1].violations) + len(expected_list.violations)
        assert violations

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_split_sixteen_byte_fields(self, radius):
        rng = random.Random(430 + radius)
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        # the minor on columns 0 and 3 is 2, so some value is 1
        base = linear_valuated_matroid(IntMatrix([[1, 0, 1, 1], [0, 1, 1, 2]]), 2)
        scaled = Valuation(base.matroid, {
            b: v * 2**70 for b, v in base.values.items()})
        values = _reweighted(base, rng, 3).values
        values[base.matroid.bases[0]] = 2**70
        tampered = Valuation(base.matroid, values)
        box = list(product(range(-radius, radius + 1), repeat=4))
        for valuation, ok in ((scaled, True), (tampered, False)):
            want = agree(valuation, radius=radius)
            assert want.ok == ok
            for size in (1, 2, 2 * radius + 3):
                assert _split_sweep(valuation, box, size) == want.violations


def _slice_verdicts(n, masks, keys):
    """{key: whether exchange holds} for slice keys, bit k set for each
    basis masks[k] in the slice, by the exchange pass, checked against
    the probe of every (basis, u in, v out)."""
    verdicts = {}
    for key in keys:
        family = [m for k, m in enumerate(masks) if key >> k & 1]
        holds = exchange_failure(n, family) is None
        assert holds == (probe_exchange_table(n, family)[1] is None)
        verdicts[key] = holds
    return verdicts


class TestSliceExchange:
    """The sweep's verdict on each slice against the exchange pass and
    the probe run on the slice's masks."""

    def test_tampered_boxes(self, monkeypatch):
        boxes = [(v, 3) for v in _tampered_radius_three()]
        for radius in (1, 2):
            boxes += [(v, radius) for v in _sixteen_byte_valuations(radius)[1]]
        scan = flock._slice
        outcomes = set()
        for valuation, radius in boxes:
            keys = {}

            def recorded(valuation, alpha):
                keys[alpha] = got = scan(valuation, alpha)
                return got

            monkeypatch.setattr(flock, "_slice", recorded)
            report = check_flock_axioms(valuation, radius=radius)
            monkeypatch.undo()
            # a valuation that fails the relations has every direction
            # scanned once, in order
            assert list(keys) == list(product(range(-radius, radius + 1),
                                              repeat=valuation.n))
            verdicts = _slice_verdicts(valuation.n, valuation.matroid.masks,
                                       {key for key, _ in keys.values()})
            assert report.violations == [
                f"slice at alpha={alpha} is not a matroid (exchange fails)"
                for alpha, (key, _) in keys.items() if not verdicts[key]]
            outcomes |= set(verdicts.values())
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", range(9))
    def test_seeded_families(self, n):
        # each family is the slice at 0 of the valuation that is 0 on it
        # and 1 on the rest of the support
        rng = random.Random(450 + n)
        outcomes = set()
        for rank in range(n + 1):
            supports = [Matroid(n, combinations(range(n), rank))]
            if 0 < rank < n:
                rows = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(rank)]
                column = linear_valuated_matroid(IntMatrix(rows), 2).matroid
                if column.rank == rank:
                    supports.append(column)
            for support in supports:
                masks = support.masks
                families = [range(len(masks))]
                # the support with one basis dropped
                families += [[k for k in range(len(masks)) if k != drop]
                             for drop in rng.sample(range(len(masks)), min(3, len(masks)))
                             if len(masks) > 1]
                families += [[k for k in range(len(masks)) if rng.random() < share]
                             for share in (0.2, 0.5, 0.8) for _ in range(4)]
                families += [[k] for k in rng.sample(range(len(masks)), min(3, len(masks)))]
                for family in filter(None, families):
                    key = sum(1 << k for k in family)
                    valuation = Valuation(support, {
                        b: 1 - (key >> k & 1) for k, b in enumerate(support.bases)})
                    assert flock._slice(valuation, (0,) * n) == (key, 0)
                    holds = _slice_verdicts(n, masks, [key])[key]
                    report = check_flock_axioms(valuation, alphas=[(0,) * n])
                    assert report.ok == holds, (n, family)
                    outcomes.add(holds)
        assert True in outcomes
        # on three elements or fewer every family of equal-size sets
        # passes exchange
        assert (False in outcomes) == (n >= 4)

    def test_no_slices(self, monkeypatch):
        # an empty list scans nothing, even where the relations fail
        def refuse(*args):
            raise AssertionError("direction scanned")

        tampered = _tampered_radius_three()[0]
        assert not tampered.plucker().ok
        monkeypatch.setattr(flock, "_slice", refuse)
        report = check_flock_axioms(tampered, alphas=[])
        assert report.ok and report.directions == report.checked == 0


class TestFamilyBySetBits:
    """The slice keys, one bit per basis, hold the bases of the per-basis
    scan, and g its maxima, for values up to top and directions with
    entries of up to width bytes."""

    @pytest.mark.parametrize("top,width", [
        (3, 1), (200, 2), (40_000, 4), (2**40, 8), (2**70, 16)])
    def test_every_field_width(self, top, width):
        rng = random.Random(440 + width)
        base = _random_matrix_valuation(rng, 3, 6, 2)
        values = {b: rng.randint(0, top) for b in base.values}
        values[base.matroid.bases[0]] = top
        valuation = Valuation(base.matroid, values)
        alphas = list(product((-1, 0, 1), repeat=6))
        bound = 1 << 8 * width
        alphas += [tuple(rng.randint(-bound, bound) for _ in range(6)) for _ in range(40)]
        bases = valuation.matroid.bases
        for alpha in alphas:
            key, value = flock._slice(valuation, alpha)
            family, best = _reference_slice(valuation, alpha)
            assert {b for k, b in enumerate(bases) if key >> k & 1} == family
            assert key >> len(bases) == 0
            assert value == best


def _valuated_exchange_holds(valuation):
    """The valuated exchange axiom by the pair scan: for every two bases
    b1, b2 and u in b1 - b2, some v in b2 - b1 makes b1 - u + v and
    b2 - v + u bases with w(b1) + w(b2) >= w(b1 - u + v) + w(b2 - v + u)."""
    w = valuation.values
    return all(
        any(b1 - {u} | {v} in w and b2 - {v} | {u} in w
            and w[b1] + w[b2] >= w[b1 - {u} | {v}] + w[b2 - {v} | {u}]
            for v in b2 - b1)
        for b1 in w for b2 in w for u in b1 - b2)


def _seeded_certificate_cases():
    """300 valuations on the bases of 1-4 x d-7 matrices with entries in
    [-3, 3] over p in {2, 3, 5}: a third as computed, a third with one
    value moved by 1 or 2, and a third reweighted in [0, 3]."""
    rng = random.Random(480)
    cases = []
    for i in range(300):
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        valuation = linear_valuated_matroid(IntMatrix(rows), rng.choice((2, 3, 5)))
        values = dict(valuation.values)
        if i % 3 == 1:
            values[rng.choice(valuation.matroid.bases)] += rng.choice((-2, -1, 1, 2))
        elif i % 3 == 2:
            values = {b: rng.randint(0, 3) for b in values}
        cases.append(Valuation(valuation.matroid, values))
    return cases


def _reference_plucker_report(valuation):
    """(checked, violations) of the 3-term relations by enumeration over
    frozensets: every (r-2)-set inside a basis, ascending by mask, and
    every four elements outside it, ascending."""
    w, r = valuation.values, valuation.matroid.rank
    if r < 2:
        return 0, []
    inner = {frozenset(s) for b in w for s in combinations(sorted(b), r - 2)}
    checked, violations = 0, []
    for s in sorted(inner, key=lambda s: sum(1 << e for e in s)):
        outside = [e for e in range(valuation.n) if e not in s]
        for a, b, c, d in combinations(outside, 4):
            checked += 1
            terms = [w.get(s | {x, y}, INF) + w.get(s | {z, t}, INF)
                     for x, y, z, t in ((a, b, c, d), (a, c, b, d), (a, d, b, c))]
            if sorted(terms)[0] < sorted(terms)[1]:
                violations.append(
                    f"3-term relation at S={sorted(s)}, {[a, b, c, d]}: the least "
                    f"of {terms[0]}, {terms[1]}, {terms[2]} is attained once")
    return checked, violations


class TestPluckerCertificate:
    """The 3-term tropical Plucker relations against valuated exchange,
    and the sweeps they certify without scoring a direction."""

    def test_matches_brute_force_exchange(self):
        outcomes = []
        for valuation in _seeded_certificate_cases():
            holds = check_plucker_relations(valuation).ok
            assert holds == _valuated_exchange_holds(valuation), valuation.values
            outcomes.append(holds)
        assert True in outcomes and False in outcomes

    def test_report_lists_every_failing_relation(self):
        failing = 0
        for valuation in _seeded_certificate_cases()[:120]:
            got = check_plucker_relations(valuation)
            expected = _reference_plucker_report(valuation)
            assert (got.checked, got.violations) == expected
            failing += len(got.violations)
        assert failing > 0

    def test_evaluated_once_per_valuation(self, monkeypatch):
        # the flock certificate reads the memo that verify's
        # plucker-3term suite fills
        calls = []
        monkeypatch.setattr("algval.valmat.check_plucker_relations",
                            lambda v: calls.append(v) or check_plucker_relations(v))
        valuation = linear_valuated_matroid(IntMatrix(NONFANO_A), 2)
        report = valuation.plucker()
        assert check_flock_axioms(valuation, radius=1).ok
        assert valuation.plucker() is report and calls == [valuation]

    def test_certified_boxes_score_no_direction(self, nonfano_valuation, monkeypatch):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "inputs", "seeded-4x12-matrix.json")
        problem = load_problem(path)
        seeded = linear_valuated_matroid(problem.matrix, problem.p)

        def refuse(*args):
            raise AssertionError("direction scanned")

        monkeypatch.setattr(flock, "_slice", refuse)
        # the default box of the 4x12 golden input, and radius 2 on non-Fano
        for valuation, radius, count in ((seeded, None, 531_441),
                                         (nonfano_valuation, 2, 78_125)):
            report = check_flock_axioms(valuation, radius=radius)
            assert report.ok
            assert report.directions == report.checked == count


class TestDerivedIdentities:
    """Why the sweep checks exchange only: on slices read off a
    weighting, the flock identities hold whatever the weights, while
    exchange fails on the same boxes."""

    @staticmethod
    def weightings():
        """(valuation, radius) of arbitrary weightings of bases, none of
        them a valuated matroid."""
        rng = random.Random(460)
        boxes = [(_reweighted(_random_matrix_valuation(rng, d, n, 2), rng, top), 1)
                 for d, n, top in [(2, 5, 3), (3, 6, 2), (2, 4, 5)]]
        boxes += [(v, 3) for v in _tampered_radius_three()]
        for radius in (1, 2):
            boxes += [(v, radius) for v in _sixteen_byte_valuations(radius)[1]]
        return boxes

    def test_identities_never_fail_on_derived_slices(self):
        for valuation, radius in self.weightings():
            n = valuation.n
            cache = {}

            def sliced(alpha):
                if alpha not in cache:
                    cache[alpha] = _reference_slice(valuation, alpha)[0]
                return cache[alpha]

            box = list(product(range(-radius, radius + 1), repeat=n))
            for alpha in box:
                assert _identity_failures(sliced, alpha, n) == []
            assert not _reference_sweep(valuation, box).ok


def _row_basis(rows):
    """The rows of rows that are independent of the rows before them,
    over Q."""
    basis, reduced = [], []
    for row in rows:
        v = [Fraction(x) for x in row]
        for pivot, r in reduced:
            if v[pivot]:
                f = v[pivot] / r[pivot]
                v = [a - f * b for a, b in zip(v, r)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is not None:
            reduced.append((pivot, v))
            basis.append(list(row))
    return basis


def _relation_mod_p(rows, p):
    """(j, c) with sum c[k] * rows[k] = 0 mod p, c in [0, p) and
    c[j] = 1, or None when the rows are independent mod p."""
    reduced = []
    for j, row in enumerate(rows):
        v = [x % p for x in row]
        c = [0] * len(rows)
        c[j] = 1
        for pivot, r, rc in reduced:
            f = v[pivot]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, r)]
                c = [(a - f * b) % p for a, b in zip(c, rc)]
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is None:
            return j, c
        inverse = pow(v[pivot], -1, p)
        reduced.append((pivot, [x * inverse % p for x in v],
                        [x * inverse % p for x in c]))
    return None


class _LatticeFlock:
    """The Bollen-Draisma-Pendavingh flock of a matrix A over Q_p, built
    from A alone: M_alpha is the F_p column matroid of the
    p-saturation of the row lattice of A with column i scaled by
    p^(max alpha - alpha_i)."""

    def __init__(self, rows, p):
        self.rows, self.p, self.n = _row_basis(rows), p, len(rows[0])
        self.slices = {}

    def __call__(self, alpha):
        # the scaling, and so the slice, is invariant under alpha + 1
        top = max(alpha)
        exponents = tuple(top - a for a in alpha)
        if exponents not in self.slices:
            p, n = self.p, self.n
            rows = [[x * p**e for x, e in zip(row, exponents)] for row in self.rows]
            while (relation := _relation_mod_p(rows, p)) is not None:
                j, c = relation
                combined = [sum(ck * row[i] for ck, row in zip(c, rows)) for i in range(n)]
                assert all(x % p == 0 for x in combined)
                rows[j] = [x // p for x in combined]
            self.slices[exponents] = frozenset(
                frozenset(s) for s in combinations(range(n), len(rows))
                if _relation_mod_p([[row[i] for row in rows] for i in s], p) is None)
        return self.slices[exponents]


class TestLatticeSlices:
    """The flock sliced out of linear_valuated_matroid against the
    lattice flock, which reads A and shares no code with toric, valmat,
    algmat or flock; on the lattice slices the flock identities are the
    theorem, and can fail."""

    # (rows, columns, p) of radius-1 boxes, n <= 5 to keep the suite
    # near a second: a 3x6 box alone takes about 0.6 s
    SHAPES = [(2, 4, 2), (2, 5, 3), (3, 5, 2), (3, 5, 5),
              (2, 4, 5), (1, 4, 3), (2, 5, 2), (3, 5, 3)]

    @staticmethod
    def matrices():
        rng = random.Random(470)
        out = [([[rng.randint(-3, 4) for _ in range(n)] for _ in range(d)], p)
               for d, n, p in TestLatticeSlices.SHAPES]
        # a dependent third row, so that the row basis drops it
        first, second = out[0][0]
        out.append(([first, second, [a - 2 * b for a, b in zip(first, second)]], 3))
        return out

    def test_equal_to_derived_slices_and_a_flock(self):
        directions = 0
        for rows, p in self.matrices():
            n = len(rows[0])
            valuation = linear_valuated_matroid(IntMatrix(rows), p)
            lattice = _LatticeFlock(rows, p)
            for alpha in product((-1, 0, 1), repeat=n):
                directions += 1
                assert lattice(alpha) == set(flock_slice(valuation, alpha).matroid.bases)
                assert _identity_failures(lattice, alpha, n) == []
        assert directions == 3**4 * 4 + 3**5 * 5

    def test_tampered_slice_fails_the_identities(self):
        # one basis dropped from the lattice slice at 0: the identities
        # at 0 fail, and so does the comparison with the derived slice
        rows, p = self.matrices()[2]
        n = len(rows[0])
        lattice = _LatticeFlock(rows, p)
        zero = (0,) * n
        dropped = lattice(zero) - {min(lattice(zero), key=sorted)}

        def tampered(alpha):
            return dropped if alpha == zero else lattice(alpha)

        failures = _identity_failures(tampered, zero, n)
        assert f"all-ones shift changes the slice at {zero}" in failures
        assert any(f.startswith("contraction/deletion") for f in failures)
        valuation = linear_valuated_matroid(IntMatrix(rows), p)
        assert tampered(zero) != set(flock_slice(valuation, zero).matroid.bases)
