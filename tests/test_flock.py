import random
import sys
from itertools import combinations, product

import pytest

from algval.algmat import (
    EliminationOracle,
    Matroid,
    bases,
    circuits,
    exchange_failure,
    exchange_table,
)
from algval.toric import IntMatrix, linear_valuated_matroid
from algval.valmat import Valuation
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
        # matroids; the family identities alone hold for any weighting,
        # so the exchange check inside the slices is what trips
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
        # the largest radius whose box a list can index passes the check
        # and reaches the scores; one more fails before they are built
        def refuse(*args, **kwargs):
            raise AssertionError("scores built")

        monkeypatch.setattr(flock, "_Scores", refuse)
        radius = 0
        while (2 * radius + 3) ** 7 <= sys.maxsize:
            radius += 1
        with pytest.raises(AssertionError, match="scores built"):
            check_flock_axioms(nonfano_valuation, radius=radius)
        for too_large in (radius + 1, 100000):
            with pytest.raises(ValueError, match="more than a list can index"):
                check_flock_axioms(nonfano_valuation, radius=too_large)

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
    """The flock-axiom sweep written over per-basis scans."""
    n = valuation.n
    report = FlockReport()
    cache = {}
    exchange_ok = {}

    def sliced(alpha):
        if alpha not in cache:
            cache[alpha] = _reference_slice(valuation, alpha)[0]
        return cache[alpha]

    def is_matroid(family):
        if family not in exchange_ok:
            exchange_ok[family] = exchange_holds(family)
        return exchange_ok[family]

    def contract(bases, i):
        if any(i in b for b in bases):
            return frozenset(b - {i} for b in bases if i in b)
        return bases

    def delete(bases, i):
        if all(i in b for b in bases):
            return frozenset(b - {i} for b in bases)
        return frozenset(b for b in bases if i not in b)

    for alpha in alphas:
        alpha = tuple(alpha)
        report.directions += 1
        here = sliced(alpha)
        report.checked += 1
        if not is_matroid(here):
            report.violations.append(
                f"slice at alpha={alpha} is not a matroid (exchange fails)"
            )
        for i in range(n):
            report.checked += 1
            bumped = tuple(a + (1 if j == i else 0) for j, a in enumerate(alpha))
            if contract(here, i) != delete(sliced(bumped), i):
                report.violations.append(
                    f"contraction/deletion mismatch at alpha={alpha}, i={i}"
                )
        report.checked += 1
        if here != sliced(tuple(a + 1 for a in alpha)):
            report.violations.append(f"all-ones shift changes the slice at {alpha}")
    return report


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
    it with one basis far above the rest: each needs 16-byte fields for
    its box of the given radius."""
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
        for top, width in [(200, 2), (40_000, 4), (2**40, 8), (2**70, 16)]:
            # one basis pinned at the top and one at 0 fix the value range
            values = {b: rng.randint(0, top) for b in base.values}
            first, second = base.matroid.bases[:2]
            values[first], values[second] = top, 0
            valuation = Valuation(base.matroid, values)
            assert flock._Scores(valuation, (-1, 1)).width == width
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
        assert flock._Scores(valuation, (-10**6, 10**6)).width == 4
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
    """The box sweep reads each in-box neighbour's slice from its table
    and derives every top it can from a known one: argmax scans the
    fields only at the first direction of each box row, on the upper
    face alpha_{n-1} = radius, and the reports stay those of the sweep
    that rescored every neighbour.  The argmax counts pin a cost, not
    an outcome."""

    def count_argmax(self, monkeypatch):
        calls = []
        argmax = flock._Scores.argmax

        def counted(scores, s):
            calls.append(s)
            return argmax(scores, s)

        monkeypatch.setattr(flock._Scores, "argmax", counted)
        return calls

    @pytest.mark.parametrize("d,n,radius", [(2, 4, 1), (2, 4, 2), (3, 5, 1), (2, 3, 3)])
    def test_argmax_only_at_the_face(self, monkeypatch, d, n, radius):
        rng = random.Random(407 + 10 * n + radius)
        valuation = _random_matrix_valuation(rng, d, n, 3)
        calls = self.count_argmax(monkeypatch)
        report = check_flock_axioms(valuation, radius=radius)
        box = list(product(range(-radius, radius + 1), repeat=n))
        assert report.directions == len(box)
        # one scan per box row, of the row's first direction's score
        assert len(calls) == (2 * radius + 1) ** (n - 1)
        scores = flock._Scores(valuation, (-radius, radius))
        assert calls == [scores.score(alpha) for alpha in reversed(box)
                         if alpha[-1] == radius]

    def test_radius_zero_and_listed_directions_scan_each_direction_once(
            self, monkeypatch, nonfano_valuation):
        # a one-entry table is one row, and a list has no rows
        calls = self.count_argmax(monkeypatch)
        assert check_flock_axioms(nonfano_valuation, radius=0).directions == 1
        assert len(calls) == 1
        del calls[:]
        check_flock_axioms(nonfano_valuation, alphas=[(0,) * 7, ALPHA_MINUS] * 2)
        assert len(calls) == 4

    def test_tampered_radius_three_keeps_violation_order(self):
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        violations = 0
        for valuation in _tampered_radius_three():
            report = agree(valuation, radius=3)
            assert report.directions == 7**4
            assert not report.ok
            violations += len(report.violations)
        # violations at many directions, so that their order across the
        # table pins the forward emission; the family identities hold
        # for any weighting, so every one is a slice that fails exchange
        assert violations > 200

    @pytest.mark.parametrize("radius", [1, 2])
    def test_sixteen_byte_fields(self, radius):
        # no struct format fits a 16-byte field, so argmax reads the
        # fields one by one
        agree = TestPackedScoresMatchScan().assert_sweeps_agree
        scaled, tampered_boxes = _sixteen_byte_valuations(radius)
        assert flock._Scores(scaled, (-radius, radius)).format is None
        assert agree(scaled, radius=radius).ok
        violations = 0
        for tampered in tampered_boxes:
            assert flock._Scores(tampered, (-radius, radius)).format is None
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


class TestDerivedTops:
    """Every slice the sweep marks at a known top, whether derived from
    the previous direction in its box row, from a face bump or from the
    all-ones shift, is the one a full scan of that direction's score
    gives: the same score, top and slice as argmax(score(alpha))."""

    def marked(self, monkeypatch, valuation, radius=None, alphas=None):
        """The (score, top, slice) of every at_top call of one sweep."""
        calls = []
        at_top = flock._Scores.at_top

        def recorded(scores, s, top):
            here = at_top(scores, s, top)
            calls.append((s, top, here))
            return here

        monkeypatch.setattr(flock._Scores, "at_top", recorded)
        check_flock_axioms(valuation, radius=radius, alphas=alphas)
        monkeypatch.undo()
        return calls

    def assert_tops_scanned(self, monkeypatch, valuation, radius=None, alphas=None):
        n = valuation.n
        if alphas is None:
            scores = flock._Scores(valuation, (-radius, radius))
            order = reversed(list(product(range(-radius, radius + 1), repeat=n)))
            face = radius
        else:
            scores = flock._Scores(valuation, [a for alpha in alphas for a in alpha])
            order, face = reversed(alphas), None
        # the directions the sweep marks, in sweep order: each direction,
        # then its bumps and its shift past the face (all of them for a
        # list)
        expected = []
        for alpha in order:
            expected.append(alpha)
            expected += [tuple(b + (j == i) for j, b in enumerate(alpha))
                         for i, a in enumerate(alpha) if face is None or a == face]
            if face is None or max(alpha, default=face) == face:
                expected.append(tuple(a + 1 for a in alpha))
        calls = self.marked(monkeypatch, valuation, radius=radius, alphas=alphas)
        assert len(calls) == len(expected)
        for direction, (s, top, here) in zip(expected, calls):
            assert s == scores.score(direction), direction
            assert (top, here) == scores.argmax(s), direction
        return scores

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matrix_and_tampered_valuations(self, monkeypatch, radius):
        rng = random.Random(420 + radius)
        for d, n in [(2, 4), (3, 5)]:
            valuation = _random_matrix_valuation(rng, d, n, 2)
            tampered = _reweighted(valuation, rng, 4)
            for v in (valuation, tampered):
                self.assert_tops_scanned(monkeypatch, v, radius=radius)
            listed = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
            self.assert_tops_scanned(monkeypatch, tampered, alphas=listed + listed[:3])

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_sixteen_byte_fields(self, monkeypatch, radius):
        rng = random.Random(430 + radius)
        # the minor on columns 0 and 3 is 2, so some value is 1
        base = linear_valuated_matroid(IntMatrix([[1, 0, 1, 1], [0, 1, 1, 2]]), 2)
        scaled = Valuation(base.matroid, {
            b: v * 2**70 for b, v in base.values.items()})
        values = _reweighted(base, rng, 3).values
        values[base.matroid.bases[0]] = 2**70
        for v in (scaled, Valuation(base.matroid, values)):
            scores = self.assert_tops_scanned(monkeypatch, v, radius=radius)
            assert scores.format is None


class TestSliceExchange:
    """The exchange check the sweep runs once per distinct slice, against
    the table pass and the probe of every (basis, u in, v out)."""

    def slices(self, monkeypatch, valuation, radius):
        """The (n, masks) of every distinct slice one sweep checks."""
        seen = []
        check = flock.exchange_failure

        def recorded(n, masks):
            seen.append((n, tuple(masks)))
            return check(n, masks)

        monkeypatch.setattr(flock, "exchange_failure", recorded)
        check_flock_axioms(valuation, radius=radius)
        monkeypatch.undo()
        return seen

    def test_tampered_boxes(self, monkeypatch):
        boxes = [(v, 3) for v in _tampered_radius_three()]
        for radius in (1, 2):
            boxes += [(v, radius) for v in _sixteen_byte_valuations(radius)[1]]
        outcomes = set()
        for valuation, radius in boxes:
            seen = self.slices(monkeypatch, valuation, radius)
            assert len(seen) == len(set(seen))
            for n, masks in seen:
                failure = exchange_failure(n, masks)
                assert failure == exchange_table(n, masks)[1]
                assert failure == probe_exchange_table(n, masks)[1]
                outcomes.add(failure is None)
        assert outcomes == {True, False}


class TestFamilyBySetBits:
    """_Scores.family walks the set bits of an indicator; a scan of
    every field reads the same items in the same order."""

    @staticmethod
    def scanned(scores, indicator, items):
        return [x for k, x in enumerate(items) if indicator >> (k * scores.bits) & 1]

    @pytest.mark.parametrize("top,width", [
        (3, 1), (200, 2), (40_000, 4), (2**40, 8), (2**70, 16)])
    def test_every_field_width(self, top, width):
        rng = random.Random(440 + width)
        base = _random_matrix_valuation(rng, 3, 6, 2)
        values = {b: rng.randint(0, top) for b in base.values}
        values[base.matroid.bases[0]] = top
        scores = flock._Scores(Valuation(base.matroid, values), (-1, 1))
        assert scores.width == width
        assert (scores.format is None) == (width == 16)
        fields = len(scores.bases)
        marked = [0, scores.ones, 1, 1 << (fields - 1) * scores.bits]
        marked += scores.indicators
        marked += [scores.argmax(scores.score(alpha))[1]
                   for alpha in product((-1, 1), repeat=6)]
        marked += [sum(1 << k * scores.bits for k in range(fields) if rng.random() < 0.3)
                   for _ in range(50)]
        for indicator in marked:
            for items in (scores.bases, scores.masks):
                assert scores.family(indicator, items) == \
                    self.scanned(scores, indicator, items)
        assert scores.family(0, scores.bases) == []
        assert scores.family(scores.ones, scores.masks) == list(scores.masks)
