"""Matroid families sliced out of a valuation by integer direction vectors.

For a direction alpha, the slice keeps the bases maximizing
e_B . alpha - value(B); the maximum itself is g(alpha).  Varying alpha
over Z^n yields a family satisfying two axioms: contracting i in the
slice at alpha equals deleting i in the slice at alpha + e_i, and the
slice is invariant under shifting alpha by the all-ones vector.  Both
axioms are verified exhaustively over finite boxes of directions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, product, repeat

from algval.algmat import Matroid, exchange_failure
from algval.valmat import AxiomReport, Valuation


class _Scores:
    """Packed score vectors.  Bit field k of a score int holds
    offset + e_B . alpha - value(B) for the k-th basis B; fields are
    1, 2, 4 or 8 bytes (wider only for huge directions), sized so that
    every direction with entries in [min(entries), max(entries)], and its
    bumps by e_i and by the all-ones vector, leaves each field's top
    (guard) bit clear.  An indicator int has bit 0 of field k set for
    each basis k of a family.

    argmax scans the fields for their top; at_top marks the fields
    equal to a top that is already known, with no scan."""

    def __init__(self, valuation: Valuation, entries):
        entries = list(entries)
        low, high = min(entries, default=0), max(entries, default=0)
        self.bases = valuation.matroid.bases
        self.masks = valuation.matroid.masks
        values = [valuation.values[b] for b in self.bases]
        rank = valuation.matroid.rank
        self.offset = max(values) - rank * low
        spread = max(values) + rank * (high + 1 - low)
        width = 1
        while spread >= 1 << (8 * width - 1):
            width *= 2
        self.width, self.size = width, width * len(self.bases)
        self.format = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)
        self.bits = bits = 8 * width
        self.ones = sum(1 << (k * bits) for k in range(len(self.bases)))
        self.guard = self.ones << (bits - 1)
        self.fill = self.guard - self.ones
        self.base = self.offset * self.ones - sum(
            v << (k * bits) for k, v in enumerate(values))
        self.indicators = [
            sum(1 << (k * bits) for k, b in enumerate(self.bases) if i in b)
            for i in range(valuation.n)
        ]
        self.rank = rank
        self.shift = rank * self.ones

    def score(self, alpha) -> int:
        s = self.base
        for a, inside in zip(alpha, self.indicators):
            s += a * inside
        return s

    def argmax(self, s):
        """The largest field of s, and the indicator of the fields equal
        to it."""
        raw = s.to_bytes(self.size, sys.byteorder)
        if self.format:
            top = max(memoryview(raw).cast(self.format))
        else:
            top = max(int.from_bytes(raw[k:k + self.width], sys.byteorder)
                      for k in range(0, self.size, self.width))
        return top, self.at_top(s, top)

    def at_top(self, s, top):
        """The indicator of the fields of s equal to top, which no field
        exceeds: top - field plus guard - 1 carries into the guard bit
        exactly when the field is below the top."""
        below = top * self.ones - s + self.fill
        return (self.guard & ~below) >> (self.bits - 1)

    def family(self, indicator, items):
        """The items (bases or their masks) at the fields marked in an
        indicator, walking its set bits: field k holds bit k * bits."""
        out = []
        while indicator:
            low = indicator & -indicator
            out.append(items[(low.bit_length() - 1) // self.bits])
            indicator ^= low
        return out


def _slice(valuation: Valuation, alpha):
    """The scorer for alpha, the indicator of its argmax family, and g."""
    if len(alpha) != valuation.n:
        raise ValueError(f"alpha must have length {valuation.n}")
    scores = _Scores(valuation, alpha)
    top, here = scores.argmax(scores.score(alpha))
    return scores, here, top - scores.offset


def g(valuation: Valuation, alpha) -> int:
    """max over bases of e_B . alpha - value(B)."""
    return _slice(valuation, tuple(alpha))[2]


@dataclass(frozen=True)
class FlockSlice:
    """The argmax basis family at one direction, with its maximum."""

    alpha: tuple
    matroid: Matroid
    g_value: int


def flock_slice(valuation: Valuation, alpha) -> FlockSlice:
    """Slice at one direction; the basis family is exchange-verified."""
    alpha = tuple(alpha)
    scores, here, value = _slice(valuation, alpha)
    family = scores.family(here, scores.bases)
    return FlockSlice(alpha, Matroid(valuation.n, family), value)


@dataclass
class FlockReport(AxiomReport):
    """Axiom-violation log for a sweep of directions."""

    directions: int = 0


def default_box_radius(valuation: Valuation) -> int:
    """Largest radius R <= rank with (2R+1)^n * n * bases <= 10**6,
    and at least 1."""
    n = max(valuation.n, 1)
    budget = 10**6
    per_direction = n * max(len(valuation.values), 1)
    radius = 1
    while radius < valuation.matroid.rank:
        if (2 * (radius + 1) + 1) ** n * per_direction > budget:
            break
        radius += 1
    return radius


def check_box_radius(n, radius) -> None:
    """Refuse, as a ValueError, a box [-radius, radius]^n that holds no
    direction or more directions than a list can index; n is all it
    needs, so a caller can refuse a box before computing a valuation."""
    if radius < 0:
        raise ValueError(f"box radius must be at least 0, got {radius}")
    side = 2 * radius + 1
    if side**n > sys.maxsize:
        raise ValueError(f"box radius {radius} gives {side}^{n} directions, "
                         "more than a list can index")


def check_flock_axioms(valuation: Valuation, radius=None, alphas=None) -> FlockReport:
    """Verify, per direction alpha: the slice's basis family satisfies
    basis exchange (each slice must itself be a matroid),
    slice(alpha)/i = slice(alpha+e_i)\\i for every i, and
    slice(alpha) = slice(alpha+1).

    Directions come from an explicit iterable or from the full box
    [-radius, radius]^n (default radius bounded by the evaluation
    budget).  Every slice marks the fields of its own direction's packed
    score vector that equal their top.  The box is swept once, in
    reverse mixed-radix order (side 2*radius+1), which reaches alpha+e_i
    and alpha+1 before alpha, and each direction's slice goes into a
    table at its position.  A neighbour inside the box is read from the
    table, since score(alpha+e_i) = score(alpha) + indicators[i]
    exactly; only neighbours past the box's upper face are marked on
    their own.  A top is scanned for only when it is not known: the
    previous direction in a box row is alpha + e_{n-1}, and alpha's
    top is that direction's, less 1 when its slice holds n-1 in every
    basis; a bump by e_i adds 1 when the slice holds i in some basis,
    and the all-ones bump adds the rank.  So argmax runs once per box
    row, at alpha_{n-1} = radius, and once per listed direction.
    Equal slices are one shared int, so the table holds one reference
    per direction.  An explicit list is swept the same way with an
    empty table.  Each direction's violations are emitted in forward
    order, so the report is the one a forward sweep that rescored
    every neighbour gives.  Exchange verification runs on the basis
    masks, once per distinct slice; the contraction/deletion and
    all-ones identities hold for any weighting of the bases, so
    exchange is the only check that can fail.  A radius that
    check_box_radius refuses is a ValueError, raised before anything is
    built.
    """
    n = valuation.n
    report = FlockReport()
    if radius is not None:
        check_box_radius(n, radius)
    if alphas is None:
        if radius is None:
            radius = default_box_radius(valuation)
        side = 2 * radius + 1
        scores = _Scores(valuation, (-radius, radius))
        strides = [side ** (n - 1 - i) for i in range(n)]
        table = [None] * side**n
        directions = zip(range(len(table) - 1, -1, -1),
                         product(range(radius, -radius - 1, -1), repeat=n))
        top = radius
    else:
        alphas = [tuple(alpha) for alpha in alphas]
        for alpha in alphas:
            if len(alpha) != n:
                raise ValueError(f"direction {alpha} must have length {n}")
        scores = _Scores(valuation, chain.from_iterable(alphas))
        # no listed direction has a neighbour in the table, nor a
        # previous direction to carry its score from
        strides, table, top = [0] * n, [], -math.inf
        directions = zip(repeat(0), reversed(alphas))
    elements = [(i, inside, scores.ones ^ inside, stride)
                for i, (inside, stride) in enumerate(zip(scores.indicators, strides))]
    # the element whose coordinate steps down along a box row; with no
    # element every direction is () and starts its own row
    row_inside, row_outside = elements[-1][1:3] if n else (0, 0)
    diagonal = sum(strides)
    # each distinct slice, exchange-checked when it first appears; the
    # table refers to these ints
    slices = {}
    failing = set()
    found_per_direction = []

    for idx, alpha in directions:
        if alpha and alpha[-1] < top:
            # s, t and here still belong to alpha + e_{n-1}
            s -= row_inside
            if not here & row_outside:
                t -= 1
            here = scores.at_top(s, t)
        else:
            s = scores.score(alpha)
            t, here = scores.argmax(s)
        known = slices.get(here)
        if known is None:
            slices[here] = known = here
            if exchange_failure(n, scores.family(here, scores.masks)) is not None:
                failing.add(here)
        here = known
        if table:
            table[idx] = here
        found = []
        if here in failing:
            found.append(f"slice at alpha={alpha} is not a matroid (exchange fails)")
        for a, (i, inside, outside, stride) in zip(alpha, elements):
            contracted = here & inside
            if a < top:
                bumped = table[idx + stride]
            else:
                bumped = scores.at_top(s + inside, t + 1 if contracted else t)
            # removing i is injective on the bases holding it and leaves
            # them one element short of the bases lacking it, so
            # slice(alpha)/i = slice(alpha+e_i)\i exactly when the slice's
            # bases holding i are all of the bumped slice, or, if none
            # holds i, the slice is the bumped slice's bases lacking i
            if contracted != bumped if contracted else here != bumped & outside:
                found.append(f"contraction/deletion mismatch at alpha={alpha}, i={i}")
        if max(alpha, default=top) < top:
            shifted = table[idx + diagonal]
        else:
            shifted = scores.at_top(s + scores.shift, t + scores.rank)
        if here != shifted:
            found.append(f"all-ones shift changes the slice at {alpha}")
        report.directions += 1
        report.checked += n + 2
        if found:
            found_per_direction.append(found)
    for found in reversed(found_per_direction):
        report.violations.extend(found)
    return report
