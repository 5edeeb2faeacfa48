"""Matroid families sliced out of a valuation by integer direction vectors.

For a direction alpha, the slice keeps the bases maximizing
e_B . alpha - value(B); the maximum itself is g(alpha).  Varying alpha
over Z^n yields a family satisfying two axioms: contracting i in the
slice at alpha equals deleting i in the slice at alpha + e_i, and the
slice is invariant under shifting alpha by the all-ones vector.  Both
axioms are verified exhaustively over finite boxes of directions.

The sweep is bit-sliced: a slab of directions is scored with one packed
int per basis, holding one field per direction, so each step of the
checks is one int operation over every direction of the slab.  Each
distinct slice is kept once, and basis exchange is decided for all of
them together at the end.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, product

from algval.algmat import Matroid
from algval.valmat import AxiomReport, Valuation

# The bytes of a slab's packed scores over all bases; the sweep keeps
# two such sets (scores and marks) alive at once.  On the 483-basis 4x12
# golden input, whose default box spans 243 slabs of 2,187 directions,
# verify peaks at 38.2 MB against 46.7 MB for the per-direction sweep
# this replaced.  1 MiB saves 1.3 MB of that and is no faster; 4 MiB
# costs 5 MB more for about 5% less time (CPython 3.11.7, shared 2-core
# host).
_SLAB_BYTES = 1 << 21

# _BIT[j] maps a byte to its bit j, as a byte 0 or 1
_BIT = [bytes(b >> j & 1 for b in range(256)) for j in range(8)]


class _Scores:
    """Field sizing for packed scores.  A field holds offset + e_B .
    alpha - value(B) for one basis B at one direction; fields are 1, 2,
    4 or 8 bytes (wider only for huge directions), sized so that every
    direction with entries in [min(entries), max(entries)], and its
    bumps by e_i and by the all-ones vector, leaves each field's top
    (guard) bit clear."""

    def __init__(self, valuation: Valuation, entries):
        entries = list(entries)
        self.low = low = min(entries, default=0)
        high = max(entries, default=0)
        top = max(valuation.values.values())
        rank = valuation.matroid.rank
        self.offset = top - rank * low
        # a coordinate digit, alpha_i - low, fits a field even at rank 0
        spread = top + max(rank, 1) * (high + 1 - low)
        width = 1
        while spread >= 1 << (8 * width - 1):
            width *= 2
        self.width, self.bits = width, 8 * width


class _Slabs:
    """The checks of a slab of directions, one field per direction in
    each packed int.  A slab comes as n coordinate-digit ints: field d
    of the i-th holds alpha_i - low for the slab's d-th direction."""

    def __init__(self, valuation: Valuation, scores: _Scores):
        matroid = valuation.matroid
        n = valuation.n
        self.rank = matroid.rank
        self.width, self.bits = scores.width, scores.bits
        top = max(valuation.values.values())
        masks = matroid.masks
        # basis k's field less its coordinate digits: the offset minus
        # its value, with the digits counted from low
        self.consts = [top - valuation.values[b] for b in matroid.bases]
        self.members = [[i for i in range(n) if m >> i & 1] for m in masks]
        self.holders = [[k for k, m in enumerate(masks) if m >> i & 1]
                        for i in range(n)]
        self.others = [[k for k, m in enumerate(masks) if not m >> i & 1]
                       for i in range(n)]
        self.key_size = (len(masks) + 7) // 8

    def check(self, count, coords):
        """The tops, slice keys and mismatches of count directions.
        tops holds each direction's top score; keys[d], one bit per
        basis, is the d-th direction's slice; mismatches holds, for
        each element i and then for the all-ones shift, an int with the
        guard bit set in each field whose direction fails that check."""
        width, bits = self.width, self.bits
        ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")
        guard = ones << (bits - 1)
        fill = guard - ones
        scores = [c * ones + sum(coords[i] for i in elements)
                  for c, elements in zip(self.consts, self.members)]
        tops = scores[0]
        for s in scores[1:]:
            # the guard bit survives in the fields where tops >= s
            keep = ((tops | guard) - s) & guard
            tops ^= (tops ^ s) & ~(keep - (keep >> (bits - 1)))
        # a field of tops + fill - s carries into its guard bit exactly
        # when s lies below the top, and never past it
        known = tops + fill
        below = [(known - s) & guard for s in scores]
        mismatches = []
        for holders, others in zip(self.holders, self.others):
            held = guard
            for k in holders:
                held &= below[k]
            # the fields whose slice holds i in some basis
            contracted = guard ^ held
            # the top of alpha + e_i is one more exactly there
            bumped = known + (contracted >> (bits - 1))
            lifted = bumped - ones
            changed = 0
            for k in holders:
                changed |= (lifted - scores[k]) ^ below[k]
            kept, moved = guard, 0
            for k in others:
                x = bumped - scores[k]
                kept &= x
                moved |= x ^ below[k]
            # slice(alpha)/i = slice(alpha+e_i)\i: where the slice holds
            # i, the bumped slice is its bases holding i; elsewhere the
            # slice is the bumped slice's bases lacking i
            mismatches.append(contracted & (changed | ~kept)
                              | (guard ^ contracted) & moved)
        shift = self.rank * ones
        shifted = known + shift
        moved = 0
        for s, b in zip(scores, below):
            moved |= (shifted - (s + shift)) ^ b
        mismatches.append(moved & guard)
        # transpose the marks: bit k % 8 of byte k // 8 of a key
        size = self.key_size
        table = bytearray(count * size)
        for j in range(size):
            byte = 0
            for k in range(8 * j, min(8 * j + 8, len(below))):
                byte |= (guard ^ below[k]) >> (bits - 1 - k % 8)
            table[j::size] = byte.to_bytes(count * width, "little")[::width]
        table = bytes(table)
        keys = [table[d:d + size] for d in range(0, count * size, size)]
        return tops, keys, mismatches


def _failing_slices(matroid, keys):
    """The int with bit s set for each slice keys[s] that fails basis
    exchange; a key has bit k set for each basis matroid.masks[k] of the
    support matroid that lies in the slice.  Exchange fails exactly
    when some (r-1)-set R lies in a basis of the slice and some basis b2
    of the slice meets no v with R + v in it.  The support's near sets
    give, for every R, every v with R + v a basis, and one pass over
    those decides every slice at once, with one membership bit per slice
    and basis."""
    if not keys:
        return 0
    masks, index = matroid.masks, matroid._index
    joined = b"".join(keys)
    size = len(keys[0])
    member = []
    for k in range(len(masks)):
        # byte s of column is 1 when slice s holds basis k
        column = joined[k >> 3::size].translate(_BIT[k & 7])
        inside = 0
        for j in range(8):
            inside |= int.from_bytes(column[j::8], "little") << j
        member.append(inside)
    del joined
    failing = 0
    for rest, completions in matroid.near().items():
        # the slices holding R + v, for each v
        through = {}
        holds = 0
        x = completions
        while x:
            v = x & -x
            x ^= v
            through[v] = inside = member[index[rest | v]]
            holds |= inside
        if not holds:
            continue
        # the slices holding a basis, grouped by the v it holds
        meets = {}
        for m, inside in zip(masks, member):
            t = m & completions
            meets[t] = meets.get(t, 0) | inside
        for t, inside in meets.items():
            covered = 0
            while t:
                v = t & -t
                t ^= v
                covered |= through[v]
            failing |= holds & inside & ~covered
    return failing


def _pack(values, width) -> int:
    """The int with field d holding values[d]."""
    return int.from_bytes(
        b"".join(v.to_bytes(width, "little") for v in values), "little")


def _listed_slabs(alphas, n, low, width, size):
    """(count, coordinate digits) of each run of size listed directions,
    in order."""
    for start in range(0, len(alphas), size):
        chunk = alphas[start:start + size]
        yield len(chunk), [_pack([a[i] - low for a in chunk], width)
                           for i in range(n)]


def _box_slabs(n, radius, width, size):
    """(count, coordinate digits) of the box [-radius, radius]^n in
    forward mixed-radix order, in slabs of at most size directions (and
    at least one).  A slab holds every value of the last t coordinates,
    for the largest t whose side**t directions fit, and a run of values
    of the coordinate before them; the leading coordinates are fixed."""
    side = 2 * radius + 1
    t = 0
    while t < n and side ** (t + 1) <= size:
        t += 1
    lead = n - 1 - t  # the coordinate that steps along the runs
    run = side**t

    def trailing(count):
        """The digits of the last t coordinates over count directions."""
        out = []
        for j in range(lead + 1, n):
            repeat = side ** (n - 1 - j)
            cycle = b"".join(v.to_bytes(width, "little") * repeat for v in range(side))
            out.append(int.from_bytes(cycle * (count // (repeat * side)), "little"))
        return out

    if lead < 0:
        yield run, trailing(run)
        return
    step = min(side, size // run)
    shapes = {}
    for prefix in product(range(side), repeat=lead):
        for first in range(0, side, step):
            values = min(step, side - first)
            if values not in shapes:
                # ones, the lead coordinate's digits less first, and the
                # trailing digits, over values * run directions
                count = values * run
                lead_digits = chain.from_iterable([v] * run for v in range(values))
                shapes[values] = (count, _pack([1] * count, width),
                                  _pack(lead_digits, width), trailing(count))
            count, ones, digits, rest = shapes[values]
            yield count, [d * ones for d in prefix] + [first * ones + digits] + rest


def _slice(valuation: Valuation, alpha):
    """The key of alpha's slice and g(alpha), from a one-direction slab."""
    if len(alpha) != valuation.n:
        raise ValueError(f"alpha must have length {valuation.n}")
    scores = _Scores(valuation, alpha)
    coords = [a - scores.low for a in alpha]
    tops, keys, _ = _Slabs(valuation, scores).check(1, coords)
    return int.from_bytes(keys[0], "little"), tops - scores.offset


def g(valuation: Valuation, alpha) -> int:
    """max over bases of e_B . alpha - value(B)."""
    return _slice(valuation, tuple(alpha))[1]


@dataclass(frozen=True)
class FlockSlice:
    """The argmax basis family at one direction, with its maximum."""

    alpha: tuple
    matroid: Matroid
    g_value: int


def flock_slice(valuation: Valuation, alpha) -> FlockSlice:
    """Slice at one direction; the basis family is exchange-verified."""
    alpha = tuple(alpha)
    key, value = _slice(valuation, alpha)
    bases = valuation.matroid.bases
    family = [b for k, b in enumerate(bases) if key >> k & 1]
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
    budget); giving both is a ValueError, as is a radius that
    check_box_radius refuses, raised before anything is built.  The
    directions are cut into slabs: runs of the box in forward
    mixed-radix order with the leading coordinates fixed, or runs of
    the list, of at most _SLAB_BYTES over all bases.  A slab is scored
    with one packed int per basis, one field per direction: the sum of
    the basis's coordinate-digit ints plus its constant.  The tops are
    their fieldwise maximum and each basis's marks the fields at the
    top.  The bumps to alpha+e_i and alpha+1 are marked against their
    known tops: one more where the slice holds i, and the rank more.  So
    each direction's checks read only its own fields, and each check is
    a few int operations over the whole slab.  The marks, transposed to
    one key per direction, collect each distinct slice once, and
    _failing_slices decides exchange for all of them in one pass.  The
    contraction/deletion and all-ones identities hold for any weighting
    of the bases, so exchange is the only check that can fail; every
    check still runs.  Violations are emitted per direction in forward
    order at the end.
    """
    n = valuation.n
    if radius is not None and alphas is not None:
        raise ValueError("give a box radius or a list of directions, not both")
    if radius is not None:
        check_box_radius(n, radius)
    bases = len(valuation.matroid.bases)
    if alphas is None:
        if radius is None:
            radius = default_box_radius(valuation)
        scores = _Scores(valuation, (-radius, radius))
        side = 2 * radius + 1
        size = max(1, _SLAB_BYTES // (bases * scores.width))
        slabs = _box_slabs(n, radius, scores.width, size)

        def direction(index):
            digits = []
            for _ in range(n):
                index, d = divmod(index, side)
                digits.append(d - radius)
            return tuple(reversed(digits))
    else:
        alphas = [tuple(alpha) for alpha in alphas]
        for alpha in alphas:
            if len(alpha) != n:
                raise ValueError(f"direction {alpha} must have length {n}")
        scores = _Scores(valuation, chain.from_iterable(alphas))
        size = max(1, _SLAB_BYTES // (bases * scores.width))
        slabs = _listed_slabs(alphas, n, scores.low, scores.width, size)
        direction = alphas.__getitem__
    engine = _Slabs(valuation, scores)
    # each distinct slice's number, and each direction's slice number
    seen = {}
    numbers = array("I")
    # (first direction, mismatches) of each slab with a failing check
    flagged = []
    start = 0
    for count, coords in slabs:
        _, keys, mismatches = engine.check(count, coords)
        for key in dict.fromkeys(keys):
            if key not in seen:
                seen[key] = len(seen)
        numbers.extend(map(seen.__getitem__, keys))
        if any(mismatches):
            flagged.append((start, mismatches))
        start += count
    report = FlockReport(directions=start)
    report.checked = start * (n + 2)
    slices = list(seen)
    del seen
    failing = _failing_slices(valuation.matroid, slices)
    # each failing direction's checks: -1 for exchange, i for
    # contraction/deletion at i, n for the shift
    found = {}
    if failing:
        # one character per slice: '1' where it fails
        fails = bin(failing)[:1:-1].ljust(len(slices), "0")
        for index, number in enumerate(numbers):
            if fails[number] == "1":
                found[index] = [-1]
    for first, mismatches in flagged:
        for check, x in enumerate(mismatches):
            while x:
                low = x & -x
                x ^= low
                found.setdefault(first + (low.bit_length() - 1) // scores.bits,
                                 []).append(check)
    for index in sorted(found):
        alpha = direction(index)
        for check in found[index]:
            if check < 0:
                report.violations.append(
                    f"slice at alpha={alpha} is not a matroid (exchange fails)")
            elif check < n:
                report.violations.append(
                    f"contraction/deletion mismatch at alpha={alpha}, i={check}")
            else:
                report.violations.append(f"all-ones shift changes the slice at {alpha}")
    return report
