"""Matroid families sliced out of a valuation by integer direction vectors.

For a direction alpha, the slice keeps the bases maximizing
e_B . alpha - value(B); the maximum itself is g(alpha).  The valuation
is a valuated matroid exactly when every slice is a matroid, and that
is what is verified, exhaustively over finite boxes of directions.  The
flock identities, slice(alpha)/i = slice(alpha + e_i)\\i and
slice(alpha) = slice(alpha + 1), hold for the argmax families of any
weighting of the bases, so on slices read off the valuation they can
never fail, and they are not checked.

The sweep is bit-sliced: a slab of directions, every value of a box's
trailing coordinates under one prefix of the leading ones or a run of
a list, is scored with one packed int per basis, holding one field per
direction, so each step of the scan is one int operation over every
direction of the slab.  Each distinct slice is kept once, and basis
exchange is decided for all of them together at the end.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, product

from algval.algmat import Matroid
from algval.valmat import AxiomReport, Valuation

# The bytes of a slab's packed scores over all bases.  On the 483-basis
# 4x12 golden input, whose default box spans 243 slabs of 2,187
# directions, verify peaks at 37.2 MB against 46.7 MB for a
# per-direction sweep.  1 MiB saved 1.3 MB and was no faster; 4 MiB
# cost 5 MB more for about 5% less time (CPython 3.11.7, shared 2-core
# host).
_SLAB_BYTES = 1 << 21

# _BIT[j] maps a byte to its bit j, as a byte 0 or 1
_BIT = [bytes(b >> j & 1 for b in range(256)) for j in range(8)]


class _Slabs:
    """The slices of slabs of directions with entries in [low, high],
    the least and greatest of entries.  A field of a packed int holds
    offset + e_B . alpha - value(B) for one basis B at one direction, in
    1, 2, 4 or 8 bytes (wider only for huge directions), so that entries
    up to high + 1 leave its top (guard) bit clear.  A slab comes as n
    coordinate-digit ints: field d of the i-th holds alpha_i - low for
    the slab's d-th direction."""

    def __init__(self, valuation: Valuation, entries):
        entries = list(entries)
        self.low = low = min(entries, default=0)
        high = max(entries, default=0)
        matroid, top = valuation.matroid, max(valuation.values.values())
        rank = matroid.rank
        self.offset = top - rank * low
        # a coordinate digit, alpha_i - low, fits a field even at rank 0
        spread = top + max(rank, 1) * (high + 1 - low)
        width = 1
        while spread >= 1 << (8 * width - 1):
            width *= 2
        self.width, self.bits = width, 8 * width
        masks = matroid.masks
        # basis k's field less its coordinate digits: the offset minus
        # its value, with the digits counted from low
        self.consts = [top - valuation.values[b] for b in matroid.bases]
        self.members = [[i for i in range(valuation.n) if m >> i & 1] for m in masks]
        self.key_size = (len(masks) + 7) // 8

    def check(self, count, coords):
        """The tops and slice keys of count directions: tops holds each
        direction's top score, and keys[d], one bit per basis, is the
        d-th direction's slice."""
        width, bits = self.width, self.bits
        ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")
        guard = ones << (bits - 1)
        scores = [c * ones + sum(coords[i] for i in elements)
                  for c, elements in zip(self.consts, self.members)]
        tops = scores[0]
        for s in scores[1:]:
            # the guard bit survives in the fields where tops >= s
            keep = ((tops | guard) - s) & guard
            tops ^= (tops ^ s) & ~(keep - (keep >> (bits - 1)))
        # a field of s + guard - tops keeps its guard bit exactly when s
        # is at the top, and never carries into the next
        lifted = guard - tops
        # transpose the marks: bit k % 8 of byte k // 8 of a key
        size = self.key_size
        table = bytearray(count * size)
        for j in range(size):
            byte = 0
            for k in range(8 * j, min(8 * j + 8, len(scores))):
                byte |= ((scores[k] + lifted) & guard) >> (bits - 1 - k % 8)
            table[j::size] = byte.to_bytes(count * width, "little")[::width]
        table = bytes(table)
        keys = [table[d:d + size] for d in range(0, count * size, size)]
        return tops, keys


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
    for the largest t whose side**t directions fit, under one fixed
    prefix of the leading coordinates."""
    side = 2 * radius + 1
    t = 0
    while t < n and side ** (t + 1) <= size:
        t += 1
    count = side**t
    trailing = []
    for j in range(n - t, n):
        repeat = side ** (n - 1 - j)
        cycle = b"".join(v.to_bytes(width, "little") * repeat for v in range(side))
        trailing.append(int.from_bytes(cycle * (count // (repeat * side)), "little"))
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little") if t < n else 0
    for prefix in product(range(side), repeat=n - t):
        yield count, [d * ones for d in prefix] + trailing


def _slice(valuation: Valuation, alpha):
    """The key of alpha's slice and g(alpha), from a one-direction slab."""
    if len(alpha) != valuation.n:
        raise ValueError(f"alpha must have length {valuation.n}")
    slabs = _Slabs(valuation, alpha)
    tops, keys = slabs.check(1, [a - slabs.low for a in alpha])
    return int.from_bytes(keys[0], "little"), tops - slabs.offset


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
    """Verify, per direction alpha, that the slice's basis family
    satisfies basis exchange: each slice must itself be a matroid.
    That is one check per direction.  The flock identities
    slice(alpha)/i = slice(alpha+e_i)\\i and slice(alpha) =
    slice(alpha+1) hold for any weighting of the bases, so they are not
    checked here; tests/test_flock.py checks them on lattice slices
    built without the valuation, where they can fail.

    Directions come from an explicit iterable or from the full box
    [-radius, radius]^n (default radius bounded by the evaluation
    budget); giving both is a ValueError, as is a radius that
    check_box_radius refuses, raised before anything is built.  The
    directions are cut into slabs of at most _SLAB_BYTES over all
    bases: the box in forward mixed-radix order, every value of the
    last coordinates under one prefix of the leading ones, or runs of
    the list.  A slab is scored with one packed int per basis, one field
    per direction: the sum of the basis's coordinate-digit ints plus its
    constant.  The tops are their fieldwise maximum, and each basis's
    marks the fields at the top.  The marks, transposed to one key per
    direction, collect each distinct slice once, and _failing_slices
    decides exchange for all of them in one pass.  Violations are
    emitted at the end, per direction, by replaying the box or the list
    in order beside each direction's slice.
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
        engine = _Slabs(valuation, (-radius, radius))
        size = max(1, _SLAB_BYTES // (bases * engine.width))
        slabs = _box_slabs(n, radius, engine.width, size)
        directions = product(range(-radius, radius + 1), repeat=n)
    else:
        directions = [tuple(alpha) for alpha in alphas]
        for alpha in directions:
            if len(alpha) != n:
                raise ValueError(f"direction {alpha} must have length {n}")
        engine = _Slabs(valuation, chain.from_iterable(directions))
        size = max(1, _SLAB_BYTES // (bases * engine.width))
        slabs = _listed_slabs(directions, n, engine.low, engine.width, size)
    # each distinct slice's number, and each direction's slice number
    seen = {}
    numbers = array("I")
    for count, coords in slabs:
        _, keys = engine.check(count, coords)
        for key in dict.fromkeys(keys):
            if key not in seen:
                seen[key] = len(seen)
        numbers.extend(map(seen.__getitem__, keys))
    report = FlockReport(checked=len(numbers), directions=len(numbers))
    slices = list(seen)
    del seen
    failing = _failing_slices(valuation.matroid, slices)
    if failing:
        # one character per slice: '1' where it fails
        fails = bin(failing)[:1:-1].ljust(len(slices), "0")
        for alpha, number in zip(directions, numbers):
            if fails[number] == "1":
                report.violations.append(
                    f"slice at alpha={alpha} is not a matroid (exchange fails)")
    return report
