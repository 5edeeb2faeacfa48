"""Matroid families sliced out of a valuation by integer direction vectors.

For a direction alpha, the slice keeps the bases maximizing
e_B . alpha - value(B); the maximum itself is g(alpha).  These slices
are the matroids of a Frobenius flock (Bollen-Draisma-Pendavingh,
Algebraic matroids and Frobenius flocks, Adv. Math. 2018).  On the
bases of a matroid, a valuation is a valuated matroid exactly when its
3-term tropical Plucker relations hold, and exactly when every slice is
a matroid (Dress-Wenzel, Valuated matroids, Adv. Math. 1992; Speyer,
Tropical linear spaces, 2008, section 2).  So the relations certify
every slice of every box at once, and a box is swept, one per-basis
scan per direction, only for a valuation that fails them, to name the
directions whose slices fail exchange.  Valuation.plucker() evaluates
the relations once, for this certificate and verify's suite alike.
The flock identities,
slice(alpha)/i = slice(alpha + e_i)\\i and slice(alpha) =
slice(alpha + 1), hold for the argmax families of any weighting of the
bases, so on slices read off the valuation they can never fail, and
they are not checked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product

from algval.algmat import Matroid, exchange_failure
from algval.valmat import AxiomReport, Valuation


def _slice(valuation: Valuation, alpha):
    """(key, g(alpha)) by a per-basis scan: the key has bit k set for
    each basis matroid.bases[k] at the top."""
    if len(alpha) != valuation.n:
        raise ValueError(f"alpha must have length {valuation.n}")
    scores = [sum(map(alpha.__getitem__, basis)) - value
              for basis, value in valuation.items()]
    top = max(scores)
    return sum(1 << k for k, score in enumerate(scores) if score == top), top


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
    direction or more directions than a list can index.  No list is
    indexed any more; the bound stays as the CLI's input limit.  n is
    all it needs, so a caller can refuse a box before computing a
    valuation."""
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
    check_box_radius refuses, raised before anything is computed.  A
    valuation whose 3-term Plucker relations hold has only matroid
    slices, so every direction is counted and none is scored.
    Otherwise each direction is scanned in order, the box in forward
    mixed-radix order, and exchange is decided once per distinct slice.
    """
    n = valuation.n
    if radius is not None and alphas is not None:
        raise ValueError("give a box radius or a list of directions, not both")
    if radius is not None:
        check_box_radius(n, radius)
    if alphas is None:
        if radius is None:
            radius = default_box_radius(valuation)
        count = (2 * radius + 1) ** n
        directions = product(range(-radius, radius + 1), repeat=n)
    else:
        directions = [tuple(alpha) for alpha in alphas]
        for alpha in directions:
            if len(alpha) != n:
                raise ValueError(f"direction {alpha} must have length {n}")
        count = len(directions)
    report = FlockReport(checked=count, directions=count)
    if valuation.plucker().ok:
        return report
    masks = valuation.matroid.masks
    fails = {}
    for alpha in directions:
        key = _slice(valuation, alpha)[0]
        if key not in fails:
            family = [m for k, m in enumerate(masks) if key >> k & 1]
            fails[key] = exchange_failure(n, family) is not None
        if fails[key]:
            report.violations.append(
                f"slice at alpha={alpha} is not a matroid (exchange fails)")
    return report
