"""Valuated matroids of algebraic extensions of a prime field in
characteristic p, computed either from a prime ideal (elimination route)
or from an integer exponent matrix (determinant route).

The package namespace holds the public API: the two inputs, both
routes, the valuation and its operations, the axiom checks and the
errors the routes raise.  Everything else stays importable from its
module."""

from algval.ffpoly import INF, CircuitVector
from algval.groebner import Ideal, NotPrincipalError, buchberger, normal_form
from algval.algmat import EliminationOracle, Matroid, bases, circuits
from algval.valmat import (
    InconsistentValuationError,
    Valuation,
    check_circuit_axioms,
    check_exchange_consistency,
    check_orthogonality,
    cocircuits,
    dual,
    minor,
    valuated_circuits,
    valuation_from_circuits,
)
from algval.flock import check_flock_axioms, flock_slice
from algval.toric import IntMatrix, linear_valuated_matroid, toric_ideal

__all__ = [
    "INF",
    "CircuitVector",
    "Ideal",
    "NotPrincipalError",
    "buchberger",
    "normal_form",
    "EliminationOracle",
    "Matroid",
    "bases",
    "circuits",
    "InconsistentValuationError",
    "Valuation",
    "check_circuit_axioms",
    "check_exchange_consistency",
    "check_orthogonality",
    "cocircuits",
    "dual",
    "minor",
    "valuated_circuits",
    "valuation_from_circuits",
    "check_flock_axioms",
    "flock_slice",
    "IntMatrix",
    "linear_valuated_matroid",
    "toric_ideal",
]
