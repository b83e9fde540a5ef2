"""Formal vector fields (derivations) and the divergence calculus.

A Derivation is sum_i a_i d/dx_i with jet coefficients a_i sharing one
ring and one truncation order.  Applying it to a jet differentiates, so
the result loses one order; brackets and divergences inherit that loss.

``pushforward(sigma, field)`` transports a field along an automorphism:
the partials transform through the inverse Jacobian, d_i -> sum_j
(J^-1)[i][j] d_j, and the coefficients are pulled back through sigma.
The transported field is exact to min(field.order, sigma.order - 1).

The divergence classes: a field is *divergence free* when div = 0 and has
*constant divergence* when div is a constant; the latter split canonically
as a divergence-free part plus c * x1 d1, since div(x1 d1) = 1.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import (
    DimensionMismatch,
    NonConstantDivergence,
    OrderMismatch,
    PrecisionExhausted,
)
from .jets import (Jet, JetMatrix, JetTuple, _add_terms, _apply_partials, _check_ring, _dot,
                   _jet, _Record, _reduce, _tuple, _width)
from .maps import (
    FormalMap,
    _as_rng,
    _divergence_free_coeffs,
    _rand_jet,
    matrix_inverse,
)
from .rationals import Q, as_rational


class Derivation(JetTuple):
    """A formal vector field sum_i coefficients[i] * d/dx_i."""

    __slots__ = ("coefficients",)

    _label, _kind = "coefficient {}", "fields"

    def __new__(cls, n: int, order: int, coefficients: tuple[Jet, ...]) -> "Derivation":
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"field order must be a non-negative int, got {order!r}")
        return _tuple(cls, n, order, cls._checked(n, order, coefficients))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)

    # the derivation action

    def apply(self, f: Jet) -> Jet:
        """sum_i a_i * df/dx_i, exact to min(self.order, f.order - 1).

        One product pass on the integer form: each partial is built straight
        from f's numerators and paired with its coefficient, and the sum is
        reduced once, with no partial-derivative jets in between.
        """
        if f.n != self.n:
            raise DimensionMismatch(
                f"cannot apply a field on {self.n} variables to a jet on {f.n}"
            )
        if f.order < 1:
            raise PrecisionExhausted("cannot differentiate a jet of order 0")
        return _apply_partials(self.coefficients, f, min(self.order, f.order - 1))

    def bracket(self, other: "Derivation") -> "Derivation":
        """The commutator [self, other], exact to min(orders) - 1.

        Coefficient j is self(b_j) - other(a_j).  Each half is one call of
        ``apply`` rather than part of one shared pass, so that a tracer that
        wraps ``Derivation.apply`` sees every application a bracket makes:
        the traced self-check of ``perfbench`` needs ``apply`` to fire on
        every workload, and the calculator reaches it only from here.  The
        halves are clipped to the result order and subtracted on the
        integer form, with one reduction and no negated or summed jets.
        """
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot bracket fields on {self.n} and {other.n} variables"
            )
        if min(self.order, other.order) < 1:
            raise PrecisionExhausted("bracket needs both fields at order >= 1")
        n, k = self.n, min(self.order, other.order) - 1
        w = _width(k)
        coeffs = []
        for a, b in zip(self.coefficients, other.coefficients):
            x = self.apply(b)._clipped(k)
            num, den = other.apply(a)._clipped(k)
            diff = _add_terms(x, ({e: -c for e, c in num.items()}, den))
            coeffs.append(_jet(n, k, *_reduce(*diff), w))
        return _tuple(Derivation, n, k, tuple(coeffs))

    def divergence(self) -> Jet:
        """sum_i d(a_i)/dx_i, exact to order - 1."""
        if self.order < 1:
            raise PrecisionExhausted("divergence needs coefficients of order >= 1")
        total = Jet.zero(self.n, self.order - 1)
        for i, a in enumerate(self.coefficients, start=1):
            total = total + a.partial_derivative(i)
        return total

    # linear structure

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("cannot add fields on different variable counts")
        coeffs = tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        return _tuple(Derivation, self.n, min(self.order, other.order), coeffs)

    def __mul__(self, scalar) -> "Derivation":
        try:
            c = as_rational(scalar)
        except TypeError:
            return NotImplemented
        return _tuple(Derivation, self.n, self.order, tuple(a * c for a in self.coefficients))

    __rmul__ = __mul__

    # text form

    def __str__(self) -> str:
        parts = [
            f"({c})*d{i + 1}"
            for i, c in enumerate(self.coefficients)
            if not c.is_zero
        ]
        return " + ".join(parts) if parts else "0"


# -- standard fields -----------------------------------------------------------------


def partial_field(n: int, order: int, i: int) -> Derivation:
    """The coordinate field d/dx_i (1-based)."""
    if not 1 <= i <= n:
        raise IndexError(f"variable index {i} out of range 1..{n}")
    coeffs = tuple(
        Jet.constant(n, order, 1 if k == i - 1 else 0) for k in range(n)
    )
    return _tuple(Derivation, n, order, coeffs)


def euler_field(n: int, order: int, i: int) -> Derivation:
    """The field x_i d/dx_i, whose divergence is exactly 1."""
    if not 1 <= i <= n:
        raise IndexError(f"variable index {i} out of range 1..{n}")
    coeffs = tuple(
        Jet.variable(n, order, i) if k == i - 1 else Jet.zero(n, order)
        for k in range(n)
    )
    return _tuple(Derivation, n, order, coeffs)


# -- transport along maps -------------------------------------------------------------


def pushforward(
    sigma: FormalMap, field: Derivation,
    jacobian_inverse: Optional[JetMatrix] = None,
) -> Derivation:
    """Transport ``field`` along the automorphism ``sigma``.

    New coefficient j is sum_i sigma(a_i) * (J^-1)[i][j].  Pass a
    precomputed ``matrix_inverse(sigma.jacobian_matrix())`` when
    transporting several fields along one map.  Exact to
    min(field.order, sigma.order - 1).
    """
    if sigma.n != field.n:
        raise DimensionMismatch(
            f"cannot push a field on {field.n} variables along a map on {sigma.n}"
        )
    if sigma.order < 2:
        raise PrecisionExhausted(
            "pushforward needs a map of order >= 2 to say anything about the result"
        )
    jinv = jacobian_inverse
    if jinv is None:
        jinv = matrix_inverse(sigma.jacobian_matrix())
    k = min(field.order, sigma.order - 1)
    if jinv.n != sigma.n:
        raise DimensionMismatch(
            f"Jacobian inverse is {jinv.n}x{jinv.n}, expected {sigma.n}x{sigma.n}"
        )
    if jinv.order < k:
        raise OrderMismatch(
            f"Jacobian inverse of order {jinv.order} is below the result order {k}"
        )
    # The images vanish at 0, so sigma(a) to order k needs only a to order k.
    table: dict = {}
    moved = [sigma._apply(a.truncate(k), table) for a in field.coefficients]
    coeffs = tuple(
        _dot(sigma.n, k, [(m, row[j]) for m, row in zip(moved, jinv.rows) if not m.is_zero])
        for j in range(sigma.n)
    )
    return _tuple(Derivation, sigma.n, k, coeffs)


def coordinate_frame(sigma: FormalMap) -> tuple[Derivation, ...]:
    """The transported coordinate fields (pushforward of each d/dx_i).

    Computed with a single Jacobian inversion; row i of J^-1 is the
    coefficient vector of the i-th transported field.
    """
    jinv = matrix_inverse(sigma.jacobian_matrix())
    return tuple(_tuple(Derivation, sigma.n, sigma.order - 1, row) for row in jinv.rows)


# -- divergence classification ---------------------------------------------------------


class DivergenceClass(_Record):
    """Verdict of ``classify_divergence`` at a stated order.

    ``kind`` is "zero", "constant", or "nonconstant"; ``value`` is the
    constant (0 for kind "zero", None for "nonconstant").
    """

    __slots__ = ("kind", "value", "verdict_order")

    def __init__(self, kind: str, value: Optional["Q"], verdict_order: int) -> None:
        self._fill(kind, value, verdict_order)

    @property
    def is_constant(self) -> bool:
        return self.kind in ("zero", "constant")


def classify_divergence(field: Derivation) -> DivergenceClass:
    div = field.divergence()
    k = div.order
    if div.is_zero:
        return DivergenceClass("zero", Q(0), k)
    if all(sum(e) == 0 for e in div.terms):
        return DivergenceClass("constant", div.constant_term, k)
    return DivergenceClass("nonconstant", None, k)


def decompose_const_div(field: Derivation) -> tuple[Derivation, "Q"]:
    """Split a constant-divergence field as (divergence-free part, constant).

    Returns (field - c * x1 d1, c) with c the constant divergence; the
    reconstruction is exact, and the remainder is divergence free to
    order - 1.
    """
    verdict = classify_divergence(field)
    if not verdict.is_constant:
        raise NonConstantDivergence(
            f"divergence {field.divergence()} is not constant at order {verdict.verdict_order}"
        )
    c = verdict.value
    remainder = field + euler_field(field.n, field.order, 1) * -c
    return remainder, c


def centralizes_partials(field: Derivation) -> bool:
    """Whether [d/dx_i, field] vanishes for every i (at order - 1).

    True exactly when every coefficient is constant through the verdict
    order.  Needs order >= 2 so the verdict sees degree-1 terms.
    """
    if field.order < 2:
        raise PrecisionExhausted("centralizer verdict needs a field of order >= 2")
    for i in range(1, field.n + 1):
        if not partial_field(field.n, field.order, i).bracket(field).is_zero:
            return False
    return True


# -- seeded random generation -----------------------------------------------------------


def random_field(n: int, order: int, seed: "int | random.Random") -> Derivation:
    """A seeded random field with sparse small-rational coefficients.

    Each coefficient sums one or two terms of degree 0..order, each term
    p/q times a monomial, with p in -2..2 nonzero and q in {1, 2}.
    """
    _check_ring(n, order)
    rng = _as_rng(seed)
    coeffs = [_rand_jet(rng, n, order, 0, rng.randint(1, 2)) for _ in range(n)]
    return _tuple(Derivation, n, order, tuple(coeffs))


def random_divergence_free(n: int, order: int, seed: "int | random.Random") -> Derivation:
    """A seeded random divergence-free field with coefficients of adic order >= 2.

    Built from closed forms whose divergence cancels exactly.  In one
    variable the only such field is zero, which is what comes back there.
    """
    _check_ring(n, order)
    rng = _as_rng(seed)
    coeffs = _divergence_free_coeffs(rng, n, order)
    return _tuple(Derivation, n, order, tuple(coeffs))
