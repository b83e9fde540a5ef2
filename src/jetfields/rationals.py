"""Exact rational coefficients.

All arithmetic in this package is exact over the rationals.  ``Q`` is the
coefficient constructor, the stdlib Fraction, and it is the only rational
type the package uses.  The kernel computes on integer numerators, so
rationals appear only at the API boundary.  ``BACKEND`` names the type for
run records.

Floats are rejected everywhere.  A float argument is almost always an
accident that would silently smuggle binary rounding noise into an exact
computation, so coercion fails fast instead.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Union

Q = Fraction
BACKEND = "fractions"

RationalLike = Union[int, str, Rational]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to a Fraction.

    Accepts ints, rationals, and strings like ``"-3/2"``.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, rational, or 'p/q' string")
    if isinstance(value, str):
        return Q(value.strip())
    if isinstance(value, (int, Rational)):
        return Q(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")
