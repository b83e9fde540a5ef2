"""Exact rational coefficients.

All arithmetic in this package is exact over the rationals.  ``Q`` is the
coefficient constructor: gmpy2's mpq when available, otherwise the stdlib
Fraction.  The kernel computes on integer numerators, so rationals appear
only at the API boundary, and whether gmpy2 is faster there has not been
measured.  Both expose the same numerator/denominator protocol and print
reduced ``p/q`` strings, so the rest of the package never needs to know
which one is active.

Floats are rejected everywhere.  A float argument is almost always an
accident that would silently smuggle binary rounding noise into an exact
computation, so coercion fails fast instead.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Union

try:
    from gmpy2 import mpq as Q

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction
    BACKEND = "fractions"

RationalLike = Union[int, str, Rational]
_QTYPE = type(Q(0))


def as_rational(value: RationalLike) -> "Q":
    """Coerce ``value`` to the active coefficient type.

    Accepts ints, rationals of either backend, and strings like ``"-3/2"``.
    """
    if type(value) is _QTYPE:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, rational, or 'p/q' string")
    if isinstance(value, str):
        return Q(value.strip())
    if isinstance(value, (int, Rational)):
        return Q(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")
