"""Continuous formal maps and their Jacobian calculus.

A FormalMap sigma stores the images sigma(x1)..sigma(xn) as jets of one
common order N.  Every image must vanish at the origin: only then is
substitution along sigma well defined on truncated series.  The map is an
automorphism exactly when its linear part (an n x n rational matrix) is
invertible.

Conventions used throughout, chosen once and shared by every identity in
the verification suite:

* ``apply(sigma, f)`` is f evaluated at the images, so jets pull back
  contravariantly along the map of coordinates.
* ``compose(sigma, tau)`` is defined by
  ``apply(compose(sigma, tau), f) == apply(sigma, apply(tau, f))``,
  which makes its images ``apply(sigma, tau_image)``.
* The Jacobian matrix has entries ``J[i][j] = d(sigma(x_j)) / d(x_i)``:
  row index differentiates, column index picks the image.  Its entries are
  jets of order N - 1, one derivative below the map itself.

Precision: compose keeps min of the two orders; invert keeps the order;
jacobian / jacobian_det drop one order; matrix_inverse keeps the matrix
order; exp_flow returns the field's order (its correction terms have
strictly increasing adic order, so plain truncated arithmetic at the
target order is exact there).
"""

from __future__ import annotations

import random
from math import lcm
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    NotNilpotent,
    PrecisionExhausted,
    SingularMatrix,
)
from .jets import (_EMPTY, Jet, JetMatrix, JetTuple, Monomial, _apply_partials, _check_ring,
                   _jet, _join_layers, _Layers, _lift, _linear_lift, _matrix, _pack, _reduce,
                   _relaxed_terms, _scaled_layers, _tuple, _width)
from .rationals import Q

if TYPE_CHECKING:  # pragma: no cover
    from .fields import Derivation


class FormalMap(JetTuple):
    """A continuous endomorphism of the truncated series ring."""

    __slots__ = ("images",)

    _label, _kind, _continuous = "image of x{}", "maps", True

    def __new__(cls, n: int, order: int, images: tuple[Jet, ...]) -> "FormalMap":
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"maps need truncation order >= 1, got {order!r}")
        return _tuple(cls, n, order, cls._checked(n, order, images))

    # algebra

    def apply(self, f: Jet) -> Jet:
        """Pull back the jet f along this map: f evaluated at the images."""
        return self._apply(f, {})

    def _apply(self, f: Jet, table: dict) -> Jet:
        # ``table`` may be shared by pullbacks along this map; see Jet.substitute.
        if f.n != self.n:
            raise DimensionMismatch(
                f"jet in {f.n} variables cannot be pulled back along a map on {self.n}"
            )
        return f.substitute(self.images, _table=table)

    def apply_matrix(self, m: JetMatrix) -> JetMatrix:
        table: dict = {}
        return _matrix(tuple(tuple(self._apply(e, table) for e in row) for row in m.rows))

    def compose(self, other: "FormalMap") -> "FormalMap":
        """The map with apply(result, f) == apply(self, apply(other, f))."""
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot compose maps on {self.n} and {other.n} variables"
            )
        k = min(self.order, other.order)
        table: dict = {}
        images = tuple(self._apply(img, table).truncate(k) for img in other.images)
        return _tuple(FormalMap, self.n, k, images)

    def _degree_one(self) -> tuple[list[int], list[list[int]]]:
        """The packed keys of x1..xn, and D A for D the diagonal of the image
        denominators: row i holds image i's degree-1 numerators."""
        n, w = self.n, _width(self.order)
        xs = [1 << (w * n) | 1 << (w * (n - 1 - j)) for j in range(n)]
        return xs, [[img._num.get(k, 0) for k in xs] for img in self.images]

    @property
    def is_automorphism(self) -> bool:
        return bool(linalg.det(self._degree_one()[1]))

    def jacobian_matrix(self) -> JetMatrix:
        """Entries J[i][j] = d(image_j)/d(x_i), exact to order - 1."""
        return _matrix(tuple(tuple(img.partial_derivative(i + 1) for img in self.images)
                             for i in range(self.n)))

    def jacobian_det(self) -> Jet:
        return self.jacobian_matrix().det()

    def is_constant_jacobian(self) -> bool:
        """Whether the Jacobian determinant is a (nonzero) constant.

        Needs order >= 2: the determinant is only known to order - 1, and
        a verdict requires seeing at least the degree-1 terms.
        """
        if self.order < 2:
            raise PrecisionExhausted(
                "constant-Jacobian verdict needs a map of order >= 2"
            )
        jd = self.jacobian_det()
        if any(sum(e) > 0 for e in jd.terms):
            return False
        return bool(jd.constant_term)

    def invert(self) -> "FormalMap":
        """The two-sided compositional inverse.

        Splits the images into linear part plus higher terms, sigma = A x + h,
        and solves w = A^-1 (x - h(w)) one degree layer at a time (Brent and
        Kung's reversion by lifting), from layer 1, A^-1 x.  h has adic order
        >= 2, so the degree-k layer of h(w) reads w only below k, as
        ``jets._lift`` requires of a result that is also a head.

        h(w) is evaluated relaxed (van der Hoeven, "Relax, but don't be too
        lazy", J. Symb. Comput. 34(6), 2002) on the plan of ``substitute``:
        Horner folds over the leading variables while more than ``_TAIL``
        remain, and products of the last ``_TAIL`` images, shared by the n
        images, each a series that ``jets._lift`` grows one layer a round, so
        all rounds together do at most one substitution's multiply-adds.

        Evaluating through the products table alone, with no Horner folds,
        was measured and dropped.  Against lifting by a full substitution
        per round it ran 1.6-1.8x faster on small maps and 15-17x at n = 1,
        order 100-200, but 0.45-0.73x as fast at n = 3-4, order 6-8, where
        the table holds many products.
        """
        n, cap = self.n, self.order
        w = _width(cap)
        xs, rows = self._degree_one()
        try:
            inv, d = linalg.inverse(rows)  # (D A)^-1 = X / d
        except SingularMatrix:
            raise SingularMatrix(
                "map has a singular linear part, so no formal inverse exists"
            ) from None
        # ws[r] is image r of the inverse; its layer 1 is row r of
        # A^-1 x = X D x / d.
        ws = []
        dens = [img._den for img in self.images]
        for row in inv:
            num, den = _reduce({k: c * e for k, c, e in zip(xs, row, dens) if c}, d)
            ws.append(_Layers([_EMPTY, (list(num.items()), den)]))
        one = _Layers([([(0, 1)], 1)])
        table = {0: one, **dict(zip(xs, ws))}
        nodes = [one]
        # h = sigma - A x, split off once: the images with their degree-1
        # terms dropped, image i as numerators H_i over its denominator.
        # Layer k >= 2 of ws[r] is -sum_i A^-1[r][i] h_i(w)_k, and
        # A^-1[r][i] h_i = X[r][i] H_i / d: the image's denominator cancels.
        for i, img in enumerate(self.images):
            h = {k: c for k, c in img._num.items() if k >> (w * n) != 1}
            parts = _relaxed_terms(h, ws, 0, w, table, nodes)
            for row, s in zip(inv, ws):
                if row[i]:
                    s.terms += [(([(0, -row[i] * c)], d), t) for c, t in parts]
        _lift(nodes, ws, cap)
        return _tuple(FormalMap, n, cap, tuple(_join_layers(n, cap, s.layers) for s in ws))

    # text form

    def __str__(self) -> str:
        return "; ".join(f"x{i + 1} -> {img}" for i, img in enumerate(self.images))


# -- constructors ---------------------------------------------------------------


def identity_map(n: int, order: int) -> FormalMap:
    images = tuple(Jet.variable(n, order, i + 1) for i in range(n))
    # Jet.variable has checked the ring and the floor, unless n < 1 built no image.
    return _tuple(FormalMap, n, order, images) if images else FormalMap(n, order, images)


# -- matrix inversion over jets ---------------------------------------------------


def matrix_inverse(m: JetMatrix) -> JetMatrix:
    """Inverse of a jet matrix whose constant term is invertible.

    With C the constant matrix, M X = I reads X = C^-1 + V X, where
    V = I - C^-1 M has no constant term.  So layer k of X[i][j] is the sum
    of V[i][l]_b X[l][j]_{k-b} over l and b >= 1: it reads only layers of X
    below k, and X is built from C^-1 one layer a round
    (``jets._linear_lift``), each pair of terms of V and X multiplied once.

    Newton doubling, X <- X + X(I - MX), does more work here.  Products are
    schoolbook, so its asymptotic advantage does not apply, and the
    matrices inverted are Jacobians of sparse maps whose inverses are
    dense.  For the Jacobians of ``random_automorphism(4, 8, seed)``,
    seeds 0-2, M holds 654-730 terms and M^-1 holds 3948-4839.  Newton's
    last round multiplies the dense X by the dense residual, 57k-116k
    multiply-adds, and computes MX for another 16k-25k; lifting multiplies
    only the sparse V against X, each pair of terms once, 23k-33k in all.
    For a dense M the two counts meet.
    """
    n, order = m.n, m.order
    w = _width(order)
    # Row i of C times the lcm s_i of its denominators is integer, and
    # (S C)^-1 = X / d, so C^-1[r][i] = X[r][i] s_i / d.
    scales = [lcm(*[e._den for e in row]) for row in m.rows]
    inv, d = linalg.inverse([[e._num.get(0, 0) * (s // e._den) for e in row]
                             for row, s in zip(m.rows, scales)])
    c = [[_reduce({0: v * s} if v else {}, d) for v, s in zip(row, scales)] for row in inv]
    cinv = _matrix(tuple(tuple(_jet(n, order, num, den, w) for num, den in row) for row in c))
    # V, split off C^-1 M by degree and negated.
    v = [[_scaled_layers(e, -1, e._den) for e in row] for row in (cinv @ m).rows]
    x = _linear_lift([[(list(num.items()), den) for num, den in row] for row in c], v, order)
    return _matrix(tuple(tuple(_join_layers(n, order, s) for s in row) for row in x))


# -- flows -------------------------------------------------------------------------


def _flow_images(n: int, order: int, coeffs: Sequence[Jet]) -> list[Jet]:
    # Truncated arithmetic at the full target order: each Lie step is taken
    # at ``order``, one above the precision of its partials.  Each step
    # multiplies by a coefficient of adic order >= 2 and differentiates
    # once, so the running term gains at least one adic order per round and
    # dropped terms all lie beyond the truncation order.
    images = []
    for i in range(n):
        term = acc = Jet.variable(n, order, i + 1)
        k = 0
        while not term.is_zero:
            k += 1
            term = _apply_partials(coeffs, term, order) * Q(1, k)
            acc = acc + term
        images.append(acc)
    return images


def exp_flow(field: "Derivation") -> FormalMap:
    """The time-1 flow of a field whose coefficients have adic order >= 2.

    Images are x_i + field(x_i) + field(field(x_i))/2! + ...; the adic
    order of the k-th term grows with k, so the sum terminates at the
    truncation order and the result is exact there.
    """
    for k, c in enumerate(field.coefficients, start=1):
        if c.m_adic_order() < 2:
            raise NotNilpotent(
                f"flow coefficient {k} has adic order {c.m_adic_order()}; "
                "exponentiation needs adic order >= 2"
            )
    images = _flow_images(field.n, field.order, field.coefficients)
    return _tuple(FormalMap, field.n, field.order, tuple(images))


# -- seeded random generation -------------------------------------------------------

# The fixed draws of the samplers.  A coefficient is p/q with p uniform in
# -_NUMER_BOUND.._NUMER_BOUND and q drawn from _DENOMINATORS, so q = 1 twice
# as often as q = 2.  The map and field samplers keep each draw as its
# numerator over _DEN, the lcm of _DENOMINATORS, and build their jets on the
# integer form.  A sampled map composes _SHEARS shears after its linear
# part; an automorphism adds _TAIL_TERMS tail terms to each image.
_NUMER_BOUND = 2
_DENOMINATORS = (1, 1, 2)
_DEN = lcm(*_DENOMINATORS)
_SHEARS = 2
_TAIL_TERMS = 2


def _as_rng(seed: "int | random.Random") -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _rand_numerator(rng: random.Random, nonzero: bool = False) -> int:
    """A random coefficient p/q, as its numerator over _DEN."""
    while True:
        num = rng.randint(-_NUMER_BOUND, _NUMER_BOUND)
        if num == 0 and nonzero:
            continue
        return num * (_DEN // rng.choice(_DENOMINATORS))


def _rand_rational(rng: random.Random, nonzero: bool = False) -> "Q":
    return Q(_rand_numerator(rng, nonzero), _DEN)


def _rand_monomial(
    rng: random.Random, n: int, lo: int, hi: int, avoid: int | None = None
) -> Monomial:
    """A random exponent tuple of total degree in [lo, hi], for lo <= hi.

    ``avoid`` is a 0-based variable index that must not appear; some other
    variable must remain.
    """
    allowed = [j for j in range(n) if j != avoid]
    degree = rng.randint(lo, hi)
    exps = [0] * n
    for _ in range(degree):
        exps[rng.choice(allowed)] += 1
    return tuple(exps)


def _rand_invertible(rng: random.Random, n: int) -> list[list[int]]:
    """A random invertible linear part, as numerators over _DEN."""
    while True:
        m = [[_rand_numerator(rng) for _ in range(n)] for _ in range(n)]
        if linalg.det(m):
            return m


def _sampled_jet(n: int, order: int, num: dict) -> Jet:
    """The jet whose numerators over _DEN are ``num``, keyed in the layout of ``order``."""
    return _jet(n, order, *_reduce({k: c for k, c in num.items() if c}, _DEN), _width(order))


def _rand_jet(rng: random.Random, n: int, order: int, lo: int, count: int,
              avoid: int | None = None, nonzero: bool = True) -> Jet:
    """The sum of ``count`` random terms p/q * monomial of degree lo..order.

    ``avoid`` is a 0-based variable index that no term involves; ``nonzero``
    keeps p from being 0.
    """
    w = _width(order)
    num: dict[int, int] = {}
    for _ in range(count):
        key = _pack(_rand_monomial(rng, n, lo, order, avoid), w)
        num[key] = num.get(key, 0) + _rand_numerator(rng, nonzero)
    return _sampled_jet(n, order, num)


def _check_map_ring(n: int, order: int) -> None:
    _check_ring(n, order)
    if order < 1:
        raise ValueError(f"maps need truncation order >= 1, got {order!r}")


def _divergence_free_coeffs(rng: random.Random, n: int, order: int) -> list[Jet]:
    """Coefficients of a random divergence-free field, adic order >= 2.

    Two exact constructions, mixed at random: a monomial field m * d_i with
    m independent of x_i, and a Hamiltonian pair (df/dx_j) d_i - (df/dx_i) d_j
    with f of adic order >= 3.  Sums of these stay divergence free.
    """
    coeffs = [Jet.zero(n, order) for _ in range(n)]
    if n < 2 or order < 2:
        return coeffs
    for _ in range(rng.randint(1, 2)):
        if order >= 3 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            f = _rand_jet(rng, n, order + 1, 3, 1)
            coeffs[i] = coeffs[i] + f.partial_derivative(j + 1)
            coeffs[j] = coeffs[j] - f.partial_derivative(i + 1)
        else:
            i = rng.randrange(n)
            coeffs[i] = coeffs[i] + _rand_jet(rng, n, order, 2, 1, avoid=i)
    return coeffs


def _sheared_linear_images(rng: random.Random, n: int, order: int) -> list[Jet]:
    """The images of a random invertible linear map composed with _SHEARS shears.

    Shear k acts on x_i, i = k mod n + 1, with a displacement d that sums
    one or two terms of degree 2..order free of x_i, each p/q times a
    monomial with p in -2..2 nonzero and q in {1, 2}.  Composing with it changes only the image
    of x_i, which becomes image_i + d(images), so each shear is one
    substitution.  Shears need n >= 2 and order >= 2.
    """
    w = _width(order)
    units = [_pack(tuple(int(k == j) for k in range(n)), w) for j in range(n)]
    images = [_sampled_jet(n, order, dict(zip(units, row))) for row in _rand_invertible(rng, n)]
    if n >= 2 and order >= 2:
        for k in range(_SHEARS):
            i = k % n
            d = _rand_jet(rng, n, order, 2, rng.randint(1, 2), avoid=i)
            images[i] = images[i] + d.substitute(images)
    return images


def random_const_jacobian(n: int, order: int, seed: "int | random.Random") -> FormalMap:
    """A seeded random map with constant Jacobian determinant.

    An invertible linear map, with entries p/q for p in -2..2 and q in
    {1, 2}, composed with two shears and then with the time-1 flow of a
    divergence-free field (``random_divergence_free``).  Each flow image
    is substituted along the sheared images.  Shears and the flow need
    n >= 2 and order >= 2: in one variable the constant-Jacobian maps are
    exactly the linear ones, and the result is x -> c x.
    """
    _check_map_ring(n, order)
    rng = _as_rng(seed)
    images = _sheared_linear_images(rng, n, order)
    if n >= 2 and order >= 2:
        table: dict = {}
        flow = _flow_images(n, order, _divergence_free_coeffs(rng, n, order))
        images = [f.substitute(images, _table=table) for f in flow]
    return _tuple(FormalMap, n, order, tuple(images))


def random_automorphism(n: int, order: int, seed: "int | random.Random") -> FormalMap:
    """A seeded random automorphism with generic higher-order terms.

    An invertible linear map composed with two shears, as in
    ``random_const_jacobian`` but with no flow, plus two random tail terms
    of degree 2..order, with p in -2..2 (possibly zero) and q in {1, 2},
    added to each image; the tails keep the invertible linear part.
    """
    _check_map_ring(n, order)
    rng = _as_rng(seed)
    images = _sheared_linear_images(rng, n, order)
    if order >= 2:
        for i in range(n):
            images[i] = images[i] + _rand_jet(rng, n, order, 2, _TAIL_TERMS, nonzero=False)
    return _tuple(FormalMap, n, order, tuple(images))
