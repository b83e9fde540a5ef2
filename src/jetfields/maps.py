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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    NotContinuous,
    NotNilpotent,
    OrderMismatch,
    PrecisionExhausted,
    SingularMatrix,
)
from .jets import (Jet, JetMatrix, Monomial, _apply_partials, _dot_terms, _jet, _join_layers,
                   _lift, _limit, _lincomb, _linear_row, _negated_layers, _reduce, _width)
from .rationals import Q, RationalLike, as_rational

if TYPE_CHECKING:  # pragma: no cover
    from .fields import Derivation

LinearPart = list[list["Q"]]


@dataclass(frozen=True, eq=False, repr=False)
class FormalMap:
    """A continuous endomorphism of the truncated series ring."""

    n: int
    order: int
    images: tuple[Jet, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"maps need truncation order >= 1, got {self.order!r}")
        if len(images) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} images, got {len(images)}"
            )
        for k, img in enumerate(images, start=1):
            if not isinstance(img, Jet):
                raise TypeError(f"image of x{k} must be a Jet, got {img!r}")
            if img.n != self.n:
                raise DimensionMismatch(
                    f"image of x{k} lives in {img.n} variables, expected {self.n}"
                )
            if img.order != self.order:
                raise OrderMismatch(
                    f"image of x{k} has order {img.order}, expected {self.order}"
                )
            if img.constant_term:
                raise NotContinuous(
                    f"image of x{k} has nonzero constant term {img.constant_term}"
                )
        object.__setattr__(self, "images", images)

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
        return m.map_entries(lambda e: self._apply(e, table))

    def compose(self, other: "FormalMap") -> "FormalMap":
        """The map with apply(result, f) == apply(self, apply(other, f))."""
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot compose maps on {self.n} and {other.n} variables"
            )
        k = min(self.order, other.order)
        table: dict = {}
        images = tuple(self._apply(img, table).truncate(k) for img in other.images)
        return FormalMap(self.n, k, images)

    def linear_part(self) -> LinearPart:
        """The matrix A with image_i = sum_j A[i][j] x_j + higher order."""
        return [_linear_row(img) for img in self.images]

    @property
    def is_automorphism(self) -> bool:
        return bool(linalg.det(self.linear_part()))

    def jacobian_matrix(self) -> JetMatrix:
        """Entries J[i][j] = d(image_j)/d(x_i), exact to order - 1."""
        cols = [
            [img.partial_derivative(i + 1) for img in self.images]
            for i in range(self.n)
        ]
        return JetMatrix(tuple(tuple(col) for col in cols))

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
        and solves w = A^-1 (x - h(w)) degree by degree (Brent and Kung's
        reversion by lifting).  The start A^-1 x is exact to order 1.  If w
        is exact to order k - 1, then h(w) is exact to order k, because h
        has adic order >= 2; so round k substitutes at order k and yields w
        exact to order k.  Rounds run at orders 2..order, one each.
        """
        a = self.linear_part()
        try:
            ainv = linalg.inverse(a)
        except SingularMatrix:
            raise SingularMatrix(
                "map has a singular linear part, so no formal inverse exists"
            ) from None
        n, cap = self.n, self.order
        # The rows of A^-1, each as integers over the lcm of its denominators.
        rows = list(zip(*linalg._integer_rows(ainv)))

        def solve(rhs: list[Jet], k: int) -> list[Jet]:
            # A^-1 applied to a column of jets of order k, one pass per row.
            w = _width(k)
            limit = _limit(k, n, w)
            forms = [(g._num, g._den) for g in rhs]
            out = []
            for coeffs, d in rows:
                num, den = _lincomb(list(zip(coeffs, forms)), limit)
                out.append(_jet(n, k, *_reduce(num, den * d), w))
            return out

        xs = [Jet.variable(n, cap, i + 1) for i in range(n)]
        # h = sigma - A x: the images with their degree-1 terms dropped.
        shift = _width(cap) * n
        higher = [
            _jet(n, cap, *_reduce({k: c for k, c in img._num.items() if k >> shift != 1},
                                  img._den), img._w)
            for img in self.images
        ]
        w = solve([x.truncate(1) for x in xs], 1)
        for k in range(2, cap + 1):
            back = [_lift(g, k) for g in w]
            table: dict = {}
            w = solve(
                [
                    x.truncate(k) - h.truncate(k).substitute(back, _table=table)
                    for x, h in zip(xs, higher)
                ],
                k,
            )
        return FormalMap(n, cap, tuple(w))

    # comparison and serialization

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalMap):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(
                f"maps on {self.n} and {other.n} variables are incomparable"
            )
        if self.order != other.order:
            raise OrderMismatch(
                f"cannot compare maps of orders {self.order} and {other.order}"
            )
        return self.images == other.images

    def equal_at(self, other: "FormalMap", k: int) -> bool:
        if self.n != other.n:
            raise DimensionMismatch(
                f"maps on {self.n} and {other.n} variables are incomparable"
            )
        return all(a.equal_at(b, k) for a, b in zip(self.images, other.images))

    def truncate(self, k: int) -> "FormalMap":
        if k == self.order:
            return self
        return FormalMap(self.n, k, tuple(img.truncate(k) for img in self.images))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "order": self.order,
            "images": [img.to_dict() for img in self.images],
        }

    @classmethod
    def from_dict(cls, obj) -> "FormalMap":
        return cls(obj["n"], obj["order"], tuple(Jet.from_dict(j) for j in obj["images"]))

    def __str__(self) -> str:
        return "; ".join(f"x{i + 1} -> {img}" for i, img in enumerate(self.images))

    def __repr__(self) -> str:
        return f"<FormalMap n={self.n} order={self.order}: {self}>"


# -- constructors ---------------------------------------------------------------


def identity_map(n: int, order: int) -> FormalMap:
    return FormalMap(n, order, tuple(Jet.variable(n, order, i + 1) for i in range(n)))


def linear_map(matrix: Sequence[Sequence[RationalLike]], order: int) -> FormalMap:
    """The map x_i -> sum_j matrix[i][j] x_j (not necessarily invertible)."""
    n = len(matrix)
    images = []
    for row in matrix:
        if len(row) != n:
            raise DimensionMismatch("linear part must be a square matrix")
        terms: dict[Monomial, Q] = {}
        for j, v in enumerate(row):
            c = as_rational(v)
            if c:
                terms[tuple(1 if k == j else 0 for k in range(n))] = c
        images.append(Jet(n, order, terms))
    return FormalMap(n, order, tuple(images))


def shear(n: int, order: int, i: int, displacement: Jet) -> FormalMap:
    """The map sending x_i to x_i + displacement and fixing the other variables.

    The displacement must have adic order >= 2 and not involve x_i; such a
    map has Jacobian determinant exactly 1.
    """
    if not 1 <= i <= n:
        raise IndexError(f"variable index {i} out of range 1..{n}")
    if displacement.n != n or displacement.order != order:
        raise DimensionMismatch("displacement must share the map's ring and order")
    if displacement.m_adic_order() < 2:
        raise ValueError("shear displacement must have adic order >= 2")
    if any(e[i - 1] for e in displacement.terms):
        raise ValueError(f"shear displacement must not involve x{i}")
    images = list(identity_map(n, order).images)
    images[i - 1] = images[i - 1] + displacement
    return FormalMap(n, order, tuple(images))


# -- matrix inversion over jets ---------------------------------------------------


def matrix_inverse(m: JetMatrix) -> JetMatrix:
    """Inverse of a jet matrix whose constant term is invertible.

    Lifts the inverse one degree at a time.  With C the constant matrix,
    M X = I reads X = C^-1 + V X, where V = I - C^-1 M has no constant
    term.  So the degree-0 part of X is C^-1, and for d = 1..order its
    degree-d part is X_d = sum_{a=1..d} V_a X_{d-a}, with V_a the degree-a
    part of V.  X_0 and the constant jets of C^-1 are built straight from
    the numerators and denominators of ``linalg.inverse``; V_a, for a >= 1,
    is the negated degree-a part of C^-1 M, split from its integer form.
    Each entry of each X_d is one pass of products on the integer form,
    reduced once; every product lands on degree d, so none is truncated
    away or computed twice.  The parts are disjoint in degree and are
    joined into the result once, at the end.

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
    ainv = linalg.inverse([[e.constant_term for e in row] for row in m.rows])
    # x[b][l][j] is the degree-b part of X[l][j], as (numerator items,
    # denominator).  Every product of a pass lands below the limit, so the
    # parts go in unsorted (see _dot_terms).
    x = [[[([(0, c.numerator)], c.denominator) if c else ([], 1) for c in row]
          for row in ainv]]
    cinv = JetMatrix(tuple(tuple(_jet(n, order, dict(part), d, w) for part, d in row)
                           for row in x[0]))
    # v[i][l][a] is the degree-a part of V[i][l], split off C^-1 M and
    # negated on the way; its degree-0 part is never read.
    v = [[_negated_layers(e) for e in row] for row in (cinv @ m).rows]
    limit = _limit(order, n, w)
    for d in range(1, order + 1):
        layer = []
        for i in range(n):
            row = []
            for j in range(n):
                pairs = [(v[i][l][a], x[d - a][l][j]) for a in range(1, d + 1) for l in range(n)]
                num, den = _reduce(*_dot_terms(pairs, limit))
                row.append((list(num.items()), den))
            layer.append(row)
        x.append(layer)
    return JetMatrix(tuple(
        tuple(_join_layers(n, order, [part[i][j] for part in x]) for j in range(n))
        for i in range(n)
    ))


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
    return FormalMap(field.n, field.order, tuple(images))


# -- seeded random generation -------------------------------------------------------

# The fixed draws of the samplers.  A coefficient is p/q with p uniform in
# -_NUMER_BOUND.._NUMER_BOUND and q drawn from _DENOMINATORS, so q = 1 twice
# as often as q = 2.  A constant-Jacobian map composes _SHEARS shears after
# its linear part; an automorphism adds _TAIL_TERMS tail terms to each image.
_NUMER_BOUND = 2
_DENOMINATORS = (1, 1, 2)
_SHEARS = 2
_TAIL_TERMS = 2


def _as_rng(seed: "int | random.Random") -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _rand_rational(rng: random.Random, nonzero: bool = False) -> "Q":
    while True:
        num = rng.randint(-_NUMER_BOUND, _NUMER_BOUND)
        if num == 0 and nonzero:
            continue
        return Q(num, rng.choice(_DENOMINATORS))


def _rand_monomial(
    rng: random.Random, n: int, lo: int, hi: int, avoid: int | None = None
) -> Monomial | None:
    """A random exponent tuple of total degree in [lo, hi], or None if impossible.

    ``avoid`` is a 0-based variable index that must not appear.
    """
    allowed = [j for j in range(n) if j != avoid]
    if not allowed or hi < lo:
        return None
    degree = rng.randint(lo, hi)
    exps = [0] * n
    for _ in range(degree):
        exps[rng.choice(allowed)] += 1
    return tuple(exps)


def _rand_invertible(rng: random.Random, n: int) -> LinearPart:
    while True:
        m = [[_rand_rational(rng) for _ in range(n)] for _ in range(n)]
        if linalg.det(m):
            return m


def random_shear(
    n: int, order: int, seed: "int | random.Random", target: int | None = None,
) -> FormalMap:
    """A random shear; identity when n or the order leaves no room for one."""
    rng = _as_rng(seed)
    if n < 2 or order < 2:
        return identity_map(n, order)
    i = target if target is not None else rng.randint(1, n)
    terms: dict[Monomial, Q] = {}
    for _ in range(rng.randint(1, 2)):
        exps = _rand_monomial(rng, n, 2, order, avoid=i - 1)
        if exps is not None:
            terms[exps] = terms.get(exps, 0) + _rand_rational(rng, nonzero=True)
    return shear(n, order, i, Jet(n, order, terms))


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
            f_exps = _rand_monomial(rng, n, 3, order + 1)
            f = Jet.monomial(n, order + 1, f_exps, _rand_rational(rng, nonzero=True))
            coeffs[i] = coeffs[i] + f.partial_derivative(j + 1)
            coeffs[j] = coeffs[j] - f.partial_derivative(i + 1)
        else:
            i = rng.randrange(n)
            exps = _rand_monomial(rng, n, 2, order, avoid=i)
            if exps is not None:
                coeffs[i] = coeffs[i] + Jet.monomial(
                    n, order, exps, _rand_rational(rng, nonzero=True)
                )
    return coeffs


def random_const_jacobian(
    n: int, order: int, seed: "int | random.Random", *, flows: int = 1,
) -> FormalMap:
    """A seeded random map with constant Jacobian determinant.

    Composes an invertible linear map, with entries p/q for p in -2..2 and
    q in {1, 2}, with two shears and then the flows of ``flows``
    divergence-free fields.  Shears and flows need n >= 2 and order >= 2:
    in one variable the constant-Jacobian maps are exactly the linear ones,
    and the result is x -> c x.
    """
    rng = _as_rng(seed)
    result = linear_map(_rand_invertible(rng, n), order)
    if n >= 2 and order >= 2:
        for k in range(_SHEARS):
            s = random_shear(n, order, rng, target=(k % n) + 1)
            result = result.compose(s)
        for _ in range(flows):
            coeffs = _divergence_free_coeffs(rng, n, order)
            images = _flow_images(n, order, coeffs)
            result = result.compose(FormalMap(n, order, tuple(images)))
    return result


def random_automorphism(n: int, order: int, seed: "int | random.Random") -> FormalMap:
    """A seeded random automorphism with generic higher-order terms.

    Starts from the constant-Jacobian sampler without flows (linear part
    plus two shears) and then adds two random tail terms of adic order >= 2
    to each image, which preserves the invertible linear part.
    """
    rng = _as_rng(seed)
    base = random_const_jacobian(n, order, rng, flows=0)
    images = list(base.images)
    if order >= 2:
        for i in range(n):
            extra: dict[Monomial, Q] = {}
            for _ in range(_TAIL_TERMS):
                exps = _rand_monomial(rng, n, 2, order)
                if exps is not None:
                    extra[exps] = extra.get(exps, 0) + _rand_rational(rng)
            if extra:
                images[i] = images[i] + Jet(n, order, extra)
    return FormalMap(n, order, tuple(images))
