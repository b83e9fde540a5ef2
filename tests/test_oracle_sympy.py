"""An independent oracle: sympy's polynomial algebra, truncated by degree.

Products, substitution, determinants, Jacobian matrices and determinants,
the derivation action, the bracket and matrix inversion are compared with
sympy's expansion of the same polynomials, cut at the order the kernel
claims, and every comparison also asserts that claimed order.  Map
inversion is checked by composing with sympy's sparse polynomials, in both
directions, and the flow of a field against its Lie series summed in sympy.
The fraction-free ``linalg.det`` and ``linalg.inverse``, and
``linalg.kernel_basis``, are compared with sympy's rational matrices.  The whole module is skipped where sympy is not
installed.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.rings import ring  # noqa: E402

from conftest import derivations, exponent_tuples, jets, rationals, seeded_rng  # noqa: E402
from jetfields import (Derivation, FormalMap, Jet, JetMatrix, Q, SingularMatrix,  # noqa: E402
                       exp_flow, linalg, matrix_inverse)

XS = sympy.symbols("x1:5")
EXAMPLES = settings(max_examples=25, deadline=None)


def to_sympy(f: Jet):
    xs = XS[:f.n]
    return sympy.Add(*(
        sympy.Rational(int(c.numerator), int(c.denominator))
        * sympy.Mul(*(x ** p for x, p in zip(xs, e)))
        for e, c in f.terms.items()
    ))


def truncated_terms(expr, n: int, order: int) -> dict:
    """The coefficients of ``expr`` (an expression or a Poly) through total degree ``order``."""
    poly = expr if isinstance(expr, sympy.Poly) else sympy.Poly(sympy.expand(expr), *XS[:n])
    return {e: Q(int(c.p), int(c.q)) for e, c in poly.terms() if c and sum(e) <= order}


def vanishing_jets(n: int, order: int, max_terms: int = 3) -> st.SearchStrategy:
    # Jets with zero constant term: the images that substitution accepts.
    return st.dictionaries(
        exponent_tuples(n, order).filter(any), rationals(), max_size=max_terms
    ).map(lambda terms: Jet(n, order, terms))


@st.composite
def substitutions(draw):
    n = draw(st.integers(1, 4))
    f = draw(jets(n, draw(st.integers(0, 4)), max_terms=5))
    images = [draw(vanishing_jets(n, draw(st.integers(1, 4)))) for _ in range(n)]
    return f, images


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    return JetMatrix(tuple(
        tuple(draw(jets(n, order, max_terms=3)) for _ in range(n)) for _ in range(n)
    ))


@st.composite
def formal_maps(draw):
    n = draw(st.integers(1, 4))
    order = draw(st.integers(1, 4))
    return FormalMap(n, order, tuple(draw(vanishing_jets(n, order)) for _ in range(n)))


@EXAMPLES
@given(substitutions())
def test_substitute_matches_sympy(case):
    f, images = case
    out = f.substitute(images)
    claimed = min([f.order] + [g.order for g in images])
    assert out.order == claimed
    expr = to_sympy(f).subs(
        {x: to_sympy(g) for x, g in zip(XS, images)}, simultaneous=True
    )
    assert out.terms == truncated_terms(expr, f.n, claimed)


@EXAMPLES
@given(matrices())
def test_det_matches_sympy(m):
    det = m.det()
    assert det.order == m.order
    expr = sympy.Matrix([[to_sympy(e) for e in row] for row in m.rows]).det(method="berkowitz")
    assert det.terms == truncated_terms(expr, m.n, m.order)


@EXAMPLES
@given(formal_maps())
def test_jacobian_det_matches_sympy(sigma):
    jd = sigma.jacobian_det()
    assert jd.order == sigma.order - 1
    xs = XS[:sigma.n]
    jac = sympy.Matrix([[sympy.diff(to_sympy(img), x) for x in xs] for img in sigma.images])
    assert jd.terms == truncated_terms(jac.det(method="berkowitz"), sigma.n, sigma.order - 1)


@st.composite
def jet_pairs(draw):
    n = draw(st.integers(1, 4))
    return (draw(jets(n, draw(st.integers(0, 5)), max_terms=5)),
            draw(jets(n, draw(st.integers(0, 5)), max_terms=5)))


@EXAMPLES
@given(jet_pairs())
def test_product_matches_sympy(pair):
    f, g = pair
    prod = f * g
    claimed = min(f.order, g.order)
    assert prod.order == claimed
    assert prod.terms == truncated_terms(to_sympy(f) * to_sympy(g), f.n, claimed)


@EXAMPLES
@given(formal_maps())
def test_jacobian_matrix_matches_sympy(sigma):
    jac = sigma.jacobian_matrix()
    assert jac.order == sigma.order - 1
    for i, x in enumerate(XS[:sigma.n]):
        for j, img in enumerate(sigma.images):
            # Row index differentiates, column index picks the image.
            expected = truncated_terms(sympy.diff(to_sympy(img), x), sigma.n, sigma.order - 1)
            assert jac.rows[i][j].terms == expected


def higher_monomials(n: int, order: int, least: int = 2) -> list:
    return [e for e in itertools.product(range(order + 1), repeat=n) if least <= sum(e) <= order]


def higher_terms(n: int, order: int) -> st.SearchStrategy:
    # Up to three terms of positive degree, drawn from a list of monomials
    # rather than filtered, which would reject most draws at order 6.
    if not order:
        return st.just({})
    return st.dictionaries(st.sampled_from(higher_monomials(n, order, 1)), rationals(),
                           max_size=3)


def seeded_terms(rng, n: int, order: int, const) -> dict:
    # ``const`` plus three random terms of positive degree and one of degree ``order``.
    picks = rng.sample(higher_monomials(n, order, 1), 3) + [(0,) * (n - 1) + (order,)]
    return {(0,) * n: const, **{e: Q(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
                                for e in picks}}


@st.composite
def invertible_matrices(draw):
    # Entries with arbitrary higher terms on an invertible constant matrix.
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 6))
    const = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=n, max_size=n)
                 .filter(lambda c: linalg.det(c) != 0))
    return JetMatrix(tuple(
        tuple(Jet(n, order, {**draw(higher_terms(n, order)), (0,) * n: c}) for c in row)
        for row in const
    ))


def seeded_matrix(n: int, order: int) -> JetMatrix:
    rng = seeded_rng(f"matrix-oracle-{n}-{order}")
    while True:
        const = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.det(const):
            break
    return JetMatrix(tuple(tuple(Jet(n, order, seeded_terms(rng, n, order, c)) for c in row)
                           for row in const))


@EXAMPLES
@given(invertible_matrices())
@example(seeded_matrix(2, 16))
def test_matrix_inverse_matches_sympy(m):
    inv = matrix_inverse(m)
    assert inv.order == m.order
    n = m.n
    pm, px = ([[sympy.Poly(to_sympy(e), *XS[:n]) for e in row] for row in a.rows]
              for a in (m, inv))
    identity = [[{(0,) * n: Q(1)} if i == j else {} for j in range(n)] for i in range(n)]
    for left, right in ((pm, px), (px, pm)):
        product = [[sum((left[i][k] * right[k][j] for k in range(n)), sympy.Poly(0, *XS[:n]))
                    for j in range(n)] for i in range(n)]
        assert [[truncated_terms(product[i][j], n, m.order) for j in range(n)]
                for i in range(n)] == identity


@st.composite
def units(draw):
    # Constants of either sign, integers or not, under arbitrary higher terms.
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 6))
    const = draw(rationals().filter(bool))
    return Jet(n, order, {**draw(higher_terms(n, order)), (0,) * n: const})


@EXAMPLES
@given(units())
@example(Jet(2, 15, seeded_terms(seeded_rng("unit-oracle-15"), 2, 15, Q(-3, 2))))
@example(Jet(2, 16, seeded_terms(seeded_rng("unit-oracle-16"), 2, 16, Q(5, 3))))
def test_invert_unit_matches_sympy(f):
    inv = f.invert_unit()
    assert inv.order == f.order
    n = f.n
    product = sympy.Poly(to_sympy(f), *XS[:n]) * sympy.Poly(to_sympy(inv), *XS[:n])
    assert truncated_terms(product, n, f.order) == {(0,) * n: Q(1)}


# -- compositional inverse ------------------------------------------------------------


def map_with_linear_part(n: int, order: int, a, higher: list[dict]) -> FormalMap:
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return FormalMap(n, order, tuple(
        Jet(n, order, {**dict(zip(units, row)), **terms}) for row, terms in zip(a, higher)
    ))


@st.composite
def invertible_maps(draw):
    # An invertible linear part plus higher terms: a coefficient on every
    # monomial of a small ring, or up to three terms per image.
    n = draw(st.integers(1, 4))
    order = draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=n, max_size=n)
             .filter(lambda c: linalg.det(c) != 0))
    monomials = higher_monomials(n, order)
    if not monomials:
        terms = st.just({})
    elif comb(n + order, n) <= 35 and draw(st.booleans()):
        terms = st.fixed_dictionaries({e: rationals() for e in monomials})
    else:
        terms = st.dictionaries(st.sampled_from(monomials), rationals(), max_size=3)
    return map_with_linear_part(n, order, a, [draw(terms) for _ in range(n)])


def seeded_map(n: int, order: int) -> FormalMap:
    rng = seeded_rng(f"invert-oracle-{n}-{order}")
    while True:
        a = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.det(a):
            break
    monomials = higher_monomials(n, order)
    higher = [{e: Q(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
               for e in rng.sample(monomials, 3) + [(0,) * (n - 1) + (order,)]}
              for _ in range(n)]
    return map_with_linear_part(n, order, a, higher)


def map_over_denominators(order: int) -> FormalMap:
    # Images over 2, 3 and 7 whose degree-1 numerators [[1, 3, 0], [2, 1, 1],
    # [1, 0, 1]] have no zero leading minor and determinant -2, so their
    # fraction-free elimination ends on the pivot -2.
    rng = seeded_rng(f"invert-oracle-denominators-{order}")
    numerators = [[1, 3, 0], [2, 1, 1], [1, 0, 1]]
    assert linalg.det(numerators) == -2
    a = [[Q(c, q) for c in row] for row, q in zip(numerators, (2, 3, 7))]
    higher = [{e: Q(rng.choice((-2, -1, 1, 2)), q)
               for e in rng.sample(higher_monomials(3, order), 3)} for q in (2, 3, 7)]
    sigma = map_with_linear_part(3, order, a, higher)
    assert [img._den for img in sigma.images] == [2, 3, 7]
    return sigma


def composed(f, images, order: int, r):
    """f(images) through total degree ``order``, in sympy's sparse polynomial ring ``r``.

    Each product of images is built from a product one degree lower and
    truncated as it is built, so no degree past ``order`` is expanded.
    """
    def cut(p):
        return r({m: c for m, c in p.items() if sum(m) <= order})

    products = {(0,) * r.ngens: r.one}

    def product(m):
        if m not in products:
            j = max(i for i, e in enumerate(m) if e)
            products[m] = cut(product(m[:j] + (m[j] - 1,) + m[j + 1:]) * images[j])
        return products[m]

    return cut(sum((c * product(m) for m, c in f.items()), r.zero))


@EXAMPLES
@given(invertible_maps())
@example(seeded_map(2, 15))
@example(seeded_map(2, 16))
@example(map_over_denominators(5))
def test_invert_matches_sympy(sigma):
    inv = sigma.invert()
    assert inv.order == sigma.order
    n, order = sigma.n, sigma.order
    r = ring(",".join(map(str, XS[:n])), sympy.QQ)[0]

    def polys(fmap):
        return [r({e: sympy.QQ(c.numerator, c.denominator) for e, c in img.terms.items()})
                for img in fmap.images]

    s, t = polys(sigma), polys(inv)
    for outer, inner in ((s, t), (t, s)):
        assert [composed(f, inner, order, r) for f in outer] == list(r.gens)


def sympy_action(coeffs, f):
    """sum_i coeffs[i] * df/dx_i on sympy expressions."""
    return sympy.Add(*(a * sympy.diff(f, x) for a, x in zip(coeffs, XS)))


@st.composite
def applications(draw):
    field = draw(derivations(n_values=(1, 2, 3, 4), order_values=(0, 1, 2, 3, 4)))
    return field, draw(jets(field.n, draw(st.integers(1, 5)), max_terms=5))


@EXAMPLES
@given(applications())
def test_derivation_apply_matches_sympy(case):
    field, f = case
    out = field.apply(f)
    claimed = min(field.order, f.order - 1)
    assert out.order == claimed
    expr = sympy_action([to_sympy(a) for a in field.coefficients], to_sympy(f))
    assert out.terms == truncated_terms(expr, f.n, claimed)


def coefficients(n: int, order: int, kind: str) -> st.SearchStrategy:
    if kind == "zero":
        return st.just(Jet.zero(n, order))
    if kind == "constant":
        return rationals().map(lambda c: Jet.constant(n, order, c))
    return jets(n, order, max_terms=4)


@st.composite
def field_pairs(draw):
    # Orders drawn apart, so that an apply's result outruns the bracket's
    # order and must be clipped to it; coefficients zero, constant or not,
    # and now and then a field constant throughout.
    n = draw(st.integers(1, 4))
    pair = []
    for _ in range(2):
        order = draw(st.integers(1, 6))
        kinds = st.sampled_from(("constant",) if draw(st.integers(0, 2)) == 0
                                else ("zero", "constant", "general", "general"))
        pair.append(Derivation(n, order, tuple(
            draw(coefficients(n, order, draw(kinds))) for _ in range(n))))
    return tuple(pair)


def seeded_field(n: int, order: int, salt: str, constant: bool = False) -> Derivation:
    rng = seeded_rng(f"bracket-oracle-{n}-{order}-{salt}")
    const = Q(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    if constant:
        return Derivation(n, order, (Jet.constant(n, order, const),) * n)
    return Derivation(n, order, tuple(
        Jet(n, order, seeded_terms(rng, n, order, const)) for _ in range(n)))


@EXAMPLES
@given(field_pairs())
# k = 15 is in the 4-bit key layout, applies of order 16 are in the 8-bit one.
@example((seeded_field(2, 16, "x"), seeded_field(2, 17, "y")))
@example((seeded_field(2, 17, "x"), seeded_field(2, 16, "y")))
@example((seeded_field(2, 16, "x"), seeded_field(2, 16, "y")))
@example((seeded_field(2, 16, "x", constant=True), seeded_field(2, 17, "y")))
def test_bracket_matches_sympy(pair):
    # [X, Y]_j = X(b_j) - Y(a_j) = sum_i a_i d_i b_j - b_i d_i a_j, cut at
    # min(orders) - 1; each half is checked at the order its apply claims.
    x, y = pair
    n, k = x.n, min(x.order, y.order) - 1
    out = x.bracket(y)
    assert out.order == k
    a = [to_sympy(c) for c in x.coefficients]
    b = [to_sympy(c) for c in y.coefficients]
    for j in range(n):
        for field, coeffs, g, h in ((x, a, y.coefficients[j], b[j]),
                                    (y, b, x.coefficients[j], a[j])):
            half = field.apply(g)
            assert half.order == min(field.order, g.order - 1)
            assert half.terms == truncated_terms(sympy_action(coeffs, h), n, half.order)
        expr = sympy_action(a, b[j]) - sympy_action(b, a[j])
        assert out.coefficients[j].terms == truncated_terms(expr, n, k)


@st.composite
def nilpotent_fields(draw):
    # Coefficients of adic order >= 2, up to three terms each.
    n = draw(st.integers(1, 3))
    order = draw(st.integers(2, 6))
    terms = st.dictionaries(st.sampled_from(higher_monomials(n, order)), rationals(),
                            max_size=3)
    return Derivation(n, order, tuple(Jet(n, order, draw(terms)) for _ in range(n)))


@EXAMPLES
@given(nilpotent_fields())
def test_exp_flow_matches_sympy(field):
    # The Lie series x_i + D(x_i) + D^2(x_i)/2! + ... with D = sum_j a_j d/dx_j,
    # cut at the field's order after each step: D raises degree by at least
    # one, so no term cut off comes back.
    flow = exp_flow(field)
    n, order = field.n, field.order
    assert flow.order == order
    r, *xs = ring(",".join(map(str, XS[:n])), sympy.QQ)
    a = [r({e: sympy.QQ(c.numerator, c.denominator) for e, c in coeff.terms.items()})
         for coeff in field.coefficients]
    for x, image in zip(xs, flow.images):
        term = total = x
        k = 0
        while term:
            k += 1
            term = sum((aj * term.diff(xj) for aj, xj in zip(a, xs)), r.zero)
            term = r({m: c / k for m, c in term.items() if sum(m) <= order})
            total += term
        assert image.terms == {m: Q(int(c.numerator), int(c.denominator))
                               for m, c in total.items()}


# -- rational matrices ---------------------------------------------------------------


def sympy_matrix(a):
    return sympy.Matrix([[sympy.Rational(int(Q(c).numerator), int(Q(c).denominator))
                          for c in row] for row in a])


def from_sympy(m) -> list[list]:
    return [[Q(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)] for i in range(m.rows)]


def check_linalg(a) -> None:
    """``det`` and ``inverse`` of ``a`` against sympy, values and types:
    ``inverse`` gives integers X over one int d > 0 with a^-1 = X / d."""
    expected = sympy_matrix(a)
    det = linalg.det(a)
    assert type(det) is type(Q(0))
    assert det == Q(int(expected.det().p), int(expected.det().q))
    if det:
        x, d = linalg.inverse(a)
        assert type(d) is int and d > 0
        assert all(type(c) is int for row in x for c in row)
        assert [[Q(c, d) for c in row] for row in x] == from_sympy(expected.inv())
    else:
        with pytest.raises(SingularMatrix):
            linalg.inverse(a)


def random_rational_matrix(rng, n: int):
    # Mixed denominators, and plain ints mixed in with rationals.
    return [[rng.randint(-5, 5) if rng.random() < 0.3
             else Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 7, 9)))
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linalg_matches_sympy_on_seeded_matrices(n):
    rng = seeded_rng(f"linalg-{n}")
    for _ in range(30):
        check_linalg(random_rational_matrix(rng, n))


def test_linalg_with_a_zero_leading_pivot():
    # Column 0 is zero in the first row, so elimination swaps rows at once;
    # the second matrix needs a swap at column 1 too.
    for a in ([[0, Q(1, 2)], [Q(3, 4), 5]],
              [[0, 1, Q(2, 3)], [Q(1, 2), 0, 3], [1, 0, Q(-1, 5)]],
              [[Q(1, 3), 1, 2, 0], [Q(2, 3), 2, Q(1, 2), 1], [0, 0, 1, 7], [1, 5, 0, Q(1, 7)]]):
        check_linalg(a)


def test_linalg_negative_determinants():
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[Q(1, 2), 3], [Q(5, 3), Q(1, 4)]]) == Q(-39, 8)
    a = [[2, Q(1, 3), 0], [Q(-1, 2), 1, 4], [3, Q(2, 7), Q(-5, 2)]]
    assert linalg.det(a) < 0
    check_linalg(a)


def test_linalg_on_singular_matrices():
    for a in ([[0]], [[Q(1, 2), 1], [1, 2]], [[1, 2, 3], [Q(1, 2), 1, Q(3, 2)], [0, 1, 5]],
              [[1, Q(1, 3), 2, 0], [0, 0, 0, 0], [3, 1, Q(1, 5), 1], [2, 2, 2, 2]]):
        assert linalg.det(a) == 0
        check_linalg(a)
    # The message names the first column with no pivot, as rational
    # Gauss-Jordan does.
    with pytest.raises(SingularMatrix,
                       match=r"^matrix is singular \(rank deficiency at column 1\)$"):
        linalg.inverse([[Q(1, 2), 1, 0], [1, 2, Q(1, 3)], [0, 0, 4]])


@st.composite
def singular_matrices(draw):
    # Fewer independent-looking rows than columns, then rows that combine
    # them (zero rows when there are none), in any order.
    n = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), max_size=n - 1))
    weights = draw(st.lists(st.lists(rationals(), min_size=len(base), max_size=len(base)),
                            min_size=n - len(base), max_size=n - len(base)))
    extra = [[sum((w * row[j] for w, row in zip(ws, base)), Q(0)) for j in range(n)]
             for ws in weights]
    return draw(st.permutations(base + extra))


@EXAMPLES
@given(singular_matrices())
def test_linalg_on_random_singular_matrices(a):
    # The message names the first column that rational Gauss-Jordan leaves
    # without a pivot.
    assert linalg.det(a) == 0
    _, pivots = sympy_matrix(a).rref()
    col = next(c for c in range(len(a)) if c not in pivots)
    with pytest.raises(SingularMatrix,
                       match=rf"^matrix is singular \(rank deficiency at column {col}\)$"):
        linalg.inverse(a)


@st.composite
def kernel_inputs(draw):
    # Independent-looking rows, then rows that combine them: a matrix with
    # more rows than rank, or one with full row rank and columns to spare.
    cols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(rationals(), min_size=cols, max_size=cols),
                         min_size=1, max_size=3))
    weights = draw(st.lists(st.lists(rationals(), min_size=len(base), max_size=len(base)),
                            max_size=2))
    extra = [[sum((w * row[j] for w, row in zip(ws, base)), Q(0)) for j in range(cols)]
             for ws in weights]
    return draw(st.permutations(base + extra)), cols


@EXAMPLES
@given(kernel_inputs())
@example(([[Q(1), Q(2), Q(3)]], 3))  # full row rank before the last column
@example(([[Q(1), Q(1)], [Q(1), Q(1)], [Q(0), Q(1)]], 2))  # elimination above a pivot
def test_kernel_basis_matches_sympy(case):
    a, cols = case
    expected = [[Q(int(x.p), int(x.q)) for x in v]
                for v in sympy.Matrix([[sympy.Rational(int(x.numerator), int(x.denominator))
                                        for x in row] for row in a]).nullspace()]
    assert linalg.kernel_basis(a, cols) == expected
