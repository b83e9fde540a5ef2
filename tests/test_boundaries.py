"""Boundary orders and edge values of the integer-form kernel paths.

Degree-lifting matrix and map inversion, the one-pass derivation action,
the common-denominator product, the truncated Horner substitution and the
shared-minor determinant each have orders where their loops are empty or
run once, and inputs where every coefficient cancels.  These tests check
those cases against the naive oracles of ``test_jets``, which multiply
coefficient by coefficient on the public ``terms`` with no Horner
folding, product tables, shared minors or lifted layers.
"""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import sys

import pytest

from conftest import constant_matrix, identity_matrix, seeded_rng
from jetfields import (
    CHECKS,
    ConfigError,
    Derivation,
    DimensionMismatch,
    FormalMap,
    Jet,
    JetMatrix,
    NotContinuous,
    OrderMismatch,
    PrecisionExhausted,
    Q,
    SuiteConfig,
    euler_field,
    identity_map,
    matrix_inverse,
    partial_field,
    pushforward,
    linalg,
    random_automorphism,
    rerun_payload,
)
from jetfields.jets import _jet, _pack, _unpack
from jetfields.suite import _serialize_inputs
from test_jets import naive_derivative, naive_mul, naive_substitute, random_jet


def naive_matmul(a: JetMatrix, b: JetMatrix) -> list[list[Jet]]:
    k = min(a.order, b.order)
    out = []
    for row in a.rows:
        out_row = []
        for col in zip(*b.rows):
            total = Jet.zero(a.n, k)
            for x, y in zip(row, col):
                total = total + naive_mul(x, y)
            out_row.append(total)
        out.append(out_row)
    return out


def identity_rows(n: int, order: int) -> list[list[Jet]]:
    return [[Jet.constant(n, order, 1 if i == j else 0) for j in range(n)] for i in range(n)]


def unit_matrix(rng, n: int, order: int) -> JetMatrix:
    # A random jet matrix whose constant part is unit upper triangular,
    # hence invertible.
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = random_jet(rng, n, order, max_terms=4, zero_const=True)
            if i == j:
                f = f + 1
            elif j > i:
                f = f + Q(rng.randint(-3, 3), rng.choice((1, 2)))
            row.append(f)
        rows.append(tuple(row))
    return JetMatrix(tuple(rows))


# -- matrix_inverse: the inverse is lifted one degree per layer ---------------------
#
# Layer d of the inverse sums d * n products, so orders 0..4 cover the
# empty loop, a single pair and the a = d pair at several depths.


def check_inverse(m: JetMatrix) -> JetMatrix:
    inv = matrix_inverse(m)
    assert inv.order == m.order
    assert naive_matmul(m, inv) == identity_rows(m.n, m.order)
    assert naive_matmul(inv, m) == identity_rows(m.n, m.order)
    return inv


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_matrix_inverse_at_lifting_boundaries(order):
    rng = seeded_rng(f"matinv-boundary-{order}")
    for n in (1, 2, 3, 4):
        for _ in range(4 if n < 4 else 2):
            check_inverse(unit_matrix(rng, n, order))


def test_matrix_inverse_of_a_constant_matrix():
    # V = I - C^-1 M is zero, so every layer above degree 0 is empty.
    values = [[2, 1, 0], [Q(1, 3), 0, 5], [0, Q(-1, 2), 1]]
    for order in (0, 1, 3):
        inv = check_inverse(constant_matrix(values, order))
        x, d = linalg.inverse(values)
        assert inv == constant_matrix([[Q(c, d) for c in row] for row in x], order)


def test_matrix_inverse_of_dense_matrices():
    # Every monomial through the order in every entry: V is as dense as X.
    rng = seeded_rng("matinv-dense")
    for n, order in ((1, 4), (2, 3), (3, 2)):
        monomials = [e for e in itertools.product(range(order + 1), repeat=n) if sum(e) <= order]
        rows = []
        for i in range(n):
            rows.append(tuple(
                Jet(n, order, {e: Q(rng.randint(1, 5), rng.choice((1, 2, 3)))
                               + (n + 1 if i == j and not any(e) else 0) for e in monomials})
                for j in range(n)))
        m = JetMatrix(tuple(rows))
        assert all(len(e.terms) == len(monomials) for row in m.rows for e in row)
        check_inverse(m)


def test_matrix_inverse_with_non_unit_constants_and_zero_entries():
    # sparse_matrix leaves a third of the entries zero and gives the rest
    # constants over 1, 2 and 5, so C^-1 has non-unit denominators.
    rng = seeded_rng("matinv-sparse")
    seen = 0
    while seen < 16:
        n = rng.randint(1, 4)
        m = sparse_matrix(rng, n, rng.randint(1, 3))
        const = [[e.constant_term for e in row] for row in m.rows]
        if not linalg.det(const):
            continue
        seen += 1
        inv = check_inverse(m)
        x, d = linalg.inverse(const)
        if n > 1 and any(Q(v, d).denominator > 1 for row in x for v in row):
            assert any(e.constant_term.denominator > 1 for row in inv.rows for e in row)


@pytest.mark.parametrize("order", [15, 16, 255, 256, 300])
def test_matrix_inverse_across_key_layouts(order):
    # One variable, orders on both sides of the 8-bit and the wider key layouts.
    m = JetMatrix(((Jet(1, order, {(0,): 3, (1,): 1, (2,): Q(1, 2), (order - 1,): -2}),),))
    check_inverse(m)


# -- Derivation.apply: one product pass over the raw partials ----------------------


def naive_apply(field: Derivation, f: Jet) -> Jet:
    k = min(field.order, f.order - 1)
    total = Jet.zero(f.n, k)
    for i, a in enumerate(field.coefficients, start=1):
        total = total + naive_mul(a, naive_derivative(f, i)).truncate(k)
    return total


def sparse_field(rng, n: int, order: int) -> Derivation:
    # Coefficients are zero a third of the time.
    return Derivation(n, order, tuple(
        Jet.zero(n, order) if rng.random() < 1 / 3 else random_jet(rng, n, order)
        for _ in range(n)
    ))


def test_apply_at_every_field_order():
    # Field orders below f.order - 1 leave the partials with degrees above
    # the result order; orders above it leave them in the coefficients.
    rng = seeded_rng("apply-field-orders")
    for _ in range(12):
        n = rng.randint(1, 4)
        f = random_jet(rng, n, rng.randint(1, 6))
        for field_order in range(f.order + 2):
            field = sparse_field(rng, n, field_order)
            out = field.apply(f)
            assert out.order == min(field_order, f.order - 1)
            assert out == naive_apply(field, f)


@pytest.mark.parametrize("f_order, field_order", [
    (256, 300), (256, 256), (300, 255), (255, 300), (600, 300), (280, 300), (300, 3), (3, 300),
    (16, 16), (17, 16), (16, 15), (15, 16), (16, 3), (3, 16), (40, 15), (15, 300),
])
def test_apply_across_key_layouts(f_order, field_order):
    # Orders below 16 pack keys in 4-bit fields and orders from 256 up in
    # wider ones; the partials and the coefficients are moved into the
    # layout of the result order.
    def jet(order, terms):
        return Jet(2, order, {e: c for e, c in terms.items() if sum(e) <= order})

    f = jet(f_order, {(1, 0): 1, (2, 1): Q(3, 2), (0, 255): 5, (0, 15): 4, (8, 8): -3,
                      (1, f_order - 1): -1, (f_order, 0): 2, (0, f_order): Q(1, 3)})
    field = Derivation(2, field_order, (
        jet(field_order, {(0, 0): Q(1, 2), (1, 0): 1, (0, field_order): 3}),
        jet(field_order, {(1, 1): -1, (field_order - 1, 0): 2, (0, 1): Q(2, 5)}),
    ))
    out = field.apply(f)
    assert out.order == min(field_order, f_order - 1)
    assert out == naive_apply(field, f)


# -- FormalMap.invert: the lifting loop is empty at order 1, runs once at 2 ----------


@pytest.mark.parametrize("order", [1, 2])
def test_invert_at_lifting_boundaries(order):
    rng = seeded_rng(f"invert-boundary-{order}")
    for _ in range(12):
        n = rng.randint(1, 3)
        s = random_automorphism(n, order, rng)
        inv = s.invert()
        assert inv.order == order
        for i in range(n):
            x = Jet.variable(n, order, i + 1)
            assert naive_substitute(s.images[i], list(inv.images)) == x
            assert naive_substitute(inv.images[i], list(s.images)) == x


def test_invert_order_two_closed_form():
    s = FormalMap(2, 2, (
        Jet(2, 2, {(1, 0): 2, (0, 2): Q(1, 3)}),
        Jet(2, 2, {(0, 1): 1, (2, 0): -1}),
    ))
    # x1 = 2 w1 + w2^2/3, x2 = w2 - w1^2, solved to degree 2.
    expected = FormalMap(2, 2, (
        Jet(2, 2, {(1, 0): Q(1, 2), (0, 2): Q(-1, 6)}),
        Jet(2, 2, {(0, 1): 1, (2, 0): Q(1, 4)}),
    ))
    assert s.invert() == expected


def test_invert_and_substitute_build_product_chains_as_long_as_the_order():
    # In one variable the table product x1^1000 grows from x1 through 999
    # parents, walked without recursion.
    n, order = 1, 1000
    g = Jet(n, order, {(1,): 1, (order,): 1})
    assert FormalMap(n, order, (g,)).invert() == FormalMap(
        n, order, (Jet(n, order, {(1,): 1, (order,): -1}),))
    f = Jet(n, order, {(order,): 1})
    assert f.substitute([Jet(n, order, {(1,): 2, (order - 1,): 1})]) == Jet(
        n, order, {(order,): 2 ** order})


# -- products whose mixed denominators cancel ---------------------------------------


def test_product_drops_keys_that_cancel_across_denominators():
    x = Jet.variable(2, 3, 1)
    y = Jet.variable(2, 3, 2)
    f = x * Q(1, 2) + y * Q(1, 3)
    g = x * Q(1, 2) - y * Q(1, 3)
    prod = f * g
    assert prod == naive_mul(f, g)
    assert (1, 1) not in prod.terms
    assert prod.terms == {(2, 0): Q(1, 4), (0, 2): Q(-1, 9)}


def test_total_cancellation_gives_the_canonical_zero():
    x = Jet.variable(2, 3, 1)
    y = Jet.variable(2, 3, 2)
    diff = (x * Q(1, 2)) * (y * Q(2, 3)) - (x * Q(1, 3)) * y
    assert diff.is_zero
    assert diff == Jet.zero(2, 3)
    assert diff.terms == {}
    half = Jet(2, 3, {(1, 0): Q(1, 2), (0, 1): Q(5, 6)})
    m = JetMatrix(((half, half), (half, half)))
    flip = constant_matrix([[1, 0], [-1, 0]], 3)
    assert m @ flip == constant_matrix([[0, 0], [0, 0]], 3)


def test_products_with_mixed_denominators_match_the_oracle():
    rng = seeded_rng("mixed-denominators")
    for _ in range(200):
        n = rng.randint(1, 3)
        f = random_jet(rng, n, rng.randint(0, 4))
        g = random_jet(rng, n, rng.randint(0, 4))
        assert f * g == naive_mul(f, g)
        assert (f * g - naive_mul(f, g)).terms == {}


# -- substitution of and into the zero jet ------------------------------------------


def test_substituting_the_zero_jet():
    rng = seeded_rng("zero-substitution")
    for _ in range(20):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        images = [random_jet(rng, n, rng.randint(1, 4), zero_const=True) for _ in range(n)]
        k = min([order] + [g.order for g in images])
        zero = Jet.zero(n, order)
        assert zero.substitute(images) == Jet.zero(n, k)
        assert zero.substitute(images) == naive_substitute(zero, images)


def test_substituting_zero_images_keeps_the_constant_term():
    rng = seeded_rng("zero-images")
    for _ in range(20):
        n = rng.randint(1, 3)
        order = rng.randint(0, 4)
        f = random_jet(rng, n, order)
        zeros = [Jet.zero(n, order) for _ in range(n)]
        assert f.substitute(zeros) == Jet.constant(n, order, f.constant_term)
        assert f.substitute(zeros) == naive_substitute(f, zeros)


def test_shared_substitution_table_matches_separate_calls():
    rng = seeded_rng("shared-table")
    for _ in range(20):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        images = [random_jet(rng, n, order, zero_const=True) for _ in range(n)]
        fs = [random_jet(rng, n, rng.randint(0, order)) for _ in range(4)]
        table: dict = {}
        for f in fs:
            assert f.substitute(images, _table=table) == naive_substitute(f, images)


# -- orders whose monomial keys use a wider layout ----------------------------------


def test_orders_across_key_layouts():
    big = Jet(1, 300, {(1,): 1, (299,): 2})
    small = Jet(1, 3, {(1,): Q(1, 2)})
    assert big * small == Jet(1, 3, {(2,): Q(1, 2)})
    assert big + small == Jet(1, 3, {(1,): Q(3, 2)})
    assert big.truncate(3) == Jet(1, 3, {(1,): 1})
    assert big.equal_at(small * 2, 3)
    assert Jet(1, 256, {(256,): 1}).partial_derivative(1) == Jet(1, 255, {(255,): 256})
    assert big.coefficient((299,)) == 2


@pytest.mark.parametrize("low, high", [(15, 16), (3, 16), (15, 255), (15, 300), (3, 15)])
def test_mixed_orders_across_key_layouts(low, high):
    # Orders below 16 pack exponents in 4-bit fields, so x^15 fills one
    # and x^16 needs the 8-bit layout.
    def jet(order, terms):
        return Jet(2, order, {e: c for e, c in terms.items() if sum(e) <= order})

    terms = {(1, 0): 1, (0, 1): Q(-1, 2), (7, 8): 3, (15, 0): Q(2, 3), (0, 15): -1,
             (8, 8): 5, (16, 0): 7, (1, 15): Q(1, 5)}
    hi, lo = jet(high, terms), jet(low, {e: c * 2 for e, c in terms.items()})
    assert hi.terms == {e: c for e, c in terms.items() if sum(e) <= high}
    for a, b in ((hi, lo), (lo, hi)):
        assert a * b == naive_mul(a, b)
        assert (a + b).terms == {e: c * 3 for e, c in terms.items() if sum(e) <= low}
        assert (a - b).order == low
    assert hi.truncate(low) == jet(low, terms)
    assert hi.truncate(low).truncate(1) == jet(1, terms)
    assert hi.equal_at(lo * Q(1, 2), low)
    assert not hi.equal_at(lo, low)
    assert hi.partial_derivative(1) == naive_derivative(hi, 1)
    assert hi.partial_derivative(2) == naive_derivative(hi, 2)


def test_derivative_of_a_full_field_power():
    # x^16 at order 16 is the first power that a 4-bit field cannot hold.
    assert Jet(1, 16, {(16,): 1}).partial_derivative(1) == Jet(1, 15, {(15,): 16})
    assert Jet(2, 16, {(16, 0): 1, (1, 15): 2}).partial_derivative(2) == Jet(
        2, 15, {(1, 14): 30})
    assert Jet(1, 15, {(15,): 1}).partial_derivative(1) == Jet(1, 14, {(14,): 15})
    assert str(Jet(2, 16, {(16, 0): 1, (0, 15): 1})) == "x2^15 + x1^16"


def test_jets_copy_and_pickle():
    f = Jet(2, 3, {(1, 0): Q(1, 2), (0, 2): 3})
    assert copy.deepcopy(f) == f
    assert pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(AttributeError):
        f.order = 4


class _StoredJet:
    # Pickles as Jet.__reduce__ did when every order below 256 used 8-bit keys.
    def __init__(self, f: Jet) -> None:
        num8 = {_pack(_unpack(k, f.n, f._w), 8): c for k, c in f._num.items()}
        self.args = (f.n, f.order, num8, f._den, 8)

    def __reduce__(self):
        return _jet, self.args


@pytest.mark.parametrize("order", [0, 1, 3, 15])
def test_unpickling_jets_stored_with_8_bit_keys(order):
    f = Jet(3, order, {e: c for e, c in {
        (0, 0, 0): 2, (1, 0, 0): Q(1, 2), (0, 1, 2): -3, (15, 0, 0): Q(5, 6), (0, 7, 8): 1,
    }.items() if sum(e) <= order})
    g = pickle.loads(pickle.dumps(_StoredJet(f)))
    assert g == f
    assert str(g) == str(f)
    assert g * g == f * f


def naive_pushforward(sigma: FormalMap, field: Derivation) -> list[Jet]:
    # Coefficient j is sum_i sigma(a_i) * (J^-1)[i][j], each pullback a
    # naive evaluation of every monomial at the images, at the field's order.
    k = min(field.order, sigma.order - 1)
    jinv = matrix_inverse(sigma.jacobian_matrix())
    moved = [naive_substitute(a, list(sigma.images)) for a in field.coefficients]
    out = []
    for j in range(sigma.n):
        total = Jet.zero(sigma.n, k)
        for m, row in zip(moved, jinv.rows):
            total = total + naive_mul(m, row[j]).truncate(k)
        out.append(total)
    return out


def test_pushforward_matches_naive_pullbacks():
    # Field orders above, equal to and below sigma.order - 1, the result order.
    rng = seeded_rng("pushforward-oracle")
    for _ in range(8):
        n = rng.randint(1, 3)
        order = rng.randint(2, 5)
        sigma = random_automorphism(n, order, rng.randint(0, 10 ** 6))
        for field_order in range(order + 2):
            field = sparse_field(rng, n, field_order)
            out = pushforward(sigma, field)
            assert out.order == min(field_order, order - 1)
            assert list(out.coefficients) == naive_pushforward(sigma, field)


def test_pushforward_checks_a_supplied_jacobian_inverse():
    sigma = FormalMap(2, 4, (Jet.variable(2, 4, 1), Jet(2, 4, {(0, 1): 1, (2, 0): 1})))
    field = partial_field(2, 4, 1)
    jinv = matrix_inverse(sigma.jacobian_matrix())
    assert pushforward(sigma, field, jinv) == pushforward(sigma, field)
    with pytest.raises(OrderMismatch):
        pushforward(sigma, field, JetMatrix([[e.truncate(2) for e in row] for row in jinv.rows]))
    with pytest.raises(DimensionMismatch):
        pushforward(sigma, field, identity_matrix(3, 3))


# -- truncated Horner substitution --------------------------------------------------
#
# At n = 4 two variables are folded by Horner and two come from the table
# of image products, and every fold works to a limit reduced by its power.


def with_axis_powers(rng, n: int, order: int) -> Jet:
    # A random jet plus x1^p and x2^p for every p up to the order, so that
    # each Horner level folds through every power, and x1^p * xn for every
    # p below it, so that folds at every reduced limit ask the table for
    # the same product of the last image.
    terms = dict(random_jet(rng, n, order).terms)
    axis = [tuple(p if k == i else 0 for k in range(n))
            for p in range(order + 1) for i in (0, 1)]
    mixed = [(p,) + (0,) * (n - 2) + (1,) for p in range(order)]
    for e in axis + mixed:
        terms[e] = terms.get(e, Q(0)) + Q(rng.randint(1, 4), rng.choice((1, 2, 3)))
    return Jet(n, order, terms)


def sparse_jet(rng, n: int, order: int, count: int, low: int = 0) -> Jet:
    # ``count`` random terms of degree low..order, every variable equally
    # likely in each factor, so that jets in many variables are not empty.
    terms = {}
    for _ in range(count):
        exps = [0] * n
        for _ in range(rng.randint(low, order)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Q(rng.randint(1, 4) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
    return Jet(n, order, terms)


def test_substitution_folds_two_horner_levels():
    # Two Horner levels at n = 4; three at n = 5 and four at n = 6, where
    # every level splits its head exponent off the packed keys.
    rng = seeded_rng("horner-n4")
    for _ in range(12):
        order = rng.randint(1, 5)
        f = with_axis_powers(rng, 4, order)
        images = [random_jet(rng, 4, order, max_terms=4, zero_const=True) for _ in range(4)]
        assert f.substitute(images) == naive_substitute(f, images)
    rng = seeded_rng("horner-n5-n6")
    for n in (5, 6):
        for _ in range(6):
            order = rng.randint(3, 5)
            f = with_axis_powers(rng, n, order) + sparse_jet(rng, n, order, 8)
            images = [sparse_jet(rng, n, order, 3, low=1) for _ in range(n)]
            assert f.substitute(images) == naive_substitute(f, images)


def test_substitution_into_images_of_mixed_orders():
    rng = seeded_rng("horner-mixed-orders")
    for _ in range(16):
        n = rng.randint(3, 4)
        order = rng.randint(3, 6)
        f = with_axis_powers(rng, n, order)
        images = [random_jet(rng, n, rng.randint(1, order - 1), max_terms=4, zero_const=True)
                  for _ in range(n)]
        out = f.substitute(images)
        assert out.order == min(g.order for g in images)
        assert out == naive_substitute(f, images)


def test_substitution_with_some_zero_images():
    rng = seeded_rng("horner-zero-images")
    for _ in range(16):
        order = rng.randint(1, 5)
        f = with_axis_powers(rng, 4, order)
        images = [Jet.zero(4, order) if rng.random() < 0.5
                  else random_jet(rng, 4, order, max_terms=4, zero_const=True)
                  for _ in range(4)]
        assert f.substitute(images) == naive_substitute(f, images)


def test_one_table_shared_by_calls_at_different_limits():
    rng = seeded_rng("horner-two-limits")
    for _ in range(8):
        n = rng.randint(3, 4)
        images = [random_jet(rng, n, 5, max_terms=4, zero_const=True) for _ in range(n)]
        fs = [with_axis_powers(rng, n, rng.choice((3, 5))) for _ in range(4)]
        fs += [fs[0].truncate(2), fs[1]]
        table: dict = {}
        for f in fs:
            assert f.substitute(images, _table=table) == naive_substitute(f, images)
        assert len(table) == len({f.order for f in fs})
    # Jets of orders 15, 16 and 256 pack keys in 4-, 8- and 9-bit fields.
    # Over order-15 images all three substitute at order 15, so they are
    # repacked into its layout and share one table of products keyed there.
    rng = seeded_rng("horner-shared-layouts")
    for n in (3, 4):
        images = [sparse_jet(rng, n, 15, 2, low=1) + sparse_jet(rng, n, 15, 1, low=12)
                  for _ in range(n)]
        low = (with_axis_powers(rng, n, 3) + sparse_jet(rng, n, 6, 6)).terms
        high = {(15,) + (0,) * (n - 1): 2, (0,) * (n - 1) + (16,): Q(1, 3),
                (1,) + (0,) * (n - 2) + (14,): -1, (200,) + (0,) * (n - 2) + (55,): 5}
        fs = [Jet(n, order, {e: c for e, c in {**low, **high}.items() if sum(e) <= order})
              for order in (15, 16, 256)]
        table: dict = {}
        for f in fs:
            out = f.substitute(images, _table=table)
            assert out.order == 15
            assert out == naive_substitute(f, images)
        assert len(table) == 1


def test_substitution_across_key_layouts():
    # Orders from 256 up pack keys in wider fields; a substitution between
    # orders on either side repacks its operands.
    wide = Jet(2, 260, {(1, 0): 1, (0, 1): 2, (2, 1): Q(3, 2), (0, 20): -1, (3, 255): 5})
    narrow = Jet(2, 3, {(1, 0): Q(1, 2), (1, 1): 1, (0, 3): -2})
    wide_images = [Jet(2, 260, {(1, 0): 1, (0, 2): 1, (1, 1): Q(1, 3)}),
                   Jet(2, 260, {(0, 1): -1})]
    narrow_images = [Jet(2, 3, {(1, 0): 2, (0, 2): 1}), Jet(2, 3, {(0, 1): 1, (1, 1): 1})]
    for f, images in ((wide, wide_images), (wide, narrow_images),
                      (narrow, wide_images), (narrow, narrow_images)):
        out = f.substitute(images)
        assert out.order == min(f.order, images[0].order)
        assert out == naive_substitute(f, images)
    one = Jet(1, 300, {(1,): 1, (2,): 3, (299,): 2})
    image = Jet(1, 300, {(1,): Q(1, 2), (150,): 1})
    assert one.substitute([image]) == naive_substitute(one, [image])


def test_substitution_across_narrow_key_layouts():
    # Orders below 16 pack keys in 4-bit fields; a substitution between
    # orders 15 and 16 repacks its operands.
    def jet(order, terms):
        return Jet(3, order, {e: c for e, c in terms.items() if sum(e) <= order})

    f_terms = {(1, 0, 0): 1, (0, 2, 1): Q(3, 2), (15, 0, 0): -1, (0, 0, 16): 2,
               (5, 5, 5): 1, (2, 0, 1): Q(1, 3)}
    image_terms = [{(1, 0, 0): 1, (0, 2, 0): 1, (0, 0, 15): Q(1, 3)},
                   {(0, 1, 0): -1, (8, 0, 0): 2}, {(0, 0, 1): 1, (1, 1, 0): Q(1, 2)}]
    for f_order, image_order in ((16, 15), (15, 16), (16, 16), (15, 15), (3, 16), (16, 3)):
        f = jet(f_order, f_terms)
        images = [jet(image_order, t) for t in image_terms]
        out = f.substitute(images)
        assert out.order == min(f_order, image_order)
        assert out == naive_substitute(f, images)


# -- the shared-minor determinant ---------------------------------------------------


def leibniz_det(m: JetMatrix) -> Jet:
    n, order = m.n, m.order
    total = Jet.zero(n, order)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = Jet.constant(n, order, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            prod = naive_mul(prod, m.rows[i][j])
        total = total + prod
    return total


def sparse_matrix(rng, n: int, order: int) -> JetMatrix:
    # Entries are zero a third of the time; the rest have non-unit constants.
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < 1 / 3:
                row.append(Jet.zero(n, order))
            else:
                f = random_jet(rng, n, order, max_terms=3, zero_const=True)
                row.append(f + Q(rng.randint(-3, 3), rng.choice((1, 2, 5))))
        rows.append(tuple(row))
    return JetMatrix(tuple(rows))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_the_leibniz_expansion(n):
    rng = seeded_rng(f"det-leibniz-{n}")
    for order in (0, 1, 2, 3):
        for _ in range(6 if n < 5 else 2):
            m = sparse_matrix(rng, n, order)
            det = m.det()
            assert det.order == order
            assert det == leibniz_det(m)


def test_det_of_degenerate_matrices():
    rng = seeded_rng("det-degenerate")
    for n in (2, 3, 4):
        m = sparse_matrix(rng, n, 2)
        rows = list(m.rows)
        twin = JetMatrix(tuple(rows[:-1] + [rows[0]]))
        assert twin.det() == Jet.zero(n, 2)
        hole = JetMatrix(tuple([tuple(Jet.zero(n, 2) for _ in range(n))] + rows[1:]))
        assert hole.det() == Jet.zero(n, 2)
        assert identity_matrix(n, 0).det() == Jet.constant(n, 0, 1)


# -- errors of the value types ---------------------------------------------------------
#
# Maps and fields share their checks, equality, truncation and serialization;
# each row pins the exception type and text one of them raises.


_HUGE = 10 ** (sys.get_int_max_str_digits() + 1)


def _var(n: int, order: int, i: int) -> Jet:
    return Jet.variable(n, order, i)


def _coords(cls, n: int, order: int):
    return cls(n, order, tuple(_var(n, order, i) for i in range(1, n + 1)))


def _zero_field() -> Derivation:
    """The zero field in one variable at order 0, where no derivative is known."""
    return Derivation(1, 0, (Jet.zero(1, 0),))


def _term_jet(field: str, value) -> dict:
    """The payload of x1 at order 2 with its term's ``field`` set to ``value``."""
    return {"n": 1, "order": 2, "terms": [{"exp": [1], "num": "1", "den": "1", field: value}]}


def _term_payload(field: str, value) -> dict:
    """A C1 payload whose first map's first term has ``field`` set to ``value``."""
    inputs = CHECKS["C1"].generate(seeded_rng("term payload"), 1, 3)
    payload = {"check": "C1", "n": 1, "order": 3, **_serialize_inputs(inputs)}
    payload["maps"][0]["images"][0]["terms"][0][field] = value
    return payload


VALUE_TYPE_ERRORS = [
    (lambda: FormalMap(2, 2, (_var(2, 2, 1),)),
     DimensionMismatch, "expected 2 images, got 1"),
    (lambda: FormalMap(2, 2, (_var(2, 2, 1), "x2")),
     TypeError, "image of x2 must be a Jet, got 'x2'"),
    (lambda: FormalMap(2, 2, (_var(2, 2, 1), _var(3, 2, 2))),
     DimensionMismatch, "image of x2 lives in 3 variables, expected 2"),
    (lambda: FormalMap(2, 2, (_var(2, 2, 1), _var(2, 3, 2))),
     OrderMismatch, "image of x2 has order 3, expected 2"),
    (lambda: FormalMap(1, 0, (Jet.zero(1, 0),)),
     ValueError, "maps need truncation order >= 1, got 0"),
    # The constant term of image 1 is reported before the bad image 2.
    (lambda: FormalMap(2, 2, (_var(2, 2, 1) + 1, "x2")),
     NotContinuous, "image of x1 has nonzero constant term 1"),
    (lambda: FormalMap(2, 2, (_var(2, 2, 1) + 1, _var(3, 2, 2))),
     NotContinuous, "image of x1 has nonzero constant term 1"),
    (lambda: Derivation(2, 2, (_var(2, 2, 1),)),
     DimensionMismatch, "expected 2 coefficients, got 1"),
    (lambda: Derivation(2, 2, (_var(2, 2, 1), 3)),
     TypeError, "coefficient 2 must be a Jet, got 3"),
    (lambda: Derivation(2, 2, (_var(2, 2, 1), _var(3, 2, 2))),
     DimensionMismatch, "coefficient 2 lives in 3 variables, expected 2"),
    (lambda: Derivation(2, 2, (_var(2, 2, 1), _var(2, 3, 2))),
     OrderMismatch, "coefficient 2 has order 3, expected 2"),
    (lambda: Derivation(1, -1, (Jet.zero(1, 0),)),
     ValueError, "field order must be a non-negative int, got -1"),
    # The ring is checked as Jet checks it, before any jet: 1.0 == True == 1.
    (lambda: Derivation(1.0, 3, (_var(1, 3, 1),)),
     ValueError, "variable count must be a positive int, got 1.0"),
    (lambda: FormalMap(True, 3, (_var(1, 3, 1),)),
     ValueError, "variable count must be a positive int, got True"),
    (lambda: Derivation(1, True, (_var(1, 1, 1),)),
     ValueError, "truncation order must be a non-negative int, got True"),
    (lambda: _coords(FormalMap, 2, 2) == _coords(FormalMap, 3, 2),
     DimensionMismatch, "maps on 2 and 3 variables are incomparable"),
    (lambda: _coords(FormalMap, 2, 2).equal_at(_coords(FormalMap, 3, 2), 1),
     DimensionMismatch, "maps on 2 and 3 variables are incomparable"),
    (lambda: _coords(FormalMap, 1, 2) == _coords(FormalMap, 1, 3),
     OrderMismatch, "cannot compare maps of orders 2 and 3"),
    (lambda: _coords(Derivation, 2, 2) == _coords(Derivation, 3, 2),
     DimensionMismatch, "fields on 2 and 3 variables are incomparable"),
    (lambda: _coords(Derivation, 2, 2).equal_at(_coords(Derivation, 3, 2), 1),
     DimensionMismatch, "fields on 2 and 3 variables are incomparable"),
    (lambda: _coords(Derivation, 1, 2) == _coords(Derivation, 1, 3),
     OrderMismatch, "cannot compare fields of orders 2 and 3"),
    (lambda: FormalMap.from_dict({"n": 1, "order": 1}), KeyError, "'images'"),
    (lambda: Derivation.from_dict({"n": 1, "order": 1, "images": []}),
     KeyError, "'coefficients'"),
    # A term's num and den are decimal strings or ints, never read by a bare
    # int(): that raised OverflowError on infinity and truncated 1.5 and true.
    (lambda: Jet.from_dict(_term_jet("den", math.inf)),
     ValueError, "jet term den must be a decimal integer string, got inf"),
    (lambda: Jet.from_dict(_term_jet("den", math.nan)),
     ValueError, "jet term den must be a decimal integer string, got nan"),
    (lambda: Jet.from_dict(_term_jet("num", 1.5)),
     ValueError, "jet term num must be a decimal integer string, got 1.5"),
    (lambda: Jet.from_dict(_term_jet("num", True)),
     ValueError, "jet term num must be a decimal integer string, got True"),
    (lambda: rerun_payload(_term_payload("den", math.inf)),
     ConfigError, "payload inputs do not decode: "
     "ValueError('jet term den must be a decimal integer string, got inf')"),
    (lambda: rerun_payload(_term_payload("num", 1.5)),
     ConfigError, "payload inputs do not decode: "
     "ValueError('jet term num must be a decimal integer string, got 1.5')"),
    # A map that decodes but has no inverse, which C4 needs: SingularMatrix
    # escaped rerun_payload before.
    (lambda: rerun_payload({"check": "C4", "n": 2, "order": 3, "maps": [
        FormalMap(2, 3, (_var(2, 3, 1), _var(2, 3, 1))).to_dict()]}),
     ConfigError, "payload inputs are outside check C4: "
     "matrix is singular (rank deficiency at column 1)"),
    # A config field that is no sequence raised tuple()'s raw TypeError.
    (lambda: SuiteConfig(n_list=3), ConfigError, "n_list must be a sequence, got int"),
    (lambda: SuiteConfig(checks=None), ConfigError, "checks must be a sequence, got NoneType"),
    (lambda: SuiteConfig(order_list=5.0), ConfigError,
     "order_list must be a sequence, got float"),
    # An int past the digit limit raised repr()'s raw ValueError from the refusal's message.
    (lambda: SuiteConfig(n_list=(_HUGE,)).validate(), ConfigError,
     "check C1 at n=<int too long to print>, order=3 is too costly: "
     "its jets have more than 1001 monomials"),
    (lambda: SuiteConfig(checks=("C1", _HUGE)).validate(), ConfigError,
     "unknown checks <list too long to print>; valid ids are "
     "C1, C2, C3, C4, C5, C6, C7, C8, C9, C10"),
    (lambda: rerun_payload({"check": "C1", "n": -_HUGE, "order": 3}), ConfigError,
     "n must be a positive int, got <int too long to print>"),
    # trials had no ceiling, so a config could start a run that never ends.
    (lambda: SuiteConfig(checks=("C1",), trials=10 ** 12).validate(), ConfigError,
     "trials=1000000000000 is too costly: at most 10000 trials a cell are admitted"),
    (lambda: SuiteConfig(trials=_HUGE).validate(), ConfigError,
     "trials=<int too long to print> is too costly: at most 10000 trials a cell are admitted"),
    # The Python API's own checks on rings, indices and operands.
    (lambda: _coords(Derivation, 2, 2).apply(_var(3, 2, 1)),
     DimensionMismatch, "cannot apply a field on 2 variables to a jet on 3"),
    (lambda: _coords(Derivation, 2, 2).bracket(_coords(Derivation, 3, 2)),
     DimensionMismatch, "cannot bracket fields on 2 and 3 variables"),
    (lambda: _zero_field().bracket(_zero_field()),
     PrecisionExhausted, "bracket needs both fields at order >= 1"),
    (lambda: _zero_field().divergence(),
     PrecisionExhausted, "divergence needs coefficients of order >= 1"),
    (lambda: _coords(Derivation, 2, 2) + _var(2, 2, 1),
     TypeError, "unsupported operand type(s) for +: 'Derivation' and 'Jet'"),
    (lambda: _coords(Derivation, 2, 2) + _coords(Derivation, 3, 2),
     DimensionMismatch, "cannot add fields on different variable counts"),
    (lambda: _coords(Derivation, 2, 2) * None,
     TypeError, "unsupported operand type(s) for *: 'Derivation' and 'NoneType'"),
    (lambda: partial_field(2, 3, 3), IndexError, "variable index 3 out of range 1..2"),
    # The standard maps and fields are built past the constructors, so their
    # refusals are pinned here.  A row whose message an earlier row pins too
    # takes its own id, or pytest would renumber the earlier row's.
    (lambda: identity_map(0, 3), ValueError, "variable count must be a positive int, got 0"),
    pytest.param(lambda: identity_map(2, 0), PrecisionExhausted,
                 "a coordinate jet needs order >= 1", id="identity_map(2, 0)"),
    (lambda: partial_field(0, 3, 1), IndexError, "variable index 1 out of range 1..0"),
    pytest.param(lambda: euler_field(1, 0, 1), PrecisionExhausted,
                 "a coordinate jet needs order >= 1", id="euler_field(1, 0, 1)"),
    (lambda: Jet.variable(2, 3, 0), IndexError, "variable index 0 out of range 1..2"),
    (lambda: Jet.variable(2, 0, 1), PrecisionExhausted, "a coordinate jet needs order >= 1"),
    (lambda: Jet.constant(1, 2, None),
     TypeError, "cannot interpret None as an exact rational"),
    (lambda: _var(2, 2, 1) + None,
     TypeError, "unsupported operand type(s) for +: 'Jet' and 'NoneType'"),
    (lambda: _var(2, 2, 1) - None,
     TypeError, "unsupported operand type(s) for -: 'Jet' and 'NoneType'"),
    (lambda: JetMatrix(((1,),)), TypeError, "matrix entries must be jets, got 1"),
    (lambda: identity_matrix(2, 2) @ 1, TypeError, "expected a JetMatrix, got 1"),
    (lambda: identity_matrix(2, 2) @ identity_matrix(1, 2),
     DimensionMismatch, "matrix sizes differ (2 vs 1)"),
    (lambda: _coords(FormalMap, 2, 2).apply(_var(3, 2, 1)),
     DimensionMismatch, "jet in 3 variables cannot be pulled back along a map on 2"),
    (lambda: _coords(FormalMap, 2, 2).compose(_coords(FormalMap, 3, 2)),
     DimensionMismatch, "cannot compose maps on 2 and 3 variables"),
]


@pytest.mark.parametrize("make, exc, text", VALUE_TYPE_ERRORS,
                         ids=[text for _, _, text in VALUE_TYPE_ERRORS])
def test_value_type_errors(make, exc, text):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == text


def test_value_types_round_trip_and_compare():
    sigma, field = _coords(FormalMap, 2, 3), _coords(Derivation, 2, 3)
    assert repr(sigma) == "<FormalMap n=2 order=3: x1 -> x1; x2 -> x2>"
    assert repr(field) == "<Derivation n=2 order=3: (x1)*d1 + (x2)*d2>"
    assert (sigma == field) is False and (field == sigma) is False
    assert (_var(2, 3, 1) == 1) is False and (identity_matrix(2, 3) == 1) is False
    for value in (sigma, field):
        cls = type(value)
        assert cls.from_dict(value.to_dict()) == value
        assert type(value.truncate(2)) is cls and value.truncate(3) is value
        assert value.truncate(2).equal_at(value, 2)
        assert value.truncate(2) == cls(2, 2, tuple(_var(2, 2, i) for i in (1, 2)))
    assert set(sigma.to_dict()) == {"n", "order", "images"}
    assert set(field.to_dict()) == {"n", "order", "coefficients"}
    with pytest.raises(ValueError, match="maps need truncation order >= 1"):
        sigma.truncate(0)
    assert field.truncate(0).order == 0


@pytest.mark.parametrize("check, kind, n, bad", [
    ("C6", "fields", 2, 2.0),
    ("C6", "fields", 1, True),
    ("C1", "maps", 1, 1.0),
    ("C1", "maps", 1, True),
])
def test_rerun_payload_refuses_a_ring_that_is_no_int(check, kind, n, bad):
    # The bad "n" equals the payload's n, so only the value's own ring check sees it.
    inputs = CHECKS[check].generate(seeded_rng(f"ring {check} {n}"), n, 4)
    payload = {"check": check, "n": n, "order": 4, **_serialize_inputs(inputs)}
    payload[kind][0]["n"] = bad
    with pytest.raises(ConfigError, match="variable count must be a positive int"):
        rerun_payload(payload)
