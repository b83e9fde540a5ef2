"""Core series arithmetic, checked against independent naive oracles.

The oracles below recompute multiplication (full convolution),
differentiation (power rule), and substitution (term-by-term monomial
evaluation) from the definitions, with none of the package's degree
bucketing or Horner evaluation, and the tests freeze them as the
reference behavior.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_matrix, jet_triples, jets, rationals, seeded_rng
from jetfields import (
    DimensionMismatch,
    Jet,
    JetMatrix,
    NotAUnit,
    NotContinuous,
    OrderMismatch,
    PrecisionExhausted,
    Q,
)
from jetfields.jets import _EMPTY, _dot_terms, _Layers, _limit, _pack, _reduce, _width

# -- independent oracles -----------------------------------------------------


def naive_mul(f: Jet, g: Jet) -> Jet:
    k = min(f.order, g.order)
    acc: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= k:
                acc[e] = acc.get(e, Q(0)) + ca * cb
    return Jet(f.n, k, acc)


def naive_derivative(f: Jet, i: int) -> Jet:
    acc: dict = {}
    for e, c in f.terms.items():
        if e[i - 1]:
            down = list(e)
            down[i - 1] -= 1
            acc[tuple(down)] = acc.get(tuple(down), Q(0)) + c * e[i - 1]
    return Jet(f.n, f.order - 1, acc)


def naive_substitute(f: Jet, images: list[Jet]) -> Jet:
    k = min([f.order] + [g.order for g in images])
    total = Jet.zero(f.n, k)
    for exps, c in f.terms.items():
        prod = Jet.constant(f.n, k, c)
        for g, e in zip(images, exps):
            for _ in range(e):
                prod = naive_mul(prod, g.truncate(k))
        total = total + prod
    return total


def random_jet(rng, n: int, order: int, max_terms: int = 6, zero_const: bool = False) -> Jet:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, order) for _ in range(n))
        if sum(exps) > order or (zero_const and sum(exps) == 0):
            continue
        terms[exps] = Q(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    return Jet(n, order, terms)


# -- oracle comparisons --------------------------------------------------------


def test_mul_matches_naive_convolution():
    rng = seeded_rng("mul-oracle")
    for _ in range(300):
        n = rng.randint(1, 3)
        fo = rng.randint(0, 5)
        go = rng.randint(0, 5)
        f = random_jet(rng, n, fo)
        g = random_jet(rng, n, go)
        assert f * g == naive_mul(f, g)


def test_substitute_matches_monomial_evaluation():
    rng = seeded_rng("subst-oracle")
    for _ in range(100):
        n = rng.randint(1, 3)
        order = rng.randint(1, 5)
        f = random_jet(rng, n, order)
        images = [random_jet(rng, n, rng.randint(1, 5), zero_const=True) for _ in range(n)]
        assert f.substitute(images) == naive_substitute(f, images)


@given(jet_triples())
@settings(max_examples=60)
def test_partial_derivative_matches_power_rule(triple):
    f, _, _ = triple
    for i in range(1, f.n + 1):
        assert f.partial_derivative(i) == naive_derivative(f, i)


# -- differential structure -----------------------------------------------------


@given(jet_triples())
@settings(max_examples=60)
def test_derivative_is_a_derivation(triple):
    f, g, _ = triple
    for i in range(1, f.n + 1):
        lhs = (f * g).partial_derivative(i)
        rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
        assert lhs == rhs
        assert (f + g).partial_derivative(i) == f.partial_derivative(i) + g.partial_derivative(i)


@given(jet_triples(order_values=(2, 3, 4)))
@settings(max_examples=40)
def test_mixed_partials_commute(triple):
    f, _, _ = triple
    for i in range(1, f.n + 1):
        for j in range(i, f.n + 1):
            assert (
                f.partial_derivative(i).partial_derivative(j)
                == f.partial_derivative(j).partial_derivative(i)
            )


def test_derivative_of_order_zero_raises():
    with pytest.raises(PrecisionExhausted):
        Jet.constant(2, 0, 5).partial_derivative(1)
    with pytest.raises(IndexError):
        Jet.variable(2, 3, 1).partial_derivative(3)


# -- units ------------------------------------------------------------------------


def test_invert_unit_geometric_series():
    one_minus_x = Jet(1, 5, {(0,): 1, (1,): -1})
    expected = Jet(1, 5, {(k,): 1 for k in range(6)})
    assert one_minus_x.invert_unit() == expected


def test_invert_unit_two_sided():
    rng = seeded_rng("unit-oracle")
    count = 0
    while count < 60:
        n = rng.randint(1, 3)
        order = rng.randint(0, 5)
        f = random_jet(rng, n, order)
        if not f.constant_term:
            continue
        count += 1
        inv = f.invert_unit()
        assert inv.order == f.order
        one = Jet.constant(n, order, 1)
        assert f * inv == one
        assert inv * f == one


def test_invert_unit_requires_nonzero_constant():
    with pytest.raises(NotAUnit):
        Jet.variable(2, 3, 1).invert_unit()
    with pytest.raises(NotAUnit):
        Jet.zero(1, 2).invert_unit()


# -- the layer product -------------------------------------------------------------


def seeded_layer(rng, n: int, degree: int, w: int) -> tuple[list, int]:
    """A homogeneous layer: one to four items of total degree ``degree``,
    unsorted, over a denominator that may share factors with them."""
    items: dict = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        items[_pack(tuple(exps), w)] = rng.choice((-6, -3, -2, -1, 1, 2, 4, 5))
    return list(items.items()), rng.choice((1, 2, 3, 4, 6, 7, 9))


def test_layer_pass_matches_sorted_dot_terms():
    # A layer pass of the lifts (``_Layers.grow``) over pairs of layers whose
    # degrees add up to d, items unsorted, against a product pass over the
    # same items sorted, both capped at order d, which keeps every product.
    rng = seeded_rng("layer-dot")
    reduced = 0
    for n, d in ((1, 3), (2, 4), (3, 5), (4, 8), (2, 16)):
        w = _width(d)
        limit = _limit(d, n, w)

        def check(pairs):
            expected = _reduce(*_dot_terms([((sorted(a), da), (sorted(b), db))
                                            for (a, da), (b, db) in pairs], limit))
            terms = [(a, _Layers([_EMPTY] * d + [b])) for a, b in pairs]
            node = _Layers([_EMPTY] * d, terms=terms)
            node.grow(d, limit)
            items, den = node.layers[d]
            assert len(dict(items)) == len(items)
            assert (dict(items), den) == expected
            return items, den

        for count in (1, 1, 1, 2, 3, 6):
            pairs = []
            for _ in range(count):
                a = rng.randint(0, d)
                pairs.append((seeded_layer(rng, n, a, w), seeded_layer(rng, n, d - a, w)))
            items, den = check(pairs)
            reduced += den < math.lcm(*[da * db for (_, da), (_, db) in pairs])
            # Empty layers add nothing; each pair negated, over a scaled
            # denominator, cancels the sum to zero.
            assert check(pairs + [(_EMPTY, pairs[0][1]), (pairs[0][0], _EMPTY)]) == (items, den)
            negated = [(([(k, -3 * c) for k, c in a], 3 * da), b) for (a, da), b in pairs]
            assert check(pairs + negated) == _EMPTY
    assert check([]) == _EMPTY
    assert reduced >= 5, reduced  # the gcd step is exercised


# -- ring axioms -------------------------------------------------------------------


@given(jet_triples())
@settings(max_examples=60)
def test_ring_axioms(triple):
    f, g, h = triple
    zero = Jet.zero(f.n, f.order)
    one = Jet.constant(f.n, f.order, 1)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f - f == zero
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f
    assert f * (g + h) == f * g + f * h


@given(jet_triples(), rationals())
@settings(max_examples=40)
def test_scalar_action(triple, c):
    f, g, _ = triple
    assert c * f == f * c
    assert c * (f + g) == c * f + c * g
    assert 1 * f == f
    assert 0 * f == Jet.zero(f.n, f.order)


def test_scalar_coercion_accepts_ints_and_strings():
    f = Jet.variable(2, 3, 1)
    assert 2 * f == Jet(2, 3, {(1, 0): 2})
    assert f + 1 == Jet(2, 3, {(0, 0): 1, (1, 0): 1})
    assert "1/2" * f == Jet(2, 3, {(1, 0): Q(1, 2)})
    assert (1 - f) + f == Jet.constant(2, 3, 1)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Jet(1, 2, {(1,): 0.5})
    with pytest.raises(TypeError):
        Jet.variable(1, 2, 1) * 0.5


def test_pow():
    x = Jet.variable(1, 6, 1)
    assert (1 + x) ** 3 == Jet(1, 6, {(0,): 1, (1,): 3, (2,): 3, (3,): 1})
    assert x ** 0 == Jet.constant(1, 6, 1)
    with pytest.raises(ValueError):
        x ** -1


# -- precision discipline ------------------------------------------------------------


def test_equality_requires_matching_order():
    with pytest.raises(OrderMismatch):
        Jet.variable(1, 3, 1) == Jet.variable(1, 4, 1)


def test_equality_requires_matching_n():
    with pytest.raises(DimensionMismatch):
        Jet.variable(1, 3, 1) == Jet.variable(2, 3, 1)


def test_equal_at_compares_prefixes():
    f = Jet(1, 4, {(1,): 1, (4,): 7})
    g = Jet(1, 3, {(1,): 1, (3,): 5})
    assert f.equal_at(g, 2)
    assert not f.equal_at(g, 3)
    with pytest.raises(OrderMismatch):
        f.equal_at(g, 4)


def test_min_order_propagation():
    f = Jet(2, 5, {(1, 0): 1, (0, 5): 3})
    g = Jet(2, 2, {(0, 1): 1})
    assert (f + g).order == 2
    assert (f * g).order == 2
    assert f.partial_derivative(1).order == 4


def test_truncate():
    f = Jet(1, 4, {(0,): 1, (3,): 2, (4,): 5})
    assert f.truncate(2) == Jet(1, 2, {(0,): 1})
    assert f.truncate(4) is f
    with pytest.raises(OrderMismatch):
        f.truncate(5)
    with pytest.raises(OrderMismatch):
        f.truncate(-1)


def test_mixed_order_binary_ops_drop_to_shared_precision():
    f = Jet(1, 5, {(5,): 1, (1,): 1})
    g = Jet(1, 2, {(1,): 1})
    assert (f + g) == Jet(1, 2, {(1,): 2})
    assert f * g == Jet(1, 2, {(2,): 1})


# -- construction and inspection -------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        Jet(1, 2, {(3,): 1})
    with pytest.raises(ValueError):
        Jet(2, 2, {(1,): 1})
    with pytest.raises(ValueError):
        Jet(1, 2, {(-1,): 1})
    with pytest.raises(ValueError):
        Jet(0, 2, {})
    with pytest.raises(ValueError):
        Jet(1, -1, {})


def test_bool_is_not_an_int_here():
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Jet(2, 3, {(True, False): 1})
    with pytest.raises(ValueError):
        Jet(True, 3, {})
    with pytest.raises(ValueError):
        Jet(1, True, {})
    with pytest.raises(ValueError):
        Jet.from_dict({"n": 1, "order": 3, "terms": [{"exp": [True], "num": "1", "den": "1"}]})


def test_zero_coefficients_are_dropped():
    f = Jet(2, 3, {(1, 0): 0, (0, 1): 2})
    assert f.terms == {(0, 1): Q(2)}
    assert Jet(1, 3, {(1,): Q(0)}).is_zero


def test_m_adic_order():
    assert Jet.zero(2, 3).m_adic_order() == math.inf
    assert Jet.constant(2, 3, 4).m_adic_order() == 0
    assert Jet(2, 3, {(1, 0): 1, (1, 1): 1}).m_adic_order() == 1
    assert Jet(2, 3, {(1, 2): 1}).m_adic_order() == 3


def _probe_entries(order: int) -> st.SearchStrategy:
    """Exponents of every kind a caller may pass: ints in and past 0..order,
    bools, floats equal to ints, and other floats."""
    ints = st.integers(-2, order + 2)
    return st.one_of(ints, st.booleans(), ints.map(float),
                     st.sampled_from((-0.0, 0.5, math.inf, -math.inf, math.nan)))


@given(data=st.data(), n=st.integers(1, 3), order=st.sampled_from((0, 3, 15, 16)))
@settings(max_examples=200, deadline=None)
def test_coefficient_reads_what_terms_holds(data, n, order):
    # Orders 15 and 16 sit on either side of the 4-bit to 8-bit key layout.
    jet = data.draw(jets(n, order, max_terms=8))
    # A stored exponent tuple, each entry perhaps as a float or a bool, or
    # an arbitrary tuple of any length.
    stored = st.sampled_from(sorted(jet.terms) or [(0,) * n]).flatmap(lambda e: st.tuples(
        *[st.sampled_from((p, float(p), bool(p)) if p < 2 else (p, float(p))) for p in e]))
    exps = data.draw(st.one_of(stored, st.lists(_probe_entries(order), max_size=n + 1).map(tuple)))
    got = jet.coefficient(exps)
    assert got == jet.terms.get(exps, 0) and type(got) is Q
    assert jet.coefficient(list(exps)) == got


def test_substitute_requires_continuity_and_matching_ring():
    f = Jet.variable(2, 3, 1)
    good = [Jet.variable(2, 3, 2), Jet.variable(2, 3, 1)]
    assert f.substitute(good) == Jet.variable(2, 3, 2)
    with pytest.raises(NotContinuous):
        f.substitute([Jet.constant(2, 3, 1), Jet.variable(2, 3, 2)])
    with pytest.raises(DimensionMismatch):
        f.substitute([Jet.variable(2, 3, 1)])
    with pytest.raises(DimensionMismatch):
        f.substitute([Jet.variable(1, 3, 1), Jet.variable(1, 3, 1)])


@given(jet_triples(order_values=(2, 3)))
@settings(max_examples=30)
def test_substitution_is_a_ring_map(triple):
    f, g, _ = triple
    n, order = f.n, f.order
    rng = seeded_rng(f"ring-map-{n}-{order}")
    images = [random_jet(rng, n, order, max_terms=3, zero_const=True) for _ in range(n)]
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


def test_substitution_composes():
    rng = seeded_rng("subst-assoc")
    for _ in range(20):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        f = random_jet(rng, n, order)
        gs = [random_jet(rng, n, order, max_terms=3, zero_const=True) for _ in range(n)]
        hs = [random_jet(rng, n, order, max_terms=3, zero_const=True) for _ in range(n)]
        lhs = f.substitute(gs).substitute(hs)
        rhs = f.substitute([g.substitute(hs) for g in gs])
        assert lhs == rhs


def test_iteration_is_graded_lex_sorted():
    f = Jet(2, 3, {(0, 2): 1, (1, 0): 2, (2, 0): 3, (0, 0): 4, (1, 1): 5})
    exps = [tuple(t["exp"]) for t in f.to_dict()["terms"]]
    assert exps == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]


# -- serialization ----------------------------------------------------------------------


def test_json_round_trip():
    rng = seeded_rng("json")
    for _ in range(50):
        n = rng.randint(1, 3)
        order = rng.randint(0, 5)
        f = random_jet(rng, n, order)
        blob = json.dumps(f.to_dict())
        assert Jet.from_dict(json.loads(blob)) == f


def test_json_shape_and_ordering():
    f = Jet(2, 3, {(0, 2): Q(-1, 2), (1, 0): 2})
    d = f.to_dict()
    assert d == {
        "n": 2,
        "order": 3,
        "terms": [
            {"exp": [1, 0], "num": "2", "den": "1"},
            {"exp": [0, 2], "num": "-1", "den": "2"},
        ],
    }


def test_from_dict_validation():
    with pytest.raises(ValueError):
        Jet.from_dict({"n": 1, "order": 2})
    with pytest.raises(ValueError):
        Jet.from_dict(
            {"n": 1, "order": 2, "terms": [{"exp": [1], "num": "1", "den": "0"}]}
        )


# -- text form ----------------------------------------------------------------------------


def test_str_canonical_forms():
    assert str(Jet.zero(2, 3)) == "0"
    assert str(Jet.constant(1, 2, Q(-3, 2))) == "-3/2"
    assert str(Jet(2, 3, {(1, 0): 1, (0, 1): -1})) == "x1 - x2"
    assert str(Jet(2, 3, {(1, 1): 2, (0, 0): 1})) == "1 + 2*x1*x2"
    assert str(Jet(1, 4, {(2,): -1, (4,): Q(1, 3)})) == "-x1^2 + 1/3*x1^4"
    assert str(Jet(2, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})) == "x1^2 + x1*x2 + x2^2"


# -- matrices ------------------------------------------------------------------------------


def _matrix_from(rng, n: int, order: int) -> JetMatrix:
    return JetMatrix(tuple(
        tuple(random_jet(rng, n, order, max_terms=3) for _ in range(n))
        for _ in range(n)
    ))


def test_matrix_identity_and_matmul():
    rng = seeded_rng("matmul")
    for _ in range(20):
        n = rng.randint(1, 3)
        order = rng.randint(0, 4)
        m = _matrix_from(rng, n, order)
        eye = identity_matrix(n, order)
        assert m @ eye == m
        assert eye @ m == m


def test_det_is_multiplicative():
    rng = seeded_rng("det-mult")
    for _ in range(25):
        n = rng.randint(1, 3)
        order = rng.randint(0, 4)
        a = _matrix_from(rng, n, order)
        b = _matrix_from(rng, n, order)
        assert (a @ b).det() == a.det() * b.det()


def test_det_closed_forms():
    x1 = Jet.variable(2, 3, 1)
    x2 = Jet.variable(2, 3, 2)
    one = Jet.constant(2, 3, 1)
    m = JetMatrix(((one, x1), (x2, one)))
    assert m.det() == one - x1 * x2
    assert identity_matrix(3, 2).det() == Jet.constant(3, 2, 1)


def test_matrix_validation():
    with pytest.raises(DimensionMismatch):
        JetMatrix(((Jet.zero(2, 3),),))
    with pytest.raises(OrderMismatch):
        JetMatrix(((Jet.zero(2, 3), Jet.zero(2, 3)),
                   (Jet.zero(2, 3), Jet.zero(2, 2))))
    with pytest.raises(ValueError):
        JetMatrix(())
