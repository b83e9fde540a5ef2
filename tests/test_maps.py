"""Formal maps: composition group laws, Jacobians, inversion, flows."""

from __future__ import annotations

import gc
import random

import pytest

from conftest import identity_matrix, seeded_rng
from jetfields import (
    Derivation,
    DimensionMismatch,
    FormalMap,
    Jet,
    JetMatrix,
    NotContinuous,
    NotNilpotent,
    OrderMismatch,
    PrecisionExhausted,
    Q,
    SingularMatrix,
    exp_flow,
    identity_map,
    matrix_inverse,
    random_automorphism,
    random_const_jacobian,
    random_divergence_free,
    random_field,
)
from jetfields import jets, linalg
from jetfields.maps import _rand_jet, _rand_monomial, _rand_rational


def _sigma(order: int = 4) -> FormalMap:
    # x1 -> x1, x2 -> x2 + x1^2
    return FormalMap(2, order, (
        Jet(2, order, {(1, 0): 1}),
        Jet(2, order, {(0, 1): 1, (2, 0): 1}),
    ))


GRID = [(n, order) for n in (1, 2, 3) for order in (3, 4, 5)]


# -- frozen worked cases -----------------------------------------------------


def test_jacobian_convention():
    j = _sigma().jacobian_matrix()
    assert j.order == 3
    assert j.rows[0][0] == Jet.constant(2, 3, 1)
    assert j.rows[0][1] == Jet(2, 3, {(1, 0): 2})  # d(image 2)/d(x1) = 2 x1
    assert j.rows[1][0] == Jet.zero(2, 3)
    assert j.rows[1][1] == Jet.constant(2, 3, 1)
    assert _sigma().jacobian_det() == Jet.constant(2, 3, 1)


def test_invert_closed_form():
    inv = _sigma().invert()
    assert inv.images[0] == Jet(2, 4, {(1, 0): 1})
    assert inv.images[1] == Jet(2, 4, {(0, 1): 1, (2, 0): -1})


def test_compose_closed_form():
    s = _sigma()
    ss = s.compose(s)
    assert ss.images[0] == Jet(2, 4, {(1, 0): 1})
    assert ss.images[1] == Jet(2, 4, {(0, 1): 1, (2, 0): 2})


def test_compose_orientation():
    # apply(compose(s, t), f) == apply(s, apply(t, f)) on a case where the
    # two orientations disagree.
    s = _sigma()
    t = _linear_map([[0, 1], [1, 0]], 4)  # swap x1, x2
    f = Jet.variable(2, 4, 2)
    assert s.compose(t).apply(f) == s.apply(t.apply(f))
    assert s.compose(t).apply(f) != t.apply(s.apply(f))


# -- group laws ---------------------------------------------------------------


def test_identity_is_neutral():
    rng = seeded_rng("maps-id")
    for n, order in GRID:
        s = random_automorphism(n, order, rng)
        e = identity_map(n, order)
        assert s.compose(e) == s
        assert e.compose(s) == s
        assert e.apply(Jet.variable(n, order, 1)) == Jet.variable(n, order, 1)


def test_compose_is_associative():
    rng = seeded_rng("maps-assoc")
    for n, order in GRID:
        a = random_automorphism(n, order, rng)
        b = random_automorphism(n, order, rng)
        c = random_automorphism(n, order, rng)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_invert_round_trip():
    rng = seeded_rng("maps-inv")
    for n, order in GRID:
        s = random_automorphism(n, order, rng)
        inv = s.invert()
        e = identity_map(n, order)
        assert s.compose(inv) == e
        assert inv.compose(s) == e


def test_invert_rejects_singular_linear_part():
    squash = FormalMap(2, 3, (Jet(2, 3, {(1, 0): 1}), Jet(2, 3, {(1, 0): 1})))
    assert not squash.is_automorphism
    with pytest.raises(SingularMatrix):
        squash.invert()


def test_invert_work_grows_quadratically_in_one_variable(monkeypatch):
    # Summed operand-length products over every product pass of one lift in
    # one variable: the inverse of x1 -> x1 + x1^2 and of the dense unit
    # 1 + x1 + ... + x1^N.  Each layer is one pass over the layers below it,
    # so the work grows at most as N^2 (ratio 4 from N = 40 to 80).  Redoing
    # a full substitution at every order, or summing a geometric series of
    # dense powers, grows as N^3 (ratio 8).
    work = []
    real = jets._dot_terms

    def counting(pairs, limit):
        work[-1] += sum(len(a) * len(b) for (a, _), (b, _) in pairs)
        return real(pairs, limit)

    monkeypatch.setattr(jets, "_dot_terms", counting)
    lifts = [
        lambda order: FormalMap(1, order, (Jet(1, order, {(1,): 1, (2,): 1}),)).invert(),
        lambda order: Jet(1, order, {(k,): 1 for k in range(order + 1)}).invert_unit(),
    ]
    for lift in lifts:
        work.clear()
        for order in (40, 80):
            work.append(0)
            lift(order)
        assert work[1] <= 5 * work[0], work


def test_lifts_leave_no_cyclic_garbage():
    # The lifted series link to themselves, to each other and to their
    # readers; the lift drops those links, so reference counting frees them.
    sigma = random_automorphism(3, 5, seeded_rng("lift-garbage"))
    jac = sigma.jacobian_matrix()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for lift in (sigma.invert, lambda: matrix_inverse(jac), jac.det().invert_unit):
            lift()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_chain_rule_style_pullback():
    rng = seeded_rng("maps-pullback")
    for n, order in GRID:
        s = random_automorphism(n, order, rng)
        t = random_automorphism(n, order, rng)
        f = Jet(n, order, {tuple(2 if k == 0 else 0 for k in range(n)): Q(1, 2)})
        assert s.compose(t).apply(f) == s.apply(t.apply(f))


# -- Jacobians ------------------------------------------------------------------


def test_jacobian_of_linear_map_is_its_transpose():
    a = [[1, 2], [3, 4]]
    j = _linear_map(a, 3).jacobian_matrix()
    for i in range(2):
        for k in range(2):
            assert j.rows[i][k] == Jet.constant(2, 2, a[k][i])


def test_jacobian_det_multiplicative_under_compose():
    # det J(s.compose(t)) == apply(s.compose(t)... exercised fully by the
    # suite; here a direct spot check that composing with a shear keeps det.
    rng = seeded_rng("maps-det")
    for n, order in [(2, 4), (3, 4)]:
        s = random_const_jacobian(n, order, rng)
        d = s.jacobian_det()
        assert d == Jet.constant(n, order - 1, d.constant_term)
        assert s.is_constant_jacobian()


def test_is_constant_jacobian_negative():
    bend = FormalMap(2, 4, (
        Jet(2, 4, {(1, 0): 1, (1, 1): 1}),
        Jet(2, 4, {(0, 1): 1}),
    ))
    assert not bend.is_constant_jacobian()
    with pytest.raises(PrecisionExhausted):
        identity_map(2, 1).is_constant_jacobian()


def test_matrix_inverse():
    rng = seeded_rng("matinv")
    for _ in range(15):
        n = rng.randint(1, 3)
        order = rng.randint(0, 4)
        s = random_automorphism(n, max(order, 1), rng)
        rows = []
        for i in range(n):
            rows.append(tuple(
                img.partial_derivative(i + 1) if max(order, 1) > 0 else img
                for img in s.images
            ))
        m = JetMatrix(tuple(rows))
        eye = identity_matrix(n, m.order)
        inv = matrix_inverse(m)
        assert m @ inv == eye
        assert inv @ m == eye


def test_matrix_inverse_rejects_singular_constant_part():
    x = Jet.variable(1, 3, 1)
    with pytest.raises(SingularMatrix):
        matrix_inverse(JetMatrix(((x,),)))


# -- shears ------------------------------------------------------------------------


def test_shear_closed_form():
    # x1 -> x1 + x2^2, x2 -> x2
    s = FormalMap(2, 4, (Jet(2, 4, {(1, 0): 1, (0, 2): 1}), Jet.variable(2, 4, 2)))
    assert s.jacobian_det() == Jet.constant(2, 3, 1)
    inv = s.invert()
    assert inv.images[0] == Jet(2, 4, {(1, 0): 1, (0, 2): -1})


# -- flows ---------------------------------------------------------------------------


def test_exp_flow_univariate_closed_form():
    # Flow of x^2 d/dx: x + x^2 + x^3 + ... up to the truncation order.
    d = Derivation(1, 3, (Jet(1, 3, {(2,): 1}),))
    s = exp_flow(d)
    assert s.images[0] == Jet(1, 3, {(1,): 1, (2,): 1, (3,): 1})


def test_exp_flow_inverse_is_flow_of_negation():
    rng = seeded_rng("flow-inv")
    for n, order in [(1, 4), (2, 4), (3, 5)]:
        coeffs = []
        for i in range(n):
            exps = tuple(2 if k == i else 0 for k in range(n))
            coeffs.append(Jet(n, order, {exps: Q(rng.randint(-2, 2), 2)}))
        d = Derivation(n, order, tuple(coeffs))
        assert exp_flow(d).compose(exp_flow(d * -1)) == identity_map(n, order)


def test_exp_flow_requires_adic_order_two():
    with pytest.raises(NotNilpotent):
        exp_flow(Derivation(1, 3, (Jet(1, 3, {(1,): 1}),)))
    with pytest.raises(NotNilpotent):
        exp_flow(Derivation(2, 3, (Jet.constant(2, 3, 1), Jet.zero(2, 3))))


# -- validation and serialization --------------------------------------------------------


def test_map_constructor_validation():
    x1 = Jet.variable(2, 3, 1)
    with pytest.raises(NotContinuous):
        FormalMap(2, 3, (x1 + 1, Jet.variable(2, 3, 2)))
    with pytest.raises(DimensionMismatch):
        FormalMap(2, 3, (x1,))
    with pytest.raises(OrderMismatch):
        FormalMap(2, 3, (x1, Jet.variable(2, 2, 2)))
    with pytest.raises(ValueError):
        FormalMap(1, 0, (Jet.zero(1, 0),))


def test_map_equality_and_truncate():
    s = _sigma(4)
    assert s.truncate(3) == _sigma(3)
    assert s.equal_at(identity_map(2, 4), 1)
    assert not s.equal_at(identity_map(2, 4), 2)
    with pytest.raises(OrderMismatch):
        s == _sigma(3)


def test_map_serialization_round_trip():
    rng = seeded_rng("maps-json")
    for n, order in GRID:
        s = random_automorphism(n, order, rng)
        assert FormalMap.from_dict(s.to_dict()) == s


def test_map_str():
    assert str(_sigma()) == "x1 -> x1; x2 -> x2 + x1^2"
    assert str(identity_map(1, 2)) == "x1 -> x1"


# -- samplers ------------------------------------------------------------------------------


def test_samplers_are_deterministic():
    for n, order in GRID:
        a = random_automorphism(n, order, 99)
        b = random_automorphism(n, order, 99)
        c = random_automorphism(n, order, 100)
        assert a == b
        if n >= 2:
            assert a != c
        assert random_const_jacobian(n, order, 5) == random_const_jacobian(n, order, 5)


def test_sampled_maps_are_automorphisms():
    rng = seeded_rng("sampler-auto")
    for n, order in GRID:
        for _ in range(5):
            assert random_automorphism(n, order, rng).is_automorphism
            cj = random_const_jacobian(n, order, rng)
            assert cj.is_automorphism
            if order >= 2:
                assert cj.is_constant_jacobian()


def _linear_part(fmap: FormalMap) -> list[list[Q]]:
    """The matrix A with image_i = sum_j A[i][j] x_j + higher order."""
    rows = fmap._degree_one()[1]
    return [[Q(c, img._den) for c in row] for row, img in zip(rows, fmap.images)]


def test_linear_part_matches_coefficients():
    def by_coefficient(fmap):
        unit = [tuple(int(k == j) for k in range(fmap.n)) for j in range(fmap.n)]
        return [[img.coefficient(e) for e in unit] for img in fmap.images]

    rng = seeded_rng("linear-part")
    maps = [_linear_map([[2, "1/3"], [0, -1]], 300)]  # wider key layout
    for n, order in GRID:
        for _ in range(5):
            maps.append(random_automorphism(n, order, rng))
            maps.append(random_const_jacobian(n, order, rng))
            maps.append(_random_shear(n, order, rng))
    for fmap in maps:
        assert _linear_part(fmap) == by_coefficient(fmap)
    assert _linear_part(identity_map(3, 2)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _linear_part(_linear_map([[0, 0], [0, "5/7"]], 3)) == [[0, 0], [0, Q(5, 7)]]


def test_random_shear_fixes_target_coordinate():
    rng = seeded_rng("sampler-shear")
    for _ in range(10):
        s = _random_shear(3, 4, rng, target=2)
        assert s.images[1].terms.get((0, 1, 0)) == Q(1)
        assert s.jacobian_det() == Jet.constant(3, 3, 1)


_MAP_SAMPLERS = [random_automorphism, random_const_jacobian]


@pytest.mark.parametrize("sampler, n, order, match", [
    pytest.param(sampler, n, order, r"^(variable count|truncation order) must be a",
                 id=f"{n}-{order}-{sampler.__name__}")
    for n, order in [(2, "3"), (2.0, 3), (True, 3), (0, 3), (-1, 3), (2, -1)]
    for sampler in _MAP_SAMPLERS + [random_field, random_divergence_free]
] + [
    # Maps need order >= 1, though jets and fields accept order 0.
    pytest.param(sampler, 2, 0, r"^maps need truncation order >= 1, got 0$",
                 id=f"2-0-{sampler.__name__}")
    for sampler in _MAP_SAMPLERS
])
def test_samplers_check_the_ring_before_drawing(sampler, n, order, match):
    rng = random.Random(0)
    with pytest.raises(ValueError, match=match):
        sampler(n, order, rng)
    assert rng.random() == random.Random(0).random()


def _linear_map(matrix, order: int) -> FormalMap:
    """The map x_i -> sum_j matrix[i][j] x_j (not necessarily invertible)."""
    n = len(matrix)
    # Jet drops the zero entries.
    return FormalMap(n, order, tuple(
        Jet(n, order, {tuple(int(k == j) for k in range(n)): v for j, v in enumerate(row)})
        for row in matrix
    ))


def _random_shear(n: int, order: int, rng: random.Random, target: int | None = None) -> FormalMap:
    """A random shear x_i -> x_i + d; identity when n or the order leaves no room for one.

    ``i`` is ``target`` when given and drawn otherwise.  The displacement d
    sums one or two terms of degree 2..order free of x_i, each p/q times a
    monomial with p in -2..2 nonzero and q in {1, 2}.
    """
    if n < 2 or order < 2:
        return identity_map(n, order)
    i = target if target is not None else rng.randint(1, n)
    images = list(identity_map(n, order).images)
    images[i - 1] = images[i - 1] + _rand_jet(rng, n, order, 2, rng.randint(1, 2), avoid=i - 1)
    return FormalMap(n, order, tuple(images))


def _reference_sample(n: int, order: int, rng: random.Random, automorphism: bool) -> FormalMap:
    # The samplers' maps built from whole maps, composed one after another:
    # linear part, two shears, then the flow of a divergence-free field or
    # two tail terms per image.
    while True:
        a = [[_rand_rational(rng) for _ in range(n)] for _ in range(n)]
        if linalg.det(a):
            break
    ref = _linear_map(a, order)
    for k in range(2):
        ref = ref.compose(_random_shear(n, order, rng, target=k % n + 1))
    if not automorphism:
        return ref.compose(exp_flow(random_divergence_free(n, order, rng)))
    images = list(ref.images)
    if order >= 2:
        for i in range(n):
            tail: dict = {}
            for _ in range(2):
                exps = _rand_monomial(rng, n, 2, order)
                tail[exps] = tail.get(exps, 0) + _rand_rational(rng)
            images[i] = images[i] + Jet(n, order, tail)
    return FormalMap(n, order, tuple(images))


@pytest.mark.parametrize("sampler, automorphism", [
    (random_automorphism, True), (random_const_jacobian, False),
])
def test_samplers_match_composed_reference(sampler, automorphism):
    cells = [(n, order, seed) for n in (1, 2, 3) for order in range(1, 6) for seed in range(4)]
    cells += [(4, 8, seed) for seed in range(2)]
    for n, order, seed in cells:
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = sampler(n, order, got_rng)
        assert got == _reference_sample(n, order, ref_rng, automorphism), (n, order, seed)
        assert got_rng.random() == ref_rng.random(), (n, order, seed)


def test_univariate_samplers_degenerate_to_linear():
    s = random_const_jacobian(1, 5, 3)
    img = s.images[0]
    assert set(img.terms) == {(1,)}
