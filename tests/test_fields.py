"""Formal vector fields: derivation laws, brackets, divergence, transport."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import derivations, jets, seeded_rng
from jetfields import (
    Derivation,
    DimensionMismatch,
    FormalMap,
    Jet,
    NonConstantDivergence,
    PrecisionExhausted,
    Q,
    centralizes_partials,
    classify_divergence,
    coordinate_frame,
    decompose_const_div,
    euler_field,
    matrix_inverse,
    parse_field,
    partial_field,
    pushforward,
    random_automorphism,
    random_divergence_free,
    random_field,
)


def _sigma(order: int = 4) -> FormalMap:
    return FormalMap(2, order, (
        Jet(2, order, {(1, 0): 1}),
        Jet(2, order, {(0, 1): 1, (2, 0): 1}),
    ))


GRID = [(n, order) for n in (1, 2, 3) for order in (3, 4, 5)]


# -- derivation laws ------------------------------------------------------------


@given(derivations(), jets(2, 3), jets(2, 3))
@settings(max_examples=50)
def test_apply_is_a_derivation(d, f, g):
    if d.n != f.n:
        d = Derivation(f.n, f.order, tuple(
            Jet(f.n, f.order, {}) for _ in range(f.n)
        ))
    assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)
    assert d.apply(f + g) == d.apply(f) + d.apply(g)


def test_apply_known_value():
    d = Derivation(2, 3, (Jet.variable(2, 3, 2), Jet.constant(2, 3, 1)))
    f = Jet(2, 3, {(2, 0): 1})  # x1^2
    assert d.apply(f) == Jet(2, 2, {(1, 1): 2})


def test_apply_requires_positive_order():
    d = partial_field(1, 3, 1)
    with pytest.raises(PrecisionExhausted):
        d.apply(Jet.constant(1, 0, 5))


# -- brackets ----------------------------------------------------------------------


def test_bracket_is_commutator_of_actions():
    rng = seeded_rng("bracket-comm")
    for n, order in GRID:
        d = random_field(n, order, rng)
        e = random_field(n, order, rng)
        f = random_field(n, order, rng).coefficients[0]
        lhs = d.bracket(e).apply(f)
        rhs = d.apply(e.apply(f)) - e.apply(d.apply(f))
        assert lhs.truncate(rhs.order) == rhs


def test_bracket_antisymmetric_and_bilinear():
    rng = seeded_rng("bracket-anti")
    for n, order in GRID:
        d = random_field(n, order, rng)
        e = random_field(n, order, rng)
        g = random_field(n, order, rng)
        assert d.bracket(e) == e.bracket(d) * -1
        assert d.bracket(d).is_zero
        assert (d + g).bracket(e) == d.bracket(e) + g.bracket(e)
        assert (d * Q(3, 2)).bracket(e) == d.bracket(e) * Q(3, 2)


def test_jacobi_identity():
    rng = seeded_rng("jacobi")
    for n, order in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        d = random_field(n, order, rng)
        e = random_field(n, order, rng)
        f = random_field(n, order, rng)
        total = (
            d.bracket(e).bracket(f)
            + e.bracket(f).bracket(d)
            + f.bracket(d).bracket(e)
        )
        assert total.is_zero
        assert total.order == order - 2


def test_coordinate_fields_commute():
    for i in range(1, 4):
        for j in range(1, 4):
            assert partial_field(3, 4, i).bracket(partial_field(3, 4, j)).is_zero


# -- divergence -----------------------------------------------------------------------


def test_divergence_known_value():
    d = Derivation(2, 4, (Jet(2, 4, {(2, 0): 1}), Jet(2, 4, {(1, 1): 1})))
    assert d.divergence() == Jet(2, 3, {(1, 0): 3})


def test_divergence_is_linear():
    rng = seeded_rng("div-linear")
    for n, order in GRID:
        d = random_field(n, order, rng)
        e = random_field(n, order, rng)
        assert (d + e).divergence() == d.divergence() + e.divergence()


def test_divergence_of_bracket():
    rng = seeded_rng("div-bracket")
    for n, order in [(2, 4), (3, 4), (3, 5)]:
        d = random_field(n, order, rng)
        e = random_field(n, order, rng)
        lhs = d.bracket(e).divergence()
        rhs = d.apply(e.divergence()) - e.apply(d.divergence())
        assert lhs == rhs


def test_euler_and_partial_fields():
    assert euler_field(3, 4, 2).divergence() == Jet.constant(3, 3, 1)
    assert partial_field(3, 4, 1).divergence() == Jet.zero(3, 3)
    assert partial_field(2, 4, 1).bracket(euler_field(2, 4, 1)) == partial_field(2, 3, 1)
    with pytest.raises(IndexError):
        euler_field(2, 3, 3)


# -- transport ----------------------------------------------------------------------------


def test_pushforward_closed_form():
    d = pushforward(_sigma(), partial_field(2, 4, 1))
    assert d.order == 3
    assert d.coefficients[0] == Jet.constant(2, 3, 1)
    assert d.coefficients[1] == Jet(2, 3, {(1, 0): -2})
    assert str(d) == "(1)*d1 + (-2*x1)*d2"


def test_pushforward_round_trip():
    rng = seeded_rng("push-round")
    for n, order in [(1, 4), (2, 4), (2, 5), (3, 4)]:
        s = random_automorphism(n, order, rng)
        d = random_field(n, order, rng)
        back = pushforward(s.invert(), pushforward(s, d))
        assert back.equal_at(d, order - 2)


def test_pushforward_is_linear():
    rng = seeded_rng("push-linear")
    s = random_automorphism(2, 4, rng)
    jinv = matrix_inverse(s.jacobian_matrix())
    d = random_field(2, 4, rng)
    e = random_field(2, 4, rng)
    lhs = pushforward(s, d + e, jinv)
    assert lhs == pushforward(s, d, jinv) + pushforward(s, e, jinv)


def test_pushforward_needs_room():
    from jetfields import identity_map

    with pytest.raises(PrecisionExhausted):
        pushforward(identity_map(2, 1), partial_field(2, 1, 1))
    with pytest.raises(DimensionMismatch):
        pushforward(_sigma(3), partial_field(1, 3, 1))


def test_coordinate_frame_duality():
    rng = seeded_rng("frame")
    for n, order in [(2, 4), (3, 4), (3, 5)]:
        s = random_automorphism(n, order, rng)
        frame = coordinate_frame(s)
        assert frame[0] == pushforward(s, partial_field(n, order, 1))
        for i, g in enumerate(frame):
            for k, img in enumerate(s.images):
                expected = Jet.constant(n, order - 1, 1 if i == k else 0)
                assert g.apply(img) == expected


# -- divergence classification ----------------------------------------------------------------


def test_classify_divergence_kinds():
    n, order = 2, 4
    zero = classify_divergence(random_divergence_free(n, order, 3))
    assert zero.kind == "zero" and zero.value == 0 and zero.is_constant
    const = classify_divergence(euler_field(n, order, 1) * 2)
    assert const.kind == "constant" and const.value == 2
    assert const.verdict_order == order - 1
    bent = classify_divergence(
        Derivation(2, 4, (Jet(2, 4, {(2, 0): 1}), Jet.zero(2, 4)))
    )
    assert bent.kind == "nonconstant" and bent.value is None
    assert not bent.is_constant
    # A field of order 1 has its divergence, and so its verdict, at order 0.
    assert classify_divergence(partial_field(2, 1, 1)).verdict_order == 0


def test_decompose_const_div():
    d = Derivation(2, 4, (Jet.variable(2, 4, 1), Jet.variable(2, 4, 2)))
    rest, c = decompose_const_div(d)
    assert c == 2
    assert rest.coefficients[0] == Jet(2, 4, {(1, 0): -1})
    assert rest.coefficients[1] == Jet.variable(2, 4, 2)
    assert rest + euler_field(2, 4, 1) * c == d
    assert classify_divergence(rest).kind == "zero"


def test_decompose_const_div_random():
    rng = seeded_rng("decompose")
    for n, order in [(2, 4), (3, 4), (3, 5)]:
        base = random_divergence_free(n, order, rng)
        c = Q(rng.randint(-3, 3), rng.choice((1, 2)))
        d = base + euler_field(n, order, 1) * c
        rest, got = decompose_const_div(d)
        assert got == c
        assert rest == base
    with pytest.raises(NonConstantDivergence):
        decompose_const_div(
            Derivation(2, 4, (Jet(2, 4, {(2, 0): 1}), Jet.zero(2, 4)))
        )


def test_centralizes_partials():
    assert centralizes_partials(partial_field(2, 3, 1) + partial_field(2, 3, 2) * 3)
    assert not centralizes_partials(euler_field(2, 3, 1))
    with pytest.raises(PrecisionExhausted):
        centralizes_partials(partial_field(2, 1, 1))


# -- samplers and plumbing -----------------------------------------------------------------------


def test_random_divergence_free_is_divergence_free():
    rng = seeded_rng("divfree")
    for n, order in GRID:
        d = random_divergence_free(n, order, rng)
        assert d.divergence().is_zero
        for c in d.coefficients:
            assert c.m_adic_order() >= 2


def test_univariate_divergence_free_is_zero():
    assert random_divergence_free(1, 5, 11).is_zero


def test_samplers_deterministic():
    for n, order in GRID:
        assert random_field(n, order, 7) == random_field(n, order, 7)
        assert random_divergence_free(n, order, 7) == random_divergence_free(n, order, 7)


def test_field_validation_and_serialization():
    with pytest.raises(DimensionMismatch):
        Derivation(2, 3, (Jet.zero(2, 3),))
    with pytest.raises(DimensionMismatch):
        Derivation(2, 3, (Jet.zero(1, 3), Jet.zero(1, 3)))
    rng = seeded_rng("field-json")
    for n, order in GRID:
        d = random_field(n, order, rng)
        assert Derivation.from_dict(d.to_dict()) == d
    assert str(parse_field("0", 2, 3)) == "0"


def test_field_equality_discipline():
    from jetfields import OrderMismatch

    with pytest.raises(OrderMismatch):
        parse_field("0", 2, 3) == parse_field("0", 2, 4)
    assert parse_field("0", 2, 4).truncate(3) == parse_field("0", 2, 3)
    assert euler_field(2, 4, 1).equal_at(euler_field(2, 3, 1), 3)
