"""The precision ledger, probed from outside the kernel.

An operand of order o says nothing about its terms above degree o, so an
operation may claim no more than what those terms cannot reach.  Each
case lifts every operand to order o + 2, with random terms in the two new
degrees, and recomputes:

* soundness: the recomputed result agrees with the original through the
  order the original claims, for every lift;
* tightness: over a seeded batch, two lifts of some input disagree at the
  claim + 1, so no larger claim would be honest.

The cases cover ``substitute`` (with images below f's order), ``compose``,
``apply_matrix``, ``pushforward``, the derivation action ``apply`` and
``bracket``, the three operations built on the relaxed lift:
``FormalMap.invert``, ``matrix_inverse`` and ``Jet.invert_unit``, the
jet product ``*``, ``partial_derivative`` and ``JetMatrix.det``, and
``jacobian_matrix``, ``divergence`` and ``exp_flow``.  They
run at small orders and across the 15 <-> 16 key-layout boundary, where a
lifted operand is repacked.  The suite's evaluators are checked for
soundness too: each side of a trial holds through the trial's verdict order
when its inputs are lifted.  For C1-C4 the verdict order is checked to be
tight as well: some lift moves a side at the verdict order + 1.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from jetfields import (
    CHECK_IDS,
    CHECKS,
    Derivation,
    FormalMap,
    Jet,
    JetMatrix,
    Q,
    exp_flow,
    matrix_inverse,
    pushforward,
    random_automorphism,
)
from jetfields.suite import _verdict

# Orders 14..16 put a claim or a lift across the 15 <-> 16 layout boundary,
# and orders 254..256 across the 255 <-> 256 one, past which the key width
# is order.bit_length() (``jets._width``).
ORDERS = (1, 2, 3, 4, 5, 14, 15, 16)
BOUNDARY = (14, 15, 16)
WIDE = (254, 255, 256)


def terms(rng: random.Random, n: int, lo: int, hi: int, count: int) -> dict:
    """``count`` random terms of degree lo..hi (none when hi < lo)."""
    out = {}
    for _ in range(count if lo <= hi else 0):
        exps = [0] * n
        for _ in range(rng.randint(lo, hi)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = Q(rng.randint(1, 5) * rng.choice((-1, 1)), rng.randint(1, 3))
    return out


def lift(rng: random.Random, value):
    """``value`` with every jet raised two orders by random terms in the new degrees."""
    if isinstance(value, Jet):
        order = value.order + 2
        return Jet(value.n, order, {**value.terms,
                                    **terms(rng, value.n, value.order + 1, order, 2)})
    if isinstance(value, JetMatrix):
        return JetMatrix([[lift(rng, e) for e in row] for row in value.rows])
    if isinstance(value, list):
        return [lift(rng, v) for v in value]
    jets = value.images if isinstance(value, FormalMap) else value.coefficients
    return type(value)(value.n, value.order + 2, tuple(lift(rng, j) for j in jets))


def shape(rng: random.Random, count: int, orders) -> tuple[int, list[int]]:
    """A variable count and ``count`` orders; two variables at most past
    order 5, and one past order 16."""
    picked = [rng.choice(orders) for _ in range(count)]
    top = max(picked)
    return rng.randint(1, 3 if top <= 5 else 2 if top <= 16 else 1), picked


def image(rng: random.Random, n: int, order: int, i: int) -> Jet:
    # A linear term, so that a change in f's top degree shows in f(images).
    return Jet(n, order, {**terms(rng, n, 1, order, 2),
                          tuple(int(j == i) for j in range(n)): Q(rng.randint(1, 3))})


def substitute_case(rng, orders):
    n, (a, *orders) = shape(rng, 1 + 3, orders)
    orders[0] = rng.randint(1, a)  # at or below f's order
    f = Jet(n, a, terms(rng, n, 0, a, 4))
    images = [image(rng, n, orders[i], i) for i in range(n)]
    return (f, images), lambda f, images: f.substitute(images), min(a, *orders[:n])


def compose_case(rng, orders):
    n, (p, q) = shape(rng, 2, orders)
    sigma, tau = (random_automorphism(n, k, rng.randrange(10 ** 6)) for k in (p, q))
    return (sigma, tau), lambda s, t: s.compose(t), min(p, q)


def apply_matrix_case(rng, orders):
    n, (p, r) = shape(rng, 2, orders)
    sigma = random_automorphism(n, p, rng.randrange(10 ** 6))
    m = JetMatrix(tuple(tuple(Jet(n, r, terms(rng, n, 0, r, 2)) for _ in range(n))
                        for _ in range(n)))
    return (sigma, m), lambda s, m: s.apply_matrix(m), min(p, r)


def pushforward_case(rng, orders):
    n, (p, r) = shape(rng, 2, (0, *orders))
    p = max(p, 2)  # pushforward claims nothing along a map of order 1
    sigma = random_automorphism(n, p, rng.randrange(10 ** 6))
    return (sigma, dense_field(rng, n, r)), pushforward, min(r, p - 1)


def linear(rng: random.Random, n: int) -> dict:
    """A nonzero term x_i for every variable."""
    return {tuple(int(j == i) for j in range(n)): Q(rng.randint(1, 3)) for i in range(n)}


def dense_field(rng: random.Random, n: int, order: int) -> Derivation:
    # A nonzero constant in every coefficient, so that a lift of the other
    # operand's top degree reaches the claim + 1 in each case that uses it.
    return Derivation(n, order, tuple(
        Jet(n, order, {**terms(rng, n, 1, order, 3), (0,) * n: Q(rng.randint(1, 3))})
        for _ in range(n)))


def apply_case(rng, orders):
    # X(f) at degree c + 1 takes X's constants times the lift of f's degree
    # c + 2 when c = f.order - 1, and the lift of X's degree c + 1 times f's
    # linear terms when c = X.order.
    n, (p, q) = shape(rng, 2, orders)
    f = Jet(n, q, {**terms(rng, n, 0, q, 3), **linear(rng, n)})
    return (dense_field(rng, n, p), f), lambda x, f: x.apply(f), min(p, q - 1)


def bracket_case(rng, orders):
    # [X, Y] at degree k + 1 = min(orders) takes the constants of the field
    # of higher order times the lift of the other field's degree k + 2.
    n, (p, q) = shape(rng, 2, orders)
    x, y = dense_field(rng, n, p), dense_field(rng, n, q)
    return (x, y), lambda x, y: x.bracket(y), min(p, q) - 1


def unit(rng: random.Random, n: int, order: int, constant: Q) -> Jet:
    """A dense jet: ``constant`` plus random terms of degree 1..order."""
    return Jet(n, order, {**terms(rng, n, 1, order, 3), (0,) * n: constant})


def invert_case(rng, orders):
    # A linear part with a nonzero diagonal and below it, and random terms
    # of degree 2..p: the lift of sigma's degree p + 1 reaches the inverse's
    # at p + 1 through A^-1.
    n, (p,) = shape(rng, 1, orders)
    images = []
    for i in range(n):
        linear = {tuple(int(k == j) for k in range(n)): Q(rng.randint(-2, 2))
                  for j in range(i)}
        linear[tuple(int(k == i) for k in range(n))] = Q(rng.randint(1, 3))
        images.append(Jet(n, p, {**terms(rng, n, 2, p, 3), **linear}))
    return (FormalMap(n, p, tuple(images)),), lambda s: s.invert(), p


def dense_matrix(rng: random.Random, n: int, order: int) -> JetMatrix:
    """Dense entries whose constants form an invertible lower-triangular matrix."""
    return JetMatrix(tuple(tuple(
        unit(rng, n, order, Q(rng.randint(1, 3)) if i == j else Q(rng.randint(-2, 2) * (j < i)))
        for j in range(n)) for i in range(n)))


def matrix_inverse_case(rng, orders):
    # The lift of M's degree r + 1 reaches M^-1's through C^-1.
    n, (r,) = shape(rng, 1, orders)
    return (dense_matrix(rng, n, r),), matrix_inverse, r


def det_case(rng, orders):
    # The lift of an entry's degree r + 1 reaches det at r + 1 through its
    # cofactor's constant; the cofactors of a diagonal entry are nonzero.
    n, (r,) = shape(rng, 1, orders)
    return (dense_matrix(rng, n, r),), JetMatrix.det, r


def mul_case(rng, orders):
    # Both factors have constants, so the lift of either factor's degree
    # min(p, q) + 1 reaches the product there.
    n, (p, q) = shape(rng, 2, orders)
    f, g = (unit(rng, n, k, Q(rng.randint(1, 3))) for k in (p, q))
    return (f, g), lambda f, g: f * g, min(p, q)


def partial_derivative_case(rng, orders):
    # The lift's terms of degree q + 1 in x_i reach the partial at q.
    n, (q,) = shape(rng, 1, orders)
    i = rng.randint(1, n)
    return (unit(rng, n, q, Q(1)),), lambda f: f.partial_derivative(i), q - 1


def invert_unit_case(rng, orders):
    n, (q,) = shape(rng, 1, orders)
    f = unit(rng, n, q, Q(rng.randint(1, 3) * rng.choice((-1, 1)), rng.randint(1, 2)))
    return (f,), lambda f: f.invert_unit(), q


def jacobian_matrix_case(rng, orders):
    # The lift of an image's degree p + 1 reaches its partials at p.
    n, (p,) = shape(rng, 1, orders)
    sigma = random_automorphism(n, p, rng.randrange(10 ** 6))
    return (sigma,), FormalMap.jacobian_matrix, p - 1


def divergence_case(rng, orders):
    # The lift of a coefficient's degree r + 1 reaches the divergence at r.
    n, (r,) = shape(rng, 1, orders)
    return (dense_field(rng, n, r),), Derivation.divergence, r - 1


def exp_flow_case(rng, orders):
    # Coefficients of adic order >= 2, as the flow needs; the lift of a
    # coefficient's degree r + 1 reaches its image at r + 1 in the flow's
    # first-order term.
    n, (r,) = shape(rng, 1, orders)
    field = Derivation(n, r, tuple(Jet(n, r, terms(rng, n, 2, r, 3)) for _ in range(n)))
    return (field,), exp_flow, field.order


CASES = {
    "substitute": substitute_case,
    "compose": compose_case,
    "apply_matrix": apply_matrix_case,
    "pushforward": pushforward_case,
    "apply": apply_case,
    "bracket": bracket_case,
    "invert": invert_case,
    "matrix_inverse": matrix_inverse_case,
    "invert_unit": invert_unit_case,
    "mul": mul_case,
    "partial_derivative": partial_derivative_case,
    "det": det_case,
    "jacobian_matrix": jacobian_matrix_case,
    "divergence": divergence_case,
    "exp_flow": exp_flow_case,
}


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), orders=st.sampled_from((ORDERS, BOUNDARY)))
def test_claims_are_sound(name, seed, orders):
    rng = random.Random(seed)
    args, op, claim = CASES[name](rng, orders)
    result = op(*args)
    assert result.order == claim
    for _ in range(2):
        lifted = op(*[lift(rng, a) for a in args])
        assert lifted.order >= claim + 1
        assert lifted.equal_at(result, claim)


@pytest.mark.parametrize("orders", [ORDERS, BOUNDARY])
@pytest.mark.parametrize("name", CASES)
def test_claims_are_tight(name, orders):
    rng = seeded_rng(f"ledger-{name}-{orders}")
    moved = 0
    for _ in range(12):
        args, op, claim = CASES[name](rng, orders)
        first, second = (op(*[lift(rng, a) for a in args]) for _ in range(2))
        moved += not first.equal_at(second, claim + 1)
    assert moved


def wide_substitute_case(rng, orders):
    # f's 4 random terms rarely include a linear one at orders near 256, so
    # one is added: a lift of an image's degree claim + 1 then shows in
    # f(images).
    (f, images), op, claim = substitute_case(rng, orders)
    return (f + Jet(f.n, f.order, linear(rng, f.n)), images), op, claim


# The cases across the wide-key boundary, with their rounds: an order-256
# ``invert`` and its two lifts take about 0.8 s, the other cases a few
# milliseconds.
WIDE_CASES = {
    "invert": (invert_case, 3),
    "matrix_inverse": (matrix_inverse_case, 12),
    "invert_unit": (invert_unit_case, 12),
    "mul": (mul_case, 12),
    "substitute": (wide_substitute_case, 12),
}


@pytest.mark.parametrize("name", WIDE_CASES)
def test_claims_hold_across_wide_keys(name):
    # Soundness and tightness on univariate rings of orders 254..256: each
    # of two lifts agrees with the result through the claim, and over the
    # rounds some pair of lifts disagrees at the claim + 1.
    case, rounds = WIDE_CASES[name]
    rng = seeded_rng(f"ledger-wide-{name}")
    moved = 0
    for _ in range(rounds):
        args, op, claim = case(rng, WIDE)
        result = op(*args)
        assert result.order == claim
        first, second = (op(*[lift(rng, a) for a in args]) for _ in range(2))
        for lifted in (first, second):
            assert lifted.order >= claim + 1
            assert lifted.equal_at(result, claim)
        moved += not first.equal_at(second, claim + 1)
    assert moved


# -- the suite's verdict orders ------------------------------------------------------

SUITE_CELLS = ([(check, n, 4) for n in (2, 3) for check in CHECK_IDS if check != "C10"]
               + [("C10", 1, 4)])


@pytest.mark.parametrize("check, n, order", SUITE_CELLS)
def test_suite_verdicts_are_sound(check, n, order):
    # A trial's verdict order is a claim as well: each side of its evaluator
    # agrees through it with the side computed from lifted inputs.  Sides
    # that are truth values or rationals (C9, C10) carry no order.
    cd = CHECKS[check]
    for seed in range(3):
        rng = seeded_rng(f"suite-{check}-{n}-{order}-{seed}")
        inputs = cd.generate(rng, n, order)
        sides = cd.evaluate(n, order, inputs)
        verdict = _verdict(order, sides).verdict_order
        lifted = {kind: tuple(lift(rng, v) for v in values) for kind, values in inputs.items()}
        lifted_sides = cd.evaluate(n, order + 2, lifted)
        lifted_verdict = _verdict(order + 2, lifted_sides).verdict_order
        assert lifted_verdict == verdict + 2
        for (name, lhs, rhs), (lifted_name, *lifted_halves) in zip(sides, lifted_sides,
                                                                  strict=True):
            assert lifted_name == name
            if isinstance(lhs, (Jet, JetMatrix, Derivation)):
                assert all(h.equal_at(u, verdict) for h, u in zip(lifted_halves, (lhs, rhs))), name


@pytest.mark.parametrize("check, n, order", [cell for cell in SUITE_CELLS
                                             if cell[0] in ("C1", "C2", "C3", "C4")])
def test_suite_verdicts_are_tight(check, n, order):
    # No larger verdict order would be honest: over 3 seeds, two lifts of
    # the inputs disagree at the verdict order + 1 on some jet side.  C5-C10
    # stay out, as some of their sides cannot move there (ROADMAP item 13).
    cd, moved = CHECKS[check], 0
    for seed in range(3):
        rng = seeded_rng(f"suite-tight-{check}-{n}-{order}-{seed}")
        inputs = cd.generate(rng, n, order)
        sides = cd.evaluate(n, order, inputs)
        verdict = _verdict(order, sides).verdict_order
        first, second = (cd.evaluate(n, order + 2, {kind: tuple(lift(rng, v) for v in values)
                                                    for kind, values in inputs.items()})
                         for _ in range(2))
        for (_, lhs, _), (_, *a), (_, *b) in zip(sides, first, second, strict=True):
            if isinstance(lhs, (Jet, JetMatrix, Derivation)):
                moved += sum(not x.equal_at(y, verdict + 1) for x, y in zip(a, b))
    assert moved


@pytest.mark.parametrize("check", CHECK_IDS)
def test_suite_verdict_orders_are_derived(check):
    # The verdict order read off the sides is order - 2 for the checks that
    # take two derivatives along some path (C4-C7) and order - 1 for the
    # rest; C7's push-compose side alone is still decided at order - 1.
    cd = CHECKS[check]
    for n, order in ((1, 4), (1, 5)) if check == "C10" else ((2, 4), (3, 5)):
        inputs = cd.generate(seeded_rng(f"derived-{check}-{n}-{order}"), n, order)
        sides = cd.evaluate(n, order, inputs)
        outcome = _verdict(order, sides)
        assert outcome.passed
        assert outcome.verdict_order == order - (2 if check in ("C4", "C5", "C6", "C7") else 1)
        if check == "C7":
            (push_compose,) = [side for side in sides if side[0] == "push-compose"]
            assert _verdict(order, (push_compose,)).verdict_order == order - 1
