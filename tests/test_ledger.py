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
``bracket``, at small orders and across the 15 <-> 16 key-layout boundary,
where a lifted operand is repacked.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from jetfields import (
    Derivation,
    FormalMap,
    Jet,
    JetMatrix,
    Q,
    pushforward,
    random_automorphism,
)

# Orders 14..16 put a claim or a lift across the 15 <-> 16 layout boundary.
ORDERS = (1, 2, 3, 4, 5, 14, 15, 16)
BOUNDARY = (14, 15, 16)


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
        return value.map_entries(lambda e: lift(rng, e))
    if isinstance(value, list):
        return [lift(rng, v) for v in value]
    jets = value.images if isinstance(value, FormalMap) else value.coefficients
    return type(value)(value.n, value.order + 2, tuple(lift(rng, j) for j in jets))


def shape(rng: random.Random, count: int, orders) -> tuple[int, list[int]]:
    """A variable count and ``count`` orders; two variables at most past order 5."""
    picked = [rng.choice(orders) for _ in range(count)]
    return rng.randint(1, 2 if max(picked) > 5 else 3), picked


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
    field = Derivation(n, r, tuple(Jet(n, r, terms(rng, n, 0, r, 2)) for _ in range(n)))
    return (sigma, field), pushforward, min(r, p - 1)


def linear(rng: random.Random, n: int) -> dict:
    """A nonzero term x_i for every variable."""
    return {tuple(int(j == i) for j in range(n)): Q(rng.randint(1, 3)) for i in range(n)}


def dense_field(rng: random.Random, n: int, order: int) -> Derivation:
    # A nonzero constant in every coefficient, so that a lift of the other
    # operand's top degree reaches the claim + 1, as in the two cases below.
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


CASES = {
    "substitute": substitute_case,
    "compose": compose_case,
    "apply_matrix": apply_matrix_case,
    "pushforward": pushforward_case,
    "apply": apply_case,
    "bracket": bracket_case,
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
