"""Shared hypothesis strategies and seeded generators for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from jetfields import Derivation, Jet, JetMatrix, Q

MAX_N = 3
MAX_ORDER = 5


def rationals(max_num: int = 4, dens=(1, 2, 3)) -> st.SearchStrategy:
    return st.builds(
        lambda num, den: Q(num, den),
        st.integers(-max_num, max_num),
        st.sampled_from(dens),
    )


def exponent_tuples(n: int, order: int) -> st.SearchStrategy:
    return st.lists(st.integers(0, order), min_size=n, max_size=n).map(tuple).filter(
        lambda e: sum(e) <= order
    )


def jets(n: int, order: int, max_terms: int = 6) -> st.SearchStrategy:
    return st.dictionaries(
        exponent_tuples(n, order), rationals(), max_size=max_terms
    ).map(lambda terms: Jet(n, order, terms))


@st.composite
def jet_triples(draw, n_values=(1, 2, 3), order_values=(2, 3, 4)):
    n = draw(st.sampled_from(n_values))
    order = draw(st.sampled_from(order_values))
    f = draw(jets(n, order))
    g = draw(jets(n, order))
    h = draw(jets(n, order))
    return f, g, h


@st.composite
def derivations(draw, n_values=(1, 2, 3), order_values=(2, 3, 4)):
    n = draw(st.sampled_from(n_values))
    order = draw(st.sampled_from(order_values))
    coeffs = tuple(draw(jets(n, order, max_terms=3)) for _ in range(n))
    return Derivation(n, order, coeffs)


def constant_matrix(values, order: int) -> JetMatrix:
    """The jet matrix whose entries are the constants ``values``."""
    n = len(values)
    return JetMatrix(tuple(tuple(Jet.constant(n, order, v) for v in row) for row in values))


def identity_matrix(n: int, order: int) -> JetMatrix:
    return constant_matrix([[int(i == j) for j in range(n)] for i in range(n)], order)


def seeded_rng(salt: str) -> random.Random:
    return random.Random(f"jetfields-tests|{salt}")
