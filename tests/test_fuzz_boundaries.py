"""A standing fuzz of the JSON payload and suite-config boundaries.

A payload that ``rerun_payload`` cannot replay must be refused with a
``ConfigError``, never escape as a raw ``TypeError``, ``ValueError`` or
``OverflowError``.  Each example takes the real payload of one check and
replaces one or two of its leaves (a scalar, or an empty list) with junk:
bools, floats with NaN and the infinities, huge ints, digit strings past
the interpreter's limit, and nested lists and dicts.  A ``SuiteConfig``
built from such junk, or from lists that mix junk with valid values, must
likewise raise nothing but ``ConfigError`` when it is built and validated;
no example runs a suite.  The profile is derandomised and the example
counts bounded, so every run replays the same examples in a few seconds.
"""

from __future__ import annotations

import copy
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from jetfields import CHECK_IDS, CHECKS, ConfigError, SuiteConfig, rerun_payload
from jetfields.suite import _serialize_inputs

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=30,
                suppress_health_check=[HealthCheck.too_slow])

DIGITS = sys.get_int_max_str_digits()


def payload(check: str) -> dict:
    """The payload of one trial of ``check`` at its smallest cell."""
    n = next(n for n in (2, 1) if CHECKS[check].applicable(n))
    order = max(3, CHECKS[check].min_order)
    inputs = CHECKS[check].generate(seeded_rng(f"fuzz {check}"), n, order)
    return {"check": check, "n": n, "order": order, **_serialize_inputs(inputs)}


def leaves(value, path=()):
    """Paths to the scalars and empty containers of a JSON value."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from leaves(item, path + (key,))
    else:
        yield path


PAYLOADS = {check: payload(check) for check in CHECK_IDS}
LEAVES = {check: list(leaves(p)) for check, p in PAYLOADS.items()}

SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from([10 ** 40, -(10 ** 40), 2 ** 64]),
    # Built in the draw: a strategy that held an int past the digit limit
    # could not be shown.
    st.sampled_from([1, -1]).map(lambda sign: sign * 10 ** (DIGITS + 1)),
    st.sampled_from(["9" * (DIGITS + 1), "-" + "1" * (DIGITS + 1)]),
    st.text(max_size=4),
)
JUNK = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=2)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)


@st.composite
def mutated(draw, check: str) -> dict:
    out = copy.deepcopy(PAYLOADS[check])
    for path in draw(st.lists(st.sampled_from(LEAVES[check]), min_size=1, max_size=2,
                              unique=True)):
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(JUNK)
    return out


@pytest.mark.parametrize("check", CHECK_IDS)
@FUZZ
@given(data=st.data())
def test_only_config_errors_escape_rerun_payload(check, data):
    try:
        rerun_payload(data.draw(mutated(check)))
    except ConfigError:
        pass


def config_field(valid: st.SearchStrategy) -> st.SearchStrategy:
    """Junk, or a short list of valid values and junk, so that examples also
    reach the checks that run after the first bad field."""
    return JUNK | st.lists(valid | SCALARS, max_size=3)


CONFIGS = st.fixed_dictionaries({}, optional={
    "checks": config_field(st.sampled_from(CHECK_IDS)),
    "n_list": config_field(st.integers(1, 4)),
    "order_list": config_field(st.integers(1, 6)),
    "trials": JUNK,
    "seed": JUNK,
})


@settings(FUZZ, max_examples=150)
@given(fields=CONFIGS)
def test_only_config_errors_escape_a_suite_config(fields):
    try:
        SuiteConfig(**fields).validate()
    except ConfigError:
        pass
