"""Text syntax: parse/format round trips and rejection diagnostics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import derivations, jets, seeded_rng
from jetfields import (
    Derivation,
    FormalMap,
    Jet,
    ParseError,
    parse_field,
    parse_map,
    parse_series,
    random_automorphism,
    random_field,
)


# -- series -------------------------------------------------------------------


def test_parse_series_basics():
    assert parse_series("0", 2, 3) == Jet.zero(2, 3)
    assert parse_series("x1", 2, 3) == Jet.variable(2, 3, 1)
    assert parse_series("-x2 + 1/2*x1^2", 2, 3) == Jet(
        2, 3, {(0, 1): -1, (2, 0): "1/2"}
    )
    assert parse_series("3", 1, 2) == Jet.constant(1, 2, 3)
    assert parse_series("x1*x2", 2, 3) == Jet(2, 3, {(1, 1): 1})
    assert parse_series("2*x1*x2^2", 3, 4) == Jet(3, 4, {(1, 2, 0): 2})


def test_parse_series_sums_duplicate_monomials():
    assert parse_series("x1 + x1", 1, 2) == Jet(1, 2, {(1,): 2})
    assert parse_series("x1 - x1", 1, 2) == Jet.zero(1, 2)


def test_parse_series_whitespace_immaterial():
    a = parse_series("x1+2*x2^2-1/3", 2, 3)
    b = parse_series("  x1 + 2 * x2 ^ 2 - 1/3 ", 2, 3)
    assert a == b


@given(jets(1, 3))
@settings(max_examples=30)
def test_series_round_trip_n1(f):
    assert parse_series(str(f), f.n, f.order) == f


@given(jets(3, 4))
@settings(max_examples=30)
def test_series_round_trip_n3(f):
    assert parse_series(str(f), f.n, f.order) == f


def test_parse_series_errors():
    cases = [
        ("x3", 2, 3, "unknown variable"),
        ("x1^4", 2, 3, "degree 4 exceeds"),
        ("x1^0", 2, 3, "exponent"),
        ("1/0", 2, 3, "zero denominator"),
        ("", 2, 3, None),
        ("x1 +", 2, 3, None),
        ("x1 x2", 2, 3, None),
        ("(x1)", 2, 3, None),
        ("x1 ? 2", 2, 3, None),
        ("1.5", 2, 3, None),
    ]
    for text, n, order, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_series(text, n, order)
        assert str(err.value).startswith("col "), text
        if fragment:
            assert fragment in str(err.value), text


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as err:
        parse_series("x1 + x9", 2, 3)
    assert err.value.pos == 5
    assert str(err.value).startswith("col 6:")


# -- fields --------------------------------------------------------------------


def test_parse_field_basics():
    d = parse_field("(x1)*d1 + (x2)*d2", 2, 4)
    assert d == Derivation(2, 4, (Jet.variable(2, 4, 1), Jet.variable(2, 4, 2)))
    assert parse_field("0", 2, 3).is_zero
    assert parse_field("-(x1)*d1", 1, 3) == Derivation(1, 3, (Jet(1, 3, {(1,): -1}),))


def test_parse_field_sums_repeated_symbols():
    d = parse_field("(x1)*d1 + (x2)*d1", 2, 3)
    assert d.coefficients[0] == Jet(2, 3, {(1, 0): 1, (0, 1): 1})
    assert d.coefficients[1].is_zero


def test_field_round_trip():
    rng = seeded_rng("syntax-field")
    for n, order in [(1, 3), (2, 4), (3, 5)]:
        d = random_field(n, order, rng)
        assert parse_field(str(d), n, order) == d
        assert parse_field(str(d), n, order) == d


def test_parse_field_errors():
    for text in ["(x1)*d3", "x1*d1", "(x1)d1", "(x1)*d1 +", "(x1)*", "d1"]:
        with pytest.raises(ParseError):
            parse_field(text, 2, 3)


# -- maps -----------------------------------------------------------------------


def test_parse_map_basics():
    s = parse_map("x1 -> x1; x2 -> x2 + x1^2", 2, 4)
    assert s.images[0] == Jet.variable(2, 4, 1)
    assert s.images[1] == Jet(2, 4, {(0, 1): 1, (2, 0): 1})
    assert parse_map("x2 -> x1; x1 -> x2", 2, 3) == FormalMap(
        2, 3, (Jet.variable(2, 3, 2), Jet.variable(2, 3, 1))
    )


def test_map_round_trip():
    rng = seeded_rng("syntax-map")
    for n, order in [(1, 3), (2, 4), (3, 5)]:
        s = random_automorphism(n, order, rng)
        assert parse_map(str(s), n, order) == s
        assert parse_map(str(s), n, order) == s


def test_parse_map_errors():
    cases = [
        ("x1 -> x2", 2, 3, "missing map rule"),
        ("x1 -> x2; x1 -> x1", 2, 3, "duplicate"),
        ("x1 -> 1 + x1", 1, 3, "constant term"),
        ("x1 -> x1;", 1, 3, None),
        ("x1 x1", 1, 3, None),
        ("x3 -> x1; x2 -> x2", 2, 3, None),
    ]
    for text, n, order, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_map(text, n, order)
        if fragment:
            assert fragment in str(err.value), text


def test_trailing_input_rejected():
    for fn, text in [
        (parse_series, "x1 )"),
        (parse_field, "(x1)*d1 x2"),
        (parse_map, "x1 -> x1 extra"),
    ]:
        with pytest.raises(ParseError):
            fn(text, 1, 3)


# -- canonical text ----------------------------------------------------------------


def test_format_matrix():
    from jetfields import JetMatrix

    m = JetMatrix.identity(2, 2)
    assert str(m) == "[[1, 0], [0, 1]]"

