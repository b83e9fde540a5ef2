"""Text syntax: parse/format round trips and rejection diagnostics."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derivations, identity_matrix, jets, seeded_rng
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


DIGITS = sys.get_int_max_str_digits()


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
    assert parse_series("x01 + x002^3", 2, 3) == Jet(2, 3, {(1, 0): 1, (0, 3): 1})


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
        # Literals past the interpreter's digit limit, and non-ASCII digits.
        ("1" * 5000, 1, 3, f"col 1: integer longer than {DIGITS} digits"),
        ("x" + "1" * 5000, 1, 3, f"col 1: integer longer than {DIGITS} digits"),
        ("x1^" + "9" * 5000, 1, 3, f"col 4: integer longer than {DIGITS} digits"),
        ("1/" + "7" * 5000, 1, 3, f"col 3: integer longer than {DIGITS} digits"),
        # Each exponent is within the limit; the term's degree is not.
        ("x1^" + "9" * DIGITS + "*x1^" + "9" * DIGITS, 1, 3,
         f"col 1: term of degree longer than {DIGITS} digits exceeds truncation order 3"),
        ("2 + x1^" + "9" * DIGITS + "*x1^" + "9" * DIGITS, 1, 3,
         f"col 5: term of degree longer than {DIGITS} digits exceeds truncation order 3"),
        # An order past the limit, possible only through the API, prints the same way.
        ("*".join(["x1^" + "9" * DIGITS] * 3), 1, 10 ** DIGITS,
         f"col 1: term of degree longer than {DIGITS} digits exceeds truncation order "
         f"longer than {DIGITS} digits"),
        # Each literal is within the limit; their sum is not, and the error
        # points at the term that pushed it over.
        ("9" * DIGITS + " + x1 + " + "9" * DIGITS, 1, 3,
         f"col {DIGITS + 9}: summed coefficient longer than {DIGITS} digits"),
        ("x\u0661", 1, 3, "col 1: unexpected character 'x'"),
        ("\u0662*x1", 1, 3, "col 1: unexpected character '\u0662'"),
        ("x1 + 3/\u0664", 1, 3, "col 8: unexpected character '\u0664'"),
    ]
    for text, n, order, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_series(text, n, order)
        assert str(err.value).startswith("col "), text
        if fragment:
            assert fragment in str(err.value), text


def test_summed_coefficients_are_checked_once_reduced():
    # 2 * 5...5 has one digit more than the limit, but 2 * 5...5 / 2 does not.
    fives = "5" * DIGITS
    f = parse_series(f"{fives}/2*x1^2 + {fives}/2*x1^2 + x1", 1, 3)
    assert str(f) == f"x1 + {fives}*x1^2"
    assert parse_series(str(f), 1, 3) == f
    nines = "9" * DIGITS
    cancelled = parse_map(f"x1 -> x1 + {nines}*x1^2 - {nines}*x1^2", 1, 3)
    assert cancelled == parse_map("x1 -> x1", 1, 3)
    assert str(parse_field(f"({nines})*d1 - (1)*d1 + (1)*d1", 1, 3)) == f"({nines})*d1"


def test_literal_limit_is_the_interpreters():
    try:
        sys.set_int_max_str_digits(5000)
        assert str(parse_series("2*x1 + " + "1" * 4500, 1, 3)) == "1" * 4500 + " + 2*x1"
        with pytest.raises(ParseError, match="^col 3: integer longer than 5000 digits$"):
            parse_series("1/" + "7" * 5001, 1, 3)
    finally:
        sys.set_int_max_str_digits(DIGITS)


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
    for text, message in [
        ("(x1)*d" + "1" * 4301, f"col 6: integer longer than {DIGITS} digits"),
        ("0" * 5000, f"col 1: integer longer than {DIGITS} digits"),
        ("(" + "9" * DIGITS + ")*d1 + (" + "9" * DIGITS + ")*d1",
         f"col {DIGITS + 9}: summed coefficient longer than {DIGITS} digits"),
        ("(x1^2 - " + "9" * DIGITS + "*x1)*d1 - (" + "9" * DIGITS + "*x1)*d1",
         f"col {DIGITS + 19}: summed coefficient longer than {DIGITS} digits"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_field(text, 1, 3)
        assert str(err.value) == message


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
        ("x1 -> x1 + " + "2" * 5000 + "*x1^2", 1, 3,
         f"col 12: integer longer than {DIGITS} digits"),
        # Literals within the limit whose sum is not: a constant, whose
        # message would print it, and a coefficient that would not print.
        ("x1 -> " + "9" * DIGITS + " + " + "9" * DIGITS, 1, 3,
         f"col {DIGITS + 10}: summed coefficient longer than {DIGITS} digits"),
        ("x1 -> x1 + " + "9" * DIGITS + "*x1^2 + " + "9" * DIGITS + "*x1^2", 1, 3,
         f"col {DIGITS + 20}: summed coefficient longer than {DIGITS} digits"),
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
    assert str(identity_matrix(2, 2)) == "[[1, 0], [0, 1]]"


# -- the text boundary against a naive reference ------------------------------------
#
# str and to_dict walk the integer form in packed-key order; the reference
# reads the rational ``terms`` and sorts them by ``_grlex_key``.


def _grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key for the canonical term order.

    Ascending total degree; within a degree, higher powers of earlier
    variables come first (x1^2 before x1*x2 before x2^2).
    """
    return (sum(exps), tuple(-e for e in exps))


def naive_str(jet: Jet) -> str:
    parts = []
    for e in sorted(jet.terms, key=_grlex_key):
        c = Fraction(jet.terms[e])
        mag = abs(c)
        factors = [f"x{i + 1}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(e) if p]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if c < 0 else "+"
        parts.append((f"-{body}" if c < 0 else body) if not parts else f" {sign} {body}")
    return "".join(parts) or "0"


WIDE = 2**70  # numerators and denominators above 64 bits


@st.composite
def wide_jets(draw):
    """Jets for n = 1..4 at orders on both sides of each key-width change."""
    n = draw(st.integers(1, 4))
    order = draw(st.sampled_from((0, 1, 15, 16, 255, 256, 300)))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        room, exps = order, []
        for _ in range(n):
            e = draw(st.integers(0, room) | st.integers(0, min(room, 2)))
            exps.append(e)
            room -= e
        num = draw(st.integers(-3, 3) | st.integers(-WIDE, WIDE))
        den = draw(st.sampled_from((1, 2, 3, 6)) | st.integers(1, WIDE))
        terms[tuple(draw(st.permutations(exps)))] = Fraction(num, den)
    return Jet(n, order, terms)


@given(wide_jets())
@settings(max_examples=150, deadline=None)
def test_str_matches_the_naive_formatter(f):
    assert str(f) == naive_str(f)


@given(wide_jets())
@settings(max_examples=100, deadline=None)
def test_wide_round_trip(f):
    text = str(f)
    back = parse_series(text, f.n, f.order)
    assert back == f
    assert str(back) == text


@given(wide_jets())
@settings(max_examples=60, deadline=None)
def test_to_dict_and_iteration_walk_the_canonical_order(f):
    order = sorted(f.terms, key=_grlex_key)
    assert f.to_dict()["terms"] == [
        {"exp": list(e), "num": str(f.terms[e].numerator), "den": str(f.terms[e].denominator)}
        for e in order
    ]
    assert Jet.from_dict(f.to_dict()) == f


def test_canonical_order_and_coefficients():
    f = Jet(3, 3, {(0, 0, 1): 1, (0, 1, 0): -1, (1, 0, 0): "2/4", (0, 0, 0): -3,
                   (1, 1, 0): "-6/4", (2, 0, 0): 1, (0, 2, 1): "1/3", (3, 0, 0): 5})
    assert str(f) == ("-3 + 1/2*x1 - x2 + x3 + x1^2 - 3/2*x1*x2 + 5*x1^3"
                      " + 1/3*x2^2*x3")
    assert str(Jet.constant(2, 0, "-7/3")) == "-7/3"
    assert str(Jet.zero(4, 300)) == "0"
    assert str(Jet.monomial(2, 300, (1, 299), -1)) == "-x1*x2^299"


def test_duplicate_monomials_cancel_and_reappear():
    assert parse_series("x1 - x1", 2, 3) == Jet.zero(2, 3)
    assert parse_series("1/2*x1*x2 - 2/4*x1*x2", 2, 3) == Jet.zero(2, 3)
    assert parse_series("x1 - x1 + 2*x1", 2, 3) == Jet(2, 3, {(1, 0): 2})
    assert parse_series("1/3*x1 - 1/3*x1 + 1/6*x1 - x2 + x2", 2, 3) == Jet(2, 3, {(1, 0): "1/6"})
    assert parse_series("x1*x2 - x2*x1 + 1 - 1", 2, 3) == Jet.zero(2, 3)
    assert parse_series("1/2 + 1/3 + 1/6 - 1", 1, 2) == Jet.zero(1, 2)
    assert str(parse_series("3/4*x1 - 1/4*x1 + 0*x2 + 0/5", 2, 3)) == "1/2*x1"
    assert str(parse_series("-x2^2 + 2*x1*x2 - x2^2 + 2*x2^2", 2, 3)) == "2*x1*x2"
    assert parse_series("x1^2*x1", 1, 3) == Jet.monomial(1, 3, (3,))


# Each bad input with the exact position and message it gives.
PARSE_ERRORS = [
    (parse_series, "x1 ? 2", 2, 3, 3, "col 4: unexpected character '?'"),
    (parse_series, "1.5", 2, 3, 1, "col 2: unexpected character '.'"),
    (parse_series, "x1 +é", 2, 3, 4, "col 5: unexpected character 'é'"),
    (parse_series, "x + 1", 2, 3, 0, "col 1: unexpected character 'x'"),
    (parse_series, "2*x", 2, 3, 2, "col 3: unexpected character 'x'"),
    (parse_series, "x0", 2, 3, 0, "col 1: unknown variable x0 (ring has 2 variables)"),
    (parse_series, "x1 + x3", 2, 3, 5, "col 6: unknown variable x3 (ring has 2 variables)"),
    (parse_series, "x2", 1, 3, 0, "col 1: unknown variable x2 (ring has 1 variable)"),
    (parse_series, "1/0 + x1", 2, 3, 2, "col 3: zero denominator"),
    (parse_series, "x1 - 3/0*x2", 2, 3, 7, "col 8: zero denominator"),
    (parse_series, "x1^0", 2, 3, 3, "col 4: exponent must be >= 1"),
    (parse_series, "x2 + x1^0*x2", 2, 3, 8, "col 9: exponent must be >= 1"),
    (parse_series, "x1^2*x2^2", 2, 3, 0,
     "col 1: term of degree 4 exceeds truncation order 3"),
    (parse_series, "1 - 2*x1^4", 1, 3, 4,
     "col 5: term of degree 4 exceeds truncation order 3"),
    (parse_series, "x1^300", 2, 3, 0,
     "col 1: term of degree 300 exceeds truncation order 3"),
    (parse_series, "x1*", 2, 3, 2, "col 3: expected '+', '-', or end of series"),
    (parse_series, "2*", 2, 3, 2, "col 3: expected a variable like x1"),
    (parse_series, "x1 + 2*x2*", 2, 3, 9, "col 10: expected '+', '-', or end of series"),
    (parse_series, "", 2, 3, 0, "col 1: expected a rational or a variable"),
    (parse_series, "x1 +", 2, 3, 4, "col 5: expected a rational or a variable"),
    (parse_series, "x1 x2", 2, 3, 3, "col 4: expected '+', '-', or end of series"),
    (parse_series, "(x1)", 2, 3, 0, "col 1: expected a rational or a variable"),
    (parse_series, "x1^", 2, 3, 3, "col 4: expected an integer exponent"),
    (parse_series, "1/", 2, 3, 2, "col 3: expected a denominator"),
    (parse_series, "x1 )", 2, 3, 3, "col 4: expected '+', '-', or end of series"),
    (parse_series, "x1 -> x1", 2, 3, 3, "col 4: expected '+', '-', or end of series"),
    (parse_series, "d1", 2, 3, 0, "col 1: expected a rational or a variable"),
    (parse_field, "(x1)*d3", 2, 3, 5, "col 6: unknown field symbol d3 (ring has 2 variables)"),
    (parse_field, "(x1)*d0", 2, 3, 5, "col 6: unknown field symbol d0 (ring has 2 variables)"),
    (parse_field, "(x1)*d2", 1, 3, 5, "col 6: unknown field symbol d2 (ring has 1 variable)"),
    (parse_field, "x1*d1", 2, 3, 0, "col 1: expected '(' opening a coefficient series"),
    (parse_field, "(x1)d1", 2, 3, 4, "col 5: expected '*' before the field symbol"),
    (parse_field, "(x1)*d1 +", 2, 3, 9, "col 10: expected '(' opening a coefficient series"),
    (parse_field, "(x1)*", 2, 3, 5, "col 6: expected a field symbol like d1"),
    (parse_field, "d1", 2, 3, 0, "col 1: expected '(' opening a coefficient series"),
    (parse_field, "(x1)*d1 x2", 1, 3, 8, "col 9: expected '+', '-', or end of field"),
    (parse_field, "(x1 + )*d1", 2, 3, 6, "col 7: expected a rational or a variable"),
    (parse_field, "(x1^4)*d1", 2, 3, 1, "col 2: term of degree 4 exceeds truncation order 3"),
    (parse_map, "x1 -> x2", 2, 3, 8, "col 9: missing map rule for x2"),
    (parse_map, "x2 -> x1", 3, 3, 8, "col 9: missing map rules for x1, x3"),
    (parse_map, "x1 -> x2; x1 -> x1", 2, 3, 10, "col 11: duplicate rule for x1"),
    (parse_map, "x1 -> 1 + x1", 1, 3, 6,
     "col 7: image of x1 has nonzero constant term 1; maps must fix the origin"),
    (parse_map, "x1 -> x1 - 1/2", 1, 3, 6,
     "col 7: image of x1 has nonzero constant term -1/2; maps must fix the origin"),
    (parse_map, "x1 -> x1;", 1, 3, 9, "col 10: expected a variable like x1 starting a rule"),
    (parse_map, "x1 x1", 1, 3, 3, "col 4: expected '->'"),
    (parse_map, "x3 -> x1; x2 -> x2", 2, 3, 0,
     "col 1: unknown variable x3 (ring has 2 variables)"),
    (parse_map, "x1 -> x1 extra", 1, 3, 9, "col 10: unexpected character 'e'"),
    (parse_map, "x1 -> x1 ; x2 -> x2^4", 2, 3, 17,
     "col 18: term of degree 4 exceeds truncation order 3"),
    (parse_map, "-> x1", 1, 3, 0, "col 1: expected a variable like x1 starting a rule"),
    (parse_field, "(x\u0661)*d1", 1, 3, 1, "col 2: unexpected character 'x'"),
    (parse_field, "\u0660", 1, 3, 0, "col 1: unexpected character '\u0660'"),
    # Every message at a second column; a bad character anywhere wins over
    # an earlier grammar error; columns count whitespace, tabs and newlines.
    (parse_field, "(x1)*d1 + (x2)*d5", 2, 3, 15,
     "col 16: unknown field symbol d5 (ring has 2 variables)"),
    (parse_field, "-(1)*d9", 1, 2, 5,
     "col 6: unknown field symbol d9 (ring has 1 variable)"),
    (parse_series, "x1 + 3*", 2, 3, 7, "col 8: expected a variable like x1"),
    (parse_series, "1/2*(x1)", 2, 3, 4, "col 5: expected a variable like x1"),
    (parse_series, "2*d1", 2, 3, 2, "col 3: expected a variable like x1"),
    (parse_series, "1 + x1^ + x2", 2, 3, 8, "col 9: expected an integer exponent"),
    (parse_series, "x2 + x1^x2", 2, 3, 8, "col 9: expected an integer exponent"),
    (parse_series, "3*x1 - 2/", 2, 3, 9, "col 10: expected a denominator"),
    (parse_series, "x1 + 1/x2", 2, 3, 7, "col 8: expected a denominator"),
    (parse_field, "(x1)*d1 + (x2)d2", 2, 3, 14,
     "col 15: expected '*' before the field symbol"),
    (parse_field, "(1) * d1 - (x1) + d1", 2, 3, 16,
     "col 17: expected '*' before the field symbol"),
    (parse_field, "(x1)*x1", 2, 3, 5, "col 6: expected a field symbol like d1"),
    (parse_field, "(1)*d1 + (x2)*(x1)", 2, 3, 14,
     "col 15: expected a field symbol like d1"),
    (parse_field, "(x1)*d1;", 1, 3, 7, "col 8: expected '+', '-', or end of field"),
    (parse_field, "(1)*d1 - (x1)*d1 (x1)*d1", 1, 3, 17,
     "col 18: expected '+', '-', or end of field"),
    (parse_map, "x2 -> x2 + x1^2", 2, 3, 15, "col 16: missing map rule for x1"),
    (parse_map, "x1 -> x1; x3 -> x3", 3, 3, 18, "col 19: missing map rule for x2"),
    (parse_map, "x2 -> x1; x1 -> x2; x2 -> x2", 2, 3, 20, "col 21: duplicate rule for x2"),
    (parse_map, "x1 -> x1; x2 -> 3 - x2", 2, 3, 16,
     "col 17: image of x2 has nonzero constant term 3; maps must fix the origin"),
    (parse_map, "x1 ->-1/2 + x1", 1, 3, 5,
     "col 6: image of x1 has nonzero constant term -1/2; maps must fix the origin"),
    (parse_map, "x1 -> x1; x2 x1", 2, 3, 13, "col 14: expected '->'"),
    (parse_map, "x1 -> x2; x2 -> x1; x3", 3, 3, 22, "col 23: expected '->'"),
    (parse_series, "x1 + + ?", 2, 3, 7, "col 8: unexpected character '?'"),
    (parse_series, "x3 + $", 2, 3, 5, "col 6: unexpected character '$'"),
    (parse_field, "(x1)*d1 + x", 2, 3, 10, "col 11: unexpected character 'x'"),
    (parse_map, "x1 -> 1 ; x", 1, 3, 10, "col 11: unexpected character 'x'"),
    (parse_series, "  x1 +\t\n x9", 2, 3, 9,
     "col 10: unknown variable x9 (ring has 2 variables)"),
    (parse_series, "\u2003x5", 2, 3, 1,
     "col 2: unknown variable x5 (ring has 2 variables)"),
    (parse_series, "x1^0 + x9", 2, 3, 3, "col 4: exponent must be >= 1"),
    (parse_series, "x1^4*x1^0", 1, 3, 8, "col 9: exponent must be >= 1"),
    (parse_series, "x1*x2*", 2, 3, 5, "col 6: expected '+', '-', or end of series"),
    (parse_series, "x1^2^2", 2, 3, 4, "col 5: expected '+', '-', or end of series"),
    (parse_series, "x1 + 2 3", 2, 3, 7, "col 8: expected '+', '-', or end of series"),
    (parse_series, "1/2/3", 2, 3, 3, "col 4: expected '+', '-', or end of series"),
    (parse_field, "(x1)*d1 + (x2 x1)*d2", 2, 3, 14,
     "col 15: expected '+', '-', or end of series"),
    (parse_field, "00 + (x1)*d1", 2, 3, 0,
     "col 1: expected '(' opening a coefficient series"),
    (parse_field, "+", 1, 3, 1, "col 2: expected '(' opening a coefficient series"),
    (parse_field, "", 1, 3, 0, "col 1: expected '(' opening a coefficient series"),
    (parse_map, "", 1, 3, 0, "col 1: expected a variable like x1 starting a rule"),
    (parse_map, "x1 -> ", 1, 3, 6, "col 7: expected a rational or a variable"),
    (parse_map, "x1 -> x1 -> x1", 1, 3, 9, "col 10: expected '+', '-', or end of series"),
    (parse_map, "x1 -> x1; x1 -> x1^2 + 1", 1, 3, 10, "col 11: duplicate rule for x1"),
    (parse_map, "x1 -> x1; x2 -> x2^5", 2, 3, 16,
     "col 17: term of degree 5 exceeds truncation order 3"),
    (parse_series, "x1 > x2", 2, 3, 3, "col 4: unexpected character '>'"),
    (parse_series, "x1 - x1d1", 2, 3, 7, "col 8: expected '+', '-', or end of series"),
    (parse_series, "d", 2, 3, 0, "col 1: unexpected character 'd'"),
    (parse_series, "x1 + x", 2, 3, 5, "col 6: unexpected character 'x'"),
]


@pytest.mark.parametrize("fn, text, n, order, pos, message", PARSE_ERRORS)
def test_parse_error_text_and_position(fn, text, n, order, pos, message):
    with pytest.raises(ParseError) as err:
        fn(text, n, order)
    assert err.value.pos == pos
    assert str(err.value) == message
