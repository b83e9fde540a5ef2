"""A standing fuzz of the JSON payload, suite-config, argv and text boundaries.

A payload that ``rerun_payload`` cannot replay must be refused with a
``ConfigError``, never escape as a raw ``TypeError``, ``ValueError`` or
``OverflowError``.  Each example takes the real payload of one check and
replaces one or two of its leaves (a scalar, or an empty list) with junk:
bools, floats with NaN and the infinities, huge ints, digit strings past
the interpreter's limit, and nested lists and dicts.  A ``SuiteConfig``
built from such junk, or from lists that mix junk with valid values, must
likewise raise nothing but ``ConfigError`` when it is built and validated;
no example runs a suite.  An argv of a calculator command or of ``verify``
with tokens replaced, inserted or deleted must make ``cli.main`` exit 0, 1
or 2, raise nothing, and print the same whether or not it takes the
canonical route past argparse.  A valid series, field or map text with
tokens swapped, deleted, repeated or replaced, junk or unknown variables
inserted, or a term pushed past the order must make each of
``parse_series``, ``parse_field`` and ``parse_map`` raise nothing but a
``ParseError``, and a mutant that parses must read back from its ``str``
as an equal value.  The profile is derandomised and the example counts
bounded, so every run replays the same examples in a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from jetfields import (CHECK_IDS, CHECKS, ConfigError, ParseError, SuiteConfig, cli,
                       parse_field, parse_map, parse_series, rerun_payload)
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


# Argv of the eight calculator commands at n = 1 and of verify, and the
# junk their tokens are mutated with.  A ring value that int() takes is
# small (at most 20) or refused by the ring ceiling, and run_suite is
# stubbed, so no example starts costly work.
ARGVS = [
    ["div", "-n", "1", "-N", "3", "(x1)*d1"],
    ["jac", "-n", "1", "-N", "3", "x1 -> x1 + x1^2"],
    ["jacdet", "-n", "1", "-N", "3", "x1 -> x1 + x1^2"],
    ["push", "-n", "1", "-N", "3", "x1 -> x1 + x1^2", "(1)*d1"],
    ["compose", "-n", "1", "-N", "3", "x1 -> x1 + x1^2", "x1 -> 2*x1"],
    ["invert", "-n", "1", "-N", "3", "x1 -> x1 + x1^2"],
    ["bracket", "-n", "1", "-N", "3", "(x1)*d1", "(x1^2)*d1"],
    ["flow", "-n", "1", "-N", "3", "(x1^2)*d1"],
    ["verify", "--checks", "C1", "--n-list", "1", "--order-list", "3", "--trials", "1",
     "--seed", "0", "--json"],
]
TOKENS = [
    "+2", " 2", "2_0", "\u0662", "\u00b2", "0", "00", "1", "2", "3", "9" * 19,
    "9" * (DIGITS + 1), "-", "--", "-h", "", "-(x1)*d1", "-x1", "-n", "-N", "-n2", "-n=2",
    "(x1)*d1 + $", "x1 -> x1 ?", "(x\u0661)*d1", "(1/0)*d1", "((x1)*d1", "x1 ->",
    "(x1)*d1\x00", "C99", "1,,2", "--trials", "1000000000000", "--checks", "--n-list",
    "--order-list", "--seed", "--json", "verify", "div", "push", "(x1)*d1",
    "x1 -> x1 + x1^2", "(x1^2)*d1",
]
MUTANTS_PER_ARGV = 400


def mutants(argv: list, rng) -> list:
    """``MUTANTS_PER_ARGV`` copies of ``argv``.  Every other one has one or
    two of its values (ring values and operands of a calculator command,
    the values of verify's options) replaced, so that many keep the shape
    of the argv; the rest have one to three tokens replaced, inserted or
    deleted anywhere."""
    values = [i for i, token in enumerate(argv) if i and not token.startswith("-")]
    out = []
    for index in range(MUTANTS_PER_ARGV):
        mutant = list(argv)
        if index % 2:
            for at in rng.sample(values, rng.randint(1, 2)):
                mutant[at] = rng.choice(TOKENS)
        else:
            for _ in range(rng.randint(1, 3)):
                edit = rng.randrange(3)
                at = rng.randrange(len(mutant) + 1)
                if edit == 0:
                    mutant.insert(at, rng.choice(TOKENS))
                elif at < len(mutant):
                    if edit == 1:
                        mutant[at] = rng.choice(TOKENS)
                    else:
                        del mutant[at]
        out.append(mutant)
    return out


class _Report:
    """Stands for the report of a suite run, which no example starts."""

    unexpected_failures = 0

    def table(self) -> str:
        return "table"

    def to_json(self) -> str:
        return "{}"


def outcome(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # reported with the argv that raised it
            pytest.fail(f"main({argv!r}) raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
def test_main_exits_0_1_or_2_on_mutated_argv(monkeypatch, argv):
    monkeypatch.setattr("jetfields.suite.run_suite", lambda config: _Report())
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    examples = mutants(argv, seeded_rng(f"cli fuzz {argv[0]}"))
    canonical = 0
    for mutant in examples:
        canonical += cli._canonical(mutant) is not None
        got = outcome(mutant)
        assert got[0] in (0, 1, 2), mutant
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_canonical", lambda argv: None)
            assert outcome(mutant) == got, mutant
    # Many examples take each route, so the comparison is not vacuous.
    if argv[0] != "verify":
        assert len(examples) // 10 <= canonical <= len(examples) * 9 // 10, canonical


# Valid texts of each kind, with their rings, and what a text mutant may
# gain: the junk of the argv fuzz, over-long literals, unknown variables and
# field symbols, and a factor that pushes its term past the order.
TEXTS = [
    ("x1 + 2*x1^2*x2 - 1/2", 2, 4),
    ("3/4*x1*x2^2 - x2^3 + 7*x1^4", 2, 4),
    ("-x1 + x1^3", 1, 3),
    ("1/3 - 5*x1*x2*x3 + x3^2", 3, 3),
    ("(x1^2)*d1 + (x1*x2)*d2", 2, 4),
    ("-(1/2 - x1)*d1 + (x2^2 - 3*x1)*d2", 2, 4),
    ("(1 + x1)*d1", 1, 3),
    ("0", 2, 3),
    ("x1 -> x1; x2 -> x2 + x1^2", 2, 4),
    ("x1 -> 2*x1 - x2^3; x2 -> x1 + 1/3*x2^2", 2, 4),
    ("x1 -> x1 + x1^2", 1, 3),
    ("x1 -> x2; x2 -> x3; x3 -> x1 - x1*x2*x3", 3, 3),
]
TEXT_TOKEN = re.compile(r"[xd][0-9]+|[0-9]+|->|[-+*/^();]|\S")
TEXT_JUNK = TOKENS + [
    "9" * (DIGITS + 1), "x" + "1" * (DIGITS + 1), "1" * 40, "x0", "x4", "x9", "d0", "d4",
    "x12", "x", "d", "^", "->", ";", "(", ")", "/", "0",
]
PARSERS = (parse_series, parse_field, parse_map)
TEXT_MUTANTS = 800


def kind(token: str) -> str:
    """The grammar class of a token: a variable, a field symbol, an integer,
    or the token itself."""
    if token[:1] in ("x", "d") and token[1:].isdigit():
        return token[0]
    return "0" if token.isdigit() else token


def text_mutants(text: str, order: int, rng) -> list:
    """``TEXT_MUTANTS`` token-level mutants of ``text``, one to three edits
    each: two tokens of one grammar class swapped (so that many mutants stay
    valid), a token deleted, a run of up to four tokens repeated, junk
    inserted or put in a token's place, or a factor that pushes a term past
    the order.  Every fourth mutant is joined with no separator, so that
    neighbouring tokens can fuse; the rest with spaces."""
    base = TEXT_TOKEN.findall(text)
    out = []
    for index in range(TEXT_MUTANTS):
        tokens = list(base)
        for _ in range(rng.choice((1, 1, 2, 3))):
            edit = rng.randrange(6)
            at = rng.randrange(len(tokens)) if tokens else 0
            if edit == 0 and tokens:
                same = [i for i, t in enumerate(tokens) if kind(t) == kind(tokens[at])]
                other = rng.choice(same)
                tokens[at], tokens[other] = tokens[other], tokens[at]
            elif edit == 1 and tokens:
                del tokens[at]
            elif edit == 2 and tokens:
                run = tokens[at:at + rng.randint(1, 4)]
                tokens[at:at] = run
            elif edit == 3:
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(TEXT_JUNK))
            elif edit == 4 and tokens:
                tokens[at] = rng.choice(TEXT_JUNK)
            else:
                variables = [i for i, t in enumerate(tokens) if kind(t) == "x"]
                if variables:
                    at = rng.choice(variables) + 1
                    tokens[at:at] = ["*", "x1", "^", str(order)]
        out.append(("" if index % 4 == 3 else " ").join(tokens))
    return out


@pytest.mark.parametrize("text, n, order", TEXTS, ids=[t for t, _, _ in TEXTS])
def test_only_parse_errors_escape_the_text_parsers(text, n, order):
    parsed = 0
    for mutant in text_mutants(text, order, seeded_rng(f"text fuzz {text}")):
        for parse in PARSERS:
            try:
                value = parse(mutant, n, order)
            except ParseError:
                continue
            except Exception as exc:  # reported with the text that raised it
                pytest.fail(f"{parse.__name__}({mutant!r}, {n}, {order}) raised {exc!r}")
            parsed += 1
            assert parse(str(value), n, order) == value, (parse.__name__, mutant)
    # Many mutants stay valid, so the round trip is not vacuous.
    assert parsed >= TEXT_MUTANTS // 20, parsed
