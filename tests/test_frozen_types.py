"""The contract of the package's frozen value and record types.

``JetMatrix``, ``JetTuple`` (through ``FormalMap`` and ``Derivation``),
``DivergenceClass`` and the suite's records are slotted classes with
constructors written out by hand.  These tests pin what callers rely on:
each signature and default, equality, hashing and the record repr, that no
attribute can be set or deleted, pickling and ``deepcopy``, and that
``object.__setattr__`` still patches a catalog entry's ``generate`` and
``evaluate``, as the benchmark's tracer does.

Each value type is built one way: only its builder (``jets._jet``,
``jets._matrix``, ``jets._tuple``) fills its slots, and its public
constructor checks its arguments and returns the builder's value.  The
kernel builds every matrix, map and field it has already checked with the
builder alone, past the constructor's checks.  A property test holds each
such value to the constructor: it must accept the value's parts and build
an equal value.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfields import (
    CHECK_IDS,
    CHECKS,
    CellResult,
    ControlResult,
    Derivation,
    DivergenceClass,
    FormalMap,
    IdentityCheck,
    Jet,
    JetMatrix,
    Outcome,
    Q,
    SuiteConfig,
    TrialResult,
    VerificationReport,
    coordinate_frame,
    euler_field,
    exp_flow,
    identity_map,
    matrix_inverse,
    parse_field,
    parse_map,
    partial_field,
    pushforward,
    random_automorphism,
    random_const_jacobian,
    random_divergence_free,
    random_field,
    run_check,
    run_suite,
)
from jetfields.jets import JetTuple

EMPTY = inspect.Parameter.empty

# (class, [(parameter, default)]) with EMPTY for a parameter with no default.
SIGNATURES = [
    (JetMatrix, [("rows", EMPTY)]),
    (FormalMap, [("n", EMPTY), ("order", EMPTY), ("images", EMPTY)]),
    (Derivation, [("n", EMPTY), ("order", EMPTY), ("coefficients", EMPTY)]),
    (DivergenceClass, [("kind", EMPTY), ("value", EMPTY), ("verdict_order", EMPTY)]),
    (Outcome, [("passed", EMPTY), ("verdict_order", EMPTY), ("detail", "")]),
    (IdentityCheck, [("ident", EMPTY), ("name", EMPTY), ("statement", EMPTY),
                     ("min_order", EMPTY), ("generate", EMPTY), ("evaluate", EMPTY),
                     ("arity", EMPTY), ("n_only", None), ("control", None)]),
    (TrialResult, [("seed", EMPTY), ("passed", EMPTY), ("verdict_order", EMPTY),
                   ("ms", EMPTY), ("payload", None)]),
    (ControlResult, [("kind", EMPTY), ("expected_fail", EMPTY), ("failed", EMPTY),
                     ("verdict_order", EMPTY), ("ms", EMPTY), ("witness", None)]),
    (CellResult, [("check", EMPTY), ("n", EMPTY), ("order", EMPTY), ("trials", EMPTY),
                  ("controls", ())]),
    (SuiteConfig, [("checks", CHECK_IDS), ("n_list", (1, 2, 3)), ("order_list", (3, 4, 5)),
                   ("trials", 100), ("seed", 0)]),
    (VerificationReport, [("config", EMPTY), ("cells", EMPTY)]),
]

REPORT = run_suite(SuiteConfig(checks=("C5",), n_list=(2,), order_list=(3,), trials=1, seed=4))
CELL = REPORT.cells[0]


def _coords(cls, n: int = 2, order: int = 3):
    return cls(n, order, tuple(Jet.variable(n, order, i) for i in range(1, n + 1)))


def _matrix(order: int = 3) -> JetMatrix:
    return JetMatrix(((Jet.constant(2, order, 1), Jet.variable(2, order, 1)),
                      (Jet.zero(2, order), Jet.constant(2, order, Q(1, 2)))))


# One instance of each record, built positionally, and the keyword
# arguments that build an equal one.
RECORDS = [
    (DivergenceClass("constant", Q(3, 2), 4),
     dict(kind="constant", value=Q(3, 2), verdict_order=4)),
    (Outcome(False, 2, "lhs != rhs"), dict(passed=False, verdict_order=2, detail="lhs != rhs")),
    (CHECKS["C5"], {name: getattr(CHECKS["C5"], name) for name in IdentityCheck.__slots__}),
    (CELL.trials[0], {name: getattr(CELL.trials[0], name) for name in TrialResult.__slots__}),
    (CELL.controls[0], {name: getattr(CELL.controls[0], name)
                        for name in ControlResult.__slots__}),
    (CELL, dict(check="C5", n=2, order=3, trials=CELL.trials, controls=CELL.controls)),
    (SuiteConfig(("C1", "C2"), (2,), (3, 4), 5, 6),
     dict(checks=("C1", "C2"), n_list=(2,), order_list=(3, 4), trials=5, seed=6)),
    (REPORT, dict(config=REPORT.config, cells=REPORT.cells)),
]
VALUES = [_matrix(), _coords(FormalMap), _coords(Derivation)]
ALL = [value for value, _ in RECORDS] + VALUES


def _ids(values):
    return [type(v).__name__ for v in values]


@pytest.mark.parametrize("cls, params", SIGNATURES, ids=[c.__name__ for c, _ in SIGNATURES])
def test_signatures_and_defaults(cls, params):
    signature = inspect.signature(cls)
    assert [(p.name, p.default) for p in signature.parameters.values()] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())


def test_the_jet_tuples_share_one_base():
    assert issubclass(FormalMap, JetTuple) and issubclass(Derivation, JetTuple)
    assert JetTuple.__slots__ == ("n", "order")


def test_defaults_fill_the_records():
    assert Outcome(True, 3).detail == ""
    cd = CHECKS["C1"]
    assert IdentityCheck(cd.ident, cd.name, cd.statement, cd.min_order, cd.generate,
                         cd.evaluate, cd.arity) == cd
    assert TrialResult(1, True, 3, 0.5).payload is None
    assert ControlResult("k", True, True, 3, 0.5).witness is None
    assert CellResult("C1", 2, 3, ()).controls == ()
    assert SuiteConfig() == SuiteConfig(CHECK_IDS, (1, 2, 3), (3, 4, 5), 100, 0)
    # Sequences are stored as tuples, as before.
    assert SuiteConfig(checks=["C1"], n_list=[2], order_list=range(3, 5)).to_dict() == {
        "checks": ["C1"], "n_list": [2], "order_list": [3, 4], "trials": 100, "seed": 0}
    assert SuiteConfig(checks=["C1"]).checks == ("C1",)


@pytest.mark.parametrize("value, kwargs", RECORDS, ids=_ids(v for v, _ in RECORDS))
def test_records_compare_hash_and_show_by_field(value, kwargs):
    cls = type(value)
    again = cls(**kwargs)
    assert again == value and not again != value
    assert again is not value
    assert list(kwargs) == list(cls.__slots__)
    try:
        expected = hash(tuple(kwargs.values()))
    except TypeError:
        # A record that holds a dict, such as a control's witness, is
        # unhashable, as before.
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(again) == hash(value) == expected
    shown = ", ".join(f"{name}={v!r}" for name, v in kwargs.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    assert (value == object()) is False
    first = next(iter(kwargs))
    assert cls(**{**kwargs, first: "other"}) != value


def test_record_hashes_and_reprs():
    assert hash(Outcome(True, 3)) == hash((True, 3, ""))
    assert repr(Outcome(True, 3)) == "Outcome(passed=True, verdict_order=3, detail='')"
    assert repr(DivergenceClass("zero", Q(0), 2)) == (
        "DivergenceClass(kind='zero', value=Fraction(0, 1), verdict_order=2)")
    assert repr(SuiteConfig(trials=2)) == (
        f"SuiteConfig(checks={CHECK_IDS!r}, n_list=(1, 2, 3), order_list=(3, 4, 5), "
        "trials=2, seed=0)")
    assert len({SuiteConfig(), SuiteConfig(), SuiteConfig(seed=1)}) == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(TrialResult(1, False, 3, 0.5, {"check": "C1"}))
    # Equal fields in records of different types are not equal records.
    assert TrialResult(1, True, 3, 0.5) != ControlResult(1, True, 3, 0.5, None)


@pytest.mark.parametrize("value", VALUES, ids=_ids(VALUES))
def test_jet_values_compare_by_jets_and_are_unhashable(value):
    cls = type(value)
    again = (JetMatrix(value.rows) if cls is JetMatrix
             else cls(n=value.n, order=value.order, **{cls._items: value._jets}))
    assert again == value
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    assert repr(value).startswith(f"<{cls.__name__} ")


def test_jet_values_build_by_keyword():
    images = tuple(Jet.variable(2, 3, i) for i in (1, 2))
    assert FormalMap(n=2, order=3, images=images) == FormalMap(2, 3, images)
    assert Derivation(n=2, order=3, coefficients=images) == Derivation(2, 3, images)
    assert JetMatrix(rows=_matrix().rows) == _matrix()
    assert repr(_matrix(2)) == "<JetMatrix 2x2 order=2: [[1, x1], [0, 1/2]]>"


@pytest.mark.parametrize("value", ALL, ids=_ids(ALL))
def test_attributes_can_be_neither_set_nor_deleted(value):
    names = [*type(value).__slots__, "extra"]
    if isinstance(value, JetTuple):
        names += JetTuple.__slots__
    for name in names:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match="immutable; cannot set"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match="immutable; cannot delete"):
            delattr(value, name)
        assert getattr(value, name, None) is before
    with pytest.raises(AttributeError):
        value.__dict__


@pytest.mark.parametrize("value", ALL, ids=_ids(ALL))
def test_pickle_and_deepcopy_round_trip(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(again) is type(value)
        assert again == value
        assert repr(again) == repr(value)


def test_object_setattr_patches_a_catalog_entry_and_puts_it_back():
    cd = CHECKS["C1"]
    generate, evaluate = cd.generate, cd.evaluate
    calls = []

    def traced(fn, name):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    try:
        object.__setattr__(cd, "generate", traced(generate, "generate"))
        object.__setattr__(cd, "evaluate", traced(evaluate, "evaluate"))
        assert run_check("C1", 2, 3, 7).passed
        assert calls == ["generate", "evaluate"]
    finally:
        object.__setattr__(cd, "generate", generate)
        object.__setattr__(cd, "evaluate", evaluate)
    assert cd.generate is generate and cd.evaluate is evaluate
    assert CHECKS["C1"] is cd
    run_check("C1", 2, 3, 7)
    assert calls == ["generate", "evaluate"]


# -- values built past the constructors ----------------------------------------------


def _jacobian(rng: random.Random, n: int, order: int) -> JetMatrix:
    return random_automorphism(n, order, rng).jacobian_matrix()


# Each operation whose result the kernel builds past its constructor, on
# seeded inputs in n variables at order ``order``; ``coordinate_frame``
# gives a tuple of fields, each held to the constructor.
BUILT = {
    "compose": lambda rng, n, order: random_automorphism(n, order, rng).compose(
        random_const_jacobian(n, order, rng)),
    "invert": lambda rng, n, order: random_automorphism(n, order, rng).invert(),
    "exp_flow": lambda rng, n, order: exp_flow(random_divergence_free(n, order, rng)),
    "pushforward": lambda rng, n, order: pushforward(random_automorphism(n, order, rng),
                                                     random_field(n, order, rng)),
    "bracket": lambda rng, n, order: random_field(n, order, rng).bracket(
        random_field(n, order, rng)),
    "jacobian_matrix": _jacobian,
    "matmul": lambda rng, n, order: _jacobian(rng, n, order) @ _jacobian(rng, n, order),
    "matrix_inverse": lambda rng, n, order: matrix_inverse(_jacobian(rng, n, order)),
    "apply_matrix": lambda rng, n, order: random_automorphism(n, order, rng).apply_matrix(
        _jacobian(rng, n, order)),
    "coordinate_frame": lambda rng, n, order: coordinate_frame(random_automorphism(n, order, rng)),
    "field_add": lambda rng, n, order: random_field(n, order, rng) + random_field(
        n, rng.randint(order - 1, order), rng),
    "field_scale": lambda rng, n, order: random_field(n, order, rng) * Q(
        rng.randint(-3, 3), rng.randint(1, 3)),
    "identity_map": lambda rng, n, order: identity_map(n, order),
    "partial_field": lambda rng, n, order: partial_field(n, order, rng.randint(1, n)),
    "euler_field": lambda rng, n, order: euler_field(n, order, rng.randint(1, n)),
    "parse_map": lambda rng, n, order: parse_map(
        str(random_automorphism(n, order, rng)), n, order),
    "parse_field": lambda rng, n, order: parse_field(
        str(random_field(n, order, rng)), n, order),
    **{sampler.__name__: lambda rng, n, order, sampler=sampler: sampler(n, order, rng)
       for sampler in (random_automorphism, random_const_jacobian, random_field,
                       random_divergence_free)},
}


@pytest.mark.parametrize("name", BUILT)
@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), order=st.sampled_from((3, 4, 5, 16)), seed=st.integers(0, 2 ** 32 - 1))
def test_built_values_are_ones_their_constructors_accept(name, n, order, seed):
    # At order 16, two variables at most: invert at (3, 16) takes most of a second.
    n = min(n, 2) if order == 16 else n
    built = BUILT[name](random.Random(seed), n, order)
    for value in built if isinstance(built, tuple) else (built,):
        if isinstance(value, JetMatrix):
            assert type(value.rows) is tuple and all(type(row) is tuple for row in value.rows)
            assert JetMatrix(value.rows) == value
        else:
            assert type(value._jets) is tuple
            assert type(value)(value.n, value.order, value._jets) == value
