"""Every check of the suite can fail, and a failing trial round-trips.

Each row makes one conjunct of one evaluator false, by one of two means:

* an off-class input, where the identity needs a class: the check's sampler
  draws as usual and one slot is then replaced, for example by a map whose
  Jacobian determinant is not constant (C4, C5) or by a field whose
  divergence is not constant (C6's closure);
* a planted kernel fault, where the identity holds for every input: one
  operation is patched while the check's evaluator runs, for example
  ``compose`` adding a term of top degree.

Each row then follows the failure path end to end: the trial fails at its
usual verdict order, its report row carries the rerun payload,
``rerun_payload`` fails under the fault and names the row's side, the only
one of the evaluator's sides that differs (it passes without the fault,
unless the input is off-class), and ``jetfields verify`` exits 1.  C9's grid and
C10's kernel are cached per cell, so every row clears both caches before
and after it runs.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

import pytest

from jetfields import (
    CHECKS,
    Derivation,
    DivergenceClass,
    FormalMap,
    IdentityCheck,
    Jet,
    JetMatrix,
    SuiteConfig,
    negative_control_map,
    partial_field,
    rerun_payload,
    run_suite,
)
from jetfields import linalg, suite
from jetfields.cli import main

DROPS_TWO = {"C4", "C5", "C6", "C7"}


def _swap(monkeypatch, check: str, **parts) -> None:
    """Put a catalog entry in place of ``check``'s with ``parts`` swapped in."""
    cd = CHECKS[check]
    fields = {name: getattr(cd, name) for name in IdentityCheck.__slots__}
    monkeypatch.setitem(suite.CHECKS, check, IdentityCheck(**{**fields, **parts}))


def kernel_fault(*patches):
    """A plant whose check evaluates with ``patches`` installed.

    Each patch is ``(owner, name, wrap)``: while the evaluator runs,
    ``owner.name`` is ``wrap(original)``.  The sampler runs clean.
    """

    def plant(monkeypatch, check: str) -> None:
        evaluate = CHECKS[check].evaluate

        def faulty(n, order, inputs):
            with pytest.MonkeyPatch.context() as mp:
                for owner, name, wrap in patches:
                    mp.setattr(owner, name, wrap(getattr(owner, name)))
                return evaluate(n, order, inputs)

        _swap(monkeypatch, check, evaluate=faulty)

    return plant


def off_class(edit: Callable[[int, int, dict], dict]):
    """A plant whose check's sampler output goes through ``edit(n, order, inputs)``."""

    def plant(monkeypatch, check: str) -> None:
        generate = CHECKS[check].generate
        _swap(monkeypatch, check,
              generate=lambda rng, n, order: edit(n, order, generate(rng, n, order)))

    return plant


# -- faults ------------------------------------------------------------------------


def _top(jet: Jet) -> Jet:
    """``jet`` plus x1 to the power of its order: a change only its top degree shows."""
    return jet + Jet.monomial(jet.n, jet.order, (jet.order,) + (0,) * (jet.n - 1), 1)


def _returns(change):
    """A wrap that passes an operation's result through ``change``."""
    return lambda op: lambda *args: change(op(*args))


def _top_image(s: FormalMap) -> FormalMap:
    return FormalMap(s.n, s.order, (_top(s.images[0]),) + s.images[1:])


def _top_entry(m: JetMatrix) -> JetMatrix:
    rows = [list(row) for row in m.rows]
    rows[0][0] = _top(rows[0][0])
    return JetMatrix(tuple(tuple(row) for row in rows))


def _drop_first(field: Derivation) -> Derivation:
    first = Jet.zero(field.n, field.order)
    return Derivation(field.n, field.order, (first,) + field.coefficients[1:])


def _first_frame_field(edit):
    def change(frame):
        return (edit(frame),) + tuple(frame[1:])

    return _returns(change)


def _bracket_negated_when(unit_constants: bool):
    """A bracket fault that negates [X, Y] when the constants of X and Y all
    lie in {0, 1, -1} (``unit_constants``) or when some does not."""

    def wrap(bracket):
        def faulty(x, y):
            result = bracket(x, y)
            consts = {c.constant_term for f in (x, y) for c in f.coefficients}
            return result * -1 if (consts <= {0, 1, -1}) == unit_constants else result

        return faulty

    return wrap


def _reclassify(change):
    def wrap(classify):
        def faulty(field):
            verdict = classify(field)
            return change(verdict) or verdict

        return faulty

    return wrap


COMPOSE_TOP = (FormalMap, "compose", _returns(_top_image))

# -- off-class inputs -------------------------------------------------------------------


def _bumped_map(n: int, order: int, i: int, j: int) -> FormalMap:
    """x_i -> x_i + x_i x_j (0-based, i != j): the Piola identity fails in row j + 1 only."""
    images = [Jet.variable(n, order, k + 1) for k in range(n)]
    images[i] = images[i] + Jet.monomial(n, order, [int(k in (i, j)) for k in range(n)], 1)
    return FormalMap(n, order, tuple(images))


def _with_map(make):
    return lambda n, order, inputs: {**inputs, "maps": (make(n, order),)}


def _fields(*slots: int):
    """The sampled fields rearranged: slot k of the result is sampled field ``slots[k]``."""
    return lambda n, order, inputs: {
        **inputs, "fields": tuple(inputs["fields"][k] for k in slots)}


# -- the table -----------------------------------------------------------------------


class Row(NamedTuple):
    check: str
    n: int
    order: int
    side: str  # the comparison the row makes false
    plant: Callable
    fault: bool  # a planted fault, so the inputs pass once it is gone
    seed: int = 0


def fault_row(check, n, order, side, *patches, seed=0) -> Row:
    return Row(check, n, order, side, kernel_fault(*patches), True, seed)


def off_class_row(check, n, order, side, edit, seed=0) -> Row:
    return Row(check, n, order, side, off_class(edit), False, seed)


ROWS = [
    fault_row("C1", 2, 3, "jacobian-chain", COMPOSE_TOP),
    fault_row("C2", 2, 3, "det-cocycle", COMPOSE_TOP),
    fault_row("C3", 2, 3, "inverse-jacobian", (suite, "matrix_inverse", _returns(_top_entry))),
    fault_row("C3", 2, 3, "inverse-det", (Jet, "invert_unit", _returns(_top))),
    off_class_row("C4", 2, 3, "piola-row-1", _with_map(lambda n, k: _bumped_map(n, k, 1, 0))),
    off_class_row("C4", 2, 3, "piola-row-2", _with_map(negative_control_map)),
    off_class_row("C4", 3, 3, "piola-row-3", _with_map(lambda n, k: _bumped_map(n, k, 0, 2))),
    off_class_row("C5", 2, 3, "div-equivariance", lambda n, order, inputs: {
        "maps": (negative_control_map(n, order),), "fields": (partial_field(n, order, n),)}),
    fault_row("C6", 2, 3, "bracket-divergence", (Jet, "__sub__", _returns(_top))),
    off_class_row("C6", 2, 3, "const-div-closure", _fields(0, 1, 0, 1), seed=1),
    fault_row("C7", 2, 3, "push-bracket", (Derivation, "bracket", _returns(_drop_first))),
    fault_row("C7", 2, 3, "push-compose", COMPOSE_TOP),
    fault_row("C8", 2, 3, "frame-1-1",
              (suite, "coordinate_frame", _first_frame_field(lambda f: f[0] * 2))),
    fault_row("C8", 2, 3, "frame-1-2",
              (suite, "coordinate_frame", _first_frame_field(lambda f: f[0] + f[1]))),
    off_class_row("C9", 2, 3, "const-centralizes", _fields(1, 1, 2)),
    off_class_row("C9", 2, 3, "nonconst-escapes", _fields(0, 0, 2)),
    fault_row("C9", 2, 3, "grid-noncommutation",
              (Derivation, "bracket", _bracket_negated_when(True))),
    fault_row("C9", 2, 3, "trial-noncommutation",
              (Derivation, "bracket", _bracket_negated_when(False))),
    fault_row("C10", 1, 3, "univariate-kernel",
              (linalg, "kernel_basis", _returns(lambda kern: kern[:1]))),
    fault_row("C10", 1, 3, "univariate-kernel",
              (linalg, "kernel_basis", _returns(lambda kern: kern[::-1]))),
    fault_row("C10", 1, 3, "univariate-kernel", (suite, "classify_divergence", _reclassify(
        lambda v: v.kind == "zero" and DivergenceClass("nonconstant", None, v.verdict_order))),
        seed=1),
    off_class_row("C10", 1, 3, "affine-divergence", _fields(1, 1)),
    fault_row("C10", 1, 3, "affine-divergence", (suite, "classify_divergence", _reclassify(
        lambda v: v.kind == "constant"
        and DivergenceClass("constant", v.value + 1, v.verdict_order))), seed=1),
    off_class_row("C10", 1, 3, "curved-nonconstant", _fields(0, 0)),
]


def _clear_caches() -> None:
    suite._grid_noncommutation_ok.cache_clear()
    suite._univariate_kernel_ok.cache_clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.mark.parametrize("row", ROWS, ids=[f"{r.check}-{r.side}-n{r.n}" for r in ROWS])
def test_check_fails_and_round_trips(row, monkeypatch, capsys, clean_caches):
    config = SuiteConfig(checks=(row.check,), n_list=(row.n,), order_list=(row.order,),
                         trials=1, seed=row.seed)
    verdict = row.order - (2 if row.check in DROPS_TWO else 1)
    row.plant(monkeypatch, row.check)

    report = run_suite(config)
    (cell,) = report.cells
    (trial,) = cell.trials
    assert not trial.passed
    assert trial.verdict_order == verdict
    assert report.unexpected_failures == 1
    payload = trial.payload
    assert payload["check"] == row.check and (payload["n"], payload["order"]) == (row.n, row.order)
    assert report.to_dict()["cells"][0]["trials"][0]["payload"] == payload
    timed = report.to_dict(include_timings=True)["cells"][0]
    assert timed["trials"][0]["payload"] == payload
    assert all(control["ms"] >= 0 for control in timed.get("controls", ()))

    outcome = rerun_payload(payload)
    assert (outcome.passed, outcome.verdict_order, outcome.detail) == (False, verdict, row.side)
    # The row's side is the only one that differs.
    inputs = {"maps": tuple(FormalMap.from_dict(m) for m in payload["maps"]),
              "fields": tuple(Derivation.from_dict(f) for f in payload["fields"])}
    _, sides = CHECKS[row.check].evaluate(row.n, row.order, inputs)
    assert [name for name, lhs, rhs in sides if lhs != rhs] == [row.side]

    argv = ["verify", "--checks", row.check, "--n-list", str(row.n), "--order-list",
            str(row.order), "--trials", "1", "--seed", str(row.seed), "--json"]
    capsys.readouterr()
    assert main(argv) == 1
    shown = json.loads(capsys.readouterr().out)
    assert shown["cells"][0]["trials"][0]["payload"] == payload

    monkeypatch.undo()
    _clear_caches()
    assert rerun_payload(payload).passed == row.fault


def test_every_check_has_a_row():
    assert {row.check for row in ROWS} == set(CHECKS)
