"""Seeded verification suite for the structural identities.

Each catalog entry states one identity of the Jacobian / divergence
calculus, generates random inputs from a per-trial seed, evaluates both
sides with exact arithmetic, and reports the verdict order: the largest
truncation order at which the comparison is actually decided by the
precision ledger, never assumed: the lowest order that the ledger claims
for both sides of any of its comparisons.  A failing outcome names the
first of its check's comparisons whose sides differ.

Determinism: a trial's seed is derived by hashing
``master seed | check id | n | order | trial index``, so any failing
trial can be rerun in isolation, and a report is a pure function of its
configuration.  Wall-clock timings are kept on the result objects but
stay out of the canonical JSON and table output so that equal seeds give
byte-identical reports.

The C5 cell-level negative control drives the one identity that needs an
off-class input: it transports basis fields along a fixed automorphism
whose Jacobian determinant is not constant and records the first basis
field witnessing the failure of divergence equivariance.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import time
from typing import Callable, Mapping, Optional

from . import linalg
from .errors import ConfigError, JetfieldsError
from .fields import (
    Derivation,
    centralizes_partials,
    classify_divergence,
    coordinate_frame,
    euler_field,
    partial_field,
    pushforward,
    random_divergence_free,
    random_field,
)
from .jets import Jet, JetMatrix, JetTuple, _cost_guard, _Record, _shown
from .maps import (
    FormalMap,
    _rand_monomial,
    _rand_rational,
    matrix_inverse,
    random_automorphism,
    random_const_jacobian,
)
from .rationals import Q

Inputs = Mapping[str, tuple]
Side = tuple  # (name, lhs, rhs): one comparison that decides a trial


class Outcome(_Record):
    __slots__ = ("passed", "verdict_order", "detail")

    def __init__(self, passed: bool, verdict_order: int, detail: str = "") -> None:
        self._fill(passed, verdict_order, detail)


class IdentityCheck(_Record):
    """One catalog entry: an identity plus its sampler and evaluator."""

    __slots__ = ("ident", "name", "statement", "min_order", "generate", "evaluate", "arity",
                 "n_only", "control")

    def __init__(
        self,
        ident: str,
        name: str,
        statement: str,
        min_order: int,
        generate: Callable[[random.Random, int, int], Inputs],
        evaluate: Callable[[int, int, Inputs], tuple[int, list[Side]]],
        arity: tuple[int, int],  # the (maps, fields) counts ``generate`` returns
        n_only: Optional[int] = None,
        control: Optional[Callable[[int, int], "ControlResult"]] = None,
    ) -> None:
        self._fill(ident, name, statement, min_order, generate, evaluate, arity, n_only, control)

    def applicable(self, n: int) -> bool:
        return self.n_only is None or n == self.n_only


class TrialResult(_Record):
    __slots__ = ("seed", "passed", "verdict_order", "ms", "payload")

    def __init__(self, seed: int, passed: bool, verdict_order: int, ms: float,
                 payload: Optional[dict] = None) -> None:
        self._fill(seed, passed, verdict_order, ms, payload)


class ControlResult(_Record):
    __slots__ = ("kind", "expected_fail", "failed", "verdict_order", "ms", "witness")

    def __init__(self, kind: str, expected_fail: bool, failed: bool, verdict_order: int,
                 ms: float, witness: Optional[dict] = None) -> None:
        self._fill(kind, expected_fail, failed, verdict_order, ms, witness)

    @property
    def ok(self) -> bool:
        return self.failed == self.expected_fail


class CellResult(_Record):
    __slots__ = ("check", "n", "order", "trials", "controls")

    def __init__(self, check: str, n: int, order: int, trials: tuple[TrialResult, ...],
                 controls: tuple[ControlResult, ...] = ()) -> None:
        self._fill(check, n, order, trials, controls)

    @property
    def failed_trials(self) -> int:
        return sum(1 for t in self.trials if not t.passed)

    @property
    def unexpected(self) -> int:
        return self.failed_trials + sum(1 for c in self.controls if not c.ok)


# -- samplers --------------------------------------------------------------------
#
# A catalog entry declares its inputs as the names of the samplers that draw
# them, maps then fields, in draw order.  Each sampler takes (n, order, rng).
# ``_Draw`` looks the names up in this module when a trial draws, so a wrapper
# bound to a name (as the benchmark's tracer binds one) sees every draw.


class _Draw(_Record):
    """A catalog entry's ``generate``: the maps, then the fields, its samplers draw."""

    __slots__ = ("maps", "fields")

    def __init__(self, maps: tuple[str, ...], fields: tuple[str, ...]) -> None:
        self._fill(maps, fields)

    def __call__(self, rng: random.Random, n: int, order: int) -> Inputs:
        draw = globals()
        return {"maps": tuple([draw[name](n, order, rng) for name in self.maps]),
                "fields": tuple([draw[name](n, order, rng) for name in self.fields])}


def _drawing(maps: tuple[str, ...] = (), fields: tuple[str, ...] = ()) -> dict:
    """The ``generate`` and ``arity`` of an entry whose inputs these samplers draw."""
    return {"generate": _Draw(maps, fields), "arity": (len(maps), len(fields))}


def _random_const_div(n: int, order: int, rng: random.Random) -> Derivation:
    base = random_divergence_free(n, order, rng)
    return base + euler_field(n, order, 1) * _rand_rational(rng)


def _constant_field(n: int, order: int, values) -> Derivation:
    return Derivation(n, order, tuple(Jet.constant(n, order, v) for v in values))


def _random_constant_field(n: int, order: int, rng: random.Random) -> Derivation:
    return _constant_field(n, order, [_rand_rational(rng) for _ in range(n)])


def _random_nonconstant_field(n: int, order: int, rng: random.Random) -> Derivation:
    while True:
        base = random_field(n, order, rng)
        slot = rng.randrange(n)
        exps = _rand_monomial(rng, n, 1, order - 1)
        bump = Jet.monomial(n, order, exps, _rand_rational(rng, nonzero=True))
        coeffs = list(base.coefficients)
        coeffs[slot] = coeffs[slot] + bump
        nonconst = Derivation(n, order, tuple(coeffs))
        if any(
            any(1 <= sum(e) <= order - 1 for e in c.terms)
            for c in nonconst.coefficients
        ):
            return nonconst


def _random_weights(n: int, order: int, rng: random.Random) -> Derivation:
    """A constant field whose weights, its coefficients, are not all zero."""
    while True:
        lam = [_rand_rational(rng) for _ in range(n)]
        if any(lam):
            return _constant_field(n, order, lam)


def _random_affine_field(n: int, order: int, rng: random.Random) -> Derivation:
    a, b = _rand_rational(rng), _rand_rational(rng)
    return Derivation(1, order, (Jet(1, order, {(0,): a, (1,): b}),))


def _random_curved_field(n: int, order: int, rng: random.Random) -> Derivation:
    k = rng.randint(2, order)
    return Derivation(1, order, (Jet.monomial(1, order, (k,), _rand_rational(rng, nonzero=True)),))


# -- evaluators ------------------------------------------------------------------
#
# Each evaluator returns its sides, a tuple of the comparisons
# (name, lhs, rhs) that decide the trial; ``_verdict`` reads their orders and
# turns them into the outcome.  A predicate (C9's centralizer and grid, C10's
# kernel) is a side (name, truth value, True).  The benchmark's tracer reads
# a list result as rows of rationals, so the sides are never a list.


def _eval_c1(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    s, t = inputs["maps"]
    lhs = s.compose(t).jacobian_matrix()
    rhs = s.jacobian_matrix() @ s.apply_matrix(t.jacobian_matrix())
    return (("jacobian-chain", lhs, rhs),)


def _eval_c2(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    s, t = inputs["maps"]
    lhs = s.compose(t).jacobian_det()
    rhs = s.jacobian_det() * s.apply(t.jacobian_det())
    return (("det-cocycle", lhs, rhs),)


def _eval_c3(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    (s,) = inputs["maps"]
    inv = s.invert()
    js, jinv = s.jacobian_matrix(), inv.jacobian_matrix()
    return (
        ("inverse-jacobian", jinv, inv.apply_matrix(matrix_inverse(js))),
        ("inverse-det", jinv.det(), inv.apply(js.det().invert_unit())),
    )


def _eval_c4(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    (s,) = inputs["maps"]
    jinv = matrix_inverse(s.jacobian_matrix())
    zero = Jet.zero(n, order)
    return tuple([
        (f"piola-row-{i}", sum((e.partial_derivative(j) for j, e in enumerate(row, 1)), zero),
         zero)
        for i, row in enumerate(jinv.rows, 1)
    ])


def _divergence_equivariance_side(s: FormalMap, f: Derivation, jinv=None) -> Side:
    lhs = pushforward(s, f, jinv).divergence()
    rhs = s.apply(f.divergence()).truncate(s.order - 2)
    return "div-equivariance", lhs, rhs


def _eval_c5(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    (s,) = inputs["maps"]
    (f,) = inputs["fields"]
    return (_divergence_equivariance_side(s, f),)


def _eval_c6(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    f, g, fc, gc = inputs["fields"]
    return (
        ("bracket-divergence", f.bracket(g).divergence(),
         f.apply(g.divergence()) - g.apply(f.divergence())),
        ("const-div-closure", fc.bracket(gc).divergence(), Jet.zero(n, order)),
    )


def _eval_c7(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    s, t = inputs["maps"]
    f, g = inputs["fields"]
    jinv_s = matrix_inverse(s.jacobian_matrix())
    return (
        ("push-bracket", pushforward(s, f.bracket(g), jinv_s),
         pushforward(s, f, jinv_s).bracket(pushforward(s, g, jinv_s))),
        ("push-compose", pushforward(s.compose(t), f),
         pushforward(s, pushforward(t, f), jinv_s)),
    )


def _eval_c8(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    (s,) = inputs["maps"]
    frame = coordinate_frame(s)
    return tuple([
        (f"frame-{i + 1}-{j + 1}", frame[i].apply(s.images[j]),
         Jet.constant(n, order, int(i == j)))
        for i in range(n)
        for j in range(n)
    ])


def _scaled_translation_fields(n: int, order: int, lam) -> list[Derivation]:
    # G_i = x_i d_i + sum_k lam_k d_k
    consts = [Jet.constant(n, order, c) for c in lam]
    out = []
    for i in range(n):
        coeffs = list(consts)
        coeffs[i] = consts[i] + Jet.variable(n, order, i + 1)
        out.append(Derivation(n, order, tuple(coeffs)))
    return out


def _noncommutation_holds(n: int, order: int, lam) -> bool:
    gs = _scaled_translation_fields(n, order, lam)
    k = order - 1
    # [G_i, G_j] = lam_j d_j - lam_i d_i
    plus = [Jet.constant(n, k, c) for c in lam]
    zero = Jet.zero(n, k)
    for i, j in itertools.combinations(range(n), 2):
        expected = [zero] * n
        expected[i], expected[j] = -plus[i], plus[j]
        if gs[i].bracket(gs[j]) != Derivation(n, k, tuple(expected)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _grid_noncommutation_ok(n: int, order: int) -> bool:
    # Deterministic per cell, so computed once and shared by its trials.
    return all(
        _noncommutation_holds(n, order, lam)
        for lam in itertools.product((0, 1, -1), repeat=n)
        if any(lam)
    )


def _eval_c9(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    const_f, nonconst_f, lam_f = inputs["fields"]
    sides = (
        ("const-centralizes", centralizes_partials(const_f), True),
        ("nonconst-escapes", not centralizes_partials(nonconst_f), True),
    )
    if n >= 2:
        lam = [c.constant_term for c in lam_f.coefficients]
        sides += (
            ("grid-noncommutation", _grid_noncommutation_ok(n, order), True),
            ("trial-noncommutation", _noncommutation_holds(n, order, lam), True),
        )
    return sides


@functools.lru_cache(maxsize=None)
def _univariate_kernel_ok(order: int) -> bool:
    # Constraint matrix: column k is div(x^k d), read off at degrees 1..order-1.
    basis = [Jet.monomial(1, order, (k,), 1) for k in range(order + 1)]
    divs = [b.partial_derivative(1) for b in basis]
    rows = [
        [d.coefficient((m,)) for d in divs]
        for m in range(1, order)
    ]
    kern = linalg.kernel_basis(rows, order + 1)
    if len(kern) != 2:
        return False
    e0 = [Q(1)] + [Q(0)] * order
    e1 = [Q(0), Q(1)] + [Q(0)] * (order - 1)
    if kern[0] != e0 or kern[1] != e1:
        return False
    for v in kern:
        jet = Jet(1, order, {(k,): v[k] for k in range(order + 1) if v[k]})
        if not classify_divergence(Derivation(1, order, (jet,))).is_constant:
            return False
    return True


def _eval_c10(n: int, order: int, inputs: Inputs) -> tuple[Side, ...]:
    affine, curved = inputs["fields"]
    # The divergence of (a + b x) d is b; a value of None says "nonconstant".
    return (
        ("univariate-kernel", _univariate_kernel_ok(order), True),
        ("affine-divergence", classify_divergence(affine).value,
         affine.coefficients[0].coefficient((1,))),
        ("curved-nonconstant", classify_divergence(curved).kind, "nonconstant"),
    )


def _verdict(order: int, sides: tuple[Side, ...]) -> Outcome:
    """The outcome of a trial on inputs of order ``order``.  A side of jets
    (``Jet``, ``JetMatrix``, ``JetTuple``) is decided at the lower order of
    its halves, any other side with ``==``.  The verdict order is the lowest
    of those orders, or order - 1 with no jet side (C9, C10).  The trial
    passes when each side's halves are equal, and otherwise names the first
    side that differs."""
    orders, failed = [], ""
    for name, lhs, rhs in sides:
        jets = isinstance(lhs, (Jet, JetMatrix, JetTuple))
        if jets:
            orders.append(min(lhs.order, rhs.order))
        if not failed and not (lhs.equal_at(rhs, orders[-1]) if jets else lhs == rhs):
            failed = name
    return Outcome(not failed, min(orders, default=order - 1), failed)


# -- the C5 negative control -------------------------------------------------------


def negative_control_map(n: int, order: int) -> FormalMap:
    """A fixed automorphism whose Jacobian determinant is not constant."""
    if n == 1:
        x = Jet.variable(1, order, 1)
        return FormalMap(1, order, (x + Jet.monomial(1, order, (2,), 1),))
    images = list(
        Jet.variable(n, order, i + 1) for i in range(n)
    )
    x1x2 = tuple(1 if k < 2 else 0 for k in range(n))
    images[0] = images[0] + Jet.monomial(n, order, x1x2, 1)
    return FormalMap(n, order, tuple(images))


def _witness_basis(n: int, order: int) -> list[Derivation]:
    basis = [partial_field(n, order, i + 1) for i in range(n)]
    basis += [euler_field(n, order, i + 1) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                coeffs = [
                    Jet.variable(n, order, j + 1) if k == i else Jet.zero(n, order)
                    for k in range(n)
                ]
                basis.append(Derivation(n, order, tuple(coeffs)))
    return basis


def _c5_control(n: int, order: int) -> ControlResult:
    t0 = time.perf_counter()
    s = negative_control_map(n, order)
    jinv = matrix_inverse(s.jacobian_matrix())
    witness = None
    for fld in _witness_basis(n, order):
        side = _divergence_equivariance_side(s, fld, jinv)
        outcome = _verdict(order, (side,))
        if not outcome.passed:
            _, lhs, rhs = side
            witness = {
                "map": s.to_dict(),
                "field": fld.to_dict(),
                "lhs": lhs.to_dict(),
                "rhs": rhs.to_dict(),
            }
            break
    failed = witness is not None and not s.is_constant_jacobian()
    ms = (time.perf_counter() - t0) * 1000.0
    return ControlResult(
        kind="off-class-divergence-equivariance",
        expected_fail=True,
        failed=failed,
        verdict_order=outcome.verdict_order,
        ms=ms,
        witness=witness,
    )


# -- catalog ---------------------------------------------------------------------


CHECKS: dict[str, IdentityCheck] = {
    c.ident: c
    for c in (
        IdentityCheck(
            "C1", "jacobian-chain-rule",
            "J(compose(s,t)) == J(s) @ s(J(t))",
            2, evaluate=_eval_c1,
            **_drawing(maps=("random_automorphism", "random_automorphism")),
        ),
        IdentityCheck(
            "C2", "jacobian-det-cocycle",
            "detJ(compose(s,t)) == detJ(s) * s(detJ(t))",
            2, evaluate=_eval_c2,
            **_drawing(maps=("random_automorphism", "random_automorphism")),
        ),
        IdentityCheck(
            "C3", "inverse-jacobian-formulas",
            "J(invert(s)) == invert(s)(J(s)^-1), same for detJ",
            2, evaluate=_eval_c3, **_drawing(maps=("random_automorphism",)),
        ),
        IdentityCheck(
            "C4", "piola-identity",
            "sum_j d_j (J^-1)[i][j] == 0 for constant-Jacobian maps",
            3, evaluate=_eval_c4, **_drawing(maps=("random_const_jacobian",)),
        ),
        IdentityCheck(
            "C5", "divergence-equivariance",
            "div(push(s, D)) == s(div(D)) for constant-Jacobian s",
            3, evaluate=_eval_c5,
            **_drawing(maps=("random_const_jacobian",), fields=("random_field",)),
            control=_c5_control,
        ),
        IdentityCheck(
            "C6", "bracket-divergence",
            "div[D,E] == D(div E) - E(div D); const-div fields close up",
            3, evaluate=_eval_c6,
            **_drawing(fields=("random_field", "random_field",
                               "_random_const_div", "_random_const_div")),
        ),
        IdentityCheck(
            "C7", "pushforward-bracket",
            "push(s,[D,E]) == [push(s,D), push(s,E)]; push(compose(s,t), D) == push(s, push(t, D))",
            3, evaluate=_eval_c7,
            **_drawing(maps=("random_automorphism", "random_automorphism"),
                       fields=("random_field", "random_field")),
        ),
        IdentityCheck(
            "C8", "frame-duality",
            "push(s, d_i) applied to s(x_j) == delta_ij",
            3, evaluate=_eval_c8, **_drawing(maps=("random_automorphism",)),
        ),
        IdentityCheck(
            "C9", "partials-centralizer",
            "[d_i, D] == 0 for all i iff D has constant coefficients; "
            "scaled translations do not commute",
            2, evaluate=_eval_c9,
            **_drawing(fields=("_random_constant_field", "_random_nonconstant_field",
                               "_random_weights")),
        ),
        IdentityCheck(
            "C10", "univariate-structure",
            "in one variable the constant-divergence fields are span{d, x d}",
            2, evaluate=_eval_c10,
            **_drawing(fields=("_random_affine_field", "_random_curved_field")),
            n_only=1,
        ),
    )
}

CHECK_IDS = tuple(CHECKS)


# -- configuration and execution ----------------------------------------------------

# The suite's own ceilings, checked for each cell before any of its trials
# runs beside the ring and determinant ones in ``jets``.  C9's grid brackets
# every pair of n scaled translation fields for each of the 3**n - 1 nonzero
# weight vectors, at about 0.07 ms a bracket on the largest ring admitted at
# each n, on a 2-vCPU Xeon under Python 3.11; the ceiling admits n <= 5,
# about 0.2 s a cell of 100 trials at (5, 7), and refuses n = 6, whose grid
# alone takes about 0.7 s at (6, 6).  C2 and C3 take Jacobian determinants,
# and so does C5's control.  ``validate`` caps a cell's trials at 100 times
# the default: 10 000 trials of C7 at (3, 5), the costliest default cell at
# about 12 ms a trial, take two minutes.
MAX_GRID_BRACKETS = 2500
MAX_TRIALS = 10_000
_DET_CHECKS = ("C2", "C3", "C5")


def _cell_check(check, n, order) -> IdentityCheck:
    """The catalog entry that runs at (n, order).

    Raises ``ConfigError`` if none can, or if the cell is too costly.
    """
    cd = CHECKS.get(check) if isinstance(check, str) else None
    if cd is None:
        raise ConfigError(
            f"unknown check {_shown(check)}; valid ids are {', '.join(CHECK_IDS)}"
        )
    if type(n) is not int or n < 1:
        raise ConfigError(f"n must be a positive int, got {_shown(n)}")
    if type(order) is not int:
        raise ConfigError(f"order must be an int, got {_shown(order)}")
    if not cd.applicable(n):
        raise ConfigError(f"check {check} only applies to n = {cd.n_only}")
    if order < cd.min_order:
        raise ConfigError(f"check {check} needs order >= {cd.min_order}, got {_shown(order)}")
    _cost_guard(f"check {check}", n, order, det=check in _DET_CHECKS)
    if check == "C9":
        # n passed the ring ceiling, so 3**n stays small.
        brackets = (3 ** n - 1) * n * (n - 1) // 2
        if brackets > MAX_GRID_BRACKETS:
            raise ConfigError(
                f"C9 at n={n} is too costly: its grid needs {brackets} brackets, "
                f"above the limit of {MAX_GRID_BRACKETS}"
            )
    return cd


def _as_tuple(what: str, values) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{what} must be a sequence, got {type(values).__name__}") from None


class SuiteConfig(_Record):
    __slots__ = ("checks", "n_list", "order_list", "trials", "seed")

    def __init__(self, checks: tuple[str, ...] = CHECK_IDS, n_list: tuple[int, ...] = (1, 2, 3),
                 order_list: tuple[int, ...] = (3, 4, 5), trials: int = 100,
                 seed: int = 0) -> None:
        self._fill(_as_tuple("checks", checks), _as_tuple("n_list", n_list),
                   _as_tuple("order_list", order_list), trials, seed)

    def validate(self) -> None:
        if not self.checks:
            raise ConfigError("no checks selected")
        unknown = [c for c in self.checks if not isinstance(c, str) or c not in CHECKS]
        if unknown:
            raise ConfigError(
                f"unknown checks {_shown(unknown)}; valid ids are {', '.join(CHECK_IDS)}"
            )
        if not self.n_list or any(type(n) is not int or n < 1 for n in self.n_list):
            raise ConfigError("n_list must be non-empty positive ints")
        if not self.order_list or any(type(o) is not int or o < 1 for o in self.order_list):
            raise ConfigError("order_list must be non-empty positive ints")
        # A repeated value would run the same cells, with the same seeds, twice.
        for what, values in (("check ids", self.checks), ("n", self.n_list),
                             ("orders", self.order_list)):
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {what} in configuration")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError("trials must be a positive int")
        if self.trials > MAX_TRIALS:
            raise ConfigError(
                f"trials={_shown(self.trials)} is too costly: at most {MAX_TRIALS} "
                f"trials a cell are admitted"
            )
        if type(self.seed) is not int:
            raise ConfigError("seed must be an int")
        for ident in self.checks:
            need = CHECKS[ident].min_order
            low = [o for o in self.order_list if o < need]
            if low:
                raise ConfigError(
                    f"check {ident} needs order >= {need}, rejected orders {low}"
                )
        if not any(
            CHECKS[ident].applicable(n) for ident in self.checks for n in self.n_list
        ):
            raise ConfigError("configuration yields no applicable (check, n) cells")
        for ident in self.checks:
            for n in self.n_list:
                if CHECKS[ident].applicable(n):
                    for order in self.order_list:
                        _cell_check(ident, n, order)

    def to_dict(self) -> dict:
        return {
            "checks": list(self.checks),
            "n_list": list(self.n_list),
            "order_list": list(self.order_list),
            "trials": self.trials,
            "seed": self.seed,
        }


def trial_seed(master: int, check: str, n: int, order: int, index: int) -> int:
    digest = hashlib.sha256(
        f"{master}|{check}|{n}|{order}|{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _serialize_inputs(inputs: Inputs) -> dict:
    return {
        "maps": [m.to_dict() for m in inputs.get("maps", ())],
        "fields": [f.to_dict() for f in inputs.get("fields", ())],
    }


def run_check(check: str, n: int, order: int, seed: int) -> TrialResult:
    """One seeded trial of one catalog check; failures carry a rerun payload."""
    cd = _cell_check(check, n, order)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    inputs = cd.generate(rng, n, order)
    outcome = _verdict(order, cd.evaluate(n, order, inputs))
    ms = (time.perf_counter() - t0) * 1000.0
    payload = None
    if not outcome.passed:
        payload = {"check": check, "n": n, "order": order, **_serialize_inputs(inputs)}
    return TrialResult(seed, outcome.passed, outcome.verdict_order, ms, payload)


def rerun_payload(payload: Mapping) -> Outcome:
    """Re-evaluate a failed trial from its recorded payload.

    A payload that does not describe a valid trial raises ``ConfigError``.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"payload must be a mapping, got {type(payload).__name__}")
    check, n, order = payload.get("check"), payload.get("n"), payload.get("order")
    cd = _cell_check(check, n, order)
    try:
        inputs = {
            "maps": tuple(FormalMap.from_dict(m) for m in payload.get("maps", [])),
            "fields": tuple(Derivation.from_dict(f) for f in payload.get("fields", [])),
        }
    except (KeyError, TypeError, ValueError, JetfieldsError) as exc:
        raise ConfigError(f"payload inputs do not decode: {exc!r}") from None
    arity = tuple(len(inputs[kind]) for kind in ("maps", "fields"))
    if arity != cd.arity:
        raise ConfigError(
            f"check {check} takes (maps, fields) = {cd.arity}, payload has {arity}"
        )
    if any(x.n != n or x.order != order for xs in inputs.values() for x in xs):
        raise ConfigError(f"payload inputs must live at n = {n}, order = {order}")
    try:
        return _verdict(order, cd.evaluate(n, order, inputs))
    except JetfieldsError as exc:
        # Inputs the check cannot take, such as a map with no inverse.
        raise ConfigError(f"payload inputs are outside check {check}: {exc}") from None


class VerificationReport(_Record):
    """All cell results for one configuration; canonically serializable."""

    __slots__ = ("config", "cells")

    def __init__(self, config: SuiteConfig, cells: tuple[CellResult, ...]) -> None:
        self._fill(config, cells)

    @property
    def trial_count(self) -> int:
        return sum(len(c.trials) for c in self.cells)

    @property
    def control_count(self) -> int:
        return sum(len(c.controls) for c in self.cells)

    @property
    def unexpected_failures(self) -> int:
        return sum(c.unexpected for c in self.cells)

    def to_dict(self, include_timings: bool = False) -> dict:
        cells = []
        for cell in self.cells:
            trials = []
            for t in cell.trials:
                row: dict = {
                    "seed": t.seed,
                    "pass": t.passed,
                    "verdict_order": t.verdict_order,
                }
                if include_timings:
                    row["ms"] = t.ms
                if t.payload is not None:
                    row["payload"] = t.payload
                trials.append(row)
            entry: dict = {
                "check": cell.check,
                "n": cell.n,
                "order": cell.order,
                "trials": trials,
            }
            if cell.controls:
                entry["controls"] = []
                for c in cell.controls:
                    crow: dict = {
                        "kind": c.kind,
                        "expected_fail": c.expected_fail,
                        "failed": c.failed,
                        "verdict_order": c.verdict_order,
                        "witness": c.witness,
                    }
                    if include_timings:
                        crow["ms"] = c.ms
                    entry["controls"].append(crow)
            cells.append(entry)
        return {
            "config": self.config.to_dict(),
            "cells": cells,
            "summary": {
                "cells": len(self.cells),
                "trials": self.trial_count,
                "controls": self.control_count,
                "unexpected_failures": self.unexpected_failures,
            },
        }

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2)

    def summary_line(self) -> str:
        return (
            f"summary: cells={len(self.cells)} trials={self.trial_count} "
            f"controls={self.control_count} "
            f"unexpected_failures={self.unexpected_failures}"
        )

    def table(self) -> str:
        header = f"{'check':<6} {'n':>2} {'N':>2} {'trials':>6} {'ok':>6} {'fail':>5} {'ctrl':>5} {'verdict':>7}"
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            ok = sum(1 for t in cell.trials if t.passed)
            fail = len(cell.trials) - ok
            if cell.controls:
                ctrl = "ok" if all(c.ok for c in cell.controls) else "BAD"
            else:
                ctrl = "-"
            verdict = min(t.verdict_order for t in cell.trials)
            lines.append(
                f"{cell.check:<6} {cell.n:>2} {cell.order:>2} "
                f"{len(cell.trials):>6} {ok:>6} {fail:>5} {ctrl:>5} {verdict:>7}"
            )
        lines.append(self.summary_line())
        return "\n".join(lines)


def run_suite(config: SuiteConfig = SuiteConfig()) -> VerificationReport:
    """Run every applicable (check, n, order) cell of the configuration."""
    config.validate()
    cells = []
    for ident in config.checks:
        cd = CHECKS[ident]
        for n in config.n_list:
            if not cd.applicable(n):
                continue
            for order in config.order_list:
                trials = tuple(
                    run_check(ident, n, order, trial_seed(config.seed, ident, n, order, t))
                    for t in range(config.trials)
                )
                controls = (cd.control(n, order),) if cd.control else ()
                cells.append(CellResult(ident, n, order, trials, controls))
    return VerificationReport(config, tuple(cells))
