"""Acceptance battery: one test per release criterion, run in order.

Each test prints a single CRITERION line (visible under ``pytest -s`` or
in captured output) in addition to its own pass/fail status, so the
module doubles as a checklist.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import jsonschema
import pytest

from conftest import seeded_rng
from jetfields import (
    Derivation,
    FormalMap,
    Jet,
    JetMatrix,
    Q,
    SuiteConfig,
    decompose_const_div,
    exp_flow,
    identity_map,
    linalg,
    negative_control_map,
    parse_field,
    parse_map,
    partial_field,
    pushforward,
    random_automorphism,
    random_divergence_free,
    run_suite,
)

GRID = [(n, order) for n in (1, 2, 3) for order in (3, 4, 5)]

# sha256 of what `jetfields verify --json` prints for the default config.
DEFAULT_REPORT_SHA256 = "4f703104267636cfae641536abb1621ec53bbc6457a60f2141b8a1e4b80e8714"


def report(index: int, label: str, ok: bool) -> None:
    print(f"CRITERION {index} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index}: {label}"


# 1 -- full identity suite, default configuration, under budget


def test_criterion_1_identity_suite_green():
    t0 = time.perf_counter()
    result = run_suite(SuiteConfig())
    elapsed = time.perf_counter() - t0
    ok = result.unexpected_failures == 0 and elapsed < 60.0
    print(f"suite: {result.summary_line()} in {elapsed:.1f}s")
    report(1, "identity suite green under 60s", ok)
    digest = hashlib.sha256((result.to_json() + "\n").encode()).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256, "the default verify --json report changed"


# 2 -- worked examples, bit-exact


def test_criterion_2_worked_examples():
    sigma = parse_map("x1 -> x1; x2 -> x2 + x1^2", 2, 4)

    j = sigma.jacobian_matrix()
    ok = str(j) == "[[1, 2*x1], [0, 1]]"
    ok = ok and sigma.jacobian_det() == Jet.constant(2, 3, 1)

    tau = parse_map("x1 -> x1 + x2^2; x2 -> x2", 2, 3)
    st = sigma.truncate(3).compose(tau)
    ok = ok and str(st.images[0]) == "x1 + x2^2 + 2*x1^2*x2"
    ok = ok and st.images[1] == Jet(2, 3, {(0, 1): 1, (2, 0): 1})

    ok = ok and str(sigma.invert()) == "x1 -> x1; x2 -> x2 - x1^2"

    push = pushforward(sigma, partial_field(2, 4, 1))
    ok = ok and str(push) == "(1)*d1 + (-2*x1)*d2"

    div = parse_field("(x1^2)*d1 + (x1*x2)*d2", 2, 4).divergence()
    ok = ok and div == Jet(2, 3, {(1, 0): 3})

    rest, c = decompose_const_div(parse_field("(x1)*d1 + (x2)*d2", 2, 4))
    ok = ok and c == 2 and str(rest) == "(-x1)*d1 + (x2)*d2"

    report(2, "worked examples bit-exact", ok)


# 3 -- oracle equivalence for multiplication and substitution


def _random_jet(rng, n: int, order: int, zero_const: bool = False) -> Jet:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, order) for _ in range(n))
        if sum(exps) > order or (zero_const and sum(exps) == 0):
            continue
        terms[exps] = Q(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    return Jet(n, order, terms)


def _naive_mul(f: Jet, g: Jet) -> Jet:
    k = min(f.order, g.order)
    acc: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= k:
                acc[e] = acc.get(e, Q(0)) + ca * cb
    return Jet(f.n, k, acc)


def test_criterion_3_oracle_equivalence():
    rng = seeded_rng("acceptance-oracles")
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 3)
        f = _random_jet(rng, n, rng.randint(0, 5))
        g = _random_jet(rng, n, rng.randint(0, 5))
        ok = ok and f * g == _naive_mul(f, g)
    for _ in range(200):
        n = rng.randint(1, 3)
        order = rng.randint(1, 5)
        f = _random_jet(rng, n, order)
        images = [_random_jet(rng, n, order, zero_const=True) for _ in range(n)]
        k = min([f.order] + [g.order for g in images])
        total = Jet.zero(n, k)
        for exps, c in f.terms.items():
            prod = Jet.constant(n, k, c)
            for g, e in zip(images, exps):
                for _ in range(e):
                    prod = _naive_mul(prod, g.truncate(k))
            total = total + prod
        ok = ok and f.substitute(images) == total
    report(3, "multiplication and substitution match naive oracles", ok)


# 4 -- group-law battery


def test_criterion_4_group_laws():
    rng = seeded_rng("acceptance-group")
    ok = True
    for n, order in GRID:
        e = identity_map(n, order)
        for _ in range(100):
            s = random_automorphism(n, order, rng)
            inv = s.invert()
            ok = ok and s.compose(inv) == e and inv.compose(s) == e
    report(4, "compose/invert group laws, 100 automorphisms per cell", ok)


# 5 -- Liouville property of flows


def test_criterion_5_liouville():
    rng = seeded_rng("acceptance-liouville")
    ok = True
    for n, order in GRID:
        one = Jet.constant(n, order - 1, 1)
        for _ in range(50):
            d = random_divergence_free(n, order, rng)
            ok = ok and exp_flow(d).jacobian_det() == one
    report(5, "flows of divergence-free fields have unit Jacobian", ok)


# 6 -- negative control


def test_criterion_6_negative_control():
    control = negative_control_map(2, 4)
    ok = control.images[0] == Jet(2, 4, {(1, 0): 1, (1, 1): 1})
    ok = ok and control.images[1] == Jet.variable(2, 4, 2)
    ok = ok and not control.is_constant_jacobian()
    result = run_suite(SuiteConfig(
        checks=("C5",), n_list=(2,), order_list=(4,), trials=5, seed=1,
    ))
    (cell,) = result.cells
    (ctrl,) = cell.controls
    ok = ok and ctrl.expected_fail and ctrl.failed and ctrl.witness is not None
    ok = ok and result.unexpected_failures == 0
    if ok:
        witness_field = Derivation.from_dict(ctrl.witness["field"])
        witness_map = FormalMap.from_dict(ctrl.witness["map"])
        lhs = pushforward(witness_map, witness_field).divergence()
        rhs = witness_map.apply(witness_field.divergence())
        k = min(lhs.order, rhs.order)
        ok = ok and not lhs.equal_at(rhs, k)
    report(6, "off-class map fails equivariance with recorded witness", ok)


# 7 -- univariate constant-divergence structure


def test_criterion_7_univariate_structure():
    ok = True
    for order in (3, 4, 5):
        # a = sum a_k x^k gives div(a d/dx) = a'; constant divergence kills
        # the x^1..x^(order-1) rows of a', i.e. (k)a_k = 0 for k >= 2.
        rows = []
        for deg in range(1, order):
            row = [Q(0)] * (order + 1)
            row[deg + 1] = Q(deg + 1)
            rows.append(row)
        kernel = linalg.kernel_basis(rows, order + 1)
        expected = [
            [Q(1 if i == j else 0) for i in range(order + 1)] for j in range(2)
        ]
        ok = ok and kernel == expected
        for vec in kernel:
            coeff = Jet(1, order, {(k,): c for k, c in enumerate(vec)})
            d = Derivation(1, order, (coeff,))
            verdict = d.divergence()
            ok = ok and all(sum(e) == 0 for e in verdict.terms)
            ok = ok and verdict.order == order - 1
    report(7, "univariate constant-divergence space is span{d, x d}", ok)


# 8 -- CLI golden outputs


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "jetfields", *argv],
        capture_output=True, text=True,
    )


REPORT_SCHEMA = {
    "type": "object",
    "required": ["config", "cells", "summary"],
    "additionalProperties": False,
    "properties": {
        "config": {
            "type": "object",
            "required": ["checks", "n_list", "order_list", "trials", "seed"],
            "additionalProperties": False,
            "properties": {
                "checks": {"type": "array", "items": {"type": "string"}},
                "n_list": {"type": "array", "items": {"type": "integer"}},
                "order_list": {"type": "array", "items": {"type": "integer"}},
                "trials": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "n", "order", "trials"],
                "additionalProperties": False,
                "properties": {
                    "check": {"type": "string", "pattern": "^C[0-9]+$"},
                    "n": {"type": "integer", "minimum": 1},
                    "order": {"type": "integer", "minimum": 1},
                    "trials": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["seed", "pass", "verdict_order"],
                            "additionalProperties": False,
                            "properties": {
                                "seed": {"type": "integer"},
                                "pass": {"type": "boolean"},
                                "verdict_order": {"type": "integer", "minimum": 1},
                                "ms": {"type": "number"},
                                "payload": {"type": "object"},
                            },
                        },
                    },
                    "controls": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["kind", "expected_fail", "failed", "verdict_order"],
                            "properties": {
                                "kind": {"type": "string"},
                                "expected_fail": {"type": "boolean"},
                                "failed": {"type": "boolean"},
                                "verdict_order": {"type": "integer"},
                                "witness": {"type": "object"},
                            },
                        },
                    },
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["cells", "trials", "controls", "unexpected_failures"],
            "additionalProperties": False,
            "properties": {
                "cells": {"type": "integer"},
                "trials": {"type": "integer"},
                "controls": {"type": "integer"},
                "unexpected_failures": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def test_criterion_8_cli_golden():
    div = _cli("div", "-n", "2", "-N", "4", "(x1)*d1 + (x2)*d2")
    ok = div.returncode == 0 and div.stdout == "2\n"

    jd = _cli("jacdet", "-n", "2", "-N", "4", "x1 -> x1; x2 -> x2 + x1^2")
    ok = ok and jd.returncode == 0 and jd.stdout == "1\n"

    verify = _cli("verify", "--checks", "C5", "--n-list", "2",
                  "--order-list", "4", "--trials", "25", "--seed", "7")
    ok = ok and verify.returncode == 0
    ok = ok and verify.stdout.splitlines()[-1] == (
        "summary: cells=1 trials=25 controls=1 unexpected_failures=0"
    )

    args = ("verify", "--checks", "C1,C5,C10", "--n-list", "1,2",
            "--order-list", "3,4", "--trials", "4", "--seed", "13", "--json")
    first = _cli(*args)
    second = _cli(*args)
    ok = ok and first.returncode == 0 and first.stdout == second.stdout
    blob = json.loads(first.stdout)
    try:
        jsonschema.validate(blob, REPORT_SCHEMA)
    except jsonschema.ValidationError:
        ok = False
    report(8, "CLI goldens, schema-valid and repeatable verify --json", ok)
