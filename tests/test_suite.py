"""Verification suite: catalog, seeding, controls, reports, determinism."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from jetfields import (
    CHECK_IDS,
    CHECKS,
    ConfigError,
    IdentityCheck,
    SuiteConfig,
    negative_control_map,
    rerun_payload,
    run_check,
    run_suite,
    trial_seed,
)
from jetfields import suite
from jetfields.suite import _serialize_inputs

SMALL = SuiteConfig(n_list=(1, 2), order_list=(3, 4), trials=3, seed=11)


# -- catalog ------------------------------------------------------------------


def test_catalog_shape():
    assert CHECK_IDS == tuple(f"C{k}" for k in range(1, 11))
    for ident, check in CHECKS.items():
        assert check.ident == ident
        assert check.statement
        assert check.min_order >= 2
    assert CHECKS["C10"].n_only == 1
    assert all(CHECKS[c].n_only is None for c in CHECK_IDS if c != "C10")
    expected_min = {"C1": 2, "C2": 2, "C3": 2, "C4": 3, "C5": 3,
                    "C6": 3, "C7": 3, "C8": 3, "C9": 2, "C10": 2}
    assert {c: CHECKS[c].min_order for c in CHECK_IDS} == expected_min


def test_generators_mix_shears_into_every_map():
    # Every map drawn for a cell in two or more variables is non-linear:
    # the samplers compose shears after the linear part.
    rng = random.Random(4)
    for ident in ("C1", "C4", "C5"):
        for n in (2, 3):
            for _ in range(5):
                for s in CHECKS[ident].generate(rng, n, 4)["maps"]:
                    assert any(sum(e) > 1 for img in s.images for e in img.terms)


# -- seeding -------------------------------------------------------------------


def test_trial_seed_golden():
    assert trial_seed(0, "C1", 2, 4, 0) == 17965389255908830023
    assert trial_seed(0, "C1", 2, 4, 1) == 8105222731335536529


def test_trial_seeds_distinguish_every_input():
    base = trial_seed(5, "C3", 2, 4, 7)
    assert trial_seed(6, "C3", 2, 4, 7) != base
    assert trial_seed(5, "C4", 2, 4, 7) != base
    assert trial_seed(5, "C3", 3, 4, 7) != base
    assert trial_seed(5, "C3", 2, 5, 7) != base
    assert trial_seed(5, "C3", 2, 4, 8) != base


# -- single trials --------------------------------------------------------------


def test_each_check_passes_one_trial():
    drops_two = {"C4", "C5", "C6", "C7"}
    for ident in CHECK_IDS:
        n = 1 if CHECKS[ident].n_only == 1 else 2
        result = run_check(ident, n, 4, seed=trial_seed(0, ident, n, 4, 0))
        assert result.passed, ident
        assert result.payload is None
        assert result.verdict_order == (2 if ident in drops_two else 3), ident


def test_run_check_rejects_bad_cells():
    with pytest.raises(ConfigError):
        run_check("C99", 2, 4, 0)
    with pytest.raises(ConfigError):
        run_check("C10", 2, 4, 0)
    with pytest.raises(ConfigError):
        run_check("C4", 2, 2, 0)


def test_run_check_rejects_non_positive_n():
    with pytest.raises(ConfigError, match="positive int"):
        run_check("C1", 0, 3, 1)
    with pytest.raises(ConfigError):
        run_check("C1", True, 3, 1)


# -- configuration validation -----------------------------------------------------


def test_config_validation():
    SMALL.validate()
    cases = [
        SuiteConfig(checks=()),
        SuiteConfig(checks=("C1", "C99")),
        SuiteConfig(checks=("C1", "C1")),
        SuiteConfig(n_list=()),
        SuiteConfig(n_list=(0,)),
        SuiteConfig(n_list=(1, 2, 1)),
        SuiteConfig(order_list=()),
        SuiteConfig(order_list=(3, 0)),
        SuiteConfig(order_list=(3, 3)),
        SuiteConfig(trials=0),
        SuiteConfig(seed="0"),
        SuiteConfig(checks=("C4",), order_list=(2, 3)),
        SuiteConfig(checks=("C10",), n_list=(2, 3)),
        SuiteConfig(checks=(["C1"],)),
        SuiteConfig(n_list=(True,)),
        SuiteConfig(order_list=(3, True)),
        SuiteConfig(trials=True),
        SuiteConfig(seed=False),
    ]
    for config in cases:
        with pytest.raises(ConfigError):
            config.validate()


def test_config_cost_guard():
    # Every config that the tests, the README and the benchmark run is
    # admitted, the stretch point with C9 included.
    for config in (SuiteConfig(), SMALL, SuiteConfig(n_list=(4,), order_list=(8,)),
                   SuiteConfig(checks=("C9",), n_list=(5,), order_list=(2, 5)),
                   SuiteConfig(checks=("C2", "C3", "C5"), n_list=(8,), order_list=(3, 4))):
        config.validate()
    too_costly = [
        SuiteConfig(n_list=(12,)),
        SuiteConfig(checks=("C1",), n_list=(4,), order_list=(11,)),
        SuiteConfig(checks=("C1",), n_list=(1,), order_list=(1001,)),
        SuiteConfig(checks=("C1",), n_list=(10 ** 9,), order_list=(10 ** 9,)),
        SuiteConfig(checks=("C9",), n_list=(6,), order_list=(2,)),
        # Rings these small pass the ring ceiling; the determinant does not.
        SuiteConfig(checks=("C2",), n_list=(20,), order_list=(2,)),
        SuiteConfig(checks=("C2",), n_list=(43,), order_list=(2,)),
        SuiteConfig(checks=("C3",), n_list=(9,), order_list=(2,)),
        SuiteConfig(checks=("C5",), n_list=(9,), order_list=(3,)),
    ]
    for config in too_costly:
        with pytest.raises(ConfigError, match="too costly"):
            config.validate()
    # A ring past the ceiling only counts where some selected check applies.
    SuiteConfig(checks=("C10",), n_list=(1, 12), order_list=(3,)).validate()


def test_single_cells_are_refused_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("no trial may start")

    for ident, n in (("C9", 6), ("C2", 20)):
        cd = CHECKS[ident]
        monkeypatch.setitem(suite.CHECKS, ident, IdentityCheck(
            cd.ident, cd.name, cd.statement, cd.min_order, no_trial, no_trial, cd.arity,
            n_only=cd.n_only, control=cd.control,
        ))
        with pytest.raises(ConfigError, match="too costly"):
            run_check(ident, n, 2, 0)
        with pytest.raises(ConfigError, match="too costly"):
            rerun_payload({"check": ident, "n": n, "order": 2, "maps": [], "fields": []})


def test_inapplicable_cells_are_skipped_not_run():
    report = run_suite(SuiteConfig(
        checks=("C1", "C10"), n_list=(2,), order_list=(3,), trials=2, seed=0,
    ))
    assert [c.check for c in report.cells] == ["C1"]


# -- controls and payloads ----------------------------------------------------------


def test_c5_control_fails_as_expected_with_witness():
    report = run_suite(SuiteConfig(
        checks=("C5",), n_list=(2,), order_list=(4,), trials=2, seed=3,
    ))
    (cell,) = report.cells
    (control,) = cell.controls
    assert control.expected_fail and control.failed and control.ok
    assert control.verdict_order == 2
    assert set(control.witness) == {"map", "field", "lhs", "rhs"}
    assert report.unexpected_failures == 0
    assert not negative_control_map(2, 4).is_constant_jacobian()


def test_rerun_payload_reproduces_control_failure():
    report = run_suite(SuiteConfig(
        checks=("C5",), n_list=(2,), order_list=(4,), trials=1, seed=3,
    ))
    witness = report.cells[0].controls[0].witness
    payload = {
        "check": "C5", "n": 2, "order": 4,
        "maps": [witness["map"]], "fields": [witness["field"]],
    }
    outcome = rerun_payload(payload)
    assert not outcome.passed


def test_rerun_payload_on_passing_inputs():
    from jetfields import identity_map, partial_field

    payload = {
        "check": "C5", "n": 2, "order": 4,
        "maps": [identity_map(2, 4).to_dict()],
        "fields": [partial_field(2, 4, 1).to_dict()],
    }
    assert rerun_payload(payload).passed
    with pytest.raises(ConfigError):
        rerun_payload({"check": "C99", "n": 2, "order": 4})


def test_rerun_payload_rejects_unhashable_check():
    with pytest.raises(ConfigError, match="unknown check"):
        rerun_payload({"check": []})


def test_rerun_payload_rejects_missing_ring():
    with pytest.raises(ConfigError, match="n must be"):
        rerun_payload({"check": "C1"})
    with pytest.raises(ConfigError, match="order must be"):
        rerun_payload({"check": "C1", "n": 2})


def test_rerun_payload_rejects_malformed_inputs():
    from jetfields import identity_map, partial_field

    ident = identity_map(2, 4).to_dict()
    bad = [
        [],
        {"check": "C1", "n": 2, "order": 4, "maps": [ident]},
        {"check": "C1", "n": 2, "order": 4, "maps": [ident, {"n": 2}]},
        {"check": "C1", "n": 2, "order": 4, "maps": [ident, identity_map(3, 4).to_dict()]},
        {"check": "C5", "n": 2, "order": 4, "maps": [ident],
         "fields": [partial_field(2, 3, 1).to_dict()]},
    ]
    for payload in bad:
        with pytest.raises(ConfigError):
            rerun_payload(payload)


def test_arity_table_matches_generators():
    for ident in CHECK_IDS:
        n = CHECKS[ident].n_only or 2
        inputs = CHECKS[ident].generate(random.Random(0), n, 4)
        assert CHECKS[ident].arity == (len(inputs["maps"]), len(inputs["fields"])), ident


def test_a_wrapper_bound_to_a_sampler_name_sees_each_draw():
    # The benchmark's tracer rebinds the samplers' names in ``suite``; a
    # catalog entry that held a sampler as a function object would draw past it.
    def counting(counts, name, sampler):
        def counted(*args):
            counts[name] += 1
            return sampler(*args)
        return counted

    for ident in CHECK_IDS:
        draw = CHECKS[ident].generate
        declared = draw.maps + draw.fields
        counts = dict.fromkeys(declared, 0)
        with pytest.MonkeyPatch.context() as mp:
            for name in counts:
                mp.setattr(suite, name, counting(counts, name, getattr(suite, name)))
            run_check(ident, CHECKS[ident].n_only or 2, 4, 0)
        assert counts == {name: declared.count(name) for name in counts}, ident


# -- reports ----------------------------------------------------------------------------


def test_run_suite_is_deterministic():
    a = run_suite(SMALL)
    b = run_suite(SMALL)
    assert a.to_json() == b.to_json()
    c = run_suite(SuiteConfig(n_list=(1, 2), order_list=(3, 4), trials=3, seed=12))
    assert a.to_json() != c.to_json()


def test_report_shape_and_counts():
    report = run_suite(SMALL)
    d = report.to_dict()
    assert set(d) == {"config", "cells", "summary"}
    assert d["config"] == SMALL.to_dict()
    # C10 only applies at n=1, everything else at both n values
    assert len(d["cells"]) == (9 * 2 + 1) * 2
    assert d["summary"] == {
        "cells": len(d["cells"]),
        "trials": report.trial_count,
        "controls": report.control_count,
        "unexpected_failures": 0,
    }
    for cell in d["cells"]:
        assert set(cell) <= {"check", "n", "order", "trials", "controls"}
        for trial in cell["trials"]:
            assert set(trial) == {"seed", "pass", "verdict_order"}
            assert trial["pass"] is True
    blob = json.loads(report.to_json())
    assert blob == d


def test_report_timings_are_optional():
    report = run_suite(SuiteConfig(
        checks=("C1",), n_list=(2,), order_list=(3,), trials=2, seed=0,
    ))
    plain = report.to_dict()
    timed = report.to_dict(include_timings=True)
    assert "ms" not in plain["cells"][0]["trials"][0]
    assert timed["cells"][0]["trials"][0]["ms"] >= 0


def test_summary_line_and_table():
    report = run_suite(SMALL)
    line = report.summary_line()
    assert line == (
        f"summary: cells={len(report.cells)} trials={report.trial_count} "
        f"controls={report.control_count} unexpected_failures=0"
    )
    table = report.table()
    assert "check" in table.splitlines()[0]
    assert len(table.splitlines()) >= len(report.cells)


def test_trial_seeds_in_report_follow_the_derivation():
    report = run_suite(SuiteConfig(
        checks=("C2",), n_list=(3,), order_list=(4,), trials=3, seed=42,
    ))
    seeds = [t.seed for t in report.cells[0].trials]
    assert seeds == [trial_seed(42, "C2", 3, 4, k) for k in range(3)]


# -- pinned outputs ----------------------------------------------------------------
#
# Digests taken from the kernel that stored Fraction coefficients, before
# the integer-form rewrite.  Every trial passes, so the report alone does
# not pin what the samplers draw; the input digest does, and a change that
# shifts an RNG stream or the sampled values fails it.

REPORT_TRIALS_2_SHA256 = "d000cc3815d9692e58b106ec7540b059857660b2c831e08cffca448c65c7df85"
TRIAL_0_INPUTS_SHA256 = "42f7a4e0a184d4ae1530b9b7da04d8eb7c72f2b10c7a5c07edb7fac8f1490822"


def test_default_grid_report_is_pinned():
    report = run_suite(SuiteConfig(trials=2)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_TRIALS_2_SHA256


def test_sampled_inputs_are_pinned():
    config = SuiteConfig()
    digest = hashlib.sha256()
    cells = 0
    for ident in config.checks:
        check = CHECKS[ident]
        for n in config.n_list:
            if not check.applicable(n):
                continue
            for order in config.order_list:
                rng = random.Random(trial_seed(config.seed, ident, n, order, 0))
                inputs = _serialize_inputs(check.generate(rng, n, order))
                digest.update(json.dumps(inputs, sort_keys=True).encode())
                digest.update(b"\n")
                cells += 1
    assert cells == 84
    assert digest.hexdigest() == TRIAL_0_INPUTS_SHA256
