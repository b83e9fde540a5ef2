"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calcgen  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, covered  # noqa: E402

# -- self time ------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert covered(0, 10, [(3, 6), (1, 4)]) == 5
    assert covered(0, 10, [(-1, 2), (9, 12)]) == 3
    assert covered(0, 10, [(2, 3), (1, 5)]) == 4


def test_self_time_of_nested_spans():
    # Clock reads in call order: root start, a start, inner start, inner
    # end and close, a end and close, b start, b end and close, root end
    # and close.
    times = iter([0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 7.0, 7.0, 10.0, 10.0])
    tr = Tracer(clock=lambda: next(times))
    inner = tr.wrap("a.inner", lambda: None)
    a = tr.wrap("a", inner)
    b = tr.wrap("b", lambda: None)
    root = tr.wrap("root", lambda: (a(), b()))
    root()
    assert list(tr.parent) == [-1, 0, 1, 0]
    assert tr.self_times() == [5.0, 2.0, 1.0, 2.0]
    summary = tr.summary()
    assert summary["root"] == {"calls": 1, "self_s": 5.0}
    assert sum(row["self_s"] for row in summary.values()) == 10.0


def test_wrapped_calls_nest_and_result_measuring_is_charged_to_no_layer():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))

    inner = tr.wrap("inner", lambda: 1)
    outer = tr.wrap("outer", lambda: inner() + 1)
    assert outer() == 2
    # clock: outer start 0, inner start 1, inner end 2, inner close 3,
    # outer end 4, outer close 5.
    assert list(tr.parent) == [-1, 0]
    assert (tr.start[0], tr.end[0], tr.close[0]) == (0.0, 4.0, 5.0)
    assert (tr.start[1], tr.end[1], tr.close[1]) == (1.0, 2.0, 3.0)
    assert tr.self_times() == [2.0, 1.0]


def test_a_raising_call_still_closes_its_span():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tr.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert tr.end[0] >= tr.start[0] and tr.close[0] == tr.end[0]
    assert tr._stack == []


# -- binding every copy -------------------------------------------------------------


def test_install_binds_every_copy_and_uninstall_restores_them():
    import jetfields
    from jetfields import fields, jets, maps, suite

    originals = (maps.matrix_inverse, fields.pushforward, jets.Jet.__mul__)
    tr = Tracer()
    tr.install()
    try:
        for copy in (fields.matrix_inverse, suite.matrix_inverse, jetfields.matrix_inverse):
            assert copy is maps.matrix_inverse
        assert suite.pushforward is fields.pushforward is jetfields.pushforward
        assert jets.Jet.__rmul__ is jets.Jet.__mul__
        assert maps.matrix_inverse.__wrapped__ is originals[0]
        assert fields.pushforward.__wrapped__ is originals[1]

        sigma = jetfields.parse_map("x1 -> x1; x2 -> x2 + x1^2", 2, 4)
        suite.matrix_inverse(sigma.jacobian_matrix())
        fields.pushforward(sigma, jetfields.parse_field("(1)*d1", 2, 4))
        x = jetfields.Jet.variable(2, 4, 1)
        _ = 2 * x
        calls = {name: row["calls"] for name, row in tr.summary().items()}
        assert calls["maps.matrix_inverse"] == 2  # direct, and inside pushforward
        assert calls["fields.pushforward"] == 1
        assert calls["syntax.parse"] == 2
        assert calls["jets.mul"] >= 1
        assert tr.max_terms >= 1 and tr.max_bits >= 1
    finally:
        tr.uninstall()
    assert (maps.matrix_inverse, fields.pushforward, jets.Jet.__mul__) == originals
    assert suite.matrix_inverse is originals[0]
    assert all(not hasattr(cd.generate, "__wrapped__") for cd in suite.CHECKS.values())


def test_self_check_table_covers_every_traced_name_once_per_workload():
    traced = set(tracing.TARGETS) | {"suite.generate", "suite.evaluate"}
    for workload in run.WORKLOADS:
        fires, zero = set(run.FIRES[workload]), set(run.ZERO[workload])
        assert not fires & zero
        assert fires | zero == traced


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    printed = ({f"{n}.calls" for n in run.CALLS} | {f"{n}.self_s" for n in run.SELF_S}
               | {f"{n}.self_pct" for n in run.SELF_PCT}
               | {f"suite.{c}.time_pct" for c in run.CHECKS}
               | set(run.COUNTERS) | {"trace.overhead", "trace.spans"})
    assert per_layer == printed
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"ops_per_s", "setup_s", "peak_rss_mb"}


# -- percentile rule ---------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(1000) == 99.0
    assert stats.beyond(1000, 99.0) == 10
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(99) is None
    for count in (1000, 1234, 5000):
        p = stats.tail_percentile(count)
        assert stats.beyond(count, p) >= stats.MIN_BEYOND
    assert run.MIN_REQUESTS >= 1000


# -- machine-speed reference ------------------------------------------------------


def test_pacer_weights_each_stretch_of_work_by_its_bracketing_chunks():
    chunks = iter([9.0, 1.0, 3.0, 2.0])  # warm-up, start, after 0.5 s, at finish
    pacer = calibrate.Pacer(measure=lambda: next(chunks), interval=0.5)
    pacer.work(0.2)
    pacer.work(0.3)  # 0.5 s built up: a chunk runs
    pacer.work(0.25)
    assert pacer.chunks == 2
    # 0.5 s at mean(1, 3) and 0.25 s at mean(3, 2), weighted by work.
    assert abs(pacer.finish() - (0.5 * 2.0 + 0.25 * 2.5) / 0.75) < 1e-12
    assert pacer.chunks == 3


def test_pacer_without_work_reports_its_last_chunk():
    chunks = iter([9.0, 4.0, 5.0])
    pacer = calibrate.Pacer(measure=lambda: next(chunks))
    assert pacer.finish() == 5.0


def test_nominal_busy_scales_by_the_reference():
    piece = {"busy_s": 3.0, "reference_s": 2 * calibrate.NOMINAL_S}
    assert run.nominal_busy(piece) == 1.5


# -- calculator inputs ---------------------------------------------------------------


def _take(seed: int, count: int) -> list:
    return list(itertools.islice(calcgen.requests(seed), count))


def test_request_stream_is_deterministic_per_seed():
    assert _take(3, 64) == _take(3, 64)
    assert _take(3, 64) != _take(4, 64)
    assert {r.kind for r in _take(5, 8)} == set(calcgen.KINDS)


def test_requests_are_valid_inputs():
    from jetfields import parse_field, parse_map

    for req in _take(11, 400):
        assert 1 <= req.n <= 3 and 1 <= req.order <= 5
        assert req.argv()[:5] == [req.kind, "-n", str(req.n), "-N", str(req.order)]
        if req.kind in ("div", "bracket"):
            for text in req.texts:
                parse_field(text, req.n, req.order)
        elif req.kind == "flow":
            (field,) = [parse_field(t, req.n, req.order) for t in req.texts]
            assert all(c.m_adic_order() >= 2 for c in field.coefficients)
        else:
            sigma = parse_map(req.texts[0], req.n, req.order)
            assert sigma.is_automorphism
            if req.kind == "push":
                parse_field(req.texts[1], req.n, req.order)
            elif req.kind == "compose":
                assert parse_map(req.texts[1], req.n, req.order).is_automorphism


def test_linear_parts_are_invertible():
    import random

    rng = random.Random(0)
    for n in (1, 2, 3):
        for _ in range(50):
            assert calcgen.det(calcgen.linear_part(rng, n)) != 0
