"""One measured piece of a workload, run in a fresh interpreter.

``run.py`` starts this script once per suite pass or calculator stream, so
no ``lru_cache`` or other process state carries over between them, and
``ru_maxrss`` is the peak of that one piece.  It prints one JSON object on
its last stdout line.

    python3 perfbench/child.py --workload suite-grid --seed 0 [--trace-file F]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calcgen  # noqa: E402
import calibrate  # noqa: E402

# The default suite grid (C1..C10, n in 1..3, order in 3..5) with the
# trials per cell trimmed so that one pass takes a few seconds.
GRID_TRIALS = 3
# ROADMAP's stretch point.  C3 is left out because one invert takes
# 58-110 s there, C7 because one trial takes 10-15 s, C10 because it only
# applies to n = 1.
STRETCH_CHECKS = ("C1", "C2", "C4", "C5", "C6", "C8", "C9")
STRETCH_TRIALS = 2
# Stretch inputs are pinned: at (4, 8) one trial's cost depends on its
# random input by up to 15x (one C1 trial took 0.46 s to 7.0 s across
# master seeds), so a seed-dependent draw of the few trials in a run
# would make the run's throughput a draw too.
STRETCH_MASTER_SEED = 0
# Requests whose outputs form the calculator digest.
DIGEST_REQUESTS = 200


def suite_config(workload: str, seed: int):
    from jetfields import SuiteConfig

    if workload == "stretch":
        return SuiteConfig(checks=STRETCH_CHECKS, n_list=(4,), order_list=(8,),
                           trials=STRETCH_TRIALS, seed=STRETCH_MASTER_SEED)
    return SuiteConfig(trials=GRID_TRIALS, seed=seed)


def suite_cells(config):
    """The pass's cells, one ``SuiteConfig`` each, in ``run_suite`` order."""
    from jetfields import CHECKS, SuiteConfig

    for ident in config.checks:
        for n in config.n_list:
            if not CHECKS[ident].applicable(n):
                continue
            for order in config.order_list:
                yield SuiteConfig(checks=(ident,), n_list=(n,), order_list=(order,),
                                  trials=config.trials, seed=config.seed)


def suite_pass(workload: str, seed: int, after=None) -> dict:
    """One ``run_suite`` pass; failures are unexpected trial failures and bad controls.

    The pass runs one cell per ``run_suite`` call, so that reference chunks
    can run between cells.  Trial seeds depend only on the master seed and
    the cell, so the joined report equals that of one whole-grid call, and
    its digest is that report's.
    """
    from jetfields import VerificationReport, suite

    config = suite_config(workload, seed)
    pacer = calibrate.Pacer()
    cells = []
    busy = 0.0
    for cell_config in suite_cells(config):
        t0 = time.perf_counter()
        cells.extend(suite.run_suite(cell_config).cells)
        elapsed = time.perf_counter() - t0
        busy += elapsed
        pacer.work(elapsed)
    reference = pacer.finish()
    if after is not None:
        after()
    report = VerificationReport(config, tuple(cells))
    failed = report.unexpected_failures
    for cell in report.cells:
        if cell.check == "C5" and len(cell.controls) != 1:
            failed += 1  # every C5 cell must carry its negative control
    check_ms: dict[str, float] = {}
    for cell in report.cells:
        check_ms[cell.check] = check_ms.get(cell.check, 0.0) + sum(t.ms for t in cell.trials)
    return {
        "ops": report.trial_count,
        "busy_s": busy,
        "reference_s": reference,
        "chunks": pacer.chunks,
        "attempted": report.trial_count + report.control_count,
        "failed": failed,
        "digest": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "check_ms": check_ms,
    }


def _check_output(req: calcgen.Request, out: str, sigma_cache: dict) -> bool:
    """Whether one calculator output parses back, in canonical form, at its order."""
    from jetfields import parse_field, parse_map, parse_series

    n, order, text = req.n, req.order, out.rstrip("\n")
    if req.kind in ("div", "jacdet"):
        return str(parse_series(text, n, order - 1)) == text
    if req.kind == "jac":
        if not (text.startswith("[[") and text.endswith("]]")):
            return False
        rows = [row.split(", ") for row in text[2:-2].split("], [")]
        if len(rows) != n or any(len(row) != n for row in rows):
            return False
        return all(str(parse_series(e, n, order - 1)) == e for row in rows for e in row)
    if req.kind in ("push", "bracket"):
        return str(parse_field(text, n, order - 1)) == text
    result = parse_map(text, n, order)
    if str(result) != text:
        return False
    if req.kind == "invert":
        sigma = parse_map(req.texts[0], n, order)
        ident = sigma_cache.get((n, order))
        if ident is None:
            ident = sigma_cache[(n, order)] = parse_map(
                "; ".join(f"x{i} -> x{i}" for i in range(1, n + 1)), n, order)
        return sigma.compose(result) == ident and result.compose(sigma) == ident
    return True


def _settle(pending: list, cache: dict) -> int:
    """Check and drop the pending calculator outputs; return how many failed."""
    failed = sum(1 for req, code, out, err in pending
                 if code != 0 or err or not _check_output(req, out, cache))
    pending.clear()
    return failed


def calculator(seed: int, seconds: float, min_requests: int, fixed: int,
               after=None) -> dict:
    """Closed loop, one caller: send requests through ``cli.main`` until time is up.

    Each output is checked before the next request is sent, outside its
    latency, so memory does not grow with the number of requests.  With
    ``fixed`` > 0 exactly that many requests are sent, and the outputs are
    checked after ``after`` (which removes the tracer) has run.
    """
    from jetfields import cli

    stream = calcgen.requests(seed)
    pacer = calibrate.Pacer()
    pending: list = []
    cache: dict = {}
    latencies = []
    failed = 0
    digest = hashlib.sha256()
    t_start = time.perf_counter()
    while True:
        req = next(stream)
        argv = req.argv()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            t1 = time.perf_counter()
        latencies.append((t1 - t0) * 1000.0)
        pacer.work(t1 - t0)
        if len(latencies) <= DIGEST_REQUESTS:
            digest.update(json.dumps([argv, code, out.getvalue()]).encode())
        pending.append((req, code, out.getvalue(), err.getvalue()))
        if fixed:
            if len(latencies) >= fixed:
                break
            continue
        failed += _settle(pending, cache)
        if len(latencies) >= min_requests and time.perf_counter() - t_start >= seconds:
            break
    reference = pacer.finish()
    if after is not None:
        after()
    failed += _settle(pending, cache)
    return {
        "ops": len(latencies),
        "busy_s": sum(latencies) / 1000.0,
        "reference_s": reference,
        "chunks": pacer.chunks,
        "attempted": len(latencies),
        "failed": failed,
        "digest": digest.hexdigest() if len(latencies) >= DIGEST_REQUESTS else None,
        "latencies_ms": latencies,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=("suite-grid", "stretch", "calculator"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-requests", type=int, default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="calculator: send exactly this many requests")
    ap.add_argument("--trace-file", default=None,
                    help="trace the run and write its spans to this file")
    args = ap.parse_args(argv)

    import jetfields

    tracer = None
    if args.trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # Outputs are checked with the tracer removed, so checking adds no spans.
    after = tracer.uninstall if tracer is not None else None
    if args.workload == "calculator":
        result = calculator(args.seed, args.seconds, args.min_requests, args.requests,
                            after)
    else:
        result = suite_pass(args.workload, args.seed, after)
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["jets.terms_out"] = tracer.terms_out
        result["jets.max_terms"] = tracer.max_terms
        result["rationals.max_bits"] = tracer.max_bits
        result["spans"] = len(tracer.start)
        tracer.write(args.trace_file)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["backend"] = jetfields.BACKEND
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
