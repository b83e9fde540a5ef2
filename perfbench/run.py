"""jetfields benchmark: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload suite-grid --seed 0 --seconds 30 --trace 0

Run it from the repository root; the package is imported from ``src/``.
Each suite pass and the calculator stream run in a fresh child interpreter
(``child.py``), one at a time.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs fixed work traced and untraced, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("suite-grid", "stretch", "calculator")
# Fresh interpreters whose ``import jetfields`` time gives setup_s (median).
SETUP_IMPORTS = 15
# Times the import, then, in the same process and so on the same CPU, a
# warm-up chunk and two reference chunks.  Prints the import seconds and
# the mean chunk seconds.
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import jetfields; "
    "d = time.perf_counter() - t; import sys; sys.path.insert(0, {here!r}); "
    "import calibrate; calibrate.chunk(); "
    "print(d, (calibrate.chunk() + calibrate.chunk()) / 2)"
).format(here=str(HERE))
# At least ten requests beyond the nearest-rank p99.
MIN_REQUESTS = 1000
# Fixed calculator work for the traced run.
TRACE_REQUESTS = 400
# Every child must end before the run's own 180 s limit.
RUN_LIMIT_S = 170.0

# sha256 of the canonical output: the suite report JSON of pass 0, or the
# first 200 calculator outputs.  Pinned for seed 0; stretch inputs do not
# depend on the seed, so its digest holds for every seed.
PINNED_DIGESTS = {
    "suite-grid": "fcda52f6b664f13a33fc4eb52e733b1c23b31c31967eff2b2a9d588dca5a4823",
    "stretch": "901860f52e916883eeb68ef7280b7bdb8f8d73bea82534aa67cde2f9fc12d595",
    "calculator": "2859fdd0c5406ea5198480c0938315a11b3e2f17ab83c06f84726020f89c7491",
}
DEFAULT_SEED = 0

# Layers that every workload reaches.
ON_ALL = (
    "jets.mul", "jets.substitute", "jets.matmul", "jets.det", "linalg.inverse",
    "maps.compose", "maps.matrix_inverse", "maps.jacobian_matrix",
    "fields.pushforward", "fields.bracket", "fields.apply", "fields.divergence",
)
SUITE_ONLY = ("maps.sample", "fields.sample", "suite.trial", "suite.generate",
              "suite.evaluate")
CALC_ONLY = ("syntax.parse", "syntax.format", "cli.main", "cli.build_parser")
# The traced-run self-check: spans that must fire, and spans predicted to be 0.
FIRES = {
    "suite-grid": ON_ALL + SUITE_ONLY + ("maps.invert", "jets.invert_unit"),
    "stretch": ON_ALL + SUITE_ONLY,
    "calculator": ON_ALL + CALC_ONLY + ("maps.invert",),
}
ZERO = {
    "suite-grid": CALC_ONLY,
    "stretch": CALC_ONLY + ("maps.invert", "jets.invert_unit"),
    "calculator": SUITE_ONLY + ("jets.invert_unit",),
}
# Per-layer metrics.  Self time is reported in seconds for layers that run
# on every workload, and as a share of the traced wall time for layers that
# are 0 on some workload, so that no time metric is a constant 0.
CALLS = tuple(n for n in ON_ALL + CALC_ONLY + SUITE_ONLY + ("maps.invert", "jets.invert_unit")
              if n not in ("suite.trial", "suite.generate", "suite.evaluate"))
SELF_S = tuple(n for n in ON_ALL if n != "linalg.inverse")
SELF_PCT = ("jets.invert_unit", "maps.invert", "maps.sample", "fields.sample",
            "suite.generate", "suite.evaluate") + CALC_ONLY
CHECKS = tuple(f"C{i}" for i in range(1, 11))
COUNTERS = {"jets.terms_out": "count", "jets.max_terms": "count",
            "rationals.max_bits": "bits"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run one child interpreter to completion and return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded the run's time limit: {argv}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {argv}\n{proc.stderr[-4000:]}")
    return proc.stdout


def run_piece(args: list[str], deadline: float) -> dict:
    out = run_child([str(HERE / "child.py"), *args], deadline)
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median time of ``import jetfields`` over fresh interpreters.

    Returns the median in nominal seconds and as measured.  Each import is
    scaled by the reference chunks its own interpreter timed after it.
    """
    raw, scaled = [], []
    for _ in range(SETUP_IMPORTS):
        seconds, reference = map(float, run_child(["-c", IMPORT_SNIPPET], deadline).split())
        raw.append(seconds)
        scaled.append(seconds * calibrate.scale(reference))
    return statistics.median(scaled), statistics.median(raw)


def repeat(make_piece, seconds: float, deadline: float) -> list:
    """Call ``make_piece`` until about ``seconds`` of wall time are used.

    Another piece starts only while the run would end nearer to the target
    with it than without it, and while two more would fit before the deadline.
    """
    pieces = []
    t0 = time.monotonic()
    while True:
        pieces.append(make_piece(len(pieces)))
        now = time.monotonic()
        mean = (now - t0) / len(pieces)
        if now - t0 + mean / 2 >= seconds or now + 2 * mean > deadline:
            return pieces


def piece_args(workload: str, seed: int, index: int, seconds: float) -> list[str]:
    if workload == "calculator":
        return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--min-requests", str(MIN_REQUESTS)]
    # Suite pass i of a run draws its master seed from the workload seed.
    return ["--workload", workload, "--seed", str(seed * 1000 + index)]


def digest_ok(workload: str, seed: int, piece: dict) -> bool | None:
    """Whether the pinned digest matches; None where no digest is pinned."""
    if workload != "stretch" and seed != DEFAULT_SEED:
        return None
    return piece["digest"] == PINNED_DIGESTS[workload]


def outcome(workload: str, seed: int, pieces: list[dict]) -> tuple[bool, int, int, bool | None]:
    attempted = sum(p["attempted"] for p in pieces)
    failed = sum(p["failed"] for p in pieces)
    # The first piece is suite pass 0 or starts the calculator stream; every
    # stretch piece runs the pinned inputs.
    checked = pieces if workload == "stretch" else pieces[:1]
    verdicts = [digest_ok(workload, seed, p) for p in checked]
    pinned = None if None in verdicts else all(verdicts)
    if pinned is False:
        failed += 1
    return failed == 0, attempted, failed, pinned


def nominal_busy(piece: dict) -> float:
    """A piece's busy time in nominal seconds (see ``calibrate``)."""
    return piece["busy_s"] * calibrate.scale(piece["reference_s"])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    setup, setup_raw = setup_seconds(deadline)
    if workload == "calculator":
        pieces = [run_piece(piece_args(workload, seed, 0, seconds), deadline)]
    else:
        pieces = repeat(lambda i: run_piece(piece_args(workload, seed, i, seconds), deadline),
                        seconds, deadline)
    correct, attempted, failed, pinned = outcome(workload, seed, pieces)
    ops = sum(p["ops"] for p in pieces)
    busy = sum(p["busy_s"] for p in pieces)
    metrics = {
        "ops_per_s": metric(ops / sum(nominal_busy(p) for p in pieces), "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(max(p["rss_mb"] for p in pieces), "MB"),
    }
    extra = {
        "fail_ratio": metric(failed / attempted, "ratio"),
        "ops": metric(ops, "count"),
        "pieces": metric(len(pieces), "count"),
        "ops_per_s_measured": metric(ops / busy, "1/s"),
        "setup_s_measured": metric(setup_raw, "s"),
        "reference_ms": metric(1000.0 * busy / sum(p["busy_s"] / p["reference_s"]
                                                   for p in pieces), "ms"),
        "reference_chunks": metric(sum(p["chunks"] for p in pieces), "count"),
    }
    if workload == "calculator":
        lat = pieces[0]["latencies_ms"]
        extra["request_ms_p50"] = metric(stats.percentile(lat, 50), "ms")
        tail = stats.tail_percentile(len(lat))
        if tail is not None:
            extra[f"request_ms_p{tail:g}"] = metric(stats.percentile(lat, tail), "ms")
    return correct, attempted, failed, pinned, metrics, extra, pieces[0]["backend"]


def traced_run(workload: str, seed: int, seconds: float, deadline: float):
    """Fixed work, alternately traced and untraced, until the time is used."""
    if workload == "calculator":
        args = ["--workload", workload, "--seed", str(seed), "--requests", str(TRACE_REQUESTS)]
    else:
        args = piece_args(workload, seed, 0, seconds)
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"trace-{workload}-seed{seed}.json.gz"

    def pair(index: int) -> tuple[dict, dict]:
        # Alternate which side runs first, so a drift in machine speed
        # does not favour one side.
        if index % 2:
            plain = run_piece(args, deadline)
            return run_piece(args + ["--trace-file", str(trace_file)], deadline), plain
        traced = run_piece(args + ["--trace-file", str(trace_file)], deadline)
        return traced, run_piece(args, deadline)

    pairs = repeat(pair, seconds, deadline)
    traced = [t for t, _ in pairs]
    plain = [p for _, p in pairs]
    first = traced[0]
    for rep in traced[1:]:
        if ({k: v["calls"] for k, v in rep["layers"].items()}
                != {k: v["calls"] for k, v in first["layers"].items()}
                or any(rep[k] != first[k] for k in COUNTERS)):
            raise BenchError("traced repetitions of the same work disagree on counts")
    calls = {name: row["calls"] for name, row in first["layers"].items()}
    silent = [n for n in FIRES[workload] if not calls[n]]
    loud = [n for n in ZERO[workload] if calls[n]]
    if silent or loud:
        raise BenchError(f"trace self-check failed on {workload}: "
                         f"no spans for {silent}; unexpected spans for {loud}")
    correct, attempted, failed, pinned = outcome(workload, seed, traced + plain)

    def med(fn) -> float:
        return statistics.median([fn(t, p) for t, p in pairs])

    metrics = {f"{n}.calls": metric(calls[n], "count") for n in CALLS}
    for n in SELF_S:
        metrics[f"{n}.self_s"] = metric(med(lambda t, p: t["layers"][n]["self_s"]), "s")
    for n in SELF_PCT:
        metrics[f"{n}.self_pct"] = metric(
            med(lambda t, p: 100.0 * t["layers"][n]["self_s"] / t["busy_s"]), "%")
    for c in CHECKS:
        metrics[f"suite.{c}.time_pct"] = metric(
            med(lambda t, p: 100.0 * p.get("check_ms", {}).get(c, 0.0) / 1000.0 / p["busy_s"]),
            "%")
    for name, unit in COUNTERS.items():
        metrics[name] = metric(first[name], unit)
    traced_s = statistics.median([t["busy_s"] for t in traced])
    plain_s = statistics.median([p["busy_s"] for p in plain])
    # In nominal seconds, so that a drift in machine speed between the two
    # sides does not read as overhead.
    metrics["trace.overhead"] = metric(
        statistics.median([nominal_busy(t) for t in traced])
        / statistics.median([nominal_busy(p) for p in plain]), "ratio")
    metrics["trace.spans"] = metric(first["spans"], "count")
    extra = {
        "traced_busy_s": metric(traced_s, "s"),
        "untraced_busy_s": metric(plain_s, "s"),
        "pairs": metric(len(pairs), "count"),
        "fail_ratio": metric(failed / attempted, "ratio"),
    }
    return correct, attempted, failed, pinned, metrics, extra, first["backend"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jetfields" / "__init__.py").is_file():
        print(f"error: no jetfields package under {SRC}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        print("error: --seconds must be in (0, 120]", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    run = traced_run if args.trace else timed_run
    try:
        correct, attempted, failed, pinned, metrics, extra, backend = run(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {backend}  python {sys.version.split()[0]}  nproc {len(os.sched_getaffinity(0))}  "
          f"digest {'n/a' if pinned is None else 'match' if pinned else 'MISMATCH'}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:<32} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
