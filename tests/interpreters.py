"""Check that each given Python interpreter reproduces the pinned reports.

For each interpreter it runs, on this checkout's ``src``:

* ``-m jetfields verify --json``, and compares the sha256 of what it
  prints with ``DEFAULT_REPORT_SHA256`` in ``tests/test_acceptance.py``;
* ``run_suite(SuiteConfig(trials=2)).to_json()``, and compares its sha256
  with ``REPORT_TRIALS_2_SHA256`` in ``tests/test_suite.py``.

The digests are read from those test modules, so they stay pinned in one
place.  It needs the standard library only, on this interpreter and on the
ones it checks, and prints one row per interpreter: its version, each
verdict, and the wall time of the default report.  The exit status is 1
when any interpreter fails to run or mismatches, else 0.

    python tests/interpreters.py /path/to/python3.10 /path/to/python3.12 ...
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRIALS_2 = ("import jetfields as j; "
            "print(j.run_suite(j.SuiteConfig(trials=2)).to_json(), end='')")


def pinned(module: str, name: str) -> str:
    """The string constant ``name`` assigned at the top level of ``tests/<module>``."""
    tree = ast.parse((ROOT / "tests" / module).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"interpreters: no {name} in tests/{module}")


def digest(python: str, *args: str) -> str:
    """The sha256 of what ``python *args`` prints, or the error it stopped with."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True)
    except OSError as exc:
        return f"cannot run: {exc.strerror}"
    if done.returncode:
        last = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {done.returncode}: {' '.join(last)}"
    return hashlib.sha256(done.stdout).hexdigest()


def version(python: str) -> str:
    try:
        done = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True)
    except OSError:
        return "?"
    return done.stdout.strip() or "?"


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__.rsplit("\n\n", 1)[-1].strip())
    want = (pinned("test_acceptance.py", "DEFAULT_REPORT_SHA256"),
            pinned("test_suite.py", "REPORT_TRIALS_2_SHA256"))
    bad = 0
    for python in argv:
        t0 = time.perf_counter()
        default = digest(python, "-m", "jetfields", "verify", "--json")
        seconds = time.perf_counter() - t0
        got = (default, digest(python, "-c", TRIALS_2))
        verdicts = ["match" if g == w else f"MISMATCH ({g[:60]})" for g, w in zip(got, want)]
        bad += any(g != w for g, w in zip(got, want))
        print(f"{python}  {version(python)}  verify --json: {verdicts[0]}  "
              f"trials=2: {verdicts[1]}  {seconds:.1f} s")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
