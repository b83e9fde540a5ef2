"""Print the lines of ``src/jetfields/`` that a tier-1 run never executes,
and fail on any that is not known to run only outside the traced process.

Runs the tier-1 tests in this process under a ``sys.settrace`` hook that
records each line run in a frame whose code lives in ``src/jetfields/``,
then prints every executable line that never ran, as ``path:line: text``,
with a count per file.  Executable lines are read from the code objects of
each compiled module (``co_lines``), so blank lines, comments and
docstrings never show.  Tests that start the package in a subprocess are
not traced, so code that only they reach (``__main__.py``, the console
entry point) shows up too.  It needs the standard library only, and a
traced run takes several times as long as a plain one.

    PYTHONPATH=src python tests/line_audit.py [extra pytest arguments]

The lines that only a subprocess or a type checker runs are listed in
``KNOWN`` by file and stripped text, not by line number, so edits around
them do not move them.  The exit status is pytest's when pytest fails,
else 1 when a line outside ``KNOWN`` never runs: a new unexecuted line
needs a test that runs it, or it goes.

Each module's text is read before the traced run starts, and the report
reads lines from that text.  A file under ``src/jetfields/`` that is
changed, added or removed during the run would make the line numbers the
run recorded point at other lines, so the audit then stops with an error
that names the file instead of reporting.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jetfields"

KNOWN = frozenset({
    # Run only as ``python -m jetfields``, in a subprocess.
    ("src/jetfields/__main__.py", "from .cli import entry"),
    ("src/jetfields/__main__.py", 'if __name__ == "__main__":'),
    ("src/jetfields/__main__.py", "entry()"),
    # ``cli.main``'s default argv, and the console entry point.
    ("src/jetfields/cli.py", "argv = sys.argv[1:]"),
    ("src/jetfields/cli.py", "sys.exit(main())"),
    # ``dir(jetfields)``, which interactive sessions call.
    ("src/jetfields/__init__.py", "return sorted(set(globals()) | _SUITE_NAMES)"),
    # The ``TYPE_CHECKING`` import in maps.py.
    ("src/jetfields/maps.py", "from .fields import Derivation"),
})


def executable_lines(path: Path, text: str) -> set[int]:
    """The lines that carry bytecode in the module at ``path``, whose source is ``text``."""
    stack = [compile(text, str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _line_tracer(add):
    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


class _NoDeadline:
    """Tracing slows every example several-fold; no deadline should fail for it."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("line-audit", deadline=None)
        settings.load_profile("line-audit")


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the hook; its exit code and the lines run per file."""
    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}
    # One line tracer per file, built once: a tracer made per call would be
    # a closure cycle per call, cyclic garbage that tests which count it see.
    local_for: dict[str, object] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_for:
            real = os.path.realpath(name)
            local_for[name] = (_line_tracer(hits.setdefault(real, set()).add)
                               if real.startswith(prefix) else None)
        return local_for[name]

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests"), *args], plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def sources() -> dict[Path, str]:
    """The text of each module under ``src/jetfields/``, by path."""
    return {path: path.read_text() for path in sorted(SRC.glob("*.py"))}


def main(argv: list[str]) -> int:
    if "jetfields" in sys.modules:
        raise SystemExit("line_audit: jetfields was imported before tracing began")
    before = sources()
    code, hits = traced_run(argv)
    after = sources()
    for path in sorted(before.keys() | after.keys()):
        if before.get(path) != after.get(path):
            raise SystemExit(f"line_audit: {path.relative_to(ROOT)} changed during the traced "
                             "run, so its recorded lines no longer match its text; rerun on "
                             "a tree that is not being edited")
    total, new = 0, 0
    for path, source in before.items():
        missing = sorted(executable_lines(path, source) - hits.get(str(path), set()))
        total += len(missing)
        text = source.splitlines()
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(missing)} line{'s' if len(missing) != 1 else ''} never run")
        for line in missing:
            known = (rel.as_posix(), text[line - 1].strip()) in KNOWN
            new += not known
            print(f"  {rel}:{line}: {text[line - 1].strip()}{'' if known else '  [NEW]'}")
    print(f"{total} executable lines never run, {new} of them not known")
    return code or int(new > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
