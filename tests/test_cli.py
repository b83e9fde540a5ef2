"""Command line interface: golden outputs, exit codes, seeding, packaging."""

from __future__ import annotations

import fractions
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jetfields
from jetfields import JetMatrix, cli
from jetfields.cli import SEED_ENV_VAR, main

SIGMA = "x1 -> x1; x2 -> x2 + x1^2"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- calculator subcommands ----------------------------------------------------


def test_div(capsys):
    code, out, _ = run(capsys, "div", "-n", "2", "-N", "4", "(x1)*d1 + (x2)*d2")
    assert code == 0
    assert out == "2\n"


def test_jac_and_jacdet(capsys):
    code, out, _ = run(capsys, "jac", "-n", "2", "-N", "4", SIGMA)
    assert code == 0
    assert out == "[[1, 2*x1], [0, 1]]\n"
    code, out, _ = run(capsys, "jacdet", "-n", "2", "-N", "4", SIGMA)
    assert code == 0
    assert out == "1\n"


def test_push(capsys):
    code, out, _ = run(capsys, "push", "-n", "2", "-N", "4", SIGMA, "(1)*d1")
    assert code == 0
    assert out == "(1)*d1 + (-2*x1)*d2\n"


def test_compose_and_invert(capsys):
    code, out, _ = run(
        capsys, "compose", "-n", "2", "-N", "4", SIGMA, "x1 -> x2; x2 -> x1"
    )
    assert code == 0
    assert out == "x1 -> x2 + x1^2; x2 -> x1\n"
    code, out, _ = run(capsys, "invert", "-n", "2", "-N", "4", SIGMA)
    assert code == 0
    assert out == "x1 -> x1; x2 -> x2 - x1^2\n"


def test_bracket_and_flow(capsys):
    code, out, _ = run(capsys, "bracket", "-n", "2", "-N", "4", "(x2)*d1", "(1)*d2")
    assert code == 0
    assert out == "(-1)*d1\n"
    code, out, _ = run(capsys, "flow", "-n", "1", "-N", "3", "(x1^2)*d1")
    assert code == 0
    assert out == "x1 -> x1 + x1^2 + x1^3\n"


# -- error handling --------------------------------------------------------------


def test_parse_errors_exit_2(capsys):
    code, out, err = run(capsys, "div", "-n", "2", "-N", "4", "(x9)*d1")
    assert code == 2 and out == ""
    assert err.startswith("error: col 2: unknown variable x9")


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "flow", "-n", "1", "-N", "3", "(x1)*d1")
    assert code == 2
    assert "adic order" in err
    code, _, err = run(capsys, "invert", "-n", "2", "-N", "3", "x1 -> x1; x2 -> x1")
    assert code == 2
    assert err.startswith("error:")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "div", "-n", "2", "(x1)*d1")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_long_literals_and_non_ascii_digits_exit_2(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "div", "-n", "1", "-N", "3", "1" * 5000)
    assert (code, out, err) == (2, "", f"error: col 1: integer longer than {limit} digits\n")
    code, out, err = run(capsys, "div", "-n", "1", "-N", "3", "(x\u0661)*d1")
    assert (code, out, err) == (2, "", "error: col 2: unexpected character 'x'\n")


def test_result_past_the_digit_limit_exits_2(capsys):
    # Each literal prints; their product has twice the digits and does not.
    limit = sys.get_int_max_str_digits()
    image = f"x1 -> {'7' * 3000}*x1"
    code, out, err = run(capsys, "compose", "-n", "1", "-N", "2", image, image)
    assert (code, out, err) == (
        2, "", f"error: result has a coefficient longer than {limit} digits\n")
    assert sys.get_int_max_str_digits() == limit


# -- routing: main against the top-level parser ------------------------------------

# main hands an argv that starts with a command name to that command's
# parser; each argv here must give what the top-level parser gives.
ROUTES = [
    ("div", "-n", "2", "-N", "4", "(x1)*d1 + (x2)*d2"),
    ("jac", "-n", "2", "-N", "4", SIGMA),
    ("jacdet", "-n", "2", "-N", "4", SIGMA),
    ("push", "-n", "2", "-N", "4", SIGMA, "(1)*d1"),
    ("compose", "-n", "2", "-N", "4", SIGMA, "x1 -> x2; x2 -> x1"),
    ("invert", "-n", "2", "-N", "4", SIGMA),
    ("bracket", "-n", "2", "-N", "4", "(x2)*d1", "(1)*d2"),
    ("flow", "-n", "1", "-N", "3", "(x1^2)*d1"),
    ("verify", "--checks", "C1", "--n-list", "1", "--order-list", "3", "--trials", "1"),
    ("-h",), ("--help",), ("div", "-h"), ("verify", "-h"), ("div", "--he"), ("-h", "div"),
    ("frobnicate",), (), ("DIV",), ("--", "div", "-n", "1", "-N", "3", "(x1)*d1"),
    ("div",), ("div", "-n", "2", "-N", "3"), ("div", "-n", "2", "(x1)*d1"),
    ("push", "-n", "2", "-N", "4", SIGMA),
    ("div", "-n", "2", "-N", "3", "(x1)*d1", "(x2)*d2"),
    ("div", "-n", "two", "-N", "3", "(x1)*d1"),
    ("div", "-n", "-1", "-N", "3", "(x1)*d1"),
    ("div", "-n", "1", "-N", "3", "-(x1)*d1"),
    ("div", "-n", "1", "-N", "3", "- (x1)*d1"),
    ("div", "-n", "1", "-N", "3", "--", "-(x1)*d1"),
    ("div", "-n", "1", "-N", "3", "(x1)*d1", "--"),
    ("div", "-n", "1", "-N", "3", "(x1)*d1", "--bogus"),
    ("verify", "--bogus"), ("verify", "--trials", "x"),
    ("div", "-n1", "-N3", "(x1)*d1"), ("div", "-N", "3", "(x1)*d1", "-n", "1"),
    ("div", "-n", "1", "-N", "3", "(x9)*d1"),
]


def top_level(argv: list) -> int:
    """What main did before routing: the top-level parser, then the command."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return cli._run(args)


@pytest.mark.parametrize("argv", ROUTES, ids=lambda argv: " ".join(argv) or "<empty>")
def test_main_matches_the_top_level_parser(capsys, argv):
    got = run(capsys, *argv)
    code = top_level(list(argv))
    captured = capsys.readouterr()
    assert got == (code, captured.out, captured.err)


# -- parser reuse ----------------------------------------------------------------


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    original = cli.build_parser

    def counting():
        calls.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "div", "-n", "2", "-N", "4", "(x1)*d1 + (x2)*d2") == (0, "2\n", "")
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "jacdet", "-n", "2", "-N", "4", SIGMA) == (0, "1\n", "")
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_usage_error_leaves_parser_intact(capsys):
    argv = ("push", "-n", "2", "-N", "4", SIGMA, "(1)*d1")
    alone = run(capsys, *argv)
    code, out, err = run(capsys, "push", "-n", "2", SIGMA, "(1)*d1")
    assert code == 2 and out == "" and "-N" in err
    assert run(capsys, *argv) == alone == (0, "(1)*d1 + (-2*x1)*d2\n", "")


def test_help_twice(capsys):
    for _ in range(2):
        code, out, _ = run(capsys, "-h")
        assert code == 0
        assert out.startswith("usage: jetfields")
    code, out, _ = run(capsys, "div", "-h")
    assert code == 0 and "VARS" in out


def test_import_does_not_build_parser():
    # Counts calls to any function named build_parser while the module is
    # imported in a fresh interpreter.
    script = (
        "import sys\n"
        "calls = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == 'build_parser':\n"
        "        calls.append(1)\n"
        "sys.setprofile(hook)\n"
        "import jetfields.cli\n"
        "sys.setprofile(None)\n"
        "print(len(calls))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# -- verify subcommand --------------------------------------------------------------


def test_verify_table(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "C1", "--n-list", "2",
        "--order-list", "3", "--trials", "2", "--seed", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["check", "n", "N", "trials", "ok", "fail", "ctrl", "verdict"]
    assert lines[-1] == "summary: cells=1 trials=2 controls=0 unexpected_failures=0"


def test_verify_json_deterministic(capsys):
    argv = ["verify", "--checks", "C5,C6", "--n-list", "2", "--order-list", "4",
            "--trials", "3", "--seed", "7", "--json"]
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["config"]["seed"] == 7
    assert report["summary"]["unexpected_failures"] == 0
    assert report["summary"]["controls"] == 1


def test_verify_rejects_bad_config(capsys):
    code, _, err = run(capsys, "verify", "--checks", "C4", "--order-list", "2")
    assert code == 2
    assert "order >= 3" in err
    # A repeated n or order would run the same cell, with the same seeds, twice.
    code, out, err = run(capsys, "verify", "--checks", "C1", "--n-list", "1,1",
                         "--order-list", "3,3", "--trials", "1")
    assert code == 2 and out == ""
    assert "duplicate n in configuration" in err


def test_verify_refuses_a_costly_config_before_any_trial(capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("run_suite must not start")

    monkeypatch.setattr(cli, "run_suite", no_run)
    for argv in (["verify", "--n-list", "12"],
                 ["verify", "--checks", "C9", "--n-list", "2,6", "--order-list", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "too costly" in err


def test_jacdet_refuses_a_costly_map_before_parsing(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("neither parsing nor det may start")

    monkeypatch.setattr(JetMatrix, "det", no_work)
    monkeypatch.setattr(cli, "parse_map", no_work)
    for n in ("9", "20"):
        code, out, err = run(capsys, "jacdet", "-n", n, "-N", "2", "not a map")
        assert code == 2
        assert out == ""
        assert "too costly" in err
    # The cap itself is admitted.
    monkeypatch.undo()
    monkeypatch.setattr(JetMatrix, "det", lambda self: "det")
    identity = "; ".join(f"x{i} -> x{i}" for i in range(1, 9))
    code, out, _ = run(capsys, "jacdet", "-n", "8", "-N", "2", identity)
    assert code == 0
    assert out == "det\n"


# Operand texts of each calculator command, valid at n = 1.
OPERANDS = {
    "div": ["0"], "jac": ["x1 -> x1"], "jacdet": ["x1 -> x1"],
    "push": ["x1 -> x1", "0"], "compose": ["x1 -> x1", "x1 -> x1"],
    "invert": ["x1 -> x1"], "bracket": ["0", "0"], "flow": ["0"],
}


class _Marker:
    """Stands for a parsed operand; every method returns "marker"."""

    def __getattr__(self, name):
        return lambda *args: "marker"


def test_every_calculator_command_refuses_a_costly_ring_before_parsing(
    capsys, monkeypatch,
):
    def no_work(*args):
        raise AssertionError("neither parsing nor the operation may start")

    for name in ("parse_map", "parse_field", "pushforward", "exp_flow"):
        monkeypatch.setattr(cli, name, no_work)
    for argv in (["invert", "-n", "1", "-N", "1001", "x1 -> x1"],
                 ["flow", "-n", "1", "-N", "1000000", "0"],
                 ["div", "-n", "12", "-N", "5", "0"],
                 ["push", "-n", "5", "-N", "10", "x1 -> x1", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "too costly" in err
    # The largest rings at n = 4 (C(14, 4) = 1001 monomials) and at n = 1
    # are admitted; stubs stand in for the work, which is never run here.
    for name in ("parse_map", "parse_field"):
        monkeypatch.setattr(cli, name, lambda *args: _Marker())
    for name in ("pushforward", "exp_flow"):
        monkeypatch.setattr(cli, name, lambda *args: "marker")
    for command, texts in OPERANDS.items():
        for n, order in (("4", "10"), ("1", "1000")):
            assert run(capsys, command, "-n", n, "-N", order, *texts) == (0, "marker\n", "")


@pytest.mark.parametrize("command", sorted(OPERANDS))
@pytest.mark.parametrize("ring", [("-n", "0", "-N", "2"), ("-n", "-1", "-N", "2"),
                                  ("-n", "1", "-N", "-1")])
def test_bad_ring_flags_exit_2(capsys, command, ring):
    code, out, err = run(capsys, command, *ring, *OPERANDS[command])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    argv = ["verify", "--checks", "C1", "--n-list", "1", "--order-list", "3",
            "--trials", "1", "--json"]
    _, out, _ = run(capsys, *argv)
    assert json.loads(out)["config"]["seed"] == 9
    _, out, _ = run(capsys, *argv, "--seed", "4")
    assert json.loads(out)["config"]["seed"] == 4
    monkeypatch.setenv(SEED_ENV_VAR, "junk")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert SEED_ENV_VAR in err


def test_verify_default_seed_is_zero(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, out, _ = run(capsys, "verify", "--checks", "C1", "--n-list", "1",
                    "--order-list", "3", "--trials", "1", "--json")
    assert json.loads(out)["config"]["seed"] == 0


# -- packaging smoke -----------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "jetfields", "jacdet", "-n", "2", "-N", "4", SIGMA],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def _declared_console_script() -> str:
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["jetfields"]


def test_console_script():
    # Runs the entry point that pyproject.toml declares, the way the wrapper
    # script pip generates for it does, so no installed package is needed.
    module, _, func = _declared_console_script().partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "div", "-n", "1", "-N", "3", "(x1)*d1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


@pytest.mark.skipif(
    shutil.which("jetfields") is None,
    reason="the jetfields console script is not installed on PATH",
)
def test_console_script_on_path():
    proc = subprocess.run(
        ["jetfields", "div", "-n", "1", "-N", "3", "(x1)*d1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_fractions_is_the_only_backend():
    assert jetfields.BACKEND == "fractions"
    assert jetfields.Q is fractions.Fraction
