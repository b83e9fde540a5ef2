"""Command-line interface.

The calculator commands come from one table, ``_COMMANDS``.  Each takes
the ring geometry as ``-n`` (variable count) and ``-N`` (truncation
order), reads field / map arguments in the text syntax, and prints the
canonical text of the result.  Before any text is parsed, a ring with
more than ``jets.MAX_RING_SIZE`` monomials is refused, and so is
``jacdet`` past ``jets.MAX_DET_VARS`` variables.  ``verify`` runs the
identity suite and exits 0 only when nothing failed unexpectedly; it is
the one command that imports ``suite``.

Every integer the CLI reads (``-n``, ``-N``, ``--trials``, ``--seed``, the
items of ``--n-list`` and ``--order-list``, ``JETFIELDS_SEED``) goes
through ``_int``: ASCII digits with an optional leading ``-``, nothing
else.  ``int`` alone would also read ``2_0`` as 20 and ``٢`` as 2, and
skip spaces around the digits, so a mistyped value would run as another
valid one.

``main`` takes one of two routes to the parsed arguments, and both give
what the top-level parser gives:

* An argv in the canonical shape ``COMMAND -n DIGITS -N DIGITS OPERAND…``,
  the one every calculator request and README example uses, skips
  argparse.  For that shape argparse's answer is known: ``-n`` and ``-N``
  are exact option strings, so each takes the next argument and passes it
  through ``_int``; an operand that does not start with ``-`` (the empty
  one included) is never read as an option; and with exactly one operand
  for each of the command's positionals, they fill them in order.  Only
  ASCII digit strings of at most ``_MAX_RING_DIGITS`` characters count as
  DIGITS, so ``int`` takes each without reaching the digit limit.  Any
  other ring value (``-1``, ``+2``, ``2_0``, ``٢``, digits after a space)
  goes the other route.
* Any other argv goes through the top-level parser, so argparse prints
  its own help and usage errors.

Exit codes: 0 success, 1 unexpected verification failure, 2 usage or
input errors.  Diagnostics go to stderr; results go to stdout.  The
``JETFIELDS_SEED`` environment variable supplies the default seed for
``verify`` when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import NamedTuple, Optional, Sequence

from .errors import JetfieldsError
from .fields import pushforward
from .jets import _cost_guard
from .maps import exp_flow
from .syntax import parse_field, parse_map

SEED_ENV_VAR = "JETFIELDS_SEED"


class _Operand(NamedTuple):
    name: str
    kind: str  # "map" or "field"
    help: Optional[str] = None


# Calculator commands: name -> (help, operands, operation).  Operations call
# methods and module globals by name, and ``main`` picks parsers by kind
# when a request runs, so a wrapper bound to any of those names sees it.
_COMMANDS = {
    "div": ("divergence of a vector field",
            [_Operand("field", "field", "field text, e.g. '(x1)*d1 + (x2)*d2'")],
            lambda field: field.divergence()),
    "jac": ("Jacobian matrix of a map",
            [_Operand("map", "map", "map text, e.g. 'x1 -> x1; x2 -> x2 + x1^2'")],
            lambda fmap: fmap.jacobian_matrix()),
    "jacdet": ("Jacobian determinant of a map", [_Operand("map", "map")],
               lambda fmap: fmap.jacobian_det()),
    "push": ("transport a field along an automorphism",
             [_Operand("map", "map"), _Operand("field", "field")],
             lambda fmap, field: pushforward(fmap, field)),
    "compose": ("compose two maps (first acts after second)",
                [_Operand("first", "map"), _Operand("second", "map")],
                lambda first, second: first.compose(second)),
    "invert": ("compositional inverse of an automorphism", [_Operand("map", "map")],
               lambda fmap: fmap.invert()),
    "bracket": ("commutator of two fields",
                [_Operand("first", "field"), _Operand("second", "field")],
                lambda first, second: first.bracket(second)),
    "flow": ("time-1 flow of a field with adic order >= 2", [_Operand("field", "field")],
             lambda field: exp_flow(field)),
}


def _int(text: str) -> int:
    """``text`` as an int if it is ASCII digits with an optional leading
    ``-``; otherwise ``ArgumentTypeError``, with the message argparse gives
    for ``type=int``."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetfields",
        description="Exact calculus of truncated power series, formal maps, "
                    "and vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, operands, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("-n", type=_int, required=True, metavar="VARS",
                        help="number of variables")
        sp.add_argument("-N", dest="order", type=_int, required=True, metavar="ORDER",
                        help="truncation order")
        for operand in operands:
            sp.add_argument(operand.name, help=operand.help)

    sp = sub.add_parser("verify", help="run the identity verification suite")
    sp.add_argument("--checks", default=None,
                    help="comma-separated check ids (default: all)")
    sp.add_argument("--n-list", default="1,2,3",
                    help="comma-separated variable counts (default: 1,2,3)")
    sp.add_argument("--order-list", default="3,4,5",
                    help="comma-separated truncation orders (default: 3,4,5)")
    sp.add_argument("--trials", type=_int, default=100,
                    help="trials per cell (default: 100)")
    sp.add_argument("--seed", type=_int, default=None,
                    help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    sp.add_argument("--json", action="store_true",
                    help="emit the full report as JSON instead of a table")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by ``build_parser`` on first use.

    ``parse_args`` leaves a parser unchanged and nothing in the tree reads
    the environment (``verify`` reads ``JETFIELDS_SEED`` when it runs, help
    reads the terminal width when it prints), so one parser serves every
    call.  It is looked up as the module global ``build_parser`` and built
    lazily, not at import, so that a wrapper bound to that name sees the
    call.
    """
    return build_parser()


# Longest ring value the canonical route reads: int() of 18 digits stays
# far below the lowest digit limit an interpreter admits (640).
_MAX_RING_DIGITS = 18


def _canonical(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The arguments argparse would give an argv in the canonical shape
    ``COMMAND -n DIGITS -N DIGITS OPERAND…``, or ``None`` for any other argv.
    """
    spec = _COMMANDS.get(argv[0]) if len(argv) > 5 else None
    if spec is None or argv[1] != "-n" or argv[3] != "-N":
        return None
    operands, texts, ring = spec[1], argv[5:], (argv[2], argv[4])
    if len(texts) != len(operands) or any(text[:1] == "-" for text in texts):
        return None
    if not all(v.isascii() and v.isdigit() and len(v) <= _MAX_RING_DIGITS for v in ring):
        return None
    args = argparse.Namespace(command=argv[0], n=int(ring[0]), order=int(ring[1]))
    for operand, text in zip(operands, texts):
        setattr(args, operand.name, text)
    return args


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_int(part.strip()) for part in text.split(",") if part.strip())
    except argparse.ArgumentTypeError:
        raise JetfieldsError(f"{what} must be a comma-separated list of integers") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    # The suite, with hashlib and json, loads only for the command that runs it.
    from . import suite

    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = _int(raw)
        except argparse.ArgumentTypeError:
            raise JetfieldsError(
                f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    checks = suite.CHECK_IDS if args.checks is None else tuple(
        c.strip() for c in args.checks.split(",") if c.strip())
    config = suite.SuiteConfig(
        checks=checks,
        n_list=_parse_int_list(args.n_list, "--n-list"),
        order_list=_parse_int_list(args.order_list, "--order-list"),
        trials=args.trials,
        seed=seed,
    )
    report = suite.run_suite(config)  # validates the config before any trial
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    return 0 if report.unexpected_failures == 0 else 1


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        _, operands, operation = _COMMANDS[args.command]
        _cost_guard(args.command, args.n, args.order, det=args.command == "jacdet")
        result = operation(*[
            (parse_map if operand.kind == "map" else parse_field)(
                getattr(args, operand.name), args.n, args.order)
            for operand in operands
        ])
        try:
            text = str(result)
        except ValueError:  # str() refuses an int past the interpreter's digit limit
            raise JetfieldsError(f"result has a coefficient longer than "
                                 f"{sys.get_int_max_str_digits()} digits") from None
        print(text)
    except (JetfieldsError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _canonical(argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    return _run(args)


def entry() -> None:
    sys.exit(main())
