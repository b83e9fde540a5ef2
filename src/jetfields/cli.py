"""Command-line interface.

Every subcommand takes the ring geometry as ``-n`` (variable count) and
``-N`` (truncation order), reads series / field / map arguments in the
text syntax, and prints the canonical text of the result.  ``verify``
runs the identity suite and exits 0 only when nothing failed
unexpectedly.

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
from typing import Optional, Sequence

from .errors import JetfieldsError
from .fields import pushforward
from .maps import exp_flow
from .suite import CHECK_IDS, SuiteConfig, _det_guard, run_suite
from .syntax import parse_field, parse_map

SEED_ENV_VAR = "JETFIELDS_SEED"


def _add_ring_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-n", type=int, required=True, metavar="VARS",
                    help="number of variables")
    sp.add_argument("-N", dest="order", type=int, required=True, metavar="ORDER",
                    help="truncation order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetfields",
        description="Exact calculus of truncated power series, formal maps, "
                    "and vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("div", help="divergence of a vector field")
    _add_ring_args(sp)
    sp.add_argument("field", help="field text, e.g. '(x1)*d1 + (x2)*d2'")

    sp = sub.add_parser("jac", help="Jacobian matrix of a map")
    _add_ring_args(sp)
    sp.add_argument("map", help="map text, e.g. 'x1 -> x1; x2 -> x2 + x1^2'")

    sp = sub.add_parser("jacdet", help="Jacobian determinant of a map")
    _add_ring_args(sp)
    sp.add_argument("map")

    sp = sub.add_parser("push", help="transport a field along an automorphism")
    _add_ring_args(sp)
    sp.add_argument("map")
    sp.add_argument("field")

    sp = sub.add_parser("compose", help="compose two maps (first acts after second)")
    _add_ring_args(sp)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("invert", help="compositional inverse of an automorphism")
    _add_ring_args(sp)
    sp.add_argument("map")

    sp = sub.add_parser("bracket", help="commutator of two fields")
    _add_ring_args(sp)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("flow", help="time-1 flow of a field with adic order >= 2")
    _add_ring_args(sp)
    sp.add_argument("field")

    sp = sub.add_parser("verify", help="run the identity verification suite")
    sp.add_argument("--checks", default=",".join(CHECK_IDS),
                    help="comma-separated check ids (default: all)")
    sp.add_argument("--n-list", default="1,2,3",
                    help="comma-separated variable counts (default: 1,2,3)")
    sp.add_argument("--order-list", default="3,4,5",
                    help="comma-separated truncation orders (default: 3,4,5)")
    sp.add_argument("--trials", type=int, default=100,
                    help="trials per cell (default: 100)")
    sp.add_argument("--seed", type=int, default=None,
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


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise JetfieldsError(f"{what} must be a comma-separated list of integers") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise JetfieldsError(
                f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    config = SuiteConfig(
        checks=tuple(c.strip() for c in args.checks.split(",") if c.strip()),
        n_list=_parse_int_list(args.n_list, "--n-list"),
        order_list=_parse_int_list(args.order_list, "--order-list"),
        trials=args.trials,
        seed=seed,
    )
    config.validate()
    report = run_suite(config)
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    return 0 if report.unexpected_failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "div":
            field = parse_field(args.field, args.n, args.order)
            print(field.divergence())
        elif args.command == "jac":
            fmap = parse_map(args.map, args.n, args.order)
            print(fmap.jacobian_matrix())
        elif args.command == "jacdet":
            _det_guard("jacdet", args.n)
            fmap = parse_map(args.map, args.n, args.order)
            print(fmap.jacobian_det())
        elif args.command == "push":
            fmap = parse_map(args.map, args.n, args.order)
            field = parse_field(args.field, args.n, args.order)
            print(pushforward(fmap, field))
        elif args.command == "compose":
            first = parse_map(args.first, args.n, args.order)
            second = parse_map(args.second, args.n, args.order)
            print(first.compose(second))
        elif args.command == "invert":
            fmap = parse_map(args.map, args.n, args.order)
            print(fmap.invert())
        elif args.command == "bracket":
            first = parse_field(args.first, args.n, args.order)
            second = parse_field(args.second, args.n, args.order)
            print(first.bracket(second))
        elif args.command == "flow":
            field = parse_field(args.field, args.n, args.order)
            print(exp_flow(field))
        elif args.command == "verify":
            return _cmd_verify(args)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except (JetfieldsError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())
