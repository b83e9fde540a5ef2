"""jetfields: exact calculus of truncated power series, formal maps, and vector fields.

Everything is computed over the rationals with per-object precision
tracking: a jet of order N is a series known exactly through total
degree N, and each operation reports the largest order its result can
honestly claim.  On top of the series ring sit continuous formal maps
(with composition, inversion, and the Jacobian cocycles), formal vector
fields (with bracket, divergence, and pushforward), and a seeded
verification suite that exercises the structural identities tying them
together.

The suite's names load on first use (PEP 562): only ``verify`` and callers
of the suite pay for compiling it, with ``hashlib`` and ``json``, so a
calculator command and a plain ``import jetfields`` do not.  They are
looked up in ``jetfields.suite`` on each access and never copied here.
"""

import importlib

from .errors import (
    ConfigError,
    DimensionMismatch,
    JetfieldsError,
    NonConstantDivergence,
    NotAUnit,
    NotContinuous,
    NotNilpotent,
    OrderMismatch,
    ParseError,
    PrecisionExhausted,
    SingularMatrix,
)
from .fields import (
    Derivation,
    DivergenceClass,
    centralizes_partials,
    classify_divergence,
    coordinate_frame,
    decompose_const_div,
    euler_field,
    partial_field,
    pushforward,
    random_divergence_free,
    random_field,
)
from .jets import Jet, JetMatrix, Monomial
from .maps import (
    FormalMap,
    exp_flow,
    identity_map,
    matrix_inverse,
    random_automorphism,
    random_const_jacobian,
)
from .rationals import BACKEND, Q, as_rational
from .syntax import (
    parse_field,
    parse_map,
    parse_series,
)

__version__ = "0.1.0"

_SUITE_NAMES = frozenset({
    "CHECK_IDS", "CHECKS", "CellResult", "ControlResult", "IdentityCheck", "Outcome",
    "SuiteConfig", "TrialResult", "VerificationReport", "negative_control_map",
    "rerun_payload", "run_check", "run_suite", "trial_seed",
})


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        return getattr(importlib.import_module(".suite", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _SUITE_NAMES)


__all__ = [
    "BACKEND",
    "CHECKS",
    "CHECK_IDS",
    "CellResult",
    "ConfigError",
    "ControlResult",
    "Derivation",
    "DimensionMismatch",
    "DivergenceClass",
    "FormalMap",
    "IdentityCheck",
    "Jet",
    "JetMatrix",
    "JetfieldsError",
    "Monomial",
    "NonConstantDivergence",
    "NotAUnit",
    "NotContinuous",
    "NotNilpotent",
    "OrderMismatch",
    "Outcome",
    "ParseError",
    "PrecisionExhausted",
    "Q",
    "SingularMatrix",
    "SuiteConfig",
    "TrialResult",
    "VerificationReport",
    "as_rational",
    "centralizes_partials",
    "classify_divergence",
    "coordinate_frame",
    "decompose_const_div",
    "euler_field",
    "exp_flow",
    "identity_map",
    "matrix_inverse",
    "negative_control_map",
    "parse_field",
    "parse_map",
    "parse_series",
    "partial_field",
    "pushforward",
    "random_automorphism",
    "random_const_jacobian",
    "random_divergence_free",
    "random_field",
    "rerun_payload",
    "run_check",
    "run_suite",
    "trial_seed",
    "__version__",
]
