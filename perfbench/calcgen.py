"""Seeded request stream for the calculator workload.

The benchmark writes the calculator's input text itself, with stdlib
``fractions`` only, so the program under test sees nothing but argv
strings.  Every request is valid by construction: maps have an invertible
linear part (so ``push`` and ``invert`` succeed) and flow fields have
coefficients of adic order >= 2.  Inputs stay tiny (one linear part plus
at most two higher terms per image), so a request costs about what the
command-line front end costs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, NamedTuple

KINDS = ("div", "jac", "jacdet", "push", "compose", "invert", "bracket", "flow")
N_VALUES = (1, 2, 3)
ORDERS = (3, 4, 5)
NUMERATORS = (-2, -1, 1, 2)
DENOMINATORS = (1, 1, 2, 3)


class Request(NamedTuple):
    kind: str
    n: int
    order: int
    texts: tuple[str, ...]

    def argv(self) -> list[str]:
        return [self.kind, "-n", str(self.n), "-N", str(self.order), *self.texts]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS))


def _monomial(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _add(terms: dict, exps: tuple[int, ...], c: Fraction) -> None:
    total = terms.get(exps, 0) + c
    if total:
        terms[exps] = total
    else:
        terms.pop(exps, None)


def series_text(terms: dict) -> str:
    """Text of a series given as {exponent tuple: Fraction}; "0" when empty."""
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[exps]
        factors = "*".join(
            f"x{i + 1}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(exps) if p
        )
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag}*{factors}"
        if parts:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    m = [row[:] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result


def linear_part(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A random matrix with small rational entries and nonzero determinant."""
    while True:
        m = [[_rational(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
             for _ in range(n)]
        if det(m):
            return m


def map_text(rng: random.Random, n: int, order: int) -> str:
    """An automorphism: invertible linear part plus 0-2 higher terms per image."""
    rows = linear_part(rng, n)
    rules = []
    for i, row in enumerate(rows):
        terms: dict = {}
        for j, c in enumerate(row):
            if c:
                terms[tuple(int(k == j) for k in range(n))] = c
        for _ in range(rng.randint(0, 2)):
            _add(terms, _monomial(rng, n, rng.randint(2, order)), _rational(rng))
        rules.append(f"x{i + 1} -> {series_text(terms)}")
    return "; ".join(rules)


def field_text(rng: random.Random, n: int, order: int, min_degree: int = 0) -> str:
    """A field with up to two terms per coefficient, of degree min_degree..order.

    Flow fields (min_degree >= 2) get at least one term per coefficient.
    """
    parts = []
    for i in range(n):
        terms: dict = {}
        for _ in range(rng.randint(int(min_degree >= 2), 2)):
            _add(terms, _monomial(rng, n, rng.randint(min_degree, order)), _rational(rng))
        if terms:
            parts.append(f"({series_text(terms)})*d{i + 1}")
    return " + ".join(parts) or "0"


def make_request(rng: random.Random, kind: str, n: int, order: int) -> Request:
    if kind == "div":
        texts = (field_text(rng, n, order),)
    elif kind in ("jac", "jacdet", "invert"):
        texts = (map_text(rng, n, order),)
    elif kind == "push":
        texts = (map_text(rng, n, order), field_text(rng, n, order))
    elif kind == "compose":
        texts = (map_text(rng, n, order), map_text(rng, n, order))
    elif kind == "bracket":
        texts = (field_text(rng, n, order), field_text(rng, n, order))
    else:  # flow
        texts = (field_text(rng, n, order, min_degree=2),)
    return Request(kind, n, order, texts)


def requests(seed: int) -> Iterator[Request]:
    """The endless request stream for ``seed``.

    Kinds come in shuffled blocks of all eight, so every prefix of eight or
    more requests reaches every subcommand.
    """
    rng = random.Random(f"perfbench-calculator|{seed}")
    while True:
        block = list(KINDS)
        rng.shuffle(block)
        for kind in block:
            yield make_request(rng, kind, rng.choice(N_VALUES), rng.choice(ORDERS))
