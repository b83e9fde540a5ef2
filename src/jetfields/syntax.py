"""Text syntax for series, vector fields, and maps.

Grammar (EBNF, whitespace free between tokens):

    series  = [sign] term { sign term } ;
    term    = rational [ "*" factors ] | factors ;
    factors = factor { "*" factor } ;
    factor  = variable [ "^" integer ] ;
    rational = integer [ "/" integer ] ;
    field   = "0" | [sign] fterm { sign fterm } ;
    fterm   = "(" series ")" "*" dsymbol ;
    map     = rule { ";" rule } ;
    rule    = variable "->" series ;
    sign    = "+" | "-" ;

Variables are ``x1``..``xn`` and field symbols ``d1``..``dn``; exponents
are integers >= 1.  Terms whose degree exceeds the truncation order are
rejected rather than silently dropped, duplicate monomials are summed,
and a map must bind every variable exactly once with images vanishing at
the origin.

``str`` of a jet, matrix, field or map emits the canonical form these
parsers round-trip: ascending total degree, earlier variables first
within a degree, reduced coefficients, " + " / " - " joins.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import Derivation
from .jets import Jet, Monomial
from .maps import FormalMap
from .rationals import Q

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<var>x\d+)"
    r"|(?P<dsym>d\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[+\-*/^();])"
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value: object = m.group()
            if kind == "int":
                value = int(value)
            elif kind in ("var", "dsym"):
                value = int(m.group()[1:])
            elif kind == "op":
                kind = m.group()
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, order: int) -> None:
        if n < 1:
            raise ValueError("variable count must be positive")
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.text = text
        self.n = n
        self.order = order
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.take()

    def fail(self, message: str) -> None:
        raise ParseError(message, self.peek().pos)

    # series

    def parse_series(self, stop: tuple[str, ...]) -> Jet:
        terms: dict[Monomial, Q] = {}
        sign = self._leading_sign()
        while True:
            exps, coeff = self._term()
            coeff = coeff if sign > 0 else -coeff
            prev = terms.get(exps)
            total = coeff if prev is None else prev + coeff
            if total:
                terms[exps] = total
            elif prev is not None:
                del terms[exps]
            tok = self.peek()
            if tok.kind in stop:
                break
            if tok.kind in ("+", "-"):
                sign = 1 if tok.kind == "+" else -1
                self.take()
                continue
            self.fail("expected '+', '-', or end of series")
        return Jet(self.n, self.order, terms)

    def _leading_sign(self) -> int:
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.take()
            return 1 if tok.kind == "+" else -1
        return 1

    def _term(self) -> tuple[Monomial, "Q"]:
        start = self.peek().pos
        if self.peek().kind == "int":
            coeff = self._rational()
            if self.peek().kind == "*":
                self.take()
                exps = self._factors()
            else:
                exps = (0,) * self.n
        elif self.peek().kind == "var":
            coeff = Q(1)
            exps = self._factors()
        else:
            self.fail("expected a rational or a variable")
        if sum(exps) > self.order:
            raise ParseError(
                f"term of degree {sum(exps)} exceeds truncation order {self.order}",
                start,
            )
        return exps, coeff

    def _rational(self) -> "Q":
        num = self.expect("int", "an integer").value
        if self.peek().kind == "/":
            self.take()
            den_tok = self.expect("int", "a denominator")
            if den_tok.value == 0:
                raise ParseError("zero denominator", den_tok.pos)
            return Q(num, den_tok.value)
        return Q(num)

    def _factors(self) -> Monomial:
        exps = [0] * self.n
        while True:
            tok = self.expect("var", "a variable like x1")
            idx = tok.value
            if not 1 <= idx <= self.n:
                raise ParseError(
                    f"unknown variable x{idx} (ring has {self.n} variable"
                    f"{'s' if self.n != 1 else ''})",
                    tok.pos,
                )
            power = 1
            if self.peek().kind == "^":
                self.take()
                ptok = self.expect("int", "an integer exponent")
                if ptok.value < 1:
                    raise ParseError("exponent must be >= 1", ptok.pos)
                power = ptok.value
            exps[idx - 1] += power
            if self.peek().kind == "*" and self.tokens[self.i + 1].kind == "var":
                self.take()
                continue
            break
        return tuple(exps)

    # fields

    def parse_field(self) -> Derivation:
        coeffs = [Jet.zero(self.n, self.order) for _ in range(self.n)]
        first = self.peek()
        if first.kind == "int" and first.value == 0 and self.tokens[self.i + 1].kind == "end":
            self.take()
            return Derivation(self.n, self.order, tuple(coeffs))
        while True:
            sign = self._leading_sign()
            self.expect("(", "'(' opening a coefficient series")
            series = self.parse_series(stop=(")",))
            self.expect(")", "')'")
            self.expect("*", "'*' before the field symbol")
            tok = self.expect("dsym", "a field symbol like d1")
            idx = tok.value
            if not 1 <= idx <= self.n:
                raise ParseError(
                    f"unknown field symbol d{idx} (ring has {self.n} variable"
                    f"{'s' if self.n != 1 else ''})",
                    tok.pos,
                )
            coeffs[idx - 1] = coeffs[idx - 1] + (series if sign > 0 else -series)
            nxt = self.peek()
            if nxt.kind == "end":
                break
            if nxt.kind in ("+", "-"):
                continue
            self.fail("expected '+', '-', or end of field")
        return Derivation(self.n, self.order, tuple(coeffs))

    # maps

    def parse_map(self) -> FormalMap:
        images: dict[int, Jet] = {}
        while True:
            tok = self.expect("var", "a variable like x1 starting a rule")
            idx = tok.value
            if not 1 <= idx <= self.n:
                raise ParseError(
                    f"unknown variable x{idx} (ring has {self.n} variable"
                    f"{'s' if self.n != 1 else ''})",
                    tok.pos,
                )
            if idx in images:
                raise ParseError(f"duplicate rule for x{idx}", tok.pos)
            self.expect("arrow", "'->'")
            start = self.peek().pos
            series = self.parse_series(stop=(";", "end"))
            if series.constant_term:
                raise ParseError(
                    f"image of x{idx} has nonzero constant term "
                    f"{series.constant_term}; maps must fix the origin",
                    start,
                )
            images[idx] = series
            if self.peek().kind == ";":
                self.take()
                continue
            break
        missing = [f"x{k}" for k in range(1, self.n + 1) if k not in images]
        if missing:
            raise ParseError(
                f"missing map rule{'s' if len(missing) > 1 else ''} for "
                + ", ".join(missing),
                self.peek().pos,
            )
        return FormalMap(
            self.n, self.order, tuple(images[k] for k in range(1, self.n + 1))
        )

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.pos)


def parse_series(text: str, n: int, order: int) -> Jet:
    """Parse series text like ``x1 + 2*x1^2*x2 - 1/2`` into a jet."""
    p = _Parser(text, n, order)
    jet = p.parse_series(stop=("end",))
    p.finish()
    return jet


def parse_field(text: str, n: int, order: int) -> Derivation:
    """Parse field text like ``(x1^2)*d1 + (x1*x2)*d2`` into a derivation."""
    p = _Parser(text, n, order)
    field = p.parse_field()
    p.finish()
    return field


def parse_map(text: str, n: int, order: int) -> FormalMap:
    """Parse map text like ``x1 -> x1; x2 -> x2 + x1^2`` into a formal map."""
    p = _Parser(text, n, order)
    fmap = p.parse_map()
    p.finish()
    return fmap

