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

Parsing builds a jet's integer form directly: each term is read as an
integer pair (p, q) and a packed monomial key, the pairs are summed per
key, and the jet is made once over the lcm of the denominators, with no
rational arithmetic and no per-term validation beyond the grammar's own.
"""

from __future__ import annotations

import re
from math import lcm

from .errors import ParseError
from .fields import Derivation
from .jets import Jet, _check_ring, _jet, _reduce, _width
from .maps import FormalMap

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<var>x\d+)"
    r"|(?P<dsym>d\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[+\-*/^();])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple]:
    """The tokens of ``text`` as (kind, value, position) tuples, ending in "end".

    Operators and "->" are their own kind; variables and field symbols
    carry their index, integers their value.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        s = m.group()
        if kind == "op" or kind == "arrow":
            append((s, s, m.start()))
        elif kind == "int":
            append((kind, int(s), m.start()))
        elif kind == "var" or kind == "dsym":
            append((kind, int(s[1:]), m.start()))
        else:
            raise ParseError(f"unexpected character {s!r}", m.start())
    append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, order: int) -> None:
        _check_ring(n, order)
        self.n = n
        self.order = order
        self.w = _width(order)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        self.i += 1
        return tok

    def fail(self, message: str) -> None:
        raise ParseError(message, self.peek()[2])

    def index(self, kind: str, what: str) -> tuple[int, int]:
        """The next variable ("var") or field symbol ("dsym") as (index, position)."""
        _, idx, pos = self.expect(kind, what)
        if not 1 <= idx <= self.n:
            name = "variable x" if kind == "var" else "field symbol d"
            raise ParseError(
                f"unknown {name}{idx} (ring has {self.n} variable"
                f"{'s' if self.n != 1 else ''})",
                pos,
            )
        return idx, pos

    # series

    def parse_series(self, stop: tuple[str, ...]) -> Jet:
        # Packed key -> (p, q), summed unreduced; zero sums drop out at the end.
        acc: dict[int, tuple[int, int]] = {}
        sign = self._leading_sign()
        while True:
            key, p, q = self._term()
            if sign < 0:
                p = -p
            prev = acc.get(key)
            if prev is not None:
                p0, q0 = prev
                p, q = (p0 + p, q) if q0 == q else (p0 * q + p * q0, q0 * q)
            acc[key] = p, q
            kind = self.peek()[0]
            if kind in stop:
                break
            if kind == "+" or kind == "-":
                sign = 1 if kind == "+" else -1
                self.i += 1
                continue
            self.fail("expected '+', '-', or end of series")
        terms = [(k, p, q) for k, (p, q) in acc.items() if p]
        den = lcm(*[q for _, _, q in terms])
        num = {k: p * (den // q) for k, p, q in terms}
        return _jet(self.n, self.order, *_reduce(num, den), self.w)

    def _leading_sign(self) -> int:
        kind = self.peek()[0]
        if kind == "+" or kind == "-":
            self.i += 1
            return 1 if kind == "+" else -1
        return 1

    def _term(self) -> tuple[int, int, int]:
        """One term as (packed monomial key, p, q) with q > 0."""
        kind, _, start = self.peek()
        if kind == "int":
            p, q = self._rational()
            if self.peek()[0] == "*":
                self.i += 1
                key, degree = self._factors()
            else:
                key = degree = 0
        elif kind == "var":
            p = q = 1
            key, degree = self._factors()
        else:
            self.fail("expected a rational or a variable")
        if degree > self.order:
            raise ParseError(
                f"term of degree {degree} exceeds truncation order {self.order}",
                start,
            )
        return key | degree << (self.w * self.n), p, q

    def _rational(self) -> tuple[int, int]:
        num = self.expect("int", "an integer")[1]
        if self.peek()[0] == "/":
            self.i += 1
            _, den, pos = self.expect("int", "a denominator")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return num, den
        return num, 1

    def _factors(self) -> tuple[int, int]:
        """A product of powers as (exponent fields of its packed key, degree).

        A field can overflow only when the degree exceeds the order, which
        the caller rejects before the key is used.
        """
        n, w = self.n, self.w
        key = degree = 0
        while True:
            idx, _ = self.index("var", "a variable like x1")
            power = 1
            if self.peek()[0] == "^":
                self.i += 1
                _, power, ppos = self.expect("int", "an integer exponent")
                if power < 1:
                    raise ParseError("exponent must be >= 1", ppos)
            key += power << (w * (n - idx))
            degree += power
            if self.peek()[0] == "*" and self.tokens[self.i + 1][0] == "var":
                self.i += 1
                continue
            break
        return key, degree

    # fields

    def parse_field(self) -> Derivation:
        coeffs = [Jet.zero(self.n, self.order) for _ in range(self.n)]
        first = self.peek()
        if first[:2] == ("int", 0) and self.tokens[self.i + 1][0] == "end":
            self.i += 1
            return Derivation(self.n, self.order, tuple(coeffs))
        while True:
            sign = self._leading_sign()
            self.expect("(", "'(' opening a coefficient series")
            series = self.parse_series(stop=(")",))
            self.expect(")", "')'")
            self.expect("*", "'*' before the field symbol")
            idx, _ = self.index("dsym", "a field symbol like d1")
            coeffs[idx - 1] = coeffs[idx - 1] + (series if sign > 0 else -series)
            kind = self.peek()[0]
            if kind == "end":
                break
            if kind == "+" or kind == "-":
                continue
            self.fail("expected '+', '-', or end of field")
        return Derivation(self.n, self.order, tuple(coeffs))

    # maps

    def parse_map(self) -> FormalMap:
        images: dict[int, Jet] = {}
        while True:
            idx, pos = self.index("var", "a variable like x1 starting a rule")
            if idx in images:
                raise ParseError(f"duplicate rule for x{idx}", pos)
            self.expect("->", "'->'")
            start = self.peek()[2]
            series = self.parse_series(stop=(";", "end"))
            if series.constant_term:
                raise ParseError(
                    f"image of x{idx} has nonzero constant term "
                    f"{series.constant_term}; maps must fix the origin",
                    start,
                )
            images[idx] = series
            if self.peek()[0] == ";":
                self.i += 1
                continue
            break
        missing = [f"x{k}" for k in range(1, self.n + 1) if k not in images]
        if missing:
            raise ParseError(
                f"missing map rule{'s' if len(missing) > 1 else ''} for "
                + ", ".join(missing),
                self.peek()[2],
            )
        return FormalMap(
            self.n, self.order, tuple(images[k] for k in range(1, self.n + 1))
        )

    def finish(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)


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

