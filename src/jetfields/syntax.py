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

Variables are ``x1``..``xn`` and field symbols ``d1``..``dn``; integers
are ASCII digits and exponents are >= 1.  Terms whose degree exceeds the
truncation order are rejected rather than silently dropped, duplicate
monomials are summed, and a map must bind every variable exactly once
with images vanishing at the origin.

``str`` of a jet, matrix, field or map emits the canonical form these
parsers round-trip: ascending total degree, earlier variables first
within a degree, reduced coefficients, " + " / " - " joins.

A text is scanned once, by one ``findall`` into plain token strings, and
each token's kind is read off its first character.  Columns are worked
out only for an error, by scanning the text again.  Errors are found in
a fixed order: the ring, then the first bad character anywhere in the
text, then the grammar from left to right.  A series is built on a
jet's integer form directly: each term is read as an integer pair
(p, q) and a packed monomial key, the pairs are summed per key, and the
jet is made once over the lcm of the denominators.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm

from .errors import ParseError
from .fields import Derivation
from .jets import Jet, _check_ring, _jet, _reduce, _tuple, _width
from .maps import FormalMap, _check_map_ring

# Whitespace matches no alternative, so findall skips it.  A token that
# is "x", "d" or starts with a character outside "xd0-9+-*/^();" is bad.
_TOKEN_RE = re.compile(r"[xd][0-9]+|[0-9]+|->|[-+*/^();]|\S")


def _error(text: str, tokens: list, k: int, message: str) -> ParseError:
    """``message`` at token k, unless the text has a bad character first."""
    for j, t in enumerate(tokens[:-1]):
        if t[0] not in "xd0123456789+-*/^();" or t in ("x", "d"):
            k, message = j, f"unexpected character {t!r}"
            break
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return ParseError(message, starts[k] if k < len(starts) else len(text))


def _unknown(text: str, tokens: list, i: int, n: int, name: str) -> ParseError:
    return _error(text, tokens, i, f"unknown {name}{int(tokens[i][1:])} (ring has "
                                   f"{n} variable{'s' if n != 1 else ''})")


def _digits(value: int) -> str:
    """``value`` in decimal, or its length when that is past the digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"longer than {sys.get_int_max_str_digits()} digits"


def _check_sum(text: str, tokens: list, k: int, p: int, q: int) -> None:
    """Refuse p/q, a coefficient summed at token k, if in lowest terms its
    numerator or denominator is past the digit limit: it would not print."""
    limit = sys.get_int_max_str_digits()
    top = max(p, -p, q)
    # 2**(3 * limit) < 10**limit, so shorter values pass with no division.
    if limit and top.bit_length() > 3 * limit and top // gcd(p, q) >= 10 ** limit:
        raise _error(text, tokens, k, f"summed coefficient longer than {limit} digits")


def _parse(walk, text: str, n: int, order: int):
    _check_ring(n, order)
    tokens = _TOKEN_RE.findall(text)
    tokens.append(" ")  # the end: no token is whitespace
    try:
        return walk(text, tokens, n, order, _width(order))
    except ValueError:
        # int() refuses a literal longer than the interpreter's digit limit.
        limit = sys.get_int_max_str_digits()
        k = next((j for j, t in enumerate(tokens) if len(t.lstrip("xd")) > limit), 0)
        raise _error(text, tokens, k, f"integer longer than {limit} digits") from None


def _series(text: str, tokens: list, n: int, order: int, w: int,
            i: int = 0, stop: tuple = (" ",)) -> tuple[Jet, int]:
    """The series from tokens[i] on, and the index of the ``stop`` token after it."""
    # Packed key -> (p, q), summed unreduced; zero sums drop out at the end.
    acc: dict[int, tuple[int, int]] = {}
    t = tokens[i]
    negate = t == "-"
    if negate or t == "+":
        i += 1
    while True:
        start = i
        t = tokens[i]
        key = degree = 0
        if "0" <= t[0] <= "9":
            p, q = int(t), 1
            i += 1
            if tokens[i] == "/":
                i += 1
                t = tokens[i]
                if not "0" <= t[0] <= "9":
                    raise _error(text, tokens, i, "expected a denominator")
                q = int(t)
                if not q:
                    raise _error(text, tokens, i, "zero denominator")
                i += 1
            more = tokens[i] == "*"
            i += more
        elif t[0] == "x":
            p = q = more = 1
        else:
            raise _error(text, tokens, i, "expected a rational or a variable")
        while more:
            # A factor's exponent field can overflow only when the degree
            # exceeds the order, which is rejected before the key is used.
            t = tokens[i]
            if t[0] != "x" or t == "x":
                raise _error(text, tokens, i, "expected a variable like x1")
            idx = int(t[1:])
            if not 0 < idx <= n:
                raise _unknown(text, tokens, i, n, "variable x")
            i += 1
            power = 1
            if tokens[i] == "^":
                i += 1
                t = tokens[i]
                if not "0" <= t[0] <= "9":
                    raise _error(text, tokens, i, "expected an integer exponent")
                power = int(t)
                if not power:
                    raise _error(text, tokens, i, "exponent must be >= 1")
                i += 1
            key += power << w * (n - idx)
            degree += power
            more = tokens[i] == "*" and tokens[i + 1][0] == "x"
            i += more
        if degree > order:
            # Each exponent prints, but their sum may not, nor may an order
            # passed in through the API.
            raise _error(text, tokens, start, f"term of degree {_digits(degree)} "
                         f"exceeds truncation order {_digits(order)}")
        key |= degree << w * n
        if negate:
            p = -p
        prev = acc.get(key)
        if prev is not None:
            p0, q0 = prev
            p, q = (p0 + p, q) if q0 == q else (p0 * q + p * q0, q0 * q)
            _check_sum(text, tokens, start, p, q)
        acc[key] = p, q
        t = tokens[i]
        if t in stop:
            break
        if t != "+" and t != "-":
            raise _error(text, tokens, i, "expected '+', '-', or end of series")
        negate = t == "-"
        i += 1
    terms = [(k, p, q) for k, (p, q) in acc.items() if p]
    den = lcm(*[q for _, _, q in terms])
    num = {k: p * (den // q) for k, p, q in terms}
    return _jet(n, order, *_reduce(num, den), w), i


def _field(text: str, tokens: list, n: int, order: int, w: int) -> list[Jet]:
    coeffs = [Jet.zero(n, order)] * n
    if len(tokens) == 2 and "0" <= tokens[0][0] <= "9" and not int(tokens[0]):
        return coeffs
    i = 0
    while True:
        t = tokens[i]
        negate = t == "-"
        if negate or t == "+":
            i += 1
        if tokens[i] != "(":
            raise _error(text, tokens, i, "expected '(' opening a coefficient series")
        start = i
        series, i = _series(text, tokens, n, order, w, i + 1, (")",))
        i += 1  # past the ")" the series stopped at
        if tokens[i] != "*":
            raise _error(text, tokens, i, "expected '*' before the field symbol")
        i += 1
        t = tokens[i]
        if t[0] != "d" or t == "d":
            raise _error(text, tokens, i, "expected a field symbol like d1")
        idx = int(t[1:])
        if not 0 < idx <= n:
            raise _unknown(text, tokens, i, n, "field symbol d")
        prev = coeffs[idx - 1]
        total = -series if negate else series
        if prev._num:
            total = prev + total
            for c in total._num.values():
                _check_sum(text, tokens, start, c, total._den)
        coeffs[idx - 1] = total
        i += 1
        t = tokens[i]
        if t == " ":
            return coeffs
        if t != "+" and t != "-":
            raise _error(text, tokens, i, "expected '+', '-', or end of field")


def _map(text: str, tokens: list, n: int, order: int, w: int) -> list[Jet]:
    images: dict[int, Jet] = {}
    i = 0
    while True:
        t = tokens[i]
        if t[0] != "x" or t == "x":
            raise _error(text, tokens, i, "expected a variable like x1 starting a rule")
        idx = int(t[1:])
        if not 0 < idx <= n:
            raise _unknown(text, tokens, i, n, "variable x")
        if idx in images:
            raise _error(text, tokens, i, f"duplicate rule for x{idx}")
        if tokens[i + 1] != "->":
            raise _error(text, tokens, i + 1, "expected '->'")
        series, end = _series(text, tokens, n, order, w, i + 2, (";", " "))
        if series.constant_term:
            raise _error(text, tokens, i + 2, f"image of x{idx} has nonzero constant term "
                                              f"{series.constant_term}; maps must fix the origin")
        images[idx] = series
        if tokens[end] == " ":
            break
        i = end + 1
    missing = [f"x{k}" for k in range(1, n + 1) if k not in images]
    if missing:
        raise _error(text, tokens, end, f"missing map rule{'s' if len(missing) > 1 else ''} "
                                        f"for {', '.join(missing)}")
    return [images[k] for k in range(1, n + 1)]


def parse_series(text: str, n: int, order: int) -> Jet:
    """Parse series text like ``x1 + 2*x1^2*x2 - 1/2`` into a jet."""
    return _parse(_series, text, n, order)[0]


def parse_field(text: str, n: int, order: int) -> Derivation:
    """Parse field text like ``(x1^2)*d1 + (x1*x2)*d2`` into a derivation."""
    return _tuple(Derivation, n, order, tuple(_parse(_field, text, n, order)))


def parse_map(text: str, n: int, order: int) -> FormalMap:
    """Parse map text like ``x1 -> x1; x2 -> x2 + x1^2`` into a formal map."""
    images = tuple(_parse(_map, text, n, order))
    _check_map_ring(n, order)  # an order-0 map parses when every image is 0
    return _tuple(FormalMap, n, order, images)
