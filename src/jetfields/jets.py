"""Truncated multivariate power series with exact rational coefficients.

A jet is a power series in variables x1..xn known exactly through total
degree ``order`` and unknown beyond it.  At the API a jet's ``terms`` map
exponent tuples to nonzero rationals; zero coefficients are never stored,
so equal jets have equal dicts.

Inside the kernel a jet is held in integer form: one positive common
denominator and a dict of nonzero integer numerators, kept reduced (the
denominator shares no factor with all the numerators, so it is the lcm of
the coefficient denominators and equal jets have equal forms).  Each
operation works on numerators only and reduces once, by one gcd over the
result, instead of once per coefficient.  Monomials are packed into ints
(see ``_pack``), so a monomial product is one int addition and a degree
test one comparison.  The integer form is the only one a jet stores:
``terms`` is built from it afresh on each access.  The canonical term
order of ``str`` and ``to_dict`` is read off the packed keys, a coefficient
is reduced by one gcd as it is printed unless the denominator is 1, and
``str`` reads each monomial's text from a table of its ring (``_names``).

Precision is tracked per jet and every operation returns the largest
order its result can honestly claim:

* ``+``, ``-``, ``*``            -> min of the operand orders
* ``partial_derivative``         -> order - 1
* ``substitute``                 -> min of the jet's order and the image orders
* ``invert_unit``                -> order preserved
* ``truncate``                   -> explicit downgrade (never up)

Equality between jets of different orders raises OrderMismatch rather
than guessing which precision was meant; ``equal_at`` compares prefixes
at an explicit order.

Variable indices in the public API are 1-based, matching the x1..xn
naming used by the text syntax; raw exponent tuples are ordinary Python
tuples indexed from 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import (
    ConfigError,
    DimensionMismatch,
    NotAUnit,
    NotContinuous,
    OrderMismatch,
    PrecisionExhausted,
)
from .rationals import Q, RationalLike, as_rational

Monomial = tuple[int, ...]

_ZERO = Q(0)


# -- packed monomials ------------------------------------------------------------
#
# A monomial in n variables is packed into one int: its total degree in the
# top field, then e1..en in fields of ``w`` bits.  Every exponent is at most
# the total degree, which is at most the truncation order < 2**w, so adding
# two keys multiplies the monomials without a carry between fields, and a
# key has degree <= cap exactly when it is below ``_limit(cap, n, w)``.
# The width depends only on the order, in three tiers: 4 bits below order
# 16, 8 bits below 256, and ``order.bit_length()`` from 256 up.  The 4-bit
# tier keeps a key in n <= 6 variables within 4n + 4 <= 28 bits, one
# 30-bit CPython digit, so each multiply-add in the product loops adds,
# hashes and stores a one-digit int, and the low bits a dict indexes by
# vary.  Jets of orders within one tier share a layout; keys are repacked
# when an operation crosses tiers.


def _width(order: int) -> int:
    if order < 16:
        return 4
    return 8 if order < 256 else order.bit_length()


def _limit(cap: int, n: int, w: int) -> int:
    return (cap + 1) << (w * n)


def _pack(exps: Monomial, w: int) -> int:
    key = sum(exps)
    for p in exps:
        key = (key << w) | p
    return key


def _unpack(key: int, n: int, w: int) -> Monomial:
    mask = (1 << w) - 1
    return tuple([(key >> (w * (n - 1 - i))) & mask for i in range(n)])


def _repack(num: dict, n: int, w_from: int, w_to: int, cap: int) -> dict:
    """Keys of ``num`` moved to the ``w_to`` layout, degrees above ``cap`` dropped."""
    lim = _limit(cap, n, w_from)
    return {_pack(_unpack(k, n, w_from), w_to): c for k, c in num.items() if k < lim}


# -- integer-form arithmetic ---------------------------------------------------------
#
# These helpers work on plain {packed key: int numerator} dicts with no
# validation, so the inner loops see only int arithmetic.  A value is a
# (numerators, denominator) pair; results may be unreduced and are reduced
# by ``_reduce`` once per public operation or lifted layer.  Dicts are never
# mutated after they are returned, so results may share them with their
# inputs.
#
# Argument tuples are built from lists, as in ``lcm(*[...])``, not from
# generators: CPython 3.11 allocates a tuple built from a generator at a
# guessed length and shrinks it, so each call parks one more block on a
# tuple free list until a full collection, and peak memory grew with the
# number of calls (about 55 bytes per calculator request).


def _reduce(num: dict, den: int) -> tuple[dict, int]:
    """Divide out the common factor of the denominator and all numerators."""
    if not num:
        return num, 1
    if den == 1:
        return num, 1
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: c // g for k, c in num.items()}, den // g


def _add_terms(a: tuple[dict, int], b: tuple[dict, int]) -> tuple[dict, int]:
    """a + b over the lcm of the denominators, zero sums dropped."""
    (na, da), (nb, db) = a, b
    if not nb:
        return a
    if not na:
        return b
    if da == db:
        den, sb = da, 1
        out = dict(na)
    else:
        den = lcm(da, db)
        sa, sb = den // da, den // db
        out = {k: c * sa for k, c in na.items()}
    for k, c in nb.items():
        if sb != 1:
            c *= sb
        v = out.get(k)
        if v is None:
            out[k] = c
        elif v + c:
            out[k] = v + c
        else:
            del out[k]
    return out, den


def _dot_terms(pairs: Sequence[tuple[tuple, tuple]], limit: int) -> tuple[dict, int]:
    """sum a/da * b/db over ((a, da), (b, db)) pairs, keys below ``limit``.

    Every product is accumulated on integer numerators into one dict over
    the lcm of the products' denominators: no rational arithmetic and no
    intermediate sums.  The shorter operand of each product is walked in
    full and the longer one in key order, stopping at the first monomial
    that would exceed the degree cap.

    Numerators are dicts, which are sorted for that walk on every call, or
    key-sorted lists of (key, numerator) items, walked as given: a caller
    that uses one operand in many products sorts it once (``_sorted``).  A
    list may be in any key order when no product of the pass reaches the
    cap, as in the layer passes of the lifts (``_Layers``, ``_linear_lift``),
    whose products all have one degree <= order: the walk then never stops
    early.  A linear combination sum c * b with integer c is a pass over pairs
    (([(0, c)], 1), b), as in the tail of ``_subst_terms``: keys are degree
    first, so the walk of each sorted b stops at the first key it would drop.
    """
    pairs = [(a, da * db, b) for (a, da), (b, db) in pairs if a and b]
    if not pairs:
        return {}, 1
    den = pairs[0][1] if len(pairs) == 1 else lcm(*[d for _, d, _ in pairs])
    out: dict = {}
    get = out.get
    for a, d, b in pairs:
        s = den // d
        if len(a) > len(b):
            a, b = b, a
        if type(b) is dict:
            b = sorted(b.items())
        for ka, ca in (a.items() if type(a) is dict else a):
            room = limit - ka
            if s != 1:
                ca *= s
            for kb, cb in b:
                if kb >= room:
                    break
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}, den


def _sorted(form: tuple[dict, int]) -> tuple[list, int]:
    """``form`` with its numerators as a key-sorted item list, for reuse in ``_dot_terms``."""
    return sorted(form[0].items()), form[1]


def _derive_terms(num: dict, j: int, n: int, w: int) -> dict:
    """Numerators of d/dx_{j+1} (j is 0-based), in the same key layout."""
    shift = w * (n - 1 - j)
    mask = (1 << w) - 1
    step = (1 << shift) + (1 << (w * n))
    out = {}
    for k, c in num.items():
        p = (k >> shift) & mask
        if p:
            out[k - step] = c * p
    return out


_UNIT = ([(0, 1)], 1)
_EMPTY: tuple[list, int] = ([], 1)

# Variables evaluated from the table of image products rather than by Horner.
_TAIL = 2


def _chain(key: int, n: int, w: int, table: dict) -> tuple[object, list[tuple[int, int]]]:
    """The nearest product of ``key`` kept in ``table``, and the missing
    (key, j) steps from it up to ``key``, lowest first.

    A missing product is its parent times image j: the key's last variable
    j, read from its lowest nonzero field, loses one power, so the parent's
    key is ``key - (1 << shift_j) - unit``.  The chain is walked, not
    recursed into, since in one variable it is as long as the order.
    """
    mask = (1 << w) - 1
    steps = []
    while key not in table:
        j, shift = n - 1, 0
        while not key >> shift & mask:
            j -= 1
            shift += w
        steps.append((key, j))
        key -= (1 << shift) + (1 << (w * n))
    return table[key], steps[::-1]


def _product(key: int, images: Sequence[tuple[list, int]], w: int, limit: int,
             table: dict) -> tuple[list, int]:
    """The product of images[j] ** e_j over the exponent fields of the packed
    ``key`` (width ``w``), built on demand and kept in ``table``, which
    starts as {0: _UNIT}, each missing product from its parent (``_chain``)
    and sorted once as it is built (``_sorted``)."""
    p = table.get(key)
    if p is None:
        p, steps = _chain(key, len(images), w, table)
        for k, j in steps:
            p = table[k] = _sorted(_reduce(*_dot_terms([(p, images[j])], limit)))
    return p


def _split(terms: dict, i: int, n: int, w: int) -> dict[int, dict]:
    """``terms`` as {p: S_p} with f = sum_p x_{i+1}**p * S_p (i is 0-based).

    A key's exponent p of variable i is read with a shift and a mask, and
    its key in S_p has p taken out of that field and the degree field.
    """
    shift = w * (n - 1 - i)
    mask = (1 << w) - 1
    step = (1 << shift) + (1 << (w * n))
    groups: dict[int, dict] = {}
    for k, c in terms.items():
        p = k >> shift & mask
        groups.setdefault(p, {})[k - p * step] = c
    return groups


def _subst_terms(terms: dict, images: Sequence[tuple[list, int]], i: int, w: int, limit: int,
                 table: dict, full: int) -> tuple[dict, int]:
    """Evaluate a polynomial at ``images`` in integer form, keys below ``limit``.

    ``terms`` maps packed keys in the result's layout (field width ``w``)
    to integer numerators (the caller divides by their denominator); the
    fields of the variables before ``i`` are zero.  Each image is a
    (numerators, denominator) pair in the same layout, with no constant term
    and its numerators sorted once (``_sorted``), since every fold and table
    product reuses it.

    While more than ``_TAIL`` variables remain, variable ``i`` is folded by
    Horner: with f = sum_p head**p * S_p(rest), folding from the highest
    power down multiplies ``head`` in once per power instead of once per
    term (``_split``).  The fold is truncated (Brent & Kung, J. ACM 25(4),
    1978): since head**p has adic order >= p, both S_p and the accumulator
    that the fold at power p multiplies by head matter only below
    ``limit - p * unit``, so each fold and each S_p is computed to that
    reduced limit, and powers whose reduced limit is empty are skipped.

    The last ``_TAIL`` variables are evaluated as a linear combination of
    the products of their images, each product built once and kept in
    ``table`` under its packed tail monomial, which calls with the same
    images and ``full`` limit may share.  A table product is therefore
    always built to ``full``, the limit of the outermost call, whatever the
    reduced limit of the call that first asks for it.  The combination is
    one ``_dot_terms`` pass over (constant, product) pairs: it skips terms
    whose own keys reach its limit, and walks each sorted product only up
    to that limit, so the keys it would drop are never visited.
    """
    if not terms:
        return {}, 1
    n = len(images)
    if n - i <= _TAIL:
        return _dot_terms([(([(0, c)], 1), _product(k, images, w, full, table))
                           for k, c in terms.items() if k < limit], limit)
    unit = 1 << (w * n)
    groups = _split(terms, i, n, w)
    head = images[i]
    acc: tuple[dict, int] = ({}, 1)
    for power in range(min(max(groups), limit // unit - 1), -1, -1):
        lim = limit - power * unit
        acc = _dot_terms([(acc, head)], lim)
        sub = groups.get(power)
        if sub is not None:
            acc = _add_terms(acc, _subst_terms(sub, images, i + 1, w, lim, table, full))
    return acc


# -- relaxed evaluation ---------------------------------------------------------------


class _Layers:
    """A power series held as its homogeneous parts, lowest degree first,
    as ``FormalMap.invert``, their only user, lifts them (``_lift``).

    ``layers[d]`` is the degree-d part as a reduced (numerator items in no
    particular order, positive denominator) pair.  The layers a series
    starts with are given, and ``grow`` appends the rest: layer d is
    sum prev_a * head_{d-a} over its ``links`` (prev, head) and the nonempty
    layers a < d of prev, plus sum c * t_d over its ``terms`` (c, t), pairs
    of a constant form and a series.  Since a < d, a series may link to
    itself.  Every product lands on degree d, so a layer is one
    ``_dot_terms`` pass under the cap of the lifted order, which no
    product reaches, reduced once.

    ``shift`` says how far the series may lag the round: in round k it is
    needed through layer k - shift (``_lift``).
    """

    __slots__ = ("layers", "links", "terms", "shift")

    def __init__(self, layers: list, links: Sequence = (), terms: Sequence = ()) -> None:
        self.layers, self.links, self.terms = layers, list(links), list(terms)
        self.shift = math.inf

    def grow(self, d: int, limit: int) -> None:
        """Append the layers through degree d, below the key ``limit`` of the
        lifted order.  The layers they read must be there already; a missing
        one raises IndexError."""
        layers = self.layers
        while len(layers) <= d:
            e = len(layers)
            pairs = [(c, t.layers[e]) for c, t in self.terms]
            for prev, head in self.links:
                low, high = prev.layers, head.layers
                pairs += [(low[a], high[e - a]) for a in range(e) if low[a][0]]
            num, den = _reduce(*_dot_terms(pairs, limit))
            layers.append((list(num.items()), den) if num else _EMPTY)


def _lift(nodes: Sequence[_Layers], results: Sequence[_Layers], order: int, limit: int) -> None:
    """Grow ``results`` through layer ``order``, whose key limit is
    ``limit``, one layer a round, with the series in ``nodes`` that they
    read: the relaxed lift of ``FormalMap.invert``, its only caller.

    ``nodes`` lists each series after every series it reads; the results
    come last and may read themselves and each other through links.  A
    layer reads its terms at its own degree and its prevs below it, so one
    pass from the end sets each series' shift: a term may lag as far as its
    reader and a prev one degree further.  Round k then grows each series
    through layer k - shift.  Heads are given in full or are results, and a
    result's layer k must not be read in round k.  Afterwards every link and
    term is dropped: results that read themselves or each other, and
    products whose heads are results, would otherwise be cycles that only
    the cyclic garbage collector frees.
    """
    for s in results:
        s.shift = 0
    nodes = [*nodes, *results]
    for node in reversed(nodes):
        for prev, _ in node.links:
            prev.shift = min(prev.shift, node.shift + 1)
        for _, t in node.terms:
            t.shift = min(t.shift, node.shift)
    for k in range(1, order + 1):
        for node in nodes:
            if len(node.layers) <= k - node.shift:
                node.grow(k - node.shift, limit)
    for node in nodes:
        node.links = node.terms = ()


def _layered_product(key: int, heads: Sequence[_Layers], w: int, table: dict,
                     nodes: list) -> _Layers:
    """The series prod heads[j] ** e_j over the exponent fields of ``key``.

    As in ``_product``, each missing product is its parent times one head
    (``_chain``), and products are kept in ``table``, which holds at least
    those of degree 0 and 1.  A product of degree e starts with its e empty
    layers.  Each new series joins ``nodes`` after its parent.
    """
    n = len(heads)
    node, steps = _chain(key, n, w, table)
    for k, j in steps:
        node = table[k] = _Layers([_EMPTY] * (k >> (w * n)), [(node, heads[j])])
        nodes.append(node)
    return node


def _relaxed_terms(terms: dict, heads: Sequence[_Layers], i: int, w: int, table: dict,
                   nodes: list) -> list[tuple[int, _Layers]]:
    """A polynomial at the series ``heads``, as (numerator, series) pairs that sum to it.

    The plan is ``_subst_terms``'s: ``terms`` has the same layout, Horner
    folds variable ``i`` while more than ``_TAIL`` variables remain, and the
    last ``_TAIL`` are table products (``_layered_product``).  A fold at
    power p links to the fold at p + 1 with the head of variable i, and its
    terms are those of S_p.  New series join ``nodes`` after what they read.
    """
    if not terms:
        return []
    n = len(heads)
    if n - i <= _TAIL:
        return [(c, _layered_product(k, heads, w, table, nodes)) for k, c in terms.items()]
    groups = _split(terms, i, n, w)
    links: list = []
    for power in range(max(groups), -1, -1):
        sub = _relaxed_terms(groups.get(power, {}), heads, i + 1, w, table, nodes)
        acc = _Layers([], links, [(([(0, c)], 1), t) for c, t in sub])
        links = [(acc, heads[i])]
        nodes.append(acc)
    return [(1, acc)]


def _jet(n: int, order: int, num: dict, den: int, w: int) -> "Jet":
    # The builder of every Jet: callers guarantee a reduced integer form
    # whose keys are packed with width w and have degree <= order.
    if w != _width(order):
        num = _repack(num, n, w, _width(order), order)
        w = _width(order)
    obj = _new(Jet)
    _set_n(obj, n)
    _set_order(obj, order)
    _set_w(obj, w)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _matrix(rows: tuple) -> "JetMatrix":
    # The builder of every JetMatrix: callers guarantee what its constructor checks.
    obj = _new(JetMatrix)
    _set_rows(obj, rows)
    return obj


def _tuple(cls: type, n: int, order: int, jets: tuple) -> "JetTuple":
    # The builder of every map and field: callers guarantee what ``cls``'s constructor checks.
    obj = _new(cls)
    _set_tuple_n(obj, n)
    _set_tuple_order(obj, order)
    cls._set_jets(obj, jets)
    return obj


def _check_ring(n: int, order: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"variable count must be a positive int, got {_shown(n)}")
    if type(order) is not int or order < 0:
        raise ValueError(f"truncation order must be a non-negative int, got {_shown(order)}")


def _check_int(what: str, value, error: type) -> None:
    """An index, order or exponent is an exact int, not a bool; else ``error``."""
    if type(value) is not int:
        raise error(f"{what} must be an int, got {_shown(value)}")


def _check_index(i: int, n: int) -> None:
    """A 1-based variable index is an exact int in 1..n."""
    _check_int("variable index", i, IndexError)
    if not 1 <= i <= n:
        raise IndexError(f"variable index {_shown(i)} out of range 1..{n}")


# Cost ceilings, checked by ``_cost_guard`` for each suite cell before any
# of its trials runs and for each calculator request before its text is
# parsed.  A jet of order k in n variables has C(n + k, n) monomials; a
# product of two dense ones took 4.6 ms at the stretch point
# (n = 4, order 8: 495 monomials) and 11 ms at (4, 10), the largest ring
# admitted, on a 2-vCPU Xeon under Python 3.11, and a trial runs hundreds
# of products.  Jacobian determinants are costlier: ``JetMatrix.det`` makes
# n * 2**(n - 1) - n products and keeps 2**n minors, so its cost doubles
# with each variable.  On the same machine one C2 trial took 0.3-0.5 s at
# (8, 4), the costliest ring admitted at n = 8, 1.0-1.2 s at (9, 4) and
# 3.0-4.3 s at (10, 4).
MAX_RING_SIZE = 1001
MAX_DET_VARS = 8


def _shown(value) -> str:
    """``repr(value)``, or a stand-in where it holds an int past the
    interpreter's digit limit, so that the message of a refusal can always
    be built."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _cost_guard(what: str, n: int, order: int, det: bool) -> None:
    """``ConfigError`` if jets at (n, order) are too costly, or if ``det``
    and Jacobian determinants in n variables are.

    A pair that is no ring raises ``_check_ring``'s ``ValueError`` first.
    """
    _check_ring(n, order)
    # C(n + order, n) > max(n, order) for positive n and order, so the
    # first test keeps the binomial small.
    if max(n, order) >= MAX_RING_SIZE or math.comb(n + order, n) > MAX_RING_SIZE:
        raise ConfigError(
            f"{what} at n={_shown(n)}, order={_shown(order)} is too costly: its jets have "
            f"more than {MAX_RING_SIZE} monomials"
        )
    if det and n > MAX_DET_VARS:
        raise ConfigError(
            f"{what} at n={n} is too costly: Jacobian determinants are "
            f"admitted up to n = {MAX_DET_VARS}"
        )


def _term_int(item: Mapping, field: str) -> int:
    """A term's ``num`` or ``den``: a decimal integer string, or a non-bool int.

    A float, bool or any other value is refused rather than truncated, so a
    payload cannot decode to a different jet from the one it records.
    """
    value = item[field]
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        return int(value)
    raise ValueError(f"jet term {field} must be a decimal integer string, got {value!r}")


def _form(jet: "Jet", k: int) -> tuple[dict, int]:
    """The integer form of ``jet`` as an operand of a product pass capped at order k.

    ``k`` must not exceed jet.order.  A jet already in the key layout of
    order k goes in as stored: the pass drops every product of degree above
    k, and a kept product has degree <= k < 2**w, so no exponent field
    carries.  A jet in another layout is clipped and repacked.
    """
    if jet._w == _width(k):
        return jet._num, jet._den
    return jet._clipped(k)


def _dot(n: int, k: int, pairs) -> "Jet":
    """sum x * y over pairs of jets in n variables, as a jet of order k.

    ``k`` must not exceed the order of any operand.  The products are
    accumulated together, with no intermediate jets or sums.
    """
    w = _width(k)
    num, den = _dot_terms([(_form(x, k), _form(y, k)) for x, y in pairs], _limit(k, n, w))
    return _jet(n, k, *_reduce(num, den), w)


def _apply_partials(coeffs: Sequence["Jet"], f: "Jet", k: int) -> "Jet":
    """sum_i coeffs[i] * df/dx_{i+1} as a jet of order k, in one product pass.

    ``k`` must not exceed the coefficients' orders.  The partials are exact
    only to f.order - 1; a larger ``k`` is for callers whose error analysis
    covers the missing degree, as ``maps._flow_images`` does.  Each partial
    is built straight from f's numerators and kept over f's denominator,
    with no jet and no reduction in between.  Operands go in as ``_form``
    gives them, except that a partial in another key layout is repacked,
    dropping its degrees above k.  A zero or constant f has zero partials,
    so it gives the zero jet of order k straight away, with no pass.
    """
    n, w, terms = f.n, _width(k), f._num
    if not terms or (len(terms) == 1 and 0 in terms):
        return _jet(n, k, {}, 1, w)
    pairs = []
    for j, a in enumerate(coeffs):
        if a._num:
            part = _derive_terms(terms, j, n, f._w)
            if f._w != w:
                part = _repack(part, n, f._w, w, k)
            pairs.append((_form(a, k), (part, f._den)))
    num, den = _dot_terms(pairs, _limit(k, n, w))
    return _jet(n, k, *_reduce(num, den), w)


def _linear_lift(c: Sequence[Sequence[tuple[list, int]]], v: Sequence[Sequence[list]],
                 order: int, limit: int) -> list[list[list]]:
    """The layers 0..order of each entry of X = C + V X, lifted from C one
    layer a round: the linear lift of ``maps.matrix_inverse`` and, as a
    1 x 1 lift, of ``Jet.invert_unit``.

    ``c[i][j]`` is the constant C[i][j] as a layer, and ``v[i][l]`` lists
    the nonempty layers (b, layer) of V[i][l] (``_scaled_layers``), all of
    degree b >= 1.  So layer k of X[i][j] is the sum of V[i][l]_b
    X[l][j]_{k-b} over l and b: it reads only layers of X below k.  Each
    entry's layer is one ``_dot_terms`` pass over plain lists of layers,
    under the key ``limit`` of ``order``, which no product reaches, so each
    pair of terms of V and X is multiplied once.  No layer is read in
    its own round, so the loop needs none of the scheduling of ``_lift``.
    """
    x = [[[layer] for layer in row] for row in c]
    for k in range(1, order + 1):
        for xi, vi in zip(x, v):
            for j, s in enumerate(xi):
                num, den = _reduce(*_dot_terms([(xa, p) for l, vl in enumerate(vi) for b, p in vl
                                                if b <= k and (xa := x[l][j][k - b])[0]], limit))
                s.append((list(num.items()), den) if num else _EMPTY)
    return x


def _scaled_layers(jet: "Jet", s: int, den: int) -> list[tuple[int, tuple[list, int]]]:
    """The jet's numerators times ``s``, split by degree, as its nonempty
    parts (b, (numerator items in no particular order, ``den``)) of degree
    b >= 1, lowest first: the V entries of ``_linear_lift``."""
    shift = jet._w * jet.n
    parts: list[list] = [[] for _ in range(jet.order + 1)]
    for k, c in jet._num.items():
        parts[k >> shift].append((k, s * c))
    return [(b, (part, den)) for b, part in enumerate(parts) if b and part]


def _join_layers(n: int, order: int, layers: Sequence[tuple[list, int]]) -> "Jet":
    """The jet of order ``order`` whose homogeneous parts are ``layers``.

    Each layer is a reduced (numerator items, denominator) pair in the key
    layout of ``order``, and no two share a degree, so the parts are joined
    over the lcm of their denominators with no sums.  The result is reduced
    too: every prime power of that lcm divides the denominator of some
    nonempty layer, whose numerators are not all divisible by the prime.
    """
    den = lcm(*[d for _, d in layers])
    num = {k: c * (den // d) for part, d in layers for k, c in part}
    return _jet(n, order, num, den, _width(order))


# -- frozen values ---------------------------------------------------------------
#
# Jets, their matrices and tuples are slotted classes built one way: their
# builders (``_jet``, ``_matrix``, ``_tuple``) alone fill slots, through
# setters bound once at import, so a kernel loop makes no ``__setattr__``
# lookups.  A public constructor checks its arguments and returns its
# builder's value; the kernel builds what it has checked with the builder
# alone.  The records
# (``_Record``: the suite's results and configuration, and
# ``DivergenceClass``) are built once a trial at most, and fill their slots
# in order through ``object.__setattr__``.  Setting or deleting an attribute
# afterwards raises ``AttributeError``; ``object.__setattr__`` still reaches
# a slot, for code that patches one on purpose.  Each class pickles and
# copies through its constructor.


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class _Record(_Frozen):
    """A frozen record, compared, hashed, shown and pickled by its slots in order."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


def _setters(cls: type) -> tuple:
    """The bound setters of the slots ``cls`` declares, in ``__slots__`` order."""
    return tuple([getattr(cls, slot).__set__ for slot in cls.__slots__])


# -- jets ---------------------------------------------------------------------


class Jet(_Frozen):
    """A power series in n variables, exact through total degree ``order``."""

    __slots__ = ("n", "order", "_w", "_num", "_den")

    def __new__(cls, n: int, order: int, terms: Mapping[Monomial, "Q"]) -> "Jet":
        _check_ring(n, order)
        canon: dict[Monomial, Q] = {}
        for exps, coeff in terms.items():
            e = tuple(exps)
            if len(e) != n or any(type(p) is not int or p < 0 for p in e):
                raise ValueError(f"bad exponent tuple {exps!r} for {n} variables")
            if sum(e) > order:
                raise ValueError(
                    f"term of degree {sum(e)} exceeds truncation order {order}"
                )
            c = as_rational(coeff)
            if c:
                canon[e] = c
        w = _width(order)
        den = lcm(*[c.denominator for c in canon.values()])
        num = {
            _pack(e, w): c.numerator * (den // c.denominator)
            for e, c in canon.items()
        }
        return _jet(n, order, num, den, w)

    def __reduce__(self):
        return _jet, (self.n, self.order, self._num, self._den, self._w)

    # construction helpers

    @classmethod
    def zero(cls, n: int, order: int) -> "Jet":
        _check_ring(n, order)
        return _jet(n, order, {}, 1, _width(order))

    @classmethod
    def constant(cls, n: int, order: int, value: RationalLike) -> "Jet":
        c = as_rational(value)
        _check_ring(n, order)
        if not c:
            return _jet(n, order, {}, 1, _width(order))
        return _jet(n, order, {0: c.numerator}, c.denominator, _width(order))

    @classmethod
    def variable(cls, n: int, order: int, i: int) -> "Jet":
        """The coordinate x_i (1-based), as a jet of the given order."""
        _check_index(i, n)
        if order < 1:
            raise PrecisionExhausted("a coordinate jet needs order >= 1")
        _check_ring(n, order)
        w = _width(order)
        exps = tuple(1 if k == i - 1 else 0 for k in range(n))
        return _jet(n, order, {_pack(exps, w): 1}, 1, w)

    @classmethod
    def monomial(cls, n: int, order: int, exps: Sequence[int], coeff: RationalLike = 1) -> "Jet":
        return cls(n, order, {tuple(exps): as_rational(coeff)})

    # inspection

    @property
    def terms(self) -> Mapping[Monomial, "Q"]:
        """The coefficients as {exponent tuple: nonzero rational}, built
        from the integer form on each access."""
        n, w, den = self.n, self._w, self._den
        return {_unpack(k, n, w): Q(c, den) for k, c in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def constant_term(self) -> "Q":
        c = self._num.get(0)
        return Q(c, self._den) if c else _ZERO

    def coefficient(self, exps: Sequence[int]) -> "Q":
        """The coefficient of x^exps, read from its one numerator."""
        e = tuple(exps)
        if len(e) != self.n or not all(p in range(self.order + 1) for p in e):
            return _ZERO
        c = self._num.get(_pack([int(p) for p in e], self._w))
        return Q(c, self._den) if c else _ZERO

    def m_adic_order(self) -> int | float:
        """Total degree of the lowest nonzero term; infinity for the zero jet."""
        if not self._num:
            return math.inf
        return min(self._num) >> (self._w * self.n)

    def _walk(self) -> list[tuple[int, int, int]]:
        """(packed key, p, q) per term in canonical order, with p/q reduced.

        The canonical order is ascending total degree and, within a degree,
        higher powers of earlier variables first (x1^2 before x1*x2 before
        x2^2).  It is read off the packed keys: flipping their exponent
        fields keeps the degree field on top and puts higher powers of
        earlier variables first, so the flipped keys sort ascending in it.
        """
        num, den, n, w = self._num, self._den, self.n, self._w
        keys = sorted(num, key=((1 << (w * n)) - 1).__xor__)
        if den == 1:
            return [(k, num[k], 1) for k in keys]
        return [(k, (c := num[k]) // (g := gcd(c, den)), den // g) for k in keys]

    def _clipped(self, k: int) -> tuple[dict, int]:
        """Reduced integer form of this jet truncated to order k <= self.order,
        with keys in the layout of order k."""
        num = self._num
        if k == self.order:
            return num, self._den
        w = _width(k)
        if w == self._w:
            lim = _limit(k, self.n, w)
            out = {e: c for e, c in num.items() if e < lim}
            if len(out) == len(num):
                return num, self._den
        else:
            out = _repack(num, self.n, self._w, w, k)
        return _reduce(out, self._den)

    # comparison

    def _check_same_n(self, other: "Jet") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"jets live in different rings ({self.n} vs {other.n} variables)"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_same_n(other)
        if self.order != other.order:
            raise OrderMismatch(
                f"cannot compare jets of orders {self.order} and {other.order}; "
                "use equal_at(other, k)"
            )
        return self._den == other._den and self._num == other._num

    __hash__ = None  # type: ignore[assignment]

    def equal_at(self, other: "Jet", k: int) -> bool:
        """Whether both jets agree on all terms of total degree <= k."""
        self._check_same_n(other)
        _check_int("order", k, OrderMismatch)
        if k < 0 or k > min(self.order, other.order):
            raise OrderMismatch(
                f"order {_shown(k)} not within the shared precision "
                f"(0..{min(self.order, other.order)})"
            )
        return self._clipped(k) == other._clipped(k)

    # arithmetic

    def truncate(self, k: int) -> "Jet":
        _check_int("order", k, OrderMismatch)
        if k > self.order:
            raise OrderMismatch(f"cannot raise order {self.order} to {_shown(k)}")
        if k < 0:
            raise OrderMismatch(f"cannot truncate to negative order {_shown(k)}")
        if k == self.order:
            return self
        return _jet(self.n, k, *self._clipped(k), _width(k))

    def _coerce(self, value) -> "Jet | None":
        if isinstance(value, Jet):
            self._check_same_n(value)
            return value
        try:
            c = as_rational(value)
        except TypeError:
            return None
        return Jet.constant(self.n, self.order, c)

    def __add__(self, other) -> "Jet":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = min(self.order, o.order)
        num, den = _add_terms(self._clipped(k), o._clipped(k))
        return _jet(self.n, k, *_reduce(num, den), _width(k))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return _jet(
            self.n, self.order, {e: -c for e, c in self._num.items()}, self._den, self._w
        )

    def __sub__(self, other) -> "Jet":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other) -> "Jet":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            self._check_same_n(other)
            return _dot(self.n, min(self.order, other.order), [(self, other)])
        try:
            c = as_rational(other)
        except TypeError:
            return NotImplemented
        p = c.numerator
        num = {e: v * p for e, v in self._num.items()} if p else {}
        return _jet(
            self.n, self.order, *_reduce(num, self._den * c.denominator), self._w
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Jet":
        _check_int("exponent", k, ValueError)
        if k < 0:
            raise ValueError(f"jet powers take a non-negative int exponent, got {_shown(k)}")
        out = Jet.constant(self.n, self.order, 1)
        for _ in range(k):
            out = out * self
        return out

    def partial_derivative(self, i: int) -> "Jet":
        """d/dx_i (1-based); the result is exact only to order - 1."""
        _check_index(i, self.n)
        if self.order < 1:
            raise PrecisionExhausted("cannot differentiate a jet of order 0")
        num = _derive_terms(self._num, i - 1, self.n, self._w)
        return _jet(self.n, self.order - 1, *_reduce(num, self._den), self._w)

    def substitute(self, images: Sequence["Jet"], *, _table: dict | None = None) -> "Jet":
        """Evaluate this series at ``images``, one jet per variable.

        Every image must have zero constant term; substitution is only
        defined along the adic topology.  All images must live in the same
        ring as this jet.  ``_table`` is for ``FormalMap._pullback``, which
        substitutes many jets along one map's images: a dict shared by those
        calls, keeping per limit the images sorted (``_sorted``) and the
        products of the images that the evaluation reuses, keyed by packed
        monomials in that limit's layout.  This jet's keys go in as stored
        when they share that layout, and are repacked otherwise.
        """
        if len(images) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} substitution images, got {len(images)}"
            )
        cap = self.order
        for g in images:
            self._check_same_n(g)
            if 0 in g._num:
                raise NotContinuous(
                    "substitution image has nonzero constant term "
                    f"{g.constant_term}; images must vanish at the origin"
                )
            cap = min(cap, g.order)
        n, w = self.n, _width(cap)
        num = self._num if self._w == w else _repack(self._num, n, self._w, w, cap)
        limit = _limit(cap, n, w)
        shared = None if _table is None else _table.get(limit)
        if shared is None:
            shared = [_sorted(g._clipped(cap)) for g in images], {0: _UNIT}
            if _table is not None:
                _table[limit] = shared
        num, den = _subst_terms(num, shared[0], 0, w, limit, shared[1], limit)
        return _jet(n, cap, *_reduce(num, den * self._den), w)

    def invert_unit(self) -> "Jet":
        """Multiplicative inverse, defined when the constant term is nonzero.

        With this jet (c + r)/den, c its constant numerator, the inverse x
        solves x = den/c + u x for u = -r/c, which has no constant term, so
        x is lifted one layer a round from den/c, the 1 x 1 case of
        ``_linear_lift``, one product's worth of multiply-adds in all.
        """
        c = self._num.get(0)
        if not c:
            raise NotAUnit("jet has zero constant term and is not invertible")
        # den/c and u over |c|: layer denominators stay positive.
        sign = 1 if c > 0 else -1
        num, den = _reduce({0: sign * self._den}, abs(c))
        [[x]] = _linear_lift([[(list(num.items()), den)]], [[_scaled_layers(self, -sign, abs(c))]],
                             self.order, _limit(self.order, self.n, self._w))
        return _join_layers(self.n, self.order, x)

    # serialization

    def to_dict(self) -> dict:
        n, w = self.n, self._w
        return {
            "n": n,
            "order": self.order,
            "terms": [
                {"exp": list(_unpack(k, n, w)), "num": str(p), "den": str(q)}
                for k, p, q in self._walk()
            ],
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "Jet":
        try:
            n = obj["n"]
            order = obj["order"]
            raw = obj["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"jet object needs n/order/terms fields: {exc}") from exc
        terms: dict[Monomial, Q] = {}
        for item in raw:
            e = tuple(item["exp"])
            num, den = _term_int(item, "num"), _term_int(item, "den")
            if den == 0:
                raise ValueError("zero denominator in jet term")
            terms[e] = terms.get(e, _ZERO) + Q(num) / Q(den)
        return cls(n, order, terms)

    # text form

    def __str__(self) -> str:
        if not self._num:
            return "0"
        names = _names(self.n, self._w)
        parts: list[str] = []
        for k, p, q in self._walk():
            neg = p < 0
            if neg:
                p = -p
            mag = str(p) if q == 1 else f"{p}/{q}"
            factors = names.get(k)
            if factors is None:
                factors = _monomial_text(k, self.n, self._w)
                if len(names) < _MAX_NAMES:
                    names[k] = factors
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = mag + "*" + factors
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<Jet n={self.n} order={self.order}: {self}>"


_new = object.__new__
_set_n, _set_order, _set_w, _set_num, _set_den = _setters(Jet)

# The tables of the 16 rings last printed keep the first _MAX_NAMES
# monomials printed in each, every monomial of a ring within MAX_RING_SIZE.
_MAX_NAMES = 1024


@lru_cache(maxsize=16)
def _names(n: int, w: int) -> dict[int, str]:
    """The monomial texts of the ring (n, key width w), by packed key."""
    return {}


def _monomial_text(key: int, n: int, w: int) -> str:
    """The text of the packed monomial ``key``, as ``x1^2*x3``; "" for 1."""
    mask = (1 << w) - 1
    exps = [(i, key >> (w * (n - 1 - i)) & mask) for i in range(n)]
    return "*".join([f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in exps if e])


# -- matrices of jets ----------------------------------------------------------


class JetMatrix(_Frozen):
    """A square matrix of jets sharing one ring and one truncation order."""

    __slots__ = ("rows",)

    def __new__(cls, rows: tuple[tuple[Jet, ...], ...]) -> "JetMatrix":
        rows = tuple(tuple(row) for row in rows)
        m = len(rows)
        if m == 0 or any(len(row) != m for row in rows):
            raise ValueError("jet matrices must be square and non-empty")
        first = rows[0][0]
        for row in rows:
            for entry in row:
                if not isinstance(entry, Jet):
                    raise TypeError(f"matrix entries must be jets, got {entry!r}")
                if entry.n != m:
                    raise DimensionMismatch(
                        f"{m}x{m} matrix entries must live in {m} variables, "
                        f"got {entry.n}"
                    )
                if entry.order != first.order:
                    raise OrderMismatch("matrix entries must share one truncation order")
        return _matrix(rows)

    def __reduce__(self):
        return JetMatrix, (self.rows,)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def order(self) -> int:
        return self.rows[0][0].order

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        # Each entry is one product pass; a right-hand entry is sorted once
        # for all the rows it meets.
        self._check_compatible(other)
        n, cap = self.n, min(self.order, other.order)
        w = _width(cap)
        limit = _limit(cap, n, w)
        rows = [[_form(e, cap) for e in row] for row in self.rows]
        cols = [[_sorted(_form(e, cap)) for e in col] for col in zip(*other.rows)]
        return _matrix(tuple(
            tuple(_jet(n, cap, *_reduce(*_dot_terms(list(zip(row, col)), limit)), w)
                  for col in cols)
            for row in rows
        ))

    def _check_compatible(self, other: "JetMatrix") -> None:
        if not isinstance(other, JetMatrix):
            raise TypeError(f"expected a JetMatrix, got {other!r}")
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ ({self.n} vs {other.n})")

    def det(self) -> Jet:
        """Determinant by Laplace expansion with shared minors.

        The minor of the bottom k rows on a set of k columns is expanded
        along its top row into minors of the bottom k - 1 rows, which every
        set sharing them reuses: minors are built for each column subset,
        keyed by bitmask, from k = 1 upward.  Each minor is one pass of
        signed products on the integer form, reduced once, for
        n * 2**(n-1) - n products in all (28 at n = 4); a minor that several
        others use is sorted for them once.  No pivot is
        inverted, so unlike elimination it needs no unit entries and costs
        no ``invert_unit``.
        """
        n, order = self.n, self.order
        w = _width(order)
        limit = _limit(order, n, w)
        forms = [[(e._num, e._den) for e in row] for row in self.rows]
        negs = [[({k: -c for k, c in num.items()}, den) for num, den in row]
                for row in forms[:-1]]
        minors: dict[int, tuple] = {}
        for mask in range(1, 1 << n):
            cols = [j for j in range(n) if mask >> j & 1]
            i = n - len(cols)
            if i == n - 1:
                minor = forms[i][cols[0]]
            else:
                pairs = [((negs if t % 2 else forms)[i][j], minors[mask ^ (1 << j)])
                         for t, j in enumerate(cols)]
                minor = _reduce(*_dot_terms(pairs, limit))
            # A minor of the bottom n - i rows is used by i larger ones.
            minors[mask] = _sorted(minor) if i > 1 else minor
        return _jet(n, order, *minors[(1 << n) - 1], w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JetMatrix):
            return NotImplemented
        self._check_compatible(other)
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def equal_at(self, other: "JetMatrix", k: int) -> bool:
        self._check_compatible(other)
        return all(
            a.equal_at(b, k)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"<JetMatrix {self.n}x{self.n} order={self.order}: {self}>"


(_set_rows,) = _setters(JetMatrix)


# -- tuples of jets -----------------------------------------------------------


class JetTuple(_Frozen):
    """n jets in n variables at one truncation order: the base of formal
    maps, whose jets are their images, and of fields, their coefficients.

    A subclass declares its tuple of jets as its one slot, whose name
    ``__init_subclass__`` binds as ``_items`` and whose setter as
    ``_set_jets``, for ``_tuple``.  Its constructor checks its own order
    floor, calls ``_checked``, which checks the ring (as ``Jet`` does)
    before any jet, and returns ``_tuple``'s value.  ``_label`` names jet k
    (1-based) in messages, ``_kind`` names the values in plural, and
    ``_continuous`` says that each jet must vanish at the origin.
    """

    __slots__ = ("n", "order")

    _label, _kind, _continuous = "", "", False

    def __init_subclass__(cls) -> None:
        (cls._items,) = cls.__slots__
        (cls._set_jets,) = _setters(cls)

    @classmethod
    def _checked(cls, n: int, order: int, jets) -> tuple[Jet, ...]:
        _check_ring(n, order)
        jets = tuple(jets)
        if len(jets) != n:
            raise DimensionMismatch(f"expected {n} {cls._items}, got {len(jets)}")
        for k, jet in enumerate(jets, start=1):
            if not isinstance(jet, Jet):
                raise TypeError(f"{cls._label.format(k)} must be a Jet, got {jet!r}")
            if jet.n != n:
                raise DimensionMismatch(
                    f"{cls._label.format(k)} lives in {jet.n} variables, expected {n}"
                )
            if jet.order != order:
                raise OrderMismatch(
                    f"{cls._label.format(k)} has order {jet.order}, expected {order}"
                )
            if cls._continuous and jet.constant_term:
                raise NotContinuous(
                    f"{cls._label.format(k)} has nonzero constant term {jet.constant_term}"
                )
        return jets

    def __reduce__(self):
        return type(self), (self.n, self.order, self._jets)

    @property
    def _jets(self) -> tuple[Jet, ...]:
        return getattr(self, self._items)

    def _check_same_n(self, other: "JetTuple") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"{self._kind} on {self.n} and {other.n} variables are incomparable"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same_n(other)
        if self.order != other.order:
            raise OrderMismatch(
                f"cannot compare {self._kind} of orders {self.order} and {other.order}"
            )
        return self._jets == other._jets

    def equal_at(self, other: "JetTuple", k: int) -> bool:
        self._check_same_n(other)
        return all(a.equal_at(b, k) for a, b in zip(self._jets, other._jets))

    def truncate(self, k: int):
        _check_int("order", k, OrderMismatch)
        if k == self.order:
            return self
        return type(self)(self.n, k, tuple(jet.truncate(k) for jet in self._jets))

    def to_dict(self) -> dict:
        return {"n": self.n, "order": self.order, self._items: [j.to_dict() for j in self._jets]}

    @classmethod
    def from_dict(cls, obj):
        return cls(obj["n"], obj["order"], tuple(Jet.from_dict(j) for j in obj[cls._items]))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} order={self.order}: {self}>"


_set_tuple_n, _set_tuple_order = _setters(JetTuple)
