"""Exact sparse polynomial arithmetic over the two variable universes.

Variables are either matrix-entry coordinates x[i,j,l] (XVar) or lattice
elements (PluckerVar); monomials are sorted exponent tuples and polynomials
map monomials to exact coefficients (int, promoted to Fraction only when a
computation forces it; the fractions module is imported the first time a
coefficient that is not an int is normalized or printed, so integer work
never loads it).  Degree-reverse-lexicographic term orders, weight
initial forms, the packer of the matrix variables, the one Leibniz walk of
a square block (over a cached table of signed permutations) with det on
it, and the canonical text and JSON emitters all live here.  No command
reads a polynomial, so the readers of both forms are test code
(tests/parsers.py).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from typing import Callable, Iterable, NamedTuple, Optional, Union

from . import lattice
from .errors import InternalInconsistencyError, InvalidInputError
from .lattice import Context, PluckerVar

# Fraction as a forward reference: fractions is imported only where a
# coefficient is not an int
Coeff = Union[int, "Fraction"]


class XVar(NamedTuple):
    """Matrix-entry coordinate: row i, column j, level l."""

    row: int
    col: int
    level: int


def norm_coeff(c: Coeff) -> Coeff:
    if type(c) is int:
        return c
    from fractions import Fraction

    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


# -- monomials ----------------------------------------------------------------
#
# A monomial is a tuple of (variable, exponent) pairs with positive exponents,
# sorted by the variable's natural tuple order (which is canonical storage
# order, independent of any term order).

Mono = tuple

MONO_ONE: Mono = ()


def mono_from_pairs(pairs: Iterable[tuple]) -> Mono:
    acc: dict = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def pair_mono(u, v) -> Mono:
    """The degree-2 monomial u*v, as mono_from_pairs([(u, 1), (v, 1)]) gives it."""
    if u == v:
        return ((u, 2),)
    return ((u, 1), (v, 1)) if u < v else ((v, 1), (u, 1))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    return mono_from_pairs(itertools.chain(a, b))


def mono_deg(a: Mono) -> int:
    return sum(e for _, e in a)


class Polynomial:
    """Sparse polynomial: monomial -> nonzero exact coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = norm_coeff(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Coeff) -> "Polynomial":
        return cls({MONO_ONE: c})

    @classmethod
    def term(cls, mono: Mono, c: Coeff = 1) -> "Polynomial":
        return cls({mono: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial(out)

    def __rmul__(self, other) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: Coeff) -> "Polynomial":
        return Polynomial({m: c * v for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InvalidInputError("negative exponent")
        acc = Polynomial.constant(1)
        for _ in range(e):
            acc = acc * self
        return acc

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms)"


# -- term orders --------------------------------------------------------------


class TermOrder:
    """Degree reverse lexicographic order induced by an ascending variable key.

    Ties in total degree are broken at the smallest variable whose exponents
    differ: the monomial with the strictly smaller exponent there is the
    larger one.  var_key is memoized, one entry per variable.
    """

    def __init__(self, var_key: Callable):
        self.var_key = functools.lru_cache(maxsize=None)(var_key)

    def compare(self, a: Mono, b: Mono) -> int:
        """-1, 0 or 1 as a < b, a == b, a > b: the order's reference definition."""
        if a == b:
            return 0
        da, db = mono_deg(a), mono_deg(b)
        if da != db:
            return -1 if da < db else 1
        ea, eb = dict(a), dict(b)
        for v in sorted(set(ea) | set(eb), key=self.var_key):
            xa, xb = ea.get(v, 0), eb.get(v, 0)
            if xa != xb:
                return 1 if xa < xb else -1
        return 0

    def key(self, m: Mono):
        """Sort key agreeing with compare: key(a) < key(b) iff a < b.

        Degree first, then the word of m: the ascending tuple of its
        variable keys, each repeated by its exponent.  For monomials of
        equal degree, degrevlex is lexicographic order on words: where
        words a and b first differ, a[i] < b[i] means that a has the larger
        exponent at the smallest variable where they differ, so a is the
        smaller monomial.
        """
        w: list = []
        for v, e in m:
            w += [self.var_key(v)] * e
        w.sort()
        return len(w), tuple(w)

    def leading_term(self, poly: Polynomial) -> Optional[tuple[Coeff, Mono]]:
        """(coefficient, monomial) of the largest term; None for zero."""
        if not poly.terms:
            return None
        best = max(poly.terms, key=self.key)
        return poly.terms[best], best

    def sorted_terms(self, poly: Polynomial) -> list[tuple[Mono, Coeff]]:
        """Terms in strictly descending order."""
        return [(m, poly.terms[m]) for m in sorted(poly.terms, key=self.key, reverse=True)]


class Packer:
    """Monomials over a fixed variable universe as single ints.

    The N variables are indexed by ascending key of the term order, and the
    exponent of variable k sits in bits [s*(N-1-k), s*(N-k)), so the
    smallest variable is the top digit.  The digit width s is the least
    with 2**s > max_exp, so the product of two packed monomials whose
    exponents sum to at most max_exp is their integer sum, with no carry
    (Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
    and packed exponent vectors", CASC 2007).  For monomials of equal
    degree the integer order is the reverse of the term order: where two
    packed monomials first differ, the larger integer has the larger
    exponent at the smallest variable, so it is the smaller monomial.
    """

    def __init__(self, order: TermOrder, variables: Iterable, max_exp: int):
        self.bits = max_exp.bit_length()
        ordered = sorted(set(variables), key=order.var_key)
        top = len(ordered) - 1
        self.offsets = {v: self.bits * (top - k) for k, v in enumerate(ordered)}
        self.variables = {off: v for v, off in self.offsets.items()}

    def covers(self, m: Mono) -> bool:
        """True when every variable of m is in the universe."""
        return all(v in self.offsets for v, _ in m)

    def pack(self, m: Mono) -> int:
        """m as an int; an exponent that does not fit its digit is an
        internal error, since a carry would corrupt the next variable."""
        out = 0
        for v, e in m:
            if e >> self.bits:
                raise InternalInconsistencyError(
                    f"exponent {e} of {v!r} does not fit in {self.bits} bits"
                )
            out += e << self.offsets[v]
        return out

    def unpack(self, n: int) -> Mono:
        """The inverse of pack, one step per variable of n: the top bit of n
        lies in the digit of its smallest variable."""
        pairs = []
        while n:
            off = (n.bit_length() - 1) // self.bits * self.bits
            pairs.append((self.variables[off], n >> off))
            n &= (1 << off) - 1
        return tuple(sorted(pairs))


X_ORDER = TermOrder(lambda v: (v.level, v.row, v.col))


@functools.lru_cache(maxsize=None)
def x_packer(ctx: Context) -> Packer:
    """The X_ORDER packer of a context's matrix variables x[i,j,l].

    Exponents go up to 2p: every image has degree p, so a product of two
    packed images is an integer sum with no carry.
    """
    variables = (
        XVar(i, j, l)
        for i in range(1, ctx.p + 1)
        for j in range(1, ctx.width + 1)
        for l in range(ctx.n + 1)
    )
    return Packer(X_ORDER, variables, 2 * ctx.p)


YOUNG_ORDER = TermOrder(lambda j: j.entries)


@functools.lru_cache(maxsize=None)
def c_order(ctx: Context) -> TermOrder:
    """Order on lattice variables from the canonical linear extension."""
    return TermOrder(lambda u: lattice.linear_key(u, ctx))


def order_for(kind: str, ctx: Optional[Context] = None) -> TermOrder:
    if kind == "X":
        return X_ORDER
    if kind == "J":
        return YOUNG_ORDER
    if kind == "C":
        if ctx is None:
            raise InvalidInputError("C-side term order needs a context")
        return c_order(ctx)
    raise InvalidInputError(f"unknown variable universe {kind!r}")


def initial_form(poly: Polynomial, weight: Callable) -> Polynomial:
    """Sum of the terms of maximal weight, the weight extended additively."""
    if poly.is_zero():
        return Polynomial.zero()
    weights = {m: sum(e * weight(v) for v, e in m) for m in poly.terms}
    w = max(weights.values())
    return Polynomial({m: c for m, c in poly.terms.items() if weights[m] == w})


# -- determinants -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(n), in itertools order, with its sign
    (lattice.sort_sign): the terms of an n x n Leibniz expansion."""
    return tuple((perm, lattice.sort_sign(perm)) for perm in itertools.permutations(range(n)))


def leibniz(block: list[list]):
    """(entries, sign) for each permutation of signed_permutations whose
    entries in a square block (row i's entry in column perm[i]) include no
    None, a zero entry: the terms of its Leibniz expansion, in order."""
    n = len(block)
    if any(len(row) != n for row in block):
        raise InvalidInputError("determinant of a non-square matrix")
    for perm, sign in signed_permutations(n):
        entries = list(map(operator.getitem, block, perm))
        if None not in entries:
            yield entries, sign


def det(block: list[list[Optional[XVar]]]) -> Polynomial:
    """Determinant of a square block of distinct variables, None for a zero
    entry: each term of its leibniz walk is its own squarefree monomial, so
    no two terms cancel and every coefficient is the permutation's sign."""
    return Polynomial({tuple(sorted((v, 1) for v in vs)): sign for vs, sign in leibniz(block)})


# -- serialization ------------------------------------------------------------

@functools.lru_cache(maxsize=None)  # the emitters ask once per factor of every term
def format_variable(v, kind: str, compact: bool = False) -> str:
    if kind == "X":
        return "x[%d,%d,%d]" % (v.row, v.col, v.level)
    if kind == "C":
        return lattice.format_var(v, compact=compact)
    if kind == "J":
        return "(%s)" % ",".join(str(x) for x in v.entries)
    raise InvalidInputError(f"unknown variable universe {kind!r}")


def _format_coeff(c: Coeff) -> str:
    if type(c) is int:
        return str(c)
    from fractions import Fraction

    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


def _canonical_terms(
    poly: Polynomial, kind: str, ctx: Optional[Context] = None, compact: bool = False
):
    """Each term as (coefficient, [[variable text, exponent], ...]): terms
    strictly descending in the ring's term order, factors ascending in its
    variable key."""
    order = order_for(kind, ctx)
    by_var = lambda ve: order.var_key(ve[0])
    for m, c in order.sorted_terms(poly):
        yield c, [[format_variable(v, kind, compact), e] for v, e in sorted(m, key=by_var)]


def emit_text(
    poly: Polynomial,
    kind: str,
    ctx: Optional[Context] = None,
    compact: bool = False,
) -> str:
    """Canonical text form: signed terms joined by " + " / " - ", factors by "*"."""
    if poly.is_zero():
        return "0"
    pieces = []
    for c, factors in _canonical_terms(poly, kind, ctx, compact):
        mag = -c if c < 0 else c
        body = [s if e == 1 else "%s**%d" % (s, e) for s, e in factors]
        if mag != 1 or not body:
            body.insert(0, _format_coeff(mag))
        pieces.append(("- " if c < 0 else "+ ") + "*".join(body))
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def json_doc(poly: Polynomial, kind: str, ctx: Optional[Context] = None) -> dict:
    """The schemas/polynomial.json object of poly, terms in canonical order."""
    terms = [{"c": _format_coeff(c), "m": m} for c, m in _canonical_terms(poly, kind, ctx)]
    return {"vars": kind, "terms": terms}


def emit_json(poly: Polynomial, kind: str, ctx: Optional[Context] = None) -> str:
    """JSON form per schemas/polynomial.json: json_doc, without spaces."""
    return json.dumps(json_doc(poly, kind, ctx), separators=(",", ":"))
