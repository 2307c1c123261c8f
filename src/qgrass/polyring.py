"""Exact sparse polynomial arithmetic over the two variable universes.

Variables are either matrix-entry coordinates x[i,j,l] (XVar) or lattice
elements (PluckerVar); monomials are sorted exponent tuples and polynomials
map monomials to exact coefficients (int, promoted to Fraction only when a
computation forces it).  Degree-reverse-lexicographic term orders, weight
initial forms, the packer of the matrix variables, the one Leibniz walk of
a square block (over a cached table of signed permutations) with det on
it, and the canonical text/JSON serializations all live here.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Union

from . import lattice
from .errors import InternalInconsistencyError, InvalidInputError
from .lattice import Context, PluckerVar

Coeff = Union[int, Fraction]


class XVar(NamedTuple):
    """Matrix-entry coordinate: row i, column j, level l."""

    row: int
    col: int
    level: int


def norm_coeff(c: Coeff) -> Coeff:
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
    def variable(cls, v) -> "Polynomial":
        return cls({((v, 1),): 1})

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
            s = norm_coeff(out.get(m, 0) + c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = Polynomial()
        res.terms = out
        return res

    def __neg__(self) -> "Polynomial":
        res = Polynomial()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

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
        res = Polynomial()
        res.terms = {m: norm_coeff(c) for m, c in out.items() if c}
        return res

    def __rmul__(self, other) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: Coeff) -> "Polynomial":
        c = norm_coeff(c)
        if not c:
            return Polynomial()
        res = Polynomial()
        res.terms = {m: norm_coeff(c * v) for m, v in self.terms.items()}
        return res

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InvalidInputError("negative exponent")
        acc = Polynomial.constant(1)
        for _ in range(e):
            acc = acc * self
        return acc

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms)"


def substitute(poly: Polynomial, image: Callable[[object], Polynomial]) -> Polynomial:
    """Apply the ring homomorphism sending each variable v to image(v)."""
    cache: dict = {}

    def img(v):
        if v not in cache:
            cache[v] = image(v)
        return cache[v]

    acc = Polynomial.zero()
    for m, c in poly.terms.items():
        prod = Polynomial.constant(c)
        for v, e in m:
            prod = prod * img(v) ** e
        acc = acc + prod
    return acc


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
        entries = [row[j] for row, j in zip(block, perm)]
        if None not in entries:
            yield entries, sign


def det(block: list[list[Optional[XVar]]]) -> Polynomial:
    """Determinant of a square block of distinct variables, None for a zero
    entry: each term of its leibniz walk is its own squarefree monomial, so
    no two terms cancel and every coefficient is the permutation's sign."""
    return Polynomial({tuple(sorted((v, 1) for v in vs)): sign for vs, sign in leibniz(block)})


# -- serialization ------------------------------------------------------------

_XVAR_RE = re.compile(r"^x\[([0-9]+),([0-9]+),([0-9]+)\]$")
_JVAR_RE = re.compile(r"^\(([0-9]+(?:,[0-9]+)*)\)$")


@functools.lru_cache(maxsize=None)  # the emitters ask once per factor of every term
def format_variable(v, kind: str, compact: bool = False) -> str:
    if kind == "X":
        return "x[%d,%d,%d]" % (v.row, v.col, v.level)
    if kind == "C":
        return lattice.format_var(v, compact=compact)
    if kind == "J":
        return "(%s)" % ",".join(str(x) for x in v.entries)
    raise InvalidInputError(f"unknown variable universe {kind!r}")


def parse_variable(text: str, kind: str, p: Optional[int] = None):
    text = text.strip()
    if kind == "X":
        m = _XVAR_RE.match(text)
        if not m:
            raise InvalidInputError(f"bad matrix variable {text!r}")
        return XVar(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if kind == "C":
        return lattice.parse_var(text, p=p)
    if kind == "J":
        m = _JVAR_RE.match(text)
        if not m:
            raise InvalidInputError(f"bad sequence variable {text!r}")
        return lattice.YoungSeq(tuple(int(x) for x in m.group(1).split(",")))
    raise InvalidInputError(f"unknown variable universe {kind!r}")


def _format_coeff(c: Coeff) -> str:
    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


def _parse_coeff(text: str) -> Coeff:
    """A coefficient "a" or "a/b" with b nonzero (schemas/polynomial.json)."""
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", text):
        raise InvalidInputError(f"bad coefficient {text!r}")
    return Fraction(text) if "/" in text else int(text)


def _exponent(e) -> int:
    """A monomial exponent: an integer >= 1 (schemas/polynomial.json)."""
    if type(e) is not int or e < 1:
        raise InvalidInputError(f"exponent must be an integer >= 1, got {e!r}")
    return e


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


_TERM_SPLIT_RE = re.compile(r"\s+([+-])\s+")

# A factor ends at a '*' with no '*' next to it; '**' starts an exponent.
_FACTOR_SPLIT_RE = re.compile(r"(?<!\*)\*(?!\*)")


def parse_text(text: str, kind: str, p: Optional[int] = None) -> Polynomial:
    """Parse the canonical text form back into a polynomial."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    chunks = _TERM_SPLIT_RE.split(text)
    sign = 1
    first = chunks[0]
    if first.startswith("-"):
        sign = -1
        first = first[1:].strip()
    elif first.startswith("+"):
        first = first[1:].strip()
    terms = [(sign, first)]
    for i in range(1, len(chunks), 2):
        terms.append((1 if chunks[i] == "+" else -1, chunks[i + 1]))
    acc: dict = {}
    for sgn, body in terms:
        coeff: Coeff = sgn
        pairs = []
        for factor in _FACTOR_SPLIT_RE.split(body):
            factor = factor.strip()
            if not factor:
                raise InvalidInputError(f"empty term or factor in {text!r}")
            if re.fullmatch(r"[0-9]+(/[0-9]+)?", factor):
                coeff = coeff * _parse_coeff(factor)
                continue
            if "**" in factor:
                varpart, _, exppart = factor.rpartition("**")
                e = _exponent(int(exppart) if re.fullmatch("[0-9]+", exppart) else exppart)
            else:
                varpart, e = factor, 1
            pairs.append((parse_variable(varpart, kind, p=p), e))
        m = mono_from_pairs(pairs)
        acc[m] = acc.get(m, 0) + coeff
    return Polynomial(acc)


def json_doc(poly: Polynomial, kind: str, ctx: Optional[Context] = None) -> dict:
    """The schemas/polynomial.json object of poly, terms in canonical order."""
    terms = [{"c": _format_coeff(c), "m": m} for c, m in _canonical_terms(poly, kind, ctx)]
    return {"vars": kind, "terms": terms}


def emit_json(poly: Polynomial, kind: str, ctx: Optional[Context] = None) -> str:
    """JSON form per schemas/polynomial.json: json_doc, without spaces."""
    return json.dumps(json_doc(poly, kind, ctx), separators=(",", ":"))


def _fields(obj, *keys) -> list:
    """The values of a JSON object that has exactly the given keys."""
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        raise InvalidInputError(f"expected an object with the keys {keys}, got {obj!r}")
    return [obj[k] for k in keys]


def _list(obj, length: Optional[int] = None) -> list:
    """A JSON array, of the given length if one is given."""
    if not isinstance(obj, list) or length not in (None, len(obj)):
        size = "" if length is None else f" of length {length}"
        raise InvalidInputError(f"expected an array{size}, got {obj!r}")
    return obj


def parse_json(text: str) -> tuple[Polynomial, str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"not JSON: {exc}") from None
    kind, terms = _fields(doc, "vars", "terms")
    if kind not in ("X", "C", "J"):
        raise InvalidInputError(f"unknown variable universe {kind!r}")
    acc: dict = {}
    for c, pairs in (_fields(t, "c", "m") for t in _list(terms)):
        pairs = [_list(pair, 2) for pair in _list(pairs)]
        m = mono_from_pairs((parse_variable(vs, kind), _exponent(e)) for vs, e in pairs)
        acc[m] = acc.get(m, 0) + _parse_coeff(c)
    return Polynomial(acc), kind
