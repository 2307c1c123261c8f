"""Differential tests: the text and JSON forms against the code they replaced.

emit_text and json_doc render from one canonical term walk, and parse_text
splits a term into factors with one regex.  The references below are the
previous emitters, each with its own copy of the walk, and the previous
parser, whose factor splitter tracked a parenthesis depth.  Emission must
match them byte for byte.  Parsing must agree with them on any text over the
syntax's characters, except that an empty factor (a dangling or doubled
'*'), which the reference dropped, is now refused.  format_variable is
memoized; its reference is the function under the memo,
format_variable.__wrapped__.
"""

import itertools
import json
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qgrass import lattice, polyring
from qgrass.errors import InvalidInputError
from qgrass.lattice import Context, YoungSeq
from qgrass.polyring import (
    Coeff,
    Polynomial,
    XVar,
    emit_json,
    emit_text,
    format_variable,
    json_doc,
    mono_from_pairs,
    order_for,
    parse_text,
)

CTX333 = Context(3, 3, 1, 3)
CTX_WIDE = Context(2, 9, 1, 2)  # columns up to 11: no compact digit form

SOME = settings(max_examples=200, deadline=None, derandomize=True)


# -- the references ------------------------------------------------------------


def reference_emit_text(poly, kind, ctx=None, compact=False):
    if poly.is_zero():
        return "0"
    order = order_for(kind, ctx)
    pieces = []
    for m, c in order.sorted_terms(poly):
        sign = "-" if (c < 0) else "+"
        mag = -c if c < 0 else c
        factors = []
        if mag != 1 or not m:
            factors.append(polyring._format_coeff(mag))
        for v, e in sorted(m, key=lambda ve: order.var_key(ve[0])):
            s = polyring.format_variable(v, kind, compact=compact)
            factors.append(s if e == 1 else "%s**%d" % (s, e))
        pieces.append((sign, "*".join(factors)))
    head_sign, head = pieces[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


def reference_emit_json(poly, kind, ctx=None):
    order = order_for(kind, ctx)
    doc = {
        "vars": kind,
        "terms": [
            {
                "c": polyring._format_coeff(c),
                "m": [
                    [polyring.format_variable(v, kind), e]
                    for v, e in sorted(m, key=lambda ve: order.var_key(ve[0]))
                ],
            }
            for m, c in order.sorted_terms(poly)
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def reference_parse_text(text, kind, p=None):
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    chunks = re.split(r"\s+([+-])\s+", text)
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
        factors = reference_split_factors(body)
        if not factors:
            raise InvalidInputError(f"empty term in {text!r}")
        for factor in factors:
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff = coeff * polyring._parse_coeff(factor)
                continue
            if "**" in factor:
                varpart, _, exppart = factor.rpartition("**")
                e = polyring._exponent(int(exppart) if exppart.isdecimal() else exppart)
            else:
                varpart, e = factor, 1
            pairs.append((polyring.parse_variable(varpart, kind, p=p), e))
        m = mono_from_pairs(pairs)
        acc[m] = acc.get(m, 0) + coeff
    return Polynomial(acc)


def reference_split_factors(body):
    """Split a term body on single '*' while keeping '**' exponents intact."""
    out = []
    depth = 0
    cur = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            if i + 1 < len(body) and body[i + 1] == "*":
                cur.append("**")
                i += 2
                continue
            out.append("".join(cur))
            cur = []
            i += 1
            continue
        cur.append(ch)
        i += 1
    if cur:
        out.append("".join(cur))
    return [f.strip() for f in out if f.strip()]


# -- strategies ----------------------------------------------------------------

coeff = st.one_of(
    st.integers(min_value=-99, max_value=99).filter(bool),
    st.builds(
        Fraction,
        st.integers(min_value=-30, max_value=30).filter(bool),
        st.integers(min_value=2, max_value=12),
    ),
)

x_var = st.builds(
    XVar,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2),
)
j_var = st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=3, unique=True).map(
    lambda xs: YoungSeq(tuple(sorted(xs)))
)


def polynomials(var):
    """Polynomials over var: int and Fraction coefficients, constants and
    exponents above 1."""
    monomial = st.lists(
        st.tuples(var, st.integers(min_value=1, max_value=3)), max_size=3
    ).map(mono_from_pairs)

    def build(terms):
        acc: dict = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial(acc)

    return st.lists(st.tuples(monomial, coeff), max_size=5).map(build)


# (kind, context, compact, polynomials, p for parsing)
UNIVERSES = {
    "X": ("X", None, False, polynomials(x_var), None),
    "C333": ("C", CTX333, False, polynomials(st.sampled_from(lattice.elements(CTX333))), 3),
    "C333-compact": (
        "C", CTX333, True, polynomials(st.sampled_from(lattice.elements(CTX333))), 3,
    ),
    "C-wide": ("C", CTX_WIDE, False, polynomials(st.sampled_from(lattice.elements(CTX_WIDE))), 2),
    "C-wide-compact": (
        "C", CTX_WIDE, True, polynomials(st.sampled_from(lattice.elements(CTX_WIDE))), 2,
    ),
    "J": ("J", None, False, polynomials(j_var), None),
}

SYNTAX = "x[],0123456789^()*+-/ "


@st.composite
def texts(draw, universe):
    """Text over the syntax's characters: free, or an emitted polynomial with
    a few characters inserted, deleted or replaced."""
    kind, ctx, compact, polys, _ = universe
    if draw(st.booleans()):
        return draw(st.text(alphabet=SYNTAX, max_size=30))
    text = emit_text(draw(polys), kind, ctx, compact)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=1))
        text = text[:i] + draw(st.text(alphabet=SYNTAX, max_size=2)) + text[i + cut :]
    return text


def _outcome(parse, text, kind, p):
    try:
        return parse(text, kind, p=p)
    except InvalidInputError as exc:
        return exc


# -- the differential tests -----------------------------------------------------


@pytest.mark.parametrize("name", UNIVERSES)
def test_emitters_match_reference(name):
    kind, ctx, compact, polys, _ = UNIVERSES[name]

    @SOME
    @given(polys)
    def check(f):
        assert emit_text(f, kind, ctx, compact) == reference_emit_text(f, kind, ctx, compact)
        assert emit_json(f, kind, ctx) == reference_emit_json(f, kind, ctx)
        assert json.loads(emit_json(f, kind, ctx)) == json_doc(f, kind, ctx)

    check()


@pytest.mark.parametrize("name", UNIVERSES)
def test_parse_text_matches_reference(name):
    kind, _, _, _, p = UNIVERSES[name]

    @SOME
    @given(texts(UNIVERSES[name]))
    def check(text):
        new = _outcome(parse_text, text, kind, p)
        ref = _outcome(reference_parse_text, text, kind, p)
        if isinstance(new, InvalidInputError) and not isinstance(ref, InvalidInputError):
            # the one refusal the reference lacked: it dropped an empty factor
            assert "*" in text and str(new).startswith("empty term or factor")
        else:
            assert type(new) is type(ref)
            if isinstance(new, Polynomial):
                assert new == ref

    check()


def test_format_variable_memo_matches_the_function_under_it():
    # every variable of the three universes at (3,3,1,3), both forms: a memo
    # that ignored compact would hand the first form's text to the second
    ctx = CTX333
    universes = {
        "X": [
            XVar(i, j, l)
            for i in range(1, ctx.p + 1)
            for j in range(1, ctx.width + 1)
            for l in range(ctx.n + 1)
        ],
        "C": lattice.elements(ctx),
        "J": [
            YoungSeq(c) for c in itertools.combinations(range(1, ctx.stacked_width + 1), ctx.p)
        ],
    }
    for kind, universe in universes.items():
        for compact in (False, True):
            for v in universe:
                assert format_variable(v, kind, compact) == format_variable.__wrapped__(
                    v, kind, compact
                )
