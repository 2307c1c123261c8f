"""Differential tests: the text and JSON emitters against the code they replaced.

emit_text and json_doc render from one canonical term walk.  The references
below are the previous emitters, each with its own copy of the walk, and
emission must match them byte for byte.  format_variable is memoized; its
reference is the function under the memo, format_variable.__wrapped__.
The readers of both forms are test code (tests/parsers.py); their round
trips and refusals are checked in test_polyring and test_properties.
"""

import itertools
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qgrass import lattice, polyring
from qgrass.lattice import Context, YoungSeq
from qgrass.polyring import (
    Polynomial,
    XVar,
    emit_json,
    emit_text,
    format_variable,
    json_doc,
    mono_from_pairs,
    order_for,
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


# (kind, context, compact, polynomials)
UNIVERSES = {
    "X": ("X", None, False, polynomials(x_var)),
    "C333": ("C", CTX333, False, polynomials(st.sampled_from(lattice.elements(CTX333)))),
    "C333-compact": (
        "C", CTX333, True, polynomials(st.sampled_from(lattice.elements(CTX333))),
    ),
    "C-wide": ("C", CTX_WIDE, False, polynomials(st.sampled_from(lattice.elements(CTX_WIDE)))),
    "C-wide-compact": (
        "C", CTX_WIDE, True, polynomials(st.sampled_from(lattice.elements(CTX_WIDE))),
    ),
    "J": ("J", None, False, polynomials(j_var)),
}


# -- the differential tests -----------------------------------------------------


@pytest.mark.parametrize("name", UNIVERSES)
def test_emitters_match_reference(name):
    kind, ctx, compact, polys = UNIVERSES[name]

    @SOME
    @given(polys)
    def check(f):
        assert emit_text(f, kind, ctx, compact) == reference_emit_text(f, kind, ctx, compact)
        assert emit_json(f, kind, ctx) == reference_emit_json(f, kind, ctx)
        assert json.loads(emit_json(f, kind, ctx)) == json_doc(f, kind, ctx)

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
