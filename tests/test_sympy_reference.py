"""Differential tests against sympy, an independent computer algebra system.

- generator_image: the coefficient of t^a in a maximal minor of the
  level-graded matrix, one Leibniz expansion per composition of a, against
  sympy's Berkowitz expansion of the same minor with the deformation
  parameter t kept explicit.
- Polynomial multiplication, against sympy's expansion of the product.

Skipped when sympy is not installed; qgrass itself does not depend on it.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qgrass.errors import DomainError
from qgrass.lattice import Context, PluckerVar
from qgrass.maps import generator_image
from qgrass.polyring import Polynomial, XVar, mono_from_pairs

CTX = Context(3, 3, 1, 3)
T = sympy.Symbol("t")


def xsym(v: XVar):
    return sympy.Symbol(f"x_{v.row}_{v.col}_{v.level}")


def to_sympy(f: Polynomial):
    out = sympy.Integer(0)
    for mono, c in f.terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= xsym(v) ** e
        out += term
    return sympy.expand(out)


def sympy_det_coeff(ctx: Context, cols, a: int):
    """Coefficient of t^a in det of the p x p matrix with entries
    sum_l x[i,j,l] t^l, computed by sympy."""
    matrix = sympy.Matrix(
        [
            [sum(xsym(XVar(i, j, l)) * T**l for l in range(ctx.n + 1)) for j in cols]
            for i in range(1, ctx.p + 1)
        ]
    )
    return sympy.expand(matrix.det(method="berkowitz")).coeff(T, a)


COLUMN_SETS = [(1, 2, 3), (1, 3, 5), (2, 4, 6), (4, 5, 6), (1, 2, 6)]


@pytest.mark.parametrize("cols", COLUMN_SETS)
def test_det_coeff_matches_sympy(cols):
    for a in range(CTX.n * CTX.p + 1):
        ours = to_sympy(generator_image(PluckerVar(cols, a), CTX))
        assert sympy.expand(ours - sympy_det_coeff(CTX, cols, a)) == 0, (cols, a)
    # above the minor's degree n*p there is no coefficient to map onto
    assert sympy_det_coeff(CTX, cols, CTX.n * CTX.p + 1) == 0
    with pytest.raises(DomainError):
        generator_image(PluckerVar(cols, CTX.n * CTX.p + 1), CTX)


XVARS = [
    XVar(i, j, l) for i, j, l in itertools.product(range(1, 3), range(1, 4), range(2))
]


def test_polynomial_product_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    )
    monomial = st.lists(st.sampled_from(XVARS), max_size=3).map(
        lambda vs: mono_from_pairs((v, 1) for v in vs)
    )
    polynomial = st.dictionaries(monomial, coeff, max_size=4).map(Polynomial)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(polynomial, polynomial)
    def check(f, g):
        assert sympy.expand(to_sympy(f * g) - to_sympy(f) * to_sympy(g)) == 0

    check()
