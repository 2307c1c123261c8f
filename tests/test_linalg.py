"""Differential tests: the lead-first echelon Eliminator against a reduced
row-echelon elimination, kept here as the reference.

The reference keeps its stored basis reduced by back-substituting every new
pivot, and reduces a row in two loops: it first cancels leading columns
while they are pivots, then repeatedly re-sorts the row and cancels its
largest remaining pivot column.  The Eliminator stores an echelon form with
no back-substitution, so its stored rows differ from the reference's; what
must agree is behaviour: the value add returns for every row, the pivot
columns, the span, and each probe's dependence and combination.  The
reference divides in Fractions throughout; the Eliminator keeps integer
entries int when every pivot lead is 1 or -1, and must still agree with
the reference value for value.

rank_of, the number of rows an Eliminator stores, has one reference: the
number of rows less the dimension of the reference nullspace.
"""

import copy
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from qgrass import linalg
from qgrass.errors import InternalInconsistencyError


class ReferenceEliminator:
    """Reduced row-echelon elimination with a two-loop reduction: every
    pivot column lives only in its own stored row."""

    def __init__(self, col_key):
        self.col_key = col_key
        self.pivots = {}

    def _pivot_col(self, row):
        return max(row, key=self.col_key)

    def _cancel(self, row, combo, c):
        base, base_tag = self.pivots[c]
        f = Fraction(row[c]) / base[c]
        linalg._add_scaled(row, base, -f)
        linalg._add_scaled(combo, base_tag, f)

    def reduce(self, row):
        row = dict(row)
        combo = {}
        while row:
            c = self._pivot_col(row)
            if c not in self.pivots:
                break
            self._cancel(row, combo, c)
        changed = True
        while changed and row:
            changed = False
            for c in sorted(row, key=self.col_key, reverse=True):
                if c in self.pivots:
                    self._cancel(row, combo, c)
                    changed = True
                    break
        return row, combo

    def add(self, row, tag=None):
        residual, combo = self.reduce(row)
        if not residual:
            return combo
        c = self._pivot_col(residual)
        lead = residual[c]
        monic = {k: Fraction(v) / lead for k, v in residual.items()}
        new_tag = {k: -Fraction(v) / lead for k, v in combo.items()}
        for k, v in (tag or {}).items():
            s = new_tag.get(k, 0) + Fraction(v) / lead
            if s:
                new_tag[k] = s
            else:
                new_tag.pop(k, None)
        for base, base_tag in list(self.pivots.values()):
            if c in base:
                f = Fraction(base[c]) / monic[c]
                linalg._add_scaled(base, monic, -f)
                linalg._add_scaled(base_tag, new_tag, -f)
        self.pivots[c] = (monic, new_tag)
        return None

    def rows(self):
        cols = sorted(self.pivots, key=self.col_key, reverse=True)
        return [self.pivots[c][0] for c in cols]


def reference_nullspace(rows, col_key):
    elim = ReferenceEliminator(col_key)
    out = []
    for i, r in enumerate(rows):
        residual, combo = elim.reduce(r)
        if not residual:
            combo = {k: -v for k, v in combo.items()}
            combo[i] = 1
            out.append(combo)
        else:
            elim.add(r, tag={i: 1})
    return out


def reference_solve_in_span(target, rows, col_key):
    elim = ReferenceEliminator(col_key)
    for i, r in enumerate(rows):
        if elim.add(r, tag={i: 1}) is not None:
            raise InternalInconsistencyError("dependent rows")
    residual, combo = elim.reduce(target)
    return None if residual else combo


def assert_echelon(elim):
    """Every stored row is monic at its pivot column, its largest column."""
    for c, (row, _) in elim.pivots.items():
        assert row[c] == 1
        assert max(row, key=elim.col_key) == c


def assert_same_span(new, ref):
    """Every stored row of each eliminator is dependent on the other's; a
    dependent row is not stored, so one copy of each serves every row."""
    new_copy, ref_copy = copy.deepcopy(new), copy.deepcopy(ref)
    for row, _ in ref.pivots.values():
        assert new_copy.add(row) is not None
    for row, _ in new.pivots.values():
        assert ref_copy.add(row) is not None


def assert_matches_reference(key, basis_rows, probes=()):
    """Feed both eliminators the rows tagged by position; after each add,
    compare the returned values, the pivot columns, the span and each
    probe's dependence and combination; then the nullspaces."""
    new = linalg.Eliminator(key)
    ref = ReferenceEliminator(key)
    combos = []
    for i, r in enumerate(basis_rows):
        combo = new.add(r, tag={i: 1})
        assert combo == ref.add(r, tag={i: 1})
        combos.append(combo)
        assert_echelon(new)
        assert new.pivots.keys() == ref.pivots.keys()
        assert_same_span(new, ref)
        for probe in probes:
            residual, expected = ref.reduce(probe)
            assert copy.deepcopy(new).add(probe) == (None if residual else expected)
    kernel = linalg.nullspace(basis_rows, key)
    assert kernel == reference_nullspace(basis_rows, key)
    return new, combos, kernel


# -- strategies -----------------------------------------------------------------

CHECK = settings(max_examples=300, deadline=None, derandomize=True)

COLUMN_KEYS = [lambda c: c, lambda c: -c, lambda c: (c * 5) % 11]

row = st.dictionaries(
    st.integers(0, 9), st.integers(-3, 3).filter(bool), min_size=0, max_size=6
)
rows = st.lists(row, min_size=0, max_size=9)
col_key = st.sampled_from(COLUMN_KEYS)


@CHECK
@given(rows, st.lists(row, max_size=4), col_key)
def test_reduce_and_add_match_reference(basis_rows, probes, key):
    assert_matches_reference(key, basis_rows, probes)


@CHECK
@given(rows, st.lists(st.integers(-2, 2), max_size=9), row, col_key)
def test_solve_in_span_matches_reference(basis_rows, weights, noise, key):
    ref = ReferenceEliminator(key)
    independent = [r for r in basis_rows if ref.add(r) is None]
    target: dict = dict(noise)
    for w, r in zip(weights, independent):
        linalg._add_scaled(target, r, w)
    solved = linalg.solve_in_span(target, independent, key)
    assert solved == reference_solve_in_span(target, independent, key)
    if solved is not None:
        rebuilt: dict = {}
        for i, c in solved.items():
            linalg._add_scaled(rebuilt, independent[i], c)
        assert rebuilt == target


def test_solve_in_span_refuses_dependent_rows():
    with pytest.raises(InternalInconsistencyError, match="expects independent rows"):
        linalg.solve_in_span({0: 1}, [{0: 1, 1: 1}, {0: 2, 1: 2}], lambda c: c)


@st.composite
def rows_with_dependencies(draw):
    """Integer rows with up to four planted dependencies, each an integer
    combination of the rows before the position it is inserted at."""
    out = draw(rows)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(out)))
        weights = draw(st.lists(st.integers(-2, 2), min_size=at, max_size=at))
        dependent: dict = {}
        for w, earlier in zip(weights, out):
            linalg._add_scaled(dependent, earlier, w)
        out.insert(at, dependent)
    return out


# a dependent row whose reduction makes Fractions under every COLUMN_KEYS key
FRACTION_ROWS = [{0: 2, 1: 1}, {0: 3, 1: 5}, {0: 1, 1: 3}, {1: 2, 2: -3}]


@CHECK
@given(rows_with_dependencies(), col_key)
@example(FRACTION_ROWS, COLUMN_KEYS[0])
@example(FRACTION_ROWS, COLUMN_KEYS[1])
@example(FRACTION_ROWS, COLUMN_KEYS[2])
def test_nullspace_and_rank_match_reference(basis_rows, key):
    kernel = linalg.nullspace(basis_rows, key)
    assert kernel == reference_nullspace(basis_rows, key)
    assert linalg.rank_of(basis_rows, key) == len(basis_rows) - len(kernel)
    for combo in kernel:
        total: dict = {}
        for i, c in combo.items():
            linalg._add_scaled(total, basis_rows[i], c)
        assert total == {}


@CHECK
@given(rows_with_dependencies(), col_key)
def test_nullspace_is_the_reduced_basis_by_row_index(basis_rows, key):
    kernel = linalg.nullspace(basis_rows, key)
    leads = [max(combo) for combo in kernel]
    assert leads == sorted(set(leads))
    for combo, lead in zip(kernel, leads):
        assert combo[lead] == 1
        assert sum(1 for other in kernel if lead in other) == 1
    ref = ReferenceEliminator(lambda i: i)
    for combo in kernel:
        assert ref.add(combo) is None
    assert kernel == ref.rows()[::-1]


# -- integer preservation ---------------------------------------------------------


@st.composite
def pivot_rows(draw, leads, first_leads=None):
    """(col_key, rows): integer rows with distinct largest columns, the
    first lead drawn from first_leads (if given) and the others from leads,
    interleaved with integer combinations of the rows before them.  A row's
    largest column is never an earlier pivot, so every inserted residual
    keeps its own lead."""
    key = draw(col_key)
    out = []
    cols = draw(st.lists(st.integers(0, 9), unique=True, min_size=bool(first_leads), max_size=7))
    for n, c in enumerate(cols):
        lower = [d for d in range(10) if key(d) < key(c)]
        r = {}
        if lower:
            r = draw(
                st.dictionaries(
                    st.sampled_from(lower), st.integers(-3, 3).filter(bool), max_size=4
                )
            )
        r[c] = draw(st.sampled_from(first_leads if first_leads and not n else leads))
        out.append(r)
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(out), max_size=len(out)))
            dependent: dict = {}
            for w, earlier in zip(weights, out):
                linalg._add_scaled(dependent, earlier, w)
            out.append(dependent)
    return key, out


def entries(elim):
    for r, t in elim.pivots.values():
        yield from r.values()
        yield from t.values()


@CHECK
@given(pivot_rows([1, -1]))
def test_unit_pivots_keep_integer_rows_integer(case):
    key, basis_rows = case
    new, combos, kernel = assert_matches_reference(key, basis_rows)
    assert all(type(v) is int for v in entries(new))
    for combo in combos + kernel:
        assert all(type(v) is int for v in (combo or {}).values())


@CHECK
@given(pivot_rows([2, -3, 1, -1], first_leads=[2, -3]))
def test_non_unit_pivot_still_matches_reference(case):
    key, basis_rows = case
    new, _, _ = assert_matches_reference(key, basis_rows)
    assert all(type(v) in (int, Fraction) for v in entries(new))


# -- distinct leads ---------------------------------------------------------------


@st.composite
def distinct_lead_rows(draw):
    """(col_key, rows): nonzero integer rows, in any order, whose largest
    columns under the key are pairwise distinct."""
    key = draw(col_key)
    leads = draw(st.lists(st.integers(0, 9), unique=True, max_size=8))
    out = []
    for c in leads:
        lower = [d for d in range(10) if key(d) < key(c)]
        r = {}
        if lower:
            r = draw(
                st.dictionaries(
                    st.sampled_from(lower), st.integers(-3, 3).filter(bool), max_size=5
                )
            )
        r[c] = draw(st.integers(-3, 3).filter(bool))
        out.append(r)
    return key, out


@CHECK
@given(distinct_lead_rows())
def test_rows_with_distinct_leads_are_independent(case):
    # the rule the kernel oracle skips groups by: distinct pivots, no kernel
    key, basis_rows = case
    assert linalg.nullspace(basis_rows, key) == []
    assert linalg.rank_of(basis_rows, key) == len(basis_rows)
