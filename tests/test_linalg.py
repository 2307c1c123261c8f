"""Differential tests: the one-pass Eliminator.reduce against the two-loop
reduction it replaced, kept here as the reference.

The reference first cancels leading columns while they are pivots, then
repeatedly re-sorts the row and cancels its largest remaining pivot column.
The one-pass reduction relies on the basis staying reduced, which is
asserted after every add.  The reference divides in Fractions throughout;
the Eliminator keeps integer entries int when every pivot lead is 1 or -1,
and must still agree with the reference value for value.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qgrass import linalg
from qgrass.errors import InternalInconsistencyError


class ReferenceEliminator:
    """The two-loop elimination, as it was before the one-pass reduce."""

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

    def reduce(self, row, tag=None):
        row = dict(row)
        combo = {} if tag is None else dict(tag)
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
        residual, combo = self.reduce(row, None)
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


def assert_reduced(elim):
    """Every pivot column sits in exactly one stored row (its own), with
    coefficient 1, and is that row's largest column."""
    for c, (row, _) in elim.pivots.items():
        assert row[c] == 1
        assert max(row, key=elim.col_key) == c
        assert sum(1 for other, _ in elim.pivots.values() if c in other) == 1


# -- strategies -----------------------------------------------------------------

CHECK = settings(max_examples=300, deadline=None, derandomize=True)

COLUMN_KEYS = [lambda c: c, lambda c: -c, lambda c: (c * 5) % 11]

row = st.dictionaries(
    st.integers(0, 9), st.integers(-3, 3).filter(bool), min_size=0, max_size=6
)
rows = st.lists(row, min_size=0, max_size=9)
tag = st.none() | st.dictionaries(
    st.integers(0, 12), st.integers(-2, 2).filter(bool), max_size=3
)
col_key = st.sampled_from(COLUMN_KEYS)


@CHECK
@given(rows, st.lists(st.tuples(row, tag), max_size=4), col_key)
def test_reduce_and_add_match_reference(basis_rows, probes, key):
    new = linalg.Eliminator(key)
    ref = ReferenceEliminator(key)
    for i, r in enumerate(basis_rows):
        assert new.add(r, tag={i: 1}) == ref.add(r, tag={i: 1})
        assert_reduced(new)
        assert new.pivots == ref.pivots
        for probe, probe_tag in probes:
            assert new.reduce(probe, probe_tag) == ref.reduce(probe, probe_tag)
    assert new.rank == len(ref.pivots)
    assert new.rows() == ref.rows()


@CHECK
@given(rows, col_key)
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


@CHECK
@given(rows, col_key)
def test_nullspace_inserts_the_tagged_basis_of_reference_add(basis_rows, key):
    # nullspace's own loop: reduce once, insert the residual with its tag;
    # the reference reduces the row again inside add
    new = linalg.Eliminator(key)
    ref = ReferenceEliminator(key)
    for i, r in enumerate(basis_rows):
        residual, combo = new.reduce(r)
        if residual:
            new.insert(residual, combo, tag={i: 1})
        assert ref.add(r, tag={i: 1}) == (None if residual else combo)
        assert_reduced(new)
        assert new.pivots == ref.pivots


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


def assert_matches_reference(key, basis_rows):
    new = linalg.Eliminator(key)
    ref = ReferenceEliminator(key)
    combos = []
    for i, r in enumerate(basis_rows):
        combo = new.add(r, tag={i: 1})
        assert combo == ref.add(r, tag={i: 1})
        assert_reduced(new)
        assert new.pivots == ref.pivots
        combos.append(combo)
    kernel = linalg.nullspace(basis_rows, key)
    assert kernel == reference_nullspace(basis_rows, key)
    return new, combos, kernel


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
