"""Sparse exact row reduction over the rationals.

Rows are dicts from hashable column labels to nonzero coefficients; a key
function orders the columns, and every row pivots on its largest column.
One incremental eliminator supports reduction against a basis, nullspace
extraction, and solving for a vector inside a span; rank_of only counts
pivots, by a lead-first echelon pass with no tags.  Integer entries stay
int: a row is made monic by multiplying with its lead when that lead is 1
or -1, and a Fraction appears only for any other lead.

The eliminator's stored basis is kept in reduced row-echelon form: every
pivot column appears in exactly one stored row, its own, with coefficient
1, and it is that row's largest column.  Eliminating a pivot column
therefore brings in no other pivot column, so a row is fully reduced by
one pass over the pivot columns it holds, in any order (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .errors import InternalInconsistencyError


def _add_scaled(target: dict, source: dict, factor) -> None:
    for k, v in source.items():
        s = target.get(k, 0) + factor * v
        if s:
            target[k] = s
        else:
            target.pop(k, None)


class Eliminator:
    """Incremental Gaussian elimination with monic pivot rows.

    Each stored row carries a tag vector recording how it was assembled
    from the rows fed in, so nullspace vectors and span coordinates come
    out of the same elimination.  The stored rows stay reduced: each pivot
    column lives only in its own row, with coefficient 1, as that row's
    largest column; add back-substitutes every new pivot to keep it so.
    """

    def __init__(self, col_key: Callable):
        self.col_key = col_key
        self.pivots: dict = {}  # pivot column -> (row, tag)

    def reduce(self, row: dict, tag: Optional[dict] = None) -> tuple[dict, dict]:
        """Fully reduce a row against the basis; returns (residual, combination).

        The combination accumulates the tags of the pivot rows used, so that
        row == residual + sum(combination[j] * original_row_j).
        """
        row = dict(row)
        combo: dict = {} if tag is None else dict(tag)
        for c in [c for c in row if c in self.pivots]:
            base, base_tag = self.pivots[c]
            f = row[c]
            _add_scaled(row, base, -f)
            _add_scaled(combo, base_tag, f)
        return row, combo

    def add(self, row: dict, tag: Optional[dict] = None) -> Optional[dict]:
        """Insert a row; returns None if it increased the rank, else the
        combination expressing it in terms of previously added rows."""
        residual, combo = self.reduce(row, None)
        if not residual:
            return combo
        c = max(residual, key=self.col_key)
        lead = residual[c]
        # 1/lead: the unit lead itself keeps integer rows integer
        inv = int(lead) if lead in (1, -1) else 1 / Fraction(lead)
        # reduce returned a fresh dict, so a residual led by 1 is stored as is
        monic = residual if lead == 1 else {k: v * inv for k, v in residual.items()}
        # tag tracks: monic = (incoming - sum combo_j . row_j) / lead
        new_tag = {k: -v * inv for k, v in combo.items()}
        _add_scaled(new_tag, tag or {}, inv)
        # back-substitute into existing rows to keep the basis reduced
        for base, base_tag in self.pivots.values():
            if c in base:
                f = base[c]
                _add_scaled(base, monic, -f)
                _add_scaled(base_tag, new_tag, -f)
        self.pivots[c] = (monic, new_tag)
        return None


def rank_of(rows: list[dict], col_key: Callable) -> int:
    """Rank of the rows by an echelon count, with no tags.

    Each row is reduced lead first: while its largest column is the pivot
    of a stored row, that row's multiple is subtracted; a nonzero residual
    is stored, monic, as the pivot row of its largest column.  Stored rows
    are never reduced further, so a pivot column may still appear in other
    stored rows, below their leads.  A row lies in the span of the rows before it iff its
    reduction ends at zero: every step subtracts a stored row, and a
    nonzero residual leads with a column that no stored row leads with, so
    it is independent of them (distinct pivots).  The count is the rank
    whatever reduced form the stored rows have, so no back-substitution is
    done; the column key is called once per column.
    """
    keys = {c: col_key(c) for c in {c for r in rows for c in r}}
    pivots: dict = {}  # pivot column -> monic row led by it
    for r in rows:
        row = dict(r)
        while row:
            c = max(row, key=keys.__getitem__)
            base = pivots.get(c)
            if base is None:
                lead = row[c]
                inv = int(lead) if lead in (1, -1) else 1 / Fraction(lead)
                pivots[c] = row if lead == 1 else {k: v * inv for k, v in row.items()}
                break
            _add_scaled(row, base, -row[c])
    return len(pivots)


def nullspace(rows: list[dict], col_key: Callable) -> list[dict]:
    """Basis of the left kernel: combinations of the rows summing to zero.

    Tags are indexed by row position; each returned dict maps row indices
    to rational coefficients with sum_i coeff[i] * rows[i] == 0.  Row i
    goes through Eliminator.add tagged {i: 1}; if it is dependent, its
    vector is e_i minus a combination of the independent rows j < i, so the
    list is the reduced row-echelon basis keyed by row index: each vector
    has 1 at its largest index, which no other vector holds.
    """
    elim = Eliminator(col_key)
    out = []
    for i, r in enumerate(rows):
        combo = elim.add(r, tag={i: 1})
        if combo is not None:
            combo = {k: -v for k, v in combo.items()}
            combo[i] = 1
            out.append(combo)
    return out


def solve_in_span(
    target: dict, rows: list[dict], col_key: Callable
) -> Optional[dict]:
    """Coefficients expressing target as a combination of rows, or None.

    The rows are required to be linearly independent, so a solution is
    unique when it exists.
    """
    elim = Eliminator(col_key)
    for i, r in enumerate(rows):
        if elim.add(r, tag={i: 1}) is not None:
            raise InternalInconsistencyError("solve_in_span expects independent rows")
    residual, combo = elim.reduce(target)
    if residual:
        return None
    return combo
