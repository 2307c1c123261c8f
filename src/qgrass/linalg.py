"""Sparse exact row reduction over the rationals.

Rows are dicts from hashable column labels to nonzero coefficients; a key
function orders the columns, and every row pivots on its largest column.
One incremental eliminator supports rank, reduction against a basis,
nullspace extraction, and solving for a vector inside a span.  Integer
entries stay int: a row is made monic by multiplying with its lead when
that lead is 1 or -1, and a Fraction appears only for any other lead.

The stored basis is kept in reduced row-echelon form: every pivot column
appears in exactly one stored row, its own, with coefficient 1, and it is
that row's largest column.  Eliminating a pivot column therefore brings in
no other pivot column, so a row is fully reduced by one pass over the
pivot columns it holds, in any order (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 2).
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
        self.insert(residual, combo, tag)
        return None

    def insert(self, residual: dict, combo: dict, tag: Optional[dict] = None) -> None:
        """Store a nonzero residual of reduce(row) as a new pivot row.

        combo is the combination that reduce returned with it, and tag the
        row's own tag.
        """
        c = max(residual, key=self.col_key)
        lead = residual[c]
        # 1/lead: the unit lead itself keeps integer rows integer
        inv = int(lead) if lead in (1, -1) else 1 / Fraction(lead)
        monic = {k: v * inv for k, v in residual.items()}
        # tag tracks: monic = (incoming - sum combo_j . row_j) / lead
        new_tag = {k: -v * inv for k, v in combo.items()}
        for k, v in (tag or {}).items():
            s = new_tag.get(k, 0) + v * inv
            if s:
                new_tag[k] = s
            else:
                new_tag.pop(k, None)
        # back-substitute into existing rows to keep the basis reduced
        for base, base_tag in self.pivots.values():
            if c in base:
                f = base[c]
                _add_scaled(base, monic, -f)
                _add_scaled(base_tag, new_tag, -f)
        self.pivots[c] = (monic, new_tag)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rows(self) -> list[dict]:
        """The reduced basis rows, largest pivot first."""
        cols = sorted(self.pivots, key=self.col_key, reverse=True)
        return [self.pivots[c][0] for c in cols]


def rank_of(rows: list[dict], col_key: Callable) -> int:
    elim = Eliminator(col_key)
    for r in rows:
        elim.add(r)
    return elim.rank


def nullspace(rows: list[dict], col_key: Callable) -> list[dict]:
    """Basis of the left kernel: combinations of the rows summing to zero.

    Tags are indexed by row position; each returned dict maps row indices
    to rational coefficients with sum_i coeff[i] * rows[i] == 0.  Each row
    is reduced once: an independent residual goes straight into the basis.
    """
    elim = Eliminator(col_key)
    out = []
    for i, r in enumerate(rows):
        residual, combo = elim.reduce(r)
        if not residual:
            combo = {k: -v for k, v in combo.items()}
            combo[i] = 1
            out.append(combo)
        else:
            elim.insert(residual, combo, tag={i: 1})
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
