"""Sparse exact row reduction over the rationals.

Rows are dicts from hashable column labels to nonzero coefficients; a key
function orders the columns, and every row pivots on its largest column.
One incremental eliminator, an echelon form reduced lead first, serves
the rank count, nullspace extraction and solving for a vector inside a
span.  Integer entries stay int: a row is made monic by multiplying with
its lead when that lead is 1 or -1, and a Fraction appears only for any
other lead, which is also the first point where the fractions module is
imported.

A row is reduced lead first: while its largest column is the pivot of a
stored row, that row's multiple is subtracted.  Stored rows are never
reduced further, so a pivot column may still appear in other stored rows,
below their leads.  A row lies in the span of the rows before it iff its
reduction ends at zero: every step subtracts a stored row, and a nonzero
residual leads with a column that no stored row leads with, so it is
independent of them (distinct pivots).  The combination a dependent row
returns is unique when the stored rows came from independent rows, so it
does not depend on which echelon form is stored (Cox, Little and O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 2).
"""

from __future__ import annotations

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
    out of the same elimination.  Each stored row is monic at its pivot
    column, which is its largest column.
    """

    def __init__(self, col_key: Callable):
        self.col_key = col_key
        self.pivots: dict = {}  # pivot column -> (row, tag)

    def add(self, row: dict, tag: Optional[dict] = None) -> Optional[dict]:
        """Insert a row; returns None if it increased the rank, else the
        combination expressing it in terms of previously added rows.

        The combination accumulates the tags of the pivot rows subtracted,
        so that row == sum(combination[j] * original_row_j).
        """
        row = dict(row)
        combo: dict = {}
        while row:
            c = max(row, key=self.col_key)
            pivot = self.pivots.get(c)
            if pivot is None:
                lead = row[c]
                # 1/lead: the unit lead itself keeps integer rows integer
                if lead in (1, -1):
                    inv = int(lead)
                else:
                    from fractions import Fraction

                    inv = 1 / Fraction(lead)
                # row is a fresh dict, so a residual led by 1 is stored as is
                monic = row if lead == 1 else {k: v * inv for k, v in row.items()}
                # tag tracks: monic = (incoming - sum combo_j . row_j) / lead
                new_tag = {k: -v * inv for k, v in combo.items()}
                _add_scaled(new_tag, tag or {}, inv)
                self.pivots[c] = (monic, new_tag)
                return None
            base, base_tag = pivot
            f = row[c]
            _add_scaled(row, base, -f)
            _add_scaled(combo, base_tag, f)
        return combo


def rank_of(rows: list[dict], col_key: Callable) -> int:
    """Rank of the rows: the number that an Eliminator stores.

    The column key is called once per column, through a memo.
    """
    keys = {c: col_key(c) for c in {c for r in rows for c in r}}
    elim = Eliminator(keys.__getitem__)
    for r in rows:
        elim.add(r)
    return len(elim.pivots)


def nullspace(rows: list[dict], col_key: Callable) -> list[dict]:
    """Basis of the left kernel: combinations of the rows summing to zero.

    Tags are indexed by row position; each returned dict maps row indices
    to rational coefficients with sum_i coeff[i] * rows[i] == 0.  Row i
    goes through Eliminator.add tagged {i: 1}; if it is dependent, its
    vector is e_i minus the unique combination of the independent rows
    j < i, so the list is the reduced row-echelon basis keyed by row index:
    each vector has 1 at its largest index, which no other vector holds.
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
    return elim.add(target)
