"""Exact integer linear algebra: fraction-free matrix rank.

Rows are kept sparse (column -> integer) and eliminated by cross
multiplication, with a gcd normalization after each combination so entries
stay small.  No floating point, no rational arithmetic.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

SparseRow = dict[int, int]


def _normalize(row: SparseRow) -> SparseRow:
    row = {c: v for c, v in row.items() if v}
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def sparse_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of a sparse integer matrix."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = _normalize(dict(row))
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            combined: SparseRow = {}
            for c, v in row.items():
                combined[c] = a * v
            for c, v in pivot.items():
                combined[c] = combined.get(c, 0) - b * v
            row = _normalize(combined)
    return len(pivots)
