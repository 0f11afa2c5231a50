"""Exact linear algebra over the rationals: RREF, rank, nullspace.

Small and self-contained; matrices are sequences of rows of Fractions.
:func:`rank` and :func:`nullspace_basis` also take a row as a map
``{column: rational}`` of its nonzero entries.

Elimination is fraction-free.  Each row's denominators are cleared once,
rows are kept sparse as ``{column: int}`` maps, and after every elimination
step a row is divided by the gcd of its entries, which keeps its integers
small (the role exact division plays in Bareiss' method).  Fractions are
made only for the returned pivot rows and nullspace vectors, and the
reduced row echelon form is unique, so the results are those of
elimination over ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[Fraction, ...]
SparseRow = dict[int, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def _integer_row(row: Sequence | Mapping[int, object]) -> SparseRow:
    """The nonzero entries of a row, times the lcm of their denominators."""
    pairs = row.items() if isinstance(row, Mapping) else enumerate(row)
    entries = [(c, x if type(x) is int or type(x) is Fraction else Fraction(x))
               for c, x in pairs]
    entries = [(c, x) for c, x in entries if x]
    den = lcm(*(x.denominator for _, x in entries))
    return {c: x.numerator * (den // x.denominator) for c, x in entries}


def _eliminate(row: SparseRow, pivot: SparseRow, c: int) -> SparseRow:
    """``row`` with column ``c`` cleared by a multiple of ``pivot``, divided
    by the gcd of its entries."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()}
    for k, v in pivot.items():
        out[k] = out.get(k, 0) - b * v
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items() if v}


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Row echelon form, as pivot rows keyed by their leading column.

    Each row is reduced by the pivot rows at its leading column until it
    vanishes or leads at a new column, where it becomes a pivot row.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            row = _eliminate(row, pivots[c], c)
    return pivots


def _reduced(pivots: dict[int, SparseRow]) -> dict[int, SparseRow]:
    """Clear each pivot column from the other pivot rows (the reduced form,
    up to a nonzero integer factor per row)."""
    for c in sorted(pivots, reverse=True):
        # pivot rows with a larger pivot column are already reduced
        for k in [k for k in pivots[c] if k != c and k in pivots]:
            pivots[c] = _eliminate(pivots[c], pivots[k], k)
    return pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    if not rows:
        return [], []
    n_cols = len(rows[0])
    pivots = _reduced(_echelon(_integer_row(row) for row in rows))
    order = sorted(pivots)
    m = []
    for c in order:
        dense = [ZERO] * n_cols
        for k, v in pivots[c].items():
            dense[k] = Fraction(v, pivots[c][c])
        m.append(dense)
    m.extend([ZERO] * n_cols for _ in range(len(rows) - len(order)))
    return m, order


def rank(rows: Iterable[Sequence[Fraction] | Mapping[int, Fraction]]) -> int:
    return len(_echelon(_integer_row(row) for row in rows))


def nullspace_basis(rows: Iterable[Sequence[Fraction] | Mapping[int, Fraction]],
                    n_cols: int) -> list[Row]:
    """Basis of the kernel of the matrix, as vectors of length ``n_cols``.

    An empty matrix (no constraints) yields the standard basis.
    """
    pivots = _reduced(_echelon(_integer_row(row) for row in rows))
    basis: list[Row] = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [ZERO] * n_cols
        vec[fc] = ONE
        for pc, row in pivots.items():
            vec[pc] = Fraction(-row[fc], row[pc]) if fc in row else ZERO
        basis.append(tuple(vec))
    return basis
