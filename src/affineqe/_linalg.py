"""Small exact linear algebra over Scalar fields: the sparse elimination of
the span solves and `funcalg.rank_basis`, and the 2x2 inverse of the
coordinate changes.  The prolongation oracle has its own.

A sparse row is a {column: Scalar} dict (absent entries are zero); a dense
matrix (`mat`, `mat_inverse_2x2`) is nested lists.  Every elimination is
`add_row`, which never touches a column its row lacks, so columns that share
no row (distinct exponentials) never interact."""
from __future__ import annotations

from typing import Sequence

from .scalars import Scalar, ZERO


def mat(rows) -> list[list[Scalar]]:
    return [[Scalar.of(v) for v in row] for row in rows]


def _subtract(row: dict, f: Scalar, prow: dict) -> None:
    """row -= f * prow in place, dropping the entries that cancel."""
    for k, w in prow.items():
        v = row.get(k)
        if v is None:
            row[k] = -(f * w)
        else:
            v = v - f * w
            if v.is_zero():
                del row[k]
            else:
                row[k] = v


def add_row(echelon: dict, row: dict) -> bool:
    """Add one sparse row to a reduced row echelon form, in place, exactly.

    `echelon` maps each pivot column to its row, which is 1 there and 0 in
    every other pivot column; the pivot of a row is its smallest column.
    Returns True when the row adds a pivot (is independent of `echelon`).
    `row` itself is not changed.
    """
    row = {k: v for k, v in row.items() if not v.is_zero()}
    # pivot rows are 0 in each other's pivot columns, so these entries are
    # the coefficients to clear, whatever the order
    for col in [c for c in row if c in echelon]:
        _subtract(row, row[col], echelon[col])
    if not row:
        return False
    lead = min(row)
    inv = row[lead].inverse()
    prow = {k: v * inv for k, v in row.items()}
    for existing in echelon.values():
        f = existing.get(lead)
        if f is not None:
            _subtract(existing, f, prow)
    echelon[lead] = prow
    return True


def row_basis(rows: Sequence[dict]) -> dict:
    """Reduced row echelon form of the sparse rows' span, as in `add_row`."""
    echelon: dict = {}
    for row in rows:
        add_row(echelon, row)
    return echelon


def rank(rows: Sequence[dict]) -> int:
    return len(row_basis(rows))


def nullspace(rows: Sequence[dict], ncols: int) -> list[list[Scalar]]:
    """Exact kernel of the sparse rows on ncols unknowns: one dense vector
    per free column, in column order, 1 there and 0 at the other free ones."""
    echelon = row_basis(rows)
    basis = []
    for free in range(ncols):
        if free in echelon:
            continue
        vec = [ZERO] * ncols
        vec[free] = Scalar(1)
        for col, prow in echelon.items():
            v = prow.get(free)
            if v is not None:
                vec[col] = -v
        basis.append(vec)
    return basis


def mat_inverse_2x2(m):
    a, b = m[0]
    c, d = m[1]
    det = a * d - b * c
    if det.is_zero():
        raise ValueError("singular 2x2 matrix")
    inv = det.inverse()
    return [[d * inv, -b * inv], [-c * inv, a * inv]]
