"""Small exact linear algebra over Scalar fields: dense matrices are nested
lists, and a sparse row is a {column: Scalar} dict (absent entries are zero).
Every elimination is `add_row`, which never touches a column its row lacks,
so columns that share no row (distinct exponentials) never interact."""
from __future__ import annotations

from typing import Sequence

from .scalars import Scalar, ZERO


def mat(rows) -> list[list[Scalar]]:
    return [[Scalar.of(v) for v in row] for row in rows]


def matmul(a, b):
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for x, brow in zip(row, b):
            if x.is_zero():
                continue
            for j, y in enumerate(brow):
                if not y.is_zero():
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sparse(matrix) -> list[dict]:
    """The rows of a dense matrix as sparse rows."""
    return [{j: v for j, v in enumerate(row) if not v.is_zero()}
            for row in matrix]


def vecmat(row: dict, m) -> dict:
    """Sparse row times dense matrix (a sum that cancels stays as a zero)."""
    out: dict = {}
    for k, x in row.items():
        for j, y in enumerate(m[k]):
            if not y.is_zero():
                v = out.get(j)
                out[j] = x * y if v is None else v + x * y
    return out


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
