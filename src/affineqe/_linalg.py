"""Small exact linear algebra over Scalar fields (matrices as nested lists)."""
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


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(row_basis(rows))


def row_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Reduced row echelon basis of the row space (pivots normalized to 1,
    rows ordered by pivot column), exact.  Zero entries are skipped."""
    pivots: list[tuple[int, list[Scalar]]] = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            f = row[col]
            if not f.is_zero():
                row = [v if w.is_zero() else v - f * w
                       for v, w in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if not v.is_zero()), None)
        if lead is not None:
            inv = row[lead].inverse()
            prow = [v if v.is_zero() else v * inv for v in row]
            for col, existing in pivots:
                f = existing[lead]
                if not f.is_zero():
                    existing[:] = [v if w.is_zero() else v - f * w
                                   for v, w in zip(existing, prow)]
            pivots.append((lead, prow))
    pivots.sort(key=lambda p: p[0])
    return [p[1] for p in pivots]


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Exact kernel basis of the stacked row constraints (ncols unknowns)."""
    ech = row_basis(rows)
    pivot_cols = []
    for row in ech:
        pivot_cols.append(next(j for j, v in enumerate(row) if not v.is_zero()))
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Scalar(0)] * ncols
        vec[fc] = Scalar(1)
        for row, pc in zip(ech, pivot_cols):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def block_nullspace(columns: Sequence[dict]) -> list[list[Scalar]]:
    """`nullspace` of the matrix whose column j has the entries columns[j]
    ({row key: Scalar}; absent keys are zero), computed block by block.

    Columns that share no row never interact, so each connected block of
    columns is eliminated on its own.  The reduced echelon form depends only
    on the row space and the column order, so the kernel vectors are exactly
    those of the whole matrix, returned in the same (free-column) order.
    """
    n = len(columns)
    parent = list(range(n))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    first: dict = {}
    for j, col in enumerate(columns):
        for key in col:
            a, b = root(first.setdefault(key, j)), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: dict = {}
    for j in range(n):
        blocks.setdefault(root(j), []).append(j)
    found = []
    for cols in blocks.values():
        keys = dict.fromkeys(key for j in cols for key in columns[j])
        rows = [[columns[j].get(key, ZERO) for j in cols] for key in keys]
        for vec in nullspace(rows, len(cols)):
            # a reduced row is zero left of its pivot, so the last nonzero
            # entry of a kernel vector is its free column
            free = max(k for k, v in enumerate(vec) if not v.is_zero())
            full = [ZERO] * n
            for j, v in zip(cols, vec):
                full[j] = v
            found.append((cols[free], full))
    found.sort(key=lambda p: p[0])
    return [vec for _, vec in found]


def mat_inverse_2x2(m):
    a, b = m[0]
    c, d = m[1]
    det = a * d - b * c
    if det.is_zero():
        raise ValueError("singular 2x2 matrix")
    inv = det.inverse()
    return [[d * inv, -b * inv], [-c * inv, a * inv]]
