"""Small exact linear algebra over Scalar fields (matrices as nested lists)."""
from __future__ import annotations

from typing import Sequence

from .scalars import Scalar


def mat(rows) -> list[list[Scalar]]:
    return [[Scalar.of(v) for v in row] for row in rows]


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Scalar(0))
             for j in range(m)] for i in range(n)]


def matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(_echelon([list(r) for r in rows]))


def _echelon(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """Reduced independent rows (pivot-normalized), exact."""
    pivots: list[tuple[int, list[Scalar]]] = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            if not row[col].is_zero():
                f = row[col]
                row = [v - f * w for v, w in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if not v.is_zero()), None)
        if lead is not None:
            inv = row[lead].inverse()
            prow = [v * inv for v in row]
            for col, existing in pivots:
                if not existing[lead].is_zero():
                    f = existing[lead]
                    existing[:] = [v - f * w for v, w in zip(existing, prow)]
            pivots.append((lead, prow))
    pivots.sort(key=lambda p: p[0])
    return [p[1] for p in pivots]


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Exact kernel basis of the stacked row constraints (ncols unknowns)."""
    ech = _echelon([list(r) for r in rows]) if rows else []
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


def mat_inverse_2x2(m):
    a, b = m[0]
    c, d = m[1]
    det = a * d - b * c
    if det.is_zero():
        raise ValueError("singular 2x2 matrix")
    inv = det.inverse()
    return [[d * inv, -b * inv], [-c * inv, a * inv]]
