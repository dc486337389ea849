"""Dense reference curvature: every tensor entry from every index, no zero
skipped.

These take their dimension n and their function context from their inputs,
so one reference serves the surface (n = 2, Christoffel symbols from
`surface.christoffel` or `symbol_functions`) and the cotangent bundle
(n = 4, from a `CurvaturePack4`).  The arrays use the layout of `funcalg`:
gamma[k][i][j] = Gamma_ij^k, with 0-based indices.  `dense_transform` is the
surface's tensor law summed the same way, term by term, and
`matrix_jet_dimension` is the prolongation oracle in matrix form: the
obstruction and its images from generic dense products.
"""
from fractions import Fraction

from affineqe import _linalg
from affineqe.funcalg import Context, constant, monomial, product
from affineqe.scalars import ZERO, Scalar
from affineqe.surface import AffineConnection2, ricci


def _total(fs):
    """Sum of a nonempty iterable of functions of one context."""
    fs = iter(fs)
    out = next(fs)
    for f in fs:
        out = out + f
    return out


def _dot(pairs):
    return _total(product(f, g) for f, g in pairs)


def dense_riemann_up(gamma):
    """R[a][b][c][d]: the e_d component of R(e_a, e_b) e_c, that is
    d_a Gamma_bc^d - d_b Gamma_ac^d + Gamma_bc^e Gamma_ae^d
    - Gamma_ac^e Gamma_be^d."""
    n = range(len(gamma))
    return [[[[gamma[d][b][c].derive(a + 1) - gamma[d][a][c].derive(b + 1)
               + _dot((gamma[e][b][c], gamma[d][a][e]) for e in n)
               - _dot((gamma[e][a][c], gamma[d][b][e]) for e in n)
               for d in n] for c in n] for b in n] for a in n]


def dense_ricci(R):
    """Ricci tensor rho_bc = sum_a R[a][b][c][a] of a `dense_riemann_up`
    array."""
    n = range(len(R))
    return [[_total(R[a][b][c][a] for a in n) for c in n] for b in n]


def dense_nabla_ricci(gamma, rho):
    """(nabla rho)(i,j;k) = d_k rho_ij - Gamma_ki^m rho_mj - Gamma_kj^m rho_im
    as functions, keyed by the 1-based (i, j, k): every derivative and every
    product is formed."""
    n = range(len(gamma))
    return {(i + 1, j + 1, k + 1): rho[i][j].derive(k + 1)
            - _dot((gamma[m][k][i], rho[m][j]) for m in n)
            - _dot((gamma[m][k][j], rho[i][m]) for m in n)
            for i in n for j in n for k in n}


def symbol_functions(conn: AffineConnection2):
    """gamma[k][i][j] = Gamma_ij^k of a surface connection, each built by
    `constant` (Type A) or `monomial` (Type B, C_ij^k / x1)."""
    def symbol(i, j, k):
        c = conn.coefficient(i + 1, j + 1, k + 1)
        if conn.kind == "A":
            return constant(c, Context.TYPE_A)
        return monomial(Context.TYPE_B, coeff=c, pow1=-1)
    n = range(2)
    return [[[symbol(i, j, k) for j in n] for i in n] for k in n]


def dense_transform(conn: AffineConnection2, S) -> AffineConnection2:
    """The connection in coordinates xt = S x by the tensor law summed in
    full: Ct_ij^k = S_km C_pq^m Sinv_pi Sinv_qj over all p, q and m, three
    products a term and 144 in all, no zero skipped and no check that a
    Type B change fixes x1."""
    S = _linalg.mat(S)
    Sinv = _linalg.mat_inverse_2x2(S)
    n = range(2)
    coeffs = []
    for i, j in ((0, 0), (0, 1), (1, 1)):
        for k in n:
            acc = Scalar(0)
            for p in n:
                for q in n:
                    for m in n:
                        acc = acc + (S[k][m]
                                     * conn.coefficient(p + 1, q + 1, m + 1)
                                     * Sinv[p][i] * Sinv[q][j])
            coeffs.append(acc)
    return AffineConnection2(conn.kind, tuple(coeffs))


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
    """The rows of a dense matrix as `_linalg`'s sparse rows."""
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


def matrix_jet_dimension(conn: AffineConnection2, mu) -> int:
    """`jet_dimension_oracle` by matrices: the constant 3x3 system
    d_i (f, d1 f, d2 f) = m_i (f, d1 f, d2 f), the obstruction
    g = m2 m1 - m1 m2 (and - m2 for Type B, whose x1-weighted frame also
    shifts m1's lower block) by dense products, and each image of a row
    by a row-matrix product."""
    mus = mu if isinstance(mu, Scalar) else Scalar(Fraction(mu))
    r_s = ricci(conn).r_s
    cm = conn.coeff_map()
    z, o = Scalar(0), Scalar(1)
    m1 = [[z, o, z],
          [mus * r_s[0][0], cm["111"], cm["112"]],
          [mus * r_s[0][1], cm["121"], cm["122"]]]
    m2 = [[z, z, o],
          [mus * r_s[0][1], cm["121"], cm["122"]],
          [mus * r_s[1][1], cm["221"], cm["222"]]]
    if conn.kind == "B":
        m1[1][1], m1[2][2] = o + m1[1][1], o + m1[2][2]
    g = matsub(matmul(m2, m1), matmul(m1, m2))
    if conn.kind == "B":
        g = matsub(g, m2)
    echelon: dict = {}
    rows = sparse(g)
    while rows:
        added = []
        for row in rows:
            if _linalg.add_row(echelon, row):
                if len(echelon) == 3:
                    return 0
                added.append(row)
        rows = [vecmat(row, m) for row in added for m in (m1, m2)]
    return 3 - len(echelon)
