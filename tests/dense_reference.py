"""Dense reference curvature: every tensor entry from every index, no zero
skipped.

These take their dimension n and their function context from their inputs,
so one reference serves the surface (n = 2, Christoffel symbols from
`surface.christoffel` or `symbol_functions`) and the cotangent bundle
(n = 4, from a `CurvaturePack4`).  The arrays use the layout of `funcalg`:
gamma[k][i][j] = Gamma_ij^k, with 0-based indices.  `dense_transform` is the
surface's tensor law summed the same way, term by term.
"""
from affineqe import _linalg
from affineqe.funcalg import Context, constant, monomial, product
from affineqe.scalars import Scalar
from affineqe.surface import AffineConnection2


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
