"""Dense reference curvature: every tensor entry from every index, no zero
skipped.

These take their dimension n and their function context from their inputs,
so one reference serves the surface (n = 2, Christoffel symbols from
`surface.christoffel`) and the cotangent bundle (n = 4, from a
`CurvaturePack4`).  The arrays use the layout of `funcalg`:
gamma[k][i][j] = Gamma_ij^k, with 0-based indices.
"""
from affineqe.funcalg import product


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
