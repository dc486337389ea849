"""Reference checks of a solution's potential and symmetry, for the tests.

`nonlinear_transform` takes a solution f of the quasi-Einstein equation to
the potential fhat = -(2/mu) log f; for a single exponential (Type A) or a
single power of x1 (Type B) fhat stays in the function algebra, and then its
residual Hess fhat + 2 rho_s - (mu/2) dfhat x dfhat is checked exactly.
`killing_stability_check` checks that a basis spans a space closed under the
affine Killing generators.  Neither is on a solving path: the package
certifies its solutions with `qe_residual` and the prolongation oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from affineqe.funcalg import (
    AnsatzFunction, Context, Point, Term, hessian, monomial, product,
    rank_basis,
)
from affineqe.qesolver import (
    EigenspaceDescription, _all_zero, potential_residual_at,
)
from affineqe.scalars import Scalar
from affineqe.surface import AffineConnection2, christoffel, ricci


def shift_pow1(f: AnsatzFunction, delta) -> AnsatzFunction:
    """Multiply by x1^delta (delta exact)."""
    d = Scalar.of(delta)
    return AnsatzFunction(
        [Term(t.coeff, t.exp1, t.exp2, t.pow1 + d, t.logdeg, t.deg2,
              t.fiberdeg1, t.fiberdeg2) for t in f.terms], f.context)


@dataclass(frozen=True)
class NonlinearTransform:
    """Potential fhat = -(2/mu) log f with its residual checker.

    For a single exponential (Type A) or a single power of x1 (Type B), fhat
    stays in the algebra (an additive constant from the coefficient is
    dropped; the residual only sees derivatives of fhat).  Otherwise only the
    pointwise checker is available.
    """

    conn: AffineConnection2
    mu: Fraction
    f: AnsatzFunction
    fhat: AnsatzFunction | None

    @property
    def residual_symbolic(self):
        if self.fhat is None:
            return None
        rho_s = ricci(self.conn).rho_s
        d = [self.fhat.derive(1), self.fhat.derive(2)]
        h = hessian(christoffel(self.conn), self.fhat)
        half_mu = Scalar(Fraction(self.mu, 2))
        return tuple(tuple(h[i][j] + rho_s[i][j].scale(2)
                           - product(d[i], d[j]).scale(half_mu)
                           for j in (0, 1)) for i in (0, 1))

    def is_identically_zero(self) -> bool:
        res = self.residual_symbolic
        return res is not None and _all_zero(res)

    def residual_at(self, points) -> float:
        rho = [[v.scale(2) for v in row] for row in ricci(self.conn).rho_s]
        coords = [p.coordinates if isinstance(p, Point) else tuple(p)
                  for p in points]
        return potential_residual_at(
            self.f, hessian(christoffel(self.conn), self.f), rho, self.mu,
            coords)


def nonlinear_transform(conn: AffineConnection2, mu,
                        f: AnsatzFunction) -> NonlinearTransform:
    mu = Fraction(mu)
    if mu == 0:
        raise ValueError("the nonlinear transform needs mu != 0")
    fhat = None
    if len(f.terms) == 1:
        t = f.terms[0]
        scale = Scalar(Fraction(-2, 1)) / Scalar(mu)
        if conn.kind == "A" and t.pow1.is_zero() and t.deg2 == 0 \
                and t.logdeg == 0:
            fhat = (monomial(Context.TYPE_A, coeff=scale * t.exp1, pow1=1)
                    + monomial(Context.TYPE_A, coeff=scale * t.exp2, x2=1))
        elif conn.kind == "B" and t.logdeg == 0 and t.deg2 == 0:
            fhat = monomial(Context.TYPE_B, coeff=scale * t.pow1, log=1)
    return NonlinearTransform(conn, mu, f, fhat)


def killing_stability_check(conn: AffineConnection2, mu, desc) -> bool:
    """Closure of span(basis) under the affine Killing generators.

    Type A: d/dx1 and d/dx2; Type B: d/dx2 and x1 d/dx1 + x2 d/dx2.
    """
    basis = list(desc.basis) if isinstance(desc, EigenspaceDescription) else list(desc)
    if not basis:
        return True
    rank0, _ = rank_basis(basis)
    images = []
    for f in basis:
        if conn.kind == "A":
            images.extend([f.derive(1), f.derive(2)])
        else:
            x2 = monomial(Context.TYPE_B, x2=1)
            euler = shift_pow1(f.derive(1), 1) + product(x2, f.derive(2))
            images.extend([f.derive(2), euler])
    rank1, _ = rank_basis(basis + [g for g in images if not g.is_zero()])
    return rank1 == rank0
