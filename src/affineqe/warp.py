"""Warped-product Einstein checks over quasi-Einstein extension metrics.

With base (N, g, F, mu_N) and mu_N = 1/r for a positive integer r, the warp
function phi = e^{-F/r} must satisfy the base condition
rho_N - (r/phi) Hess phi = lambda g_N, and
mu_E(p) = phi Lap phi + (r-1) |grad phi|^2 + lambda phi^2 must be constant;
mu_E is then the Einstein constant the r-dimensional fiber has to carry.

For an extension metric fed from a surface solution f of H f = mu f rho_s the
warp function is exactly phi = pi*f (since mu_N = mu/2 = 1/r), so everything
stays inside the term algebra.  The general formula for mu_E is kept even
though isotropy makes the gradient term vanish here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .extension import (
    ExtensionMetric, curvature4, default_probe_points, gradient_norm_sq,
)
from .funcalg import (
    AnsatzFunction, Context, DomainError, _eval_plan, product, sum_products,
    to_bundle,
)
from .qesolver import is_solution
from .report import VerificationReport, fmt_float
from .scalars import Scalar


class WarpError(ValueError):
    pass


@dataclass(frozen=True)
class WarpSpec:
    metric: ExtensionMetric
    f: AnsatzFunction  # surface solution of H f = mu f rho_s, positive on probes
    mu: Fraction
    r: int
    lam: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.r < 1:
            raise WarpError("fiber dimension r must be a positive integer")
        if Fraction(self.mu, 2) != Fraction(1, self.r):
            raise WarpError(
                f"need mu_N = mu/2 = 1/r, got mu = {self.mu}, r = {self.r}")

    @property
    def phi(self) -> AnsatzFunction:
        """Warp function e^{-F/r} = pi*f (exact, since 2/(mu r) = 1)."""
        return to_bundle(self.f)


def warped_einstein_report(spec: WarpSpec, points=None, *,
                           phi: AnsatzFunction | None = None
                           ) -> VerificationReport:
    """Base condition and fiber-constant report; `phi` overrides the warp
    function (used by negative controls with a corrupted potential)."""
    if points is None:
        points = default_probe_points()
    report = VerificationReport([], {
        "mu": str(spec.mu), "r": spec.r, "lambda": str(spec.lam)})
    pre = 0.0 if is_solution(spec.metric.conn, spec.mu, spec.f) else 1.0
    report.add("precondition_qe_residual", pre, 0.0)
    if pre:
        return report
    pack = curvature4(spec.metric)
    warp_fn = spec.phi if phi is None else phi
    hphi = pack.hessian(warp_fn)
    # base condition, cleared of the 1/phi: r*Hess(phi) - phi*rho + lam*phi*g
    lam = Scalar(spec.lam)
    sym_ok = True
    for a in range(4):
        for b in range(4):
            entry = (hphi[a][b].scale(spec.r)
                     - product(warp_fn, pack.ricci[a][b]))
            if spec.lam:
                entry = entry + product(warp_fn,
                                        spec.metric.g[a][b]).scale(lam)
            if not entry.is_zero():
                sym_ok = False
    report.add("base_condition_symbolic", 0.0 if sym_ok else 1.0, 0.0)

    worst = 0.0
    mu_e_values = []
    # the Laplacian is the g^{-1}-trace of the Hessian
    lap = sum_products(((pack.g_inv[a][b], hphi[a][b])
                        for a in range(4) for b in range(4)), Context.FOURD)
    grad_sq = gradient_norm_sq(spec.metric, warp_fn)
    float_lam = float(spec.lam)
    # lam*g is left out at lam = 0.0: |x - 0.0*z| = |x| for every finite z
    functions, (rho_at, hphi_at, g_at) = _eval_plan(
        [pack.ricci, hphi, spec.metric.g if float_lam else []])
    # The entries with a nonzero function in them.  Any other entry reads
    # |0| at every probe (or nan, from a 0 * inf), which max(worst, .)
    # passes over.
    entries = [e for e in ((rho_at[a][b], hphi_at[a][b],
                            g_at[a][b] if float_lam else -1)
                           for a in range(4) for b in range(4))
               if max(e) >= 0]
    try:
        for p in points:
            pv = warp_fn.eval(p)
            if abs(pv.imag) > 1e-12 or pv.real <= 0:
                raise DomainError(
                    f"warp function must be positive at probe {p}")
            pv = pv.real
            values = [f.eval(p) for f in functions] + [0j]
            for rho_i, hphi_i, g_i in entries:
                val = values[rho_i] - spec.r / pv * values[hphi_i]
                if float_lam:
                    val = val - float_lam * values[g_i]
                worst = max(worst, abs(val))
            mu_e = (pv * lap.eval(p) + (spec.r - 1) * grad_sq.eval(p)
                    + float_lam * pv ** 2)
            mu_e_values.append(mu_e)
        mean = sum(mu_e_values) / len(mu_e_values)
        std = math.sqrt(sum(abs(v - mean) ** 2
                            for v in mu_e_values) / len(mu_e_values))
    except OverflowError:
        raise DomainError("warp function out of float range") from None
    report.add("base_condition_numeric", worst, 1e-10)
    report.add("fiber_constant_std", std, 1e-6)
    report.metadata["mu_E"] = fmt_float(mean.real)
    report.metadata["mu_E_imag_max"] = max(abs(v.imag) for v in mu_e_values)
    return report
