"""Warped-product Einstein checks over quasi-Einstein extension metrics.

With base (N, g, F, mu_N) and mu_N = 1/r for a positive integer r, the warp
function phi = e^{-F/r} must satisfy the base condition
rho_N - (r/phi) Hess phi = lambda g_N, and
mu_E(p) = phi Lap phi + (r-1) |grad phi|^2 + lambda phi^2 must be constant;
mu_E is then the Einstein constant the r-dimensional fiber has to carry.

An extension metric fed from a surface solution f of H f = mu f rho_s is
quasi-Einstein with lambda = 0 and mu_N = mu/2 (Theorem 1.1), so the fiber
dimension is derived, r = 2/mu, and the warp function is exactly phi = pi*f
(since 2/(mu r) = 1): everything stays inside the term algebra.  The general
formula for mu_E is kept even though isotropy makes the gradient term vanish
here.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .extension import (
    ExtensionMetric, _ricci_symmetric, curvature4, default_probe_points,
    gradient_norm_sq,
)
from .funcalg import (
    AnsatzFunction, Context, DomainError, _eval_plan, product, sum_products,
    to_bundle,
)
from .qesolver import is_solution
from .report import VerificationReport, fmt_float


class WarpError(ValueError):
    pass


def fiber_dimension(mu) -> int:
    """The positive integer r with mu = 2/r; WarpError if there is none."""
    mu = Fraction(mu)
    if mu <= 0 or (2 / mu).denominator != 1:
        raise WarpError(f"need mu = 2/r for a positive integer r, got {mu}")
    return (2 / mu).numerator


def warped_einstein_report(metric: ExtensionMetric, mu, f: AnsatzFunction,
                           points=None, *,
                           phi: AnsatzFunction | None = None
                           ) -> VerificationReport:
    """Base condition and fiber-constant report of `metric` over the
    surface solution f of H f = mu f rho_s, positive on the probes, with
    fiber dimension r = 2/mu; `phi` overrides the warp function pi*f (used
    by negative controls with a corrupted potential)."""
    mu = Fraction(mu)
    r = fiber_dimension(mu)
    if points is None:
        points = default_probe_points()
    report = VerificationReport([], {"mu": str(mu), "r": r, "lambda": "0"})
    pre = 0.0 if is_solution(metric.conn, mu, f) else 1.0
    report.add("precondition_qe_residual", pre, 0.0)
    if pre:
        return report
    pack = curvature4(metric)
    warp_fn = to_bundle(f) if phi is None else phi
    hphi = pack.hessian(warp_fn)
    # base condition, cleared of the 1/phi: r*Hess(phi) - phi*rho; the
    # Hessian is symmetric, so the entries b < a add only Ricci's symmetry
    sym_ok = all((hphi[a][b].scale(r)
                  - product(warp_fn, pack.ricci[a][b])).is_zero()
                 for a in range(4) for b in range(a, 4)
                 ) and _ricci_symmetric(pack)
    report.add("base_condition_symbolic", 0.0 if sym_ok else 1.0, 0.0)

    worst = 0.0
    mu_e_values = []
    # the Laplacian is the g^{-1}-trace of the Hessian
    lap = sum_products(((pack.g_inv[a][b], hphi[a][b])
                        for a in range(4) for b in range(4)), Context.FOURD)
    grad_sq = gradient_norm_sq(metric, warp_fn)
    functions, (rho_at, hphi_at) = _eval_plan([pack.ricci, hphi])
    # The entries with a nonzero function in them.  Any other entry reads
    # |0| at every probe (or nan, from a 0 * inf), which max(worst, .)
    # passes over.
    entries = [e for e in ((rho_at[a][b], hphi_at[a][b])
                           for a in range(4) for b in range(4))
               if max(e) >= 0]
    try:
        for p in points:
            pv = warp_fn.eval(p)
            if abs(pv.imag) > 1e-12 or pv.real <= 0:
                raise DomainError(
                    f"warp function must be positive at probe {p}")
            pv = pv.real
            values = [h.eval(p) for h in functions] + [0j]
            for rho_i, hphi_i in entries:
                worst = max(worst, abs(values[rho_i]
                                       - r / pv * values[hphi_i]))
            mu_e_values.append(pv * lap.eval(p) + (r - 1) * grad_sq.eval(p))
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
