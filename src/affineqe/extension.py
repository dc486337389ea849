"""Neutral-signature metrics on T*M built from a surface connection.

For coordinates (x1, x2, y1, y2) the metric is

    g = 2 dx^i . dy_i + (-2 y_k Gamma_ij^k + Phi_ij) dx^i . dx^j,

whose inverse is closed-form: the x-x block of g^{-1} vanishes, the mixed
blocks are identities, and the y-y block is minus the x-x block of g.  That
structure keeps every curvature quantity inside the exact term algebra, makes
det g = 1, and forces |d(pi* h)|^2 = 0 for every function pulled back from
the surface.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .funcalg import (
    _ZEROS, AnsatzFunction, Context, Point, Term, constant, hessian, product,
    ricci_trace, riemann, sum_products, to_bundle,
)
from .qesolver import is_solution, potential_residual_at
from .report import VerificationReport
from .scalars import Scalar
from .surface import AffineConnection2, ricci

_Z4 = _ZEROS[Context.FOURD]
_ONE4 = constant(1, Context.FOURD)

# sign of each permutation of (0, 1, 2, 3), by its inversion count
_EPS = {p: (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        for p in itertools.permutations(range(4))}

# Orientation dx1 ^ dx2 ^ dy1 ^ dy2; with this choice the *anti-self-dual*
# half (projector (1 - star)/2) is the one that vanishes for every extension
# metric, and it is labeled below as the distinguished half.
VANISHING_WEYL_SIGN = -1

_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


class ExtensionError(ValueError):
    pass


@dataclass(frozen=True)
class DeformationTensor:
    phi11: AnsatzFunction
    phi12: AnsatzFunction
    phi22: AnsatzFunction

    @classmethod
    def zero(cls, context: Context) -> "DeformationTensor":
        z = _ZEROS[context]
        return cls(z, z, z)

    def entry(self, i: int, j: int) -> AnsatzFunction:
        if (i, j) in ((0, 0),):
            return self.phi11
        if (i, j) in ((0, 1), (1, 0)):
            return self.phi12
        return self.phi22

    def context(self) -> Context:
        return self.phi11.context

    def to_json(self):
        return {"phi11": self.phi11.to_json(), "phi12": self.phi12.to_json(),
                "phi22": self.phi22.to_json()}

    @classmethod
    def from_json(cls, data, context: Context) -> "DeformationTensor":
        return cls(
            AnsatzFunction.from_json(data.get("phi11", []), context),
            AnsatzFunction.from_json(data.get("phi12", []), context),
            AnsatzFunction.from_json(data.get("phi22", []), context))


@dataclass(frozen=True)
class ExtensionMetric:
    conn: AffineConnection2
    phi: DeformationTensor
    g: tuple  # 4x4 of AnsatzFunction (FOURD)
    g_inv: tuple

    def eval_matrix(self, point) -> list:
        return [[self.g[a][b].eval(point) for b in range(4)] for a in range(4)]


def build_extension(conn: AffineConnection2,
                    phi: DeformationTensor | None = None) -> ExtensionMetric:
    if phi is None:
        phi = DeformationTensor.zero(conn.context)
    if phi.context() is not conn.context:
        raise ExtensionError("deformation tensor context does not match the "
                             "connection kind")
    g = [[_Z4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        g[i][i + 2] = _ONE4
        g[i + 2][i] = _ONE4
    pow_shift = Scalar(0) if conn.kind == "A" else Scalar(-1)
    for i in range(2):
        for j in range(i, 2):
            terms = []
            for k in range(2):
                c = conn.coefficient(i + 1, j + 1, k + 1)
                if not c.is_zero():
                    terms.append(Term(c * Fraction(-2), Scalar(0), Scalar(0),
                                      pow_shift, 0, 0,
                                      1 if k == 0 else 0, 1 if k == 1 else 0))
            entry = AnsatzFunction(terms, Context.FOURD) + to_bundle(
                phi.entry(i, j))
            g[i][j] = entry
            g[j][i] = entry
    ginv = [[_Z4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        ginv[i][i + 2] = _ONE4
        ginv[i + 2][i] = _ONE4
        for j in range(2):
            ginv[i + 2][j + 2] = -g[i][j]
    metric = ExtensionMetric(conn, phi,
                             tuple(tuple(r) for r in g),
                             tuple(tuple(r) for r in ginv))
    _assert_inverse(metric)
    return metric


def _assert_inverse(metric: ExtensionMetric) -> None:
    for a in range(4):
        for b in range(4):
            acc = sum_products(((metric.g[a][c], metric.g_inv[c][b])
                                for c in range(4)), Context.FOURD)
            want = _ONE4 if a == b else _Z4
            if acc != want:
                raise ExtensionError("closed-form inverse failed")


class CurvaturePack4:
    """Levi-Civita curvature of a 4-d exact metric, all symbolic.

    Each tensor is built on first use and then kept, so a caller pays only
    for what it reads.  christoffel[c][a][b] is Gamma_ab^c, the layout of the
    shared formulas in `funcalg`; riemann_up[a][b][c][d] stores
    R(e_a, e_b) e_c in the e_d slot; ricci[b][c] traces the first slot;
    riemann[a][b][c][d] is g(R(e_a,e_b) e_d, e_c), the ordering in which the
    Weyl decomposition has its classical form.
    """

    def __init__(self, g, g_inv):
        self.g = g
        self.g_inv = g_inv

    # -- tensors ------------------------------------------------------------
    @cached_property
    def christoffel(self):
        g, ginv = self.g, self.g_inv
        dg = [[[g[a][b].derive(c + 1) for c in range(4)] for b in range(4)]
              for a in range(4)]
        # by c, the nonzero g^{cd} as (d, g^{cd})
        rows = [[(d, v) for d, v in enumerate(ginv[c]) if v.terms]
                for c in range(4)]
        gamma = [[[_Z4] * 4 for _ in range(4)] for _ in range(4)]
        half = Scalar(Fraction(1, 2))
        for a in range(4):
            for b in range(a, 4):
                # twice the symbols of the first kind, Gamma_abd
                low = [dg[b][d][a] + dg[a][d][b] - dg[a][b][d]
                       for d in range(4)]
                if not any(v.terms for v in low):
                    continue
                for c in range(4):
                    acc = sum_products(((v, low[d]) for d, v in rows[c]),
                                       Context.FOURD).scale(half)
                    gamma[c][a][b] = gamma[c][b][a] = acc
        return gamma

    @cached_property
    def riemann_up(self):
        return riemann(self.christoffel)

    @cached_property
    def ricci(self):
        return ricci_trace(self.riemann_up)

    @cached_property
    def scalar(self):
        return sum_products(((self.g_inv[b][c], self.ricci[b][c])
                             for b in range(4) for c in range(4)),
                            Context.FOURD)

    @cached_property
    def riemann(self):
        R, g = self.riemann_up, self.g
        # by c, the nonzero g_ec as (e, g_ec)
        cols = [[(e, g[e][c]) for e in range(4) if g[e][c].terms]
                for c in range(4)]
        out = [[[[_Z4] * 4 for _ in range(4)] for _ in range(4)]
               for _ in range(4)]
        for a, b in itertools.combinations(range(4), 2):
            for d in range(4):
                r = R[a][b][d]
                if not any(v.terms for v in r):
                    continue
                for c in range(4):
                    out[a][b][c][d] = v = sum_products(
                        ((r[e], gec) for e, gec in cols[c]), Context.FOURD)
                    out[b][a][c][d] = -v
        return out

    @cached_property
    def weyl(self):
        g, rho, tau = self.g, self.ricci, self.scalar
        sixth = Scalar(Fraction(1, 6))
        half = Scalar(Fraction(1, 2))
        P = [[(rho[a][b] - product(tau, g[a][b]).scale(sixth)).scale(half)
              for b in range(4)] for a in range(4)]
        minus_P = [[-v for v in row] for row in P]
        Rm = self.riemann
        W = [[[[_Z4] * 4 for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
        for a, b in itertools.combinations(range(4), 2):
            for c in range(4):
                for d in range(4):
                    W[a][b][c][d] = w = Rm[a][b][c][d] + sum_products(
                        ((g[a][c], minus_P[b][d]), (g[a][d], P[b][c]),
                         (g[b][d], minus_P[a][c]), (g[b][c], P[a][d])),
                        Context.FOURD)
                    W[b][a][c][d] = -w
        return W

    # -- derived checks -------------------------------------------------------
    def ricci_is_symmetric(self) -> bool:
        return all(self.ricci[a][b] == self.ricci[b][a]
                   for a in range(4) for b in range(4))

    def first_bianchi_zero(self) -> bool:
        R = self.riemann_up
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        s = R[a][b][c][d] + R[b][c][a][d] + R[c][a][b][d]
                        if not s.is_zero():
                            return False
        return True

    def weyl_trace_residuals(self):
        """All metric traces of the Weyl tensor (exact functions)."""
        return [sum_products(((self.g_inv[a][c], self.weyl[a][b][c][d])
                              for a in range(4) for c in range(4)),
                             Context.FOURD)
                for b in range(4) for d in range(4)]

    # -- two-form machinery ---------------------------------------------------
    def star_operator(self):
        """Hodge star on 2-forms for orientation dx1^dx2^dy1^dy2 (det g = 1)."""
        ginv = self.g_inv
        return [[sum_products(((ginv[e][c].scale(_EPS[(a, b, e, f)]),
                                ginv[f][d])
                               for e in range(4) for f in range(4)
                               if (a, b, e, f) in _EPS
                               and not (ginv[e][c].is_zero()
                                        or ginv[f][d].is_zero())),
                              Context.FOURD)
                 for c, d in _PAIRS] for a, b in _PAIRS]

    def weyl_operator(self):
        """Weyl acting on the 2-form basis (indices raised with g^{-1})."""
        W, ginv = self.weyl, self.g_inv
        # by 2-form (a, b), the nonzero W_abef as (e, f, W_abef)
        rows = [[(e, f, w) for e in range(4) for f, w in enumerate(W[a][b][e])
                 if w.terms] for a, b in _PAIRS]
        if not any(rows):
            return [[_Z4] * 6 for _ in range(6)]
        # g^{ec} g^{fd}, once for every (e, f) that some row needs
        used = {(e, f) for row in rows for e, f, _ in row}
        raised = {(e, f, c, d): product(ginv[e][c], ginv[f][d])
                  for e, f in used for c, d in _PAIRS}
        return [[sum_products(((w, raised[e, f, c, d]) for e, f, w in row),
                              Context.FOURD)
                 for c, d in _PAIRS] for row in rows]

    def weyl_halves(self):
        """(self-dual half, anti-self-dual half) as 6x6 function matrices."""
        wop = self.weyl_operator()
        if not any(v.terms for row in wop for v in row):
            return ([[_Z4] * 6 for _ in range(6)],
                    [[_Z4] * 6 for _ in range(6)])
        star = self.star_operator()
        halves = []
        half_id = _ONE4.scale(Scalar(Fraction(1, 2)))
        for sign in (1, -1):
            proj = [[(star[i][j].scale(Scalar(Fraction(sign, 2)))
                      + (half_id if i == j else _Z4))
                     for j in range(6)] for i in range(6)]
            half = _matmul6(proj, _matmul6(wop, proj))
            halves.append(half)
        return halves[0], halves[1]

    def weyl_half_norms(self, point) -> tuple:
        plus, minus = self.weyl_halves()
        return (_frobenius(plus, point), _frobenius(minus, point))


def _matmul6(a, b):
    out = []
    for row in a:
        nonzero = [(k, v) for k, v in enumerate(row) if v.terms]
        out.append([sum_products(((v, b[k][j]) for k, v in nonzero),
                                 Context.FOURD) for j in range(6)])
    return out


def _frobenius(matrix, point) -> float:
    total = 0.0
    for row in matrix:
        for entry in row:
            if entry.is_zero():
                continue
            total += abs(entry.eval(point)) ** 2
    return math.sqrt(total)


def curvature4(metric: ExtensionMetric) -> CurvaturePack4:
    """Curvature package for an extension metric; its tensors are built on
    first use."""
    return CurvaturePack4(metric.g, metric.g_inv)


# -- helpers on functions ---------------------------------------------------

def gradient_norm_sq(metric_or_pack, F: AnsatzFunction) -> AnsatzFunction:
    ginv = metric_or_pack.g_inv
    d = [F.derive(a + 1) for a in range(4)]
    return sum_products(((ginv[a][b], product(d[a], d[b]))
                         for a in range(4) for b in range(4)
                         if not (ginv[a][b].is_zero() or d[a].is_zero()
                                 or d[b].is_zero())), Context.FOURD)


def default_probe_points(seed: int = 0, count: int = 10) -> list:
    """Deterministic probes in [1,2] x [-1,1] x [-1,1]^2 (safe for Type B)."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(Point((rng.uniform(1.0, 2.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))))
    return pts


# -- theorem verification -----------------------------------------------------

def verify_theorem_1_1(conn: AffineConnection2, phi, mu, f: AnsatzFunction,
                       points=None,
                       metric: ExtensionMetric | None = None
                       ) -> VerificationReport:
    """Check the quasi-Einstein package of the extension metric.

    `metric` is `build_extension(conn, phi)` when the caller has built it
    already; otherwise it is built here, once the precondition holds.

    (i) quasi-Einstein with lambda = 0 and bundle eigenvalue mu/2 (for
    mu != 0 via the equivalent exact linear identity H_g(pi*f) =
    (mu/2)(pi*f) rho_g, plus the literal nonlinear residual at the probes);
    (ii) structural isotropy |dF|^2 = 0; (iii) the distinguished Weyl half
    vanishes; (iv) rho_g = 2 pi* rho_s.
    """
    mu = Fraction(mu)
    if points is None:
        points = default_probe_points()
    report = VerificationReport([], {
        "mu": str(mu), "mu_cotangent": str(Fraction(mu, 2)), "lambda": 0,
        "kind": conn.kind})
    pre = 0.0 if is_solution(conn, mu, f) else 1.0
    report.add("precondition_qe_residual", pre, 0.0)
    if pre:
        return report
    if metric is None:
        metric = build_extension(conn, phi)
    pack = curvature4(metric)
    w = to_bundle(f)

    # (iv) first: rho_g = 2 pi* rho_s
    rho_s = ricci(conn).rho_s
    worst = 0.0
    for a in range(4):
        for b in range(4):
            want = (to_bundle(rho_s[a][b]).scale(2)
                    if a < 2 and b < 2 else _Z4)
            if pack.ricci[a][b] != want:
                worst = 1.0
    report.add("ricci_equals_2_pullback", worst, 0.0)

    # (i) quasi-Einstein
    half_mu = Scalar(Fraction(mu, 2))
    hw = hessian(pack.christoffel, w)
    sym_ok = all(
        (hw[a][b] - product(w, pack.ricci[a][b]).scale(half_mu)).is_zero()
        for a in range(4) for b in range(4))
    report.add("quasi_einstein_symbolic", 0.0 if sym_ok else 1.0, 0.0)
    if mu == 0:
        report.add("quasi_einstein_numeric", 0.0 if sym_ok else 1.0, 1e-10)
    else:
        report.add("quasi_einstein_numeric", potential_residual_at(
            w, hw, pack.ricci, mu, points, "pi*f"), 1e-8)

    # (ii) isotropy, structural
    iso = gradient_norm_sq(metric, w)
    report.add("isotropy_grad_norm", 0.0 if iso.is_zero() else 1.0, 0.0)

    # (iii) distinguished Weyl half
    plus, minus = pack.weyl_halves()
    vanishing = minus if VANISHING_WEYL_SIGN < 0 else plus
    if all(v.is_zero() for row in vanishing for v in row):
        worst = 0.0
    else:
        worst = max(_frobenius(vanishing, p) for p in points)
    report.add("weyl_half", worst, 1e-8)
    report.metadata["vanishing_half"] = (
        "anti-self-dual" if VANISHING_WEYL_SIGN < 0 else "self-dual")
    return report


def conformal_einstein_residual(metric: ExtensionMetric, f: AnsatzFunction,
                                points) -> float:
    """Trace-free Einstein residual of e^{-fhat} g for a mu = -1 solution f.

    The conformal factor e^{-fhat} = (pi*f)^{-2} stays inside the algebra for
    single-term solutions (a power of x1, or a single exponential).
    """
    if not is_solution(metric.conn, Fraction(-1), f):
        raise ExtensionError("conformal factor needs a mu = -1 solution")
    if len(f.terms) != 1:
        raise ExtensionError("conformal factor leaves the algebra for "
                             "multi-term solutions")
    t = f.terms[0]
    if t.logdeg or t.deg2:
        raise ExtensionError("conformal factor leaves the algebra for "
                             "log or x2 dependent solutions")
    inv_sq = Term(t.coeff ** (-2), t.exp1 * Fraction(-2),
                  t.exp2 * Fraction(-2), t.pow1 * Fraction(-2), 0, 0, 0, 0)
    factor = AnsatzFunction([inv_sq], Context.FOURD)
    sq = Term(t.coeff ** 2, t.exp1 * 2, t.exp2 * 2, t.pow1 * 2, 0, 0, 0, 0)
    factor_inv = AnsatzFunction([sq], Context.FOURD)
    ghat = tuple(tuple(product(factor, metric.g[a][b]) for b in range(4))
                 for a in range(4))
    ghat_inv = tuple(tuple(product(factor_inv, metric.g_inv[a][b])
                           for b in range(4)) for a in range(4))
    pack = CurvaturePack4(ghat, ghat_inv)
    quarter = Scalar(Fraction(1, 4))
    residual = [[pack.ricci[a][b]
                 - product(pack.scalar, ghat[a][b]).scale(quarter)
                 for b in range(4)] for a in range(4)]
    if all(v.is_zero() for row in residual for v in row):
        return 0.0
    worst = 0.0
    for p in points:
        for row in residual:
            for entry in row:
                if not entry.is_zero():
                    worst = max(worst, abs(entry.eval(p)))
    return worst
