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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from .funcalg import (
    AnsatzFunction, Context, DomainError, Point, Term, constant, product,
    to_bundle,
)
from .qesolver import is_solution
from .report import VerificationReport
from .scalars import Scalar
from .surface import AffineConnection2, ricci

_Z4 = AnsatzFunction([], Context.FOURD)
_ONE4 = constant(1, Context.FOURD)

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
        z = AnsatzFunction([], context)
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
            acc = _Z4
            for c in range(4):
                acc = acc + product(metric.g[a][c], metric.g_inv[c][b])
            want = _ONE4 if a == b else _Z4
            if acc != want:
                raise ExtensionError("closed-form inverse failed")


class CurvaturePack4:
    """Levi-Civita curvature of a 4-d exact metric, all symbolic.

    Index conventions: riemann_up[a][b][c][d] stores R(e_a, e_b) e_c in the
    e_d slot; ricci[b][c] traces the first slot; riemann[a][b][c][d] is
    g(R(e_a,e_b) e_d, e_c), the ordering in which the Weyl decomposition has
    its classical form.
    """

    def __init__(self, g, g_inv):
        self.g = g
        self.g_inv = g_inv
        self.christoffel = self._christoffel()
        self.riemann_up = self._riemann_up()
        self.ricci = self._ricci()
        self.scalar = self._scalar()
        self.riemann = self._riemann_down()
        self.weyl = self._weyl()

    # -- tensors ------------------------------------------------------------
    def _christoffel(self):
        g, ginv = self.g, self.g_inv
        dg = [[[g[a][b].derive(c + 1) for c in range(4)] for b in range(4)]
              for a in range(4)]
        gamma = [[[_Z4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
        half = Scalar(Fraction(1, 2))
        for c in range(4):
            for a in range(4):
                for b in range(a, 4):
                    acc = _Z4
                    for d in range(4):
                        if ginv[c][d].is_zero():
                            continue
                        sym = dg[b][d][a] + dg[a][d][b] - dg[a][b][d]
                        if not sym.is_zero():
                            acc = acc + product(ginv[c][d], sym)
                    acc = acc.scale(half)
                    gamma[c][a][b] = acc
                    gamma[c][b][a] = acc
        return gamma

    def _riemann_up(self):
        gamma = self.christoffel
        dgamma = [[[[gamma[d][b][c].derive(a + 1) for d in range(4)]
                    for c in range(4)] for b in range(4)] for a in range(4)]
        R = [[[[_Z4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(4):
                    for d in range(4):
                        acc = dgamma[a][b][c][d] - dgamma[b][a][c][d]
                        for e in range(4):
                            if not gamma[e][b][c].is_zero():
                                acc = acc + product(gamma[e][b][c],
                                                    gamma[d][a][e])
                            if not gamma[e][a][c].is_zero():
                                acc = acc - product(gamma[e][a][c],
                                                    gamma[d][b][e])
                        R[a][b][c][d] = acc
                        R[b][a][c][d] = -acc
        return R

    def _ricci(self):
        R = self.riemann_up
        return [[sum((R[a][b][c][a] for a in range(4)), _Z4)
                 for c in range(4)] for b in range(4)]

    def _scalar(self):
        acc = _Z4
        for b in range(4):
            for c in range(4):
                if not self.g_inv[b][c].is_zero():
                    acc = acc + product(self.g_inv[b][c], self.ricci[b][c])
        return acc

    def _riemann_down(self):
        R = self.riemann_up
        out = [[[[_Z4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
               for _ in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(4):
                    for d in range(4):
                        acc = _Z4
                        for e in range(4):
                            if not (R[a][b][d][e].is_zero()
                                    or self.g[e][c].is_zero()):
                                acc = acc + product(R[a][b][d][e],
                                                    self.g[e][c])
                        out[a][b][c][d] = acc
                        out[b][a][c][d] = -acc
        return out

    def _weyl(self):
        g, rho, tau = self.g, self.ricci, self.scalar
        sixth = Scalar(Fraction(1, 6))
        half = Scalar(Fraction(1, 2))
        P = [[(rho[a][b] - product(tau, g[a][b]).scale(sixth)).scale(half)
              for b in range(4)] for a in range(4)]
        W = [[[[_Z4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(4):
                    for d in range(4):
                        acc = self.riemann[a][b][c][d]
                        acc = acc - product(g[a][c], P[b][d])
                        acc = acc + product(g[a][d], P[b][c])
                        acc = acc - product(g[b][d], P[a][c])
                        acc = acc + product(g[b][c], P[a][d])
                        W[a][b][c][d] = acc
                        W[b][a][c][d] = -acc
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
        out = []
        for b in range(4):
            for d in range(4):
                acc = _Z4
                for a in range(4):
                    for c in range(4):
                        if not self.g_inv[a][c].is_zero():
                            acc = acc + product(self.g_inv[a][c],
                                                self.weyl[a][b][c][d])
                out.append(acc)
        return out

    # -- two-form machinery ---------------------------------------------------
    def star_operator(self):
        """Hodge star on 2-forms for orientation dx1^dx2^dy1^dy2 (det g = 1)."""
        eps = _levi_civita()
        star = [[_Z4 for _ in range(6)] for _ in range(6)]
        for i, (a, b) in enumerate(_PAIRS):
            for j, (c, d) in enumerate(_PAIRS):
                acc = _Z4
                for e in range(4):
                    for f in range(4):
                        sign = eps.get((a, b, e, f))
                        if sign is None:
                            continue
                        if self.g_inv[e][c].is_zero() or \
                                self.g_inv[f][d].is_zero():
                            continue
                        term = product(self.g_inv[e][c], self.g_inv[f][d])
                        acc = acc + (term.scale(sign))
                star[i][j] = acc
        return star

    def weyl_operator(self):
        """Weyl acting on the 2-form basis (indices raised with g^{-1})."""
        op = [[_Z4 for _ in range(6)] for _ in range(6)]
        for i, (a, b) in enumerate(_PAIRS):
            for j, (c, d) in enumerate(_PAIRS):
                acc = _Z4
                for e in range(4):
                    for f in range(4):
                        if self.weyl[a][b][e][f].is_zero():
                            continue
                        if self.g_inv[e][c].is_zero() or \
                                self.g_inv[f][d].is_zero():
                            continue
                        acc = acc + product(
                            self.weyl[a][b][e][f],
                            product(self.g_inv[e][c], self.g_inv[f][d]))
                op[i][j] = acc
        return op

    def weyl_halves(self):
        """(self-dual half, anti-self-dual half) as 6x6 function matrices."""
        star = self.star_operator()
        wop = self.weyl_operator()
        halves = []
        for sign in (1, -1):
            proj = [[(star[i][j].scale(Scalar(Fraction(sign, 2)))
                      + (_ONE4.scale(Scalar(Fraction(1, 2)))
                         if i == j else _Z4))
                     for j in range(6)] for i in range(6)]
            half = _matmul6(proj, _matmul6(wop, proj))
            halves.append(half)
        return halves[0], halves[1]

    def weyl_half_norms(self, point) -> tuple:
        plus, minus = self.weyl_halves()
        return (_frobenius(plus, point), _frobenius(minus, point))


def _matmul6(a, b):
    out = [[_Z4 for _ in range(6)] for _ in range(6)]
    for i in range(6):
        for j in range(6):
            acc = _Z4
            for k in range(6):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = acc + product(a[i][k], b[k][j])
            out[i][j] = acc
    return out


def _frobenius(matrix, point) -> float:
    total = 0.0
    for row in matrix:
        for entry in row:
            if entry.is_zero():
                continue
            total += abs(entry.eval(point)) ** 2
    return math.sqrt(total)


def _levi_civita():
    import itertools

    eps = {}
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        eps[tuple(perm)] = sign
    return eps


def curvature4(metric: ExtensionMetric) -> CurvaturePack4:
    """Curvature package for an extension metric (all tensors symbolic)."""
    return CurvaturePack4(metric.g, metric.g_inv)


# -- helpers on functions ---------------------------------------------------

def hessian4(pack: CurvaturePack4, F: AnsatzFunction):
    d = [F.derive(a + 1) for a in range(4)]
    out = [[_Z4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            acc = d[a].derive(b + 1)
            for c in range(4):
                if not pack.christoffel[c][a][b].is_zero():
                    acc = acc - product(pack.christoffel[c][a][b], d[c])
            out[a][b] = acc
            out[b][a] = acc
    return out


def gradient_norm_sq(metric_or_pack, F: AnsatzFunction) -> AnsatzFunction:
    ginv = metric_or_pack.g_inv
    d = [F.derive(a + 1) for a in range(4)]
    acc = _Z4
    for a in range(4):
        for b in range(4):
            if ginv[a][b].is_zero() or d[a].is_zero() or d[b].is_zero():
                continue
            acc = acc + product(ginv[a][b], product(d[a], d[b]))
    return acc


def laplacian(pack: CurvaturePack4, F: AnsatzFunction) -> AnsatzFunction:
    H = hessian4(pack, F)
    acc = _Z4
    for a in range(4):
        for b in range(4):
            if not pack.g_inv[a][b].is_zero():
                acc = acc + product(pack.g_inv[a][b], H[a][b])
    return acc


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
                       points=None) -> VerificationReport:
    """Check the quasi-Einstein package of the extension metric.

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
    if mu == 0:
        hf = hessian4(pack, w)
        sym_ok = all(hf[a][b].is_zero() for a in range(4) for b in range(4))
        report.add("quasi_einstein_symbolic", 0.0 if sym_ok else 1.0, 0.0)
        report.add("quasi_einstein_numeric", 0.0 if sym_ok else 1.0, 1e-10)
    else:
        half_mu = Scalar(Fraction(mu, 2))
        hw = hessian4(pack, w)
        sym_ok = True
        for a in range(4):
            for b in range(4):
                lhs = hw[a][b] - product(w, pack.ricci[a][b]).scale(half_mu)
                if not lhs.is_zero():
                    sym_ok = False
        report.add("quasi_einstein_symbolic", 0.0 if sym_ok else 1.0, 0.0)
        report.add("quasi_einstein_numeric",
                   _nonlinear_residual(pack, w, mu, points), 1e-8)

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


def _nonlinear_residual(pack: CurvaturePack4, w: AnsatzFunction, mu: Fraction,
                        points) -> float:
    """Literal residual H_g F + rho_g - (mu/2) dF x dF at probes,
    F = -(2/mu) log(pi*f)."""
    dw = [w.derive(a + 1) for a in range(4)]
    hw = hessian4(pack, w)
    worst = 0.0
    for p in points:
        wv = w.eval(p)
        if abs(wv.imag) > 1e-12 or wv.real <= 0:
            raise DomainError(f"pi*f must be positive at probe {p}")
        wv = wv.real
        grad = [dw[a].eval(p) for a in range(4)]
        fgrad = [(-2 / mu) * grad[a] / wv for a in range(4)]
        for a in range(4):
            for b in range(4):
                hab = hw[a][b].eval(p)
                hf = (-2 / mu) * (hab / wv - grad[a] * grad[b] / wv ** 2)
                # hessian4 already subtracted the Christoffel part of w;
                # convert to the Hessian of F exactly:
                val = (hf + pack.ricci[a][b].eval(p)
                       - Fraction(mu, 2) * fgrad[a] * fgrad[b])
                worst = max(worst, abs(val))
    return worst


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
