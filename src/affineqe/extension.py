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
    _ZEROS, AnsatzFunction, Context, DomainError, Point, Term, _derive_terms,
    _function, _sum_product_terms, constant, contracted_ricci, hessian,
    input_object, product, sum_products, to_bundle,
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

_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
# the 21 blocks a < b, c < d, (a, b) <= (c, d) of a curvature tensor
_BLOCKS = tuple(p + q for p, q in itertools.combinations_with_replacement(
    itertools.combinations(range(4), 2), 2))


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
        return (self.phi11, self.phi12, self.phi22)[i + j]

    def context(self) -> Context:
        return self.phi11.context

    @classmethod
    def from_json(cls, data, context: Context) -> "DeformationTensor":
        keys = ("phi11", "phi12", "phi22")
        input_object(data, "a deformation", optional=keys)
        return cls(*(AnsatzFunction.from_json(data.get(k, []), context)
                     for k in keys))


@dataclass(frozen=True)
class ExtensionMetric:
    conn: AffineConnection2
    phi: DeformationTensor
    g: tuple  # 4x4 of AnsatzFunction (FOURD)
    g_inv: tuple

    def eval_matrix(self, point) -> list:
        return [[self.g[a][b].eval(point) for b in range(4)] for a in range(4)]

    @cached_property
    def _curvature(self) -> "CurvaturePack4":
        return CurvaturePack4(self.g, self.g_inv)


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
    return ExtensionMetric(conn, phi, tuple(tuple(r) for r in g),
                           tuple(tuple(r) for r in ginv))


class CurvaturePack4:
    """Levi-Civita curvature of a 4-d exact metric, all symbolic.

    Each tensor is built on first use and then kept, so a caller pays only
    for what it reads.  first_kind[d][a][b] is Gamma_{d,ab} =
    (d_a g_bd + d_b g_ad - d_d g_ab) / 2, each d_c g_ab taken once;
    christoffel[c][a][b] = g^{cd} Gamma_{d,ab} is Gamma_ab^c, the layout of
    the formulas in `funcalg`; ricci[b][c] is `contracted_ricci` of it;
    riemann[a][b][c][d] is g(R(e_a,e_b) e_d, e_c) = d_a Gamma_{c,bd}
    - d_b Gamma_{c,ad} + Gamma_ad^e Gamma_{e,bc} - Gamma_bd^e Gamma_{e,ac},
    and weyl has the same ordering, in which the Weyl decomposition is
    classical.  Both are antisymmetric in (a, b) and in (c, d) and symmetric
    under (a, b) <-> (c, d): the 21 blocks a < b, c < d, (a, b) <= (c, d)
    are computed and each sets its 8 images; c = d entries are the shared
    zero.  `hessian` keeps the Hessian of the last function asked for.
    """

    def __init__(self, g, g_inv):
        self.g = g
        self.g_inv = g_inv
        self._hessian = None  # (w, Hess w) of the last hessian(w)

    # -- tensors ------------------------------------------------------------
    @cached_property
    def first_kind(self):
        g = self.g
        # dg[a][b][c] = d_c g_ab, once for each entry of the symmetric g
        dg = [[None] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(a, 4):
                dg[a][b] = dg[b][a] = ([g[a][b].derive(c + 1)
                                        for c in range(4)]
                                       if g[a][b].terms else [_Z4] * 4)
        low = [[[None] * 4 for _ in range(4)] for _ in range(4)]
        half = Scalar(Fraction(1, 2))
        for a in range(4):
            for b in range(a, 4):
                for d in range(4):
                    low[d][a][b] = low[d][b][a] = (
                        dg[b][d][a] + dg[a][d][b] - dg[a][b][d]).scale(half)
        return low

    @cached_property
    def christoffel(self):
        low = self.first_kind
        # by c, the nonzero g^{cd} as (d, g^{cd})
        rows = [[(d, v) for d, v in enumerate(self.g_inv[c]) if v.terms]
                for c in range(4)]
        gamma = [[[_Z4] * 4 for _ in range(4)] for _ in range(4)]
        for a in range(4):
            for b in range(a, 4):
                if not any(low[d][a][b].terms for d in range(4)):
                    continue
                for c in range(4):
                    gamma[c][a][b] = gamma[c][b][a] = sum_products(
                        ((v, low[d][a][b]) for d, v in rows[c]),
                        Context.FOURD)
        return gamma

    @cached_property
    def ricci(self):
        return contracted_ricci(self.christoffel)

    @cached_property
    def scalar(self):
        return sum_products(((self.g_inv[b][c], self.ricci[b][c])
                             for b in range(4) for c in range(4)),
                            Context.FOURD)

    @cached_property
    def riemann(self):
        low, gamma = self.first_kind, self.christoffel
        minus_low = [[[-v for v in row] for row in plane] for plane in low]
        # by (i, j), the nonzero Gamma_ij^e as (e, Gamma_ij^e)
        up = [[[(e, gamma[e][i][j]) for e in range(4) if gamma[e][i][j].terms]
               for j in range(4)] for i in range(4)]
        out = [[[[_Z4] * 4 for _ in range(4)] for _ in range(4)]
               for _ in range(4)]
        for a, b, c, d in _BLOCKS:
            terms: list[Term] = []
            _derive_terms(low[c][b][d].terms, a + 1, terms)
            _derive_terms(minus_low[c][a][d].terms, b + 1, terms)
            _sum_product_terms(((v, low[e][b][c]) for e, v in up[a][d]),
                               terms)
            _sum_product_terms(((v, minus_low[e][a][c]) for e, v in up[b][d]),
                               terms)
            _fill_blocks(out, a, b, c, d, _function(terms, Context.FOURD))
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
        for a, b, c, d in _BLOCKS:
            terms = list(Rm[a][b][c][d].terms)
            _sum_product_terms(
                ((g[a][c], minus_P[b][d]), (g[a][d], P[b][c]),
                 (g[b][d], minus_P[a][c]), (g[b][c], P[a][d])), terms)
            _fill_blocks(W, a, b, c, d, _function(terms, Context.FOURD))
        return W

    def hessian(self, w: AnsatzFunction):
        """Hessian of w for this metric, `funcalg.hessian` on its
        Christoffel symbols, kept for the last w."""
        last = self._hessian
        if last is None or last[0] != w:
            last = self._hessian = (w, hessian(self.christoffel, w))
        return last[1]

    # -- two-form machinery ---------------------------------------------------
    def star_operator(self):
        """Hodge star on 2-forms for orientation dx1^dx2^dy1^dy2 (det g = 1)."""
        ginv = self.g_inv
        return [[sum_products(((ginv[e][c].scale(_EPS[(a, b, e, f)]),
                                ginv[f][d])
                               for e in range(4) for f in range(4)
                               if (a, b, e, f) in _EPS),
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
            halves.append(_matmul6(proj, _matmul6(wop, proj)))
        return halves[0], halves[1]

    def weyl_half_norms(self, point) -> tuple:
        plus, minus = self.weyl_halves()
        return (_frobenius(plus, point), _frobenius(minus, point))


def _fill_blocks(T, a, b, c, d, v) -> None:
    """Set T[a][b][c][d] = v and its 7 images under the symmetries of a
    curvature tensor; a zero v leaves the shared zero in place."""
    if v.terms:
        minus_v = -v
        T[a][b][c][d] = T[b][a][d][c] = T[c][d][a][b] = T[d][c][b][a] = v
        T[a][b][d][c] = T[b][a][c][d] = T[c][d][b][a] = T[d][c][a][b] = minus_v


def _matmul6(a, b):
    out = []
    for row in a:
        nonzero = [(k, v) for k, v in enumerate(row) if v.terms]
        out.append([sum_products(((v, b[k][j]) for k, v in nonzero),
                                 Context.FOURD) for j in range(6)])
    return out


def _frobenius(matrix, point) -> float:
    total = 0.0
    try:
        for row in matrix:
            for entry in row:
                total += abs(entry.eval(point)) ** 2
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise DomainError(f"Weyl half norm out of float range at {point}")
    return math.sqrt(total)


def curvature4(metric: ExtensionMetric) -> CurvaturePack4:
    """Curvature package of an extension metric: one per metric, whose
    tensors are built on first use."""
    return metric._curvature


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
    return [Point((rng.uniform(1.0, 2.0), rng.uniform(-1.0, 1.0),
                   rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            for _ in range(count)]


# -- theorem verification -----------------------------------------------------

def verify_theorem_1_1(metric: ExtensionMetric, mu, f: AnsatzFunction,
                       points=None) -> VerificationReport:
    """Check the quasi-Einstein package of the extension metric over the
    surface solution f of H f = mu f rho_s on `metric.conn`.

    (i) quasi-Einstein with lambda = 0 and bundle eigenvalue mu/2 (for
    mu != 0 via the equivalent exact linear identity H_g(pi*f) =
    (mu/2)(pi*f) rho_g, plus the literal nonlinear residual at the probes);
    (ii) structural isotropy |dF|^2 = 0; (iii) the distinguished Weyl half
    vanishes; (iv) rho_g = 2 pi* rho_s.
    """
    mu = Fraction(mu)
    conn = metric.conn
    if points is None:
        points = default_probe_points()
    report = VerificationReport([], {
        "mu": str(mu), "mu_cotangent": str(Fraction(mu, 2)), "lambda": 0,
        "kind": conn.kind})
    pre = 0.0 if is_solution(conn, mu, f) else 1.0
    report.add("precondition_qe_residual", pre, 0.0)
    if pre:
        return report
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
    hw = pack.hessian(w)
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

    # (iii) distinguished Weyl half.  Orientation dx1 ^ dx2 ^ dy1 ^ dy2;
    # with this choice the *anti-self-dual* half (projector (1 - star)/2) is
    # the one that vanishes for every extension metric.
    _, vanishing = pack.weyl_halves()
    if all(v.is_zero() for row in vanishing for v in row):
        worst = 0.0
    else:
        worst = max(_frobenius(vanishing, p) for p in points)
    report.add("weyl_half", worst, 1e-8)
    report.metadata["vanishing_half"] = "anti-self-dual"
    return report


def conformal_einstein_residual(metric: ExtensionMetric, f: AnsatzFunction,
                                points) -> float:
    """Trace-free Einstein residual of e^{-fhat} g for a mu = -1 solution f.

    With w = pi*f the conformal factor is e^{-fhat} = w^{-2}, so the metric
    is ghat = e^{2 sigma} g with sigma = -log w.  In dimension 4 the
    trace-free part of Ric(ghat) is the g-trace-free part of
    Ric_g - 2 (Hess_g sigma - d sigma x d sigma) = Ric_g + 2 Hess_g(w) / w,
    so the residual reads the curvature of g from `curvature4(metric)` and
    builds no curvature of ghat.  1/w stays inside the algebra for
    single-term solutions (a power of x1, or a single exponential).
    """
    if not is_solution(metric.conn, Fraction(-1), f):
        raise ExtensionError("conformal factor needs a mu = -1 solution")
    entries = [v for row in _conformal_trace_free_ricci(metric, f)
               for v in row if not v.is_zero()]
    worst = 0.0
    for p in points:
        for entry in entries:
            worst = max(worst, abs(entry.eval(p)))
    return worst


def _conformal_trace_free_ricci(metric: ExtensionMetric, f: AnsatzFunction):
    """The g-trace-free part of Ric_g + 2 Hess_g(w) / w, w = pi*f, exactly."""
    if len(f.terms) != 1:
        raise ExtensionError("conformal factor leaves the algebra for "
                             "multi-term solutions")
    t = f.terms[0]
    if t.logdeg or t.deg2:
        raise ExtensionError("conformal factor leaves the algebra for "
                             "log or x2 dependent solutions")
    pack = curvature4(metric)
    inverse = AnsatzFunction([Term(t.coeff.inverse(), -t.exp1, -t.exp2,
                                   -t.pow1)], Context.FOURD)
    hw = pack.hessian(to_bundle(f))
    x = [[pack.ricci[a][b] + product(inverse, hw[a][b]).scale(2)
          for b in range(4)] for a in range(4)]
    trace = sum_products(((metric.g_inv[a][b], x[a][b])
                          for a in range(4) for b in range(4)), Context.FOURD)
    quarter = Scalar(Fraction(1, 4))
    return [[x[a][b] - product(trace, metric.g[a][b]).scale(quarter)
             for b in range(4)] for a in range(4)]
