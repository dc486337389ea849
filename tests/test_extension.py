import itertools
import random
from fractions import Fraction

import pytest

from affineqe.extension import (
    CurvaturePack4, DeformationTensor, ExtensionError, build_extension,
    conformal_einstein_residual, curvature4, default_probe_points,
    gradient_norm_sq, verify_theorem_1_1, _conformal_trace_free_ricci,
    _frobenius,
)
from affineqe.funcalg import (
    _ZEROS, AnsatzFunction, Context, Point, Term, constant, contracted_ricci,
    exp_linear, monomial, product, sum_products, to_bundle,
)
from affineqe.scalars import Scalar, roots_of_monic
from affineqe.surface import AffineConnection2, ricci
from dense_reference import _dot, dense_ricci, dense_riemann_up

A2 = AffineConnection2.type_a(c121=2, c222=1)
HYPERBOLIC = AffineConnection2.type_b(c111=-1, c122=-1, c221=1)
NONSYM = AffineConnection2.type_b(c121=1, c222=1, c122=1)
POINTS = default_probe_points()


# -- reference checks on a CurvaturePack4 ------------------------------------

def ricci_is_symmetric(pack) -> bool:
    return all(pack.ricci[a][b] == pack.ricci[b][a]
               for a in range(4) for b in range(4))


def first_bianchi_zero(pack) -> bool:
    """R(e_a,e_b)e_c + R(e_b,e_c)e_a + R(e_c,e_a)e_b = 0, read in the lowered
    tensor riemann[a][b][e][c] = g(R(e_a,e_b)e_c, e_e)."""
    Rm = pack.riemann
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for e in range(4):
                    s = Rm[a][b][e][c] + Rm[b][c][e][a] + Rm[c][a][e][b]
                    if not s.is_zero():
                        return False
    return True


def weyl_trace_residuals(pack):
    """All metric traces of the Weyl tensor (exact functions)."""
    return [sum_products(((pack.g_inv[a][c], pack.weyl[a][b][c][d])
                          for a in range(4) for c in range(4)),
                         Context.FOURD)
            for b in range(4) for d in range(4)]


def test_build_extension_values():
    m = build_extension(A2)
    p = Point((0.0, 0.0, 1.0, 1.0))
    mat = m.eval_matrix(p)
    assert mat[0][1] == pytest.approx(-4.0)  # -2 y1 Gamma_12^1
    assert mat[1][1] == pytest.approx(-2.0)  # -2 y2 Gamma_22^2
    assert mat[0][0] == pytest.approx(0.0)
    assert mat[0][2] == pytest.approx(1.0)
    assert mat[2][2] == pytest.approx(0.0)


def test_flat_extension_is_flat():
    m = build_extension(AffineConnection2.type_a())
    pack = curvature4(m)
    assert all(pack.riemann[a][b][c][d].is_zero()
               for a in range(4) for b in range(4)
               for c in range(4) for d in range(4))
    assert all(v.is_zero() for x in dense_riemann_up(pack.christoffel)
               for y in x for z in y for v in z)


def test_signature_2_2():
    m = build_extension(A2)
    for p in POINTS[:3]:
        mat = [[v.real for v in row] for row in m.eval_matrix(p)]
        # characteristic signs via leading principal minors is unreliable for
        # indefinite metrics; count eigenvalue signs numerically instead
        eig = _eigenvalues_sym(mat)
        assert sum(1 for e in eig if e > 0) == 2
        assert sum(1 for e in eig if e < 0) == 2


def _eigenvalues_sym(mat):
    # Jacobi rotations, enough for a 4x4 symmetric real matrix
    import math

    n = 4
    a = [row[:] for row in mat]
    for _ in range(60):
        off = max((abs(a[i][j]), i, j) for i in range(n) for j in range(n)
                  if i != j)
        if off[0] < 1e-12:
            break
        _, i, j = off
        if abs(a[i][i] - a[j][j]) < 1e-300:
            theta = math.pi / 4
        else:
            theta = 0.5 * math.atan2(2 * a[i][j], a[i][i] - a[j][j])
        c, s = math.cos(theta), math.sin(theta)
        for k in range(n):
            aik, ajk = a[i][k], a[j][k]
            a[i][k] = c * aik + s * ajk
            a[j][k] = -s * aik + c * ajk
        for k in range(n):
            aki, akj = a[k][i], a[k][j]
            a[k][i] = c * aki + s * akj
            a[k][j] = -s * aki + c * akj
    return [a[i][i] for i in range(n)]


def test_hyperbolic_extension_with_phi():
    phi = DeformationTensor(monomial(Context.TYPE_B, x2=1),
                            constant(0, Context.TYPE_B).scale(0),
                            constant(0, Context.TYPE_B).scale(0))
    m = build_extension(HYPERBOLIC, phi)
    mat = m.eval_matrix(Point((1.0, 0.0, 0.0, 0.0)))
    assert mat[0][0] == pytest.approx(0.0)  # Phi_11 = x2 vanishes at x2 = 0
    assert mat[0][1] == pytest.approx(0.0)


def test_ricci_pullback_identity():
    rng = random.Random(3)
    for _ in range(6):
        kind = rng.choice(["A", "B"])
        coeffs = [rng.randint(-2, 2) for _ in range(6)]
        conn = AffineConnection2(kind, tuple(coeffs))
        ctx = conn.context
        phi = DeformationTensor(
            monomial(ctx, coeff=rng.randint(-2, 2), pow1=rng.randint(0, 2)),
            monomial(ctx, coeff=rng.randint(-2, 2), x2=rng.randint(0, 2)),
            monomial(ctx, coeff=rng.randint(-2, 2), pow1=1, x2=1))
        pack = curvature4(build_extension(conn, phi))
        rho_s = ricci(conn).rho_s
        for a in range(4):
            for b in range(4):
                want = (to_bundle(rho_s[a][b]).scale(2)
                        if a < 2 and b < 2
                        else constant(0, Context.FOURD).scale(0))
                assert pack.ricci[a][b] == want
        assert ricci_is_symmetric(pack)
        assert first_bianchi_zero(pack)
        assert all(t.is_zero() for t in weyl_trace_residuals(pack))
        # the same (anti-self-dual) half vanishes for every instance
        _, minus = pack.weyl_halves()
        assert all(v.is_zero() for row in minus for v in row)


def test_isotropy_structural():
    m = build_extension(NONSYM)
    f = monomial(Context.TYPE_B, pow1=1, x2=2) + monomial(Context.TYPE_B, log=1)
    assert gradient_norm_sq(m, to_bundle(f)).is_zero()


def test_weyl_remark_cases():
    # Type A with Phi = 0: whole Weyl vanishes
    pack = curvature4(build_extension(A2))
    assert all(pack.weyl[a][b][c][d].is_zero()
               for a in range(4) for b in range(4)
               for c in range(4) for d in range(4))
    # Type A with Phi_11 = (x2)^2: self-dual half survives
    phi = DeformationTensor(monomial(Context.TYPE_A, x2=2),
                            constant(0, Context.TYPE_A).scale(0),
                            constant(0, Context.TYPE_A).scale(0))
    pack = curvature4(build_extension(A2, phi))
    plus, minus = pack.weyl_halves()
    assert all(v.is_zero() for row in minus for v in row)
    assert max(_frobenius(plus, p) for p in POINTS) > 1e-3
    # non-projectively-flat Type B keeps a nonzero half for Phi = 0 too
    pack = curvature4(build_extension(NONSYM))
    plus, minus = pack.weyl_halves()
    assert all(v.is_zero() for row in minus for v in row)
    assert max(_frobenius(plus, p) for p in POINTS) > 1e-3


def test_verify_theorem_1_1_a2():
    report = verify_theorem_1_1(A2, DeformationTensor.zero(Context.TYPE_A),
                                Fraction(-1), exp_linear(0, 2), POINTS)
    assert report.passed
    names = {c.name: c for c in report.checks}
    assert names["quasi_einstein_symbolic"].max_residual == 0.0
    assert names["ricci_equals_2_pullback"].max_residual == 0.0
    assert names["quasi_einstein_numeric"].max_residual <= 1e-8
    assert report.metadata["mu_cotangent"] == "-1/2"


def test_verify_theorem_1_1_type_b_any_phi():
    rng = random.Random(11)
    phi = DeformationTensor(
        monomial(Context.TYPE_B, coeff=rng.randint(-2, 2), pow1=2),
        monomial(Context.TYPE_B, coeff=rng.randint(-2, 2), pow1=1, x2=1),
        monomial(Context.TYPE_B, coeff=rng.randint(-2, 2), x2=2))
    f = monomial(Context.TYPE_B, pow1=1)
    report = verify_theorem_1_1(NONSYM, phi, Fraction(-1), f, POINTS)
    assert report.passed
    assert report.metadata["mu_cotangent"] == "-1/2"


def test_verify_theorem_1_1_flat_trivial():
    flat = AffineConnection2.type_a()
    report = verify_theorem_1_1(flat, DeformationTensor.zero(Context.TYPE_A),
                                Fraction(2), constant(1, Context.TYPE_A),
                                POINTS)
    assert report.passed


def test_verify_precondition_failure_reported():
    bad = exp_linear(0, 1)  # not in E(-1, A2)
    report = verify_theorem_1_1(A2, DeformationTensor.zero(Context.TYPE_A),
                                Fraction(-1), bad, POINTS)
    assert not report.passed
    assert report.checks[0].name == "precondition_qe_residual"
    assert not report.checks[0].passed


def test_conformal_einstein_hyperbolic():
    m = build_extension(HYPERBOLIC)
    f = monomial(Context.TYPE_B, pow1=-1)
    assert conformal_einstein_residual(m, f, POINTS) <= 1e-8


def test_conformal_einstein_t115_any_phi():
    phi = DeformationTensor(
        monomial(Context.TYPE_B, coeff=2, pow1=1),
        monomial(Context.TYPE_B, coeff=-1, x2=1),
        monomial(Context.TYPE_B, coeff=3, pow1=2, x2=2))
    m = build_extension(NONSYM, phi)
    f = monomial(Context.TYPE_B, pow1=1)
    assert conformal_einstein_residual(m, f, POINTS) <= 1e-8


def test_power_log_deformation():
    from fractions import Fraction

    phi = DeformationTensor(
        monomial(Context.TYPE_B, coeff=2, pow1=Fraction(1, 2), log=1),
        monomial(Context.TYPE_B, coeff=-1, pow1=1, x2=1),
        monomial(Context.TYPE_B, coeff=3, log=2))
    f = monomial(Context.TYPE_B, pow1=1)
    report = verify_theorem_1_1(NONSYM, phi, Fraction(-1), f, POINTS)
    assert report.passed
    assert conformal_einstein_residual(build_extension(NONSYM, phi), f,
                                       POINTS) <= 1e-8


def test_conformal_einstein_flat():
    m = build_extension(AffineConnection2.type_a())
    f = constant(1, Context.TYPE_A)
    assert conformal_einstein_residual(m, f, POINTS) == 0.0


def test_conformal_requires_mu_minus_one():
    m = build_extension(A2)
    with pytest.raises(ExtensionError):
        conformal_einstein_residual(m, exp_linear(0, 1), POINTS)


def test_weyl_dichotomy_sweep():
    # undeformed extensions: conformally flat iff the base is strongly
    # projectively flat; otherwise exactly the distinguished half dies
    from affineqe.surface import is_strongly_projectively_flat

    rng = random.Random(321)
    checked = 0
    while checked < 10:
        conn = AffineConnection2.type_b(*[rng.randint(-2, 2)
                                          for _ in range(6)])
        if ricci(conn).is_flat:
            continue
        pack = curvature4(build_extension(conn))
        full_zero = all(pack.weyl[a][b][c][d].is_zero()
                        for a in range(4) for b in range(4)
                        for c in range(4) for d in range(4))
        if is_strongly_projectively_flat(conn):
            assert full_zero
        else:
            plus, minus = pack.weyl_halves()
            assert all(v.is_zero() for row in minus for v in row)
            assert max(_frobenius(plus, p) for p in POINTS) > 1e-6
        checked += 1


def test_fiber_distribution_parallel():
    # Levi-Civita symbols never map the fiber span back into x-directions
    for conn in (A2, NONSYM):
        pack = curvature4(build_extension(conn))
        for a in range(4):
            for yi in (2, 3):
                for xj in (0, 1):
                    assert pack.christoffel[xj][a][yi].is_zero()


# -- dense reference: every tensor entry from every index, no zero skipped --

FOURD = Context.FOURD
ZERO4 = AnsatzFunction([], FOURD)
REF_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
REF_EPS = {p: (-1) ** sum(p[i] > p[j] for i in range(4)
                          for j in range(i + 1, 4))
           for p in itertools.permutations(range(4))}


def dense_first_kind(g):
    dg = [[[g[a][b].derive(c + 1) for c in range(4)] for b in range(4)]
          for a in range(4)]
    return [[[(dg[b][d][a] + dg[a][d][b] - dg[a][b][d]).scale(Fraction(1, 2))
              for b in range(4)] for a in range(4)] for d in range(4)]


def dense_christoffel(g, ginv):
    dg = [[[g[a][b].derive(c + 1) for c in range(4)] for b in range(4)]
          for a in range(4)]
    return [[[_dot((ginv[c][d], dg[b][d][a] + dg[a][d][b] - dg[a][b][d])
                   for d in range(4)).scale(Fraction(1, 2))
              for b in range(4)] for a in range(4)] for c in range(4)]


def dense_lowered(R, g):
    return [[[[_dot((R[a][b][d][e], g[e][c]) for e in range(4))
               for d in range(4)] for c in range(4)] for b in range(4)]
            for a in range(4)]


def dense_weyl(g, ginv, Rm, rho):
    tau = _dot((ginv[b][c], rho[b][c]) for b in range(4) for c in range(4))
    P = [[(rho[a][b] - product(tau, g[a][b]).scale(Fraction(1, 6)))
          .scale(Fraction(1, 2)) for b in range(4)] for a in range(4)]
    return [[[[Rm[a][b][c][d] + _dot(((g[a][c], -P[b][d]), (g[a][d], P[b][c]),
                                      (g[b][d], -P[a][c]), (g[b][c], P[a][d])))
               for d in range(4)] for c in range(4)] for b in range(4)]
            for a in range(4)]


def dense_star(ginv):
    return [[_dot((ginv[e][c].scale(REF_EPS[(a, b, e, f)]), ginv[f][d])
                  for e in range(4) for f in range(4)
                  if (a, b, e, f) in REF_EPS)
             for c, d in REF_PAIRS] for a, b in REF_PAIRS]


def dense_weyl_operator(W, ginv):
    return [[_dot((W[a][b][e][f], product(ginv[e][c], ginv[f][d]))
                  for e in range(4) for f in range(4))
             for c, d in REF_PAIRS] for a, b in REF_PAIRS]


def _matmul(x, y):
    return [[_dot((x[i][k], y[k][j]) for k in range(6)) for j in range(6)]
            for i in range(6)]


def dense_weyl_halves(star, wop):
    halves = []
    for sign in (1, -1):
        proj = [[star[i][j].scale(Fraction(sign, 2))
                 + (constant(Fraction(1, 2), FOURD) if i == j else ZERO4)
                 for j in range(6)] for i in range(6)]
        halves.append(_matmul(proj, _matmul(wop, proj)))
    return halves


def assert_pack_matches_dense(pack):
    g, ginv = pack.g, pack.g_inv
    # g g^-1 = I: `build_extension` writes g^-1 in closed form, unchecked
    assert all(_dot((g[a][c], ginv[c][b]) for c in range(4))
               == (constant(1, FOURD) if a == b else ZERO4)
               for a in range(4) for b in range(4))
    assert pack.first_kind == dense_first_kind(g)
    gamma = dense_christoffel(g, ginv)
    assert pack.christoffel == gamma
    R = dense_riemann_up(gamma)
    rho = dense_ricci(R)
    assert pack.ricci == rho
    Rm = dense_lowered(R, g)
    assert pack.riemann == Rm
    W = dense_weyl(g, ginv, Rm, rho)
    assert pack.weyl == W
    # the pair symmetry that lets the pack compute 21 blocks and fill the rest
    for T in (Rm, W):
        assert all(T[a][b][c][d] == T[c][d][a][b] for a in range(4)
                   for b in range(4) for c in range(4) for d in range(4))
    assert first_bianchi_zero(pack)
    # both are filled from the 21 blocks a < b, c < d: c = d is the zero
    for T in (pack.riemann, pack.weyl):
        assert all(T[a][b][c][c] is _ZEROS[FOURD] for a in range(4)
                   for b in range(4) for c in range(4))
    star = dense_star(ginv)
    assert pack.star_operator() == star
    wop = dense_weyl_operator(W, ginv)
    assert pack.weyl_operator() == wop
    assert list(pack.weyl_halves()) == dense_weyl_halves(star, wop)


REF_VALUES = (0, 0, Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2)


def _reference_phi(rng, ctx):
    def coeff():
        return rng.choice(REF_VALUES[2:])
    if ctx is Context.TYPE_A:
        exp = (rng.choice(REF_VALUES), rng.choice(REF_VALUES))
        return DeformationTensor(
            monomial(ctx, coeff=coeff(), exp=exp, x2=rng.randint(0, 2)),
            monomial(ctx, coeff=coeff(), x2=1)
            + monomial(ctx, coeff=coeff(), exp=(0, rng.choice((1, -2)))),
            monomial(ctx, coeff=coeff(), pow1=1, x2=rng.randint(1, 2)))
    return DeformationTensor(
        monomial(ctx, coeff=coeff(), pow1=rng.choice(REF_VALUES), x2=1),
        monomial(ctx, coeff=coeff(), x2=2)
        + monomial(ctx, coeff=coeff(), pow1=Fraction(1, 2), log=1),
        monomial(ctx, coeff=coeff(), pow1=-1, x2=rng.randint(1, 2)))


def test_curvature_matches_dense_reference():
    rng = random.Random(20261019)
    conns = [AffineConnection2.type_a(c111=1, c121=2, c122=-1, c222=1)]
    while len(conns) < 44:
        kind = "A" if len(conns) % 2 else "B"
        conns.append(AffineConnection2(
            kind, tuple(rng.choice(REF_VALUES) for _ in range(6))))
    weyl = 0
    for i, conn in enumerate(conns):
        phi = _reference_phi(rng, conn.context) if i % 3 == 2 else None
        pack = curvature4(build_extension(conn, phi))
        assert_pack_matches_dense(pack)
        weyl += any(v.terms for x in pack.weyl for y in x for z in y
                    for v in z)
    assert weyl >= 5


def test_contracted_ricci_matches_trace_on_extensions():
    """n = 4: the contraction equals the trace of the dense curvature term
    for term on extension metrics with Phi = 0 and Phi != 0 (det g = 1,
    T = 0) and on their conformal rescalings x1^2 e^{x2} g, whose T is not
    zero."""
    rng = random.Random(20261021)
    factor = monomial(FOURD, exp=(0, 1), pow1=2)
    factor_inv = monomial(FOURD, exp=(0, -1), pow1=-2)
    with_trace = 0
    for i in range(24):
        conn = AffineConnection2("AB"[i % 2], tuple(rng.choice(REF_VALUES)
                                                    for _ in range(6)))
        phi = _reference_phi(rng, conn.context) if i % 3 else None
        metric = build_extension(conn, phi)
        packs = [curvature4(metric)]
        if i % 4 == 0:
            packs.append(CurvaturePack4(
                [[product(factor, v) for v in row] for row in metric.g],
                [[product(factor_inv, v) for v in row]
                 for row in metric.g_inv]))
        for pack in packs:
            gamma = pack.christoffel
            assert contracted_ricci(gamma) == dense_ricci(
                dense_riemann_up(gamma))
            trace = [sum((gamma[a][a][c] for a in range(4)), ZERO4)
                     for c in range(4)]
            with_trace += any(t.terms for t in trace)
    assert with_trace == 6  # the six rescaled metrics


@pytest.mark.parametrize("coeffs,index", [
    ((Fraction(-1, 2), 0, 1, -2, 1, 1), 0),   # exponent in Q(i, sqrt 13)
    ((0, -2, 1, 1, -1, -2), 1),               # exponents in a cubic field
], ids=["quadratic", "cubic"])
def test_conformal_curvature_matches_dense_reference(coeffs, index):
    from affineqe.qesolver import eigenspace

    conn = AffineConnection2("A", coeffs)
    f = eigenspace(conn, -1).basis[index]
    (t,) = f.terms
    assert not t.exp2.is_gaussian_rational()
    factor = monomial(FOURD, coeff=t.coeff ** -2,
                      exp=(t.exp1 * -2, t.exp2 * -2))
    factor_inv = monomial(FOURD, coeff=t.coeff ** 2,
                          exp=(t.exp1 * 2, t.exp2 * 2))
    m = build_extension(conn)
    ghat = [[product(factor, m.g[a][b]) for b in range(4)] for a in range(4)]
    ghat_inv = [[product(factor_inv, m.g_inv[a][b]) for b in range(4)]
                for a in range(4)]
    assert_pack_matches_dense(CurvaturePack4(ghat, ghat_inv))


# -- conformal change: the law against the curvature of e^{-fhat} g ----------

def reference_conformal_residual(metric, f):
    """Trace-free Ricci tensor of e^{-fhat} g = (pi*f)^{-2} g from that
    metric's own Levi-Civita curvature, for a single-term f."""
    (t,) = f.terms
    factor = AnsatzFunction([Term(t.coeff ** -2, t.exp1 * -2, t.exp2 * -2,
                                  t.pow1 * -2)], FOURD)
    factor_inv = AnsatzFunction([Term(t.coeff ** 2, t.exp1 * 2, t.exp2 * 2,
                                      t.pow1 * 2)], FOURD)
    ghat = [[product(factor, metric.g[a][b]) for b in range(4)]
            for a in range(4)]
    ghat_inv = [[product(factor_inv, metric.g_inv[a][b]) for b in range(4)]
                for a in range(4)]
    pack = CurvaturePack4(ghat, ghat_inv)
    return [[pack.ricci[a][b]
             - product(pack.scalar, ghat[a][b]).scale(Fraction(1, 4))
             for b in range(4)] for a in range(4)]


# generators of the exponent fields: Q, Q(sqrt 3), Q(i, sqrt 7), and the
# cubic field of x^3 - x - 1 (one real and two complex embeddings)
CONFORMAL_FIELDS = {
    "rational": [Scalar(1)],
    "quadratic": (roots_of_monic([Fraction(-3), Fraction(0), Fraction(1)])
                  + roots_of_monic([Fraction(2), Fraction(1), Fraction(1)])),
    "cubic": roots_of_monic([Fraction(-1), Fraction(-1), Fraction(0),
                             Fraction(1)]),
}


def _reference_w(rng, ctx, field):
    """c x1^p e^{a1 x1 + a2 x2} (Type A) or c x1^alpha (Type B), with a1, a2
    or alpha in the field."""
    theta = rng.choice(CONFORMAL_FIELDS[field])

    def value():
        return Scalar(rng.choice(REF_VALUES)) + theta * rng.choice(
            REF_VALUES[2:])

    coeff = Scalar(rng.choice(REF_VALUES[2:]))
    if ctx is Context.TYPE_A:
        term = Term(coeff, value(), value(), Scalar(rng.randint(0, 1)))
    else:
        term = Term(coeff, pow1=value())
    return AnsatzFunction([term], ctx)


def test_conformal_law_matches_reference():
    rng = random.Random(20261020)
    draws = ([("A", field) for field in CONFORMAL_FIELDS] * 8
             + [("B", "rational"), ("B", "quadratic")] * 6)
    nonzero = 0
    for i, (kind, field) in enumerate(draws):
        conn = AffineConnection2(kind, tuple(rng.choice(REF_VALUES)
                                             for _ in range(6)))
        phi = _reference_phi(rng, conn.context) if i % 4 in (1, 2) else None
        metric = build_extension(conn, phi)
        w = _reference_w(rng, conn.context, field)
        law = _conformal_trace_free_ricci(metric, w)
        assert law == reference_conformal_residual(metric, w), (conn, w)
        nonzero += any(v.terms for row in law for v in row)
    assert len(draws) >= 30 and nonzero >= len(draws) // 2


@pytest.mark.parametrize("conn", [
    AffineConnection2.type_a(c111=2, c112=1, c221=1),   # cubic exponents
    AffineConnection2("A", (Fraction(-1, 2), 0, 1, -2, 1, 1)),  # quadratic
    A2, HYPERBOLIC, NONSYM,
], ids=["cubic", "quadratic", "A2", "hyperbolic", "nonsym"])
def test_conformal_residual_of_solutions_matches_reference(conn):
    from affineqe.qesolver import eigenspace

    rng = random.Random(5)
    single = [f for f in eigenspace(conn, -1, input_coords=True).basis
              if len(f.terms) == 1 and not (f.terms[0].logdeg
                                            or f.terms[0].deg2)]
    assert single
    for f in single:
        for phi in (None, _reference_phi(rng, conn.context)):
            metric = build_extension(conn, phi)
            ref = [v for row in reference_conformal_residual(metric, f)
                   for v in row if v.terms]
            want = max((abs(v.eval(p)) for p in POINTS for v in ref),
                       default=0.0)
            assert conformal_einstein_residual(metric, f, POINTS) == want
