from fractions import Fraction

import pytest

from affineqe import extension, warp
from affineqe.extension import (
    DeformationTensor, build_extension, default_probe_points,
    verify_theorem_1_1,
)
from affineqe.funcalg import (
    Context, constant, exp_linear, hessian, monomial, product, to_bundle,
)
from affineqe.qesolver import eigenspace, realize_real_basis
from affineqe.scalars import Scalar
from affineqe.surface import AffineConnection2
from affineqe.warp import WarpError, fiber_dimension, warped_einstein_report

A2 = AffineConnection2.type_a(c121=2, c222=1)
POINTS = default_probe_points()


def a2_mu1_solution():
    """Positive real element of the mu = 1 space of A2 on the probe box."""
    desc = eigenspace(A2, 1, input_coords=True)
    real = realize_real_basis(desc)
    # e^{x2/2} cos(sqrt7 x2/2): positive for |x2| <= 1
    for f in real:
        vals = [f.eval((1.5, -1.0 + 0.2 * k)) for k in range(11)]
        if all(abs(v.imag) < 1e-12 and v.real > 0 for v in vals):
            return f
    raise AssertionError("no positive real solution found")


def test_warp_a2_mu1():
    f = a2_mu1_solution()
    report = warped_einstein_report(build_extension(A2), 1, f, POINTS)
    assert report.passed
    names = {c.name: c for c in report.checks}
    assert names["base_condition_symbolic"].max_residual == 0.0
    assert names["base_condition_numeric"].max_residual <= 1e-10
    assert names["fiber_constant_std"].max_residual <= 1e-6
    assert report.metadata["mu_E"] == pytest.approx(0.0, abs=1e-12)


def test_curvature_tensors_built_on_first_use(monkeypatch):
    packs = []
    original = extension.curvature4

    def spy(metric):
        packs.append(original(metric))
        return packs[-1]

    f = a2_mu1_solution()
    monkeypatch.setattr(warp, "curvature4", spy)
    metric = build_extension(A2)
    report = warped_einstein_report(metric, Fraction(1), f, POINTS)
    assert report.passed
    built = vars(packs[0])
    assert "christoffel" in built and "ricci" in built
    assert "riemann" not in built and "weyl" not in built

    monkeypatch.setattr(extension, "curvature4", spy)
    report = verify_theorem_1_1(build_extension(A2), Fraction(1), f, POINTS)
    assert report.passed
    assert len(packs) == 2
    assert "riemann" in vars(packs[1]) and "weyl" in vars(packs[1])


def reference_base_residual(metric, f, r, points):
    """The numeric base condition as a plain loop over all 16 entries."""
    pack = extension.curvature4(metric)
    phi = to_bundle(f)
    hphi = hessian(pack.christoffel, phi)
    worst = 0.0
    for p in points:
        pv = phi.eval(p).real
        for a in range(4):
            for b in range(4):
                val = (pack.ricci[a][b].eval(p)
                       - r / pv * hphi[a][b].eval(p))
                worst = max(worst, abs(val))
    return worst


def test_base_residual_keeps_every_bit_of_the_full_loop():
    conn = AffineConnection2.type_b(c111=1, c122=2, c221=1)
    phi = DeformationTensor(monomial(Context.TYPE_B, pow1=1, x2=1),
                            monomial(Context.TYPE_B, coeff=-1, x2=2),
                            monomial(Context.TYPE_B, pow1=-1))
    f = monomial(Context.TYPE_B, pow1=2)
    for metric, f in ((build_extension(conn), f),
                      (build_extension(conn, phi), f),
                      (build_extension(A2), a2_mu1_solution())):
        report = warped_einstein_report(metric, Fraction(1), f, POINTS)
        (check,) = [c for c in report.checks
                    if c.name == "base_condition_numeric"]
        assert check.max_residual == reference_base_residual(metric, f, 2,
                                                             POINTS)


def test_warp_flat_base():
    # f = 1 solves H f = mu f rho_s = 0 for every mu; r = 2/mu is derived
    metric = build_extension(AffineConnection2.type_a())
    f = constant(1, Context.TYPE_A)
    for mu, r in ((2, 1), (1, 2), (Fraction(2, 3), 3), (Fraction(1, 2), 4)):
        report = warped_einstein_report(metric, mu, f, POINTS)
        assert report.passed
        assert report.metadata["r"] == r and type(report.metadata["r"]) is int
        assert report.metadata["lambda"] == "0"
        assert report.metadata["mu_E"] == pytest.approx(0.0)


def test_warp_negative_control():
    f = a2_mu1_solution()
    # corrupt the potential: F -> F + x2/100, i.e. phi -> phi e^{-x2/200}
    corruption = monomial(Context.FOURD, exp=(0, Fraction(-1, 200)))
    corrupted = product(to_bundle(f), corruption)
    report = warped_einstein_report(build_extension(A2), Fraction(1), f,
                                    POINTS, phi=corrupted)
    assert not report.passed
    names = {c.name: c for c in report.checks}
    assert names["base_condition_numeric"].max_residual > 1e-10


def _symbolic_verdicts(metric, mu, f):
    """Whether quasi_einstein_symbolic and base_condition_symbolic pass,
    computed on all 16 entries of the metric's curvature package."""
    pack = extension.curvature4(metric)
    w = to_bundle(f)
    hw = hessian(pack.christoffel, w)
    half_mu, r = Scalar(Fraction(mu, 2)), 2 / Fraction(mu) if mu > 0 else 0
    qe = all((hw[a][b] - product(w, pack.ricci[a][b]).scale(half_mu)
              ).is_zero() for a in range(4) for b in range(4))
    base = all((hw[a][b].scale(r) - product(w, pack.ricci[a][b])).is_zero()
               for a in range(4) for b in range(4))
    return qe, base


@pytest.mark.parametrize("entry", [None, (0, 2), (2, 0), (3, 1)])
def test_symbolic_checks_see_an_asymmetric_ricci(entry):
    # The checks read the Hessian's 10 entries a <= b and Ricci's symmetry;
    # a Ricci tensor changed in one entry off the diagonal must fail them
    # where the 16 entries fail, and at mu = 0 the quasi-Einstein check
    # scales Ricci by 0, so it passes as before.
    cases = [(Fraction(1), a2_mu1_solution()), (Fraction(-1), exp_linear(0, 2)),
             (Fraction(0), constant(1, Context.TYPE_A))]
    for mu, f in cases:
        metric = build_extension(A2)
        pack = extension.curvature4(metric)
        if entry is not None:
            a, b = entry
            ricci = [list(row) for row in pack.ricci]
            ricci[a][b] = ricci[a][b] + constant(1, Context.FOURD)
            pack.ricci = ricci  # in place of the cached tensor
        qe, base = _symbolic_verdicts(metric, mu, f)
        assert qe == (entry is None or mu == 0)
        report = verify_theorem_1_1(metric, mu, f, POINTS)
        checks = {c.name: c.max_residual for c in report.checks}
        assert checks["quasi_einstein_symbolic"] == (0.0 if qe else 1.0)
        if mu == 1:
            assert base == (entry is None)
            report = warped_einstein_report(metric, mu, f, POINTS)
            checks = {c.name: c.max_residual for c in report.checks}
            assert checks["base_condition_symbolic"] == (0.0 if base else 1.0)


def test_warp_requires_matching_r():
    # no positive integer r has 2/r = mu: refused before any check runs
    metric, f = build_extension(A2), a2_mu1_solution()
    for mu in (0, -1, 3, Fraction(4, 5)):
        with pytest.raises(WarpError):
            warped_einstein_report(metric, mu, f, POINTS)
        with pytest.raises(WarpError):
            fiber_dimension(mu)
    assert [fiber_dimension(mu) for mu in (2, 1, Fraction(2, 5))] == [1, 2, 5]


def test_warp_type_b_r2():
    # Thm 1.17(1) instance with mu = 1 feeds r = 2 as well
    conn = AffineConnection2.type_b(c111=1, c122=2, c221=1)
    f = monomial(Context.TYPE_B, pow1=2)
    report = warped_einstein_report(build_extension(conn), Fraction(1), f,
                                    POINTS)
    assert report.passed
    assert report.metadata["mu_E"] == pytest.approx(0.0, abs=1e-12)
