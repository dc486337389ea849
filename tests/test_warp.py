from fractions import Fraction

import pytest

from affineqe import extension, warp
from affineqe.extension import (
    DeformationTensor, build_extension, default_probe_points,
    verify_theorem_1_1,
)
from affineqe.funcalg import (
    Context, constant, hessian, monomial, product, to_bundle,
)
from affineqe.qesolver import eigenspace, realize_real_basis
from affineqe.surface import AffineConnection2
from affineqe.warp import WarpSpec, WarpError, warped_einstein_report

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
    spec = WarpSpec(build_extension(A2), f, Fraction(1), 2)
    report = warped_einstein_report(spec, POINTS)
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
    report = warped_einstein_report(
        WarpSpec(build_extension(A2), f, Fraction(1), 2), POINTS)
    assert report.passed
    built = vars(packs[0])
    assert "christoffel" in built and "ricci" in built
    assert "riemann" not in built and "weyl" not in built

    monkeypatch.setattr(extension, "curvature4", spy)
    report = verify_theorem_1_1(A2, DeformationTensor.zero(Context.TYPE_A),
                                Fraction(1), f, POINTS)
    assert report.passed
    assert len(packs) == 2
    assert "riemann" in vars(packs[1]) and "weyl" in vars(packs[1])


def reference_base_residual(spec, points):
    """The numeric base condition as a plain loop over all 16 entries, with
    lam*g evaluated at lam = 0 too."""
    pack = extension.curvature4(spec.metric)
    hphi = hessian(pack.christoffel, spec.phi)
    worst = 0.0
    for p in points:
        pv = spec.phi.eval(p).real
        for a in range(4):
            for b in range(4):
                val = (pack.ricci[a][b].eval(p)
                       - spec.r / pv * hphi[a][b].eval(p)
                       - float(spec.lam) * spec.metric.g[a][b].eval(p))
                worst = max(worst, abs(val))
    return worst


@pytest.mark.parametrize("lam", [0, Fraction(1, 3)])
def test_base_residual_keeps_every_bit_of_the_full_loop(lam):
    conn = AffineConnection2.type_b(c111=1, c122=2, c221=1)
    phi = DeformationTensor(monomial(Context.TYPE_B, pow1=1, x2=1),
                            monomial(Context.TYPE_B, coeff=-1, x2=2),
                            monomial(Context.TYPE_B, pow1=-1))
    f = monomial(Context.TYPE_B, pow1=2)
    for metric, f in ((build_extension(conn), f),
                      (build_extension(conn, phi), f),
                      (build_extension(A2), a2_mu1_solution())):
        spec = WarpSpec(metric, f, Fraction(1), 2, lam)
        report = warped_einstein_report(spec, POINTS)
        (check,) = [c for c in report.checks
                    if c.name == "base_condition_numeric"]
        assert check.max_residual == reference_base_residual(spec, POINTS)


def test_warp_flat_base():
    flat = AffineConnection2.type_a()
    spec = WarpSpec(build_extension(flat), constant(1, Context.TYPE_A),
                    Fraction(2), 1)
    report = warped_einstein_report(spec, POINTS)
    assert report.passed
    assert report.metadata["mu_E"] == pytest.approx(0.0)


def test_warp_negative_control():
    f = a2_mu1_solution()
    spec = WarpSpec(build_extension(A2), f, Fraction(1), 2)
    # corrupt the potential: F -> F + x2/100, i.e. phi -> phi e^{-x2/200}
    corruption = monomial(Context.FOURD, exp=(0, Fraction(-1, 200)))
    corrupted = product(to_bundle(f), corruption)
    report = warped_einstein_report(spec, POINTS, phi=corrupted)
    assert not report.passed
    names = {c.name: c for c in report.checks}
    assert names["base_condition_numeric"].max_residual > 1e-10


def test_warp_requires_matching_r():
    with pytest.raises(WarpError):
        WarpSpec(build_extension(A2), a2_mu1_solution(), Fraction(1), 3)
    with pytest.raises(WarpError):
        WarpSpec(build_extension(A2), a2_mu1_solution(), Fraction(1, 2), 2)


def test_warp_type_b_r2():
    # Thm 1.17(1) instance with mu = 1 feeds r = 2 as well
    conn = AffineConnection2.type_b(c111=1, c122=2, c221=1)
    f = monomial(Context.TYPE_B, pow1=2)
    spec = WarpSpec(build_extension(conn), f, Fraction(1), 2)
    report = warped_einstein_report(spec, POINTS)
    assert report.passed
    assert report.metadata["mu_E"] == pytest.approx(0.0, abs=1e-12)
