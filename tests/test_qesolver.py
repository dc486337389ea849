import collections
import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from affineqe import _linalg, qesolver, surface
from affineqe.cli import DEFAULT_SWEEP_MUS
from affineqe.funcalg import (
    AnsatzFunction, Context, Point, Term, constant, exp_linear, hessian,
    monomial, product, rank_basis,
)
from affineqe.qesolver import (
    SolverError, eigenspace, jet_dimension_oracle, potential_residual_at,
    qe_residual, realize_real_basis,
)
from affineqe.scalars import Scalar
from affineqe.surface import (
    AffineConnection2, christoffel, is_strongly_projectively_flat, ricci,
    type_flags,
)
from dense_reference import matrix_jet_dimension
from nonlinear_reference import killing_stability_check, nonlinear_transform

A2 = AffineConnection2.type_a(c121=2, c222=1)
HYPERBOLIC = AffineConnection2.type_b(c111=-1, c122=-1, c221=1)
NONSYM = AffineConnection2.type_b(c121=1, c222=1, c122=1)
T17_1 = AffineConnection2.type_b(c111=1, c122=2, c221=1)
T17_2 = AffineConnection2.type_b(
    c111=Fraction(-21, 2), c112=1, c122=Fraction(-11, 2), c221=1, c222=2)
T110_1A = AffineConnection2.type_a(c111=1, c122=2)
T114_2 = AffineConnection2.type_b(c111=-1, c122=1)


def zero_matrix(res):
    return all(res[i][j].is_zero() for i in range(2) for j in range(2))


def grid_max(res, pts):
    worst = 0.0
    for p in pts:
        for i in range(2):
            for j in range(2):
                worst = max(worst, abs(res[i][j].eval(p)))
    return worst


GRID = [(1.0 + 0.25 * a, -1.0 + 0.5 * b) for a in range(5) for b in range(5)]


def test_qe_residual_a2():
    f = exp_linear(0, 2)
    assert zero_matrix(qe_residual(A2, -1, f))
    assert not zero_matrix(qe_residual(A2, 1, f))


def test_qe_residual_hyperbolic():
    f = monomial(Context.TYPE_B, pow1=-1)
    assert zero_matrix(qe_residual(HYPERBOLIC, -1, f))


def test_qe_residual_constant():
    res = qe_residual(A2, Fraction(1, 2), constant(1, Context.TYPE_A))
    # -mu rho_s = -1/2 diag(0, -2) = diag(0, 1)
    assert res[0][0].is_zero() and res[0][1].is_zero()
    assert res[1][1] == constant(1, Context.TYPE_A)
    res = qe_residual(HYPERBOLIC, 0, constant(1, Context.TYPE_B))
    assert zero_matrix(res)


def test_eigenspace_thm110_1a():
    desc = eigenspace(T110_1A, 0, input_coords=True)
    assert desc.dim == 2
    assert desc.case_label == "Thm1.10(1a)"
    assert constant(1, Context.TYPE_A) in desc.basis
    assert exp_linear(1, 0) in desc.basis


def test_eigenspace_a2_mu1_complex_pair():
    desc = eigenspace(A2, 1)
    assert desc.dim == 2
    exps = sorted(f.terms[0].exp2.to_complex().imag for f in desc.basis)
    assert exps[0] == pytest.approx(-(7 ** 0.5) / 2)
    assert exps[1] == pytest.approx(+(7 ** 0.5) / 2)
    for f in desc.basis:
        assert f.terms[0].exp2.to_complex().real == pytest.approx(0.5)


def test_eigenspace_a2_mu_minus1():
    desc = eigenspace(A2, -1, input_coords=True)
    assert desc.dim == 3
    expected = [exp_linear(0, 2), exp_linear(0, -1),
                monomial(Context.TYPE_A, exp=(0, 2), pow1=1)]
    rank, _ = rank_basis(list(desc.basis) + expected)
    assert rank == 3


def test_eigenspace_a2_mu0():
    desc = eigenspace(A2, 0, input_coords=True)
    assert desc.dim == 2
    rank, _ = rank_basis(
        list(desc.basis) + [constant(1, Context.TYPE_A), exp_linear(0, 1)])
    assert rank == 2


def test_eigenspace_flat():
    flat = AffineConnection2.type_a()
    for mu in (0, -1, Fraction(1, 2)):
        desc = eigenspace(flat, mu)
        assert desc.dim == 3
        rank, _ = rank_basis(list(desc.basis) + [
            constant(1, Context.TYPE_A),
            monomial(Context.TYPE_A, pow1=1),
            monomial(Context.TYPE_A, x2=1)])
        assert rank == 3
    # flat with nonzero symbols: Gamma_11^2 = 1 has x2 + x1^2/2 in the kernel
    flat2 = AffineConnection2.type_a(c112=1)
    desc = eigenspace(flat2, Fraction(2, 3))
    assert desc.dim == 3
    combo = (monomial(Context.TYPE_A, x2=1)
             + monomial(Context.TYPE_A, coeff=Fraction(1, 2), pow1=2))
    rank, _ = rank_basis(list(desc.basis) + [combo])
    assert rank == 3


def test_eigenspace_rank2_critical_cubic():
    conn = AffineConnection2.type_a(c111=2, c112=1, c221=1)
    assert ricci(conn).rank_s == 2
    desc = eigenspace(conn, -1)
    assert desc.dim == 3
    # exponents satisfy the irreducible cubic a^3 - 2a^2 - 1 = 0
    ctxs = {f.terms[0].exp1.context for f in desc.basis}
    assert any(c is not None and c.degree == 3 for c in ctxs)


def test_eigenspace_rank2_critical_cyclic():
    conn = AffineConnection2.type_a(c112=1, c221=1)
    desc = eigenspace(conn, -1)
    assert desc.dim == 3
    expected = exp_linear(1, 1)
    rank, _ = rank_basis(list(desc.basis) + [expected])
    assert rank == 3


def test_eigenspace_hyperbolic():
    desc = eigenspace(HYPERBOLIC, -1)
    assert desc.dim == 3
    assert desc.case_label == "Thm1.13(2) v=-1"
    triple = [monomial(Context.TYPE_B, pow1=-1),
              monomial(Context.TYPE_B, pow1=-1, x2=1),
              monomial(Context.TYPE_B, pow1=1)
              + monomial(Context.TYPE_B, pow1=-1, x2=2)]
    for f in triple:
        assert zero_matrix(qe_residual(HYPERBOLIC, -1, f))
        assert grid_max(qe_residual(HYPERBOLIC, -1, f), GRID) <= 1e-10
    rank, _ = rank_basis(list(desc.basis) + triple)
    assert rank == 3
    assert eigenspace(HYPERBOLIC, Fraction(1, 2)).dim == 0
    assert eigenspace(HYPERBOLIC, 0).dim == 1


def test_eigenspace_t17_family1():
    desc = eigenspace(T17_1, 1)
    assert desc.dim == 2
    assert desc.case_label == "Thm1.17(1)"
    assert monomial(Context.TYPE_B, pow1=2) in desc.basis
    assert monomial(Context.TYPE_B, pow1=2, x2=1) in desc.basis
    for f in desc.basis:
        assert grid_max(qe_residual(T17_1, 1, f), GRID) <= 1e-10
    # off-family mu gives nothing
    assert eigenspace(T17_1, Fraction(1, 2)).dim == 0


def test_eigenspace_t17_family2():
    desc = eigenspace(T17_2, Fraction(-11, 12))
    assert desc.dim == 2
    assert desc.case_label == "Thm1.17(2)"
    alpha = desc.basis[0].terms[0].pow1
    assert alpha == Scalar(Fraction(-11, 2))
    assert eigenspace(T17_2, Fraction(1, 2)).dim == 0


def test_eigenspace_t115_1():
    desc = eigenspace(NONSYM, -1)
    assert desc.dim == 1
    assert desc.case_label == "Thm1.15(1)"
    assert desc.basis[0] == monomial(Context.TYPE_B, pow1=1)
    assert grid_max(qe_residual(NONSYM, -1, desc.basis[0]), GRID) <= 1e-10


def test_eigenspace_t114_2():
    desc = eigenspace(T114_2, 0)
    assert desc.dim == 2
    assert desc.case_label == "Thm1.14(2)"
    assert monomial(Context.TYPE_B, log=1) in desc.basis
    assert grid_max(qe_residual(T114_2, 0, desc.basis[1]), GRID) <= 1e-10


def test_eigenspace_t114_1():
    conn = AffineConnection2.type_b(c111=1, c112=2, c121=1, c122=2)
    desc = eigenspace(conn, 0)
    assert desc.dim == 2
    assert desc.case_label == "Thm1.14(1)"
    f = (monomial(Context.TYPE_B, x2=1)
         - monomial(Context.TYPE_B, coeff=2, pow1=1))
    assert f in desc.basis


def test_eigenspace_rho_s_zero():
    conn = AffineConnection2.type_b(c121=2, c222=2)  # rho antisymmetric
    ric = ricci(conn)
    assert not ric.is_flat
    assert all(v.is_zero() for row in ric.r_s for v in row)
    base = eigenspace(conn, 0)
    for mu in (-1, Fraction(1, 2), 2):
        desc = eigenspace(conn, mu)
        assert desc.dim == base.dim
        assert list(desc.basis) == list(base.basis)


def test_eigenspace_also_type_a():
    conn = AffineConnection2.type_b(c122=2)  # also Type A, rank 1
    desc = eigenspace(conn, Fraction(1, 2))
    assert desc.dim == 2
    assert desc.case_label == "Thm6.1(2) TypeA-form"
    assert eigenspace(conn, -1).dim == 3


def test_normalization_needed_instance():
    from affineqe.surface import transform
    # de-normalize T17_1 by the inverse of (scale 2, shear 1)
    s_inv = [[1, 0], [Fraction(-1, 2), Fraction(1, 2)]]
    conn = transform(T17_1, s_inv)
    assert conn.coefficient(2, 2, 1) == Scalar(4)
    desc = eigenspace(conn, 1)
    # normalized form is exactly T17_1
    assert desc.solver_connection == T17_1
    assert desc.normalization.scale == Scalar(2)
    assert desc.dim == 2
    mapped = desc.basis_in_input_coordinates()
    for f in mapped:
        assert zero_matrix(qe_residual(conn, 1, f))


def test_oracle_examples():
    flat = AffineConnection2.type_a()
    for mu in (0, -1, Fraction(2, 3)):
        assert jet_dimension_oracle(flat, mu) == 3
    assert jet_dimension_oracle(A2, 1) == 2
    assert jet_dimension_oracle(HYPERBOLIC, -1) == 3
    assert jet_dimension_oracle(HYPERBOLIC, Fraction(1, 2)) == 0
    assert jet_dimension_oracle(A2, -1) == 3
    assert jet_dimension_oracle(T17_1, 1) == 2
    assert jet_dimension_oracle(NONSYM, -1) == 1
    assert jet_dimension_oracle(T114_2, 0) == 2


def test_oracle_agreement_sweep():
    rng = random.Random(42)
    mus = [0, -1, Fraction(-1, 2), Fraction(1, 2), 1, Fraction(2, 3),
           Fraction(-2, 3)]
    for _ in range(40):
        kind = rng.choice(["A", "B"])
        if kind == "A":
            conn = AffineConnection2.type_a(
                *[rng.randint(-3, 3) for _ in range(6)])
        else:
            c221 = rng.choice([-1, 0, 1])
            conn = AffineConnection2.type_b(
                rng.randint(-3, 3), rng.randint(-3, 3),
                0 if c221 else rng.randint(-3, 3), rng.randint(-3, 3),
                c221, rng.randint(-3, 3))
        for mu in mus:
            desc = eigenspace(conn, mu)
            assert desc.dim == jet_dimension_oracle(conn, mu), (conn, mu)
            for f in desc.basis:
                assert zero_matrix(qe_residual(desc.solver_connection, mu, f))


WIDE_MUS = (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3),
            Fraction(-5, 7), Fraction(2, 3))


def test_oracle_agreement_wide_draws():
    """Classifier and oracle agree beyond the criterion-1 draws: rational
    coefficients k/d with k in [-6, 6] and d in {1, 2, 3}, Type B not
    normalized, more values of mu, and flat connections."""
    rng = random.Random(20260808)
    instances = []
    for _ in range(340):
        kind = rng.choice("AB")
        coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                  for _ in range(6)]
        instances.append((AffineConnection2(kind, coeffs),
                          rng.choice(WIDE_MUS)))
    # coefficients in {-1, 0, 1} give 89 flat Type A and 16 flat Type B
    # connections; every third one is checked
    small = [AffineConnection2(kind, coeffs) for kind in "AB"
             for coeffs in itertools.product((-1, 0, 1), repeat=6)]
    flat = [conn for conn in small if ricci(conn).is_flat]
    assert (len(flat), sum(c.kind == "B" for c in flat)) == (105, 16)
    instances += [(conn, mu) for conn in flat[::3]
                  for mu in (Fraction(-1), Fraction(1, 2))]
    assert len(instances) == 410
    for conn, mu in instances:
        assert eigenspace(conn, mu).dim == jet_dimension_oracle(conn, mu), (
            conn, mu)


# the sweep's seven values of mu, plus two outside it
ORACLE_MUS = tuple(DEFAULT_SWEEP_MUS) + (Fraction(3), Fraction(-5, 7))


def _oracle_reference_draws():
    """Seeded (connection, mu) draws: coefficients k/d with k in [-6, 6],
    over Q, Q(sqrt 2), Q(i) and Q(theta) with theta^3 = 2; Type A,
    normalized Type B (C22^1 in {0, 1, -1}, C12^1 = 0 when C22^1 != 0) and
    Type B as drawn; each connection at three values of mu drawn from
    ORACLE_MUS."""
    rng = random.Random(25)
    generators = (None, Scalar.sqrt_rational(2), Scalar(0, 1),
                  Scalar.algebraic([-2, 0, 0, 1], 0))

    def coefficient(gen):
        if rng.random() < 0.4:
            return Scalar(0)
        c = Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        if gen is not None and rng.random() < 0.5:
            c = c + Scalar(rng.randint(-2, 2)) * gen
        return c

    draws = []
    for n in range(120):
        kind = "AB"[n % 3 != 0]
        coeffs = [coefficient(generators[n % 4]) for _ in range(6)]
        if n % 3 == 1:  # normalized Type B
            coeffs[4] = Scalar(rng.choice((-1, 0, 1)))
            if not coeffs[4].is_zero():
                coeffs[2] = Scalar(0)
            elif rng.random() < 0.5:
                # C12^1 = C22^2 makes r22 = 0: the family where a solution
                # space at mu = -1 can need the f entry of an image
                coeffs[2] = coeffs[5]
        conn = AffineConnection2(kind, tuple(coeffs))
        draws.extend((conn, mu) for mu in rng.sample(ORACLE_MUS, 3))
    return draws


def _coprime_fraction(rng, bound):
    """k/d with |k| <= bound and 1 < d <= bound coprime to k."""
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(2, bound))
        if x.denominator > 1:
            return x


def _large_denominator_draws():
    """Seeded rational (connection, mu) draws whose coefficients and mu
    have coprime denominators up to 10^6.  Each connection is a small draw,
    shaped as in `_oracle_reference_draws`, moved by a coordinate change
    with such entries (any invertible one for Type A, (x1, a x1 + b x2) for
    Type B), which keeps the dimension, so every answer occurs; mu is two
    of ORACLE_MUS and one drawn value."""
    rng = random.Random(26)
    draws = []
    for n in range(150):
        kind = "AB"[n % 3 != 0]
        coeffs = [Fraction(0) if rng.random() < 0.4
                  else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(6)]
        if n % 3 == 1:  # normalized Type B
            coeffs[4] = Fraction(rng.choice((-1, 0, 1)))
            if coeffs[4]:
                coeffs[2] = Fraction(0)
            elif rng.random() < 0.5:
                coeffs[2] = coeffs[5]
        if kind == "A":
            s = [[_coprime_fraction(rng, 10**6) for _ in range(2)]
                 for _ in range(2)]
            assert s[0][0] * s[1][1] != s[0][1] * s[1][0]
        else:
            s = [[1, 0], [_coprime_fraction(rng, 10**6),
                          _coprime_fraction(rng, 10**6)]]
        conn = surface.transform(AffineConnection2(kind, tuple(coeffs)), s)
        mus = rng.sample(ORACLE_MUS, 2) + [_coprime_fraction(rng, 10**6)]
        draws.extend((conn, mu) for mu in mus)
    return draws


def test_oracle_matches_matrix_reference():
    """The closed-form oracle gives the dimension of the matrix-form one on
    the seeded draws of `_oracle_reference_draws`, and on the rational
    draws of `_large_denominator_draws`, which it clears of denominators."""
    for draws in (_oracle_reference_draws(), _large_denominator_draws()):
        dims = collections.Counter()
        for conn, mu in draws:
            dim = jet_dimension_oracle(conn, mu)
            assert dim == matrix_jet_dimension(conn, mu), (conn, mu)
            dims[dim] += 1
        # every answer occurs, so no branch of the oracle goes untested
        assert min(dims[d] for d in range(4)) >= 20, dims


def test_oracle_shares_no_elimination(monkeypatch):
    """The oracle answers every reference draw with `_linalg.add_row` and
    `Scalar.inverse` made to raise: it takes no field inverse and shares no
    elimination with the classifier."""
    draws = _oracle_reference_draws()
    want = [matrix_jet_dimension(conn, mu) for conn, mu in draws]

    def forbidden(*args):
        raise AssertionError("the oracle must not call this")

    monkeypatch.setattr(_linalg, "add_row", forbidden)
    monkeypatch.setattr(Scalar, "inverse", forbidden)
    surface.ricci.cache_clear()  # r_s is then built under the patch too
    assert [jet_dimension_oracle(conn, mu) for conn, mu in draws] == want


def test_oracle_cost_is_bounded_on_long_rationals():
    """The elimination divides nothing, so its integers grow with each
    clearing; on 60 connections whose coefficients have 100-digit
    numerators and denominators, at mu = -1 and at a 100-digit mu, every
    call stays far under half a second (a few ms when this was written)."""
    rng = random.Random(100)

    def long_fraction():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(10**99, 10**100),
                        rng.randrange(10**99, 10**100))

    mus = (Fraction(-1), long_fraction())
    for n in range(60):
        coeffs = [Fraction(0) if rng.random() < 0.3 else long_fraction()
                  for _ in range(6)]
        if n % 3 == 1:  # normalized Type B
            coeffs[4] = Fraction(rng.choice((-1, 0, 1)))
            if coeffs[4]:
                coeffs[2] = Fraction(0)
        conn = AffineConnection2("AB"[n % 3 != 0], tuple(coeffs))
        for mu in mus:
            start = time.perf_counter()
            dim = jet_dimension_oracle(conn, mu)
            assert time.perf_counter() - start < 0.5, (conn, mu)
            assert dim == matrix_jet_dimension(conn, mu), (conn, mu)


def test_realize_real_basis():
    desc = eigenspace(A2, -1, input_coords=True)
    real = realize_real_basis(desc)
    assert real == list(desc.basis)  # already real
    desc = eigenspace(A2, 1)
    real = realize_real_basis(desc)
    assert len(real) == 2
    for f in real:
        assert f.is_real()
        vals = [f.eval((0.3, t / 3)) for t in range(-3, 4)]
        assert all(abs(v.imag) < 1e-12 for v in vals)
    # e^{x2/2} cos(sqrt7 x2 / 2) and the sine partner
    import math
    v = real[0].eval((0.0, 0.5))
    expected = math.exp(0.25) * math.cos(math.sqrt(7) * 0.25)
    assert v.real == pytest.approx(expected)
    assert realize_real_basis([]) == []


def _realize_by_rank_search(basis):
    """Re and Im of every non-real element, then the first independent ones:
    the general construction, for any basis."""
    half, neg_half_i = Scalar(Fraction(1, 2)), Scalar(0, Fraction(-1, 2))
    candidates = []
    for f in basis:
        fc = f.conjugate()
        if fc == f:
            candidates.append(f)
        else:
            candidates += [(f + fc).scale(half), (f - fc).scale(neg_half_i)]
    rank, picked = rank_basis([c for c in candidates if not c.is_zero()])
    assert rank >= len(basis)
    return picked[: len(basis)]


def test_realize_real_basis_pairs_by_conjugation_and_searches_otherwise():
    # e^{(1+i) x2} and its conjugate, e^{x1} x2, and e^{2i x1} without its
    # conjugate
    f = exp_linear(0, Scalar(1, 1))
    real = monomial(Context.TYPE_A, exp=(1, 0), x2=1)
    lone = exp_linear(Scalar(0, 2), 0).scale(Scalar(3, -1))
    for basis in ([f, f.conjugate()], [f.conjugate(), real, f],
                  [real, f, lone, f.conjugate()], [lone], [lone, real]):
        got = realize_real_basis(basis)
        assert [g.terms for g in got] == [
            g.terms for g in _realize_by_rank_search(basis)]
        assert len(got) == len(basis)
        assert all(g.is_real() for g in got)
        assert rank_basis(got + basis)[0] == rank_basis(
            basis + [g.conjugate() for g in basis])[0]
    # closed: a real element stays, a pair gives Re and Im at its first
    # member; not closed: the lone element's Re and Im both come in
    c = f.conjugate()
    assert realize_real_basis([c, real, f]) == [
        (c + f).scale(Fraction(1, 2)), (c - f).scale(Scalar(0, Fraction(-1, 2))),
        real]
    got = realize_real_basis([lone])
    assert len(got) == 1 and rank_basis(got + [lone, lone.conjugate()])[0] == 2
    # the search still refuses a list that spans less than its length
    with pytest.raises(SolverError, match="lost dimension"):
        realize_real_basis([real, real.scale(2), real.scale(3), lone])


def test_nonlinear_transform_a2():
    f = exp_linear(0, 2)
    nt = nonlinear_transform(A2, -1, f)
    assert nt.fhat == monomial(Context.TYPE_A, coeff=4, x2=1)
    assert nt.is_identically_zero()
    assert nt.residual_at([(0.5, 0.5), (1.0, -0.5)]) <= 1e-12


def test_nonlinear_transform_hyperbolic():
    f = monomial(Context.TYPE_B, pow1=-1)
    nt = nonlinear_transform(HYPERBOLIC, -1, f)
    assert nt.fhat == monomial(Context.TYPE_B, coeff=-2, log=1)
    assert nt.is_identically_zero()
    assert nt.residual_at(GRID) <= 1e-10


def test_nonlinear_transform_trivial_and_errors():
    flat = AffineConnection2.type_a()
    nt = nonlinear_transform(flat, Fraction(1, 2), constant(1, Context.TYPE_A))
    assert nt.is_identically_zero()
    with pytest.raises(ValueError):
        nonlinear_transform(A2, 0, constant(1, Context.TYPE_A))


def test_nonlinear_transform_multiterm_numeric():
    desc = eigenspace(A2, 1)
    real = realize_real_basis(desc)
    f = real[0]
    nt = nonlinear_transform(A2, 1, f)
    assert nt.fhat is None
    pts = [(0.1 * k, 0.05 * k) for k in range(5)]
    assert nt.residual_at(pts) <= 1e-9


def test_killing_stability():
    desc = eigenspace(T110_1A, 0, input_coords=True)
    assert killing_stability_check(T110_1A, 0, desc)
    desc = eigenspace(T17_1, 1)
    assert killing_stability_check(T17_1, 1, desc)
    corrupted = [monomial(Context.TYPE_B, pow1=2),
                 monomial(Context.TYPE_B, x2=1)]
    assert not killing_stability_check(T17_1, 1, corrupted)


def test_critical_rank1_resonance_branches():
    # a = 0, e != 0, 2c = f: the third element needs the (x2)^2 companion
    conn = AffineConnection2.type_a(c121=1, c221=2, c222=2)
    desc = eigenspace(conn, -1, input_coords=True)
    assert desc.dim == 3 == jet_dimension_oracle(conn, -1)
    target = (monomial(Context.TYPE_A, exp=(0, 1), pow1=1)
              + monomial(Context.TYPE_A, exp=(0, 1), x2=2))
    rk, _ = rank_basis(list(desc.basis) + [target])
    assert rk == 3  # companion lies in the span
    # a != 0: the third element is the plane-wave e^{a x1 + c x2}
    conn2 = AffineConnection2.type_a(c111=1, c121=2)
    desc2 = eigenspace(conn2, -1, input_coords=True)
    assert desc2.dim == 3 == jet_dimension_oracle(conn2, -1)
    assert exp_linear(1, 2) in desc2.basis


def test_nonlinear_transform_rejects_nonpositive_probe():
    conn = AffineConnection2.type_a(c111=1, c121=2)
    nt = nonlinear_transform(conn, -1, exp_linear(1, 2).scale(-1))
    from affineqe.funcalg import DomainError
    with pytest.raises(DomainError):
        nt.residual_at([(0.5, 0.5)])


def test_degenerate_discriminant_basis():
    # (Gamma_22^2)^2 + 4 mu rho_22 = 0: companion solution x2 e^{a2 x2} with
    # a2 = Gamma_22^2 / 2
    conn = AffineConnection2.type_a(c111=1, c221=-2, c222=2)
    assert [[v.as_fraction() for v in row] for row in ricci(conn).r] == [
        [0, 0], [0, -2]]
    desc = eigenspace(conn, Fraction(1, 2), input_coords=True)
    assert desc.dim == 2
    assert desc.case_label == "Thm1.10(3) rank1 degenerate"
    assert exp_linear(0, 1) in desc.basis
    assert monomial(Context.TYPE_A, exp=(0, 1), x2=1) in desc.basis
    assert jet_dimension_oracle(conn, Fraction(1, 2)) == 2


def test_mu_minus_one_rank1_double_root_basis():
    # a^2 - Gamma_22^2 a + rho_22 = a^2 - 2a + 1 has the double root a = 1,
    # so the companion is x2 e^{x2}; with Gamma_11^1 = 0 and
    # 2 Gamma_12^1 = Gamma_22^2 the third element is
    # x1 e^{x2} + (Gamma_22^1 / 2) x2^2 e^{x2}
    conn = AffineConnection2.type_a(c121=1, c221=-1, c222=2)
    desc = eigenspace(conn, -1)
    assert desc.case_label == "Thm1.10(2) rank1"
    assert desc.dim == 3 == jet_dimension_oracle(conn, -1)
    assert desc.change.is_identity
    zero, one = Scalar(0), Scalar(1)
    assert [f.terms for f in desc.basis] == [
        (Term(one, zero, one),),
        (Term(one, zero, one, deg2=1),),
        (Term(Scalar(Fraction(-1, 2)), zero, one, deg2=2),
         Term(one, zero, one, pow1=one)),
    ]


def test_realize_real_basis_cubic_contexts():
    # exponents from an irreducible cubic: one real root plus conjugate pair
    conn = AffineConnection2.type_a(c111=2, c112=1, c221=1)
    desc = eigenspace(conn, -1)
    real = realize_real_basis(desc)
    assert len(real) == 3
    for f in real:
        assert f.is_real()
        assert zero_matrix(qe_residual(conn, -1, f))
        assert abs(f.eval((0.3, -0.2)).imag) < 1e-12
    assert killing_stability_check(conn, -1, desc)


def test_killing_stability_across_sweep():
    rng = random.Random(99)
    mus = [Fraction(0), Fraction(-1), Fraction(1, 2)]
    seen = 0
    for _ in range(25):
        kind = rng.choice(["A", "B"])
        if kind == "A":
            conn = AffineConnection2.type_a(
                *[rng.randint(-3, 3) for _ in range(6)])
        else:
            c221 = rng.choice([-1, 0, 1])
            conn = AffineConnection2.type_b(
                rng.randint(-3, 3), rng.randint(-3, 3),
                0 if c221 else rng.randint(-3, 3), rng.randint(-3, 3),
                c221, rng.randint(-3, 3))
        for mu in mus:
            desc = eigenspace(conn, mu)
            if desc.dim:
                seen += 1
                assert killing_stability_check(desc.solver_connection, mu,
                                               desc), (conn, mu)
    assert seen > 20


def test_eps_pairing_sensitivity_flag():
    # only the opposite sign pairing matches: no solution, but flagged
    conn = AffineConnection2.type_b(c111=2, c112=1, c122=1, c221=1, c222=-2)
    desc = eigenspace(conn, -1)
    assert desc.dim == 0
    assert jet_dimension_oracle(conn, -1) == 0
    assert "eps-pairing-sensitive" in desc.flags
    # the consistently paired sibling has the one-dimensional space
    sibling = AffineConnection2.type_b(c111=4, c112=1, c122=1, c221=1, c222=2)
    desc = eigenspace(sibling, -1)
    assert desc.dim == 1 and desc.case_label == "Thm1.15(2)"
    assert desc.basis[0] == monomial(Context.TYPE_B, pow1=2)
    assert jet_dimension_oracle(sibling, -1) == 1


def test_theorem15_invariants_sweep():
    rng = random.Random(8)
    mus = [0, -1, Fraction(1, 2), Fraction(-1, 2), 1]
    from affineqe.surface import is_strongly_projectively_flat
    for _ in range(30):
        kind = rng.choice(["A", "B"])
        coeffs = [rng.randint(-2, 2) for _ in range(6)]
        conn = (AffineConnection2.type_a(*coeffs) if kind == "A"
                else AffineConnection2.type_b(*coeffs))
        ric = ricci(conn)
        spf = is_strongly_projectively_flat(conn)
        d_crit = eigenspace(conn, -1).dim
        assert d_crit != 2
        if not ric.is_flat:
            assert (d_crit == 3) == bool(spf)
            if spf and ric.rank_s == 2:
                assert eigenspace(conn, 0).dim == 1
                for mu in (Fraction(1, 2), 1966):
                    assert eigenspace(conn, mu).dim == 0
        for mu in mus:
            assert eigenspace(conn, mu).dim <= 3


def _qe_residual_composition(conn, mu, f):
    """The residual as a composition: the Hessian, minus mu f rho_s built
    and scaled as functions of their own, subtracted entry by entry."""
    mus = Scalar(Fraction(mu))
    rho_s = ricci(conn).rho_s
    out = hessian(christoffel(conn), f)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        out[i][j] = out[j][i] = (out[i][j]
                                 - product(f, rho_s[i][j]).scale(mus))
    return (tuple(out[0]), tuple(out[1]))


def test_qe_residual_matches_composition():
    rng = random.Random(20261019)
    r2 = Scalar.sqrt_rational(2)

    def q():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))

    def coeff():
        return rng.choice((Scalar(q()), Scalar(q(), q()), r2 * q() + 1))

    def function(kind):
        if kind == "A":
            terms = [Term(coeff(), Scalar(rng.randint(-2, 2)), Scalar(q()),
                          Scalar(rng.randint(0, 2)), 0, rng.randint(0, 2))
                     for _ in range(rng.randint(1, 4))]
            return AnsatzFunction(terms, Context.TYPE_A)
        terms = [Term(coeff(), pow1=Scalar(q()), logdeg=rng.randint(0, 2),
                      deg2=rng.randint(0, 2))
                 for _ in range(rng.randint(1, 4))]
        return AnsatzFunction(terms, Context.TYPE_B)

    # seeded draws, then a Type B connection normalized over Q(sqrt 2) and
    # two rank-2 critical ones with cubic-field exponents at mu = -1
    conns = [AffineConnection2(kind, tuple(q() for _ in range(6)))
             for _ in range(10) for kind in "AB"]
    conns += [AffineConnection2.type_b(c111=1, c122=2, c221=2),
              AffineConnection2.type_a(c111=2, c112=1, c221=1),
              AffineConnection2.type_a(c112=1, c221=1)]
    solved = {True: 0, False: 0}
    fields = set()
    for conn in conns:
        for mu in (0, -1, Fraction(1, 2), Fraction(2, 3)):
            desc = eigenspace(conn, mu)
            cases = [(conn, function(conn.kind)) for _ in range(3)]
            cases += [(desc.solver_connection, f) for f in desc.basis]
            for c, f in cases:
                got = qe_residual(c, mu, f)
                want = _qe_residual_composition(c, mu, f)
                for i in range(2):
                    for j in range(2):
                        assert got[i][j] == want[i][j], (c, mu, f)
                        assert repr(got[i][j]) == repr(want[i][j])
                solved[zero_matrix(got)] += 1
                scalars = [x for t in f.terms for x in t[:4]] + [*c.coeffs]
                fields.update(x.context.degree for x in scalars
                              if x.context is not None)
    assert solved[True] >= 40 and solved[False] >= 200, solved
    assert fields == {2, 3}


def _residual_map(conn, mu, t):
    res = qe_residual(conn, mu, AnsatzFunction([t], conn.context))
    return {((i, j), u.key()): u.coeff
            for i, j in ((0, 0), (0, 1), (1, 1)) for u in res[i][j].terms}


def _check_rows(conn, mu, terms):
    columns = qesolver._operator_columns(conn, mu, terms)
    assert len(columns) == len(terms)
    for t, col in zip(terms, columns):
        assert col == _residual_map(conn, mu, t), (conn, mu, t)


def test_closed_form_rows_match_qe_residual():
    rng = random.Random(20260808)

    def q():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))

    for _ in range(40):
        mu = q()
        conn = AffineConnection2.type_a(*[q() for _ in range(6)])
        terms = [Term(Scalar(1), Scalar(q(), q()), Scalar(q()),
                      Scalar(rng.randint(0, 3)), 0, rng.randint(0, 3))
                 for _ in range(4)]
        _check_rows(conn, mu, terms)
        conn = AffineConnection2.type_b(*[q() for _ in range(6)])
        alpha = Scalar(q(), q()) + Scalar.sqrt_rational(rng.choice((0, 2, 3)))
        # exponents that differ by integers share rows through (1, 2)
        terms = [Term(Scalar(1), pow1=alpha + rng.randint(-1, 2),
                      logdeg=rng.randint(0, 2), deg2=rng.randint(0, 2))
                 for _ in range(4)]
        _check_rows(conn, mu, terms)
    # cubic-field exponents of rank-2 critical connections
    for conn in (AffineConnection2.type_a(c111=2, c112=1, c221=1),
                 AffineConnection2.type_a(c112=1, c221=1)):
        pairs = qesolver._conic_pairs(conn, ricci(conn).r_s)
        terms = qesolver._span_terms_a(pairs)
        for mu in (-1, q()):
            _check_rows(conn, mu, terms)


def _dense_row_basis(rows):
    """Reference: dense Gauss-Jordan, pivots 1, rows by pivot column."""
    pivots = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            f = row[col]
            if not f.is_zero():
                row = [v if w.is_zero() else v - f * w
                       for v, w in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if not v.is_zero()), None)
        if lead is not None:
            inv = row[lead].inverse()
            prow = [v if v.is_zero() else v * inv for v in row]
            for col, existing in pivots:
                f = existing[lead]
                if not f.is_zero():
                    existing[:] = [v if w.is_zero() else v - f * w
                                   for v, w in zip(existing, prow)]
            pivots.append((lead, prow))
    pivots.sort(key=lambda p: p[0])
    return [p[1] for p in pivots]


def _dense_nullspace(rows, ncols):
    """Reference: one kernel vector per free column of `_dense_row_basis`."""
    ech = _dense_row_basis(rows)
    pivot_cols = [next(j for j, v in enumerate(row) if not v.is_zero())
                  for row in ech]
    basis = []
    for fc in [j for j in range(ncols) if j not in pivot_cols]:
        vec = [Scalar(0)] * ncols
        vec[fc] = Scalar(1)
        for row, pc in zip(ech, pivot_cols):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def test_sparse_nullspace_matches_dense_reference():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        # columns fall into interleaved groups that share no row keys
        groups = [rng.randint(0, 2) for _ in range(n)]
        columns = []
        for g in groups:
            col = {}
            for r in range(3):
                v = rng.choice((0, 0, 1, -2, Fraction(1, 3)))
                if v:
                    col[(g, r)] = Scalar(v) + Scalar.sqrt_rational(
                        rng.choice((0, 0, 2)))
            columns.append(col)
        keys = sorted({k for col in columns for k in col})
        dense = [[col.get(k, Scalar(0)) for col in columns] for k in keys]
        rows = [{j: col[k] for j, col in enumerate(columns) if k in col}
                for k in keys]
        assert _linalg.nullspace(rows, n) == _dense_nullspace(dense, n), \
            columns
        echelon = _linalg.row_basis(rows)
        assert [[echelon[c].get(j, Scalar(0)) for j in range(n)]
                for c in sorted(echelon)] == _dense_row_basis(dense)
        assert _linalg.rank(rows) == len(echelon)


def test_solve_span_certifies(monkeypatch):
    conn = AffineConnection2.type_a(c111=2, c112=1, c221=1)
    assert eigenspace(conn, -1).dim == 3

    def no_rows(conn, mu, terms):
        return [{} for _ in terms]

    # with no rows every monomial is a "solution"; the residual check must
    # refuse them
    monkeypatch.setattr(qesolver, "_operator_columns", no_rows)
    with pytest.raises(SolverError, match="fails the residual check"):
        eigenspace(conn, -1)


def test_solve_span_checks_the_dimension():
    conn = AffineConnection2.type_a(c111=2, c112=1, c221=1)
    terms = qesolver._span_terms_a(
        qesolver._conic_pairs(conn, ricci(conn).r_s))
    assert len(qesolver._solve_span(conn, -1, terms, "rank2", 3)) == 3
    with pytest.raises(SolverError,
                       match=r"^rank2: expected dimension 2, got 3$"):
        qesolver._solve_span(conn, -1, terms, "rank2", 2)


SIZED_CASES = ("Thm1.5(3) flat A", "Thm1.5(3) flat B", "Thm1.13(1) alsoA",
               "Thm1.13(2)", "Thm6.1(2) TypeA-form")


def test_sized_spans_match_the_full_span(monkeypatch):
    """Each sized span gives the full span's basis term for term, and every
    sized case stops at a smaller span on some seeded input."""
    solve, columns = qesolver._solve_span, qesolver._operator_columns
    widths = []  # span width of each elimination
    seen = {case: [0, 0] for case in SIZED_CASES}  # inputs, smaller stops

    def recording_columns(conn, mu, terms):
        widths.append(len(terms))
        return columns(conn, mu, terms)

    def checked(conn, mu, terms, label, dim, degree=lambda t: 0):
        widths.clear()
        sized = solve(conn, mu, terms, label, dim, degree)
        last = widths[-1]
        full = solve(conn, mu, terms, label, dim)
        assert [f.terms for f in sized] == [f.terms for f in full], label
        case = label.split(" v=")[0]
        case += f" {conn.kind}" if case == "Thm1.5(3) flat" else ""
        seen[case][0] += 1
        seen[case][1] += last < len(terms)
        return sized

    monkeypatch.setattr(qesolver, "_operator_columns", recording_columns)
    monkeypatch.setattr(qesolver, "_solve_span", checked)
    rng = random.Random(13)
    flat_mus = itertools.cycle((0, -1, Fraction(1, 2), Fraction(2, 3)))
    for i in range(4000):
        if all(n >= 3 and early for n, early in seen.values()):
            break
        conn = AffineConnection2("AB"[i % 2], tuple(
            Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
            if rng.random() < 0.5 else 0 for _ in range(6)))
        ric = ricci(conn)
        if ric.is_flat:
            eigenspace(conn, next(flat_mus))
        elif conn.kind == "B" and not all(
                v.is_zero() for row in ric.r_s for v in row):
            if type_flags(conn).is_also_type_a:
                eigenspace(conn, -1)
                eigenspace(conn, Fraction(1, 2))
            elif is_strongly_projectively_flat(conn):
                eigenspace(conn, -1)
    # leave no drawn connection in the surface caches for later tests
    for fn in (surface.ricci, surface.normalize_type_b,
               surface._gamma_function):
        fn.cache_clear()
    assert all(n >= 3 and early for n, early in seen.values()), seen


def test_eigenspace_certifies_once_in_returned_coordinates(monkeypatch):
    desc = eigenspace(A2, 1)
    assert desc.case_label == "Thm1.10(3) rank1"
    assert not desc.change.is_identity
    checked = []
    is_solution = qesolver.is_solution

    def counting(conn, mu, f):
        checked.append((conn, f))
        return is_solution(conn, mu, f)

    monkeypatch.setattr(qesolver, "is_solution", counting)
    desc = eigenspace(A2, 1, input_coords=True)
    assert len(checked) == desc.dim == 2
    assert checked == [(A2, f) for f in desc.basis]

    # a mapping that corrupts the basis is refused in the input coordinates
    monkeypatch.setattr(qesolver.CoordinateChange, "to_input",
                        lambda self, f: f + constant(1, Context.TYPE_A))
    with pytest.raises(SolverError, match=r"Thm1\.10\(3\) rank1 \[input "
                                          r"coords\]: constructed basis"):
        eigenspace(A2, 1, input_coords=True)


@pytest.mark.parametrize("conn, mu, dim", [
    (AffineConnection2.type_a(c121=1, c122=1, c221=2), Fraction(1, 2), 0),
    (AffineConnection2.type_a(c121=1, c122=1, c221=2), 0, 1),
    (T110_1A, 0, 2),
    (AffineConnection2.type_a(c111=2, c112=1, c221=1), -1, 3),
    (HYPERBOLIC, Fraction(1, 2), 0),
    (NONSYM, -1, 1),
    (T114_2, 0, 2),
    (AffineConnection2.type_b(), Fraction(2, 3), 3),
], ids=["A0", "A1", "A2", "A3", "B0", "B1", "B2", "B3"])
def test_oracle_matches_eigenspace(conn, mu, dim):
    assert jet_dimension_oracle(conn, mu) == dim
    assert eigenspace(conn, mu).dim == dim


# sha256 of `_conic_pairs` (values, order and algebraic contexts) over 200
# seeded Type A connections with rank-2 symmetric Ricci tensor, each
# coefficient k/d with k in [-6, 6] and d in {1, 2, 3}: a change to the root
# finder that alters any exponent, its order or its field fails here.
CONIC_PAIRS_SHA256 = (
    "3e805d58c239725853e88549608aae5dd74c28738f16009ca519f8c215b197f8")


def test_conic_pairs_pinned():
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    seen = 0
    fields = set()
    while seen < 200:
        conn = AffineConnection2("A", [Fraction(rng.randint(-6, 6),
                                                rng.randint(1, 3))
                                       for _ in range(6)])
        ric = ricci(conn)
        if ric.is_flat or ric.rank_s != 2:
            continue
        pairs = qesolver._conic_pairs(conn, ric.r_s)
        fields.update(a1.context.degree for a1, _ in pairs if a1.context)
        digest.update(repr(pairs).encode() + b"\n")
        seen += 1
    assert fields == {2, 3}
    assert digest.hexdigest() == CONIC_PAIRS_SHA256


def test_conic_pairs_rejects_roots_off_the_third_conic():
    # shifting rho_22 by 1 shifts the third conic by 1 and leaves the cubic
    # from the first two unchanged: no root of it survives
    conn = AffineConnection2.type_a(c111=2, c112=1, c221=1)
    r = ricci(conn).r_s
    assert len(qesolver._conic_pairs(conn, r)) == 3
    shifted = (r[0], (r[1][0], r[1][1] + 1))
    with pytest.raises(SolverError, match="no common exponent"):
        qesolver._conic_pairs(conn, shifted)


def reference_potential_residual(f, hess, rho, mu, points):
    """`potential_residual_at` as a plain loop: every entry of every
    matrix evaluated at every probe."""
    n = len(hess)
    d = [f.derive(a + 1) for a in range(n)]
    scale, half_mu = complex(-2 / mu), complex(Fraction(mu, 2))
    worst = 0.0
    for p in points:
        fv = f.eval(p).real
        grad = [d[a].eval(p) for a in range(n)]
        fgrad = [scale * grad[a] / fv for a in range(n)]
        for a in range(n):
            for b in range(n):
                hf = scale * (hess[a][b].eval(p) / fv
                              - grad[a] * grad[b] / fv ** 2)
                val = hf + rho[a][b].eval(p) - half_mu * fgrad[a] * fgrad[b]
                worst = max(worst, abs(val))
    return worst


def test_potential_residual_keeps_every_bit_of_the_full_loop():
    """Each function object is evaluated once per probe and the entries
    with no nonzero function are skipped; the residual is the same float
    as the plain loop's, on T*M (n = 4) and on a surface (n = 2), with
    zero, shared and skew entries."""
    rng = random.Random(20261019)
    for n, ctx in ((4, Context.FOURD), (2, Context.TYPE_A)):
        points = ([Point((rng.uniform(1, 2), rng.uniform(-1, 1),
                          rng.uniform(-1, 1), rng.uniform(-1, 1)))
                   for _ in range(6)] if n == 4 else
                  [Point((rng.uniform(1, 2), rng.uniform(-1, 1)))
                   for _ in range(6)])
        for trial in range(12):
            # f > 0 on the probes; with trial % 3 == 0 it depends on x1 alone
            f = (monomial(ctx, coeff=2, exp=(Fraction(1, 3), 0))
                 + monomial(ctx, coeff=Fraction(1, 2), pow1=2,
                            x2=0 if trial % 3 == 0 else 2))

            # with trial % 4 == 1 only the df x df terms are left, whose
            # rounding is all the residual reads
            def entry():
                if trial % 4 == 1 or rng.random() < 0.5:
                    return AnsatzFunction([], ctx)
                return monomial(ctx, coeff=rng.choice((1, -2, Fraction(1, 3))),
                                exp=(0, rng.choice((0, 1))),
                                pow1=rng.randint(0, 2))

            hess = [[None] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    hess[a][b] = hess[b][a] = entry()
            rho = [[entry() for _ in range(n)] for _ in range(n)]
            mu = rng.choice((Fraction(-1), Fraction(1, 2), Fraction(2, 3)))
            got = potential_residual_at(f, hess, rho, mu, points)
            assert got == reference_potential_residual(f, hess, rho, mu,
                                                       points)
