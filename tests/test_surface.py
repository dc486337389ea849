import collections
import itertools
import random
from fractions import Fraction

import pytest

from affineqe import _linalg
from affineqe.funcalg import Context, Term, monomial
from affineqe.scalars import Scalar, ScalarError
from affineqe.qesolver import _rank1_frame, eigenspace
from affineqe.surface import (
    IDENTITY_RECORD, AffineConnection2, _gamma_function, christoffel,
    connection_from_json, connection_to_json,
    is_strongly_projectively_flat, nabla_ricci, normalize_type_b, ricci,
    transform, type_flags,
)
from dense_reference import (
    dense_nabla_ricci, dense_ricci, dense_riemann_up, dense_transform, sparse,
    symbol_functions,
)

A2 = AffineConnection2.type_a(c121=2, c222=1)
HYPERBOLIC = AffineConnection2.type_b(c111=-1, c122=-1, c221=1)
NONSYM = AffineConnection2.type_b(c121=1, c222=1, c122=1)
T17_1 = AffineConnection2.type_b(c111=1, c122=2, c221=1)
T17_2 = AffineConnection2.type_b(
    c111=Fraction(-21, 2), c112=1, c122=Fraction(-11, 2), c221=1, c222=2)


def symmetry_obstructions_type_b(conn: AffineConnection2):
    """The two closed-form scalars whose vanishing (with symmetric Ricci,
    i.e. C22^2 = -C12^1) is total symmetry of nabla rho for Type B."""
    c = conn.coeff_map()
    c111, c112 = c["111"], c["112"]
    c121, c122 = c["121"], c["122"]
    c221 = c["221"]
    s1 = c111 * c121 + 3 * c112 * c221 - 2 * c121 * c122 + 2 * c121
    s2 = 2 * c111 * c221 - 6 * c121 * c121 - 4 * c122 * c221 - 2 * c221
    return s1, s2


def ricci_rank(conn) -> int:
    """Rank of the Ricci matrix r itself (not of its symmetric part)."""
    return _linalg.rank(sparse(ricci(conn).r))


def rmat(conn):
    return [[v.as_fraction() for v in row] for row in ricci(conn).r]


def test_ricci_a2():
    # hand expansion of G_jk^m G_im^l - G_ik^m G_jm^l
    assert rmat(A2) == [[0, 0], [0, -2]]
    assert ricci(A2).rank_s == 1


def test_ricci_hyperbolic():
    # Gauss curvature -1 for ds^2 = x1^{-2}(dx1^2 + dx2^2)
    assert rmat(HYPERBOLIC) == [[-1, 0], [0, -1]]
    f = ricci(HYPERBOLIC).rho[0][0]
    assert f == monomial(Context.TYPE_B, coeff=-1, pow1=-2)


def test_ricci_flat_and_nonsymmetric():
    assert ricci(AffineConnection2.type_a()).is_flat
    assert rmat(NONSYM) == [[0, 2], [0, 0]]
    assert not ricci(NONSYM).is_symmetric
    data = ricci(NONSYM)
    assert [[v.as_fraction() for v in row] for row in data.r_s] == [
        [0, 1], [1, 0]]


def test_ricci_t17():
    assert rmat(T17_1) == [[0, 0], [0, -2]]


def test_ricci_random_vs_vectorfield_expansion():
    # independent oracle: curvature via explicit nabla on frame fields,
    # evaluated numerically at a point
    rng = random.Random(5)
    for _ in range(25):
        kind = rng.choice(["A", "B"])
        coeffs = [rng.randint(-3, 3) for _ in range(6)]
        conn = AffineConnection2(kind, tuple(coeffs))
        data = ricci(conn)
        x1 = 1.37
        scale = 1.0 if kind == "A" else 1.0 / x1
        dscale = 0.0 if kind == "A" else -1.0 / x1 ** 2

        def gam(i, j, k):
            return float(conn.coefficient(i, j, k).as_fraction()) * scale

        def dgam(i, j, k, axis):
            if axis == 1:
                return float(conn.coefficient(i, j, k).as_fraction()) * dscale
            return 0.0

        def R(i, j, k, l):
            acc = dgam(j, k, l, i) - dgam(i, k, l, j)
            for m in (1, 2):
                acc += gam(j, k, m) * gam(i, m, l) - gam(i, k, m) * gam(j, m, l)
            return acc

        expected = [[R(2, 1, 1, 2), R(2, 1, 2, 2)], [R(1, 2, 1, 1), R(1, 2, 2, 1)]]
        got = [[data.rho[i][j].eval((x1, 0.4)).real for j in range(2)]
               for i in range(2)]
        for i in range(2):
            for j in range(2):
                assert got[i][j] == pytest.approx(expected[i][j], abs=1e-12)


_VALUES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), 10 ** 4)
_SMALL = (0, 1, -1, 2, Fraction(1, 2))
# theta = 1 makes every coefficient rational
_FIELDS = (Scalar(1), Scalar.sqrt_rational(2), Scalar(0, 1),
           Scalar.algebraic((-2, 0, 0, 1), 0))


def _field_scalar(rng, theta, values=_VALUES):
    return Scalar(rng.choice(values)) + theta * rng.choice(values)


def _field_draws(rng, count):
    """(connection, theta): Type A and Type B in turn, two of each field in
    turn, each coefficient a + b theta with a and b drawn from _VALUES."""
    for i in range(count):
        theta = _FIELDS[i // 2 % 4]
        yield AffineConnection2("AB"[i % 2], tuple(
            _field_scalar(rng, theta) for _ in range(6))), theta


def _changes(rng, conn, theta):
    """Coordinate changes xt = S x with entries a + b theta: two invertible
    ones for Type A; for Type B two that fix x1, and the normalization's
    scale sqrt|C22^1| when C22^1 is a nonzero rational."""
    out = []
    while len(out) < 2:
        S = [[_field_scalar(rng, theta, _SMALL) for _ in range(2)]
             for _ in range(2)]
        if conn.kind == "B":
            S[0] = [Scalar(1), Scalar(0)]
        if not (S[0][0] * S[1][1] - S[0][1] * S[1][0]).is_zero():
            out.append(S)
    c221 = conn.coefficient(2, 2, 1)
    if conn.kind == "B" and c221.is_rational() and not c221.is_zero():
        scale = Scalar.sqrt_rational(abs(c221.as_fraction()))
        out.append(((1, 0), (0, scale)))
    return out


def test_ricci_matches_dense_reference():
    """The closed form of `ricci` against the trace of the dense curvature of
    the Christoffel functions, on seeded Type A and Type B draws with
    rational, Q(sqrt 2), Q(i) and cubic-field coefficients.  Each entry of
    the dense Ricci tensor is zero or one term: the constant r_bc for Type
    A, r_bc / x1^2 for Type B."""
    skew = 0
    for conn, _ in _field_draws(random.Random(20261022), 64):
        r = ricci(conn).r
        rho = dense_ricci(dense_riemann_up(christoffel(conn)))
        pow1 = Scalar(0) if conn.kind == "A" else Scalar(-2)
        for b in range(2):
            for c in range(2):
                if rho[b][c].is_zero():
                    assert r[b][c].is_zero(), conn
                    continue
                (t,) = rho[b][c].terms
                assert t == Term(r[b][c], pow1=pow1), conn
        skew += not ricci(conn).is_symmetric
    assert skew >= 5


def test_closed_forms_match_dense_references():
    """`christoffel`, `nabla_ricci`, `transform` and the rank-1 frame's
    rho_22 against the full sums of `dense_reference`, term for term, on
    seeded Type A and Type B draws with rational, Q(sqrt 2), Q(i) and
    cubic-field coefficients; the Type B changes fix x1, and include the
    irrational scale sqrt|C22^1| of the normalization."""
    rng = random.Random(20261023)
    changes = mixed = scales = rank1 = 0
    for conn, theta in _field_draws(rng, 96):
        gamma = symbol_functions(conn)
        assert [[list(row) for row in plane]
                for plane in christoffel(conn)] == gamma
        rho = dense_ricci(dense_riemann_up(gamma))
        assert nabla_ricci(conn) == dense_nabla_ricci(gamma, rho), conn
        for S in _changes(rng, conn, theta):
            try:
                want = dense_transform(conn, S)
            except ScalarError:  # a scale from another quadratic field
                with pytest.raises(ScalarError):
                    transform(conn, S)
                mixed += 1
                continue
            assert transform(conn, S) == want, (conn, S)
            changes += 1
            scales += type(S) is tuple and not S[1][1].is_rational()
        if conn.kind == "A":
            # C11^2 = C12^2 = 0 gives rho_11 = rho_12 = 0, so rank_s <= 1;
            # a change puts the kernel direction in general position
            base = AffineConnection2("A", tuple(
                Scalar(0) if n in (1, 3) else c
                for n, c in enumerate(conn.coeffs)))
            moved = transform(base, _changes(rng, base, theta)[0])
            if ricci(moved).rank_s == 1:
                rotated, _, rho22 = _rank1_frame(moved, ricci(moved))
                r_s = ricci(rotated).r_s
                assert r_s[0][0].is_zero() and r_s[0][1].is_zero()
                assert r_s[1][1] == rho22
                rank1 += 1
    assert changes >= 150 and scales >= 3 and rank1 >= 20


def _scalar_products(monkeypatch, thunk):
    """The result of thunk() and the number of Scalar products it made."""
    count = [0]
    mul = Scalar.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    try:
        out = thunk()
    finally:
        monkeypatch.undo()
    return out, count[0]


def test_transform_products_are_pinned(monkeypatch):
    """The identity change returns its connection and makes no Scalar
    product, so a normalized Type B connection is its own normal form; any
    other change makes at most 12 + 16 + 12 products beyond those of the
    2x2 inverse, where the full sum of `dense_transform` makes 144."""
    dense = AffineConnection2.type_a(1, 2, 3, 4, 5, 6)
    for conn in (A2, T17_2, dense):
        same, n = _scalar_products(
            monkeypatch, lambda: transform(conn, ((1, 0), (0, 1))))
        assert same is conn and n == 0
    for conn in (HYPERBOLIC, T17_1, T17_2):
        assert normalize_type_b.__wrapped__(conn)[0] is conn

    def beyond_inverse(conn, S, law=transform):
        _, inverse = _scalar_products(
            monkeypatch, lambda: _linalg.mat_inverse_2x2(_linalg.mat(S)))
        out, n = _scalar_products(monkeypatch, lambda: law(conn, S))
        return out, n - inverse

    rng = random.Random(20261024)
    for conn, theta in _field_draws(rng, 32):
        for S in _changes(rng, conn, theta)[:2]:
            assert beyond_inverse(conn, S)[1] <= 40
    # every coefficient and every entry of S, Sinv and the partial sums
    # nonzero: the bound is reached
    S = ((2, 3), (5, 7))
    got, n = beyond_inverse(dense, S)
    want, full = beyond_inverse(dense, S, dense_transform)
    assert got == want and (n, full) == (40, 144)


def test_normalize_spec_example():
    conn = AffineConnection2.type_b(c221=4, c121=2)
    normalized, record = normalize_type_b(conn)
    n = normalized.coeff_map()
    assert n["221"] == Scalar(1)
    assert n["121"].is_zero()
    assert record.scale == Scalar(2)
    assert record.epsilon == 1
    # applying the recorded transformation reproduces the normalized one
    assert transform(conn, record.matrix) == normalized


def test_normalize_identity_cases():
    conn = AffineConnection2.type_b(c121=3)
    normalized, record = normalize_type_b(conn)
    assert normalized == conn and record == IDENTITY_RECORD
    normalized, record = normalize_type_b(HYPERBOLIC)
    assert normalized == HYPERBOLIC
    assert record.scale == Scalar(1) and record.shear.is_zero()


def test_normalize_irrational_scale():
    conn = AffineConnection2.type_b(c221=2, c112=1)
    normalized, record = normalize_type_b(conn)
    assert normalized.coefficient(2, 2, 1) == Scalar(1)
    assert record.scale == Scalar.sqrt_rational(2)
    # C112 picks up the scale factor exactly
    assert normalized.coefficient(1, 1, 2) == Scalar.sqrt_rational(2)


def test_ricci_transforms_as_tensor():
    rng = random.Random(9)
    for _ in range(20):
        conn = AffineConnection2(
            "B", tuple(rng.randint(-3, 3) for _ in range(6)))
        normalized, record = normalize_type_b(conn)
        S = _linalg.mat(record.matrix)
        Sinv = _linalg.mat_inverse_2x2(S)
        r = ricci(conn).r
        expected = [[sum((r[p][q] * Sinv[p][i] * Sinv[q][j]
                          for p in range(2) for q in range(2)), Scalar(0))
                     for j in range(2)] for i in range(2)]
        got = ricci(normalized).r
        for i in range(2):
            for j in range(2):
                assert got[i][j] == expected[i][j]


def test_spf():
    res = is_strongly_projectively_flat(A2)
    assert res and res.family == "A-family"
    res = is_strongly_projectively_flat(HYPERBOLIC)
    assert res and res.family == "Thm1.13(2)"
    assert res.parameter == Scalar(-1)
    assert not is_strongly_projectively_flat(NONSYM)


def test_spf_obstructions_match_generic():
    rng = random.Random(13)
    seen_sym = 0
    for _ in range(60):
        coeffs = [rng.randint(-2, 2) for _ in range(6)]
        coeffs[5] = -coeffs[2]  # symmetric Ricci: C22^2 = -C12^1
        conn = AffineConnection2.type_b(*coeffs)
        if not ricci(conn).is_symmetric:
            continue
        seen_sym += 1
        s1, s2 = symmetry_obstructions_type_b(conn)
        nr = nabla_ricci(conn)
        generic = (nr[(1, 2, 1)] == nr[(1, 1, 2)]
                   and nr[(1, 2, 2)] == nr[(2, 2, 1)])
        assert generic == (s1.is_zero() and s2.is_zero())
    assert seen_sym > 20


def test_type_flags():
    flags = type_flags(AffineConnection2.type_b(c111=1))
    assert flags.is_also_type_a and flags.flat
    flags = type_flags(AffineConnection2.type_b(c122=2))
    assert flags.is_also_type_a and not flags.flat
    assert ricci_rank(AffineConnection2.type_b(c122=2)) <= 1
    flags = type_flags(HYPERBOLIC)
    assert flags.is_also_type_c and not flags.flat and not flags.is_also_type_a
    assert type_flags(AffineConnection2.type_a()).flat


def test_also_type_a_has_rank_le_1():
    rng = random.Random(21)
    for _ in range(40):
        conn = AffineConnection2.type_b(
            c111=rng.randint(-3, 3), c112=rng.randint(-3, 3),
            c122=rng.randint(-3, 3))
        assert type_flags(conn).is_also_type_a
        assert ricci_rank(conn) <= 1


def test_rank_s_closed_form_matches_elimination():
    """`RicciData.rank_s` (0 for a zero r_s, 1 for a zero determinant, else
    2) is the rank the generic sparse elimination gives r_s, on seeded
    draws over Q, Q(sqrt 2), Q(i) and Q(theta) with theta^3 = 2, of both
    kinds: as drawn, with C11^2 = C12^2 = 0, and with only C11^1 and C12^2
    left, so that every rank occurs."""
    rng = random.Random(26)
    generators = (None, Scalar.sqrt_rational(2), Scalar(0, 1),
                  Scalar.algebraic([-2, 0, 0, 1], 0))

    def coefficient(gen):
        if rng.random() < 0.5:
            return Scalar(0)
        c = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if gen is not None and rng.random() < 0.5:
            c = c + Scalar(rng.randint(-2, 2)) * gen
        return c

    zero = Scalar(0)
    ranks = collections.Counter()
    for n in range(240):
        coeffs = [coefficient(generators[n % 4]) for _ in range(6)]
        shape = n // 2 % 3
        if shape == 1:
            coeffs[1] = coeffs[3] = zero
        elif shape == 2:
            coeffs = [coeffs[0], zero, zero, coeffs[3], zero, zero]
        conn = AffineConnection2("AB"[n % 2], tuple(coeffs))
        ric = ricci(conn)
        assert ric.rank_s == _linalg.rank(sparse(ric.r_s)), conn
        ranks[ric.rank_s] += 1
    assert min(ranks[k] for k in range(3)) >= 20, ranks


def test_symmetric_ricci_data_is_shared():
    """A symmetric r is its own symmetric part: r_s and rho_s are r and rho
    themselves; a non-symmetric r still gets the symmetrized copy."""
    for conn in (A2, HYPERBOLIC):  # Type A, and a symmetric Type B
        ric = ricci(conn)
        assert ric.is_symmetric
        assert ric.r_s is ric.r
        assert ric.rho_s is ric.rho
    ric = ricci(NONSYM)
    assert not ric.is_symmetric
    assert ric.r_s is not ric.r and ric.rho_s is not ric.rho
    half = Fraction(1, 2)
    for i in range(2):
        for j in range(2):
            assert ric.r_s[i][j] == (ric.r[i][j] + ric.r[j][i]) * half
            assert ric.rho_s[i][j] == (
                ric.rho[i][j] + ric.rho[j][i]).scale(half)
    assert ric.r_s[0][1] != ric.r[0][1]


def test_connection_json_roundtrip():
    conn = AffineConnection2.type_b(c111=Fraction(-21, 2), c112=1,
                                    c122=Fraction(-11, 2), c221=1, c222=2)
    data = connection_to_json(conn)
    assert data["coeffs"]["111"] == "-21/2"
    assert connection_from_json(data) == conn
    normalized, _ = normalize_type_b(AffineConnection2.type_b(c221=2, c112=1))
    again = connection_from_json(connection_to_json(normalized))
    assert again == normalized


def test_surface_caches_are_bounded():
    caches = (ricci, normalize_type_b, _gamma_function)
    # empty caches, so that no connection that an earlier test left cached
    # is a hit here
    for fn in caches:
        fn.cache_clear()
    largest = max(fn.cache_info().maxsize for fn in caches)
    misses = [fn.cache_info().misses for fn in caches]
    # distinct non-flat Type B connections with C22^1 = 1 normalize and
    # classify cheaply at mu = 1/2; the closed-form `ricci` builds no
    # Christoffel array, so the loop asks for one
    for n in range(largest + 10):
        conn = AffineConnection2.type_b(c111=n + 2, c122=1, c221=1)
        eigenspace(conn, Fraction(1, 2))
        christoffel(conn)
    for fn, before in zip(caches, misses):
        info = fn.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
        assert info.misses - before >= largest + 10


def test_surface_caches_are_bounded_after_a_warm_run():
    """The bound test holds when a connection it draws is cached first."""
    for n in (0, 7, 300):
        conn = AffineConnection2.type_b(c111=n + 2, c122=1, c221=1)
        eigenspace(conn, Fraction(1, 2))
        christoffel(conn)
    test_surface_caches_are_bounded()


def test_christoffel_array_is_built_once_per_connection():
    _gamma_function.cache_clear()
    gamma = christoffel(T17_2)
    assert type(gamma) is tuple
    assert all(type(plane) is tuple and len(plane) == 2 for plane in gamma)
    assert all(type(row) is tuple and len(row) == 2
               for plane in gamma for row in plane)
    equal = AffineConnection2.type_b(*T17_2.coeffs)
    assert equal is not T17_2 and christoffel(equal) is gamma
    for i, j, k in itertools.product((1, 2), repeat=3):
        g = christoffel(T17_2)[k - 1][i - 1][j - 1]
        assert g is gamma[k - 1][i - 1][j - 1]
        assert g is christoffel(T17_2)[k - 1][j - 1][i - 1]
        assert g == monomial(Context.TYPE_B, pow1=-1,
                             coeff=T17_2.coefficient(i, j, k))
    info = _gamma_function.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # the benchmark clears this cache between passes over its pool
    _gamma_function.cache_clear()
    assert _gamma_function.cache_info().currsize == 0
    again = christoffel(T17_2)
    assert again is not gamma and again == gamma


def test_christoffel_cache_stays_bounded_over_a_sweep():
    _gamma_function.cache_clear()
    maxsize = _gamma_function.cache_info().maxsize
    assert maxsize is not None and maxsize < 150
    for n in range(150):
        conn = AffineConnection2.type_a(c111=n, c122=1, c221=-1)
        assert christoffel(conn)[0][0][0] == monomial(Context.TYPE_A,
                                                      coeff=n)
        assert _gamma_function.cache_info().currsize <= maxsize
    assert _gamma_function.cache_info().misses == 150
    _gamma_function.cache_clear()
