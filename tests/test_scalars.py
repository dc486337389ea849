import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from affineqe import scalars
from affineqe.funcalg import scalar_to_json
from affineqe.scalars import (
    ZERO, AlgebraicContext, Scalar, ScalarError, roots_of_monic,
    squarefree_split,
)
import rational_kernel_check


# The Q(i) arithmetic on (re, im) pairs of Fractions, spelled out in full:
# the reference that the zero-aware operations of `scalars` must match.
def _gq_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gq_neg(a):
    return (-a[0], -a[1])


def _gq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(36) == (6, 1)
    assert squarefree_split(7) == (1, 7)
    assert squarefree_split(12) == (2, 3)


def _squarefree_split_reference(n):
    """Trial division up to sqrt(n): the unbounded reference loop."""
    s, m, d, r = 1, 1, 2, n
    while d * d <= r:
        if r % d == 0:
            e = 0
            while r % d == 0:
                r //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1
    return s, m * r


def test_squarefree_split_matches_reference():
    for n in range(1, 20001):
        assert squarefree_split(n) == _squarefree_split_reference(n), n
    rng = random.Random(20260808)
    for _ in range(2000):
        n = rng.randrange(1, 10 ** 9)
        assert squarefree_split(n) == _squarefree_split_reference(n), n


@pytest.mark.parametrize("n, want", [
    (10000000000000061, (1, 10000000000000061)),       # 17-digit prime
    (100003 ** 2, (100003, 1)),                         # p^2
    (100003 * 100019, (1, 100003 * 100019)),            # p*q
    (12 * 100019 ** 2, (2 * 100019, 3)),
])
def test_squarefree_split_large_factors_fast(n, want):
    t0 = time.perf_counter()
    assert squarefree_split(n) == want
    assert time.perf_counter() - t0 < 1.0


def test_rational_arithmetic():
    a = Scalar(Fraction(1, 2))
    b = Scalar(3)
    assert (a + b).as_fraction() == Fraction(7, 2)
    assert (a * b).as_fraction() == Fraction(3, 2)
    assert (b / a).as_fraction() == 6
    assert (a - a).is_zero()
    assert a ** 2 == Scalar(Fraction(1, 4))


def test_gaussian_arithmetic():
    i = Scalar(0, 1)
    assert (i * i) == Scalar(-1)
    z = Scalar(1, 2)  # 1 + 2i
    w = Scalar(3, -1)
    assert z * w == Scalar(5, 5)
    assert (z / z) == Scalar(1)
    assert z.conjugate() == Scalar(1, -2)
    assert not z.is_real()
    assert (z + z.conjugate()).is_real()


def test_sqrt_normalization():
    r8 = Scalar.sqrt_rational(8)
    r2 = Scalar.sqrt_rational(2)
    assert r8 == r2 * 2
    assert (r2 * r2) == Scalar(2)
    assert Scalar.sqrt_rational(Fraction(9, 4)) == Scalar(Fraction(3, 2))
    rneg = Scalar.sqrt_rational(-4)
    assert rneg == Scalar(0, 2)
    rm = Scalar.sqrt_rational(Fraction(1, 2))
    assert rm * rm == Scalar(Fraction(1, 2))
    assert abs(rm.to_complex() - 0.7071067811865476) < 1e-15


def test_quadratic_field_inverse_and_conj():
    r7 = Scalar.sqrt_rational(7)
    z = Scalar(2) + r7 * Scalar(0, Fraction(1, 2))  # 2 + (i/2) sqrt 7
    w = z * z.inverse()
    assert w == Scalar(1)
    assert z.conjugate() == Scalar(2) - r7 * Scalar(0, Fraction(1, 2))
    assert (z + z.conjugate()).is_real()
    assert z.is_real() is False


def test_quadratic_roots():
    roots = roots_of_monic([Fraction(-2), Fraction(-1), Fraction(1)])  # x^2-x-2
    vals = sorted(r.as_fraction() for r in roots)
    assert vals == [-1, 2]
    roots = roots_of_monic([Fraction(2), Fraction(-1), Fraction(1)])  # x^2-x+2
    a, b = roots
    assert a.conjugate() == b
    assert (a + b) == Scalar(1)
    assert (a * b) == Scalar(2)
    assert abs(a.to_complex().imag ** 2 - 7 / 4) < 1e-12


def test_cubic_field():
    # x^3 - 2x^2 - 1 is irreducible over Q, with one real root
    roots = roots_of_monic([Fraction(-1), Fraction(0), Fraction(-2), Fraction(1)])
    assert len(roots) == 3
    for r in roots:
        assert (r ** 3 - 2 * r ** 2 - 1).is_zero()
    assert (roots[0] + Scalar(0)).context is not None
    # arithmetic within one root's field
    t = roots[0]
    inv = t.inverse()
    assert t * inv == Scalar(1)
    assert (t ** 2 - 2 * t) * t == t ** 3 - 2 * t ** 2
    # the real root first, then the conjugate pair, Im < 0 first
    assert [r.is_real() for r in roots] == [True, False, False]
    assert roots[1].conjugate() == roots[2]
    values = [r.to_complex() for r in roots]
    assert values[0].imag == 0.0 and values[1].imag < 0 < values[2].imag
    assert values[1] == values[2].conjugate()


def test_reducible_cubic():
    # x^3 - 1 = (x-1)(x^2+x+1)
    roots = roots_of_monic([Fraction(-1), Fraction(0), Fraction(0), Fraction(1)])
    rationals = [r for r in roots if r.is_rational()]
    assert rationals and rationals[0].as_fraction() == 1
    others = [r for r in roots if not r.is_rational()]
    assert len(others) == 2
    assert (others[0] * others[1]) == Scalar(1)
    assert others[0] + others[1] == Scalar(-1)


def test_incompatible_contexts_raise():
    r2 = Scalar.sqrt_rational(2)
    r3 = Scalar.sqrt_rational(3)
    with pytest.raises(ScalarError):
        _ = r2 + r3


def test_sort_key_and_hash():
    xs = {Scalar(1), Scalar(1), Scalar.sqrt_rational(2)}
    assert len(xs) == 2
    assert Scalar(2).sort_key() != Scalar(3).sort_key()


def test_context_caches_are_bounded():
    # theta^3 = c in a fresh cubic field each time, c = 2, 3, ... skipping
    # the perfect cubes (x^3 - c has a rational root there); the first
    # fields are evicted and recomputed with the same results
    values = [c for c in range(2, 80) if c not in (8, 27, 64)]
    values = values[: scalars._CTX_CACHE_MAX + 10]
    assert len(values) == scalars._CTX_CACHE_MAX + 10
    for _ in range(2):
        for c in values:
            theta = Scalar.algebraic([-c, 0, 0, 1], 0)
            assert theta * theta * theta == Scalar(c)
            assert abs(theta.to_complex() - c ** (1 / 3)) < 1e-9
    assert len(scalars._CTX_ROOTS) <= scalars._CTX_CACHE_MAX


def test_algebraic_refuses_a_cubic_with_a_rational_root():
    # x^3 - 8 = (x - 2)(x^2 + 2x + 4), x^3 - 2x = x (x^2 - 2) and
    # (x - 1/2)(x^2 + 1): theta would not generate a cubic field
    for poly in ([-8, 0, 0, 1], [0, -2, 0, 1],
                 [Fraction(-1, 2), 1, Fraction(-1, 2), 1]):
        for k in range(3):
            with pytest.raises(ScalarError, match="rational root"):
                Scalar.algebraic(poly, k)
    # an irreducible cubic is taken, and roots_of_monic builds the same
    # three generators
    poly = [1, -2, -1, 1]
    roots = roots_of_monic(poly)
    for k in range(3):
        theta = Scalar.algebraic(poly, k)
        assert theta == roots[k] and theta.context == roots[k].context
        assert theta * theta * theta == theta * theta + 2 * theta - 1


def _field_elements():
    """Seeded elements of sqrt(m) fields and of cubic fields with three real
    roots or one, at every root index, with Gaussian coefficients."""
    rng = random.Random(11)

    def gq():
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return Scalar(re, im if rng.random() < 0.4 else 0)

    def element(powers):
        return sum((gq() * t for t in powers), Scalar(0))

    out = []
    for m in (2, 3, 5, 6, 7, 10, 11, 13, 15, 30):
        r = Scalar.sqrt_rational(m)
        out += [element((Scalar(1), r)) for _ in range(20)]
    cubics = {True: 0, False: 0}   # three real roots?
    while min(cubics.values()) < 6:
        poly = [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                for _ in range(3)] + [Fraction(1)]
        roots = roots_of_monic(poly)
        three_real = scalars._discriminant(poly) > 0
        if roots[0].is_rational() or cubics[three_real] == 6:
            continue
        cubics[three_real] += 1
        for t in roots:
            out += [element((Scalar(1), t, t * t)) for _ in range(10)]
    return [x for x in out if x.context is not None]


# sha256 of the inverses' reprs, computed with the Gauss-Jordan inverse that
# the closed form replaced
FIELD_INVERSES_SHA256 = (
    "a3e6f27ebf5f72475efd216a76300e230c30610b3d7b0a9fed8594f3e5d4c88d")


def test_closed_form_field_arithmetic():
    xs = _field_elements()
    assert len(xs) == 555
    assert {x.context.root_index for x in xs if x.context.degree == 3} == {
        0, 1, 2}
    inverses = [x.inverse() for x in xs]
    for x, y in zip(xs, inverses):
        assert x * y == 1
        assert y.inverse() == x
        assert x.conjugate().conjugate() == x
    digest = hashlib.sha256("\n".join(map(repr, inverses)).encode())
    assert digest.hexdigest() == FIELD_INVERSES_SHA256


def test_complex_cubic_roots_have_positive_imaginary_part_second():
    # the pair shares one rounded real part, so only the sign of the
    # imaginary part orders it
    poly = (Fraction(-59, 4), 1, -13, 1)
    theta = [Scalar.algebraic(poly, k) for k in range(3)]
    roots = theta[0].context.roots()
    assert roots[0].imag == 0 and roots[1].imag < 0 < roots[2].imag
    assert roots[1] == roots[2].conjugate()
    assert theta[1].to_complex().imag < 0 < theta[2].to_complex().imag
    assert theta[1].conjugate() == theta[2]
    assert theta[2].conjugate() == theta[1]
    assert theta[0].conjugate() == theta[0]


def _poly(p, x):
    return sum(a * x ** j for j, a in enumerate(p))


def _bisect_root(p, lo, hi, bits=400):
    """The root of p in [lo, hi], where p changes sign, to 2^-bits."""
    lo, hi = Fraction(lo), Fraction(hi)
    sign = _poly(p, hi) > 0
    while hi - lo > Fraction(1, 2 ** bits):
        mid = (lo + hi) / 2
        if (_poly(p, mid) > 0) == sign:
            hi = mid
        else:
            lo = mid
    return lo


def _sqrt(q, bits=400):
    return Fraction(math.isqrt(q.numerator * 4 ** bits // q.denominator),
                    2 ** bits)


def _changes_sign_around(p, x):
    """p changes sign strictly between the midpoints from the float x to
    its two neighbours, the reals that round to x."""
    below, above = (Fraction(x) + Fraction(math.nextafter(x, t)) for t in
                    (-math.inf, math.inf))
    return _poly(p, below / 2) * _poly(p, above / 2) < 0


def _near_double_root_cubic(c, delta):
    """x^3 - c x^2 - 2x + 2c + delta: (x - c)(x^2 - 2) moved by delta."""
    return (2 * c + delta, Fraction(-2), -c, Fraction(1))


def test_near_double_root_cubic_with_three_real_roots():
    # the discriminant is > 0: three real roots, two of them 2.4e-9 apart
    p = _near_double_root_cubic(Fraction("1.41421356"), Fraction(1, 10 ** 20))
    assert scalars._discriminant(p) > 0
    theta = [Scalar.algebraic(p, k) for k in range(3)]
    values = [t.to_complex() for t in theta]
    assert all(t.is_real() for t in theta)
    assert [z.imag for z in values] == [0.0, 0.0, 0.0]
    brackets = ((-2, -1), (1, Fraction("1.414213561")),
                (Fraction("1.414213561"), 2))
    assert [z.real for z in values] == [
        float(_bisect_root(p, lo, hi)) for lo, hi in brackets]
    assert values[0].real < values[1].real < values[2].real


def test_near_double_root_cubic_with_a_complex_pair():
    # the discriminant is < 0: roots 1 and 2 are a conjugate pair whose
    # imaginary parts are only about 3.57e-14
    c, delta = Fraction("1.414213562373"), Fraction(1, 10 ** 26)
    p = _near_double_root_cubic(c, delta)
    assert scalars._discriminant(p) < 0
    theta = [Scalar.algebraic(p, k) for k in range(3)]
    assert [t.is_real() for t in theta] == [True, False, False]
    # the pair u +- iv from the real root r: u = -(b + r)/2 and
    # v^2 = c + r(b + r) - u^2 for p = x^3 + b x^2 + c x + d
    r = _bisect_root(p, -2, -1)
    u = (c - r) / 2
    v = _sqrt(p[1] + r * (r - c) - u * u)
    values = [t.to_complex() for t in theta]
    assert values == [complex(float(r), 0.0), complex(float(u), -float(v)),
                      complex(float(u), float(v))]
    assert 3.5734e-14 < float(v) < 3.5736e-14


def test_square_roots_are_correctly_rounded():
    for m in range(2, 5000):
        if math.isqrt(m) ** 2 != m:
            ctx = AlgebraicContext((Fraction(-m), Fraction(0), Fraction(1)), 1)
            assert ctx.roots() == [-math.sqrt(m), math.sqrt(m)], m


def test_cubic_roots_are_correctly_rounded():
    """Seeded irreducible cubics with coefficients k/d, |k| <= 60, d <= 12:
    each real root, and the real part of each pair, is the float nearest
    the exact value, and the discriminant's sign fixes the real count."""
    rng = random.Random(118981)
    counts = {1: 0, 3: 0}
    t0 = time.perf_counter()
    while min(counts.values()) < 400:
        d, c, b = (Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                   for _ in range(3))
        p = (d, c, b, Fraction(1))
        if roots_of_monic(p)[0].is_rational():
            continue
        values = AlgebraicContext(p, 0).roots()
        n_real = 3 if scalars._discriminant(p) > 0 else 1
        counts[n_real] += 1
        reals = [z.real for z in values[:n_real]]
        assert [z.imag for z in values[:n_real]] == [0.0] * n_real
        assert reals == sorted(set(reals)), p
        assert all(_changes_sign_around(p, x) for x in reals), p
        if n_real == 1:
            low, high = values[1:]
            assert low.imag < 0 < high.imag and low == high.conjugate(), p
            # u is the root of p(-2x - b), x = -(b + r)/2 for the real root r
            p_u = [(b * c - d) / 8, (b * b + c) / 4, b, 1]
            assert _changes_sign_around(p_u, low.real), p
    assert time.perf_counter() - t0 < 2.0


def test_quadratic_contexts_decide_reality_by_the_discriminant():
    # x^2 + x + 1 has no real root; x^2 - 2 and x^2 - x - 1 have two
    for poly, real in (((1, 1, 1), False), ((-2, 0, 1), True),
                       ((-1, -1, 1), True), ((1, 0, 1), False)):
        ctxs = [AlgebraicContext(tuple(map(Fraction, poly)), k)
                for k in (0, 1)]
        assert [c.root_is_real() for c in ctxs] == [real, real]
        assert [c.conjugate_index() for c in ctxs] == ([0, 1] if real
                                                       else [1, 0])
        values = ctxs[0].roots()
        assert (values[0].imag == values[1].imag == 0.0) is real
        if not real:
            assert values[0].imag < 0 < values[1].imag
            assert values[0] == values[1].conjugate()


def test_roots_beyond_float_range_raise_fast():
    t0 = time.perf_counter()
    with pytest.raises(OverflowError):
        AlgebraicContext((Fraction(-10 ** 700), Fraction(0), Fraction(1)),
                         1).roots()
    with pytest.raises(OverflowError):
        AlgebraicContext((Fraction(-10 ** 999), Fraction(10 ** 600),
                          Fraction(0), Fraction(1)), 0).roots()
    # a tiny root rounds, to 0.0 below the least subnormal
    tiny = AlgebraicContext((Fraction(-1, 10 ** 700), Fraction(0),
                             Fraction(1)), 1).roots()
    assert tiny == [-0.0, 0.0]
    assert time.perf_counter() - t0 < 1.0


def test_repeated_root_raises():
    with pytest.raises(ScalarError):
        AlgebraicContext((Fraction(1), Fraction(-2), Fraction(1)), 0).roots()


_CUBIC = Scalar.algebraic([-2, 0, 0, 1], 0)   # the real cube root of 2


@pytest.mark.parametrize("x, foreign", [
    (Scalar(Fraction(-3, 4)), None),
    (Scalar(1) + Scalar.sqrt_rational(2), Scalar.sqrt_rational(3)),
    (_CUBIC + Scalar(0, 1), Scalar.sqrt_rational(2)),
], ids=["rational", "sqrt-field", "cubic-field"])
def test_zero_identities(x, foreign):
    assert x + 0 is x
    assert 0 + x is x
    assert x + ZERO is x
    assert Scalar(0) + x is x
    for product in (x * 0, 0 * x, x * Scalar(0), ZERO * x):
        assert product == 0
        assert product.context is None
    if foreign is not None:
        # zero carries no field, but two nonzero values of different
        # fields still do not combine
        with pytest.raises(ScalarError):
            _ = x + foreign
        with pytest.raises(ScalarError):
            _ = foreign * x


def test_squarefree_split_large_cofactor_raises():
    # a 31-digit prime: past the trial divisors, and too large to settle
    t0 = time.perf_counter()
    with pytest.raises(ScalarError):
        squarefree_split(10 ** 30 + 57)
    assert time.perf_counter() - t0 < 5.0
    # a large n whose cofactor is small still splits
    assert squarefree_split(2 ** 71 * 3 * 7 ** 4) == (2 ** 35 * 49, 6)


def _rationals(seed, count):
    rng = random.Random(seed)
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7), Fraction(-12)]
    while len(out) < count:
        out.append(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
    return out


def _assert_same_scalar(got, want):
    assert got._c == want._c
    assert got._ctx is None and want._ctx is None
    assert hash(got) == hash(want)
    assert got.sort_key() == want.sort_key()
    assert repr(got) == repr(want)
    assert scalar_to_json(got) == scalar_to_json(want)


def _gq(re, im=0):
    return (Fraction(re), Fraction(im))


def _gq_inv(a):
    """The Gaussian rational 1/a, by the conjugate over the norm."""
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def test_rational_fast_paths_match_general_path():
    make = Scalar._make
    # a Python int operand is the rational it names, and so is a bool
    for n in (0, 1, -7, 2 ** 70, True, False):
        got = Scalar.of(n)
        _assert_same_scalar(got, make([_gq(int(n))], None))
        assert type(got._c[0][0].numerator) is int
    values = _rationals(7, 24)
    for p in values:
        a = Scalar(p)
        _assert_same_scalar(-a, make([_gq_neg(_gq(p))], None))
        if p:
            _assert_same_scalar(a.inverse(), make([_gq_inv(_gq(p))], None))
        for q in values:
            b = Scalar(q)
            _assert_same_scalar(a + b, make([_gq_add(_gq(p), _gq(q))], None))
            _assert_same_scalar(a - b, make([_gq_add(_gq(p), _gq(-q))], None))
            _assert_same_scalar(a * b, make([_gq_mul(_gq(p), _gq(q))], None))
            _assert_same_scalar(a + q, a + b)
            _assert_same_scalar(p - b, a - b)
            _assert_same_scalar(q * a, a * b)
    # the integer kernel's edge cases: two integers, equal and coprime
    # denominators, negative operands, results that cancel to 0 and
    # numerator products beyond 2**64
    pairs = rational_kernel_check.kernel_pairs()
    assert max(abs((p * q).numerator) for p, q in pairs) > 2 ** 64
    assert any(p + q == 0 != p for p, q in pairs)
    assert any(p == q for p, q in pairs)
    assert any(p.denominator == q.denominator > 1 for p, q in pairs)
    assert any(math.gcd(p.denominator, q.denominator) == 1
               < min(p.denominator, q.denominator) for p, q in pairs)
    assert rational_kernel_check.mismatches(pairs) == []
    for p, q in pairs:
        a, b = Scalar(p), Scalar(q)
        _assert_same_scalar(a * b, make([_gq_mul(_gq(p), _gq(q))], None))
        _assert_same_scalar(a + b, make([_gq_add(_gq(p), _gq(q))], None))
        _assert_same_scalar(a - b, make([_gq_add(_gq(p), _gq(-q))], None))
    # the tests, ==, hash, -x and 1/x on each build of a rational: zero,
    # negative values, integers and numerators beyond 2**70
    values = sorted({v for pair in pairs for v in pair})
    assert 0 in values and min(values) < 0
    assert any(v.denominator == 1 and v > 1 for v in values)
    assert any(abs(v.numerator) > 2 ** 70 and v.denominator > 1
               for v in values) and 2 ** 70 in values
    assert rational_kernel_check.unary_mismatches(values) == []
    for p in values:
        for x in rational_kernel_check.builds(p):
            _assert_same_scalar(x, make([_gq(p)], None))
            _assert_same_scalar(-x, make([_gq_neg(_gq(p))], None))
            if p:
                _assert_same_scalar(x.inverse(), make([_gq_inv(_gq(p))], None))
    # Gaussian values, with zero and nonzero imaginary parts, and field
    # elements, which keep the Fraction operators
    assert any(q == 0 for _, q in pairs) and any(q != 0 for _, q in pairs)
    assert rational_kernel_check.gaussian_mismatches(pairs) == []
    assert rational_kernel_check.field_mismatches(pairs[::4]) == []
    # a float is refused in either part, a zero imaginary part included
    for args in ((0.5,), (1, 0.0), (1, 0.5), (True, 0.0)):
        with pytest.raises(ScalarError):
            Scalar(*args)


def test_gaussian_and_field_operands_keep_their_values():
    rng = random.Random(11)
    gauss = [Scalar(*map(Fraction, (rng.randint(-9, 9), rng.randint(-9, 9))))
             for _ in range(12)] + [Scalar(0, 1), Scalar(Fraction(2, 3))]
    for a in gauss:
        for b in gauss:
            want = Scalar._make([_gq_add(a._c[0], b._c[0])], None)
            assert a + b == want and hash(a + b) == hash(want)
            assert a * b == Scalar._make([_gq_mul(a._c[0], b._c[0])], None)
            assert (a - b) + b == a
    r2, r3 = Scalar.sqrt_rational(2), Scalar.sqrt_rational(3)
    fields = [Scalar(1) + r2, Scalar(0, 1) - r2 * Fraction(1, 3),
              _CUBIC, _CUBIC * _CUBIC + Scalar(Fraction(-1, 2), 2)]
    for x in fields:
        for y in gauss + [x, x * x]:
            for got, want in ((x + y, x.to_complex() + y.to_complex()),
                              (y - x, y.to_complex() - x.to_complex()),
                              (x * y, x.to_complex() * y.to_complex())):
                assert abs(got.to_complex() - want) < 1e-9 * (1 + abs(want))
            assert (x + y) * x == x * x + y * x
        assert x * x.inverse() == 1
        assert -(-x) == x and (-x).context == x.context
    assert (Scalar(1) + r2) * (Scalar(1) - r2) == -1
    assert _CUBIC * _CUBIC * _CUBIC == 2
    for x, foreign in ((Scalar(1) + r2, r3), (_CUBIC, r2)):
        for op in (lambda: x + foreign, lambda: x - foreign,
                   lambda: x * foreign, lambda: foreign * x):
            with pytest.raises(ScalarError):
                op()


def _fraction_op_counts(monkeypatch, thunk):
    """The result of thunk() and the Fraction operations it made."""
    counts = {"mul": 0, "add": 0, "sub": 0, "neg": 0}
    originals = {op: getattr(Fraction, f"__{op}__") for op in counts}

    def counted(op):
        def run(*args):
            counts[op] += 1
            return originals[op](*args)
        return run

    for op in counts:
        monkeypatch.setattr(Fraction, f"__{op}__", counted(op))
    try:
        out = thunk()
    finally:
        monkeypatch.undo()
    return out, counts


def test_rational_ops_make_no_fraction_operation(monkeypatch):
    a, b = Scalar(Fraction(2, 3)), Scalar(Fraction(-5, 7))
    product, mul_counts = _fraction_op_counts(monkeypatch, lambda: a * b)
    total, add_counts = _fraction_op_counts(monkeypatch, lambda: a + b)
    difference, sub_counts = _fraction_op_counts(monkeypatch, lambda: a - b)
    # the integer kernel works on numerators and denominators: no Fraction
    # operator runs
    none = {"mul": 0, "add": 0, "sub": 0, "neg": 0}
    assert mul_counts == add_counts == sub_counts == none
    assert product == Scalar(Fraction(-10, 21))
    assert total == Scalar(Fraction(-1, 21))
    assert difference == Scalar(Fraction(29, 21))


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend([d, n // d])
        d += 1
    return sorted(set(out))


def _rational_roots_reference(coeffs):
    """Rational roots by the rational root theorem's divisor search, with
    multiplicity, in the order the search meets them: the unbounded
    reference for `roots_of_monic`."""
    coeffs = [Fraction(c) for c in coeffs]
    roots = []
    while len(coeffs) > 1:
        if coeffs[0] == 0:
            roots.append(Fraction(0))
            coeffs = coeffs[1:]
            continue
        scale = math.lcm(*[c.denominator for c in coeffs])
        ints = [int(c * scale) for c in coeffs]
        found = next(
            (cand for q in _divisors(ints[-1]) for p in _divisors(ints[0])
             for cand in (Fraction(p, q), Fraction(-p, q))
             if sum(c * cand ** k for k, c in enumerate(coeffs)) == 0),
            None)
        if found is None:
            break
        roots.append(found)
        deg = len(coeffs) - 1
        out = [Fraction(0)] * deg
        out[deg - 1] = coeffs[deg]
        for k in range(deg - 2, -1, -1):
            out[k] = coeffs[k + 1] + found * out[k + 1]
        coeffs = out
    return roots


def _roots_of_monic_reference(coeffs):
    rational = _rational_roots_reference(coeffs)
    if len(coeffs) == 3:
        c, b = coeffs[0], coeffs[1]
        if rational:
            return [Scalar(rational[0]), Scalar(-b - rational[0])]
        root = Scalar.sqrt_rational(b * b - 4 * c)
        half = Fraction(1, 2)
        return [(Scalar(-b) + root) * half, (Scalar(-b) - root) * half]
    if rational:
        r0 = rational[0]
        b = coeffs[2] + r0
        return [Scalar(r0)] + _roots_of_monic_reference(
            [coeffs[1] + r0 * b, b, Fraction(1)])
    return [Scalar.algebraic(tuple(coeffs), k) for k in range(3)]


def _times_linear(poly, r):
    """poly * (x - r), ascending coefficients."""
    out = [Fraction(0)] + poly
    for j in range(len(poly)):
        out[j] -= r * poly[j]
    return out


def _monic_from_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        poly = _times_linear(poly, r)
    return poly


def test_roots_of_monic_matches_divisor_search():
    rng = random.Random(20261018)

    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    polys = [[Fraction(0), Fraction(0), Fraction(1)],          # 0, 0
             [Fraction(0)] * 3 + [Fraction(1)],                  # 0, 0, 0
             [Fraction(-1), Fraction(0), Fraction(-2), Fraction(1)],
             _monic_from_roots([Fraction(1, 2)] * 3)]
    for _ in range(600):
        polys.append([q(), q(), Fraction(1)])
        polys.append([q(), q(), q(), Fraction(1)])
        roots = [q() for _ in range(rng.choice((2, 3)))]
        if rng.random() < 0.3:
            roots[-1] = roots[0]
        if rng.random() < 0.2:
            roots[0] = Fraction(0)
        polys.append(_monic_from_roots(roots))
        # a rational root times a random, often irreducible, quadratic
        polys.append(_times_linear([q(), q(), Fraction(1)], q()))
    irreducible = 0
    for poly in polys:
        got = roots_of_monic(poly)
        want = _roots_of_monic_reference(poly)
        assert [(repr(r), r.context) for r in got] == [
            (repr(r), r.context) for r in want], poly
        irreducible += got[0].context is not None and len(poly) == 4
    assert irreducible > 100


def test_large_rational_roots_are_fast():
    # (x - r)(x^2 + x + 1): the divisor search would run to sqrt(r)
    r = 10 ** 20 + 39
    t0 = time.perf_counter()
    roots = roots_of_monic([-r, 1 - r, 1 - r, 1])
    assert time.perf_counter() - t0 < 1.0
    assert roots[0] == Scalar(r)
    assert roots[1] + roots[2] == -1 and roots[1] * roots[2] == 1
    assert roots[1].conjugate() == roots[2]
    # (x - r)(x + r/3): a square discriminant with large prime factors
    t0 = time.perf_counter()
    roots = roots_of_monic(_monic_from_roots([Fraction(r), Fraction(-r, 3)]))
    assert time.perf_counter() - t0 < 1.0
    assert roots == [Scalar(r), Scalar(Fraction(-r, 3))]


# The lift-and-convolve arithmetic that every operand with a context took
# before a context-free operand came to scale or shift a field element
# directly: the reference those paths must match bit for bit.
_GQ0 = (Fraction(0), Fraction(0))


def _lift_reference(x, ctx):
    if ctx is None or x._ctx == ctx:
        return x._c
    if x._ctx is None:
        return (x._c[0],) + (_GQ0,) * (ctx.degree - 1)
    raise ScalarError("incompatible algebraic contexts")


def _add_reference(a, b):
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    ctx = Scalar._join(a, b)
    x, y = _lift_reference(a, ctx), _lift_reference(b, ctx)
    return Scalar._make([_gq_add(p, q) for p, q in zip(x, y)], ctx)


def _neg_reference(a):
    return Scalar._make([_gq_neg(x) for x in a._c], a._ctx)


def _sub_reference(a, b):
    return _add_reference(a, _neg_reference(b))


def _mul_reference(a, b):
    if a.is_zero() or b.is_zero():
        return ZERO
    ctx = Scalar._join(a, b)
    x, y = _lift_reference(a, ctx), _lift_reference(b, ctx)
    d = ctx.degree
    conv = [_GQ0] * (2 * d - 1)
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            if (p[0] or p[1]) and (q[0] or q[1]):
                conv[i + j] = _gq_add(conv[i + j], _gq_mul(p, q))
    m = ctx.minpoly
    for k in range(2 * d - 2, d - 1, -1):
        cr, ci = conv[k]
        if cr or ci:
            for j in range(d):
                if m[j]:
                    xr, xi = conv[k - d + j]
                    conv[k - d + j] = (xr - cr * m[j], xi - ci * m[j])
    return Scalar._make(conv[:d], ctx)


def _assert_identical(got, want):
    assert got._c == want._c
    assert got._ctx == want._ctx
    assert hash(got) == hash(want)
    assert got.sort_key() == want.sort_key()
    assert repr(got) == repr(want)
    assert scalar_to_json(got) == scalar_to_json(want)


def _context_free_operands(seed):
    """0, +-1, integers, non-integers and Gaussian rationals, as Scalars,
    and a few Python ints."""
    rng = random.Random(seed)
    out = [Scalar(0), Scalar(1), Scalar(-1), Scalar(7), Scalar(-12),
           Scalar(0, 1), Scalar(0, Fraction(-3, 5)), 0, 1, -1, 5]
    for _ in range(6):
        out.append(Scalar(Fraction(rng.randint(-40, 40), rng.randint(2, 9))))
        out.append(Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.choice([-7, -2, 1, 3]),
                                   rng.randint(1, 5))))
    return out


def _mixed_field_elements(seed):
    """Elements of Q(sqrt 2), of Q(i)(sqrt 3), of the cubic x^3 - 3x + 1
    (three real roots) at each root, and of x^3 - 2 at its complex roots 1
    and 2, built from their coefficients: some with a zero constant or
    middle coefficient, some with Gaussian coefficients."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 7))

    contexts = [(Scalar.sqrt_rational(2).context, False),
                (Scalar.sqrt_rational(3).context, True)]
    contexts += [(Scalar.algebraic([1, -3, 0, 1], k).context, k == 1)
                 for k in range(3)]
    contexts += [(Scalar.algebraic([-2, 0, 0, 1], k).context, True)
                 for k in (1, 2)]
    out = []
    for ctx, gaussian in contexts:
        for n in range(6):
            coeffs = [(q(), q() if gaussian and rng.random() < 0.6
                       else Fraction(0)) for _ in range(ctx.degree)]
            if n == 0:
                coeffs[0] = _GQ0
            if n == 1 and ctx.degree == 3:
                coeffs[1] = _GQ0
            if all(c == _GQ0 for c in coeffs[1:]):
                coeffs[-1] = (Fraction(1), Fraction(0))
            out.append(Scalar._make(coeffs, ctx))
    assert all(x.context is not None for x in out)
    return out


def test_context_free_operands_are_never_lifted():
    xs = _mixed_field_elements(15)
    ops = _context_free_operands(16)
    assert {x.context.root_index for x in xs if x.context.degree == 3} == {
        0, 1, 2}
    for x in xs:
        _assert_identical(-x, _neg_reference(x))
        for s in ops:
            r = Scalar.of(s)
            _assert_identical(x * s, _mul_reference(x, r))
            _assert_identical(s * x, _mul_reference(r, x))
            _assert_identical(x + s, _add_reference(x, r))
            _assert_identical(s + x, _add_reference(r, x))
            _assert_identical(x - s, _sub_reference(x, r))
            _assert_identical(s - x, _sub_reference(r, x))
            if r.is_zero():
                assert x + s is x and s + x is x and x - s is x


def test_same_field_arithmetic_matches_lift_and_convolve():
    xs = _mixed_field_elements(17)
    for x in xs:
        # y - x has no theta-part: the result drops the context
        shifted = Scalar._make((_gq_add(x._c[0], (Fraction(5, 2),
                                                  Fraction(0))),)
                               + x._c[1:], x.context)
        for y in [y for y in xs if y.context == x.context] + [x, shifted]:
            _assert_identical(x - y, _sub_reference(x, y))
            _assert_identical(x + y, _add_reference(x, y))
            _assert_identical(x * y, _mul_reference(x, y))
        assert (shifted - x).context is None
        _assert_identical(shifted - x, Scalar(Fraction(5, 2)))
        _assert_identical(x - x, ZERO)


def test_mixing_two_fields_still_raises_in_join():
    xs = _mixed_field_elements(15)
    for x in xs:
        for y in xs:
            if y.context == x.context:
                continue
            with pytest.raises(ScalarError, match="different algebraic"):
                Scalar._join(x, y)
            for op in (lambda: x + y, lambda: x - y, lambda: x * y):
                with pytest.raises(ScalarError, match="different algebraic"):
                    op()


def test_rational_times_field_scales_each_nonzero_part(monkeypatch):
    # three nonzero real parts and one nonzero imaginary part
    x = Scalar._make([(Fraction(1, 2), Fraction(0)),
                      (Fraction(-3), Fraction(2, 7)),
                      (Fraction(5, 3), Fraction(0))], _CUBIC.context)
    q = Scalar(Fraction(2, 3))
    product, mul_counts = _fraction_op_counts(monkeypatch, lambda: x * q)
    total, add_counts = _fraction_op_counts(monkeypatch, lambda: x + q)
    assert mul_counts == {"mul": 4, "add": 0, "sub": 0, "neg": 0}
    assert add_counts == {"mul": 0, "add": 1, "sub": 0, "neg": 0}
    _assert_identical(product, _mul_reference(x, q))
    _assert_identical(total, _add_reference(x, q))


def _part_kind_elements(seed):
    """Elements of quadratic and cubic fields, at every root index, whose
    coefficients are all real, all purely imaginary, or mixed (real, purely
    imaginary, Gaussian and zero), and pairs whose sums cancel a part."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                        rng.randint(1, 7))

    def part(kind):
        if kind == "mixed":
            kind = rng.choice(["real", "imag", "gauss", "zero"])
        return {"real": (q(), Fraction(0)), "imag": (Fraction(0), q()),
                "gauss": (q(), q()), "zero": _GQ0}[kind]

    minpolys = [(-2, 0, 1), (-1, 1, 1), (3, 0, 1),   # sqrt 2, golden, sqrt -3
                (1, -3, 0, 1), (-2, 0, 0, 1),        # three real roots, one
                (1, -2, -1, 1)]                      # every coefficient set
    out = []
    for poly in minpolys:
        poly = tuple(map(Fraction, poly))
        for k in range(len(poly) - 1):
            ctx = AlgebraicContext(poly, k)
            for kind in ("real", "imag", "mixed", "mixed"):
                coeffs = [part(kind) for _ in range(ctx.degree)]
                coeffs[-1] = part(kind if kind != "mixed" else "gauss")
                x = Scalar._make(coeffs, ctx)
                # the same theta-part and the constant's real part negated,
                # so that x + y and x - y each cancel a part
                y = Scalar._make([(-coeffs[0][0], coeffs[0][1])]
                                 + coeffs[1:], ctx)
                out += [x, y]
    assert all(x.context is not None for x in out)
    return out


def test_zero_aware_field_arithmetic_matches_the_full_q_i_arithmetic():
    xs = _part_kind_elements(19)
    assert {(x.context.degree, x.context.root_index) for x in xs} == {
        (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}
    for x in xs:
        _assert_identical(-x, _neg_reference(x))
        for y in xs:
            if y.context != x.context:
                continue
            _assert_identical(x + y, _add_reference(x, y))
            _assert_identical(x - y, _sub_reference(x, y))
            _assert_identical(x * y, _mul_reference(x, y))
        _assert_identical(x * x.inverse(), Scalar(1))


def test_real_field_products_multiply_only_nonzero_parts(monkeypatch):
    # x^3 - x^2 - 2x + 1 (every lower coefficient nonzero) and x^2 - 2, with
    # every coefficient of both factors real and nonzero
    def element(poly, coeffs):
        ctx = AlgebraicContext(tuple(map(Fraction, poly)), 0)
        return Scalar._make([(Fraction(c), Fraction(0)) for c in coeffs], ctx)

    cubic = (element((1, -2, -1, 1), (Fraction(1, 2), -3, Fraction(5, 3))),
             element((1, -2, -1, 1), (2, Fraction(-1, 7), 4)))
    quadratic = (element((-2, 0, 1), (Fraction(1, 2), -3)),
                 element((-2, 0, 1), (Fraction(2, 5), 7)))
    # 9 products and 4 sums in the convolution, 2 x 3 products and
    # differences in the fold; before, 48 products and 48 sums or
    # differences, each part of each product taken as Gaussian
    x, y = cubic
    got, counts = _fraction_op_counts(monkeypatch, lambda: x * y)
    assert counts == {"mul": 15, "add": 4, "sub": 6, "neg": 0}
    _assert_identical(got, _mul_reference(x, y))
    # 4 products and 1 sum, then 1 product and 1 difference for theta^2 = 2
    # (before, 18 and 18)
    x, y = quadratic
    got, counts = _fraction_op_counts(monkeypatch, lambda: x * y)
    assert counts == {"mul": 5, "add": 1, "sub": 1, "neg": 0}
    _assert_identical(got, _mul_reference(x, y))
    # sums, differences and negation touch the real parts only
    x, y = cubic
    for thunk, want, op in ((lambda: x + y, _add_reference(x, y), "add"),
                            (lambda: x - y, _sub_reference(x, y), "sub"),
                            (lambda: -x, _neg_reference(x), "neg")):
        got, counts = _fraction_op_counts(monkeypatch, thunk)
        assert counts == {"mul": 0, "add": 0, "sub": 0, "neg": 0, op: 3}
        _assert_identical(got, want)
