import random
import time
from fractions import Fraction

import pytest

from affineqe import scalars
from affineqe.scalars import (
    ZERO, Scalar, ScalarError, roots_of_monic, squarefree_split,
)


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
    i = Scalar.i()
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
    assert rneg == Scalar.i(2)
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
    # x^3 - 2x^2 - 1 is irreducible over Q
    roots = roots_of_monic([Fraction(-1), Fraction(0), Fraction(-2), Fraction(1)])
    assert len(roots) == 3
    s = Scalar(0)
    p = Scalar(1)
    for r in roots:
        assert (r ** 3 - 2 * r ** 2 - 1).is_zero()
        p = p * r if r.context == roots[0].context else p
    assert (roots[0] + Scalar(0)).context is not None
    # arithmetic within one root's field
    t = roots[0]
    inv = t.inverse()
    assert t * inv == Scalar(1)
    assert (t ** 2 - 2 * t) * t == t ** 3 - 2 * t ** 2
    # complex pair are conjugates of each other
    complex_roots = [r for r in roots if not r.context.root_is_real() or abs(r.to_complex().imag) > 1e-9]
    if len(complex_roots) == 2:
        a, b = complex_roots
        assert a.conjugate() == b


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
    # theta^3 = n + 2 in a fresh cubic field each time; the first fields are
    # evicted and recomputed with the same results
    for _ in range(2):
        for n in range(scalars._CTX_CACHE_MAX + 10):
            theta = Scalar.algebraic([-(n + 2), 0, 0, 1], 0)
            assert theta * theta * theta == Scalar(n + 2)
            assert abs(theta.to_complex() - (n + 2) ** (1 / 3)) < 1e-9
    assert len(scalars._CTX_ROOTS) <= scalars._CTX_CACHE_MAX
    assert len(scalars._CTX_REDUCTIONS) <= scalars._CTX_CACHE_MAX


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
