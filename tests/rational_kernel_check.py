"""Seeded check of `Scalar`'s integer kernel against `Fraction` arithmetic.

Every operation on a context-free real rational `Scalar` reads or builds
its `Fraction` through the `_numerator` and `_denominator` slots.  This
compares each result with `Fraction`'s own operators:

- products, sums and differences on operand pairs that reach every branch
  of the kernel: two integers, equal and coprime denominators, negative
  operands, sums and differences that cancel to 0, and numerator products
  beyond 2**64;
- on every operand, built in each way the package builds a rational: the
  zero, rationality and non-negative-integer tests, `==` and `hash`,
  negation and the inverse, on negative values, integers and numerators
  beyond 2**70;
- the same tests, `==`, `hash`, negation and inverse on Gaussian values,
  with zero and nonzero imaginary parts, and on field elements, which keep
  `Fraction`'s operators.

It needs no pytest, so it runs on any interpreter the package supports:

    python tests/rational_kernel_check.py

It prints one line and exits 0 when every result matches, 1 otherwise.
`tests/test_scalars.py` runs the same checks under pytest.
"""
import math
import pathlib
import platform
import random
import sys
from fractions import Fraction

SEED = 20261020


def kernel_pairs(seed=SEED):
    """Operand pairs for every branch of the kernel, each in both orders
    and with its negated and equal partners, so that sums and differences
    also cancel to 0."""
    rng = random.Random(seed)
    base = [(Fraction(3), Fraction(-4)), (Fraction(0), Fraction(5)),
            (Fraction(-6), Fraction(0)), (Fraction(1, 6), Fraction(5, 6)),
            (Fraction(2, 3), Fraction(-5, 7)),
            (Fraction(-4, 9), Fraction(-9, 4)),
            (Fraction(7, 12), Fraction(5, 18)),
            (Fraction(2 ** 70), Fraction(-(2 ** 70) - 1, 2 ** 35 + 1))]
    for _ in range(24):
        d = rng.randint(1, 12)
        e = rng.choice((d, rng.randint(1, 12)))
        base.append((Fraction(rng.randint(-30, 30), d),
                     Fraction(rng.randint(-30, 30), e)))
    for _ in range(6):
        base.append(tuple(Fraction(rng.choice((-1, 1)) * rng.getrandbits(48),
                                   rng.getrandbits(40) | 1)
                          for _ in range(2)))
    pairs = []
    for p, q in base:
        pairs += [(p, q), (q, p), (p, -p), (p, p)]
    return pairs


def _is_rational(got, want):
    """Whether the `Scalar` got is the real rational want: its real part a
    canonical `Fraction` (gcd 1, positive denominator) equal to want, with
    its hash, its imaginary part zero and no context."""
    from affineqe.scalars import Scalar
    (re, im), = got._c
    n, d = re.numerator, re.denominator
    return (type(re) is Fraction and im == 0 and got.context is None
            and type(n) is int and type(d) is int
            and math.gcd(n, d) == 1 and d > 0
            and (n, d) == (want.numerator, want.denominator)
            and hash(re) == hash(want) and hash(got) == hash(Scalar(want)))


def mismatches(pairs):
    """The (operation, p, q) whose `Scalar` product, sum or difference is
    not `Fraction`'s."""
    from affineqe.scalars import Scalar
    bad = []
    for p, q in pairs:
        a, b = Scalar(p), Scalar(q)
        for name, got, want in (("*", a * b, p * q), ("+", a + b, p + q),
                                ("-", a - b, p - q)):
            if not _is_rational(got, want):
                bad.append((name, p, q))
    return bad


def builds(p):
    """The rational p as a `Scalar`, built in each way the package builds
    one: by the constructor, `Scalar.of`, `_ratio` and arithmetic."""
    from affineqe.scalars import Scalar, _ratio
    n, d = p.numerator, p.denominator
    out = [Scalar(p), Scalar(p, 0), Scalar(p, Fraction(0)), Scalar.of(p),
           _ratio(n, d), Scalar(n) * Scalar(Fraction(1, d)),
           Scalar(p - 1) + Scalar(1), -Scalar(-p), Scalar(-p) * -1]
    if d == 1:
        out += [Scalar(n), Scalar.of(n)]
    return out


def unary_mismatches(values):
    """The (operation, p) for which some build of the rational p answers a
    test, `==`, `hash`, negation or the inverse unlike `Fraction`."""
    from affineqe.scalars import Scalar
    bad = []
    for p in values:
        xs = builds(p)
        for x in xs:
            if (x.is_zero(), x.is_rational(), x.is_nonnegative_integer(),
                    x.is_real()) != (p == 0, True,
                                     p.denominator == 1 and p >= 0, True):
                bad.append(("tests", p))
            if not all(x == y and hash(x) == hash(y) for y in xs):
                bad.append(("==", p))
            other_d = Fraction(p.numerator, p.denominator + 1)
            if not (x == p and x != p + 1 and x != Scalar(p, 1)
                    and x != p - 1 and (x == other_d) == (p == 0)):
                bad.append(("!=", p))
            if not _is_rational(-x, -p):
                bad.append(("-x", p))
            if p:
                if not _is_rational(x.inverse(), 1 / p):
                    bad.append(("1/x", p))
            else:
                try:
                    x.inverse()
                    bad.append(("1/0", p))
                except ZeroDivisionError:
                    pass
    return bad


def gaussian_mismatches(pairs):
    """The (operation, p, q) for which the Gaussian value p + q*i, built
    in three ways, answers unlike its parts' `Fraction` arithmetic."""
    from affineqe.scalars import Scalar
    bad = []
    for p, q in pairs:
        xs = [Scalar(p, q), Scalar._make([(p, q)], None),
              Scalar(p) + Scalar(0, 1) * Scalar(q)]
        zero, real = p == 0 == q, q == 0
        for x in xs:
            if (x.is_zero(), x.is_rational(), x.is_nonnegative_integer(),
                    x.is_real()) != (zero, real, real and p.denominator == 1
                                     and p >= 0, real):
                bad.append(("tests", p, q))
            if not all(x == y and hash(x) == hash(y) for y in xs):
                bad.append(("==", p, q))
            other_d = Fraction(q.numerator, q.denominator + 1)
            if (x == Scalar(p, q + 1) or x == Scalar(p + 1, q)
                    or (x == Scalar(p, other_d)) != (q == 0)):
                bad.append(("!=", p, q))
            if (-x)._c != ((-p, -q),) or (-x).context is not None:
                bad.append(("-x", p, q))
            if not zero:
                norm = p * p + q * q
                if x.inverse()._c != ((p / norm, -q / norm),):
                    bad.append(("1/x", p, q))
    return bad


def field_mismatches(pairs):
    """The (operation, p, q) for which p + q*theta, with q nonzero and
    theta sqrt(2), i*sqrt(3) or a real or complex root of x^3 - 2, answers
    a test, `==`, `hash`, negation or the inverse wrongly."""
    from affineqe.scalars import Scalar, roots_of_monic
    bad = []
    thetas = [Scalar.sqrt_rational(2), Scalar.sqrt_rational(-3),
              *roots_of_monic([-2, 0, 0, 1])[:2]]
    for p, q in pairs:
        if not q:
            continue
        for theta in thetas:
            x = Scalar(p) + theta * Scalar(q)
            y = theta * q + p
            if (x.is_zero() or x.is_rational() or x.is_nonnegative_integer()
                    or x.is_real() != (x == x.conjugate())):
                bad.append(("tests", p, q, theta))
            if not (x == y and hash(x) == hash(y) and x != p
                    and x != Scalar(p, q) and x != x + 1):
                bad.append(("==", p, q, theta))
            if -x != Scalar(-p) - theta * q or not (x + -x).is_zero():
                bad.append(("-x", p, q, theta))
            if x * x.inverse() != 1:
                bad.append(("1/x", p, q, theta))
    return bad


def main() -> int:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    pairs = kernel_pairs()
    values = sorted({v for pair in pairs for v in pair})
    bad = (mismatches(pairs) + unary_mismatches(values)
           + gaussian_mismatches(pairs) + field_mismatches(pairs[::4]))
    widest = max(abs((p * q).numerator) for p, q in pairs).bit_length()
    print(f"Python {platform.python_version()}: {3 * len(pairs)} operations "
          f"on {len(pairs)} pairs, unary operations on {len(values)} values, "
          f"{len(pairs)} Gaussian and {len(pairs[::4])} field pairs, widest "
          f"product numerator {widest} bits, {len(bad)} mismatches"
          f"{': ' + repr(bad[:3]) if bad else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
