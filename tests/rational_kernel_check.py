"""Seeded check of `Scalar`'s integer kernel against `Fraction` arithmetic.

The rational products, sums and differences of `Scalar` build their
`Fraction` from integer numerators and denominators, setting its slots
directly.  This compares each result with `Fraction`'s own operators on
operand pairs that reach every branch of that kernel: two integers, equal
and coprime denominators, negative operands, sums and differences that
cancel to 0, and numerator products beyond 2**64.  It needs no pytest, so
it runs on any interpreter the package supports:

    python tests/rational_kernel_check.py

It prints one line and exits 0 when every result matches, 1 otherwise.
`tests/test_scalars.py` runs the same check under pytest.
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
            (Fraction(7, 12), Fraction(5, 18))]
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


def mismatches(pairs):
    """The (operation, p, q) whose `Scalar` result is not `Fraction`'s:
    the real part must be a canonical `Fraction` (gcd 1, positive
    denominator) equal to it, with its hash, and the imaginary part zero."""
    from affineqe.scalars import Scalar
    bad = []
    for p, q in pairs:
        a, b = Scalar(p), Scalar(q)
        for name, got, want in (("*", a * b, p * q), ("+", a + b, p + q),
                                ("-", a - b, p - q)):
            (re, im), = got._c
            n, d = re.numerator, re.denominator
            if not (type(re) is Fraction and im == 0 and got.context is None
                    and type(n) is int and type(d) is int
                    and math.gcd(n, d) == 1 and d > 0
                    and (n, d) == (want.numerator, want.denominator)
                    and hash(re) == hash(want)
                    and hash(got) == hash(Scalar(want))):
                bad.append((name, p, q))
    return bad


def main() -> int:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    pairs = kernel_pairs()
    bad = mismatches(pairs)
    widest = max(abs((p * q).numerator) for p, q in pairs).bit_length()
    print(f"Python {platform.python_version()}: {3 * len(pairs)} operations "
          f"on {len(pairs)} pairs, widest product numerator {widest} bits, "
          f"{len(bad)} mismatches{': ' + repr(bad[:3]) if bad else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
