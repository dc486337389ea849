"""Exact scalars: Gaussian rationals optionally extended by one algebraic number.

A Scalar is an element of Q(i)(theta) where theta is either absent, a square
root sqrt(m) of a squarefree integer m > 1, or a root of a monic irreducible
rational cubic.  This is enough to carry every coefficient and exponent the
classification produces (quadratic formulas, and the cubic exponent systems of
the rank-2 critical case) while keeping equality decidable and exact.

The field arithmetic is closed-form: products reduce by the minimal polynomial,
inverses come from Cayley-Hamilton, and conjugates go by root index.

A product, sum or difference of two real rationals with no theta is integer
arithmetic on their numerators and denominators: a product is cross-cancelled
by two gcds, a sum or difference goes over d1*d2 and is reduced by one gcd (by
none for two integers).  Its `Fraction` is built in canonical form by setting
the `_numerator` and `_denominator` slots, as CPython 3.12's
`Fraction._from_coprime_ints` does; the slots are the same on 3.10 to 3.13,
and `tests/rational_kernel_check.py` checks the kernel on each.  The parts
stay `Fraction`s of the same value, so hashes, sort keys and every output are
those of `Fraction`'s own operators.  Negation, `inverse`, `__eq__`, the Q(i)
helpers and the field arithmetic stay on `Fraction`'s operators for now
(ROADMAP items 1 and 3): the benchmark keeps a record per op, so its peak
memory grows with throughput until that record is of fixed size, and the
field arithmetic is to move to one integer representation as a whole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[int, Fraction]

_GQ = tuple  # (Fraction re, Fraction im)

_F0 = Fraction(0)
_new = object.__new__
_gcd = math.gcd
_ZERO_GQ = (_F0, _F0)
_THETA = (_ZERO_GQ, (Fraction(1), _F0), _ZERO_GQ)  # a cubic's generator


class ScalarError(ArithmeticError):
    pass


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"expected an exact rational, got {x!r}")


# The Q(i) operations below do a `Fraction` operation only on nonzero
# parts, so a real times a real is one `Fraction` product.  A part that no
# term reaches is `_F0` itself, which `_gq_mul` tests by identity first.
def _gq_add(a: _GQ, b: _GQ) -> _GQ:
    (ar, ai), (br, bi) = a, b
    return ((ar + br if br else ar) if ar else br or _F0,
            (ai + bi if bi else ai) if ai else bi or _F0)


def _gq_sub(a: _GQ, b: _GQ) -> _GQ:
    return (a[0] - b[0] if b[0] else a[0], a[1] - b[1] if b[1] else a[1])


def _gq_mul(a: _GQ, b: _GQ) -> _GQ:
    (ar, ai), (br, bi) = a, b
    if ai is bi is _F0 or not (ai or bi):  # real times real
        return (ar * br, _F0)
    if not (ai and bi):  # no i * i term
        return (ar * br if ar and br else _F0,
                ar * bi if ar and bi else ai * br if ai and br else _F0)
    if not (ar and br):  # no real * real term
        return (-(ai * bi), ar * bi if ar else ai * br if br else _F0)
    return (ar * br - ai * bi, ar * bi + ai * br)


def _gq_neg(a: _GQ) -> _GQ:
    return (-a[0] if a[0] else _F0, -a[1] if a[1] else _F0)


_TRIAL_DIVISORS = 10 ** 6


def squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*m with m squarefree, for n > 0.  Returns (s, m).

    Trial division runs only up to the cube root of what is left: the
    cofactor then has at most two prime factors (1, p, p*q or p^2), and
    only p^2 is a square.  It stops at _TRIAL_DIVISORS, which settles every
    n below 10**18 (and more); a larger cofactor with no prime factor that
    small raises ScalarError rather than running without bound.  A perfect
    square (a quadratic with rational roots) needs no division at all.
    """
    if n <= 0:
        raise ScalarError("squarefree_split needs a positive integer")
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    s, m, d, r = 1, 1, 2, n
    while d * d * d <= r:
        if d > _TRIAL_DIVISORS:
            raise ScalarError(
                f"cannot split the square part of {n}: it has a factor "
                f"with no prime divisor up to {_TRIAL_DIVISORS}")
        if r % d == 0:
            e = 0
            while r % d == 0:
                r //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1
    root = math.isqrt(r)
    if root * root == r:
        return s * root, m
    return s, m * r


def _discriminant(p: Sequence[Fraction]) -> Fraction:
    """The discriminant of the monic quadratic or cubic p (ascending)."""
    if len(p) == 3:
        return p[1] * p[1] - 4 * p[0]
    d, c, b = p[0], p[1], p[2]
    return (18 * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2 - 4 * c ** 3
            - 27 * d ** 2)


def _value(g: Sequence[int], y: int) -> int:
    acc = 0
    for a in reversed(g):
        acc = acc * y + a
    return acc


def _bisect(g: Sequence[int], lo: int, hi: int, sign: int) -> int:
    """The first y in [lo, hi] with sign * g(y) >= 0 (else hi)."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if sign * _value(g, mid) < 0 else (lo, mid)
    return lo


def _monotone_pieces(g: Sequence[int], m: int) -> list[tuple]:
    """(lo, hi, sign of the slope) for the pieces of [-m, m] on which the
    monic integer quadratic or cubic g is monotone, cut at floors of g' = 0."""
    if len(g) == 3:
        return [(-m, -g[1] // 2, -1), (-g[1] // 2 + 1, m, 1)]
    c, b = g[1], g[2]
    disc = b * b - 3 * c
    if disc <= 0:
        return [(-m, m, 1)]
    s = math.isqrt(disc)  # floor(x / 3) = floor(x) // 3 for real x
    k1, k2 = (-b - s - (s * s != disc)) // 3, (s - b) // 3
    return [(-m, k1, 1), (k1 + 1, k2, -1), (k2 + 1, m, 1)]


def _rounded_roots(p: Sequence, count: int, positive=False) -> list:
    """The `count` real roots, ascending and correctly rounded, of the
    squarefree monic rational quadratic or cubic p, or with `positive` the
    one positive root of a p of any degree.

    At the scale s = L 2^k (L clears p's denominators) g(y) = s^n p(y/s) has
    integer coefficients; on each piece where g changes sign, bisection finds
    the y with its root r in ((y-1)/s, y/s].  Cauchy's bound on 1/r makes
    |r| 2^k > 2^55, so every float midpoint near r is a multiple of 1/s and
    r rounds as (y - 1/2)/s does, unless r = y/s.  The scale doubles while a
    root hides in the unit gap at a cut."""
    n = len(p) - 1
    lcm = math.lcm(*(a.denominator for a in p))
    k = 56 + int(max(map(abs, p[1:])) / abs(p[0])).bit_length()
    bound = 2 + int(max(map(abs, p)))  # every root is smaller
    while True:
        s = lcm << k
        g = [int(a * s ** (n - j)) for j, a in enumerate(p)]
        pieces = ([(0, bound * s, 1)] if positive
                  else _monotone_pieces(g, bound * s))
        ys = [_bisect(g, lo, hi, sign) for lo, hi, sign in pieces
              if sign * _value(g, lo - 1) < 0 <= sign * _value(g, hi)]
        if len(ys) == count:
            return [(2 * y - (_value(g, y) != 0)) / (2 * s) for y in ys]
        k *= 2


def _float_roots(p: tuple) -> list[complex]:
    """The roots of the squarefree monic quadratic or cubic p, each part
    correctly rounded: the real ones ascending, then the pair u -+ iv.

    For x^3 + b x^2 + c x + d with one real root r, u = -(b + r)/2 is the
    real root of p(-2x - b)/-8, and -4v^2 = (r2 - r3)^2 makes v the positive
    root of x^6 - 3q/2 x^4 + 9q^2/16 x^2 + disc/64, q = c - b^2/3."""
    disc = _discriminant(p)
    if not disc:
        raise ScalarError(f"the minimal polynomial {p} has a repeated root")
    if disc > 0:
        return [complex(x) for x in _rounded_roots(p, len(p) - 1)]
    if len(p) == 3:
        reals, u = [], float(-p[1] / 2)
        v, = _rounded_roots((disc / 4, 0, 1), 1, True)
    else:
        d, c, b = p[0], p[1], p[2]
        reals = _rounded_roots(p, 1)
        u, = _rounded_roots(((b * c - d) / 8, (b * b + c) / 4, b, 1), 1)
        q = c - b * b / 3
        v, = _rounded_roots((disc / 64, 0, 9 * q * q / 16, 0, -3 * q / 2, 0,
                             1), 1, True)
    return [complex(x) for x in reals] + [complex(u, -v), complex(u, v)]


# The float roots of each minimal polynomial, recomputed on demand; the dict
# keeps the _CTX_CACHE_MAX most recently added polynomials, so a long sweep
# over many cubic fields holds bounded memory.
_CTX_CACHE_MAX = 64
_CTX_ROOTS: dict[tuple, list[complex]] = {}


@dataclass(frozen=True)
class AlgebraicContext:
    """A single algebraic generator theta: monic rational minpoly + root index,
    as `_float_roots` orders them; the discriminant's sign decides reality."""

    minpoly: tuple  # ascending Fractions, leading coefficient 1, degree 2 or 3
    root_index: int

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def roots(self) -> list[complex]:
        key = self.minpoly
        got = _CTX_ROOTS.get(key)
        if got is None:
            got = _float_roots(key)
            if len(_CTX_ROOTS) >= _CTX_CACHE_MAX:
                del _CTX_ROOTS[next(iter(_CTX_ROOTS))]
            _CTX_ROOTS[key] = got
        return got

    def root_is_real(self) -> bool:
        n_real = self.degree - 2 * (_discriminant(self.minpoly) < 0)
        return self.root_index < n_real

    def conjugate_index(self) -> int:
        # the complex roots, if any, are the last two
        i = self.root_index
        return i if self.root_is_real() else 2 * self.degree - 3 - i


class Scalar:
    """Immutable exact number c0 + c1*theta + c2*theta^2 with ck in Q(i)."""

    __slots__ = ("_c", "_ctx", "_h", "_sk")

    def __init__(self, value: RationalLike = 0, imag: RationalLike = 0):
        self._c = ((_fr(value), _fr(imag) or _F0),)
        self._ctx = None
        self._h = None
        self._sk = None

    # -- construction ----------------------------------------------------
    @staticmethod
    def _make(coeffs: Sequence[_GQ], ctx: AlgebraicContext | None) -> "Scalar":
        if ctx is not None:
            coeffs = (list(coeffs[: ctx.degree])
                      + [_ZERO_GQ] * (ctx.degree - len(coeffs)))
            if not any(re or im for re, im in coeffs[1:]):
                ctx = None
                coeffs = coeffs[:1]
        s = _new(Scalar)
        s._c = tuple(coeffs)
        s._ctx = ctx
        s._h = None
        s._sk = None
        return s

    @staticmethod
    def of(value) -> "Scalar":
        return value if isinstance(value, Scalar) else Scalar(value)

    @staticmethod
    def sqrt_rational(q) -> "Scalar":
        """Principal square root of a rational: exact, lands in Q(i)(sqrt m)."""
        q = _fr(q)
        if q == 0:
            return Scalar(0)
        num, den = abs(q.numerator), q.denominator
        s, m = squarefree_split(num * den)
        rat = (Fraction(s, den), _F0) if q > 0 else (_F0, Fraction(s, den))
        if m == 1:
            return Scalar(*rat)
        ctx = AlgebraicContext((Fraction(-m), _F0, Fraction(1)), 1)  # +sqrt(m)
        return Scalar._make((_ZERO_GQ, rat), ctx)

    @staticmethod
    def algebraic(minpoly: Sequence[RationalLike], root_index: int) -> "Scalar":
        """theta itself, for a monic rational cubic with no rational root."""
        poly = tuple(_fr(c) for c in minpoly)
        if len(poly) != 4 or poly[3] != 1:
            raise ScalarError("algebraic() expects a monic cubic (4 ascending coeffs)")
        if root_index not in (0, 1, 2):
            raise ScalarError(f"a cubic has roots 0, 1 and 2, not {root_index}")
        if _rational_roots(poly):
            raise ScalarError(f"the cubic {list(map(str, poly))} has a rational root")
        return _in_field(_THETA, AlgebraicContext(poly, root_index))

    # -- basic queries ----------------------------------------------------
    @property
    def context(self) -> AlgebraicContext | None:
        return self._ctx

    def is_zero(self) -> bool:
        if self._ctx is not None:
            return False
        re, im = self._c[0]
        return not (re or im)

    def is_rational(self) -> bool:
        return self._ctx is None and self._c[0][1] == 0

    def is_gaussian_rational(self) -> bool:
        return self._ctx is None

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self!r} is not rational")
        return self._c[0][0]

    def is_nonnegative_integer(self) -> bool:
        q = self._c[0][0]
        return self.is_rational() and q.denominator == 1 and q >= 0

    def is_real(self) -> bool:
        return self == self.conjugate()

    def to_complex(self) -> complex:
        if self._ctx is None:
            re, im = self._c[0]
            return complex(re, im)
        theta = self._ctx.roots()[self._ctx.root_index]
        acc = 0j
        for k, (re, im) in enumerate(self._c):
            acc += complex(re, im) * theta ** k
        return acc

    # -- arithmetic --------------------------------------------------------
    def _lift(self, ctx: AlgebraicContext | None) -> tuple:
        if ctx is None or self._ctx is ctx or self._ctx == ctx:
            return self._c
        if self._ctx is None:
            return (self._c[0],) + (_ZERO_GQ,) * (ctx.degree - 1)
        raise ScalarError("incompatible algebraic contexts")

    @staticmethod
    def _join(a: "Scalar", b: "Scalar") -> AlgebraicContext | None:
        if a._ctx is None:
            return b._ctx
        if b._ctx is None or a._ctx == b._ctx:
            return a._ctx
        raise ScalarError(
            "scalars live in different algebraic extensions; cannot combine"
        )

    # Zero never carries a context (`_make` drops it), so the identities
    # below skip only work whose result is known; mixing two different
    # fields still raises in `_join`.  Most operands are real rationals with
    # no context: those take the integer kernel (`_ratio`, `_sum`), and
    # other context-free operands go straight to the Q(i) arithmetic.  A
    # context-free operand is never lifted into a field: it scales the field
    # operand's coefficients or shifts its constant one, which cannot zero
    # the theta-part, so the result keeps that context (`_in_field`).
    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if self._ctx is None and other._ctx is None:
            (ar, ai), = self._c
            (br, bi), = other._c
            if (ai is _F0 or not ai) and (bi is _F0 or not bi):
                na, nb = ar._numerator, br._numerator
                if not nb:
                    return self
                if not na:
                    return other
                return _sum(na, ar._denominator, nb, br._denominator)
            if not (br or bi):
                return self
            if not (ar or ai):
                return other
            return Scalar._make((_gq_add(self._c[0], other._c[0]),), None)
        if other._ctx is None:
            return self._shifted(other)
        if self._ctx is None:
            return other._shifted(self)
        ctx = Scalar._join(self, other)
        return Scalar._make(list(map(_gq_add, self._c, other._c)), ctx)

    __radd__ = __add__

    def _shifted(self, s: "Scalar") -> "Scalar":
        """self + s for a field element self and a context-free s: only the
        constant coefficient moves."""
        if s.is_zero():
            return self
        return _in_field((_gq_add(self._c[0], s._c[0]), *self._c[1:]),
                         self._ctx)

    def __neg__(self):
        if self._ctx is None:
            (re, im), = self._c
            if im is _F0 or not im:
                return _rational(-re)
            return Scalar._make((_gq_neg(self._c[0]),), None)
        return _in_field(tuple([_gq_neg(x) for x in self._c]), self._ctx)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if self._ctx is None and other._ctx is None:
            (ar, ai), = self._c
            (br, bi), = other._c
            if (ai is _F0 or not ai) and (bi is _F0 or not bi):
                na, nb = ar._numerator, br._numerator
                if not nb:
                    return self
                return _sum(na, ar._denominator, -nb, br._denominator)
        elif self._ctx is not None and other._ctx is not None:
            ctx = Scalar._join(self, other)
            return Scalar._make(list(map(_gq_sub, self._c, other._c)), ctx)
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if self._ctx is None and other._ctx is None:
            (ar, ai), = self._c
            (br, bi), = other._c
            if (ai is _F0 or not ai) and (bi is _F0 or not bi):
                na, nb = ar._numerator, br._numerator
                if not na or not nb:
                    return ZERO
                da, db = ar._denominator, br._denominator
                g1, g2 = _gcd(na, db), _gcd(nb, da)
                return _ratio((na // g1) * (nb // g2), (da // g2) * (db // g1))
            if not (ar or ai) or not (br or bi):
                return ZERO
            return Scalar._make((_gq_mul(self._c[0], other._c[0]),), None)
        if other._ctx is None:
            return self._scaled(other)
        if self._ctx is None:
            return other._scaled(self)
        ctx = Scalar._join(self, other)
        a, b = self._c, other._c
        d = ctx.degree
        conv = [_ZERO_GQ] * (2 * d - 1)
        for i, x in enumerate(a):
            if not (x[0] or x[1]):
                continue
            for j, y in enumerate(b):
                if not (y[0] or y[1]):
                    continue
                conv[i + j] = _gq_add(conv[i + j], _gq_mul(x, y))
        # theta^d = -sum_j m_j theta^j: fold the top coefficients down in
        # place, highest first
        m = ctx.minpoly
        for k in range(2 * d - 2, d - 1, -1):
            cr, ci = conv[k]
            if cr or ci:
                for j in range(d):
                    if m[j]:
                        xr, xi = conv[k - d + j]
                        conv[k - d + j] = (xr - cr * m[j] if cr else xr,
                                           xi - ci * m[j] if ci else xi)
        return Scalar._make(conv[:d], ctx)

    __rmul__ = __mul__

    def _scaled(self, s: "Scalar") -> "Scalar":
        """self * s for a field element self and a context-free s: one
        `Fraction` product per nonzero part of self when s is real."""
        if s.is_zero():
            return ZERO
        y = s._c[0]
        return _in_field(tuple([_gq_mul(x, y) if x[0] or x[1] else x
                                for x in self._c]), self._ctx)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self._ctx is None:
            re, im = self._c[0]
            if im is _F0 or not im:
                return _rational(1 / re)
            n = re * re + im * im
            return Scalar._make(((re / n, -im / n),), None)
        # Cayley-Hamilton over Q(i): Newton's identities turn the traces
        # p_k = tr(self^k) into the characteristic coefficients e_k, and
        # sum_k (-1)^k e_k self^(d-k) = 0 solves for the inverse.  e_d is the
        # norm, nonzero because Q(i)(theta) is a field.
        ctx = self._ctx
        d, m = ctx.degree, ctx.minpoly
        traces = (d, -m[d - 1], m[d - 1] ** 2 - 2 * m[d - 2])  # tr(theta^j)
        powers = [Scalar(1), self]
        while len(powers) <= d:
            powers.append(powers[-1] * self)
        p = [Scalar(*(sum(c[n] * t for c, t in zip(x._lift(ctx), traces)
                          if c[n] and t) for n in (0, 1))) for x in powers]
        e = [Scalar(1)]
        for k in range(1, d + 1):
            e.append(sum((e[k - i] * p[i] * (-1) ** (i - 1)
                          for i in range(1, k + 1)), ZERO) / k)
        scale = (-1) ** (d - 1) / e[d]
        return sum((e[j] * scale * (-1) ** j * powers[d - 1 - j]
                    for j in range(d)), ZERO)

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ScalarError("Scalar powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        ctx = self._ctx
        if ctx is not None and not ctx.root_is_real():
            ctx = AlgebraicContext(ctx.minpoly, ctx.conjugate_index())
        return Scalar._make([(re, -im) for re, im in self._c], ctx)

    # -- comparison / hashing ----------------------------------------------
    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._c == other._c and self._ctx == other._ctx

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash((self._c, self._ctx))
            self._h = h
        return h

    def sort_key(self):
        key = self._sk
        if key is None:
            if self._ctx is None:
                ctxkey: tuple = ()
            else:
                ctxkey = (self._ctx.minpoly, self._ctx.root_index)
            flat = tuple(x for c in self._c for x in c)
            key = (len(ctxkey), ctxkey, len(flat), flat)
            self._sk = key
        return key

    def __repr__(self):
        if self._ctx is None:
            re, im = self._c[0]
            if im == 0:
                return str(re)
            if re == 0:
                return f"{im}*i"
            return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"
        names = {2: "r", 3: "t"}
        sym = names[self._ctx.degree]
        bits = []
        for k, (re, im) in enumerate(self._c):
            if re == 0 and im == 0:
                continue
            part = f"({re}+{im}i)" if im else str(re)
            bits.append(part if k == 0 else f"{part}*{sym}^{k}" if k > 1 else f"{part}*{sym}")
        body = " + ".join(bits) or "0"
        return f"<{body} ; {sym}: {tuple(map(str, self._ctx.minpoly))} root {self._ctx.root_index}>"


def _rational(q: Fraction) -> Scalar:
    """The context-free real rational q, built without `_make`'s checks."""
    s = _new(Scalar)
    s._c = ((q, _F0),)
    s._ctx = None
    s._h = None
    s._sk = None
    return s


def _ratio(n: int, d: int) -> Scalar:
    """The context-free real rational n/d for coprime n and d > 0: its
    `Fraction` is built in canonical form, as CPython 3.12's
    `Fraction._from_coprime_ints` builds one, with no normalisation.  It
    repeats `_rational`'s body: a call less is 4% of a rational product."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    s = _new(Scalar)
    s._c = ((q, _F0),)
    s._ctx = None
    s._h = None
    s._sk = None
    return s


def _sum(na: int, da: int, nb: int, db: int) -> Scalar:
    """na/da + nb/db for two canonical fractions: over da*db, reduced by
    one gcd, or by none when both are integers."""
    if da == 1 == db:
        return _ratio(na + nb, 1)
    n, d = na * db + nb * da, da * db
    g = _gcd(n, d)
    return _ratio(n // g, d // g)


def _in_field(coeffs: tuple, ctx: AlgebraicContext) -> Scalar:
    """The element of Q(i)(theta) with these coefficients, whose theta-part
    is known to be nonzero, built without `_make`'s checks."""
    s = _new(Scalar)
    s._c = coeffs
    s._ctx = ctx
    s._h = None
    s._sk = None
    return s


ZERO = Scalar(0)


def _rational_order(q: Fraction):
    """The order in which a divisor search by the rational root theorem
    meets rational roots: denominator, |numerator|, positive first."""
    return (q.denominator, abs(q.numerator), q < 0)


def roots_of_monic(poly: Sequence) -> list[Scalar]:
    """Exact roots of a monic rational polynomial of degree 1..3, as Scalars.

    Rational roots come out rational, the first in `_rational_order` first;
    a quadratic without them yields a conjugate pair in Q(i)(sqrt m); a
    cubic without them yields three Scalars in cubic contexts sharing one
    minimal polynomial.
    """
    coeffs = [_fr(c) for c in poly]
    if coeffs[-1] != 1:
        raise ScalarError("roots_of_monic expects a monic polynomial")
    deg = len(coeffs) - 1
    if deg == 1:
        return [Scalar(-coeffs[0])]
    if deg == 2:
        c, b = coeffs[0], coeffs[1]
        root = Scalar.sqrt_rational(b * b - 4 * c)
        if root.is_rational():
            w = root.as_fraction()
            r0 = min((-b + w) / 2, (-b - w) / 2, key=_rational_order)
            return [Scalar(r0), Scalar(-b - r0)]
        half = Fraction(1, 2)
        return [(Scalar(-b) + root) * half, (Scalar(-b) - root) * half]
    if deg == 3:
        rational = _rational_roots(coeffs)
        if rational:
            c, b = coeffs[1], coeffs[2]
            r0 = min(rational, key=_rational_order)
            b = b + r0
            return [Scalar(r0)] + roots_of_monic([c + r0 * b, b, Fraction(1)])
        coeffs = tuple(coeffs)  # irreducible: theta needs no check
        return [_in_field(_THETA, AlgebraicContext(coeffs, k)) for k in range(3)]
    raise ScalarError("roots_of_monic supports degree <= 3")


def _rational_roots(p: Sequence[Fraction]) -> set[Fraction]:
    """The rational roots of the monic rational cubic p: x = y / s makes it a
    monic integer cubic g in y, with at most one root on each piece."""
    s = math.lcm(*(a.denominator for a in p))
    g = [int(a * s ** (3 - j)) for j, a in enumerate(p)]
    m = 1 + max(map(abs, g))
    return {Fraction(y, s) for lo, hi, sign in _monotone_pieces(g, m)
            if _value(g, y := _bisect(g, lo, hi, sign)) == 0}
