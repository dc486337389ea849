"""Differentiation-closed function algebras for homogeneous affine surfaces.

Three contexts share one term shape

    coeff * exp(e1*x1 + e2*x2) * x1^p * log(x1)^l * x2^d * y1^f1 * y2^f2

TYPE_A:  e1, e2 complex algebraic, p a non-negative integer, l = 0, no fiber.
TYPE_B:  e1 = e2 = 0, p complex algebraic, l >= 0, no fiber; domain x1 > 0.
FOURD:   all fields allowed; used on the cotangent bundle with fiber (y1, y2).

Every context is closed under the partial derivatives of its variables, which
is what makes exact residual computations possible downstream.

The tensor formulas live here once: `sum_products` and the Hessian `hessian`
for the surface and T*M, and `contracted_ricci`, the Ricci tensor without
the full curvature, for T*M.  They take the Christoffel symbols of an
n-dimensional connection (n = 2 on a surface, 4 on T*M) as a nested array
gamma[k][i][j] = Gamma_ij^k, with 0-based indices.
All values are immutable and all operations pure, so they are safe to share
across threads without synchronization.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import _linalg
from .scalars import Scalar, ZERO, roots_of_monic


class FunctionAlgebraError(ValueError):
    pass


class DomainError(ValueError):
    pass


class Context(Enum):
    TYPE_A = "A"
    TYPE_B = "B"
    FOURD = "4d"

    @property
    def dimension(self) -> int:
        return 4 if self is Context.FOURD else 2


@dataclass(frozen=True)
class Point:
    coordinates: tuple

    def __init__(self, coords: Sequence[float]):
        object.__setattr__(self, "coordinates", tuple(float(c) for c in coords))
        if len(self.coordinates) not in (2, 4):
            raise DomainError("points live on a surface (2 coords) or T*M (4 coords)")


class Term(NamedTuple):
    coeff: Scalar
    exp1: Scalar = ZERO
    exp2: Scalar = ZERO
    pow1: Scalar = ZERO
    logdeg: int = 0
    deg2: int = 0
    fiberdeg1: int = 0
    fiberdeg2: int = 0

    def key(self):
        return self[1:]

    def sort_key(self):
        return (self.exp1.sort_key(), self.exp2.sort_key(), self.pow1.sort_key(),
                self.logdeg, self.deg2, self.fiberdeg1, self.fiberdeg2)

    def with_coeff(self, c: Scalar) -> "Term":
        return Term(c, *self[1:])


def _check_term(t: Term, context: Context) -> None:
    if min(t.logdeg, t.deg2, t.fiberdeg1, t.fiberdeg2) < 0:
        raise FunctionAlgebraError("negative integer degree in term")
    if context is Context.TYPE_A:
        if not t.pow1.is_nonnegative_integer():
            raise FunctionAlgebraError(
                "Type-A terms are exp-polynomial: x1 power must be a "
                f"non-negative integer, got {t.pow1!r}")
        if t.logdeg:
            raise FunctionAlgebraError("Type-A terms carry no logarithms")
        if t.fiberdeg1 or t.fiberdeg2:
            raise FunctionAlgebraError("surface terms carry no fiber degrees")
    elif context is Context.TYPE_B:
        if not (t.exp1.is_zero() and t.exp2.is_zero()):
            raise FunctionAlgebraError("Type-B terms carry no exponential factor")
        if t.fiberdeg1 or t.fiberdeg2:
            raise FunctionAlgebraError("surface terms carry no fiber degrees")


def _derive_terms(terms, axis: int, out: list) -> None:
    """Append the terms of the partial derivative along `axis` (1-based)."""
    for t in terms:
        if axis == 1:
            if not t.exp1.is_zero():
                out.append(t.with_coeff(t.coeff * t.exp1))
            if not t.pow1.is_zero():
                out.append(Term(t.coeff * t.pow1, t.exp1, t.exp2,
                                t.pow1 - 1, t.logdeg, t.deg2,
                                t.fiberdeg1, t.fiberdeg2))
            if t.logdeg:
                out.append(Term(t.coeff * t.logdeg, t.exp1, t.exp2,
                                t.pow1 - 1, t.logdeg - 1, t.deg2,
                                t.fiberdeg1, t.fiberdeg2))
        elif axis == 2:
            if not t.exp2.is_zero():
                out.append(t.with_coeff(t.coeff * t.exp2))
            if t.deg2:
                out.append(Term(t.coeff * t.deg2, t.exp1, t.exp2, t.pow1,
                                t.logdeg, t.deg2 - 1,
                                t.fiberdeg1, t.fiberdeg2))
        elif axis == 3:
            if t.fiberdeg1:
                out.append(Term(t.coeff * t.fiberdeg1, t.exp1, t.exp2,
                                t.pow1, t.logdeg, t.deg2,
                                t.fiberdeg1 - 1, t.fiberdeg2))
        else:
            if t.fiberdeg2:
                out.append(Term(t.coeff * t.fiberdeg2, t.exp1, t.exp2,
                                t.pow1, t.logdeg, t.deg2,
                                t.fiberdeg1, t.fiberdeg2 - 1))


_set = object.__setattr__


class AnsatzFunction:
    """A finite sum of terms, kept merged and in a canonical order."""

    __slots__ = ("terms", "context", "_floats")

    def __init__(self, terms: Iterable[Term], context: Context):
        if not isinstance(terms, (list, tuple)):
            terms = list(terms)
        for t in terms:
            _check_term(t, context)
        if len(terms) > 1:
            merged: dict = {}
            for t in terms:
                k = t[1:]
                m = merged.get(k)
                merged[k] = t if m is None else m.with_coeff(m.coeff + t.coeff)
            terms = [t for t in merged.values() if not t.coeff.is_zero()]
            terms.sort(key=Term.sort_key)
        elif terms and terms[0].coeff.is_zero():
            terms = ()
        _set(self, "terms", tuple(terms))
        _set(self, "context", context)
        _set(self, "_floats", None)

    @classmethod
    def _canonical(cls, terms: tuple, context: Context) -> "AnsatzFunction":
        """The function of `terms`, which are already checked, merged,
        nonzero and in canonical order: no check, merge or sort again."""
        f = object.__new__(cls)
        _set(f, "terms", terms)
        _set(f, "context", context)
        _set(f, "_floats", None)
        return f

    def __setattr__(self, *a):  # immutable
        raise AttributeError("AnsatzFunction is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return (AnsatzFunction, (self.terms, self.context))

    # -- algebra -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AnsatzFunction") -> "AnsatzFunction":
        if self.context is not other.context:
            raise FunctionAlgebraError("mixed contexts")
        if not other.terms:
            return self
        if not self.terms:
            return other
        return AnsatzFunction(self.terms + other.terms, self.context)

    # Negation and a nonzero factor change no term key and zero no
    # coefficient, so the terms keep their canonical order.
    def __neg__(self):
        if not self.terms:
            return self
        return AnsatzFunction._canonical(
            tuple([t.with_coeff(-t.coeff) for t in self.terms]), self.context)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "AnsatzFunction":
        if not self.terms:
            return self
        c = Scalar.of(c)
        if c.is_zero():
            return _ZEROS[self.context]
        return AnsatzFunction._canonical(
            tuple([t.with_coeff(t.coeff * c) for t in self.terms]),
            self.context)

    __mul__ = scale
    __rmul__ = scale

    def conjugate(self) -> "AnsatzFunction":
        out = [Term(t.coeff.conjugate(), t.exp1.conjugate(), t.exp2.conjugate(),
                    t.pow1.conjugate(), t.logdeg, t.deg2, t.fiberdeg1, t.fiberdeg2)
               for t in self.terms]
        return AnsatzFunction(out, self.context)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other):
        if not isinstance(other, AnsatzFunction):
            return NotImplemented
        return self.context is other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, self.terms))

    # -- calculus ----------------------------------------------------------
    def derive(self, axis: int) -> "AnsatzFunction":
        """Exact partial derivative; axis is 1-based (1..2, or 1..4 on T*M)."""
        if not 1 <= axis <= self.context.dimension:
            raise FunctionAlgebraError(
                f"axis {axis} out of range for context {self.context.value}")
        out: list[Term] = []
        _derive_terms(self.terms, axis, out)
        return _function(out, self.context)

    def _float_terms(self) -> list:
        """Per term, the float data `eval` needs, converted once."""
        data = self._floats
        if data is None:
            data = []
            for t in self.terms:
                int_pow = t.pow1.is_nonnegative_integer()
                data.append((
                    t.logdeg > 0 or not int_pow,
                    complex(t.coeff.to_complex()),
                    t.exp1.to_complex(), t.exp2.to_complex(),
                    t.pow1.to_complex(),
                    int(t.pow1.as_fraction()) if int_pow else None,
                    t.logdeg, t.deg2, t.fiberdeg1, t.fiberdeg2))
            object.__setattr__(self, "_floats", data)
        return data

    def eval(self, point) -> complex:
        coords = point.coordinates if isinstance(point, Point) else tuple(point)
        if len(coords) < self.context.dimension:
            raise DomainError(
                f"point has {len(coords)} coordinates, context needs "
                f"{self.context.dimension}")
        if not self.terms:
            return 0j
        x1, x2 = float(coords[0]), float(coords[1])
        y1 = float(coords[2]) if len(coords) > 2 else 0.0
        y2 = float(coords[3]) if len(coords) > 3 else 0.0
        total = 0j
        try:
            for (needs_positive, v, e1, e2, p, int_pow, logdeg, deg2,
                 fiberdeg1, fiberdeg2) in self._float_terms():
                if needs_positive and x1 <= 0:
                    raise DomainError(
                        "power/log terms need x1 > 0; got x1 = %g" % x1)
                if e1 or e2:
                    v *= cmath.exp(e1 * x1 + e2 * x2)
                if p != 0:
                    if int_pow is not None:
                        v *= x1 ** int_pow
                    else:
                        v *= cmath.exp(p * math.log(x1))
                if logdeg:
                    v *= math.log(x1) ** logdeg
                if deg2:
                    v *= x2 ** deg2
                if fiberdeg1:
                    v *= y1 ** fiberdeg1
                if fiberdeg2:
                    v *= y2 ** fiberdeg2
                total += v
        except OverflowError:
            raise DomainError(f"a term overflows a float at {coords}") from None
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for t in self.terms:
            factors = []
            c = t.coeff
            if not (t.exp1.is_zero() and t.exp2.is_zero()):
                factors.append(f"exp({t.exp1!r}*x1+{t.exp2!r}*x2)")
            if not t.pow1.is_zero():
                factors.append(f"x1^{t.pow1!r}")
            if t.logdeg:
                factors.append(f"log(x1)^{t.logdeg}")
            if t.deg2:
                factors.append(f"x2^{t.deg2}")
            if t.fiberdeg1:
                factors.append(f"y1^{t.fiberdeg1}")
            if t.fiberdeg2:
                factors.append(f"y2^{t.fiberdeg2}")
            lead = f"{c!r}"
            bits.append("*".join([lead] + factors) if factors else lead)
        return " + ".join(bits)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> list:
        return [_term_to_json(t) for t in self.terms]

    @staticmethod
    def from_json(data: list, context: Context) -> "AnsatzFunction":
        terms = input_list(data, "a function")
        return AnsatzFunction([_term_from_json(d) for d in terms], context)


_ZEROS = {c: AnsatzFunction((), c) for c in Context}


def _function(terms: list, context: Context) -> AnsatzFunction:
    """AnsatzFunction(terms, context); the context's one shared zero function
    when there are no terms."""
    return AnsatzFunction(terms, context) if terms else _ZEROS[context]


# -- scalar (de)serialization -------------------------------------------------

def scalar_to_json(s: Scalar):
    if s.is_gaussian_rational():
        return [str(x) for x in s._c[0]]
    ctx = s.context
    lifted = s._lift(ctx)  # tuple of (re, im) Fractions
    return {
        "c": [[str(re), str(im)] for re, im in lifted],
        "min": [str(c) for c in ctx.minpoly],
        "root": ctx.root_index,
    }


MAX_INPUT_DIGITS = 100  # bounds the work of every later factorization


def input_fraction(x) -> Fraction:
    """Fraction(x) for an int (no bool) or a string read from a file or the
    command line, refusing more than MAX_INPUT_DIGITS digits in its numerator
    or denominator.  A decimal exponent is read first, so that Fraction never
    expands one that, for any nonzero mantissa, makes the value too long."""
    if type(x) is not int and not isinstance(x, str):
        raise ValueError(f"{x!r} is not an exact number")
    too_long = False
    if isinstance(x, str):
        try:
            exponent = int(x.lower().partition("e")[2])
            too_long = abs(exponent) > MAX_INPUT_DIGITS + len(x)
        except ValueError:  # none, or a malformed one that Fraction reports
            pass
    if not too_long:
        q = Fraction(x)
        if max(abs(q.numerator), q.denominator) < 10 ** MAX_INPUT_DIGITS:
            return q
    raise ValueError(f"a number has more than {MAX_INPUT_DIGITS} digits in "
                     f"its numerator or denominator")


def input_int(x, what: str) -> int:
    """An integer read from a file: an int that is not a bool, or a string
    of one; a float or a bool is refused, not truncated."""
    try:
        if type(x) is int or isinstance(x, str):
            return int(x)
    except ValueError:
        pass
    raise ValueError(f"{what} must be an integer, not {x!r}")


def input_list(x, what: str, n: int | None = None) -> list:
    """x, a list of exactly n entries, or of any number when n is None."""
    if not isinstance(x, list) or n not in (None, len(x)):
        raise ValueError(f"{what} must be a list"
                         + (f" of {n} entries" if n else ""))
    return x


def input_object(x, what: str, required=(), optional=()) -> dict:
    """x, an object with the keys `required` and any of `optional`."""
    if not (isinstance(x, dict)
            and set(required) <= x.keys() <= {*required, *optional}):
        keys = (*required, *(f"{k}?" for k in optional))
        raise ValueError(f"{what} must be an object with the keys "
                         f"{', '.join(keys)} (? optional)")
    return x


def scalar_from_json(data) -> Scalar:
    """A number, a Gaussian rational [re, im], or the field element
    {"c": [[re, im], ...], "min": [...], "root": k}."""
    if isinstance(data, list):
        re, im = input_list(data, "a Gaussian scalar", 2)
        return Scalar(input_fraction(re), input_fraction(im))
    if not isinstance(data, dict):
        return Scalar(input_fraction(data))
    input_object(data, "a field scalar", ("c", "min", "root"))
    coeffs = [[input_fraction(x) for x in input_list(pair, "a 'c' entry", 2)]
              for pair in input_list(data["c"], "'c'")]
    minpoly = [input_fraction(c) for c in input_list(data["min"], "'min'")]
    root = input_int(data["root"], "'root'")
    if len(minpoly) not in (3, 4) or minpoly[-1] != 1:
        raise ValueError("'min' must be a monic quadratic or cubic, "
                         "ascending")
    if not 0 <= root < len(minpoly) - 1:
        raise ValueError(f"'root' must be an index below {len(minpoly) - 1}")
    if len(minpoly) == 3:
        # the roots ascending when real, positive imaginary part second
        c, b = minpoly[0], minpoly[1]
        theta = (Scalar(-b) + Scalar.sqrt_rational(b * b - 4 * c)
                 * (2 * root - 1)) * Fraction(1, 2)
    else:
        roots = roots_of_monic(minpoly)
        if roots[0].is_rational():
            raise ValueError("a cubic 'min' must have no rational root")
        theta = roots[root]
    acc = Scalar(0)
    power = Scalar(1)
    for re, im in coeffs:
        acc = acc + Scalar(re, im) * power
        power = power * theta
    return acc


def _term_to_json(t: Term) -> dict:
    return {
        "coeff": scalar_to_json(t.coeff),
        "exp": [scalar_to_json(t.exp1), scalar_to_json(t.exp2)],
        "pow1": scalar_to_json(t.pow1),
        "log": t.logdeg,
        "x2": t.deg2,
        "y": [t.fiberdeg1, t.fiberdeg2],
    }


def _term_from_json(d) -> Term:
    input_object(d, "a term", ("coeff", "exp"), ("pow1", "log", "x2", "y"))
    exp1, exp2 = input_list(d["exp"], "'exp'", 2)
    y1, y2 = input_list(d.get("y", [0, 0]), "'y'", 2)
    return Term(
        coeff=scalar_from_json(d["coeff"]),
        exp1=scalar_from_json(exp1),
        exp2=scalar_from_json(exp2),
        pow1=scalar_from_json(d.get("pow1", "0")),
        logdeg=input_int(d.get("log", 0), "'log'"),
        deg2=input_int(d.get("x2", 0), "'x2'"),
        fiberdeg1=input_int(y1, "'y'"),
        fiberdeg2=input_int(y2, "'y'"),
    )


# -- constructors --------------------------------------------------------------

def constant(value, context: Context) -> AnsatzFunction:
    return AnsatzFunction([Term(Scalar.of(value))], context)


def monomial(context: Context, *, coeff=1, exp=(0, 0), pow1=0, log=0, x2=0,
             fiber=(0, 0)) -> AnsatzFunction:
    t = Term(Scalar.of(coeff), Scalar.of(exp[0]), Scalar.of(exp[1]),
             Scalar.of(pow1), int(log), int(x2), int(fiber[0]), int(fiber[1]))
    return AnsatzFunction([t], context)


def exp_linear(a1, a2, context: Context = Context.TYPE_A) -> AnsatzFunction:
    return monomial(context, exp=(a1, a2))


def x1_power(alpha, context: Context = Context.TYPE_B) -> AnsatzFunction:
    return monomial(context, pow1=alpha)


def _product_terms(f_terms, g_terms, out: list) -> None:
    """Append the term-by-term products of two term lists."""
    for s in f_terms:
        for t in g_terms:
            out.append(Term(s.coeff * t.coeff, s.exp1 + t.exp1, s.exp2 + t.exp2,
                            s.pow1 + t.pow1, s.logdeg + t.logdeg,
                            s.deg2 + t.deg2, s.fiberdeg1 + t.fiberdeg1,
                            s.fiberdeg2 + t.fiberdeg2))


def product(f: AnsatzFunction, g: AnsatzFunction) -> AnsatzFunction:
    """Term-by-term product.

    Internal support for the cotangent-bundle and warped-product machinery
    (metric entries times functions); not a general simplification product.
    """
    if f.context is not g.context:
        raise FunctionAlgebraError("mixed contexts")
    out: list[Term] = []
    _product_terms(f.terms, g.terms, out)
    return _function(out, f.context)


def _sum_product_terms(pairs, out: list) -> None:
    """Append the product terms of every (f, g) pair with no zero factor."""
    for f, g in pairs:
        if f.terms and g.terms:
            if f.context is not g.context:
                raise FunctionAlgebraError("mixed contexts")
            _product_terms(f.terms, g.terms, out)


def sum_products(pairs, context: Context) -> AnsatzFunction:
    """Sum of f * g over the (f, g) pairs, skipping pairs with a zero factor;
    the terms of every product are merged once, into one function."""
    out: list[Term] = []
    _sum_product_terms(pairs, out)
    return _function(out, context)


# -- tensor formulas shared by the surface and the cotangent bundle ---------

def hessian(gamma, f: AnsatzFunction, zeroth=None):
    """Hessian d_a d_b f - Gamma_ab^c d_c f as a symmetric n x n matrix.

    With a symmetric n x n matrix `zeroth` of functions m_ab, each entry is
    d_a d_b f - Gamma_ab^c d_c f + f m_ab, merged in the same pass."""
    n = len(gamma)
    d = [f.derive(a + 1) for a in range(n)]
    minus_d = [(c, -g) for c, g in enumerate(d) if g.terms]
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            terms: list[Term] = []
            _derive_terms(d[a].terms, b + 1, terms)
            _sum_product_terms(((gamma[c][a][b], g) for c, g in minus_d),
                               terms)
            if zeroth is not None:
                _sum_product_terms(((f, zeroth[a][b]),), terms)
            out[a][b] = out[b][a] = _function(terms, f.context)
    return out


def contracted_ricci(gamma):
    """The Ricci tensor rho_bc = R_abc^a without the full curvature: with
    T_c = Gamma_ac^a, summed over a and e,

        rho_bc = d_a Gamma_bc^a - d_b T_c + Gamma_bc^e T_e
                 - Gamma_ac^e Gamma_be^a.

    The trace T is computed, not assumed to vanish, and the derivative of
    T is taken along b: -d_c T_b would agree only for a Levi-Civita
    connection."""
    n = len(gamma)
    context = gamma[0][0][0].context
    # by (i, j), the k with a nonzero symbol Gamma_ij^k
    nonzero = [[[k for k in range(n) if gamma[k][i][j].terms]
                for j in range(n)] for i in range(n)]
    trace = [_function([t for a in range(n) for t in gamma[a][a][c].terms],
                       context) for c in range(n)]
    minus_trace = [-t for t in trace]
    # -Gamma_ac^e for every nonzero Gamma_ac^e, by (a, c): (e, -Gamma_ac^e)
    minus = [[[(e, -gamma[e][a][c]) for e in nonzero[a][c]]
              for c in range(n)] for a in range(n)]
    rho = [[None] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            terms: list[Term] = []
            bc = nonzero[b][c]
            for a in bc:
                _derive_terms(gamma[a][b][c].terms, a + 1, terms)
            _derive_terms(minus_trace[c].terms, b + 1, terms)
            pairs = [(gamma[e][b][c], trace[e]) for e in bc]
            for a in range(n):
                pairs += [(m, gamma[a][b][e]) for e, m in minus[a][c]
                          if a in nonzero[b][e]]
            _sum_product_terms(pairs, terms)
            rho[b][c] = _function(terms, context)
    return rho


def _eval_plan(nested):
    """A plan to evaluate each function object of a nested list once per
    probe.

    Returns (functions, index): the distinct nonzero function objects, and a
    nested list of the shape of `nested` that holds each entry's position in
    `functions`, or -1 for a zero entry.  At a probe p, read entry i of
    `[f.eval(p) for f in functions] + [0j]`."""
    functions, position = [], {}

    def index(x):
        if not isinstance(x, AnsatzFunction):
            return [index(y) for y in x]
        if not x.terms:
            return -1
        i = position.get(id(x))
        if i is None:
            i = position[id(x)] = len(functions)
            functions.append(x)
        return i

    return functions, index(nested)


def to_bundle(f: AnsatzFunction) -> AnsatzFunction:
    """Pull a surface function back to the cotangent bundle (same terms)."""
    if f.context is Context.FOURD:
        return f
    if not f.terms:
        return _ZEROS[Context.FOURD]
    # a surface term is a valid bundle term, in the same canonical order
    return AnsatzFunction._canonical(f.terms, Context.FOURD)


def substitute_linear(f: AnsatzFunction, mat) -> AnsatzFunction:
    """Return g with g(x) = f(S x) for the 2x2 exact matrix S (new = S @ old).

    Exponential factors rotate by S^T; integer powers of either coordinate are
    expanded binomially.  Fractional powers or logarithms of x1 require the
    map to fix x1 (first row (1, 0)), which holds for every Type-B change.
    """
    if f.context is Context.FOURD:
        raise FunctionAlgebraError("substitute_linear acts on surface functions")
    s11, s12 = Scalar.of(mat[0][0]), Scalar.of(mat[0][1])
    s21, s22 = Scalar.of(mat[1][0]), Scalar.of(mat[1][1])
    fixes_x1 = s11 == Scalar(1) and s12.is_zero()
    out: list[Term] = []
    for t in f.terms:
        pieces = [Term(t.coeff, t.exp1 * s11 + t.exp2 * s21,
                       t.exp1 * s12 + t.exp2 * s22,
                       logdeg=t.logdeg)]
        if t.logdeg and not fixes_x1:
            raise FunctionAlgebraError("log terms need a map fixing x1")
        if not t.pow1.is_zero():
            if t.pow1.is_nonnegative_integer():
                p = int(t.pow1.as_fraction())
                pieces = _expand_power(pieces, s11, s12, p, f.context)
            elif fixes_x1:
                pieces = [Term(q.coeff, q.exp1, q.exp2, t.pow1, q.logdeg,
                               q.deg2, 0, 0) for q in pieces]
            else:
                raise FunctionAlgebraError(
                    "fractional x1 powers need a map fixing x1")
        if t.deg2:
            pieces = _expand_power(pieces, s21, s22, t.deg2, f.context)
        out.extend(pieces)
    return AnsatzFunction(out, f.context)


def _expand_power(pieces: list[Term], c1: Scalar, c2: Scalar, p: int,
                  context: Context) -> list[Term]:
    """Multiply every piece by (c1*x1 + c2*x2)^p, binomially."""
    out = []
    for q in pieces:
        for k in range(p + 1):
            coeff = q.coeff * math.comb(p, k) * c1 ** (p - k) * c2 ** k
            out.append(Term(coeff, q.exp1, q.exp2, q.pow1 + (p - k),
                            q.logdeg, q.deg2 + k, q.fiberdeg1, q.fiberdeg2))
    return out


# -- exact linear algebra on spans ---------------------------------------------

def rank_basis(fs: Sequence[AnsatzFunction]) -> tuple[int, list[AnsatzFunction]]:
    """Exact rank of span(fs) and a maximal independent sublist, first come.

    Distinct term keys are linearly independent functions, so the rank is the
    rank of the coefficient matrix over the exact scalar field.  Its columns
    are the term keys, numbered by first appearance, and a function is kept
    when its row adds a pivot.
    """
    fs = list(fs)
    if not fs:
        return 0, []
    context = fs[0].context
    for f in fs:
        if f.context is not context:
            raise FunctionAlgebraError("mixed contexts")
    columns: dict = {}
    echelon: dict = {}
    basis = []
    for f in fs:
        row = {columns.setdefault(t.key(), len(columns)): t.coeff
               for t in f.terms}
        if _linalg.add_row(echelon, row):
            basis.append(f)
    return len(basis), basis
