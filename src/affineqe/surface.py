"""Homogeneous affine connections on surfaces and their curvature.

Type A connections have constant Christoffel symbols on R^2; Type B symbols
are C/x1 on the half-plane x1 > 0.  Six coefficients are stored in the order
(111, 112, 121, 122, 221, 222) for the symmetric index pairs, and everything
downstream (Ricci tensors, classification predicates, normalizations) is
computed exactly over the Scalar field.  Connections and derived data are
immutable; every function here is pure.  `ricci` keeps its results for the
last 512 connections, `normalize_type_b` for the last 256 and
`_gamma_function` the Christoffel array of the last 64, so memory stays
bounded over a sweep.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _linalg
from .funcalg import (
    AnsatzFunction, Context, constant, input_object, monomial,
    scalar_from_json, scalar_to_json, shift_pow1, sum_products,
)
from .scalars import ZERO, Scalar, ScalarError

_COEFF_ORDER = ("111", "112", "121", "122", "221", "222")


class ConnectionError_(ValueError):
    pass


@dataclass(frozen=True)
class AffineConnection2:
    kind: str  # "A" or "B"
    coeffs: tuple  # six Scalars, order (111, 112, 121, 122, 221, 222)

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ConnectionError_("kind must be 'A' or 'B'")
        object.__setattr__(
            self, "coeffs", tuple(Scalar.of(c) for c in self.coeffs))
        if len(self.coeffs) != 6:
            raise ConnectionError_("six coefficients required")

    # -- constructors --------------------------------------------------------
    @classmethod
    def type_a(cls, c111=0, c112=0, c121=0, c122=0, c221=0, c222=0):
        return cls("A", (c111, c112, c121, c122, c221, c222))

    @classmethod
    def type_b(cls, c111=0, c112=0, c121=0, c122=0, c221=0, c222=0):
        return cls("B", (c111, c112, c121, c122, c221, c222))

    # -- access ----------------------------------------------------------------
    def coefficient(self, i: int, j: int, k: int) -> Scalar:
        """Gamma_{ij}^k coefficient (for Type B, the constant over x1)."""
        if i > j:
            i, j = j, i
        idx = {(1, 1): 0, (1, 2): 2, (2, 2): 4}[(i, j)] + (k - 1)
        return self.coeffs[idx]

    @property
    def context(self) -> Context:
        return Context.TYPE_A if self.kind == "A" else Context.TYPE_B

    def coeff_map(self) -> dict:
        return dict(zip(_COEFF_ORDER, self.coeffs))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.coeff_map().items()
                          if not v.is_zero()) or "flat 0"
        return f"AffineConnection2({self.kind}; {inner})"


@lru_cache(maxsize=64)
def _gamma_function(conn: AffineConnection2) -> tuple:
    """The array `christoffel(conn)`, built once per connection: one
    function per symmetric pair ij, shared by Gamma_ij^k and Gamma_ji^k."""
    def symbol(i, j, k):
        c = conn.coefficient(i, j, k)
        if conn.kind == "A":
            return constant(c, Context.TYPE_A)
        return monomial(Context.TYPE_B, coeff=c, pow1=-1)

    planes = []
    for k in (1, 2):
        g11, g12, g22 = symbol(1, 1, k), symbol(1, 2, k), symbol(2, 2, k)
        planes.append(((g11, g12), (g12, g22)))
    return tuple(planes)


@dataclass(frozen=True)
class RicciData:
    """Ricci tensor of a homogeneous surface connection.

    `r` is the exact constant coefficient matrix: the Ricci tensor itself for
    Type A, and the numerator of (matrix)/x1^2 for Type B.  When r is
    symmetric (every Type A connection), `r_s` and `rho_s` are `r` and `rho`
    themselves.
    """

    kind: str
    r: tuple  # 2x2 nested tuple of Scalars

    @cached_property
    def r_s(self):
        if self.is_symmetric:
            return self.r
        half = Fraction(1, 2)
        return tuple(
            tuple((self.r[i][j] + self.r[j][i]) * half for j in range(2))
            for i in range(2))

    def _as_function(self, matrix, i, j) -> AnsatzFunction:
        ctx = Context.TYPE_A if self.kind == "A" else Context.TYPE_B
        f = constant(matrix[i][j], ctx)
        if self.kind == "B":
            f = shift_pow1(f, -2)
        return f

    @cached_property
    def rho(self):
        return tuple(tuple(self._as_function(self.r, i, j) for j in range(2))
                     for i in range(2))

    @cached_property
    def rho_s(self):
        if self.is_symmetric:
            return self.rho
        return tuple(tuple(self._as_function(self.r_s, i, j) for j in range(2))
                     for i in range(2))

    @cached_property
    def is_flat(self) -> bool:
        return all(v.is_zero() for row in self.r for v in row)

    @cached_property
    def is_symmetric(self) -> bool:
        return self.r[0][1] == self.r[1][0]

    @cached_property
    def rank_s(self) -> int:
        return _linalg.rank(_linalg.sparse(self.r_s))


def christoffel(conn: AffineConnection2) -> tuple:
    """Christoffel symbols as nested tuples gamma[k][i][j] = Gamma_ij^k
    (0-based), the layout of the shared tensor formulas in `funcalg`; the
    same object for equal connections while `_gamma_function` holds it."""
    return _gamma_function(conn)


@lru_cache(maxsize=512)
def ricci(conn: AffineConnection2) -> RicciData:
    """Exact Ricci tensor rho_bc = R_abc^a of R(x,y) = nabla_x nabla_y -
    nabla_y nabla_x, in closed form in the six coefficients.

    With C_ij^k = `conn.coefficient(i, j, k)` and T_c = C_1c^1 + C_2c^2,
    summed over a and e,

        Type A:  rho_bc = r_bc = C_bc^e T_e - C_ac^e C_be^a,
        Type B:  rho_bc = r_bc / x1^2, where r_bc is the same sum
                 - C_bc^1, plus T_c when b = 1.

    This is `funcalg.contracted_ricci` for the symbols C (Type A) and C/x1
    (Type B); the two extra Type B terms are its derivative terms.  Type
    A's r is symmetric: swap a and e.
    """
    C = conn.coefficient
    trace = [C(1, c, 1) + C(2, c, 2) for c in (1, 2)]

    def entry(b, c):
        acc = ZERO
        for e in (1, 2):
            acc = acc + C(b, c, e) * trace[e - 1]
            for a in (1, 2):
                acc = acc - C(a, c, e) * C(b, e, a)
        if conn.kind == "B":
            acc = acc - C(b, c, 1) + (trace[c - 1] if b == 1 else ZERO)
        return acc

    return RicciData(conn.kind, tuple(tuple(entry(b, c) for c in (1, 2))
                                      for b in (1, 2)))


def transform(conn: AffineConnection2, S) -> AffineConnection2:
    """Connection in new coordinates xt = S x (exact tensor law).

    For Type B the map must have the form (x1, x2) -> (x1, a x1 + b x2) so the
    C/x1 shape is preserved.
    """
    S = _linalg.mat(S)
    Sinv = _linalg.mat_inverse_2x2(S)
    if conn.kind == "B":
        if not (S[0][0] == Scalar(1) and S[0][1].is_zero()):
            raise ConnectionError_("Type B changes must fix x1")
    # the nonzero Gamma_pq^m as (p, q, m, Gamma_pq^m); a zero one adds the
    # zero Scalar, which leaves the sum as it is
    nonzero = [(p, q, m, conn.coefficient(p, q, m))
               for p in (1, 2) for q in (1, 2) for m in (1, 2)
               if not conn.coefficient(p, q, m).is_zero()]
    new = {}
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        for k in (1, 2):
            acc = Scalar(0)
            for p, q, m, c in nonzero:
                acc = acc + (S[k - 1][m - 1] * c * Sinv[p - 1][i - 1]
                             * Sinv[q - 1][j - 1])
            new[f"{i}{j}{k}"] = acc
    return AffineConnection2(conn.kind, tuple(
        new[key] for key in _COEFF_ORDER))


@dataclass(frozen=True)
class NormalizationRecord:
    """Scale b (x2 -> b x2) then shear c (x2 -> c x1 + x2); epsilon = C22^1."""

    scale: Scalar
    shear: Scalar
    epsilon: int | None

    @property
    def is_identity(self) -> bool:
        return self.scale == Scalar(1) and self.shear.is_zero()

    @property
    def matrix(self):
        # combined map: xt = (x1, shear*x1 + scale*x2)
        return ((Scalar(1), Scalar(0)), (self.shear, self.scale))

    def to_json(self):
        return {"scale": scalar_to_json(self.scale),
                "shear": scalar_to_json(self.shear),
                "epsilon": self.epsilon}


IDENTITY_RECORD = NormalizationRecord(Scalar(1), Scalar(0), None)


@lru_cache(maxsize=256)
def normalize_type_b(conn: AffineConnection2):
    """Rescale so C22^1 = ±1, then shear so C12^1 = 0 (no-op if C22^1 = 0)."""
    if conn.kind != "B":
        raise ConnectionError_("normalize_type_b needs a Type B connection")
    c221 = conn.coefficient(2, 2, 1)
    if c221.is_zero():
        return conn, IDENTITY_RECORD
    if not c221.is_rational():
        raise ScalarError("C22^1 must be rational for normalization")
    val = c221.as_fraction()
    eps = 1 if val > 0 else -1
    b = Scalar.sqrt_rational(abs(val))
    scaled = transform(conn, ((1, 0), (0, b)))
    c = scaled.coefficient(1, 2, 1) / scaled.coefficient(2, 2, 1)
    record = NormalizationRecord(b, c, eps)
    normalized = transform(scaled, ((1, 0), (c, 1)))
    return normalized, record


def nabla_ricci(conn: AffineConnection2):
    """Covariant derivative (nabla rho)(i,j;k) as exact functions."""
    rho = ricci(conn).rho
    gamma = christoffel(conn)
    out = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                pairs = ([(gamma[m][k][i], rho[m][j]) for m in range(2)]
                         + [(gamma[m][k][j], rho[i][m]) for m in range(2)])
                out[(i + 1, j + 1, k + 1)] = rho[i][j].derive(k + 1) - (
                    sum_products(pairs, conn.context))
    return out


@dataclass(frozen=True)
class SPFResult:
    value: bool
    family: str | None = None
    parameter: Scalar | None = None
    epsilon: int | None = None

    def __bool__(self):
        return self.value


def is_strongly_projectively_flat(conn: AffineConnection2) -> SPFResult:
    """Exact test: Ricci symmetric and nabla Ricci totally symmetric.

    Type A connections always pass.  For Type B the matching normalized family
    is reported: "Thm1.13(1)" when the surface is also Type A, else
    "Thm1.13(2)" with its parameter v = C12^2 and epsilon.
    """
    if conn.kind == "A":
        nr = nabla_ricci(conn)
        sym = (ricci(conn).is_symmetric
               and nr[(1, 2, 1)] == nr[(1, 1, 2)]
               and nr[(1, 2, 2)] == nr[(2, 2, 1)])
        if not sym:
            raise ConnectionError_("Type A surfaces are strongly projectively "
                                   "flat; exact check failed")
        return SPFResult(True, "A-family")
    ric = ricci(conn)
    if not ric.is_symmetric:
        return SPFResult(False)
    nr = nabla_ricci(conn)
    if not (nr[(1, 2, 1)] == nr[(1, 1, 2)] and nr[(1, 2, 2)] == nr[(2, 2, 1)]):
        return SPFResult(False)
    flags = type_flags(conn)
    if flags.is_also_type_a:
        return SPFResult(True, "Thm1.13(1)")
    normalized, record = normalize_type_b(conn)
    v = normalized.coefficient(1, 2, 2)
    return SPFResult(True, "Thm1.13(2)", v, record.epsilon)


@dataclass(frozen=True)
class TypeFlags:
    flat: bool
    is_also_type_a: bool
    is_also_type_c: bool


def type_flags(conn: AffineConnection2) -> TypeFlags:
    ric = ricci(conn)
    flat = ric.is_flat
    also_a = conn.kind == "A"
    also_c = False
    if conn.kind == "B":
        c = conn.coeff_map()
        also_a = (c["121"].is_zero() and c["221"].is_zero()
                  and c["222"].is_zero())
        normalized, _ = normalize_type_b(conn)
        n = normalized.coeff_map()
        also_c = (n["111"] == Scalar(-1) and n["122"] == Scalar(-1)
                  and n["112"].is_zero() and n["121"].is_zero()
                  and n["222"].is_zero()
                  and (n["221"] == Scalar(1) or n["221"] == Scalar(-1)))
    return TypeFlags(flat, also_a, also_c)


# -- file format ----------------------------------------------------------------

def connection_to_json(conn: AffineConnection2) -> dict:
    return {"kind": conn.kind,
            "coeffs": {k: scalar_str(v) for k, v in conn.coeff_map().items()}}


def scalar_str(v: Scalar):
    """JSON form of a scalar: "p/q" when rational, else scalar_to_json."""
    if v.is_rational():
        return str(v.as_fraction())
    return scalar_to_json(v)


def connection_from_json(data: dict) -> AffineConnection2:
    input_object(data, "a connection", ("kind",), ("coeffs",))
    raw = input_object(data.get("coeffs", {}), "coeffs",
                       optional=_COEFF_ORDER)
    coeffs = []
    for key in _COEFF_ORDER:
        v = raw.get(key, "0")
        try:
            coeffs.append(scalar_from_json(v))
        except (ArithmeticError, ValueError) as exc:
            raise ConnectionError_(
                f"coefficient {key} = {v!r} is not an exact scalar: "
                f"{exc}") from None
    return AffineConnection2(data["kind"], tuple(coeffs))


def load_connection(path) -> AffineConnection2:
    """Read a connection file; .toml uses the same kind/coeffs shape."""
    if str(path).endswith(".toml"):
        try:
            import tomllib as toml
        except ModuleNotFoundError:
            try:
                import tomli as toml
            except ModuleNotFoundError:
                raise ConnectionError_(
                    "TOML connection files need tomllib (Python >= 3.11) "
                    "or tomli")
        with open(path, "rb") as fh:
            return connection_from_json(toml.load(fh))
    with open(path) as fh:
        return connection_from_json(json.load(fh))


def save_connection(conn: AffineConnection2, path) -> None:
    with open(path, "w") as fh:
        json.dump(connection_to_json(conn), fh, indent=2, sort_keys=True)
        fh.write("\n")
