"""Homogeneous affine connections on surfaces and their curvature.

Type A connections have constant Christoffel symbols on R^2; Type B symbols
are C/x1 on the half-plane x1 > 0.  Six coefficients are stored in the order
(111, 112, 121, 122, 221, 222) for the symmetric index pairs, and everything
downstream (Ricci tensors, classification predicates, normalizations) is
computed exactly over the Scalar field, in closed form in the array
c[i][j][k] = C_ij^k: the Ricci numerator, nabla Ricci, the staged tensor law
of `transform` (no product with a zero factor) and the one-term Christoffel
functions.  Connections and derived data are immutable; every function here
is pure.  `ricci` keeps its results for the last 512 connections,
`normalize_type_b` for the last 256 and `_gamma_function` the Christoffel
array of the last 64, so memory stays bounded over a sweep.  The criterion-1
sweep's rounds hold 400 connections, so most of its certificates miss that
last cache: building an entry must stay cheap.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _linalg
from .funcalg import (
    _ZEROS, AnsatzFunction, Context, Term, input_object, scalar_from_json,
    scalar_to_json,
)
from .scalars import ZERO, Scalar, ScalarError

_COEFF_ORDER = ("111", "112", "121", "122", "221", "222")
_R = (0, 1)
_SYMMETRIC = ((0, 0), (0, 1), (1, 1))  # the pairs ij, in `coeffs` order
_ONE = Scalar(1)
_POW1 = {p: Scalar(p) for p in (-1, -2, -3)}


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
        return self.coeffs[2 * (i + j) + k - 5]

    @property
    def context(self) -> Context:
        return Context.TYPE_A if self.kind == "A" else Context.TYPE_B

    def coeff_map(self) -> dict:
        return dict(zip(_COEFF_ORDER, self.coeffs))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.coeff_map().items()
                          if not v.is_zero()) or "flat 0"
        return f"AffineConnection2({self.kind}; {inner})"


def _array(conn: AffineConnection2) -> tuple:
    """The coefficients as c[i][j][k] = C_ij^k, 0-based; c[i][j] is c[j][i]."""
    c = conn.coeffs
    return (((c[0], c[1]), (c[2], c[3])), ((c[2], c[3]), (c[4], c[5])))


def _dot(xs, ys) -> Scalar:
    """Sum of x * y over the pairs, with no product for a zero factor."""
    acc = ZERO
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def _one_term(c: Scalar, kind: str, pow1: int) -> AnsatzFunction:
    """c (Type A) or c x1^pow1 (Type B), built without a check or merge."""
    ctx = Context.TYPE_A if kind == "A" else Context.TYPE_B
    if c.is_zero():
        return _ZEROS[ctx]
    t = Term(c) if kind == "A" else Term(c, ZERO, ZERO, _POW1[pow1])
    return AnsatzFunction._canonical((t,), ctx)


@lru_cache(maxsize=64)
def _gamma_function(conn: AffineConnection2) -> tuple:
    """The array `christoffel(conn)`, built once per connection: one
    one-term function per pair ij, shared by Gamma_ij^k and Gamma_ji^k."""
    g = [_one_term(c, conn.kind, -1) for c in conn.coeffs]
    return tuple(((g[k], g[2 + k]), (g[2 + k], g[4 + k])) for k in _R)


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
        return _one_term(matrix[i][j], self.kind, -2)

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
        (r11, r12), (_, r22) = self.r_s
        if r11.is_zero() and r12.is_zero() and r22.is_zero():
            return 0
        return 1 if r11 * r22 == r12 * r12 else 2


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
    summed over a and e (a product with a zero factor is not formed),

        Type A:  rho_bc = r_bc = C_bc^e T_e - C_ac^e C_be^a,
        Type B:  rho_bc = r_bc / x1^2, where r_bc is the same sum
                 - C_bc^1, plus T_c when b = 1.

    This is `funcalg.contracted_ricci` for the symbols C (Type A) and C/x1
    (Type B); the two extra Type B terms are its derivative terms.  The sum
    is symmetric in b, c (swap a and e), so it is formed for b <= c only.
    """
    C = _array(conn)
    trace = [C[0][c][0] + C[1][c][1] for c in _R]
    r = [[None, None], [None, None]]
    for b, c in _SYMMETRIC:
        acc = _dot(C[b][c], trace)
        for a in _R:
            acc = acc - _dot(C[a][c], (C[b][0][a], C[b][1][a]))
        r[b][c] = r[c][b] = acc
    if conn.kind == "B":
        r = [[r[b][c] - C[b][c][0] + (trace[c] if b == 0 else ZERO)
              for c in _R] for b in _R]
    return RicciData(conn.kind, tuple(map(tuple, r)))


def transform(conn: AffineConnection2, S) -> AffineConnection2:
    """Connection in new coordinates xt = S x, by the exact tensor law
    Ct_ij^k = S_km C_pq^m Sinv_pi Sinv_qj, contracted one index at a time
    (12 + 16 + 12 products at most, none with a zero factor); the identity
    change returns `conn` itself.

    For Type B the map must have the form (x1, x2) -> (x1, a x1 + b x2) so the
    C/x1 shape is preserved.
    """
    S = _linalg.mat(S)
    if (S[0][0] == _ONE and S[1][1] == _ONE and S[0][1].is_zero()
            and S[1][0].is_zero()):
        return conn
    Sinv = _linalg.mat_inverse_2x2(S)
    if conn.kind == "B" and not (S[0][0] == _ONE and S[0][1].is_zero()):
        raise ConnectionError_("Type B changes must fix x1")
    c, col = _array(conn), tuple(zip(*Sinv))  # col[i][p] = Sinv_pi
    up = [[None, None], [None, None]]  # up[p][q][k] = S_km C_pq^m
    for p, q in _SYMMETRIC:
        up[p][q] = up[q][p] = [_dot(S[k], c[p][q]) for k in _R]
    # left[i][q][k] = Sinv_pi up[p][q][k], then Sinv_qj left[i][q][k]
    left = [[[_dot(col[i], (up[0][q][k], up[1][q][k])) for k in _R]
             for q in _R] for i in _R]
    return AffineConnection2(conn.kind, tuple(
        _dot(col[j], (left[i][0][k], left[i][1][k]))
        for i, j in _SYMMETRIC for k in _R))


@dataclass(frozen=True)
class NormalizationRecord:
    """Scale b (x2 -> b x2) then shear c (x2 -> c x1 + x2); epsilon = C22^1."""

    scale: Scalar
    shear: Scalar
    epsilon: int | None

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


def _nabla_numerators(conn: AffineConnection2, entries) -> list:
    """The n_ijk of `nabla_ricci` for the (i, j, k) in `entries`."""
    r, C, out = ricci(conn).r, _array(conn), []
    for i, j, k in entries:
        i, j, k = i - 1, j - 1, k - 1
        n = -(_dot(C[k][i], (r[0][j], r[1][j])) + _dot(C[k][j], r[i]))
        if conn.kind == "B" and k == 0:
            n = n - (r[i][j] + r[i][j])
        out.append(n)
    return out


def nabla_ricci(conn: AffineConnection2):
    """Covariant derivative (nabla rho)(i,j;k) as exact functions, in closed
    form in the coefficients and the Ricci numerator r, summed over m:

        Type A:  n_ijk = -C_ki^m r_mj - C_kj^m r_im,
        Type B:  n_ijk / x1^3, n_ijk = -C_ki^m r_mj - C_kj^m r_im
                 - 2 delta_k1 r_ij,

    the last term being d_k of rho_ij = r_ij / x1^2."""
    entries = [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]
    return {e: _one_term(n, conn.kind, -3)
            for e, n in zip(entries, _nabla_numerators(conn, entries))}


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
    sym = ricci(conn).is_symmetric
    if sym:  # then nabla rho is totally symmetric when these two hold
        a, b, c, d = _nabla_numerators(
            conn, ((1, 2, 1), (1, 1, 2), (1, 2, 2), (2, 2, 1)))
        sym = a == b and c == d
    if conn.kind == "A":
        if not sym:
            raise ConnectionError_("Type A surfaces are strongly projectively "
                                   "flat; exact check failed")
        return SPFResult(True, "A-family")
    if not sym:
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
