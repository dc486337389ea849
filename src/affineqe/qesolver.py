"""Solution spaces of the quasi-Einstein equation H f = mu f rho_s.

The classifier (`eigenspace`) walks the closed-form case tree for Type A and
Type B surfaces and returns exact bases from the case-specific ansatz
constructions.  Where a case gives a finite span of exponential-polynomial
(Type A) or power-log (Type B) monomials instead, `_solve_span` solves the
operator's closed-form action on them by one sparse elimination, in which
distinct exponentials never meet; most spans grow in degree only until the
kernel reaches the theorem's dimension.  `eigenspace` certifies each basis
once, in the coordinates it returns it in (`_certify`: an exact residual
check through `qe_residual`, which does not use the closed-form rows, and an
independence check).  `jet_dimension_oracle` computes the same dimension by
a separate route, which the acceptance sweeps compare against: prolongation
to a first-order system and stabilization of its integrability obstruction,
ranked by its own fraction-free elimination, so it shares no elimination
code with the classifier.  Everything is pure and instances are independent,
so sweeps over (connection, mu) grids parallelize with no shared state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .funcalg import (
    AnsatzFunction, Context, DomainError, FunctionAlgebraError, Term,
    _eval_plan, constant, hessian, monomial, rank_basis, substitute_linear,
)
from .scalars import ZERO, Scalar, ScalarError, roots_of_monic
from .surface import (
    AffineConnection2, NormalizationRecord, RicciData, _array, _dot,
    christoffel, is_strongly_projectively_flat, normalize_type_b, ricci,
    transform, type_flags,
)


class SolverError(RuntimeError):
    pass


def _mu_scalar(mu) -> Scalar:
    if isinstance(mu, Scalar):
        return mu
    return Scalar(Fraction(mu))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

# the independent components (i, j) of a symmetric 2x2 matrix
_COMPONENTS = ((0, 0), (0, 1), (1, 1))


def qe_residual(conn: AffineConnection2, mu, f: AnsatzFunction):
    """Exact 2x2 symmetric matrix (d_i d_j - Gamma_ij^k d_k)f - mu f rho_s,
    each entry built in one merge of its terms."""
    if f.context is not conn.context:
        raise FunctionAlgebraError(
            f"function context {f.context.value} does not match connection "
            f"kind {conn.kind}")
    minus_mu = -_mu_scalar(mu)
    rho_s = ricci(conn).rho_s
    out = hessian(christoffel(conn), f,
                  [[g.scale(minus_mu) for g in row] for row in rho_s])
    return (tuple(out[0]), tuple(out[1]))


def _all_zero(matrix) -> bool:
    return all(v.is_zero() for row in matrix for v in row)


def is_solution(conn: AffineConnection2, mu, f: AnsatzFunction) -> bool:
    """True when f solves H f = mu f rho_s exactly."""
    return _all_zero(qe_residual(conn, mu, f))


# ---------------------------------------------------------------------------
# descriptions and coordinate changes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateChange:
    """Linear change to solver coordinates: x_new = matrix @ x_input."""

    matrix: tuple  # 2x2 Scalars

    @property
    def is_identity(self) -> bool:
        m = self.matrix
        return (m[0][0] == Scalar(1) and m[0][1].is_zero()
                and m[1][0].is_zero() and m[1][1] == Scalar(1))

    def to_input(self, f: AnsatzFunction) -> AnsatzFunction:
        if self.is_identity:
            return f
        return substitute_linear(f, self.matrix)


IDENTITY_CHANGE = CoordinateChange(((Scalar(1), Scalar(0)),
                                    (Scalar(0), Scalar(1))))


@dataclass(frozen=True)
class EigenspaceDescription:
    basis: tuple  # AnsatzFunctions in solver coordinates
    case_label: str
    mu: Fraction
    solver_connection: AffineConnection2
    change: CoordinateChange = IDENTITY_CHANGE
    normalization: NormalizationRecord | None = None
    flags: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_in_input_coordinates(self) -> list[AnsatzFunction]:
        return [self.change.to_input(f) for f in self.basis]


# ---------------------------------------------------------------------------
# generic bounded-ansatz solver
# ---------------------------------------------------------------------------

def _operator_columns(conn: AffineConnection2, mu,
                      span_terms: Sequence[Term]) -> list[dict]:
    """Closed-form image of each unit monomial under f -> H f - mu f rho_s.

    Column j maps ((i, j), Term.key()) to the coefficient of that term in
    component (i, j) of qe_residual on span_terms[j] with coefficient 1;
    zero entries are left out.  With C_ij^k the connection coefficients and
    r_s the constant part of rho_s, and D the partial derivatives:

    Type A, f = e^{a.x} x^m:  H_ij f - mu r_ij f = e^{a.x} (P_ij(a) x^m
      + sum_l dP_ij/da_l(a) D_l x^m + D_i D_j x^m),
      where P_ij(a) = a_i a_j - C_ij^k a_k - mu r_ij.
    Type B, f = x1^alpha log(x1)^l x2^q:  f is d^l/dalpha^l of x1^alpha x2^q,
      whose image is x1^(alpha-2) x2^q P_ij(alpha)
      + q x1^(alpha-1) x2^(q-1) S_ij(alpha)
      + [ij = 22] q(q-1) x1^alpha x2^(q-2),
      where P_ij = [ij = 11] alpha(alpha-1) - C_ij^1 alpha - mu r_ij and
      S_ij = [ij = 12] alpha - C_ij^2; the alpha-derivatives of P and S
      carry the lower powers of log(x1).

    The polynomials in a or alpha are evaluated once per exponent.
    """
    mus = _mu_scalar(mu)
    r_s = ricci(conn).r_s
    c = _array(conn)
    symbols: dict = {}
    columns = []
    for t in span_terms:
        col: dict = {}

        def put(ij, pow1, logdeg, deg2, v):
            if not v.is_zero():
                col[(ij, (t.exp1, t.exp2, pow1, logdeg, deg2, 0, 0))] = v

        if conn.kind == "A":
            a = (t.exp1, t.exp2)
            if a not in symbols:
                # (P_ij(a), [dP_ij/da_1, dP_ij/da_2]) per component
                symbols[a] = [
                    (a[i] * a[j] - c[i][j][0] * a[0] - c[i][j][1] * a[1]
                     - mus * r_s[i][j],
                     [(a[j] if l == i else ZERO) + (a[i] if l == j else ZERO)
                      - c[i][j][l] for l in (0, 1)])
                    for i, j in _COMPONENTS]
            p, q = int(t.pow1.as_fraction()), t.deg2
            # D_i D_j x1^p x2^q: coefficient and how far it lowers p and q
            second = ((p * (p - 1), 2, 0), (p * q, 1, 1), (q * (q - 1), 0, 2))
            for ij, (value, grad), (n, dp, dq) in zip(_COMPONENTS, symbols[a],
                                                      second):
                put(ij, t.pow1, 0, q, value)
                if p:
                    put(ij, Scalar(p - 1), 0, q, grad[0] * p)
                if q:
                    put(ij, t.pow1, 0, q - 1, grad[1] * q)
                if n:
                    put(ij, Scalar(p - dp), 0, q - dq, Scalar(n))
        else:
            alpha = t.pow1
            if alpha not in symbols:
                # alpha - 2, alpha - 1, and per component (P, P', P''), (S, S')
                symbols[alpha] = (alpha - 2, alpha - 1, [
                    ((alpha * (alpha - 1) - c[0][0][0] * alpha
                      - mus * r_s[0][0], 2 * alpha - 1 - c[0][0][0],
                      Scalar(2)),
                     (-c[0][0][1], ZERO)),
                    ((-c[0][1][0] * alpha - mus * r_s[0][1], -c[0][1][0],
                      ZERO),
                     (alpha - c[0][1][1], Scalar(1))),
                    ((-c[1][1][0] * alpha - mus * r_s[1][1], -c[1][1][0],
                      ZERO),
                     (-c[1][1][1], ZERO))])
            low2, low1, parts = symbols[alpha]
            l, q = t.logdeg, t.deg2
            for ij, (ps, ss) in zip(_COMPONENTS, parts):
                for k in range(min(l, 2) + 1):
                    put(ij, low2, l - k, q, ps[k] * math.comb(l, k))
                if q:
                    for k in range(min(l, 1) + 1):
                        put(ij, low1, l - k, q - 1,
                            ss[k] * (q * math.comb(l, k)))
            if q >= 2:
                put((1, 1), alpha, l, q - 2, Scalar(q * (q - 1)))
        columns.append(col)
    return columns


def _solve_span(conn: AffineConnection2, mu, span_terms: Sequence[Term],
                label: str, dim: int, degree=lambda t: 0):
    """Kernel of the quasi-Einstein operator on span(span_terms), of
    dimension `dim` by the case's theorem.

    span_terms are unit monomials with distinct keys.  The kernel of their
    closed-form coefficient columns (`_operator_columns`) comes from one
    sparse elimination (`_linalg.nullspace`), which never combines two Type
    A exponent pairs, or two Type B exponents that differ by a non-integer.
    Each kernel vector becomes one basis element with leading coefficient 1.
    The span grows through the terms of `degree` <= 0, 1, ... until its
    kernel reaches `dim`: a smaller span is an in-order subsequence of
    span_terms, so its kernel is then the whole kernel, with the same
    reduced basis.  `eigenspace` certifies the basis; a wrong length here is
    a residual failure if a kernel element fails `qe_residual` (wrong
    closed-form rows), else a dimension mismatch.
    """
    for k in range(max(map(degree, span_terms), default=0) + 1):
        terms = [t for t in span_terms if degree(t) <= k]
        rows: dict = {}  # row key -> sparse row over the monomials
        for j, col in enumerate(_operator_columns(conn, mu, terms)):
            for key, v in col.items():
                rows.setdefault(key, {})[j] = v
        kernel = _linalg.nullspace(list(rows.values()), len(terms))
        if len(kernel) >= dim:
            break
    out = []
    for vec in kernel:
        f = AnsatzFunction([t.with_coeff(v) for v, t in zip(vec, terms)
                            if not v.is_zero()], conn.context)
        out.append(f.scale(f.terms[0].coeff.inverse()))
    if len(out) != dim:
        for f in out:
            if not is_solution(conn, mu, f):
                raise SolverError(f"{label}: kernel element fails the "
                                  f"residual check: {f!r}")
        raise SolverError(f"{label}: expected dimension {dim}, got {len(out)}")
    return out


def _degree_a(t: Term) -> int:  # p + q of e^{b.x} x1^p x2^q
    return int(t.pow1.as_fraction()) + t.deg2


def _degree_b(t: Term) -> int:  # l + q of x1^alpha log(x1)^l x2^q
    return t.logdeg + t.deg2


def _span_terms_a(pairs):
    """Exp-polynomial monomials e^{b1 x1 + b2 x2} x1^p x2^q, p+q <= 2, for
    each distinct pair in turn."""
    return [Term(Scalar(1), b1, b2, Scalar(p), 0, q)
            for b1, b2 in dict.fromkeys(pairs)
            for p in range(3) for q in range(3 - p)]


def _span_terms_b(alphas, deg2_max=2):
    """Power-log monomials x1^a log(x1)^l x2^q, l <= 2, q <= deg2_max, for
    each distinct exponent in turn."""
    return [Term(Scalar(1), Scalar(0), Scalar(0), a, l, q)
            for a in dict.fromkeys(map(Scalar.of, alphas))
            for l in range(3) for q in range(deg2_max + 1)]


def _certify(conn, mu, basis, label):
    for f in basis:
        if not is_solution(conn, mu, f):
            raise SolverError(f"{label}: constructed basis element fails the "
                              f"residual check: {f!r}")
    r, _ = rank_basis(basis) if basis else (0, [])
    if r != len(basis):
        raise SolverError(f"{label}: basis is not independent")


# ---------------------------------------------------------------------------
# Type A classifier
# ---------------------------------------------------------------------------

def _quadratic_roots(b: Scalar, c: Scalar, error: str) -> list[Scalar]:
    """Exact roots of x^2 + b x + c; SolverError(error) unless b, c are
    rational."""
    if not (b.is_rational() and c.is_rational()):
        raise SolverError(error)
    return roots_of_monic([c.as_fraction(), b.as_fraction(), Fraction(1)])


def _flat_spectrum(conn: AffineConnection2, i: int) -> list[Scalar]:
    """Eigenvalues of the 2x2 matrix (Gamma_ij^k)_jk of the parallel-covector
    equations along x_i."""
    m = [[conn.coefficient(i, j, k) for k in (1, 2)] for j in (1, 2)]
    return _quadratic_roots(-(m[0][0] + m[1][1]),
                            m[0][0] * m[1][1] - m[0][1] * m[1][0],
                            "flat solver needs rational coefficients")


def _flat_weight_pairs(conn: AffineConnection2):
    """Candidate exponent pairs for flat Type A: joint spectra of the two
    2x2 coefficient matrices of the parallel-covector equations."""
    pairs = [(Scalar(0), Scalar(0))]
    for b1 in _flat_spectrum(conn, 1):
        for b2 in _flat_spectrum(conn, 2):
            try:
                b1 + b2  # context compatibility probe
            except ScalarError:
                continue
            pairs.append((b1, b2))
    return pairs


def _kernel_direction(r_s):
    """Kernel vector of a rank-1 symmetric 2x2 exact matrix."""
    for row in r_s:
        if not (row[0].is_zero() and row[1].is_zero()):
            return (row[1], -row[0])
    raise SolverError("matrix is zero; no distinguished kernel direction")


def _rank1_frame(conn: AffineConnection2, ric: RicciData):
    """Rotate so rho_11 = rho_12 = 0; then Gamma_11^2 = Gamma_12^2 = 0.
    The frame (k, e_t) takes k from the kernel of r_s, so the rotated Ricci
    tensor is the congruence (k, e_t)^T r_s (k, e_t) (the tensor law)."""
    r = ric.r_s
    k = _kernel_direction(r)
    t = 1 if k[1].is_zero() else 0  # det (k, e_t) != 0
    s_inv = ((k[0], Scalar(1 - t)), (k[1], Scalar(t)))  # columns: k, e_t
    s = _linalg.mat_inverse_2x2(s_inv)
    change = CoordinateChange((tuple(s[0]), tuple(s[1])))
    rotated = transform(conn, s)
    if not (rotated.coefficient(1, 1, 2).is_zero()
            and rotated.coefficient(1, 2, 2).is_zero()):
        raise SolverError("rank-1 rotation failed to clear Gamma_11^2, "
                          "Gamma_12^2")
    rk = [_dot(row, k) for row in r]
    if not (_dot(k, rk).is_zero() and rk[t].is_zero()):
        raise SolverError("rank-1 rotation failed to clear rho_11, rho_12")
    return rotated, change, r[t][t]


def _exp2(a2, extra_deg2=0, coeff=1):
    return monomial(Context.TYPE_A, coeff=coeff, exp=(0, a2), x2=extra_deg2)


def _exp2_pair(gamma222: Scalar, mu_rho22: Scalar):
    """The solutions e^{a x2}, one per root a of a^2 - Gamma_22^2 a -
    mu rho_22 = 0, with x2 e^{a x2} as the second at a double root; and
    whether the root is double."""
    a, b = _quadratic_roots(-gamma222, -mu_rho22,
                            "exponent quadratic needs rational data")
    if a == b:
        return [_exp2(a), _exp2(a, extra_deg2=1)], True
    return [_exp2(a), _exp2(b)], False


def _conic_pairs(conn: AffineConnection2, r):
    """Common zeros of the three exponential conics for mu = -1, rank 2.

    For C11^2 = b != 0, the first conic gives alpha2 = (a1^2 - a a1 + r11)/b,
    the second then becomes the monic cubic p1(a1) = 0, and a root of p1 is
    kept when the third conic vanishes there.  One verdict per field is
    enough: after that substitution the third conic is a rational
    polynomial in a1, so it vanishes at every conjugate of a root or at
    none, and p1 has at most one irreducible factor of degree > 1.
    """
    a, b = conn.coefficient(1, 1, 1), conn.coefficient(1, 1, 2)
    c, d = conn.coefficient(1, 2, 1), conn.coefficient(1, 2, 2)
    e, f = conn.coefficient(2, 2, 1), conn.coefficient(2, 2, 2)
    r11, r12, r22 = r[0][0], r[0][1], r[1][1]
    if not all(v.is_rational() for v in (a, b, c, d, e, f, r11, r12, r22)):
        raise SolverError("conic solver needs rational data")
    af, bf, cf, df, r11f, r12f = (v.as_fraction()
                                  for v in (a, b, c, d, r11, r12))
    pairs = []
    if bf != 0:
        # Q12*b = a1*(a1^2 - a a1 + r11) - c b a1 - d(a1^2 - a a1 + r11) + r12 b
        p1 = [r11f * (-df) + r12f * bf,
              r11f - cf * bf + df * af,
              -af - df,
              Fraction(1)]
        verdicts = {}  # minimal polynomial (or the root itself) -> kept
        for a1 in roots_of_monic(p1):
            a2 = (a1 * a1 - a * a1 + r11) / b
            field = a1 if a1.context is None else a1.context.minpoly
            if field not in verdicts:
                verdicts[field] = (a2 * a2 - e * a1 - f * a2 + r22).is_zero()
            if verdicts[field]:
                pairs.append((a1, a2))
        if not pairs:
            raise SolverError("conic system has no common exponent")
    else:
        for a1 in roots_of_monic([r11f, -af, Fraction(1)]):
            if a1 != d:
                a2 = (c * a1 - r12) / (a1 - d)
                if (a2 * a2 - e * a1 - f * a2 + r22).is_zero():
                    pairs.append((a1, a2))
            elif (c * a1 - r12).is_zero():
                pairs.extend((a1, a2) for a2 in _quadratic_roots(
                    -f, r22 - e * a1, "conic solver needs rational data"))
    return list(dict.fromkeys(pairs))  # exact dedupe, first come


def _eigenspace_a(conn: AffineConnection2, mu: Fraction):
    ric = ricci(conn)
    mus = Scalar(mu)
    if ric.is_flat:
        terms = _span_terms_a(_flat_weight_pairs(conn))
        basis = _solve_span(conn, mu, terms, "Thm1.5(3) flat", 3, _degree_a)
        return EigenspaceDescription(tuple(basis), "Thm1.5(3) flat", mu, conn)
    rank = ric.rank_s
    if mu == 0:
        if rank == 2:
            return EigenspaceDescription((constant(1, Context.TYPE_A),),
                                         "Thm1.10(1) trivial", mu, conn)
        rotated, change, rho22 = _rank1_frame(conn, ric)
        a = rotated.coefficient(2, 2, 2)
        one = constant(1, Context.TYPE_A)
        if not a.is_zero():
            basis = [one, _exp2(a)]
            label = "Thm1.10(1a)"
        else:
            basis = [one, monomial(Context.TYPE_A, x2=1)]
            label = "Thm1.10(1b)"
        return EigenspaceDescription(tuple(basis), label, mu, rotated, change)
    if mu == -1:
        if rank == 1:
            rotated, change, rho22 = _rank1_frame(conn, ric)
            a = rotated.coefficient(1, 1, 1)
            c = rotated.coefficient(1, 2, 1)
            e = rotated.coefficient(2, 2, 1)
            f = rotated.coefficient(2, 2, 2)
            basis, _ = _exp2_pair(f, -rho22)
            if not a.is_zero():
                third = monomial(Context.TYPE_A, exp=(a, c))
            else:
                x1e = monomial(Context.TYPE_A, exp=(0, c), pow1=1)
                if e.is_zero():
                    third = x1e
                elif not (2 * c - f).is_zero():
                    third = x1e + _exp2(c, extra_deg2=1,
                                        coeff=e / (2 * c - f))
                else:
                    third = x1e + _exp2(c, extra_deg2=2,
                                        coeff=e * Fraction(1, 2))
            return EigenspaceDescription((*basis, third), "Thm1.10(2) rank1",
                                         mu, rotated, change)
        terms = _span_terms_a(_conic_pairs(conn, ric.r_s))
        basis = _solve_span(conn, mu, terms, "Thm1.10(2) rank2", 3)
        return EigenspaceDescription(tuple(basis), "Thm1.10(2) rank2", mu,
                                     conn)
    # mu not in {0, -1}
    if rank == 2:
        return EigenspaceDescription((), "Thm1.10(3) rank2", mu, conn)
    rotated, change, rho22 = _rank1_frame(conn, ric)
    basis, double = _exp2_pair(rotated.coefficient(2, 2, 2), mus * rho22)
    label = "Thm1.10(3) rank1" + (" degenerate" if double else "")
    return EigenspaceDescription(tuple(basis), label, mu, rotated, change)


# ---------------------------------------------------------------------------
# Type B classifier
# ---------------------------------------------------------------------------

def _b_mono(alpha, *, coeff=1, log=0, x2=0):
    return monomial(Context.TYPE_B, coeff=coeff, pow1=alpha, log=log, x2=x2)


def _flat_b_candidates(conn: AffineConnection2):
    cands = [Scalar(0), Scalar(1)]
    for s in _flat_spectrum(conn, 1):
        cands.extend([s, s + 1])
    return cands


def _also_a_candidates(conn: AffineConnection2, mu: Fraction, r11: Scalar):
    error = "Type-A-form solver needs rational coefficients"
    c122 = conn.coefficient(1, 2, 2)
    if not c122.is_rational():
        raise SolverError(error)
    roots = _quadratic_roots(-(1 + conn.coefficient(1, 1, 1)),
                             -(Scalar(mu) * r11), error)
    return roots + [c122, c122 + 1, Scalar(0)]


def _proportionality(v1, v2):
    """c with v2 = c*v1 exactly, or None."""
    pivot = next((k for k, x in enumerate(v1) if not x.is_zero()), None)
    if pivot is None:
        return None
    c = v2[pivot] / v1[pivot]
    if all((v2[k] - c * v1[k]).is_zero() for k in range(len(v1))):
        return c
    return None


def _mu0_type_b(conn: AffineConnection2, mu, label_suffix=""):
    """Yamabe-soliton tree on the input coordinates (no normalization)."""
    cm = conn.coeff_map()
    one = constant(1, Context.TYPE_B)
    basis = [one]
    label = "Thm1.14 trivial"
    v1 = (cm["111"], cm["121"], cm["221"])
    v2 = (cm["112"], cm["122"], cm["222"])
    c = _proportionality(v1, v2)
    if c is not None:
        basis.append(monomial(Context.TYPE_B, x2=1)
                     - monomial(Context.TYPE_B, coeff=c, pow1=1))
        label = "Thm1.14(1)"
    if cm["121"].is_zero() and cm["221"].is_zero():
        alpha = cm["111"] + 1
        if alpha.is_zero():
            basis.append(_b_mono(0, log=1))
            label = "Thm1.14(2)"
        else:
            basis.append(_b_mono(alpha))
            label = "Thm1.14(3)"
    if len(basis) > 2:
        raise SolverError("non-flat Yamabe space cannot exceed dimension 2")
    return EigenspaceDescription(tuple(basis), label + label_suffix, mu, conn)


def _normalized_frame(conn: AffineConnection2, shape):
    """The normalized frame (connection, change, record) of a Type B
    connection with C22^1 != 0, its coefficients n, sign eps and whether
    shape(n, eps) holds; a shape that holds at -eps only is flagged."""
    normalized, record = normalize_type_b(conn)
    n, eps = normalized.coeff_map(), record.epsilon
    holds = shape(n, eps)
    flags = ("eps-pairing-sensitive",) if not holds and shape(n, -eps) else ()
    return ((normalized, CoordinateChange(record.matrix), record), n, eps,
            holds, flags)


def _eigenspace_b(conn: AffineConnection2, mu: Fraction):
    ric = ricci(conn)
    mus = Scalar(mu)
    if ric.is_flat:
        terms = _span_terms_b(_flat_b_candidates(conn))
        basis = _solve_span(conn, mu, terms, "Thm1.5(3) flat", 3, _degree_b)
        return EigenspaceDescription(tuple(basis), "Thm1.5(3) flat", mu, conn)
    if _all_zero(ric.r_s):
        return _mu0_type_b(conn, mu, label_suffix=" [rho_s=0]")
    flags_in = type_flags(conn)
    if mu == 0:
        return _mu0_type_b(conn, mu)
    if mu == -1:
        spf = is_strongly_projectively_flat(conn)
        if spf:
            if flags_in.is_also_type_a:
                cands = _also_a_candidates(conn, mu, ric.r_s[0][0])
                terms = _span_terms_b(cands, deg2_max=1)
                label = "Thm1.13(1) alsoA"
                basis = _solve_span(conn, mu, terms, label, 3, _degree_b)
                return EigenspaceDescription(tuple(basis), label, mu, conn)
            normalized, record = normalize_type_b(conn)
            v = normalized.coefficient(1, 2, 2)
            cands = [v, v + 1, v + 2]
            terms = _span_terms_b(cands)
            vtxt = str(v.as_fraction()) if v.is_rational() else repr(v)
            label = f"Thm1.13(2) v={vtxt}"
            basis = _solve_span(normalized, mu, terms, label, 3, _degree_b)
            return EigenspaceDescription(tuple(basis), label, mu, normalized,
                                         CoordinateChange(record.matrix),
                                         record)
        cm = conn.coeff_map()
        if cm["221"].is_zero():
            if cm["121"] == cm["222"] and not cm["121"].is_zero():
                return EigenspaceDescription((_b_mono(cm["122"]),),
                                             "Thm1.15(1)", mu, conn)
            return EigenspaceDescription((), "Thm1.15 none", mu, conn)
        frame, n, _, match, flags = _normalized_frame(conn, lambda n, e: (
            n["222"] == 2 * e * n["112"] and not n["222"].is_zero()
            and n["111"] == 1 + 2 * n["122"] + e * n["112"] * n["112"]))
        if match:
            return EigenspaceDescription((_b_mono(n["111"] - n["122"] - 1),),
                                         "Thm1.15(2)", mu, *frame, flags)
        return EigenspaceDescription((), "Thm1.15 none", mu, *frame, flags)
    # mu outside {0, -1}
    if flags_in.is_also_type_a:
        cands = _also_a_candidates(conn, mu, ric.r_s[0][0])
        terms = _span_terms_b(cands, deg2_max=1)
        label = "Thm6.1(2) TypeA-form"
        basis = _solve_span(conn, mu, terms, label, 2, _degree_b)
        return EigenspaceDescription(tuple(basis), label, mu, conn)
    cm = conn.coeff_map()
    if cm["221"].is_zero():
        return EigenspaceDescription((), "Thm1.17 none (C22^1=0)", mu, conn)
    frame, n, eps, shape, flags = _normalized_frame(
        conn, lambda n, e: n["222"] == 2 * e * n["112"])
    if not shape:
        return EigenspaceDescription((), "Thm1.17 none", mu, *frame, flags)
    denom = n["111"] - n["122"] - 1
    if denom.is_zero():
        return EigenspaceDescription((), "Thm1.17 excluded locus", mu,
                                     *frame, flags)
    mu_star = ((-(n["111"] * n["111"]) + 2 * n["111"] * n["122"]
                + 2 * eps * n["112"] * n["112"]
                - n["122"] * n["122"] + 2 * n["122"] + 1)
               / (denom * denom))
    if mus != mu_star:
        return EigenspaceDescription((), "Thm1.17 mu mismatch", mu, *frame,
                                     flags)
    alpha = mus * (1 + n["122"] - n["111"])
    basis = [_b_mono(alpha)]
    label = "Thm1.17"
    fam1 = (n["112"].is_zero() and n["222"].is_zero()
            and n["111"] == n["122"] - 1)
    fam2 = (not n["112"].is_zero()
            and (2 * n["111"] - 4 * n["122"] - 1).is_zero()
            and (8 * eps * n["112"] * n["112"] + 2 * n["122"] + 3).is_zero()
            and 2 * n["112"] * n["112"] != Scalar(1))
    if fam1:
        basis.append(_b_mono(alpha, x2=1))
        label = "Thm1.17(1)"
    elif fam2:
        basis.append(_b_mono(alpha, x2=1)
                     - _b_mono(alpha + 1, coeff=2 * n["112"]))
        label = "Thm1.17(2)"
    return EigenspaceDescription(tuple(basis), label, mu, *frame, flags)


def eigenspace(conn: AffineConnection2, mu, *,
               input_coords: bool = False) -> EigenspaceDescription:
    """Closed-form solution space of H f = mu f rho_s with explicit basis.

    Dimensions and case labels come from the classification case tree; bases
    come from the per-case ansatz constructions.  By default bases are
    expressed in the solver's normalized coordinates (see
    `change`/`normalization`); `input_coords=True` maps them back.  The
    basis is residual-certified once, in the coordinates it is returned in.
    """
    mu = Fraction(mu)
    if conn.kind == "A":
        desc = _eigenspace_a(conn, mu)
    else:
        desc = _eigenspace_b(conn, mu)
    label = desc.case_label
    if input_coords and not desc.change.is_identity:
        desc = EigenspaceDescription(
            tuple(desc.basis_in_input_coordinates()), label, mu, conn,
            IDENTITY_CHANGE, desc.normalization, desc.flags)
        label += " [input coords]"
    _certify(desc.solver_connection, mu, desc.basis, label)
    return desc


# ---------------------------------------------------------------------------
# prolongation oracle
# ---------------------------------------------------------------------------

def jet_dimension_oracle(conn: AffineConnection2, mu) -> int:
    """Dimension of the solution space by prolongation, independent of the
    classification.

    The equation is prolonged to d_i F = m_i F on F = (f, d1 f, d2 f).  In
    the frame of the homogeneous structure (plain derivatives for Type A;
    x1-weighted ones for Type B, which match every power of x1) the matrices
    are constant: m1 = [e2; p a' b; q c d'] and m2 = [e3; q c d; s e f],
    with (p, q, s) = mu (r11, r12, r22) of r_s, (a, b, c, d, e, f) = (C11^1,
    C11^2, C12^1, C12^2, C22^1, C22^2), e2, e3 unit rows, a' = a + [B] and
    d' = d + [B] ([B] is 1 for Type B, 0 for Type A).  The obstruction
    g = m2 m1 - m1 m2 - [B] m2 kills every solution's F.  Its row 0 is zero
    (d2 d1 f and d1 d2 f both read H12); rows 1 and 2, less [B] (q, c, d)
    and [B] (s, e, f), are

        (c p + (d - a') q - b s,  q + c d - b e,  b (c - f) + d (d - a) - p)
        (e p + (f - c) q - d' s,  s + c (f - c) - e (d - a),  b e - q - c d)

    and a row r that kills F also kills d_i F, so its images

        r m1 = (r1 p + r2 q,  r0 + r1 a' + r2 c,  r1 b + r2 d')
        r m2 = (r1 q + r2 s,  r1 c + r2 e,  r0 + r1 d + r2 f)

    do.  The answer is 3 less the rank of the rows' closure under both.
    Over rational data, with l the lcm of the nine denominators of p, ...,
    f, the values x l ([B] becomes l), the obstruction rows x l^2 and the
    images x l are ints (field data keeps Scalars, with l = 1).  Each new row
    is cleared fraction-free, with no inverse and no back-reduction, against
    each earlier pivot row: row <- piv row - row[col] prow (Bareiss, 1968).
    """
    r_s, mus, l = ricci(conn).r_s, _mu_scalar(mu), 1
    values = (mus * r_s[0][0], mus * r_s[0][1], mus * r_s[1][1], *conn.coeffs)
    if all(v.is_rational() for v in values):
        values = [v.as_fraction() for v in values]
        l = math.lcm(*(x.denominator for x in values))
        values = [x.numerator * (l // x.denominator) for x in values]
    p, q, s, a, b, c, d, e, f = values
    a1, d1 = (a, d) if conn.kind == "A" else (a + l, d + l)
    t, u = d - a, q * l + c * d - b * e
    g1 = (c * p + (d - a1) * q - b * s, u, b * (c - f) + d * t - p * l)
    g2 = (e * p + (f - c) * q - d1 * s, s * l + c * (f - c) - e * t, -u)
    if conn.kind == "B":
        g1 = (g1[0] - q * l, g1[1] - c * l, g1[2] - d * l)
        g2 = (g2[0] - s * l, g2[1] - e * l, g2[2] - f * l)
    # The rows that add a pivot span the echelon, so it is closed under m1
    # and m2 once their images are in it: a round takes the last one's.
    pivots: list = []  # (col, row[col], row), row 0 at earlier pivots' cols
    rows = (g1, g2)
    while rows:
        added = []
        for row in rows:
            cleared = row
            for col, piv, prow in pivots:
                if not (x := cleared[col]) == 0:
                    cleared = [piv * v - x * w for v, w in zip(cleared, prow)]
            col = next((k for k in range(3) if not cleared[k] == 0), None)
            if col is not None:
                pivots.append((col, cleared[col], cleared))
                if len(pivots) == 3:
                    return 0
                added.append(row)
        rows = [image for r0, r1, r2 in added for image in (
            (r1 * p + r2 * q, r0 * l + r1 * a1 + r2 * c, r1 * b + r2 * d1),
            (r1 * q + r2 * s, r1 * c + r2 * e, r0 * l + r1 * d + r2 * f))]
    return 3 - len(pivots)


# ---------------------------------------------------------------------------
# real bases and the potential residual
# ---------------------------------------------------------------------------

def realize_real_basis(desc) -> list[AnsatzFunction]:
    """Real basis of the same real dimension, for a basis (independent
    elements): a real f stays, and f with its conjugate in the basis gives
    Re f and Im f at the first of the two.  A basis not closed under
    conjugation keeps the first independent of the Re and Im of each
    element instead."""
    basis = list(desc.basis) if isinstance(desc, EigenspaceDescription) else list(desc)
    if not basis:
        return []
    half = Scalar(Fraction(1, 2))
    neg_half_i = Scalar(0, Fraction(-1, 2))
    # an element with only real scalars is its own conjugate
    pairs = [(f, f if all(s.is_real() for t in f.terms for s in t[:4])
              else f.conjugate()) for f in basis]
    members = set(basis)
    closed = all(fc in members for _, fc in pairs)
    candidates, later = [], set()
    for f, fc in pairs:
        if fc == f:
            candidates.append(f)
        elif f not in later:
            later.add(fc)
            candidates.append((f + fc).scale(half))
            candidates.append((f - fc).scale(neg_half_i))
    if closed:
        return candidates
    rank, picked = rank_basis([c for c in candidates if not c.is_zero()])
    if rank < len(basis):
        raise SolverError("real realization lost dimension")
    return picked[: len(basis)]


def potential_residual_at(f: AnsatzFunction, hess, rho, mu: Fraction, points,
                          name: str = "f") -> float:
    """Largest |Hess F + rho - (mu/2) dF x dF| at the probes for the
    potential F = -(2/mu) log f, on the surface or on T*M.

    `hess` is the exact Hessian of f, so Hess F = -(2/mu) (Hess f / f -
    df x df / f^2) needs no Christoffel symbol here; `name` names f in the
    error raised at a probe where f is not positive.
    """
    n = len(hess)
    d = [f.derive(a + 1) for a in range(n)]
    functions, (hess_at, rho_at, d_at) = _eval_plan([hess, rho, d])
    # The entries with a nonzero function in them.  Any other entry reads
    # |0| at every probe (or nan, from a 0 * inf), which max(worst, .)
    # passes over.
    entries = [(a, b, hess_at[a][b], rho_at[a][b])
               for a in range(n) for b in range(n)
               if max(hess_at[a][b], rho_at[a][b], min(d_at[a], d_at[b])) >= 0]
    # the complex values Fraction's mixed arithmetic would convert them to
    scale, half_mu = complex(-2 / mu), complex(Fraction(mu, 2))
    worst = 0.0
    for p in points:
        fv = f.eval(p)
        if abs(fv.imag) > 1e-12 or fv.real <= 0:
            raise DomainError(f"{name} must be positive at probe {p}")
        fv = fv.real
        values = [g.eval(p) for g in functions] + [0j]
        grad = [values[i] for i in d_at]
        try:
            fgrad = [scale * grad[a] / fv for a in range(n)]
            for a, b, h, r in entries:
                hf = scale * (values[h] / fv - grad[a] * grad[b] / fv ** 2)
                val = hf + values[r] - half_mu * fgrad[a] * fgrad[b]
                worst = max(worst, abs(val))
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"{name} is out of float range at {p}") from None
    return worst
