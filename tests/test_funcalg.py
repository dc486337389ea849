import math
import random
import time
from fractions import Fraction

import pytest

from affineqe.funcalg import (
    AnsatzFunction, Context, DomainError, FunctionAlgebraError, Point, Term,
    constant, exp_linear, monomial, product, rank_basis, substitute_linear,
    sum_products, to_bundle, x1_power,
)
from affineqe.scalars import Scalar


def test_exponential_derivative():
    f = exp_linear(0, 2)  # e^{2 x2}
    assert f.derive(2) == f.scale(2)
    assert f.derive(1).is_zero()


def test_power_log_derivative():
    alpha = Scalar(Fraction(3, 7))
    f = monomial(Context.TYPE_B, pow1=alpha, log=1)  # x1^a log x1
    df = f.derive(1)
    expected = (monomial(Context.TYPE_B, coeff=alpha, pow1=alpha - 1, log=1)
                + monomial(Context.TYPE_B, pow1=alpha - 1, log=0))
    assert df == expected


def test_second_derivative_polynomial():
    f = monomial(Context.TYPE_A, pow1=2, x2=1)  # x1^2 x2
    d1 = f.derive(1)
    assert d1 == monomial(Context.TYPE_A, coeff=2, pow1=1, x2=1)
    assert d1.derive(1) == monomial(Context.TYPE_A, coeff=2, x2=1)
    # finite difference check at (1.3, 0.7)
    h = 1e-6
    p_plus = Point((1.3 + h, 0.7))
    p_minus = Point((1.3 - h, 0.7))
    fd = (f.eval(p_plus) - f.eval(p_minus)) / (2 * h)
    assert abs(fd - d1.eval(Point((1.3, 0.7)))) < 1e-8


def test_eval_examples():
    inv = x1_power(-1)
    assert inv.eval(Point((2.0, 5.0))) == pytest.approx(0.5)
    f = exp_linear(0, 2)
    assert f.eval(Point((0.0, 0.0))) == pytest.approx(1.0)
    g = monomial(Context.TYPE_B, pow1=Fraction(1, 2), log=1)
    assert g.eval(Point((4.0, 0.0))).real == pytest.approx(2 * math.log(4))


def test_domain_error():
    g = monomial(Context.TYPE_B, pow1=Fraction(1, 2))
    with pytest.raises(DomainError):
        g.eval(Point((-1.0, 0.0)))
    with pytest.raises(DomainError):
        monomial(Context.TYPE_B, log=1).eval(Point((0.0, 0.0)))


def test_context_invariants():
    with pytest.raises(FunctionAlgebraError):
        monomial(Context.TYPE_A, pow1=Fraction(1, 2))
    with pytest.raises(FunctionAlgebraError):
        monomial(Context.TYPE_A, log=1)
    with pytest.raises(FunctionAlgebraError):
        monomial(Context.TYPE_B, exp=(1, 0))
    with pytest.raises(FunctionAlgebraError):
        monomial(Context.TYPE_B, fiber=(1, 0))
    # fine on the bundle
    monomial(Context.FOURD, exp=(1, 0), fiber=(1, 2))


def test_merge_and_zero():
    f = exp_linear(1, 0) + exp_linear(1, 0)
    assert len(f.terms) == 1
    assert f.terms[0].coeff == Scalar(2)
    assert (f - f).is_zero()


def test_mixed_partials_commute_random():
    rng = random.Random(7)
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 4)):
            terms.append(Term(
                coeff=Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
                exp1=Scalar(0), exp2=Scalar(0),
                pow1=Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 2))),
                logdeg=rng.randint(0, 2), deg2=rng.randint(0, 2)))
        f = AnsatzFunction(terms, Context.TYPE_B)
        assert f.derive(1).derive(2) == f.derive(2).derive(1)


def test_derivative_matches_finite_difference_random():
    rng = random.Random(11)
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 3)):
            terms.append(Term(
                coeff=Scalar(rng.randint(-3, 3), rng.randint(-2, 2)),
                exp1=Scalar(rng.randint(-2, 2)), exp2=Scalar(rng.randint(-2, 2)),
                pow1=Scalar(rng.randint(0, 3)), deg2=rng.randint(0, 2)))
        f = AnsatzFunction(terms, Context.TYPE_A)
        x = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        axis = rng.choice([1, 2])
        h = 1e-6
        up = list(x); up[axis - 1] += h
        dn = list(x); dn[axis - 1] -= h
        fd = (f.eval(up) - f.eval(dn)) / (2 * h)
        exact = f.derive(axis).eval(x)
        scale = max(1.0, abs(exact))
        assert abs(fd - exact) / scale < 1e-6


def test_rank_basis_examples():
    one = constant(1, Context.TYPE_A)
    x1 = monomial(Context.TYPE_A, pow1=1)
    rank, basis = rank_basis([one, x1, one + x1])
    assert rank == 2 and basis == [one, x1]
    alpha = Scalar(Fraction(5, 3))
    pa = monomial(Context.TYPE_B, pow1=alpha)
    assert rank_basis([pa, pa])[0] == 1
    e1 = exp_linear(1, 0)
    xe = monomial(Context.TYPE_A, exp=(1, 0), pow1=1)
    e2 = exp_linear(2, 0)
    assert rank_basis([e1, xe, e2])[0] == 3


def test_rank_basis_eval_matrix_oracle():
    # independent evaluation-matrix oracle at sample points
    e1 = exp_linear(1, 0)
    xe = monomial(Context.TYPE_A, exp=(1, 0), pow1=1)
    e2 = exp_linear(2, 0)
    pts = [(0.3, 0.0), (0.9, 0.0), (1.7, 0.0)]
    m = [[f.eval(p) for f in (e1, xe, e2)] for p in pts]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert abs(det) > 1e-9


def test_rank_basis_shuffle_invariant():
    rng = random.Random(3)
    fs = [constant(1, Context.TYPE_B),
          x1_power(2),
          monomial(Context.TYPE_B, pow1=2, x2=1),
          x1_power(2) + constant(3, Context.TYPE_B)]
    base_rank, _ = rank_basis(fs)
    for _ in range(10):
        shuffled = fs[:]
        rng.shuffle(shuffled)
        assert rank_basis(shuffled)[0] == base_rank


def _reference_rank_basis(fs):
    """Reference: the first-come independent sublist by elimination on
    {term key: coefficient} rows, any nonzero entry taken as the pivot."""
    pivots, basis = [], []
    for f in fs:
        row = {t.key(): t.coeff for t in f.terms}
        for key, prow in pivots:
            if key in row and not row[key].is_zero():
                factor = row[key]
                for k2, v2 in prow.items():
                    row[k2] = row.get(k2, Scalar(0)) - factor * v2
        row = {k: v for k, v in row.items() if not v.is_zero()}
        if row:
            lead = next(iter(row))
            inv = row[lead].inverse()
            pivots.append((lead, {k: v * inv for k, v in row.items()}))
            basis.append(f)
    return basis


def test_rank_basis_matches_reference():
    rng = random.Random(11)
    sqrt2 = Scalar.sqrt_rational(2)
    coeffs = (Scalar(1), Scalar(-2), Scalar(Fraction(1, 3)), Scalar.i(),
              Scalar(1, 1), sqrt2, sqrt2 + Scalar.i(Fraction(1, 2)))
    # a few shared term keys, so that rows overlap
    keys = [dict(exp=(e, 0), pow1=p, x2=q)
            for e in (0, 1) for p in (0, 1) for q in (0, 1)]
    for _ in range(100):
        fs = []
        for _ in range(rng.randint(1, 7)):
            if len(fs) >= 2 and rng.random() < 0.3:
                f, g = rng.sample(fs, 2)
                fs.append(f.scale(rng.choice(coeffs))
                          + g.scale(rng.choice(coeffs)))
                continue
            f = AnsatzFunction([], Context.TYPE_A)
            for kw in rng.sample(keys, rng.randint(1, 3)):
                f = f + monomial(Context.TYPE_A, coeff=rng.choice(coeffs),
                                 **kw)
            fs.append(f)
        fs = [f for f in fs if not f.is_zero()]
        rank, picked = rank_basis(fs)
        expected = _reference_rank_basis(fs)
        assert rank == len(expected)
        assert [id(f) for f in picked] == [id(f) for f in expected], fs


def test_rank_basis_mixed_contexts():
    with pytest.raises(FunctionAlgebraError):
        rank_basis([constant(1, Context.TYPE_A), constant(1, Context.TYPE_B)])


def test_product_and_substitute():
    f = monomial(Context.TYPE_B, pow1=Fraction(1, 2), log=1)
    g = monomial(Context.TYPE_B, pow1=Fraction(3, 2), x2=2)
    fg = product(f, g)
    assert fg == monomial(Context.TYPE_B, pow1=2, log=1, x2=2)
    # shear x~2 = 2 x1 + x2 fixing x1
    sheared = substitute_linear(monomial(Context.TYPE_B, pow1=-1, x2=1),
                                [[1, 0], [2, 1]])
    expected = (monomial(Context.TYPE_B, coeff=2, pow1=0)
                + monomial(Context.TYPE_B, pow1=-1, x2=1))
    assert sheared == expected
    # rotation on Type A exponentials
    rot = substitute_linear(exp_linear(1, 0), [[0, 1], [1, 0]])
    assert rot == exp_linear(0, 1)


def test_json_roundtrip():
    import json

    f = (monomial(Context.TYPE_B, coeff=Scalar(1, 2), pow1=Fraction(5, 2), log=1)
         + constant(Fraction(-3, 4), Context.TYPE_B))
    data = f.to_json()
    back = AnsatzFunction.from_json(data, Context.TYPE_B)
    assert back == f
    r7 = Scalar.sqrt_rational(7)
    g = monomial(Context.TYPE_B, coeff=r7, pow1=r7 * Fraction(1, 2))
    assert AnsatzFunction.from_json(g.to_json(), Context.TYPE_B) == g
    # cubic-context exponents survive a trip through real JSON text
    from affineqe.scalars import roots_of_monic

    theta = roots_of_monic([Fraction(-1), Fraction(0), Fraction(-2),
                            Fraction(1)])[1]
    h = monomial(Context.TYPE_A, coeff=theta ** 2, exp=(theta, theta - 2))
    reparsed = AnsatzFunction.from_json(json.loads(json.dumps(h.to_json())),
                                        Context.TYPE_A)
    assert reparsed == h


def test_degenerate_axis_errors():
    f = exp_linear(1, 1)
    with pytest.raises(FunctionAlgebraError):
        f.derive(3)
    with pytest.raises(FunctionAlgebraError):
        f.derive(0)


def _random_function(rng, context):
    """A seeded function of `context`, zero about one time in five."""
    if rng.random() < 0.2:
        return AnsatzFunction([], context)
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       rng.randint(-1, 1))
        if context is Context.TYPE_B:
            terms.append(Term(coeff, pow1=Scalar(Fraction(rng.randint(-3, 3),
                                                          rng.randint(1, 2))),
                              logdeg=rng.randint(0, 2), deg2=rng.randint(0, 2)))
            continue
        fiber = ((rng.randint(0, 2), rng.randint(0, 2))
                 if context is Context.FOURD else (0, 0))
        terms.append(Term(coeff, Scalar(rng.randint(-2, 2)),
                          Scalar(rng.randint(-1, 1)), Scalar(rng.randint(0, 2)),
                          0, rng.randint(0, 2), *fiber))
    return AnsatzFunction(terms, context)


@pytest.mark.parametrize("context", list(Context))
def test_sum_products_matches_sum_of_products(context):
    rng = random.Random(f"sum_products:{context.value}")
    for _ in range(60):
        pairs = [(_random_function(rng, context), _random_function(rng, context))
                 for _ in range(rng.randint(0, 5))]
        want = AnsatzFunction([], context)
        for f, g in pairs:
            want = want + product(f, g)
        assert sum_products(pairs, context) == want


def test_zero_function_identities():
    zero = AnsatzFunction([], Context.TYPE_A)
    f = exp_linear(1, -2) + monomial(Context.TYPE_A, coeff=3, pow1=2)
    assert f + zero is f
    assert zero + f is f
    assert -zero is zero
    assert f - zero is f
    with pytest.raises(FunctionAlgebraError):
        _ = zero + x1_power(Fraction(1, 2))   # Type B
    with pytest.raises(FunctionAlgebraError):
        _ = x1_power(Fraction(1, 2)) + zero


_SQRT2 = Scalar.sqrt_rational(2)
_CUBIC = Scalar.algebraic([-2, 0, 0, 1], 0)   # the real cube root of 2
_FIELDS = {
    "rational": lambda rng: Scalar(Fraction(rng.randint(-2, 2),
                                            rng.randint(1, 2))),
    "gaussian": lambda rng: Scalar(rng.randint(-1, 1), rng.randint(-1, 1)),
    "sqrt2": lambda rng: rng.randint(-1, 1) + _SQRT2 * rng.randint(-1, 1),
    "cubic": lambda rng: (rng.randint(-1, 1) + _CUBIC * rng.randint(-1, 1)
                          + _CUBIC * _CUBIC * rng.randint(0, 1)),
}


def _field_function(rng, context, draw):
    """Up to five seeded terms over one field; their keys often collide
    and their coefficients are sometimes zero."""
    terms = []
    for _ in range(rng.randint(0, 5)):
        if context is Context.TYPE_B:
            exp, pow1, log = (Scalar(0), Scalar(0)), draw(rng), rng.randint(0, 1)
        else:
            exp, pow1, log = (draw(rng), draw(rng)), Scalar(rng.randint(0, 1)), 0
        fiber = ((rng.randint(0, 1), rng.randint(0, 1))
                 if context is Context.FOURD else (0, 0))
        terms.append(Term(draw(rng), *exp, pow1, log, rng.randint(0, 1),
                          *fiber))
    return AnsatzFunction(terms, context)


@pytest.mark.parametrize("field", list(_FIELDS))
def test_fast_paths_match_a_full_rebuild(field):
    """Negation, scaling, to_bundle, derive, product and sum_products skip
    the merge or the sort where they can; each result must equal a full
    merge-and-sort of its own terms, and a zero result has no terms."""
    rng = random.Random(f"rebuild:{field}")
    draw = _FIELDS[field]
    seen_zero = seen_long = 0
    for _ in range(40):
        context = rng.choice(list(Context))
        f = _field_function(rng, context, draw)
        g = _field_function(rng, context, draw)
        results = [f.scale(draw(rng)), f.scale(0), -f, product(f, g),
                   sum_products([(f, g), (g, f), (f, -f)], context)]
        results += [f.derive(axis)
                    for axis in range(1, context.dimension + 1)]
        if context is not Context.FOURD:
            results.append(to_bundle(f))
        for h in results:
            rebuilt = AnsatzFunction(list(h.terms), h.context)
            assert type(h.terms) is tuple
            assert h.terms == rebuilt.terms and h == rebuilt
            seen_zero += h.terms == ()
            seen_long += len(h.terms) > 2
    assert seen_zero and seen_long


def test_zero_function_eval():
    for context in Context:
        zero = AnsatzFunction([], context)
        assert zero.terms == ()
        assert AnsatzFunction([Term(Scalar(0), pow1=Scalar(1))],
                              context).terms == ()
        value = zero.eval((0.0, 0.0, 0.0, 0.0))
        assert type(value) is complex and value == 0j
        with pytest.raises(DomainError):
            zero.eval((1.0,))
    with pytest.raises(DomainError):
        AnsatzFunction([], Context.FOURD).eval(Point((1.0, 2.0)))


def test_term_key_is_the_seven_exponent_fields():
    e1, e2, p = Scalar(1), Scalar(0, 2), Scalar(Fraction(1, 3))
    assert Term(Scalar(5), e1, e2, p, 1, 2, 3, 4).key() == (e1, e2, p, 1, 2,
                                                            3, 4)
    assert Term(Scalar(5)).key() == (Scalar(0), Scalar(0), Scalar(0),
                                     0, 0, 0, 0)
    assert Term(Scalar(5), e1).with_coeff(Scalar(7)) == Term(Scalar(7), e1)


def test_pickle_and_copy_round_trip():
    import copy
    import pickle
    theta = Scalar.algebraic([-2, 0, 0, 1], 0)
    type_b = (monomial(Context.TYPE_B, coeff=theta, pow1=Fraction(1, 3), log=1)
              + x1_power(Fraction(-2, 5)).scale(Scalar(1, 2)))
    fourd = monomial(Context.FOURD, coeff=Fraction(3, 4), exp=(1, -2), x2=1,
                     fiber=(1, 2))
    point = Point((1.3, 0.7))
    for f in (exp_linear(1, 2), type_b, fourd):
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f),
                  copy.copy(f)):
            assert g == f and hash(g) == hash(f)
            assert g.context is f.context
            assert g.derive(1) == f.derive(1)
            if f.context is not Context.FOURD:
                assert g.eval(point) == f.eval(point)


def test_scalar_from_json_digit_cap():
    from affineqe.funcalg import MAX_INPUT_DIGITS, scalar_from_json

    widest = 10 ** MAX_INPUT_DIGITS - 1
    assert scalar_from_json(str(widest)) == Scalar(widest)
    assert scalar_from_json(f"-1/{widest}") == Scalar(Fraction(-1, widest))
    assert scalar_from_json("25e-2") == Scalar(Fraction(1, 4))
    for text in (str(widest + 1), f"1/{widest + 1}", [0, widest + 1],
                 {"c": [["0", "0"], ["1e-100", "0"]], "min": ["-2", "0", "1"],
                  "root": 1}):
        with pytest.raises(ValueError, match="digits"):
            scalar_from_json(text)
    # the exponent is refused before Fraction expands 10**9999999
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="digits"):
        scalar_from_json("1e-9999999")
    assert time.perf_counter() - t0 < 1.0


def test_field_scalars_read_from_the_whole_minimal_polynomial():
    from affineqe.funcalg import scalar_from_json, scalar_to_json
    from affineqe.scalars import AlgebraicContext

    theta = {"c": [["0", "0"], ["1", "0"]]}
    # canonical x^2 - m, root 1, reads +sqrt(m) as before
    for m in ("2", "3", "-1", "1/2", "12", "4"):
        got = scalar_from_json({**theta, "min": [str(-Fraction(m)), "0", "1"],
                                "root": 1})
        assert got == Scalar.sqrt_rational(Fraction(m))
    # an integer string is a root index too
    assert scalar_from_json({**theta, "min": ["-2", "0", "1"], "root": "1"}) \
        == Scalar.sqrt_rational(2)
    # any monic quadratic: theta is the root number `root` of
    # AlgebraicContext.roots(), ascending real, positive imaginary second
    for c, b in ((-2, 5), (1, 1), (-1, -1), (3, 2), (-6, 1), (1, 0)):
        roots = AlgebraicContext((Fraction(c), Fraction(b), Fraction(1)),
                                 0).roots()
        for root in (0, 1):
            got = scalar_from_json({**theta, "min": [str(c), str(b), "1"],
                                    "root": root})
            assert abs(got.to_complex() - roots[root]) < 1e-12, (c, b, root)
            assert got * got + got * b + c == Scalar(0)
            assert scalar_from_json(scalar_to_json(got)) == got
    got = scalar_from_json({**theta, "min": ["-2", "5", "1"], "root": 0})
    assert got == (Scalar(-5) - Scalar.sqrt_rational(33)) * Fraction(1, 2)
    # a cubic with no rational root, each of its three roots
    for root in (0, 1, 2):
        data = {"c": [["1", "0"], ["1", "0"], ["0", "1/2"]],
                "min": ["-2", "0", "0", "1"], "root": root}
        got = scalar_from_json(data)
        t = Scalar.algebraic((-2, 0, 0, 1), root)
        assert got == 1 + t + Scalar.i(Fraction(1, 2)) * t * t
        assert scalar_to_json(got) == data
        assert scalar_from_json(scalar_to_json(got)) == got


@pytest.mark.parametrize("minpoly, root", [
    (["-2", "0", "1"], 2),
    (["-2", "0", "1"], -1),
    (["-2", "0", "0", "1"], 3),
    (["-2", "0", "2"], 1),
    (["-2", "0", "0", "3"], 0),
    (["-2", "1"], 0),
    (["-2", "0", "0", "0", "1"], 0),
    (["-1", "0", "0", "1"], 0),
    (["-6", "11", "-6", "1"], 1),
], ids=["quadratic_root_2", "negative_root", "cubic_root_3",
        "quadratic_not_monic", "cubic_not_monic", "linear", "quartic",
        "cubic_x3_minus_1", "cubic_three_rational_roots"])
def test_malformed_field_scalars_refused(minpoly, root):
    from affineqe.funcalg import scalar_from_json

    with pytest.raises(ValueError):
        scalar_from_json({"c": [["0", "0"], ["1", "0"]], "min": minpoly,
                          "root": root})
