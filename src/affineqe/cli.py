"""Command-line interface: classify / solve / oracle / extend / verify /
warp / sweep.

Exit codes: 0 success (all checks passed), 1 a verification check failed,
2 malformed input, a domain error or a file that cannot be read or written,
3 unsupported input (data the exact solver does not handle, such as
irrational coefficients where its closed forms need rational ones).  Reports
are deterministic JSON (sorted keys, floats fixed to 17 significant digits);
sweeps emit CSV.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from .extension import (
    DeformationTensor, ExtensionError, build_extension,
    conformal_einstein_residual, curvature4, default_probe_points,
    verify_theorem_1_1,
)
from .funcalg import Context, DomainError, input_fraction
from .qesolver import (
    SolverError, eigenspace, jet_dimension_oracle, realize_real_basis,
)
from .report import fmt_float
from .scalars import ScalarError
from .surface import (
    AffineConnection2, connection_to_json, ricci,
    is_strongly_projectively_flat, load_connection, scalar_str, type_flags,
)
from .warp import WarpSpec, warped_einstein_report


# the most probe points one command builds, so that memory stays bounded
MAX_POINTS = 10_000


class InputError(ValueError):
    pass


def _parse_mu(text: str) -> Fraction:
    try:
        return input_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--mu must be an exact rational like -1 or 1/2, "
                         f"got {text!r}: {exc}")


@contextlib.contextmanager
def _reading(path: str, name: str, content: str):
    """Report a missing, unreadable or malformed file as one InputError."""
    try:
        yield
    except FileNotFoundError:
        raise InputError(f"no such {name} file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {name} file {path}: "
                         f"{exc.strerror or exc}")
    except (ArithmeticError, ValueError) as exc:
        raise InputError(f"malformed {content} file {path}: {exc}")


def _load_conn(path: str) -> AffineConnection2:
    with _reading(path, "input", "connection"):
        return load_connection(path)


def _load_phi(path: str | None, context: Context) -> DeformationTensor:
    if path is None:
        return DeformationTensor.zero(context)
    with _reading(path, "deformation", "deformation"), open(path) as fh:
        return DeformationTensor.from_json(json.load(fh), context)


def _seed(args) -> int:
    env = os.environ.get("QE_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "table":
        text = _as_table(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_table(payload) -> str:
    lines = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{key}.{k}" if key else k)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, f"{key}[{i}]")
        else:
            lines.append(f"{key}\t{obj}")

    walk(payload, "")
    return "\n".join(lines) + "\n"


def _eigenspace_payload(desc, real_basis=None):
    payload = {
        "dim": desc.dim,
        "case": desc.case_label,
        "mu": str(desc.mu),
        "basis": [f.to_json() for f in desc.basis],
        "normalization": (desc.normalization.to_json()
                          if desc.normalization is not None else None),
        "flags": list(desc.flags),
    }
    if real_basis is not None:
        payload["real_basis"] = [f.to_json() for f in real_basis]
    return payload


def _pick_solution(conn, mu, points, index=None):
    """A real basis element of E(mu) that is positive at the probes."""
    desc = eigenspace(conn, mu, input_coords=True)
    if desc.dim == 0:
        raise InputError(f"E({mu}) is trivial for this connection; nothing "
                         "to verify")
    real = realize_real_basis(desc)
    if index is not None:
        if not 0 <= index < len(real):
            raise InputError(f"--f-index {index} out of range 0..{len(real)-1}")
        return real[index], desc
    for f in real:
        try:
            vals = [f.eval(p) for p in points]
        except DomainError:
            continue
        if all(abs(v.imag) < 1e-12 and v.real > 0 for v in vals):
            return f, desc
    raise InputError("no basis element stays positive on the probe points; "
                     "pick one explicitly with --f-index")


# -- subcommands ------------------------------------------------------------

def _cmd_classify(args) -> int:
    conn = _load_conn(args.input)
    ric = ricci(conn)
    flags = type_flags(conn)
    spf = is_strongly_projectively_flat(conn)
    payload = {
        "connection": connection_to_json(conn),
        "ricci": {
            "r": [[scalar_str(v) for v in row] for row in ric.r],
            "symmetric": ric.is_symmetric,
            "flat": ric.is_flat,
            "rank_s": ric.rank_s,
        },
        "flags": {"flat": flags.flat,
                  "is_also_type_a": flags.is_also_type_a,
                  "is_also_type_c": flags.is_also_type_c},
        "strongly_projectively_flat": {
            "value": bool(spf),
            "family": spf.family,
            "parameter": (scalar_str(spf.parameter)
                          if spf.parameter is not None else None),
            "epsilon": spf.epsilon,
        },
    }
    _emit(payload, args)
    return 0


def _cmd_solve(args) -> int:
    conn = _load_conn(args.input)
    mu = _parse_mu(args.mu)
    desc = eigenspace(conn, mu, input_coords=args.input_coords)
    real = realize_real_basis(desc) if args.real else None
    _emit(_eigenspace_payload(desc, real), args)
    return 0


def _cmd_oracle(args) -> int:
    conn = _load_conn(args.input)
    mu = _parse_mu(args.mu)
    _emit({"dim": jet_dimension_oracle(conn, mu), "mu": str(mu)}, args)
    return 0


def _cmd_extend(args) -> int:
    conn = _load_conn(args.input)
    phi = _load_phi(args.phi, conn.context)
    metric = build_extension(conn, phi)
    pack = curvature4(metric)
    points = default_probe_points(_seed(args), args.points)
    point = points[0]
    norms = pack.weyl_half_norms(point)
    payload = {
        "connection": connection_to_json(conn),
        "point": [
            fmt_float(c) for c in point.coordinates],
        "metric": [[fmt_float(v.real) for v in row]
                   for row in metric.eval_matrix(point)],
        "ricci_at_point": [[fmt_float(pack.ricci[a][b].eval(point).real)
                            for b in range(4)] for a in range(4)],
        "scalar_curvature": fmt_float(pack.scalar.eval(point).real),
        "weyl_half_norms": {"self_dual": fmt_float(norms[0]),
                            "anti_self_dual": fmt_float(norms[1])},
    }
    _emit(payload, args)
    return 0


def _cmd_verify(args) -> int:
    conn = _load_conn(args.input)
    mu = _parse_mu(args.mu)
    phi = _load_phi(args.phi, conn.context)
    points = default_probe_points(_seed(args), args.points)
    f, desc = _pick_solution(conn, mu, points, args.f_index)
    metric = build_extension(conn, phi) if mu == -1 else None
    report = verify_theorem_1_1(conn, phi, mu, f, points, metric)
    report.metadata["case"] = desc.case_label
    if metric is not None:
        try:
            residual = conformal_einstein_residual(metric, f, points)
            report.add("conformally_einstein", residual, 1e-8)
        except ExtensionError as exc:  # factor outside the algebra: report
            report.metadata["conformally_einstein_skipped"] = str(exc)
    _emit(report.to_dict(), args)
    return 0 if report.passed else 1


def _cmd_warp(args) -> int:
    conn = _load_conn(args.input)
    mu = _parse_mu(args.mu)
    if mu <= 0 or Fraction(2, 1) / mu != int(Fraction(2, 1) / mu):
        raise InputError(f"warp needs mu = 2/r for a positive integer r, "
                         f"got {mu}")
    r = int(Fraction(2, 1) / mu)
    phi = _load_phi(args.phi, conn.context)
    points = default_probe_points(_seed(args), args.points)
    f, desc = _pick_solution(conn, mu, points, args.f_index)
    spec = WarpSpec(build_extension(conn, phi), f, mu, r)
    report = warped_einstein_report(spec, points)
    report.metadata["case"] = desc.case_label
    by_name = {c.name: c for c in report.checks}
    payload = report.to_dict()
    payload.update({
        "mu_E": report.metadata["mu_E"],
        "base_residual_max": fmt_float(
            by_name["base_condition_numeric"].max_residual),
        "constancy_std": fmt_float(
            by_name["fiber_constant_std"].max_residual),
    })
    _emit(payload, args)
    return 0 if report.passed else 1


DEFAULT_SWEEP_MUS = (Fraction(0), Fraction(-1), Fraction(-1, 2),
                     Fraction(1, 2), Fraction(1), Fraction(2, 3),
                     Fraction(-2, 3))


def random_connection(kind: str, rng: random.Random, *,
                      nonflat: bool = False) -> AffineConnection2:
    """Integer coefficients in [-3, 3]; Type B draws are normalized
    (C22^1 in {0, ±1}, C12^1 = 0 when C22^1 != 0)."""
    while True:
        if kind == "A":
            conn = AffineConnection2.type_a(
                *[rng.randint(-3, 3) for _ in range(6)])
        else:
            c221 = rng.choice([-1, 0, 1])
            c121 = 0 if c221 else rng.randint(-3, 3)
            conn = AffineConnection2.type_b(
                rng.randint(-3, 3), rng.randint(-3, 3), c121,
                rng.randint(-3, 3), c221, rng.randint(-3, 3))
        if nonflat and ricci(conn).is_flat:
            continue
        return conn


SWEEP_FIELDS = ("kind", "c111", "c112", "c121", "c122", "c221", "c222",
                "mu", "closed_form_dim", "oracle_dim", "agree", "case",
                "flags")
TIMING_FIELDS = ("eigenspace_ms", "oracle_ms")


def _cmd_sweep(args) -> int:
    if args.count < 1:
        raise InputError(f"--count must be >= 1, got {args.count}")
    rng = random.Random(_seed(args))
    mus = ([_parse_mu(args.mu)] if args.mu
           else list(DEFAULT_SWEEP_MUS))
    cases: collections.Counter = collections.Counter()
    mismatches = 0
    # opened before any row is computed, so an unwritable path fails fast;
    # each row is written as soon as it is computed, so memory stays bounded
    out = (open(args.output, "w", newline="") if args.output
           else sys.stdout)
    try:
        writer = csv.DictWriter(out, fieldnames=SWEEP_FIELDS + (
            TIMING_FIELDS if args.timings else ()))
        writer.writeheader()
        for _ in range(args.count):
            conn = random_connection(args.kind, rng, nonflat=args.nonflat)
            coeffs = {f"c{k}": str(v.as_fraction())
                      for k, v in conn.coeff_map().items()}
            for mu in mus:
                start = time.perf_counter()
                desc = eigenspace(conn, mu)
                solved = time.perf_counter()
                dim_oracle = jet_dimension_oracle(conn, mu)
                done = time.perf_counter()
                agree = desc.dim == dim_oracle
                mismatches += not agree
                cases[desc.case_label] += 1
                row = {"kind": conn.kind, **coeffs, "mu": str(mu),
                       "closed_form_dim": desc.dim, "oracle_dim": dim_oracle,
                       "agree": agree, "case": desc.case_label,
                       "flags": ";".join(desc.flags)}
                if args.timings:
                    row["eigenspace_ms"] = f"{(solved - start) * 1e3:.3f}"
                    row["oracle_ms"] = f"{(done - solved) * 1e3:.3f}"
                writer.writerow(row)
    finally:
        if args.output:
            out.close()
    if args.timings:
        print(f"sweep: {sum(cases.values())} instances, {mismatches} "
              f"mismatches", file=sys.stderr)
        for label, n in sorted(cases.items()):
            print(f"  {n:7d}  {label}", file=sys.stderr)
    return 0 if mismatches == 0 else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="affineqe",
        description="Quasi-Einstein solution spaces on homogeneous affine "
                    "surfaces, and the induced neutral-signature metrics on "
                    "the cotangent bundle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu=False, metric=False):
        p.add_argument("--input", required=True,
                       help="connection JSON file: {\"kind\": \"A\"|\"B\", "
                            "\"coeffs\": {\"111\": \"p/q\", ...}}")
        if mu:
            p.add_argument("--mu", required=True,
                           help="exact rational eigenvalue, e.g. -1 or 1/2")
        p.add_argument("--output", help="write the report here instead of "
                                        "stdout")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if metric:  # the commands that build T*M and sample it at probes
            p.add_argument("--phi", help="deformation tensor JSON file")
            p.add_argument("--seed", type=int, default=0,
                           help="probe-point seed (env QE_SEED overrides)")
            p.add_argument("--points", type=int, default=10,
                           help=f"number of probe points (1 to {MAX_POINTS})")
        if metric and mu:  # the commands that pick a solution f
            p.add_argument("--f-index", type=int, default=None,
                           help="use this element of the real basis")

    p = sub.add_parser("classify", help="Ricci tensor, type flags, "
                                        "projective flatness")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="closed-form solution space")
    common(p, mu=True)
    p.add_argument("--real", action="store_true",
                   help="also emit a real basis")
    p.add_argument("--input-coords", action="store_true",
                   help="map the basis back to the input coordinates")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="solution-space dimension by "
                                      "prolongation")
    common(p, mu=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("extend", help="cotangent-bundle metric and curvature "
                                      "summary")
    common(p, metric=True)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("verify", help="quasi-Einstein checks for the "
                                      "extension metric")
    common(p, mu=True, metric=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("warp", help="warped-product Einstein report "
                                    "(r = 2/mu)")
    common(p, mu=True, metric=True)
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser(
        "sweep",
        help="CSV of classifier vs oracle dimensions over random connections",
        description="Emits one CSV row per (connection, mu): columns kind, "
                    "c111..c222 (the six coefficients), mu, "
                    "closed_form_dim, oracle_dim, agree, case (the "
                    "classification branch), flags (semicolon separated, "
                    "e.g. eps-pairing-sensitive). Exit 0 iff every row "
                    "agrees. Rows are written as they are computed.")
    p.add_argument("--kind", choices=("A", "B"), required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", help="single rational; default sweeps "
                                "{0,-1,-1/2,1/2,1,2/3,-2/3}")
    p.add_argument("--nonflat", action="store_true",
                   help="reject flat draws")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.add_argument("--timings", action="store_true",
                   help="add the columns eigenspace_ms and oracle_ms, and "
                        "write the instance count, the case-label counts "
                        "and the mismatch count to stderr")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "points", 1) <= MAX_POINTS:
            raise InputError(f"--points must be between 1 and {MAX_POINTS}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ScalarError) as exc:
        print(f"error: unsupported input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
