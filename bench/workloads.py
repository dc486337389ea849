"""Seeded inputs, operations and output checks for the benchmark workloads.

Inputs are plain data (connection kind, six exact coefficients, eigenvalue)
drawn with stdlib ``random`` from the workload seed.  They are generated here
rather than by ``affineqe.cli.random_connection``, so a change to the package
cannot change a workload.  The package only sees the generated inputs, through
its public entry points.

Every workload is a closed loop driven by one client in one process: the next
operation starts when the previous one has returned.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 20260808

AGREEMENT_MUS = tuple(Fraction(m) for m in
                      ("0", "-1", "-1/2", "1/2", "1", "2/3", "-2/3"))
GEOMETRY_CALLS = (("verify", Fraction(-1)), ("verify", Fraction(1, 2)),
                  ("warp", Fraction(2)), ("warp", Fraction(1)),
                  ("warp", Fraction(2, 3)), ("warp", Fraction(1, 2)))

# A pool holds more ops than a 40 s run times at the baseline (bench/README.md).
# A run that gets to the end of its pool starts it again with the package
# caches cleared, so every pass does the same work as the first.
AGREEMENT_ROUNDS = 3             # criterion-1 mixes of 200 + 200 connections
AGREEMENT_CONNECTIONS = 200      # per kind and round; crossed with the 7 mu
GEOMETRY_POOL = 1200
GEOMETRY_MAX_DRAWS = 2000        # per slot, so a broken filter fails loudly

# Outputs of the first HASHED_OPS operations form `outputs_sha256`; a run that
# times fewer operations completes the prefix untimed.
HASHED_OPS = {"agreement": 600, "geometry": 400}

COEFF_KEYS = ("111", "112", "121", "122", "221", "222")


@dataclass(frozen=True)
class Instance:
    """One generated input: the connection and the eigenvalue of one op."""

    kind: str                       # "A" or "B"
    coeffs: tuple                   # six Fractions in COEFF_KEYS order
    mu: Fraction
    command: str = ""               # CLI subcommand of a geometry op

    def connection_json(self) -> dict:
        return {"kind": self.kind,
                "coeffs": {k: str(c) for k, c in zip(COEFF_KEYS, self.coeffs)}}


def _rng(workload: str, seed: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{slot}")


def _sparse_coeffs(rng: random.Random) -> tuple:
    """Each coefficient is 0 with probability 0.6, else k/d with k in
    {-2..2} and d in {1, 2}."""
    out = []
    for _ in COEFF_KEYS:
        if rng.random() < 0.6:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randint(-2, 2), rng.choice((1, 2))))
    return tuple(out)


def agreement_instances(seed: int) -> list[Instance]:
    """AGREEMENT_ROUNDS criterion-1 mixes in turn, each of 200 Type A and 200
    normalized Type B connections with integer coefficients in [-3, 3], each
    connection crossed with the 7 default values of mu.  A round runs as 7
    sweeps over its connections, Type A and Type B alternating; sweep s takes
    connection c at mu number (c + s) mod 7.  So a round holds every
    (connection, mu) pair once, and every stretch of a few hundred ops holds
    many connections, both kinds and every mu in about equal shares."""
    rng = _rng("agreement", seed, 0)
    nmu = len(AGREEMENT_MUS)
    out = []
    for _ in range(AGREEMENT_ROUNDS):
        conns = []
        for _ in range(AGREEMENT_CONNECTIONS):
            a = tuple(Fraction(rng.randint(-3, 3)) for _ in COEFF_KEYS)
            # normalized Type B: C22^1 in {0, +-1}, and C12^1 = 0 when
            # C22^1 != 0
            c221 = rng.choice((-1, 0, 1))
            c121 = 0 if c221 else rng.randint(-3, 3)
            c111, c112, c122, c222 = (rng.randint(-3, 3) for _ in range(4))
            b = tuple(Fraction(c)
                      for c in (c111, c112, c121, c122, c221, c222))
            conns.extend((("A", a), ("B", b)))
        for sweep in range(nmu):
            out.extend(Instance(kind, coeffs, AGREEMENT_MUS[(c + sweep) % nmu])
                       for c, (kind, coeffs) in enumerate(conns))
    return out


def geometry_slot(i: int) -> tuple[str, str, Fraction]:
    """Kind, subcommand and mu of geometry op i: the six (command, mu) pairs
    in turn, with every fifth op Type B, so each 30 ops cover every
    combination once."""
    command, mu = GEOMETRY_CALLS[i % len(GEOMETRY_CALLS)]
    return ("B" if i % 5 == 4 else "A"), command, mu


def geometry_draw(seed: int, slot: int, draw: int) -> tuple:
    """Coefficients of candidate `draw` for geometry slot `slot`."""
    rng = _rng("geometry", seed, slot)
    for _ in range(draw):
        _sparse_coeffs(rng)
    return _sparse_coeffs(rng)


def select_geometry_draw(seed: int, slot: int, accept) -> int:
    """The index of the first sparse draw of geometry slot `slot` for which
    `accept(kind, coeffs, mu)` holds.  Each slot has its own stream, so one
    slot's answer cannot shift another slot's inputs."""
    kind, _, mu = geometry_slot(slot)
    rng = _rng("geometry", seed, slot)
    for draw in range(GEOMETRY_MAX_DRAWS):
        if accept(kind, _sparse_coeffs(rng), mu):
            return draw
    raise RuntimeError(f"geometry slot {slot}: no accepted draw in "
                       f"{GEOMETRY_MAX_DRAWS}")


def geometry_instances(seed: int, picks: list[int]) -> list[Instance]:
    out = []
    for slot, draw in enumerate(picks):
        kind, command, mu = geometry_slot(slot)
        out.append(Instance(kind, geometry_draw(seed, slot, draw), mu,
                            command))
    return out


def write_connection_files(instances: list[Instance],
                           directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, inst in enumerate(instances):
        path = os.path.join(directory, f"conn{i:05d}.json")
        with open(path, "w") as fh:
            json.dump(inst.connection_json(), fh)
        paths.append(path)
    return paths


def make_connection(surface, inst: Instance):
    build = (surface.AffineConnection2.type_a if inst.kind == "A"
             else surface.AffineConnection2.type_b)
    return build(*inst.coeffs)


# -- operations -------------------------------------------------------------
#
# An op returns its raw outcome; judging it happens after the timed region.


def agreement_op(qesolver, conn, mu):
    """eigenspace then jet_dimension_oracle on one (connection, mu)."""
    desc = qesolver.eigenspace(conn, mu)
    return desc, qesolver.jet_dimension_oracle(conn, mu)


def cli_op(cli, argv):
    """cli.main(argv) with stdout and stderr captured in memory; returns
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_argv(inst: Instance, path: str) -> list[str]:
    return [inst.command, "--input", path, f"--mu={inst.mu}"]


# -- judging and hashing ----------------------------------------------------

@dataclass
class Verdict:
    failed: int = 0
    refused: int = 0
    notes: list = field(default_factory=list)     # the first ten failures

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(f"op {i}: {why}")


def canonical_agreement(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    desc, oracle = outcome
    basis = json.dumps([f.to_json() for f in desc.basis], sort_keys=True)
    return f"{desc.dim}\t{desc.case_label}\t{oracle}\t{basis}"


def canonical_cli(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    code, out, err = outcome
    return f"{code}\t{out}\t{err}"


def outputs_sha256(canonical: list[str]) -> str:
    h = hashlib.sha256()
    for i, line in enumerate(canonical):
        h.update(f"{i}\t{line}\n".encode())
    return h.hexdigest()


def judge_agreement(outcomes) -> Verdict:
    """An op fails if it raised or if eigenspace and the oracle disagree."""
    v = Verdict()
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException):
            v.fail(i, f"raised {type(outcome).__name__}: {outcome}")
        elif outcome[0].dim != outcome[1]:
            v.fail(i, f"eigenspace dim {outcome[0].dim} != oracle "
                      f"{outcome[1]} ({outcome[0].case_label})")
    return v


def judge_geometry(outcomes) -> Verdict:
    """Exit 0 passes, exit 2 is a correct refusal, anything else fails."""
    v = Verdict()
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException):
            v.fail(i, f"raised {type(outcome).__name__}: {outcome}")
        elif outcome[0] == 2:
            v.refused += 1
        elif outcome[0] != 0:
            v.fail(i, f"exit {outcome[0]}: {outcome[2].strip()[:200]}")
    return v
