import collections
import copy
import csv
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from affineqe import cli, extension, funcalg, surface
from affineqe.cli import main
from affineqe.funcalg import AnsatzFunction, Context
from affineqe.surface import (
    AffineConnection2, connection_from_json, save_connection,
)

HYPERBOLIC = AffineConnection2.type_b(c111=-1, c122=-1, c221=1)
T110_1A = AffineConnection2.type_a(c111=1, c122=2)
A2 = AffineConnection2.type_a(c121=2, c222=1)
NONSYM = AffineConnection2.type_b(c121=1, c222=1, c122=1)


@pytest.fixture
def hyperbolic_path(tmp_path):
    p = tmp_path / "hyperbolic.json"
    save_connection(HYPERBOLIC, p)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_hyperbolic(capsys, hyperbolic_path):
    code, out, _ = run_cli(capsys, "solve", "--input", hyperbolic_path,
                           "--mu", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["case"] == "Thm1.13(2) v=-1"
    assert len(payload["basis"]) == 3
    # emitted eigenspace JSON re-parses to equal values
    from affineqe.qesolver import eigenspace

    desc = eigenspace(HYPERBOLIC, Fraction(-1))
    back = [AnsatzFunction.from_json(b, Context.TYPE_B)
            for b in payload["basis"]]
    assert back == list(desc.basis)


def test_solve_thm110_1a(capsys, tmp_path):
    p = tmp_path / "thm110_1a.json"
    save_connection(T110_1A, p)
    code, out, _ = run_cli(capsys, "solve", "--input", str(p), "--mu", "0",
                           "--input-coords")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["case"] == "Thm1.10(1a)"


def test_solve_real_flag(capsys, tmp_path):
    p = tmp_path / "a2.json"
    save_connection(A2, p)
    code, out, _ = run_cli(capsys, "solve", "--input", str(p), "--mu", "1",
                           "--real")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert len(payload["real_basis"]) == 2


def test_oracle(capsys, hyperbolic_path):
    code, out, _ = run_cli(capsys, "oracle", "--input", hyperbolic_path,
                           "--mu", "1/2")
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_classify(capsys, hyperbolic_path):
    code, out, _ = run_cli(capsys, "classify", "--input", hyperbolic_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"]["is_also_type_c"] is True
    assert payload["strongly_projectively_flat"]["value"] is True
    assert payload["ricci"]["r"] == [["-1", "0"], ["0", "-1"]]


def test_verify_and_conformal(capsys, hyperbolic_path):
    code, out, _ = run_cli(capsys, "verify", "--input", hyperbolic_path,
                           "--mu", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "conformally_einstein" in names
    assert payload["metadata"]["mu_cotangent"] == "-1/2"


def test_verify_exit_code_on_failure(capsys, tmp_path):
    # rank-2 strongly projectively flat: E(1/2) is trivial -> input error
    p = tmp_path / "h.json"
    save_connection(HYPERBOLIC, p)
    code, _, err = run_cli(capsys, "verify", "--input", str(p),
                           "--mu", "1/2")
    assert code == 2
    assert "trivial" in err


def test_warp_a2(capsys, tmp_path):
    p = tmp_path / "a2.json"
    save_connection(A2, p)
    code, out, _ = run_cli(capsys, "warp", "--input", str(p), "--mu", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["mu_E"] == 0.0
    assert payload["base_residual_max"] <= 1e-10
    assert payload["constancy_std"] <= 1e-6


def test_warp_and_verify_build_the_full_curvature_for_weyl_only(
        capsys, tmp_path, monkeypatch):
    """`warp` reads the Ricci tensor, contracted from the Christoffel
    symbols; only `verify`, whose Weyl check needs it, builds the 4-d
    curvature `CurvaturePack4.riemann`, once."""
    calls = []
    original = extension.CurvaturePack4.riemann.func

    def spy(pack):
        calls.append(pack)
        return original(pack)

    prop = functools.cached_property(spy)
    prop.__set_name__(extension.CurvaturePack4, "riemann")
    monkeypatch.setattr(extension.CurvaturePack4, "riemann", prop)
    p = tmp_path / "a2.json"
    save_connection(A2, p)
    assert run_cli(capsys, "warp", "--input", str(p), "--mu", "1")[0] == 0
    assert len(calls) == 0
    assert run_cli(capsys, "verify", "--input", str(p), "--mu", "1")[0] == 0
    assert len(calls) == 1


def test_verify_mu_minus_one_takes_one_hessian(capsys, tmp_path,
                                               monkeypatch):
    """`verify --mu -1` differentiates w = pi*f on the metric's pack once:
    the quasi-Einstein check and the conformal-change law share it."""
    calls = []
    original = extension.hessian

    def spy(gamma, f):
        calls.append(len(gamma))
        return original(gamma, f)

    monkeypatch.setattr(extension, "hessian", spy)
    p = tmp_path / "a2.json"
    save_connection(A2, p)
    code, out, _ = run_cli(capsys, "verify", "--input", str(p), "--mu", "-1")
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert "conformally_einstein" in names
    assert calls.count(4) == 1


def test_warp_rejects_bad_mu(capsys, tmp_path):
    p = tmp_path / "a2.json"
    save_connection(A2, p)
    code, _, err = run_cli(capsys, "warp", "--input", str(p), "--mu", "3/5")
    assert code == 2
    assert "2/r" in err


def test_extend(capsys, tmp_path):
    p = tmp_path / "nonsym.json"
    save_connection(NONSYM, p)
    code, out, _ = run_cli(capsys, "extend", "--input", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["weyl_half_norms"]["anti_self_dual"] == 0.0
    assert payload["weyl_half_norms"]["self_dual"] > 1e-3


def test_extend_weyl_norm_out_of_float_range_exits_2(capsys, tmp_path,
                                                     monkeypatch):
    """A Weyl half whose norm leaves float range exits 2 with one line; at
    Phi_11 = e^{150 x1} the norm, about 2.8e120, is still printed."""
    monkeypatch.delenv("QE_SEED", raising=False)
    p = tmp_path / "a.json"
    save_connection(AffineConnection2.type_a(c111=1, c121=2, c122=-1,
                                             c222=1), p)
    phi = tmp_path / "phi.json"
    codes = []
    for rate in ("150", "250"):
        phi.write_text(json.dumps(
            {"phi11": [{"coeff": "1", "exp": [rate, "0"]}]}))
        codes.append(run_cli(capsys, "extend", "--input", str(p),
                             "--phi", str(phi)))
    (code, out, _), (big_code, _, err) = codes
    assert code == 0
    assert json.loads(out)["weyl_half_norms"] == {
        "anti_self_dual": 0.0, "self_dual": 2.8468517939795285e+120}
    assert big_code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Weyl half norm out of float range" in err


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--kind", "B", "--count", "10",
                         "--seed", "7", "--mu", "1/2",
                         "--output", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0].startswith("kind,")
    assert len(rows) == 11
    assert all(",True," in r for r in rows[1:])


def test_sweep_default_mu_grid(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--kind", "A", "--count", "4",
                         "--seed", "3", "--nonflat", "--output",
                         str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert len(rows) == 1 + 4 * 7  # header + count * default mu grid
    assert all(",True," in r for r in rows[1:])


# sha256 of the default sweep CSVs as the sweep wrote them when it kept every
# row until the end: the bytes must not depend on how rows are kept
SWEEP_CSV_SHA256 = {
    ("A", "50", "0"):
        "c083afc686e825846523d8bade2fd124e2065cdbf6e4e765e9cae39fbb053058",
    ("B", "50", "7"):
        "f8294d4b37a966faa84b457a925f30f70831491e0d8fe63c35979f86819868d7",
}


@pytest.mark.parametrize("kind,count,seed", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_pinned(capsys, tmp_path, kind, count, seed):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--kind", kind, "--count",
                             count, "--seed", seed, "--output", str(out_path))
    assert (code, out, err) == (0, "", "")
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == SWEEP_CSV_SHA256[kind, count, seed]


def test_sweep_timings(capsys, tmp_path):
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    argv = ("sweep", "--kind", "B", "--count", "6", "--seed", "7")
    assert run_cli(capsys, *argv, "--output", str(plain)) == (0, "", "")
    code, out, err = run_cli(capsys, *argv, "--timings", "--output",
                             str(timed))
    assert (code, out) == (0, "")
    with timed.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(cli.SWEEP_FIELDS) + ["eigenspace_ms",
                                                      "oracle_ms"]
    assert len(rows) == 6 * 7
    for row in rows:
        assert float(row.pop("eigenspace_ms")) >= 0
        assert float(row.pop("oracle_ms")) >= 0
    # the other columns are the default CSV's, row for row
    with plain.open(newline="") as fh:
        assert rows == list(csv.DictReader(fh))
    # one block on stderr: the count, the mismatches, one line per label
    head, *lines = err.splitlines()
    assert head == "sweep: 42 instances, 0 mismatches"
    counts = collections.Counter(row["case"] for row in rows)
    assert lines == [f"  {n:7d}  {label}"
                     for label, n in sorted(counts.items())]


def test_sweep_memory_does_not_grow_with_count(tmp_path, monkeypatch):
    # the solver is stubbed with one real answer, so that only what the
    # sweep itself keeps per row is traced
    desc = cli.eigenspace(HYPERBOLIC, -1)
    monkeypatch.setattr(cli, "eigenspace", lambda conn, mu: desc)
    monkeypatch.setattr(cli, "jet_dimension_oracle", lambda conn, mu: 3)

    def peak(count):
        tracemalloc.start()
        try:
            assert main(["sweep", "--kind", "A", "--count", str(count),
                         "--timings", "--output",
                         str(tmp_path / "x.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first run fills the interpreter's free lists, which tracemalloc
    # counts as allocated
    peak(1000)
    small, large = peak(100), peak(1000)
    # 6300 more rows: keeping them would add about 8 MB
    assert large - small < 256 * 1024, (small, large)


def test_determinism(tmp_path, hyperbolic_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["verify", "--input", hyperbolic_path, "--mu", "-1",
                     "--seed", "3", "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 over (connection, call, exit code, stdout, stderr) of the 4-d
# commands on a seeded draw of 4 Type A and 4 Type B connections (each
# coefficient 0 with probability 1/2, else k/d with k in [-2, 2] and d in
# {1, 2}): a refactor that changes any byte of these reports fails here.
# Pinned with the roots of each minimal polynomial correctly rounded.
GEOMETRY_CALLS = (("extend",), ("verify", "--mu=-1"), ("verify", "--mu=1/2"),
                  ("warp", "--mu=2"), ("warp", "--mu=1"))
GEOMETRY_OUTPUTS_SHA256 = (
    "0c359af3d84c57a5381e581861dce396e6ef6e8612231e080a23f72682ace9a1")


def test_geometry_outputs_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("QE_SEED", raising=False)
    rng = random.Random(4)
    path = str(tmp_path / "conn.json")
    digest = hashlib.sha256()
    codes = []
    for kind in "AAAABBBB":
        data = {"kind": kind, "coeffs": {
            key: (str(Fraction(rng.randint(-2, 2), rng.choice((1, 2))))
                  if rng.random() < 0.5 else "0")
            for key in ("111", "112", "121", "122", "221", "222")}}
        with open(path, "w") as fh:
            json.dump(data, fh)
        for call in GEOMETRY_CALLS:
            code, out, err = run_cli(capsys, call[0], "--input", path,
                                     *call[1:])
            codes.append(code)
            digest.update(json.dumps([data, call, code, out, err]).encode())
    assert codes.count(0) >= 25   # reports, not only refusals, are pinned
    assert digest.hexdigest() == GEOMETRY_OUTPUTS_SHA256


def test_env_seed_override(tmp_path, hyperbolic_path, monkeypatch, capsys):
    monkeypatch.setenv("QE_SEED", "11")
    out1 = tmp_path / "r1.json"
    assert main(["verify", "--input", hyperbolic_path, "--mu", "-1",
                 "--seed", "3", "--output", str(out1)]) == 0
    monkeypatch.delenv("QE_SEED")
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--input", hyperbolic_path, "--mu", "-1",
                 "--seed", "11", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("text", [
    '{"kind": "Q"}',
    '{"kind": "A", "coeffs": {"111": "1/0"}}',
    '{"kind": "A", "coeffs": [1, 2]}',
    '[1, 2]',
    '{"kind": "A", "coeffs": {"111": 0.5}}',
    '{"kind": "A", "coeffs": {"111": {"c": [["0", "0"], ["1", "0"], '
    '["0", "0"]], "min": ["-2", "0", "0", "1"], "root": 7}}}',
    '{"kind": "B", "coeffs": {"111": {"c": [["0", "0"], ["1", "0"]], '
    '"min": ["-2", "0", "1"], "root": 0.9}}}',
    '{"kind": "B", "coeffs": {"111": {"c": [["0", "0"], ["1", "0"]], '
    '"min": ["-2", "0", "1"], "root": true}}}',
    '{"kind": "A", "coeffs": {"111": true}}',
    '{"kind": "A", "coeffs": {"211": "1", "122": "1"}}',
    '{"kind": "A", "coeffs": {"111": "1"}, "name": "a"}',
    '{"kind": "A", "coeffs": {"111": ["1", "2", "7"]}}',
    '{"kind": "A", "coeffs": {"111": [0.1, "0"]}}',
    '{"kind": "B", "coeffs": {"111": {"c": [["0", "0"], ["1", "0"]], '
    '"min": ["-2", "0", "1"], "root": 1, "note": "sqrt 2"}}}',
], ids=["bad_kind", "zero_denominator", "coeffs_list", "top_level_list",
        "float_coeff", "cubic_root_index", "float_root", "bool_root",
        "bool_coeff", "coeff_key_211", "extra_top_level_key",
        "gaussian_three_entries", "gaussian_float_entry",
        "field_scalar_extra_key"])
def test_bad_input_exit_2(capsys, tmp_path, text):
    p = tmp_path / "broken.json"
    p.write_text(text)
    code, _, err = run_cli(capsys, "classify", "--input", str(p))
    assert code == 2
    assert err.startswith("error: malformed connection file")
    assert len(err.splitlines()) == 1
    code, _, err = run_cli(capsys, "solve", "--input", str(p), "--mu", "x")
    assert code == 2


@pytest.mark.parametrize("minpoly", [["-1", "0", "0", "1"],
                                     ["-6", "11", "-6", "1"],
                                     ["-2", "0", "2"]],
                         ids=["x3_minus_1", "three_rational_roots",
                              "not_monic"])
@pytest.mark.parametrize("command", [("classify",), ("solve", "--mu", "1"),
                                     ("oracle", "--mu", "1"), ("extend",)],
                         ids=lambda c: c[0])
def test_bad_field_scalar_exit_2(capsys, tmp_path, minpoly, command):
    # Type B 111 = 1 + theta, 122 = 2, 221 = 1
    theta = [["1", "0"], ["1", "0"]] + [["0", "0"]] * (len(minpoly) - 3)
    p = tmp_path / "field.json"
    p.write_text(json.dumps({"kind": "B", "coeffs": {
        "111": {"c": theta, "min": minpoly, "root": 0},
        "122": "2", "221": "1"}}))
    code, out, err = run_cli(capsys, *command, "--input", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed connection file")
    assert len(err.splitlines()) == 1


def test_quadratic_field_scalar_echoed_in_canonical_form(capsys, tmp_path):
    # theta = (-5 - sqrt 33)/2, root 0 of x^2 + 5x - 2
    p = tmp_path / "quadratic.json"
    p.write_text('{"kind": "B", "coeffs": {"111": {"c": [["0", "0"], '
                 '["1", "0"]], "min": ["-2", "5", "1"], "root": 0}}}')
    code, out, _ = run_cli(capsys, "classify", "--input", str(p))
    assert code == 0
    assert json.loads(out)["connection"]["coeffs"]["111"] == {
        "c": [["-5/2", "0"], ["-1/2", "0"]], "min": ["-33", "0", "1"],
        "root": 1}


@pytest.mark.parametrize("text", [
    '{"phi11": [{"coeff": "1/0", "exp": ["0", "0"]}], "phi12": [], '
    '"phi22": []}',
    '[1, 2]',
    '{"phi11": 5}',
    '{"phi11": [{"coeff": "1", "exp": ["0"]}], "phi12": [], "phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": ["0", "0"], "y": [1]}], "phi12": [], '
    '"phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": "00"}], "phi12": [], "phi22": []}',
    '{"phi11": [{"coeff": true, "exp": ["0", "0"]}], "phi12": [], '
    '"phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": [false, "0"]}], "phi12": [], '
    '"phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": ["0", "0"], "x2": true}], '
    '"phi12": [], "phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": ["0", "0"], "x2": 1.9}], '
    '"phi12": [], "phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": ["0", "0"], "log": 0.5}], '
    '"phi12": [], "phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": ["0", "0"], "y": [false, 0]}], '
    '"phi12": [], "phi22": []}',
    '{"phi11": [], "phi21": [{"coeff": "1", "exp": ["0", "0"]}], '
    '"phi22": []}',
    '{"phi11": [{"coeff": "1", "exp": ["0", "0"], "x1": 3}], "phi12": [], '
    '"phi22": []}',
    '{"phi11": [{"coeff": {"c": [["0", "0"], ["1", "0"]], "min": ["-2", '
    '"0", "1"], "root": 1, "note": "sqrt 2"}, "exp": ["0", "0"]}], '
    '"phi12": [], "phi22": []}',
], ids=["zero_denominator", "top_level_list", "entry_not_list", "short_exp",
        "short_y", "exp_string", "bool_coeff", "exp_bool", "x2_bool",
        "x2_float", "log_float", "y_bool", "phi21", "term_key_x1",
        "field_scalar_extra_key"])
def test_bad_phi_exit_2(capsys, tmp_path, text):
    conn_path = tmp_path / "a2.json"
    save_connection(A2, conn_path)
    p = tmp_path / "phi.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--input", str(conn_path),
                             "--mu", "1", "--phi", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed deformation file")
    assert len(err.splitlines()) == 1


# Seeds of the mutation test below: valid files with every shape the format
# has (a number as a string and as an int, a Gaussian pair, a field scalar,
# terms with and without their optional keys).
MUTATION_SEEDS = (
    {"kind": "B", "coeffs": {
        "111": "-1", "112": 0, "122": ["-1", "0"], "221": "1",
        "222": {"c": [["0", "0"], ["1", "0"]], "min": ["-2", "0", "1"],
                "root": 1}}},
    {"phi11": [{"coeff": ["1", "0"], "exp": ["0", "0"], "pow1": "2",
                "log": 1, "x2": 0, "y": [0, 0]}],
     "phi12": [],
     "phi22": [{"coeff": "-3", "exp": [["0", "0"], "0"], "x2": "2"}]},
)
# the lists whose length the format leaves free, by their key
VARIABLE_LENGTH = {"c", "min", "phi11", "phi12", "phi22"}
LEAVES = (0.5, 0.1, True, False, None, "x", "", "1/0", "2", "-1",
          10 ** 100 + 7, str(10 ** 100 + 7))


def _nodes(node, path=()):
    """(path, value) of every node of a JSON document."""
    yield path, node
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _nodes(node[key], path + (key,))


def _mutant(seed, rng):
    """A copy of `seed` with one mutation, and whether the format refuses it
    whatever the values are: an added or re-keyed object member, or a list
    made longer than its fixed length."""
    doc = copy.deepcopy(seed)
    nodes = list(_nodes(doc))
    op = rng.choice(("leaf", "leaf", "leaf", "shorten", "lengthen", "add",
                     "rekey"))
    if op == "leaf":
        path, value = rng.choice([(p, v) for p, v in nodes
                                  if not isinstance(v, (dict, list))])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(LEAVES + ([value], [[value]]))
        return doc, False
    if op in ("shorten", "lengthen"):
        path, items = rng.choice([(p, v) for p, v in nodes
                                  if isinstance(v, list)])
        if op == "shorten":
            del items[-1:]
            return doc, False
        items.append(copy.deepcopy(items[-1]) if items else "0")
        return doc, path[-1] not in VARIABLE_LENGTH
    _, obj = rng.choice([(p, v) for p, v in nodes if isinstance(v, dict)])
    if op == "add":
        obj[f"k{rng.randrange(10)}"] = "1"
    else:
        key = rng.choice(list(obj))
        obj[key + "z"] = obj.pop(key)
    return doc, True


def test_mutated_input_files_exit_cleanly(capsys, tmp_path):
    """2000 seeded mutants of a valid connection file (read by classify) and
    a valid --phi file (read by extend), in this process: each exits 0, 1, 2
    or 3 with no exception, exits 2 and 3 print one stderr line, and every
    unknown key or over-long fixed-length list exits 2."""
    rng = random.Random(20261019)
    base = tmp_path / "hyperbolic.json"
    save_connection(HYPERBOLIC, base)
    path = tmp_path / "mutant.json"
    calls = (("classify", "--input", str(path)),
             ("extend", "--input", str(base), "--phi", str(path)))
    for seed, call in zip(MUTATION_SEEDS, calls):
        path.write_text(json.dumps(seed))
        assert run_cli(capsys, *call)[0] == 0
    codes = collections.Counter()
    t0 = time.perf_counter()
    for i in range(2000):
        doc, refused = _mutant(MUTATION_SEEDS[i % 2], rng)
        path.write_text(json.dumps(doc))
        try:
            code, out, err = run_cli(capsys, *calls[i % 2])
        except Exception as exc:
            pytest.fail(f"{doc} raised {exc!r}")
        assert code in (0, 1, 2, 3), doc
        assert code < 2 or (err.startswith("error: ")
                            and len(err.splitlines()) == 1), (doc, err)
        assert code == 2 or not refused, doc
        if code == 0 and i % 2 == 0:  # classify echoes what it read
            echoed = json.loads(out)["connection"]
            assert connection_from_json(echoed) == connection_from_json(doc)
        codes[code] += 1
    assert time.perf_counter() - t0 < 10.0
    assert codes[0] >= 100 and codes[2] >= 1000, codes


@pytest.mark.parametrize("argv", [
    ("classify", "--input", "{dir}"),
    ("verify", "--input", "{conn}", "--mu", "1", "--phi", "{dir}"),
    ("classify", "--input", "{conn}", "--output", "{dir}/missing/x.json"),
    ("sweep", "--kind", "A", "--count", "1", "--output",
     "{dir}/missing/x.csv"),
], ids=["input_is_directory", "phi_is_directory", "output_dir_missing",
        "sweep_output_dir_missing"])
def test_filesystem_errors_exit_2(capsys, tmp_path, argv):
    conn_path = tmp_path / "a2.json"
    save_connection(A2, conn_path)
    argv = [a.format(dir=tmp_path, conn=conn_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


# Each refusal that real input reaches, with the exit code the module
# docstring promises: 3 for data the exact solver does not handle, 2 for a
# malformed file or option.  (file content, command, code, message)
_SQRT2 = {"c": [["0", "0"], ["1", "0"]], "min": ["-2", "0", "1"], "root": 1}
REFUSALS = {
    "conic": (
        {"kind": "A", "coeffs": {"111": "-1", "112": "-1", "122": _SQRT2,
                                 "221": "2", "222": "-1"}},
        ("solve", "--mu", "-1"), 3, "conic solver needs rational data"),
    "exponent_quadratic": (
        {"kind": "A", "coeffs": {"111": "-2", "121": "-2", "221": ["1", "-1"],
                                 "222": "-2"}},
        ("solve", "--mu", "-1"), 3, "exponent quadratic needs rational data"),
    "c221_rationality": (
        {"kind": "B", "coeffs": {"111": "-1", "112": "-1", "121": "-2",
                                 "122": "2", "221": _SQRT2}},
        ("classify",), 3, "C22^1 must be rational for normalization"),
    "flat_solver": (
        {"kind": "A", "coeffs": {"111": _SQRT2}},
        ("solve", "--mu", "1"), 3, "flat solver needs rational coefficients"),
    "type_a_form": (
        {"kind": "B", "coeffs": {"111": "1", "112": ["1", "-1"],
                                 "122": ["0", "-1"]}},
        ("solve", "--mu", "-1"), 3,
        "Type-A-form solver needs rational coefficients"),
    "malformed_file": (
        '{"kind": "A", "coeffs": {"121": "2"',
        ("solve", "--mu", "1"), 2, "malformed connection file"),
    "unknown_key": (
        {"kind": "A", "coeffs": {"121": "2"}, "extra": 1},
        ("solve", "--mu", "1"), 2, "a connection must be an object with the "
                                   "keys kind, coeffs? (? optional)"),
    "unknown_coefficient": (
        {"kind": "A", "coeffs": {"121": "2", "333": "1"}},
        ("classify",), 2, "coeffs must be an object with the keys 111?"),
    "points_out_of_range": (
        {"kind": "A", "coeffs": {"121": "2", "222": "1"}},
        ("verify", "--mu", "-1", "--points", "0"), 2,
        "--points must be between 1 and 10000"),
    "warp_mu_not_2_over_r": (
        {"kind": "A", "coeffs": {"121": "2", "222": "1"}},
        ("warp", "--mu", "3"), 2,
        "warp needs mu = 2/r for a positive integer r, got 3"),
}


@pytest.mark.parametrize("content, argv, code, message",
                         REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_exit_with_the_documented_code(capsys, tmp_path, content,
                                                argv, code, message):
    path = tmp_path / "conn.json"
    path.write_text(content if isinstance(content, str)
                    else json.dumps(content))
    got, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and message in err, err
    assert err.startswith("error: unsupported input: ") == (code == 3)
    assert len(err.splitlines()) == 1


def test_unsupported_input_exit_3(capsys, tmp_path):
    # flat Type B with C11^1 = sqrt 2: the flat solver needs rational data
    p = tmp_path / "sqrt2.json"
    p.write_text('{"kind": "B", "coeffs": {"111": {"c": [["0", "0"], '
                 '["1", "0"]], "min": ["-2", "0", "1"], "root": 1}}}')
    code, out, err = run_cli(capsys, "solve", "--input", str(p),
                             "--mu", "1/2")
    assert code == 3
    assert out == ""
    assert err == ("error: unsupported input: flat solver needs rational "
                   "coefficients\n")
    # Type B with an irrational C22^1, sqrt 2 or i: the normalization
    # rescales by sqrt |C22^1| and needs it rational
    for name, c221 in (("sqrt2", '{"c": [["0", "0"], ["1", "0"]], '
                                 '"min": ["-2", "0", "1"], "root": 1}'),
                       ("i", '["0", "1"]')):
        p = tmp_path / f"c221_{name}.json"
        p.write_text('{"kind": "B", "coeffs": {"111": "1", "122": "1", '
                     f'"221": {c221}}}}}')
        for argv in (("solve", "--mu", "1"), ("classify",)):
            code, out, err = run_cli(capsys, *argv, "--input", str(p))
            assert (code, out) == (3, ""), (name, argv)
            assert err == ("error: unsupported input: C22^1 must be "
                           "rational for normalization\n")


@pytest.mark.parametrize("index", [None, "0", "1", "2"])
def test_overflow_at_the_probes_exits_2(capsys, tmp_path, monkeypatch, index):
    # e^(1000 x) and its square leave the float range at the probes
    monkeypatch.delenv("QE_SEED", raising=False)
    p = tmp_path / "steep.json"
    p.write_text('{"kind": "A", "coeffs": {"111": "1", "121": "1000", '
                 '"222": "3"}}')
    picked = ("--f-index", index) if index else ()
    code, out, err = run_cli(capsys, "verify", "--mu", "-1", "--input",
                             str(p), *picked)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# the checks that compare floats at the probes with an absolute tolerance
FLOAT_CHECKS = {"quasi_einstein_numeric", "weyl_half", "conformally_einstein",
                "base_condition_numeric", "fiber_constant_std"}


def test_large_coefficients_exit_cleanly(capsys, tmp_path, monkeypatch):
    """Seeded Type A and B connections with integer coefficients up to
    +-10^4 through extend, verify --mu -1 and warp --mu 2, in this process:
    no exception escapes, and exits 2 and 3 print one stderr line.  An exit
    1 fails only float checks: their absolute tolerances sit below the
    rounding error of values this large, while every exact check passes."""
    monkeypatch.delenv("QE_SEED", raising=False)
    rng = random.Random(20261019)
    path = tmp_path / "large.json"
    calls = (("extend",), ("verify", "--mu=-1"), ("warp", "--mu=2"))
    codes = collections.Counter()
    for _ in range(200):
        path.write_text(json.dumps({"kind": rng.choice("AB"), "coeffs": {
            key: str(rng.randint(-10 ** 4, 10 ** 4)) if rng.random() < 0.5
            else "0" for key in ("111", "112", "121", "122", "221", "222")}}))
        for call in calls:
            try:
                code, out, err = run_cli(capsys, call[0], "--input",
                                         str(path), *call[1:])
            except Exception as exc:
                pytest.fail(f"{path.read_text()} {call} raised {exc!r}")
            assert code in (0, 1, 2, 3)
            if code >= 2:
                assert err.startswith("error: ") and len(err.splitlines()) == 1
            if code == 1:
                failed = {c["name"] for c in json.loads(out)["checks"]
                          if not c["pass"]}
                assert failed <= FLOAT_CHECKS, (path.read_text(), failed)
            codes[call[0], code] += 1
    assert codes["verify", 0] >= 10 and codes["warp", 0] >= 10, codes
    assert codes["verify", 2] >= 100 and codes["warp", 2] >= 100, codes


@pytest.mark.parametrize("count", ["0", "-5"])
def test_sweep_rejects_nonpositive_count(capsys, count):
    code, out, err = run_cli(capsys, "sweep", "--kind", "A", "--count", count)
    assert code == 2
    assert out == ""
    assert err == f"error: --count must be >= 1, got {count}\n"


def test_sweep_checks_output_before_any_row(capsys, tmp_path, monkeypatch):
    def eigenspace(*args, **kwargs):
        raise AssertionError("a row was computed before --output was checked")

    monkeypatch.setattr(cli, "eigenspace", eigenspace)
    code, out, err = run_cli(capsys, "sweep", "--kind", "A", "--count", "50",
                             "--seed", "0", "--output",
                             str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_points_out_of_range_exit_2_before_any_probe(capsys, tmp_path,
                                                     monkeypatch):
    class Reached(Exception):
        pass

    def default_probe_points(seed=0, count=10):
        raise Reached(count)

    monkeypatch.setattr(cli, "default_probe_points", default_probe_points)
    path = tmp_path / "a2.json"
    save_connection(A2, path)
    for points in (0, cli.MAX_POINTS + 1):
        code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                 "--mu", "1", "--points", str(points))
        assert code == 2
        assert out == ""
        assert err == ("error: --points must be between 1 and "
                       f"{cli.MAX_POINTS}\n")
    # the bound itself is accepted and reaches the probes
    with pytest.raises(Reached) as got:
        main(["verify", "--input", str(path), "--mu", "1",
              "--points", str(cli.MAX_POINTS)])
    assert got.value.args == (cli.MAX_POINTS,)



def test_probe_options_only_on_commands_that_build_probes(capsys, tmp_path):
    path = tmp_path / "a2.json"
    save_connection(A2, path)
    for command in (("classify",), ("solve", "--mu", "1"),
                    ("oracle", "--mu", "1")):
        for option in (("--points", "7"), ("--points", "0"), ("--seed", "3")):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--input", str(path), *option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

# AnsatzFunction constructions per command on the Type A connection
# C11^1 = C12^2 = C22^1 = 1, counted with the surface caches cleared.  The
# parent of the zero-skipping term algebra built 3925, 1521 and 2569; a
# change that brings back throwaway intermediates fails here, whatever the
# speed of the machine.
CONSTRUCTION_BUDGETS = (
    (("verify", "--mu=-1"), 3925),
    (("warp", "--mu=2"), 1521),
    (("verify", "--mu=1/2"), 2569),
)


@pytest.mark.parametrize("call, parent_count", CONSTRUCTION_BUDGETS,
                         ids=["verify_-1", "warp_2", "verify_1_2"])
def test_construction_count_guard(capsys, tmp_path, monkeypatch, call,
                                  parent_count):
    monkeypatch.delenv("QE_SEED", raising=False)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"kind": "A", "coeffs": {
        "111": "1", "112": "0", "121": "0", "122": "1", "221": "1",
        "222": "0"}}))
    for cached in (surface.ricci, surface.normalize_type_b,
                   surface._gamma_function):
        cached.cache_clear()
    built = []
    init = funcalg.AnsatzFunction.__init__

    def spy(self, terms, context):
        built.append(1)
        init(self, terms, context)

    monkeypatch.setattr(funcalg.AnsatzFunction, "__init__", spy)
    code, _, err = run_cli(capsys, call[0], "--input", str(path), *call[1:])
    assert code == 0, err
    assert len(built) <= 0.55 * parent_count


def test_connection_roundtrip_through_cli(capsys, tmp_path, hyperbolic_path):
    code, out, _ = run_cli(capsys, "classify", "--input", hyperbolic_path)
    payload = json.loads(out)
    assert connection_from_json(payload["connection"]) == HYPERBOLIC


def test_table_format(capsys, hyperbolic_path):
    code, out, _ = run_cli(capsys, "classify", "--input", hyperbolic_path,
                           "--format", "table")
    assert code == 0
    assert "flags.is_also_type_c\tTrue" in out


def test_toml_connection_file(capsys, tmp_path):
    p = tmp_path / "hyperbolic.toml"
    p.write_text('kind = "B"\n\n[coeffs]\n"111" = "-1"\n"122" = "-1"\n'
                 '"221" = "1"\n')
    code, out, _ = run_cli(capsys, "solve", "--input", str(p), "--mu", "-1")
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_verify_with_phi_file(capsys, tmp_path):
    conn_path = tmp_path / "nonsym.json"
    save_connection(NONSYM, conn_path)
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({
        "phi11": [{"coeff": ["1", "0"], "exp": [["0", "0"], ["0", "0"]],
                   "pow1": ["2", "0"], "log": 0, "x2": 0, "y": [0, 0]}],
        "phi12": [],
        "phi22": [{"coeff": ["-3", "0"], "exp": [["0", "0"], ["0", "0"]],
                   "pow1": ["0", "0"], "log": 0, "x2": 2, "y": [0, 0]}],
    }))
    code, out, _ = run_cli(capsys, "verify", "--input", str(conn_path),
                           "--mu", "-1", "--phi", str(phi_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "conformally_einstein" in names


def test_console_script_runs():
    proc = run_cli_process("--help", timeout=60)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout


def test_large_prime_coefficient_exits_3_fast(capsys, tmp_path):
    # the discriminant has a 31-digit cofactor with no small prime factor
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"kind": "B", "coeffs": {
        "111": "1", "122": "2", "221": str(10 ** 30 + 57)}}))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", "--input", str(p), "--mu", "1")
    assert time.perf_counter() - t0 < 5.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: unsupported input: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mu", ["-1", "1/2"])
def test_verify_builds_the_extension_once(capsys, tmp_path, monkeypatch, mu):
    from affineqe import extension
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"kind": "A", "coeffs": {
        "111": "1", "112": "0", "121": "0", "122": "1", "221": "1",
        "222": "0"}}))
    built = []
    original = extension.build_extension

    def spy(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(extension, "build_extension", spy)
    monkeypatch.setattr(cli, "build_extension", spy)
    code, out, err = run_cli(capsys, "verify", "--input", str(path),
                             f"--mu={mu}")
    assert code == 0, err
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert ("conformally_einstein" in names) == (mu == "-1")
    assert len(built) == 1


def run_cli_process(*argv, timeout):
    """Run the CLI in a child process, so that a hang fails the test."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "affineqe.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("mu", ["1", "1/2"])
def test_large_type_a_coefficient_exits_3_fast(tmp_path, mu):
    # the exponent quadratic's discriminant has a 31-digit cofactor: its
    # roots need no divisor search, and the square part cannot be split
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"kind": "A", "coeffs": {
        "112": str(10 ** 30 + 57), "222": "3"}}))
    t0 = time.perf_counter()
    proc = run_cli_process("solve", "--input", str(p), f"--mu={mu}",
                           timeout=5)
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: unsupported input: ")
    assert len(proc.stderr.splitlines()) == 1


def test_huge_exponent_coefficient_exits_2(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"kind": "A", "coeffs": {
        "111": "1e-999999", "222": "3"}}))
    proc = run_cli_process("solve", "--input", str(p), "--mu", "1",
                           timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed connection file")
    assert f"more than {funcalg.MAX_INPUT_DIGITS} digits" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("mu", ["1e-999999", "1e-99999999"])
def test_huge_exponent_mu_exits_2(tmp_path, mu):
    conn_path = tmp_path / "a2.json"
    save_connection(A2, conn_path)
    proc = run_cli_process("solve", "--input", str(conn_path), f"--mu={mu}",
                           timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --mu must be an exact rational")
    assert len(proc.stderr.splitlines()) == 1


def test_huge_exponent_phi_exits_2(tmp_path):
    conn_path = tmp_path / "a2.json"
    save_connection(A2, conn_path)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps({"phi11": [{"coeff": "1e-999999",
                                        "exp": ["0", "0"]}],
                             "phi12": [], "phi22": []}))
    proc = run_cli_process("verify", "--input", str(conn_path), "--mu", "1",
                           "--phi", str(p), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed deformation file")
    assert len(proc.stderr.splitlines()) == 1
