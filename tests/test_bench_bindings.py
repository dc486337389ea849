"""The package names that the benchmark's tracer and set-up read.

`bench/tracing.py` rewraps functions and methods by name, counts the
`Scalar` operators through both of their bindings and reads the sizes of
`_linalg.rank` and `_linalg.nullspace` from their `rows` and `ncols`
arguments; `bench/run.py` clears the `surface` caches and reads
`scalars._CTX_ROOTS`.  A change that renames or deletes one of these fails
here, not only in a traced benchmark run, and so does one that stops a
`verify` or `warp` call from reaching the traced 4-d names.
"""
import contextlib
import importlib
import inspect
import io
import json
import pathlib
import types

import pytest

from affineqe import _linalg, cli, scalars, surface

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # compiled from source, so that no bytecode is written next to it
    module = types.ModuleType("bench_tracing")
    exec(compile(_TRACING.read_text(), str(_TRACING), "exec"),
         module.__dict__)
    return module


def _module(tracing, name):
    return importlib.import_module(f"{tracing.PACKAGE}.{name}")


def test_span_targets_resolve(tracing):
    for name, modname, path, _ in tracing.SPANS:
        target = _module(tracing, modname)
        for attr in path.split("."):
            assert hasattr(target, attr), name
            target = getattr(target, attr)
        assert callable(target), name


def test_count_targets_share_one_function(tracing):
    for name, modname, cls_name, meths in tracing.COUNTS:
        cls = getattr(_module(tracing, modname), cls_name)
        first = vars(cls)[meths[0]]
        assert all(vars(cls)[m] is first for m in meths), name
    assert scalars.Scalar.__rmul__ is scalars.Scalar.__mul__
    assert scalars.Scalar.__radd__ is scalars.Scalar.__add__


def test_cache_targets_resolve(tracing):
    for name, modname, attr in tracing.CACHES:
        fn = getattr(_module(tracing, modname), attr)
        assert callable(fn.cache_info) and callable(fn.cache_clear), name
    assert callable(surface._gamma_function.cache_clear)
    assert isinstance(scalars._CTX_ROOTS, dict)


def test_sized_spans_keep_their_parameters(tracing):
    sized = {path: size for _, modname, path, size in tracing.SPANS
             if modname == "_linalg"}
    assert sized == {"rank": "rows", "nullspace": "cols"}
    rank = list(inspect.signature(_linalg.rank).parameters)
    nullspace = list(inspect.signature(_linalg.nullspace).parameters)
    assert rank[0] == "rows"
    assert nullspace[:2] == ["rows", "ncols"]


def test_traced_geometry_ops_reach_every_layer(tracing, tmp_path):
    """`verify` and `warp` through `cli.main`, as the geometry workload runs
    them, must reach the 4-d layer's traced names: a refactor that stops
    calling one would read 0 in the per-layer figures."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"kind": "A", "coeffs": {
        "111": "1", "112": "0", "121": "0", "122": "1", "221": "1",
        "222": "0"}}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (["verify", "--input", str(path), "--mu", "1/2"],
                     ["warp", "--input", str(path), "--mu", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("extension.CurvaturePack4.weyl_halves",
                 "funcalg.product", "extension.verify_theorem_1_1",
                 "warp.warped_einstein_report"):
        assert metrics[f"{name}.calls"] > 0, name
