"""Seeded end-to-end and per-layer benchmark for affineqe.

Run from the root of a checkout:

    python3 bench/run.py --workload agreement --seed 20260808 --seconds 40 --trace 0

The package is imported from ``src/`` of the current directory.  Inputs come
from ``--seed`` (see workloads.py); one client runs operations back to back
for ``--seconds``; outputs are checked after the timed region.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metric names and units are the ones declared
in ``BENCHMARK.json``: its ``end_to_end`` list with ``--trace 0``, its
``per_layer`` list with ``--trace 1``.  The line before it, ``summary: {...}``,
adds the op count, error rate, refusals, p99 where a run has at least 1000
ops, ``outputs_sha256`` and the passes made over the input pool.

``--trace 1`` runs the same ops twice from a fresh import, first untraced for
half of ``--seconds`` and then traced (tracing.py), and reports the per-layer
figures of the traced pass with ``trace.overhead_frac``.  Its spans and the
full per-layer table (every case label seen) go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import tracing
import workloads as wl
from tracing import PACKAGE

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SELECT_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "select_geometry.py")
SETUP_REPEATS = 25
SELECT_WORKERS = 2
P99_MIN_OPS = 1000
CACHED_FUNCTIONS = ("ricci", "normalize_type_b", "_gamma_function")


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no package to import)."""


# -- import and set-up -------------------------------------------------------

def fresh_import() -> SimpleNamespace:
    """Import the package from ./src anew, so its caches start empty."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    origin = os.path.realpath(pkg.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported {PACKAGE} from {origin}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in ("cli", "qesolver", "surface")})


def clear_caches(mods) -> None:
    for name in CACHED_FUNCTIONS:
        getattr(mods.surface, name).cache_clear()


def geometry_filter(seed: int, slots: range) -> list[int]:
    """Pick geometry inputs that have a solution: non-flat, and the oracle
    dimension at the op's mu is at least 1."""
    mods = fresh_import()

    def accept(kind, coeffs, mu):
        conn = wl.make_connection(
            mods.surface, wl.Instance(kind, coeffs, mu))
        return (not mods.surface.ricci(conn).is_flat
                and mods.qesolver.jet_dimension_oracle(conn, mu) >= 1)

    return [wl.select_geometry_draw(seed, slot, accept) for slot in slots]


def select_geometry_inputs(seed: int) -> list[int]:
    """geometry_filter in child processes (select_geometry.py), so that
    neither its memory (it caches every draw's Ricci data) nor its warm
    caches reach the measured process.  The slots are split between
    SELECT_WORKERS children, and each child has ended, or been killed and
    waited for, before this returns or raises."""
    step = -(-wl.GEOMETRY_POOL // SELECT_WORKERS)
    procs = []
    try:
        for lo in range(0, wl.GEOMETRY_POOL, step):
            hi = min(lo + step, wl.GEOMETRY_POOL)
            procs.append(subprocess.Popen(
                [sys.executable, SELECT_SCRIPT, str(seed), str(lo), str(hi)],
                cwd=ROOT, stdout=subprocess.PIPE))
        picks = []
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise BenchError(f"geometry input selection exited with "
                                 f"code {proc.returncode}")
            picks.extend(json.loads(out))
        return picks
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def set_up(workload: str, seed: int, picks) -> tuple:
    """A fresh import and the generated inputs: what `setup_s` times.
    Returns the package modules and the inputs."""
    mods = fresh_import()
    if workload == "geometry":
        return mods, wl.geometry_instances(seed, picks)
    conns = {}
    items = []
    for inst in wl.agreement_instances(seed):
        key = (inst.kind, inst.coeffs)
        if key not in conns:
            conns[key] = wl.make_connection(mods.surface, inst)
        items.append((inst, conns[key]))
    return mods, items


def timed_set_up(workload: str, seed: int, picks):
    """SETUP_REPEATS set-ups; returns their times and the last set-up."""
    times, last = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        last = set_up(workload, seed, picks)
        times.append(time.perf_counter() - t0)
    return times, last


def op_items(workload: str, inputs, work: str) -> list:
    """The items the ops take.  Geometry ops read a connection file each;
    the files are written here, outside `setup_s`, because on a slow disk
    their creation would swamp the figure."""
    if workload == "agreement":
        return inputs
    paths = wl.write_connection_files(inputs, work)
    return [(inst, wl.cli_argv(inst, path))
            for inst, path in zip(inputs, paths)]


# -- running ops -------------------------------------------------------------

def op_runner(workload: str, mods):
    if workload == "agreement":
        return lambda item: wl.agreement_op(mods.qesolver, item[1],
                                            item[0].mu)
    return lambda item: wl.cli_op(mods.cli, item[1])


def canonical(workload: str, outcome) -> str:
    return (wl.canonical_agreement(outcome) if workload == "agreement"
            else wl.canonical_cli(outcome))


def small(workload: str, outcome):
    """What an op keeps for judging beyond the hashed prefix."""
    if workload == "agreement" and not isinstance(outcome, BaseException):
        desc, oracle = outcome
        return (SimpleNamespace(dim=desc.dim, case_label=desc.case_label),
                oracle)
    return outcome


def run_ops(workload, mods, items, *, seconds=None, count=None, tracer=None):
    """Closed loop, one client: ops start back to back until `seconds` have
    passed or `count` ops are done.  The ops take `items` in order and start
    again at its end, with the package caches cleared as before the first
    pass.  Returns latencies, kept outcomes and the canonical outputs of the
    hashed prefix."""
    run = op_runner(workload, mods)
    hashed = wl.HASHED_OPS[workload]
    clock = time.perf_counter
    latencies, kept, canon = [], [], []
    deadline = clock() + seconds if seconds is not None else None
    i = 0
    while count is None or i < count:
        if i and i % len(items) == 0:
            if tracer is not None:
                tracer.bank_caches()
            clear_caches(mods)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            outcome = run(items[i % len(items)])
        except Exception as exc:   # judged as a failed op
            outcome = exc
        t1 = clock()
        latencies.append(t1 - t0)
        if i < hashed:
            canon.append(canonical(workload, outcome))
        kept.append(small(workload, outcome))
        i += 1
        if deadline is not None and t1 >= deadline:
            break
    return latencies, kept, canon


def complete_prefix(workload, mods, items, canon) -> None:
    """Run, untimed, the rest of the hashed prefix that the timed loop did
    not reach."""
    run = op_runner(workload, mods)
    for item in items[len(canon):wl.HASHED_OPS[workload]]:
        try:
            outcome = run(item)
        except Exception as exc:
            outcome = exc
        canon.append(canonical(workload, outcome))


def judge(workload, kept) -> wl.Verdict:
    return (wl.judge_agreement(kept) if workload == "agreement"
            else wl.judge_geometry(kept))


def percentile_ms(latencies, q: int) -> float:
    return 1000.0 * statistics.quantiles(latencies, n=100,
                                         method="inclusive")[q - 1]


# -- the two kinds of run -----------------------------------------------------

def end_to_end(workload, seed, seconds, work, picks):
    """Timed set-ups, then the untraced timed loop, then the output checks."""
    setup_times, (mods, inputs) = timed_set_up(workload, seed, picks)
    items = op_items(workload, inputs, work)
    clear_caches(mods)
    latencies, kept, canon = run_ops(workload, mods, items, seconds=seconds)
    # before the checks below, which call the package again
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    complete_prefix(workload, mods, items, canon)
    verdict = judge(workload, kept)
    n = len(latencies)
    busy = sum(latencies)
    metrics = {
        "throughput_ops_s": n / busy,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": percentile_ms(latencies, 90),
        "latency_p99_ms": (percentile_ms(latencies, 99)
                           if n >= P99_MIN_OPS else None),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    summary = {
        "ops": n,
        "busy_s": busy,
        "end_to_end": metrics,
        "error_rate": verdict.failed / n,
        "refused": verdict.refused,
        "outputs_sha256": wl.outputs_sha256(canon),
        "hashed_ops": len(canon),
        "passes": n / len(items),
        "setup_runs_s": setup_times,
    }
    return metrics, summary, n, verdict, []


def traced(workload, seed, seconds, work, picks):
    """The same ops untraced for half of `seconds`, then traced."""
    mods, inputs = set_up(workload, seed, picks)
    items = op_items(workload, inputs, work)
    clear_caches(mods)
    plain_lat, _, plain_canon = run_ops(workload, mods, items,
                                        seconds=seconds / 2)
    n = len(plain_lat)
    # same ops again, traced, from a fresh import so caches start empty
    mods, inputs = set_up(workload, seed, picks)
    items = op_items(workload, inputs, work)
    clear_caches(mods)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lat, kept, canon = run_ops(workload, mods, items, count=n,
                                   tracer=tracer)
    finally:
        tracer.uninstall()
    problems = []
    if canon != plain_canon:
        problems.append("traced outputs differ from untraced outputs")
    covered = "qesolver.eigenspace" if workload == "agreement" else "cli.main"
    if tracer.calls[covered] != n:
        problems.append(f"coverage: {covered}.calls = "
                        f"{tracer.calls[covered]}, ops = {n}")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = sum(lat) / sum(plain_lat) - 1.0
    verdict = judge(workload, kept)
    # one file per workload: a later traced run replaces it
    stem = os.path.join(OUT_DIR, workload)
    tracer.write_spans(stem + ".spans.jsonl.gz")
    with open(stem + ".layers.json", "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    summary = {"ops": n, "passes": n / len(items),
               "spans": len(tracer.spans),
               "error_rate": verdict.failed / n, "refused": verdict.refused,
               "spans_file": os.path.relpath(stem + ".spans.jsonl.gz", ROOT)}
    return metrics, summary, n, verdict, problems


def declared(metrics: dict, entries: list, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with its units.  A
    case label that did not occur in the run reads 0."""
    out = {}
    for entry in entries:
        name = entry["name"]
        if name in metrics:
            value = metrics[name]
        elif trace and name.startswith("qesolver.eigenspace.case."):
            value = 0
        else:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("agreement", "geometry"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so its child processes are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        picks = (select_geometry_inputs(args.seed)
                 if args.workload == "geometry" else None)
        select_s = time.perf_counter() - t0
        run = traced if args.trace else end_to_end
        metrics, summary, attempted, verdict, problems = run(
            args.workload, args.seed, args.seconds, work, picks)
        entries = spec["per_layer"] if args.trace else spec["end_to_end"]
        reported = declared(metrics, entries, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed": verdict.failed, "failures": verdict.notes,
        "problems": problems, "input_selection_s": select_s,
        "nproc": os.cpu_count(), "python": platform.python_version(),
    })
    result = {"correct": verdict.failed == 0 and not problems,
              "attempted": attempted, "failed": verdict.failed,
              "metrics": reported}
    print("summary: " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
