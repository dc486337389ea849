"""Per-layer tracing from outside the package.

`Tracer.install` replaces the module-level functions and methods listed in
SPANS and COUNTS with wrappers, at every place the package binds them: a
function imported by name into another module (``cli`` imports
``eigenspace``; ``extension`` and ``warp`` import ``qe_residual``) is one more
binding of the same object, and each is replaced.  The traced calls are
therefore the same calls a user makes.

A span is recorded per call of a SPANS entry: (op id, span id, parent span id,
name, start, end).  Spans stay in memory and are written out by
`write_spans` at the end of the run.  COUNTS entries only count calls; they
sit on the hottest paths, where a span per call would swamp the timings.
"""
from __future__ import annotations

import gzip
import json
import re
import sys
import time
from collections import defaultdict
from fractions import Fraction

PACKAGE = "affineqe"

# (metric prefix, module, attribute path, size counter)
SPANS = (
    ("linalg.rank", "_linalg", "rank", "rows"),
    ("linalg.nullspace", "_linalg", "nullspace", "cols"),
    ("funcalg.product", "funcalg", "product", None),
    ("funcalg.substitute_linear", "funcalg", "substitute_linear", None),
    ("funcalg.rank_basis", "funcalg", "rank_basis", None),
    ("qesolver.qe_residual", "qesolver", "qe_residual", None),
    ("qesolver.eigenspace", "qesolver", "eigenspace", None),
    ("qesolver.jet_dimension_oracle", "qesolver", "jet_dimension_oracle",
     None),
    ("extension.build_extension", "extension", "build_extension", None),
    ("extension.curvature4", "extension", "curvature4", None),
    ("extension.CurvaturePack4.weyl_halves", "extension",
     "CurvaturePack4.weyl_halves", None),
    ("extension.verify_theorem_1_1", "extension", "verify_theorem_1_1", None),
    ("extension.conformal_einstein_residual", "extension",
     "conformal_einstein_residual", None),
    ("warp.warped_einstein_report", "warp", "warped_einstein_report", None),
    ("cli.main", "cli", "main", None),
)

# (metric prefix, module, class, method names bound to the same function)
COUNTS = (
    ("scalars.Scalar.mul", "scalars", "Scalar", ("__mul__", "__rmul__")),
    ("scalars.Scalar.add", "scalars", "Scalar", ("__add__", "__radd__")),
    ("scalars.Scalar.inverse", "scalars", "Scalar", ("inverse",)),
    ("funcalg.AnsatzFunction.derive", "funcalg", "AnsatzFunction",
     ("derive",)),
)

CACHES = (("surface.ricci", "surface", "ricci"),
          ("surface.normalize_type_b", "surface", "normalize_type_b"))


def case_metric_label(label: str) -> str:
    """Case label as a metric-name component: the value in the
    ``Thm1.13(2) v=<value>`` family is dropped, and every run of characters
    outside [A-Za-z0-9_.-] becomes one underscore."""
    label = re.sub(r" v=\S+$", " v", label)
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label).strip("_")


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self.rational_muls = 0
        self.cache_counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []     # [span id, seconds of child spans]
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, name, fn, size):
        clock = time.perf_counter
        stack, spans = self._stack, self.spans
        calls, seconds, sizes = self.calls, self.seconds, self.sizes
        self_seconds = self.self_seconds
        is_eigenspace = name == "qesolver.eigenspace"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            if size == "rows":
                sizes[name] += len(args[0] if args else kwargs["rows"])
            elif size == "cols":
                sizes[name] += args[1] if len(args) > 1 else kwargs["ncols"]
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                seconds[name] += dt
                self_seconds[name] += dt - frame[1]
                spans.append((self.op, sid, parent, name, t0, t1))
                if is_eigenspace and result is not None:
                    key = f"{name}.case.{case_metric_label(result.case_label)}"
                    calls[key] += 1
                    seconds[key] += dt

        return traced

    def _count_wrapper(self, name, fn, cls):
        calls = self.calls
        if name != "scalars.Scalar.mul":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def counted(a, b):
                calls[name] += 1
                # both operands context-free real rationals
                if a.is_rational() and (b.is_rational() if isinstance(b, cls)
                                        else isinstance(b, (int, Fraction))):
                    self.rational_muls += 1
                return fn(a, b)
        return counted

    # -- installation ---------------------------------------------------------
    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def _rebind_everywhere(self, original, wrapper) -> int:
        """Replace every module-level binding of `original`."""
        n = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    n += 1
        return n

    def install(self) -> None:
        for name, modname, path, size in SPANS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._span_wrapper(name, original, size))
                continue
            original = getattr(mod, path)
            if not self._rebind_everywhere(
                    original, self._span_wrapper(name, original, size)):
                raise RuntimeError(f"{name}: no binding found in {PACKAGE}")
        for name, modname, cls_name, meths in COUNTS:
            cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], cls_name)
            original = vars(cls)[meths[0]]
            wrapper = self._count_wrapper(name, original, cls)
            for meth in meths:
                if vars(cls)[meth] is not original:
                    raise RuntimeError(f"{cls_name}.{meth} is not "
                                       f"{cls_name}.{meths[0]}")
                self._undo.append((cls, meth, original))
                setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------
    def bank_caches(self) -> None:
        """Add the hits and misses of the package caches to the totals; the
        run calls this before it clears the caches."""
        for name, modname, attr in CACHES:
            info = getattr(sys.modules[f"{PACKAGE}.{modname}"],
                           attr).cache_info()
            self.cache_counts[f"{name}.hits"] += info.hits
            self.cache_counts[f"{name}.misses"] += info.misses

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure this run produced, by metric name.  Call
        it once, at the end of the run: it banks the caches' counts."""
        out: dict[str, float] = {}
        for name, _, _, size in SPANS:
            n = self.calls[name]
            out[f"{name}.calls"] = n
            out[f"{name}.ms"] = 1000.0 * self.seconds[name]
            out[f"{name}.self_ms"] = 1000.0 * self.self_seconds[name]
            if size:
                out[f"{name}.{size}_mean"] = self.sizes[name] / n if n else 0.0
        for name, calls in self.calls.items():
            if ".case." in name:
                out[f"{name}.calls"] = calls
                out[f"{name}.ms"] = 1000.0 * self.seconds[name]
        for name, *_ in COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        muls = self.calls["scalars.Scalar.mul"]
        out["scalars.mul.rational_share"] = (self.rational_muls / muls
                                             if muls else 0.0)
        self.bank_caches()
        out.update(self.cache_counts)
        scalars = sys.modules[f"{PACKAGE}.scalars"]
        out["scalars.ctx_roots.size"] = len(scalars._CTX_ROOTS)
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped, one JSON array per line: op, span id, parent id (0 =
        none), name, start and end in microseconds from the first span."""
        base = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([op, sid, parent, name,
                                     round(1e6 * (t0 - base), 1),
                                     round(1e6 * (t1 - base), 1)]) + "\n")
