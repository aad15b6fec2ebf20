"""Span tracing of the socicnn layers, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules, at
every module binding that holds it (``from .model import forward`` leaves a
copy of ``forward`` in ``experiments``, ``curvature``, ``geometry`` and
``inference``; ``dual`` calls its own globals), with a wrapper that records
one span per call.  ``uninstall`` puts the originals back, so untraced passes
run the package exactly as shipped.  Nothing inside ``src/`` is changed.

A span is ``[name_id, start, end, parent, pass_id]``; ``parent`` is the index
of the innermost open span when the call began, or -1.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

import numpy as np

# Modules of ``socicnn`` whose public functions are traced; spans are named
# ``<layer>.<function>``.
LAYERS = ("model", "dual", "geometry", "curvature", "oracle", "inference", "experiments")
SOLVERS = ("whitebox_gd", "whitebox_newton", "baseline_fd_gd", "baseline_fd_newton")
STOP_REASONS = ("grad-tol", "progress", "max-iters", "line-search-failure")

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values):
    """Highest percentile of the ladder with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than 40 samples no ladder
    rung qualifies and the maximum is returned as percentile 100.
    """
    n = len(values)
    if n == 0:
        return None, 0.0
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return 100.0, float(np.max(values))


def forward_flops(params) -> int:
    """Floating-point operations of one ``forward`` call, from array shapes.

    Matrix-vector products count two per weight; the bias adds, ReLU,
    residual offsets, norms and the readout count one or two per element.
    """
    flops = 0
    for W, U, b in zip(params.W, params.U, params.b):
        flops += 2 * W.size + 2 * U.size + 3 * b.size  # two adds and the max
    for B, e in zip(params.B, params.e):
        flops += 2 * B.size + e.size + 2 * e.size + 3  # offset, square norm, scale
    for A, d in zip(params.A, params.d):
        flops += 2 * A.size + d.size + 2 * d.size + 2  # offset, norm, scale
    flops += 2 * params.c.size + 2 * params.v.size + 1
    return flops


class Tracer:
    """Wraps the package's public functions and records spans and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.spans: list[list] = []
        self.pass_id = -1
        # (pass_id, key) -> number; counts taken at the same boundaries.
        self.counters: dict = {}
        # pass_id -> list of (solver, iterations, backtracks, stop_reason).
        self.solver_runs: dict = {}
        self._stack: list[int] = []
        self._flops_by_params: dict = {}
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _count(self, key, n=1):
        k = (self.pass_id, key)
        self.counters[k] = self.counters.get(k, 0) + n

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``after(args, result)`` runs inside the span and returns the value
        handed back to the caller.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _after_forward(self, args, result):
        params = args[0]
        hit = self._flops_by_params.get(id(params))
        if hit is None:
            # The entry keeps ``params`` alive, so its id is not reused.
            hit = self._flops_by_params[id(params)] = (params, forward_flops(params))
        self._count("model.forward.flops", hit[1])
        return result

    def _after_corners(self, args, result):
        def counted():
            for relu in result:
                self._count("dual.relu_corner_assignments.corners")
                yield relu

        return counted()

    def _after_solver(self, solver):
        def after(args, report):
            self.solver_runs.setdefault(self.pass_id, []).append(
                (solver, report.iterations, report.backtracks, report.stop_reason)
            )
            return report

        return after

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the traced layers at every binding."""
        import socicnn  # noqa: F401  (loads every submodule)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"socicnn.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                after = None
                if name == "model.forward":
                    after = self._after_forward
                elif name == "dual.relu_corner_assignments":
                    after = self._after_corners
                elif layer == "inference" and attr in SOLVERS:
                    after = self._after_solver(attr)
                wrappers[id(obj)] = (obj, self.wrap(name, obj, after))
        for modname, mod in list(sys.modules.items()):
            if modname != "socicnn" and not modname.startswith("socicnn."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        geometry = sys.modules["socicnn.geometry"]
        base = geometry._SupportEvaluator
        traced_cls = type(
            base.__name__,
            (base,),
            {
                "__init__": self.wrap("geometry.support_eval", base.__init__),
                "__call__": self.wrap("geometry.support_eval", base.__call__),
            },
        )
        geometry._SupportEvaluator = traced_cls
        self._restore.append((geometry, "_SupportEvaluator", base))

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def pass_summary(self):
        """Per pass: ``{name: [calls, self_s]}`` plus counters, and the
        durations of every call per name across all traced passes."""
        n = len(self.spans)
        child = np.zeros(n)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        per_pass: dict = {}
        durations: dict = {}
        forward_nid = self.names.index("model.forward")
        oracle_nids = {i for i, nm in enumerate(self.names) if nm.startswith("oracle.")}
        for i, (nid, start, end, parent, pid) in enumerate(self.spans):
            name = self.names[nid]
            dur = end - start
            stats = per_pass.setdefault(pid, {}).setdefault(name, [0, 0.0])
            stats[0] += 1
            stats[1] += dur - child[i]
            durations.setdefault(name, []).append(dur)
            if nid == forward_nid and parent >= 0 and self.spans[parent][0] in oracle_nids:
                q = per_pass[pid].setdefault("oracle.value_queries", [0, 0.0])
                q[0] += 1
        for (pid, key), value in self.counters.items():
            per_pass.setdefault(pid, {})[key] = [value, 0.0]
        return per_pass, durations

    def call_counts(self, per_pass):
        """Exact counts per pass, for the repeatability check."""
        counts = {}
        for pid, stats in per_pass.items():
            runs = tuple(self.solver_runs.get(pid, ()))
            counts[pid] = (tuple(sorted((k, v[0]) for k, v in stats.items())), runs)
        return counts

    def write(self, path):
        """Write the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tpass\n")
            for nid, start, end, parent, pid in self.spans:
                fh.write(f"{self.names[nid]}\t{start!r}\t{end!r}\t{parent}\t{pid}\n")
