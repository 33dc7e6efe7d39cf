"""Per-layer spans and counters for heatkern, recorded from outside.

The traced run wraps the public functions of each module of the package
where their callers look them up: methods on their class, and module
functions in the namespace of the importing module (for example
``heatkern.neumann.convolve`` or ``heatkern.cli.eigh_weighted``).  Each
call made while an operation is open becomes a span with a name, start,
end, parent span and operation id.  Spans are kept in memory and written
when the run ends.  A span's self time is its duration minus the time its
child spans cover, so the self times of one operation add up to its wall
time; the part left to the benchmark's own root span is time no layer
span accounts for.

Span names are ``<module>.<part>``; the module is the layer.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
import functools
import math
import os
from time import perf_counter

import numpy as np

ROOT_PREFIX = "bench."


class Tracer:
    """Span recorder and counters; wrappers record only inside an operation."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self._stack = []
        self._patches = []
        self.op_id = -1
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.open_layers = defaultdict(int)

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.open_layers[name.partition(".")[0]] += 1
        idx = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.name.append(nid)
        t = perf_counter()
        self.start.append(t)
        self.end.append(t)
        self._stack.append([idx, t, 0.0, name])

    def _close(self):
        t = perf_counter()
        idx, t0, child, name = self._stack.pop()
        self.end[idx] = t
        dur = t - t0
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.open_layers[name.partition(".")[0]] -= 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur, child

    def begin(self, kind: str, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        self._open(ROOT_PREFIX + kind)

    def finish(self):
        """Close the operation; return its wall time and the part layer spans cover."""
        wall, attributed = self._close()
        self.op_id = -1
        return wall, attributed

    # ---------------------------------------------------------- patching

    def wrap(self, fn, name, before=None, after=None):
        """Wrap ``fn`` so that calls inside an operation become spans.

        ``name`` is a span name or a callable of the call's arguments.
        ``before(args)`` runs inside the span before the call and its value
        is handed to ``after(tracer, args, result, token)``, which runs
        after the span closes and only when the call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            tracer._open(name(args) if callable(name) else name)
            try:
                token = before(args) if before is not None else None
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(tracer, args, out, token)
            return out

        return traced

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, before, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def save(self, path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            op=np.frombuffer(self.op, dtype=np.int64, count=n),
        )


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "calibrate.noop")
    tracer.op_id = 0
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    traced = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t0
    return max(traced - bare, 0.0) / calls


# ----------------------------------------------------------- layer hooks

def fold_cost(n: int, nodes: int, quad_points: int, matrix_pairing: bool,
              interpolated: bool):
    """Computed flops and compulsory bytes of one new fold level.

    Every Chebyshev node but t = 0 does one quadrature chain, a batched
    n x n GEMM summed over the quadrature points (two GEMMs per point for a
    matrix pairing), and, when the previous fold is sampled, a barycentric
    re-interpolation of its (nodes, n, n) block at every quadrature point.
    Bytes count the two (Q, n, n) operand blocks written and read, the
    sample block read per interpolation, and the n x n result.
    """
    work = nodes - 1
    n2 = n * n
    chain = (4 if matrix_pairing else 2) * quad_points * n2 * n
    interp = 2 * quad_points * nodes * n2 if interpolated else 0
    moved = 8 * (4 * quad_points * n2 + n2 + (nodes * n2 if interpolated else 0)
                 + (n2 if matrix_pairing else 0))
    return work * (chain + interp), work * moved


def _fold_before(args):
    return max(args[0]._folds)


def _fold_after(tracer, args, out, top_before):
    cache = args[0]
    top = max(cache._folds)
    n = cache.f.n
    nodes = len(cache.nodes)
    quad_points = 2 * cache.quad.nodes_per_panel
    matrix = cache.f.weight.ndim == 2
    for level in range(top_before + 1, top + 1):
        flop, moved = fold_cost(n, nodes, quad_points, matrix, level > 2)
        tracer.counts["timekernel.folds"] += 1
        tracer.counts["timekernel.fold_gflop"] += flop / 1e9
        tracer.counts["timekernel.fold_gbyte"] += moved / 1e9
    cache_mb = (len(cache._folds) - 1) * nodes * n * n * 8 / 1e6
    tracer.maxima["timekernel.fold_cache_mb"] = max(
        tracer.maxima["timekernel.fold_cache_mb"], cache_mb)


def _semigroup_after(tracer, args, out, token):
    kernel, t = args[0], float(args[1])
    base = kernel.base.horizon
    matmuls = 0 if t <= base else max(1, math.ceil(math.log2(t / base)))
    tracer.counts["timekernel.semigroup_matmuls"] += matmuls
    tracer.counts["timekernel.semigroup_gflop"] += matmuls * 2 * kernel.n ** 3 / 1e9
    if tracer.open_layers["derived"]:
        tracer.counts["derived.kernel_evals"] += 1


def _closed_form_name(args):
    return "parametrix.image" if args[0].name.endswith("-image") else "parametrix.starter"


def _built(tracer, args, result, token):
    parametrix = args[0]
    tracer.counts["neumann.terms"] += result.terms_used
    tracer.counts["neumann.squarings"] += result.squarings
    tracer.counts["neumann.assemblies"] += 1 if parametrix.analytic_in_time else 2
    tracer.maxima["neumann.cert_over_tol"] = max(
        tracer.maxima["neumann.cert_over_tol"], result.truncation_bound / result.tol)


def _eigh_after(tracer, args, spec, token):
    tracer.maxima["spectral.eigh_residual"] = max(
        tracer.maxima["spectral.eigh_residual"], spec.residual)


def _written(tracer, args, out, token):
    tracer.counts["graphio.bytes_written"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of heatkern that the workloads cross."""
    from heatkern import cli, derived, neumann, parametrix, spectral, timekernel

    patch = tracer.patch
    patch(timekernel.FoldCache, "fold", "timekernel.fold",
          before=_fold_before, after=_fold_after)
    patch(timekernel.ChebKernel, "at", "timekernel.interp")
    patch(timekernel.ChebKernel, "at_many", "timekernel.interp")
    patch(timekernel.SemigroupKernel, "at", "timekernel.semigroup",
          after=_semigroup_after)
    patch(timekernel.ClosedFormKernel, "at", _closed_form_name)
    patch(neumann, "convolve", "timekernel.convolve")

    for module in (neumann, cli):
        patch(module, "build_heat_kernel", "neumann.build", after=_built)
        patch(module, "validate", "parametrix.validate")
    patch(neumann, "cross_parametrix_build", "neumann.build")

    for module in (parametrix, cli):
        for fn in ("dirac_parametrix", "profile_parametrix", "rkhs_parametrix",
                   "spectral_parametrix"):
            patch(module, fn, "parametrix.construct")
    for module in (parametrix, neumann, derived, cli):
        patch(module, "generator", "space.generator")
    patch(parametrix, "graph_distances", "space.distances")

    for module in (spectral, derived, parametrix, cli):
        patch(module, "eigh_weighted", "spectral.eigh", after=_eigh_after)
    for module in (spectral, derived, cli):
        patch(module, "spectral_heat", "spectral.heat")
    for module in (spectral, cli):
        patch(module, "expm_series", "spectral.expm")

    for module in (derived, cli):
        patch(module, "green_regularized", "derived.green")
        patch(module, "poisson_kernel", "derived.poisson")
        patch(module, "diagnostics", "derived.diagnostics")
        patch(module, "entropy", "derived.entropy")
        patch(module, "resistance", "derived.resistance")
        patch(module, "resistance_by_current", "derived.resistance")

    patch(cli, "main", "cli.main")
    patch(cli, "parse_config", "config.parse")
    patch(cli, "load_graph", "graphio.load")
    for fn in ("write_report", "write_plot_tsv", "write_matrix_csv"):
        patch(cli, fn, "graphio.write", after=_written)


# Per-layer metrics of the traced run: (name, unit, better, source).  The
# source is ("self", span) for self seconds, ("calls", span), ("count",
# counter) or ("max", counter); every value but the maxima is per pass.
LAYER_METRICS = (
    ("timekernel.fold_s", "s", "lower", ("self", "timekernel.fold")),
    ("timekernel.folds", "count", "lower", ("count", "timekernel.folds")),
    ("timekernel.fold_gflop", "Gflop", "lower", ("count", "timekernel.fold_gflop")),
    ("timekernel.fold_gbyte", "GB", "lower", ("count", "timekernel.fold_gbyte")),
    ("timekernel.fold_gflops", "Gflop/s", "higher", ("rate", "timekernel.fold")),
    ("timekernel.fold_cache_mb", "MB", "lower", ("max", "timekernel.fold_cache_mb")),
    ("timekernel.interp_calls", "count", "lower", ("calls", "timekernel.interp")),
    ("timekernel.interp_s", "s", "lower", ("self", "timekernel.interp")),
    ("timekernel.convolve_calls", "count", "lower", ("calls", "timekernel.convolve")),
    ("timekernel.convolve_s", "s", "lower", ("self", "timekernel.convolve")),
    ("timekernel.semigroup_calls", "count", "lower", ("calls", "timekernel.semigroup")),
    ("timekernel.semigroup_matmuls", "count", "lower",
     ("count", "timekernel.semigroup_matmuls")),
    ("timekernel.semigroup_gflop", "Gflop", "lower", ("count", "timekernel.semigroup_gflop")),
    ("timekernel.semigroup_s", "s", "lower", ("self", "timekernel.semigroup")),
    ("parametrix.image_evals", "count", "lower", ("calls", "parametrix.image")),
    ("parametrix.image_s", "s", "lower", ("self", "parametrix.image")),
    ("parametrix.starter_evals", "count", "lower", ("calls", "parametrix.starter")),
    ("parametrix.starter_s", "s", "lower", ("self", "parametrix.starter")),
    ("parametrix.construct_s", "s", "lower", ("self", "parametrix.construct")),
    ("parametrix.validate_s", "s", "lower", ("self", "parametrix.validate")),
    ("space.distances_s", "s", "lower", ("self", "space.distances")),
    ("space.generator_s", "s", "lower", ("self", "space.generator")),
    ("neumann.build_self_s", "s", "lower", ("self", "neumann.build")),
    ("neumann.terms", "count", "lower", ("count", "neumann.terms")),
    ("neumann.squarings", "count", "lower", ("count", "neumann.squarings")),
    ("neumann.assemblies", "count", "lower", ("count", "neumann.assemblies")),
    ("neumann.cert_over_tol", "ratio", "lower", ("max", "neumann.cert_over_tol")),
    ("neumann.dev_over_cert", "ratio", "lower", ("max", "neumann.dev_over_cert")),
    ("neumann.refusals", "count", "lower", ("count", "neumann.refusals")),
    ("spectral.eigh_s", "s", "lower", ("self", "spectral.eigh")),
    ("spectral.eigh_residual", "abs", "lower", ("max", "spectral.eigh_residual")),
    ("spectral.expm_s", "s", "lower", ("self", "spectral.expm")),
    ("spectral.heat_s", "s", "lower", ("self", "spectral.heat")),
    ("derived.green_s", "s", "lower", ("self", "derived.green")),
    ("derived.poisson_s", "s", "lower", ("self", "derived.poisson")),
    ("derived.diagnostics_s", "s", "lower", ("self", "derived.diagnostics")),
    ("derived.entropy_s", "s", "lower", ("self", "derived.entropy")),
    ("derived.resistance_s", "s", "lower", ("self", "derived.resistance")),
    ("derived.kernel_evals", "count", "lower", ("count", "derived.kernel_evals")),
    ("cli.main_s", "s", "lower", ("self", "cli.main")),
    ("config.parse_s", "s", "lower", ("self", "config.parse")),
    ("graphio.load_s", "s", "lower", ("self", "graphio.load")),
    ("graphio.write_s", "s", "lower", ("self", "graphio.write")),
    ("graphio.bytes_written", "bytes", "lower", ("count", "graphio.bytes_written")),
    ("trace.spans", "count", "lower", ("count", "trace.spans")),
    ("trace.unattributed_max_pct", "%", "lower", ("max", "trace.unattributed_max_pct")),
    ("trace.overhead_est_pct", "%", "lower", ("max", "trace.overhead_est_pct")),
)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metric values of a traced run, per pass where additive."""
    out = {}
    for name, unit, _better, (source, key) in LAYER_METRICS:
        if source == "self":
            value = tracer.self_s.get(key, 0.0) / passes
        elif source == "calls":
            value = tracer.calls.get(key, 0) / passes
        elif source == "count":
            value = tracer.counts.get(key, 0.0) / passes
        elif source == "rate":
            busy = tracer.self_s.get(key, 0.0)
            value = tracer.counts.get("timekernel.fold_gflop", 0.0) / busy if busy else 0.0
        else:
            value = tracer.maxima.get(key, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out
