"""The three benchmark workloads and their correctness gates.

Each workload is one closed-loop caller in one process: it sets up once
(timed, and repeated for the set-up metric), then runs passes, each a
fixed list of operations, until the measuring time is used up.  An
operation is a timed call into heatkern plus an untimed gate that checks
its output; only operations that return and pass their gate count as
successes, and only successes enter the timings.

Why these workloads:

* build-analytic: dirac builds at n = 80 (both Laplacian kinds, two
  graphs) and rkhs builds at n = 40 paired by the inverse Gram matrix.
  The starter's heat image is constant or rank one in time, so
  ``FoldCache.fold`` does nearly all the work; both pairings go through
  semigroup squaring.
* build-costly-image: profile builds at n = 32, whose ~10^5 heat-image
  evaluations in Python closures and second assembly on the doubled grid
  dominate.
* rebuild (on demand, not in BENCHMARK.json): rebuilds of a finished
  n = 40 dirac build on perturbed weights and measure (the base build is
  set-up).  Every rebuild is refused today (``InvalidParametrix`` from the
  order fit of ``validate``), so every operation of this workload fails.
  The gated workloads must be ones on which no operation fails, so the
  rebuilds run here, where the refusals show in ``failed``.
* query-and-check: a finished n = 100 dirac build (set-up) read by
  ``K.at`` at seeded times in [0, 2T], the Jacobi oracle, the derived
  two-route checks, and in-process ``oracle-compare`` CLI calls on an
  n = 20 graph written to files.  The build sits in set-up, so work moved
  between build and query shows on ``setup_s`` against the query times.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from heatkern import cli, derived, graphio, neumann, parametrix, space, spectral
from heatkern.errors import HeatKernelError

from graphs import random_connected_graph, regularized_laplacian_gram

HORIZON = 10.0
TOL = 1e-8
RKHS_HORIZON = 2.0
PROFILE_TOL = 1e-5
ORACLE_TIMES = (0.05, 0.5, 1.0, 5.0, 10.0)
RKHS_ORACLE_TIMES = (0.3, 1.0, 2.0)
# One CLI call per pass keeps a pass near 2 s, so that a run holds some
# fifteen samples of each of the oracle, check and CLI kinds.
QUERIES_PER_PASS = 2000
CLI_CALLS_PER_PASS = 1
# Generator row mass every graph is scaled to (see graphs.py).  With
# T = 10, rate * T / 4 = 1.5 * 2^9 sits mid-octave between two squaring
# counts; the unscaled recipe's median is 300 at n = 80.  Profile graphs
# (counting measure, weights 0.5..2) have a natural median of 33.
RATE = 307.2
PROFILE_RATE = 38.4


class GateFailure(Exception):
    """An operation returned, but its output failed the correctness gate."""


@dataclass
class Op:
    """One timed call and the untimed gate on its output.

    ``check`` raises GateFailure or returns the oracle deviation as a share
    of the certificate for builds (None otherwise).  Operations of one kind
    whose cost differs by design carry a ``variant``; the pass time takes
    a median per (kind, variant), so it does not depend on which variant
    ran more often before time was up.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], float | None]
    variant: str = ""


@dataclass(frozen=True)
class Workload:
    """Timed ``setup``, an untimed ``prepare`` that gates set-up output, and
    ``ops`` that lists one pass.  ``latency_kinds`` report p50/p99 in ms."""

    name: str
    setup: Callable[[np.random.Generator, Path], object]
    prepare: Callable[[object], None]
    ops: Callable[[object, np.random.Generator], list]
    latency_kinds: tuple = field(default=())


def make_space(rng, n, rate=RATE, **recipe):
    points, lam, triples = random_connected_graph(rng, n, rate, **recipe)
    sp, cond, _deg = space.build_space(points, lam, triples)
    return sp, cond


# ------------------------------------------------------------------ gates

def _max_dev(kernel, reference, times) -> float:
    return max(float(np.max(np.abs(kernel.at(t) - reference(t)))) for t in times)


def check_build(result, tol, reference, times) -> float:
    """Finite samples, certificate under tol, oracle deviation within it."""
    base = getattr(result.K, "base", result.K)
    if not np.all(np.isfinite(base.values)):
        raise GateFailure("kernel samples are not finite")
    bound = result.truncation_bound
    if not bound < tol:
        raise GateFailure(f"certificate {bound:.3g} is not below tol {tol:.3g}")
    dev = _max_dev(result.K, reference, times)
    if not dev <= bound:
        raise GateFailure(f"oracle deviation {dev:.3g} exceeds the certificate {bound:.3g}")
    return dev / bound


def spectral_reference(result):
    """Jacobi oracle of a measure-paired build, as a function of t."""
    spec = spectral.eigh_weighted(result.generator_matrix, result.weight)
    return lambda t: spectral.spectral_heat(spec, t)


def check_oracle_build(result, tol, cache=None, key=None) -> float:
    """Gate a measure-paired build against ``eigh_weighted`` + ``spectral_heat``."""
    if cache is None:
        reference = spectral_reference(result)
    else:
        if key not in cache:
            cache[key] = spectral_reference(result)
        reference = cache[key]
    return check_build(result, tol, reference, ORACLE_TIMES)


def _gated(check):
    """Turn a library error raised inside a gate into a gate failure."""

    def run(out):
        try:
            return check(out)
        except HeatKernelError as e:
            raise GateFailure(f"oracle raised {type(e).__name__}: {e}") from None

    return run


# ------------------------------------------------------- build-analytic

@dataclass
class AnalyticState:
    dirac_graphs: list
    rkhs_graphs: list
    oracles: dict = field(default_factory=dict)


def analytic_setup(rng, workdir):
    dirac = [make_space(rng, 80) for _ in range(2)]
    rkhs = []
    for _ in range(2):
        sp, cond = make_space(rng, 40)
        rkhs.append((sp, cond, regularized_laplacian_gram(cond.matrix)))
    return AnalyticState(dirac, rkhs)


def dirac_build(sp, cond, kind):
    p = parametrix.dirac_parametrix(sp, cond, kind, HORIZON)
    return neumann.build_heat_kernel(p, HORIZON, TOL)


def rkhs_build(sp, cond, gram):
    p = parametrix.rkhs_parametrix(sp, gram, cond, "combinatorial", RKHS_HORIZON)
    return neumann.build_heat_kernel(p, RKHS_HORIZON, TOL)


def _check_rkhs(state, idx):
    def check(result):
        if idx not in state.oracles:
            sp, cond, gram = state.rkhs_graphs[idx]
            A, _mu = space.generator(sp, cond, "combinatorial")
            state.oracles[idx] = lambda t: spectral.expm_series(A, t) @ gram
        return check_build(result, TOL, state.oracles[idx], RKHS_ORACLE_TIMES)

    return check


def analytic_ops(state, rng):
    ops = []
    for g, (sp, cond) in enumerate(state.dirac_graphs):
        for kind in space.KINDS:
            ops.append(Op(
                "build_dirac",
                lambda sp=sp, cond=cond, kind=kind: dirac_build(sp, cond, kind),
                _gated(lambda r, key=(g, kind): check_oracle_build(r, TOL, state.oracles, key)),
                variant=kind,
            ))
    for g, (sp, cond, gram) in enumerate(state.rkhs_graphs):
        ops.append(Op(
            "build_rkhs",
            lambda sp=sp, cond=cond, gram=gram: rkhs_build(sp, cond, gram),
            _gated(_check_rkhs(state, g)),
        ))
    return ops


# --------------------------------------------------- build-costly-image

PROFILES = ("epanechnikov", "exponential")
WEIGHT_PERTURBATIONS = 3


@dataclass
class CostlyState:
    profile_graph: tuple
    oracles: dict = field(default_factory=dict)


def costly_setup(rng, workdir):
    return CostlyState(make_space(rng, 32, PROFILE_RATE, weight_range=(0.5, 2.0),
                                  measure_range=None))


def profile_build(sp, cond, profile):
    p = parametrix.profile_parametrix(sp, cond, profile, 0, "combinatorial", HORIZON)
    return neumann.build_heat_kernel(p, HORIZON, PROFILE_TOL)


def costly_ops(state, rng):
    sp, cond = state.profile_graph
    return [
        Op("build_profile",
           lambda profile=profile: profile_build(sp, cond, profile),
           _gated(lambda r: check_oracle_build(r, PROFILE_TOL, state.oracles, "profile")),
           variant=profile)
        for profile in PROFILES
    ]


# ------------------------------------------------------------ rebuild

@dataclass
class RebuildState:
    base: object
    base_graph: tuple


def rebuild_setup(rng, workdir):
    sp, cond = make_space(rng, 40)
    return RebuildState(dirac_build(sp, cond, "combinatorial"), (sp, cond))


def rebuild_prepare(state):
    # The rebuilds start from this kernel, so it is gated like any build.
    check_oracle_build(state.base, TOL)


def rebuild_ops(state, rng):
    base_sp, base_cond = state.base_graph
    n = base_sp.n
    ops = []
    # Perturbations as in acceptance test 7: symmetrized factors
    # log-uniform in [0.7, 1.4]; plus one 1 % change of the measure only.
    for _ in range(WEIGHT_PERTURBATIONS):
        factors = np.exp(rng.uniform(math.log(0.7), math.log(1.4), size=(n, n)))
        new_cond = space.Conductance(base_cond.matrix * (factors + factors.T) / 2.0)
        ops.append(Op(
            "rebuild",
            lambda c=new_cond: neumann.cross_parametrix_build(state.base, conductance=c, tol=TOL),
            _gated(lambda r: check_oracle_build(r, TOL)),
        ))
    lam = base_sp.lam * np.exp(rng.uniform(math.log(0.99), math.log(1.01), size=n))
    ops.append(Op(
        "rebuild",
        lambda: neumann.cross_parametrix_build(state.base, lam=lam, tol=TOL),
        _gated(lambda r: check_oracle_build(r, TOL)),
    ))
    return ops


# ------------------------------------------------------ query-and-check

@dataclass
class QueryState:
    graph: tuple
    result: object
    cli_argv: list
    cli_out: Path
    reference: object = None
    spec: object = None
    times: np.ndarray = None
    pair: tuple = (0, 1)


def query_setup(rng, workdir):
    sp, cond = make_space(rng, 100)
    result = dirac_build(sp, cond, "combinatorial")
    points, lam, triples = random_connected_graph(rng, 20, RATE)
    workdir.mkdir(parents=True, exist_ok=True)
    edges = workdir / "graph.edges"
    edges.write_text("".join(f"p{i} p{j} {w!r}\n" for i, j, w in triples))
    measure = workdir / "graph.measure"
    measure.write_text("".join(f"p{i} {float(m)!r}\n" for i, m in zip(points, lam)))
    config = workdir / "run.cfg"
    config.write_text(f"time.horizon = {HORIZON!r}\nneumann.tol = {TOL!r}\n")
    out = workdir / "cli-out"
    argv = ["oracle-compare", "--edges", str(edges), "--measure", str(measure),
            "--config", str(config), "--out", str(out)]
    pair = tuple(int(i) for i in rng.choice(sp.n, size=2, replace=False))
    return QueryState((sp, cond), result, argv, out, pair=pair)


def query_prepare(state):
    state.reference = spectral_reference(state.result)
    check_build(state.result, TOL, state.reference, ORACLE_TIMES)


def _check_query(state, t):
    def check(M):
        if not np.all(np.isfinite(M)):
            raise GateFailure(f"K.at({t}) is not finite")
        # Past the build horizon every further squaring doubles the bound.
        extra = max(0, math.ceil(math.log2(t / HORIZON))) if t > HORIZON else 0
        bound = state.result.truncation_bound * 2.0 ** extra
        dev = float(np.max(np.abs(M - state.reference(t))))
        if not dev <= bound:
            raise GateFailure(f"K.at({t}) deviates by {dev:.3g} from the oracle, "
                              f"above {bound:.3g}")
        return None

    return check


def _oracle(state):
    res = state.result
    spec = spectral.eigh_weighted(res.generator_matrix, res.weight)
    dev = max(float(np.max(np.abs(res.K.at(t) - spectral.spectral_heat(spec, t))))
              for t in ORACLE_TIMES)
    state.spec = spec
    return dev


def _check_oracle(state):
    def check(dev):
        if not dev <= state.result.truncation_bound:
            raise GateFailure(f"oracle deviation {dev:.3g} exceeds the certificate")
        return dev / state.result.truncation_bound

    return check


def _derived_checks(state):
    sp, cond = state.graph
    res, spec = state.result, state.spec
    green = derived.green_regularized(sp, cond, spec, K=res, tol=TOL)
    poisson = derived.poisson_kernel(spec, res, w=1.0, tol=1e-7)
    R = derived.resistance(sp, cond, spec)
    x, y = state.pair
    r_flow = derived.resistance_by_current(sp, cond, sp.points[x], sp.points[y])
    ts = np.geomspace(max(0.05, HORIZON * 1e-2), HORIZON, 30)
    curve = [derived.entropy(res, sp.points[x], t) for t in ts]
    diag = derived.diagnostics(res)
    return green, poisson, float(R[x, y]), r_flow, curve, diag


def _check_derived(state):
    """Each route pair within the budget the CLI applies to it."""

    def check(out):
        green, poisson, r_spec, r_flow, curve, diag = out
        res = state.result
        budget = green.tail_bound + green.quad_error \
            + res.truncation_bound * green.horizon + 1e-10
        if not green.agreement <= budget:
            raise GateFailure(f"green routes disagree by {green.agreement:.3g} > {budget:.3g}")
        if not poisson.deviation <= 1e-6:
            raise GateFailure(f"poisson routes disagree by {poisson.deviation:.3g}")
        if not abs(r_spec - r_flow) <= 1e-8:
            raise GateFailure(f"resistance routes disagree by {abs(r_spec - r_flow):.3g}")
        curve = np.asarray(curve)
        # Entropy relative to the measure never grows along the heat flow.
        if not np.all(np.isfinite(curve)) or np.any(np.diff(curve) > 1e-9):
            raise GateFailure("entropy curve is not finite and non-increasing")
        # First-order budget: each kernel entry is within the certificate,
        # so semigroup and symmetry defects stay within 3 bounds and the
        # row masses within one bound times the total measure.
        limit = res.truncation_bound * max(3.0, float(res.weight.sum()))
        if not (diag.worst() <= limit and diag.l2_monotone):
            raise GateFailure(f"diagnostics worst defect {diag.worst():.3g} > {limit:.3g}")
        return None

    return check


def _cli_call(state):
    # The CLI prints a summary line; keep it off the benchmark's stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(state.cli_argv))


def _check_cli(state):
    def check(code):
        if code != 0:
            raise GateFailure(f"oracle-compare exited with {code}")
        report = json.loads((state.cli_out / "report.json").read_text())
        if tuple(report) != graphio.REPORT_KEYS or report["exit_reason"] != "ok":
            raise GateFailure(f"report.json keys or exit reason are off: {list(report)}")
        return None

    return check


def squarings(kernel, t):
    """Matrix squarings ``SemigroupKernel.at(t)`` makes: its cost by design."""
    Tb = kernel.base.horizon
    return 0 if t <= Tb else max(1, math.ceil(math.log2(t / Tb)))


def query_ops(state, rng):
    # One set of times for the whole run, so every pass asks for the same
    # squaring counts, the variants of a query.
    if state.times is None:
        state.times = rng.uniform(0.0, 2.0 * HORIZON, size=QUERIES_PER_PASS)
    K = state.result.K
    ops = [Op("query", lambda t=t: K.at(t), _check_query(state, t),
              variant=f"j{squarings(K, t)}")
           for t in rng.permutation(state.times)]
    ops.append(Op("oracle", lambda: _oracle(state), _gated(_check_oracle(state))))
    ops.append(Op("check", lambda: _derived_checks(state), _gated(_check_derived(state))))
    ops.extend(Op("cli", lambda: _cli_call(state), _check_cli(state))
               for _ in range(CLI_CALLS_PER_PASS))
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("build-analytic", analytic_setup, lambda state: None, analytic_ops),
        Workload("build-costly-image", costly_setup, lambda state: None, costly_ops),
        Workload("query-and-check", query_setup, query_prepare, query_ops,
                 latency_kinds=("query",)),
        Workload("rebuild", rebuild_setup, rebuild_prepare, rebuild_ops),
    )
}
