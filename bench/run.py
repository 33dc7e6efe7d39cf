"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload build-analytic --seed 1 --seconds 10 --trace 0

Sets up the workload (timed, several times), runs passes of its
operations until ``--seconds`` are used up (always at least one pass),
gates every operation's output, and prints a table followed by one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
layer boundaries are wrapped (see spans.py) and the metrics are the
per-layer ones.  Every run also writes its full result, with the
workload-specific timings and the environment, to
``bench/results/<workload>-seed<seed>-trace<t>.json``; a traced run adds
its spans as ``.spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from time import perf_counter

import _env

# Imports are timed and saved in the result file, but not counted in
# setup_s: they happen once per process, so a single sample of them cannot
# be steadied by repeating.
_t_import = perf_counter()
_env.prepare()
import numpy as np  # noqa: E402

from heatkern.errors import CertificateError, HeatKernelError  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, GateFailure  # noqa: E402

IMPORT_S = perf_counter() - _t_import

# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds.
# A cheap set-up is repeated until the time is used, so that its median
# spans more than one moment of the machine's drifting speed.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
END_TO_END = ("setup_s", "peak_rss_mb", "best_pass_s")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "best_pass_s": "s", "ops": "count",
         "ops_failed": "count"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_setup(workload, seed, workdir):
    """Set up repeatedly from the same seed; keep the last state."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        rng = np.random.default_rng(seed)
        t0 = perf_counter()
        state = workload.setup(rng, workdir)
        times.append(perf_counter() - t0)
    # The pass generator continues the set-up stream, so a seed fixes all inputs.
    return state, rng, times


def run_passes(workload, state, rng, seconds, tracer):
    durations = {}
    per_pass = {}
    failures = {}
    correct = True
    attempted = 0
    dev_over_cert = 0.0
    walls, covered = {}, {}
    passes = 0
    start = perf_counter()
    deadline = start + seconds
    while passes == 0 or perf_counter() < deadline:
        # A traced run starts another pass only if one more fits.
        if passes and tracer is not None \
                and perf_counter() + (perf_counter() - start) / passes > deadline:
            break
        ops = workload.ops(state, rng)
        for op in ops:
            key = (op.kind, op.variant)
            per_pass[key] = per_pass.get(key, 0) + (passes == 0)
        for op in ops:
            # After the first pass an untraced run stops at the next operation
            # once time is up; a traced run runs whole passes only, so that
            # its per-layer totals divide into passes.
            if passes and tracer is None and perf_counter() >= deadline:
                break
            attempted += 1
            error = None
            if tracer is None:
                t0 = perf_counter()
                try:
                    out = op.call()
                except HeatKernelError as e:
                    error = e
                dt = perf_counter() - t0
            else:
                tracer.begin(op.kind, attempted)
                try:
                    out = op.call()
                except HeatKernelError as e:
                    error = e
                finally:
                    dt, attributed = tracer.finish()
                walls[op.kind] = walls.get(op.kind, 0.0) + dt
                covered[op.kind] = covered.get(op.kind, 0.0) + attributed
            if error is not None:
                name = f"{op.kind}: {type(error).__name__}"
                failures[name] = failures.get(name, 0) + 1
                if tracer is not None and isinstance(error, CertificateError) \
                        and op.kind.startswith(("build", "rebuild")):
                    tracer.counts["neumann.refusals"] += 1
                continue
            try:
                ratio = op.check(out)
            except GateFailure as e:
                name = f"{op.kind}: GateFailure: {e}"
                failures[name] = failures.get(name, 0) + 1
                correct = False
                continue
            if ratio is not None:
                dev_over_cert = max(dev_over_cert, ratio)
            durations.setdefault((op.kind, op.variant), []).append(dt)
        passes += 1
    return {
        "durations": durations, "per_pass": per_pass, "failures": failures,
        "correct": correct, "attempted": attempted, "passes": passes,
        "dev_over_cert": dev_over_cert,
        # Per operation kind: the share of its wall time that no layer span
        # covers.  Summed over the run, so one preempted sub-millisecond
        # read cannot decide it.
        "unattributed_pct": {k: 100.0 * (walls[k] - covered[k]) / walls[k]
                             for k in walls if walls[k] > 0},
    }


def workload_metrics(workload, run):
    """Issue-level timings of the workload: a median per operation kind.

    Latency kinds report p50 and p99 in ms.  A kind with no success is
    reported as absent, not as zero.
    """
    by_kind = {kind: [] for kind, _variant in run["per_pass"]}
    for (kind, _variant), samples in run["durations"].items():
        by_kind[kind].extend(samples)
    out = {}
    for kind, samples in by_kind.items():
        if not samples:
            out[f"{kind}_s"] = None
        elif kind in workload.latency_kinds:
            out[f"{kind}_p50_ms"] = 1e3 * float(np.percentile(samples, 50))
            out[f"{kind}_p99_ms"] = 1e3 * float(np.percentile(samples, 99))
        else:
            out[f"{kind}_s"] = statistics.median(samples)
    return out


def best_pass_seconds(run):
    """Time of one pass at the run's best: per (kind, variant), ops per pass
    times the fastest success.

    The fastest success, not the median: the reference machine's speed
    drifts by up to 1.6x over seconds, and a run's fastest samples come from
    its fastest stretch, which differs far less from run to run than its
    typical ones.  The medians are kept in the workload timings.
    """
    return sum(count * min(run["durations"][key])
               for key, count in run["per_pass"].items() if run["durations"].get(key))


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = _env.ROOT / "bench" / ".work" / tag
    try:
        try:
            state, rng, setup_times = run_setup(workload, args.seed, workdir)
            workload.prepare(state)
        except (HeatKernelError, GateFailure) as e:
            print(f"error: set-up of {workload.name} failed: {type(e).__name__}: {e}",
                  file=sys.stderr)
            return 1
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        try:
            t0 = perf_counter()
            run = run_passes(workload, state, rng, args.seconds, tracer)
            measured_s = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_pass_s": best_pass_seconds(run),
    }
    detail = workload_metrics(workload, run)
    detail["ops"] = run["attempted"]
    detail["ops_failed"] = sum(run["failures"].values())
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "passes": run["passes"],
        "setup_runs_s": setup_times, "import_s": IMPORT_S,
        "end_to_end": end_to_end, "workload_metrics": detail,
        "failures": run["failures"], "correct": run["correct"],
        "durations_s": {"/".join(filter(None, key)): v for key, v in run["durations"].items()},
        "environment": _env.environment(),
    }
    if tracer is not None:
        span_count = len(tracer.start)
        tracer.counts["trace.spans"] = span_count
        tracer.maxima["neumann.dev_over_cert"] = run["dev_over_cert"]
        worst = max(run["unattributed_pct"].values(), default=0.0)
        tracer.maxima["trace.unattributed_max_pct"] = worst
        result["unattributed_pct"] = run["unattributed_pct"]
        op_wall = sum(sum(v) for v in run["durations"].values()) or 1.0
        tracer.maxima["trace.overhead_est_pct"] = \
            100.0 * spans.span_cost_s() * span_count / op_wall
        metrics = spans.layer_metrics(tracer, run["passes"])
        # Layer self times must cover each operation kind's wall time
        # within 5 %, or the trace misses work.
        if worst > 5.0:
            result["correct"] = False
        result["layers"] = metrics
    else:
        metrics = {k: {"value": end_to_end[k], "unit": UNITS[k]} for k in END_TO_END}

    _env.RESULTS.mkdir(parents=True, exist_ok=True)
    (_env.RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        tracer.save(_env.RESULTS / f"{tag}.spans.npz")

    print_table(result, metrics)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(detail["ops_failed"]),
        "metrics": metrics,
    }))
    return 0


def print_table(result, metrics):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}  measured {result['measured_s']:.1f} s")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"{env['blas_threads']} BLAS threads, nproc {env['nproc']}")
    rows = dict(result["end_to_end"])
    rows.update(result["workload_metrics"])
    for name, value in rows.items():
        unit = UNITS.get(name) or ("ms" if name.endswith("_ms") else "s")
        shown = "absent (no success)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<22} {shown}")
    for name, count in result["failures"].items():
        print(f"  failed x{count}: {name}")
    if result["trace"]:
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
