"""On-demand size sweep behind the baseline table of ROADMAP.md (not gated).

    python3 bench/sweep.py [--seed 0]

Times dirac builds at n = 20/40/80/160 (T = 10, tol = 1e-8), profile
builds at n = 40/60 (T = 10, tol = 1e-5, counting measure, weights
0.5..2), ``eigh_weighted`` at n = 80/160, and ``K.at`` at n = 160 on the
n = 160 build, with the workloads' graph recipe.  Every build passes the
same oracle gate as in the gated runs.  Prints a table and writes
``bench/results/sweep-seed<seed>.json`` beside the gated results.  Takes
about a minute and a half on 2 cores; it exists so that size targets such
as "dirac n = 160 under 3 s" can be read off without widening the gated
runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import _env

_env.prepare()
import numpy as np  # noqa: E402

from heatkern import spectral  # noqa: E402

import workloads as W  # noqa: E402

DIRAC_SIZES = (20, 40, 80, 160)
PROFILE_SIZES = (40, 60)
EIGH_SIZES = (80, 160)
QUERY_SIZE = 160
QUERIES = 1000


def timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    rows = []

    def record(what, n, seconds, **extra):
        rows.append({"what": what, "n": n, "seconds": seconds, **extra})
        notes = ", ".join(f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in extra.items())
        print(f"{what:<14} n={n:<4} {seconds:9.4f} s  {notes}", flush=True)

    builds = {}
    for n in DIRAC_SIZES:
        sp, cond = W.make_space(rng, n)
        seconds, res = timed(lambda: W.dirac_build(sp, cond, "combinatorial"))
        ratio = W.check_oracle_build(res, W.TOL)
        builds[n] = res
        record("dirac build", n, seconds, terms=res.terms_used, squarings=res.squarings,
               certificate=res.truncation_bound, dev_over_cert=ratio)
    for n in PROFILE_SIZES:
        sp, cond = W.make_space(rng, n, W.PROFILE_RATE, weight_range=(0.5, 2.0),
                               measure_range=None)
        seconds, res = timed(lambda: W.profile_build(sp, cond, "epanechnikov"))
        ratio = W.check_oracle_build(res, W.PROFILE_TOL)
        record("profile build", n, seconds, terms=res.terms_used,
               certificate=res.truncation_bound, dev_over_cert=ratio)
    for n in EIGH_SIZES:
        res = builds[n]
        seconds, spec = timed(lambda: spectral.eigh_weighted(res.generator_matrix, res.weight))
        record("eigh_weighted", n, seconds, residual=spec.residual)
    K = builds[QUERY_SIZE].K
    ts = rng.uniform(0.0, 2.0 * W.HORIZON, size=QUERIES)
    lat = []
    for t in ts:
        t0 = perf_counter()
        K.at(t)
        lat.append(perf_counter() - t0)
    record("K.at", QUERY_SIZE, float(np.sum(lat)), calls=QUERIES,
           p50_ms=1e3 * float(np.percentile(lat, 50)),
           p99_ms=1e3 * float(np.percentile(lat, 99)))

    _env.RESULTS.mkdir(parents=True, exist_ok=True)
    out = _env.RESULTS / f"sweep-seed{args.seed}.json"
    out.write_text(json.dumps({"seed": args.seed, "environment": _env.environment(),
                               "rows": rows}, indent=2) + "\n")
    print(f"wrote {out.relative_to(_env.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
