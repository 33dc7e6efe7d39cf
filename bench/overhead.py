"""Tracing overhead: traced minus untraced runs of the same workload and seed.

    python3 bench/overhead.py

Pairs ``bench/results/<workload>-seed<s>-trace0.json`` with its
``-trace1.json`` twin.  For each side it takes a pass time from medians:
per (kind, variant), the median duration times the operations per pass
(counted in the traced run, which runs whole passes).  Medians, not the
fastest samples of ``best_pass_s``: a traced run makes fewer passes, and
the fastest of fewer samples is slower by itself.  Prints, per workload,
the median over seeds of traced over untraced, minus one.
"""

from __future__ import annotations

import json
import statistics
import sys

import _env


def pass_time(durations: dict, per_pass: dict) -> float:
    return sum(count * statistics.median(durations[key]) for key, count in per_pass.items())


def main() -> int:
    runs = {}
    for path in sorted(_env.RESULTS.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        runs.setdefault((result["workload"], result["seed"]), {})[result["trace"]] = result
    by_workload = {}
    for (workload, _seed), pair in sorted(runs.items()):
        if 0 not in pair or 1 not in pair:
            continue
        traced = pair[1]
        per_pass = {key: len(samples) / traced["passes"]
                    for key, samples in traced["durations_s"].items()}
        if not all(pair[0]["durations_s"].get(key) for key in per_pass):
            continue
        ratio = pass_time(traced["durations_s"], per_pass) \
            / pass_time(pair[0]["durations_s"], per_pass)
        by_workload.setdefault(workload, []).append(100.0 * (ratio - 1.0))
    if not by_workload:
        print("no traced/untraced pair of results found", file=sys.stderr)
        return 1
    for workload, shares in by_workload.items():
        print(f"{workload:<20} tracing overhead on the median pass time: median "
              f"{statistics.median(shares):+.1f} % over {len(shares)} seed(s), "
              f"range {min(shares):+.1f} .. {max(shares):+.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
