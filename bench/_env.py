"""Process set-up shared by the benchmark entry points.

Must run before numpy is imported: BLAS reads its thread count once, at
load time.  It also puts the checkout's own ``src`` first on the import
path, so the benchmark measures the source tree it ships with and never
an installed copy of the package.
"""

from __future__ import annotations

import os
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def prepare() -> None:
    """Pin BLAS to one thread and import heatkern from ``src``.

    One thread: with two BLAS threads on two cores the same run varied by
    up to 30 % from run to run, and the n <= 100 products of the workloads
    ran no faster.  Exits with status 2 when the checkout holds no
    ``src/heatkern``.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "heatkern" / "__init__.py").is_file():
        print(f"error: no heatkern package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, BLAS threads and cores."""
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "nproc": nproc(),
    }
