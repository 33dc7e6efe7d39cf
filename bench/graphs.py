"""Seeded random connected weighted graphs for the benchmark.

The recipe follows the property-test generator of the package (a random
spanning tree plus every other pair with probability 0.35, log-uniform
weights), but it lives here so that edits to the tests cannot move the
benchmark inputs.  Every workload draws its graphs from one
``numpy.random.Generator`` seeded by the ``--seed`` argument, so a seed
fixes the inputs exactly.

One step is added: all weights are scaled by one factor so that the
fastest point's rate max_x 2 deg(x) / lam(x), the row mass of the
generator, equals ``rate``.  That rate fixes the number of squarings and,
with it, the series length, so every seed asks for the same series work.
In 100 seeds, combinatorial dirac builds at n = 80 and 100 used 26 terms
and 10 squarings every time, normalized ones 20-23 terms, rkhs builds
24-26 and profile builds 20.  At their natural stiffness the same graphs
take anywhere from 18 to 30 terms, and the stiffest refuse tol = 1e-8
with ``NoConvergenceBudget``: 11 of 40 seeds at n = 80 and 34 of 40 at
n = 100.  With the pin, all of the 100 seeds certified.
"""

from __future__ import annotations

import numpy as np

EXTRA_EDGE_PROB = 0.35


def random_connected_graph(rng, n, rate, weight_range=(0.1, 10.0), measure_range=(0.2, 5.0)):
    """Return (points, lam, triples) for a connected graph on ``n`` points.

    A random spanning tree guarantees connectivity; every remaining pair is
    added independently with probability EXTRA_EDGE_PROB.  Weights are
    log-uniform in ``weight_range`` before the common scaling to ``rate``;
    the measure is log-uniform in ``measure_range``, or the counting
    measure when that is None.
    """
    lo, hi = np.log(weight_range[0]), np.log(weight_range[1])
    edges = {}
    order = rng.permutation(n)
    for pos in range(1, n):
        u = int(order[pos])
        v = int(order[rng.integers(0, pos)])
        edges[(min(u, v), max(u, v))] = float(np.exp(rng.uniform(lo, hi)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < EXTRA_EDGE_PROB:
                edges[(i, j)] = float(np.exp(rng.uniform(lo, hi)))
    lam = None
    if measure_range is not None:
        mlo, mhi = np.log(measure_range[0]), np.log(measure_range[1])
        lam = np.exp(rng.uniform(mlo, mhi, size=n))
    deg = np.zeros(n)
    for (i, j), w in edges.items():
        deg[i] += w
        deg[j] += w
    scale = rate / float(np.max(2.0 * deg / (1.0 if lam is None else lam)))
    triples = [(i, j, w * scale) for (i, j), w in edges.items()]
    return list(range(n)), lam, triples


def regularized_laplacian_gram(conductance_matrix):
    """Reproducing kernel G = (I + L / max deg)^-1 of the combinatorial Laplacian.

    Symmetric positive definite with condition number at most 3, so the
    rkhs starter's Gram inverse reproduces point evaluations to roundoff.
    """
    W = np.asarray(conductance_matrix, dtype=float)
    c = W @ np.ones(W.shape[0])
    L = np.diag(c) - W
    G = np.linalg.inv(np.eye(W.shape[0]) + L / float(np.max(c)))
    return (G + G.T) / 2.0
