"""Finite measure spaces and the operators a conductance induces on them.

A space is a finite ordered point set carrying a strictly positive base
measure.  A conductance assigns a nonnegative symmetric weight to
unordered point pairs (self-pairs allowed).  Row sums of the weight
matrix give the degree function c, which must be strictly positive at
every point (Assumption C, checked at construction).  From these we
derive one operator, the generator of either Laplacian kind (with the
degree-weighted measure nu = c * lam for the normalized kind), and the
energy form.

Functions on the space are represented as numpy vectors ordered like
``space.points``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricConductance,
    ConfigError,
    DimensionMismatch,
    DisconnectedSpace,
    DuplicatePoint,
    NonpositiveMeasure,
    ZeroDegreePoint,
)


@dataclass(frozen=True, eq=False)
class PointSpace:
    """Ordered point identifiers with a strictly positive base measure."""

    points: tuple
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})
        self.lam.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None


@dataclass(frozen=True, eq=False)
class Conductance:
    """Symmetric nonnegative pair weights, stored densely."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DegreeVector:
    """Per-point total conductance c(x) = sum_y weight(x, y)."""

    c: np.ndarray

    def __post_init__(self):
        self.c.setflags(write=False)


def _parse_lambda(points, lambda_weights):
    n = len(points)
    if lambda_weights is None:
        lam = np.ones(n)
    elif np.isscalar(lambda_weights):
        lam = np.full(n, float(lambda_weights))
    elif isinstance(lambda_weights, dict):
        lam = np.array([float(lambda_weights.get(p, 1.0)) for p in points])
    else:
        lam = np.asarray(lambda_weights, dtype=float)
        if lam.shape != (n,):
            raise DimensionMismatch(
                f"base measure has shape {lam.shape}, expected ({n},)"
            )
    for p, v in zip(points, lam):
        if not np.isfinite(v) or v <= 0:
            raise NonpositiveMeasure(
                f"base measure must be strictly positive and finite; "
                f"got {v} at point {p!r}"
            )
    return lam


def build_space(points, lambda_weights=None, edge_weights=()):
    """Assemble a validated (PointSpace, Conductance, DegreeVector) triple.

    ``points`` is an ordered iterable of hashable identifiers.
    ``lambda_weights`` may be None (counting measure), a scalar, a mapping
    from point to weight (missing points default to 1), or a vector.
    ``edge_weights`` is a mapping from point pairs to weights or an
    iterable of (u, v, w) triples; either orientation of a pair is
    accepted, but giving both orientations with unequal values is
    rejected.  Self-pairs are allowed and contribute to the degree.
    """
    points = tuple(points)
    seen_ids = set()
    for p in points:
        if p in seen_ids:
            raise DuplicatePoint(f"duplicate point id {p!r}")
        seen_ids.add(p)
    n = len(points)
    if n == 0:
        raise DimensionMismatch("a space needs at least one point")
    lam = _parse_lambda(points, lambda_weights)
    index = {p: i for i, p in enumerate(points)}

    if isinstance(edge_weights, dict):
        items = [(u, v, w) for (u, v), w in edge_weights.items()]
    else:
        items = [(u, v, w) for u, v, w in edge_weights]

    pair_weight = {}
    for u, v, w in items:
        try:
            i, j = index[u], index[v]
        except KeyError as exc:
            raise KeyError(f"edge references unknown point {exc.args[0]!r}") from None
        w = float(w)
        if not np.isfinite(w) or w < 0:
            raise NonpositiveMeasure(
                f"conductance weight for pair ({u!r}, {v!r}) must be "
                f"nonnegative and finite; got {w}"
            )
        key = (min(i, j), max(i, j))
        if key in pair_weight and pair_weight[key] != w:
            raise AsymmetricConductance(
                f"pair ({u!r}, {v!r}) given in both orientations with unequal "
                f"weights {pair_weight[key]} and {w}"
            )
        pair_weight[key] = w

    W = np.zeros((n, n))
    for (i, j), w in pair_weight.items():
        W[i, j] = w
        W[j, i] = w

    # c = W @ 1 rather than W.sum(axis=1): bitwise identical to
    # degree_vector, which the generator uses, so both see the same c.
    c = W @ np.ones(n)
    bad = np.nonzero(c <= 0)[0]
    if bad.size:
        p = points[bad[0]]
        raise ZeroDegreePoint(
            f"Assumption C violated at point {p!r}: total conductance is zero"
        )
    return PointSpace(points, lam), Conductance(W), DegreeVector(c)


def _as_function(space: PointSpace, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise DimensionMismatch(f"function has shape {f.shape}, expected ({space.n},)")
    return f


def degree_vector(conductance: Conductance) -> np.ndarray:
    W = conductance.matrix
    return W @ np.ones(W.shape[0])


def energy_inner(space: PointSpace, conductance: Conductance, f, g) -> float:
    """Energy form (1/2) sum_x sum_y weight(x,y) (f(x)-f(y)) (g(x)-g(y)).

    Computed from the defining double sum, not through the Laplacian, so
    tests of the identity <f, Delta g> = <f, g>_E exercise two routes.
    """
    f = _as_function(space, f)
    g = _as_function(space, g)
    df = f[:, None] - f[None, :]
    dg = g[:, None] - g[None, :]
    return 0.5 * float(np.sum(conductance.matrix * df * dg))


KINDS = ("combinatorial", "normalized")


def generator(space: PointSpace, conductance: Conductance, kind: str = "combinatorial"):
    """Generator matrix A and its natural measure mu for a Laplacian kind.

    A = diag(mu)^-1 (diag(c) - W) with mu = lam (combinatorial) or
    mu = nu = c * lam (normalized).  Under the counting measure this is
    exactly the combinatorial or normalized Laplacian matrix; for general
    base measures it is the measure-weighted version, self-adjoint in
    L^2(mu) for every choice of lam.  Returns (A, mu).
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown laplacian kind {kind!r}; expected one of {KINDS}")
    c = degree_vector(conductance)
    L = np.diag(c) - conductance.matrix
    mu = space.lam.copy() if kind == "combinatorial" else c * space.lam
    return L / mu[:, None], mu


# ----------------------------------------------------------- connectivity

def connected_components(space: PointSpace, conductance: Conductance):
    """List of components (each a list of indices), positive weights only."""
    n = space.n
    W = conductance.matrix
    unvisited = set(range(n))
    comps = []
    while unvisited:
        start = min(unvisited)
        stack = [start]
        unvisited.discard(start)
        comp = [start]
        while stack:
            i = stack.pop()
            for j in np.nonzero(W[i] > 0)[0]:
                j = int(j)
                if j in unvisited:
                    unvisited.discard(j)
                    stack.append(j)
                    comp.append(j)
        comps.append(sorted(comp))
    return comps


def graph_distances(space: PointSpace, conductance: Conductance) -> np.ndarray:
    """All-pairs shortest-path distance with edge length 1 / weight.

    Self-pairs have distance zero regardless of self-loops.  Raises
    DisconnectedSpace when some pair is unreachable.
    """
    n = space.n
    W = conductance.matrix
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    pos = W > 0
    off = pos & ~np.eye(n, dtype=bool)
    D[off] = 1.0 / W[off]
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    if not np.all(np.isfinite(D)):
        raise DisconnectedSpace("space is not connected; distances are undefined")
    return D
