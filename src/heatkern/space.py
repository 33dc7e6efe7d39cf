"""Finite measure spaces and the operators a conductance induces on them.

A space is a finite ordered point set carrying a strictly positive base
measure, which `PointSpace` checks.  A conductance assigns a nonnegative
symmetric weight to unordered point pairs (self-pairs allowed).  Row sums
of the weight matrix give the degree function c, which must be strictly
positive at every point (Assumption C).  From these we derive one
operator, the generator of either Laplacian kind (with nu = c * lam for
the normalized kind); `generator` checks the conductance it is made from.

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
    UnknownPoint,
    ZeroDegreePoint,
)


@dataclass(frozen=True, eq=False)
class PointSpace:
    """Ordered point identifiers with a strictly positive base measure.

    Refuses a repeated point (DuplicatePoint), no points or a measure of
    another shape (DimensionMismatch), and a measure entry that is not a
    positive finite number (NonpositiveMeasure).  Freezes a copy of lam.
    """

    points: tuple
    lam: np.ndarray

    def __post_init__(self):
        points = self.points
        index = {p: i for i, p in enumerate(points)}
        if len(index) < len(points):
            dup = next(p for i, p in enumerate(points) if index[p] != i)
            raise DuplicatePoint(f"duplicate point id {dup!r}")
        if not points:
            raise DimensionMismatch("a space needs at least one point")
        lam = np.array(self.lam, dtype=object)
        if lam.shape != (len(points),):
            raise DimensionMismatch(
                f"base measure has shape {lam.shape}, expected ({len(points)},)")
        lam = np.array([_number(m, f"base measure at point {p!r}")
                        for p, m in zip(points, lam)])
        bad = np.nonzero(~((0.0 < lam) & (lam < np.inf)))[0]  # NaN fails too
        if bad.size:
            raise NonpositiveMeasure(f"base measure must be strictly positive and finite; "
                                     f"got {lam[bad[0]]} at point {points[bad[0]]!r}")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(f"unknown point {point!r}") from None


@dataclass(frozen=True, eq=False)
class Conductance:
    """Symmetric nonnegative pair weights, stored densely; freezes a float
    copy of the matrix, which `generator` checks."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def _number(value, what: str) -> float:
    """float(value), or NonpositiveMeasure naming `what` if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise NonpositiveMeasure(f"{what} must be a number; got {value!r}") from None


def _parse_lambda(points, lambda_weights):
    if lambda_weights is None:
        return np.ones(len(points))
    if np.isscalar(lambda_weights):
        return [lambda_weights] * len(points)
    if isinstance(lambda_weights, dict):
        known = set(points)
        for p in lambda_weights:
            if p not in known:
                raise UnknownPoint(f"measure names unknown point {p!r}")
        return [lambda_weights.get(p, 1.0) for p in points]
    return lambda_weights


def build_space(points, lambda_weights=None, edge_weights=()):
    """Assemble a validated (PointSpace, Conductance, degree array) triple.

    ``points`` is an ordered iterable of hashable identifiers.
    ``lambda_weights`` may be None (counting measure), a scalar, a mapping
    from point to weight (missing points default to 1; a key that is not a
    point raises UnknownPoint), or a vector.
    ``edge_weights`` is an iterable of (u, v, w) triples; either
    orientation of a pair is accepted, but giving both orientations with
    unequal values is rejected.  Self-pairs are allowed and contribute to
    the degree.
    """
    points = tuple(points)
    space = PointSpace(points, _parse_lambda(points, lambda_weights))

    pair_weight = {}
    for u, v, w in edge_weights:
        try:
            i, j = space._index[u], space._index[v]
        except KeyError as exc:
            raise UnknownPoint(f"edge references unknown point {exc.args[0]!r}") from None
        w = _number(w, f"conductance weight for pair ({u!r}, {v!r})")
        key = (min(i, j), max(i, j))
        if key in pair_weight and pair_weight[key] != w:
            raise AsymmetricConductance(
                f"pair ({u!r}, {v!r}) given in both orientations with unequal "
                f"weights {pair_weight[key]} and {w}"
            )
        pair_weight[key] = w

    W = np.zeros((space.n, space.n))
    for (i, j), w in pair_weight.items():
        W[i, j] = w
        W[j, i] = w

    cond = Conductance(W)
    return space, cond, check_conductance(points, cond)


def check_conductance(points, conductance: Conductance) -> np.ndarray:
    """Refuse a matrix that is not len(points) square (DimensionMismatch),
    pair weights that are not finite and nonnegative (NonpositiveMeasure)
    or not symmetric (AsymmetricConductance), a point of zero degree
    (ZeroDegreePoint, Assumption C), and one whose degree overflows
    (NonpositiveMeasure); return the degree vector W 1, frozen.
    ``points`` labels the rows in the messages."""
    W, n = conductance.matrix, len(points)
    if W.shape != (n, n):
        raise DimensionMismatch(f"conductance has shape {W.shape}, expected ({n}, {n})")
    bad = np.argwhere(~(np.isfinite(W) & (W >= 0.0)))  # NaN fails too
    if bad.size:
        i, j = bad[0]
        raise NonpositiveMeasure(
            f"conductance weight for pair ({points[i]!r}, {points[j]!r}) must be "
            f"nonnegative and finite; got {W[i, j]}"
        )
    bad = np.argwhere(W != W.T)
    if bad.size:
        i, j = bad[0]
        raise AsymmetricConductance(
            f"pair ({points[i]!r}, {points[j]!r}) carries unequal weights "
            f"{W[i, j]} and {W[j, i]} in its two orientations"
        )
    with np.errstate(over="ignore"):
        c = W @ np.ones(n)
    bad = np.nonzero(c <= 0)[0]
    if bad.size:
        raise ZeroDegreePoint(
            f"Assumption C violated at point {points[bad[0]]!r}: total conductance is zero"
        )
    bad = np.nonzero(c == np.inf)[0]
    if bad.size:
        raise NonpositiveMeasure(f"degree at point {points[bad[0]]!r} overflows: "
                                 f"its weights sum past {np.finfo(float).max:.3g}")
    c.setflags(write=False)
    return c


KINDS = ("combinatorial", "normalized")


def generator(space: PointSpace, conductance: Conductance, kind: str = "combinatorial"):
    """Generator matrix A and its natural measure mu for a Laplacian kind.

    A = diag(mu)^-1 (diag(c) - W) with mu = lam (combinatorial) or
    mu = nu = c * lam (normalized).  Under the counting measure this is
    exactly the combinatorial or normalized Laplacian matrix; for general
    base measures it is the measure-weighted version, self-adjoint in
    L^2(mu) for every choice of lam.  Returns (A, mu); refuses what
    `check_conductance` refuses, a mu whose reciprocal or an A whose
    entries are not finite (NonpositiveMeasure, naming the point), and a
    mu whose total mu(X) overflows (NonpositiveMeasure).
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown laplacian kind {kind!r}; expected one of {KINDS}")
    c = check_conductance(space.points, conductance)
    L = np.diag(c) - conductance.matrix
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = space.lam.copy() if kind == "combinatorial" else c * space.lam
        A = L / mu[:, None]
        bad = np.nonzero(~(np.isfinite(1.0 / mu) & np.isfinite(A).all(axis=1)))[0]
        total = mu.sum()
    if bad.size:
        raise NonpositiveMeasure(f"{kind} measure {mu[bad[0]]} at point {space.points[bad[0]]!r} "
                                 f"is too small: 1/mu or its generator row is not finite")
    if total == np.inf:
        raise NonpositiveMeasure(f"{kind} measure is too large: its total mu(X) sums past "
                                 f"{np.finfo(float).max:.3g}")
    return A, mu


# ----------------------------------------------------------- connectivity

def hop_distances(conductance: Conductance, start: int, radius: float = np.inf) -> np.ndarray:
    """Hops from point index `start` along positive weights, out to
    `radius` hops; -1 where the walk does not reach."""
    linked = conductance.matrix > 0
    dist = np.full(linked.shape[0], -1)
    dist[start] = 0
    frontier, hops = [start], 0
    while len(frontier) and hops < radius:
        hops += 1
        frontier = np.nonzero(linked[frontier].any(axis=0) & (dist < 0))[0]
        dist[frontier] = hops
    return dist


def connected_components(space: PointSpace, conductance: Conductance):
    """List of components (each an ascending list of indices), positive
    weights only, ordered by their smallest index."""
    seen = np.zeros(space.n, dtype=bool)
    comps = []
    while not seen.all():
        comp = np.nonzero(hop_distances(conductance, int(np.argmin(seen))) >= 0)[0]
        seen[comp] = True
        comps.append([int(i) for i in comp])
    return comps


def graph_distances(space: PointSpace, conductance: Conductance) -> np.ndarray:
    """All-pairs shortest-path distance with edge length 1 / weight.

    Self-pairs have distance zero regardless of self-loops.  Raises
    NonpositiveMeasure for an edge whose length overflows, naming the pair
    and its weight, or a distance that overflows, and DisconnectedSpace when
    some pair is unreachable.
    """
    n = space.n
    W = conductance.matrix
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    off = (W > 0) & ~np.eye(n, dtype=bool)
    with np.errstate(over="ignore"):
        lengths = 1.0 / W[off]
    if not np.all(np.isfinite(lengths)):
        i, j = np.argwhere(off)[np.argmin(np.isfinite(lengths))]
        raise NonpositiveMeasure(
            f"edge ({space.points[i]!r}, {space.points[j]!r}) of weight {W[i, j]} has a length "
            f"1/weight that overflows")
    D[off] = lengths
    with np.errstate(over="ignore"):
        for k in range(n):
            D = np.minimum(D, D[:, k, None] + D[None, k, :])
    if not np.all(np.isfinite(D)):
        if len(connected_components(space, conductance)) > 1:
            raise DisconnectedSpace("space is not connected; distances are undefined")
        i, j = np.argwhere(~np.isfinite(D))[0]
        raise NonpositiveMeasure(
            f"the distance from {space.points[i]!r} to {space.points[j]!r} overflows")
    return D
