"""Space-time kernels with a certified convolution in the time variable.

A kernel maps (x, y, t) to a real value for points x, y of a finite space
and t on a closed horizon [0, T].  Two representations are supported:
closed forms (an evaluator of t) and Chebyshev-Lobatto samples with
barycentric interpolation.

The convolution pairs the space variable through a weight (a measure
vector, or a full symmetric matrix for Hilbert pairings) and integrates
the time variable with composite Gauss-Legendre panels split at t/2:

    (F * G)(x, y; t) = int_0^t sum_z F(x, z; t - tau) w(z) G(z, y; tau) dtau.

Iterated self-convolutions ("folds") are cached as sampled kernels, and
a factorial-decay majorant bounds everything beyond a truncation point,
which is what certifies series built from these folds.

Kernels separable in time, phi(t) M (constant and rkhs starters), take a
second path chosen by their type: on a sampled grid their convolution is
one scalar Volterra matrix on the samples, with the same panels and
resampling, then one product with M W (after Hale & Townsend, SIAM J.
Sci. Comput. 36, 2014).  Every other kernel is convolved node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonExceeded,
    SpaceMismatch,
)
from .space import PointSpace

_leggauss_cache = {}


def gauss_legendre(npts: int):
    if npts not in _leggauss_cache:
        _leggauss_cache[npts] = np.polynomial.legendre.leggauss(npts)
    return _leggauss_cache[npts]


def lobatto_nodes(degree: int, horizon: float) -> np.ndarray:
    """degree+1 Chebyshev-Lobatto nodes on [0, horizon], ascending."""
    j = np.arange(degree + 1)
    return horizon * (1.0 - np.cos(np.pi * j / degree)) / 2.0


def lobatto_bary_weights(degree: int) -> np.ndarray:
    w = (-1.0) ** np.arange(degree + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def interp_matrix(nodes: np.ndarray, bary: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Barycentric evaluation matrix: row i maps samples to value at targets[i]."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    diff = targets[:, None] - nodes[None, :]
    exact_row, exact_col = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        C = bary[None, :] / diff
        M = C / np.sum(C, axis=1)[:, None]
    for r, c in zip(exact_row, exact_col):
        M[r, :] = 0.0
        M[r, c] = 1.0
    return M


def diff_matrix(nodes: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Barycentric differentiation matrix on the given nodes."""
    m = nodes.shape[0]
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                D[i, j] = (bary[j] / bary[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i])
    return D


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid of the time quadrature and of sampled kernels.

    nodes_per_panel: Gauss-Legendre points per panel (two panels per
    convolution, split at t/2).  cheb_degree: degree of the sampled-kernel
    grids.  `build_heat_kernel` builds on DEFAULT_QUAD, and on twice both
    for starters not analytic in time; the error it charges each fold is
    set by its tolerance, not here.
    """

    nodes_per_panel: int = 16
    cheb_degree: int = 32

    def __post_init__(self):
        if self.nodes_per_panel < 4:
            raise DimensionMismatch("nodes_per_panel must be at least 4")
        if self.cheb_degree < 8:
            raise DimensionMismatch("cheb_degree must be at least 8")


DEFAULT_QUAD = QuadratureConfig()


def pair(M: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """M W for a pairing W given as a measure vector or a matrix."""
    return M * weight[None, :] if weight.ndim == 1 else M @ weight


class TimeKernel:
    """Base class: a kernel on space x space x [0, horizon].

    weight is the convolution pairing: a vector (per-point measure) or a
    symmetric matrix (Hilbert pairing).  Subclasses implement at().
    Instances are immutable after construction; caches fill monotonically.
    """

    def __init__(self, space: PointSpace, horizon: float, weight: np.ndarray):
        if not horizon > 0:
            raise HorizonExceeded(f"horizon must be positive, got {horizon}")
        self.space = space
        self.horizon = float(horizon)
        self.weight = np.asarray(weight, dtype=float)
        if self.weight.ndim not in (1, 2):
            raise DimensionMismatch("pairing weight must be a vector or a matrix")

    @property
    def n(self) -> int:
        return self.space.n

    def _check_time(self, t: float) -> float:
        t = float(t)
        slack = 1e-9 * self.horizon
        if t < -slack or t > self.horizon + slack:
            raise HorizonExceeded(
                f"time {t} outside the kernel horizon [0, {self.horizon}]"
            )
        return min(max(t, 0.0), self.horizon)

    def at(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def at_many(self, ts) -> np.ndarray:
        return np.stack([self.at(t) for t in np.atleast_1d(ts)])

    def same_space(self, other: "TimeKernel") -> bool:
        return self.space is other.space or self.space.points == other.space.points

    def same_pairing(self, other: "TimeKernel") -> bool:
        return self.weight.shape == other.weight.shape and np.array_equal(
            self.weight, other.weight
        )


class ClosedFormKernel(TimeKernel):
    """Kernel given by an evaluator t -> matrix, valid on [0, horizon]."""

    def __init__(self, space, horizon, weight, evaluator, name=""):
        super().__init__(space, horizon, weight)
        self.evaluator = evaluator
        self.name = name

    def at(self, t: float) -> np.ndarray:
        t = self._check_time(t)
        out = np.asarray(self.evaluator(t), dtype=float)
        if out.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"evaluator returned shape {out.shape}, expected {(self.n, self.n)}"
            )
        return out


class SeparableKernel(ClosedFormKernel):
    """Kernel phi(t) M: a scalar time profile (taking arrays) times one matrix."""

    def __init__(self, space, horizon, weight, phi, matrix, name=""):
        matrix = np.asarray(matrix, dtype=float)
        super().__init__(space, horizon, weight, lambda t: phi(t) * matrix, name)
        self.phi, self.matrix = phi, matrix

    def volterra(self, horizon: float, quad: QuadratureConfig) -> np.ndarray:
        """S[j, i] = sum_q gw_jq phi(t_j - tau_jq) l_i(tau_jq): the panels of
        `convolve` at node t_j of the grid of [0, horizon], resampled from the
        grid, so that (self * g)(t_j) = M W sum_i S[j, i] g(t_i)."""
        self._check_time(horizon)
        nodes = lobatto_nodes(quad.cheb_degree, horizon)
        bary = lobatto_bary_weights(quad.cheb_degree)
        S = np.zeros((nodes.shape[0], nodes.shape[0]))
        for j in range(1, nodes.shape[0]):
            taus, gw = _panel_points(nodes[j], quad.nodes_per_panel)
            S[j] = (gw * self.phi(nodes[j] - taus)) @ interp_matrix(nodes, bary, taus)
        return S

    def convolve_samples(self, S: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """self * g at the grid nodes of S, from g's (m+1, n, n) samples there."""
        m1, n = samples.shape[0], self.n
        return pair(self.matrix, self.weight) @ (S @ samples.reshape(m1, n * n)).reshape(m1, n, n)


class ChebKernel(TimeKernel):
    """Kernel sampled on Chebyshev-Lobatto nodes, interpolated barycentrically."""

    def __init__(self, space, horizon, weight, values: np.ndarray):
        super().__init__(space, horizon, weight)
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1:] != (space.n, space.n):
            raise DimensionMismatch(
                f"sample block has shape {values.shape}, expected (m+1, n, n)"
            )
        self.values = values
        self.degree = values.shape[0] - 1
        self.nodes = lobatto_nodes(self.degree, self.horizon)
        self.bary = lobatto_bary_weights(self.degree)
        self._dvalues = None

    def at(self, t: float) -> np.ndarray:
        t = self._check_time(t)
        M = interp_matrix(self.nodes, self.bary, np.array([t]))
        return np.einsum("j,jxy->xy", M[0], self.values)

    def at_many(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ts = np.array([self._check_time(t) for t in ts])
        M = interp_matrix(self.nodes, self.bary, ts)
        return np.einsum("kj,jxy->kxy", M, self.values)

    @property
    def dvalues(self) -> np.ndarray:
        if self._dvalues is None:
            D = diff_matrix(self.nodes, self.bary)
            self._dvalues = np.einsum("ij,jxy->ixy", D, self.values)
        return self._dvalues


class SemigroupKernel(TimeKernel):
    """A heat kernel stored on a base horizon and extended by its semigroup.

    Evaluation at t beyond the base horizon halves t until it lands on the
    base grid, then squares the weighted matrix back up:
    K(2t) = K(t) W K(t) with W the pairing.  This keeps stiff kernels
    accurate at every time without resolving their initial layer on one
    global polynomial grid; it also evaluates past `horizon`, which is the
    declared build interval rather than a hard limit.
    """

    def __init__(self, base: ChebKernel, horizon: float,
                 weight_inv: np.ndarray | None = None):
        super().__init__(base.space, horizon, base.weight)
        self.base = base
        if self.weight.ndim == 1:
            self._winv = None
        else:
            self._winv = weight_inv if weight_inv is not None else np.linalg.inv(self.weight)

    def at(self, t: float) -> np.ndarray:
        t = float(t)
        if t < 0:
            raise HorizonExceeded(f"time {t} is negative")
        Tb = self.base.horizon
        if t <= Tb:
            return self.base.at(t)
        j = max(1, int(math.ceil(math.log2(t / Tb))))
        M = pair(self.base.at(t / 2.0 ** j), self.weight)
        for _ in range(j):
            M = M @ M
        return M / self.weight[None, :] if self.weight.ndim == 1 else M @ self._winv


def constant_kernel(space, horizon, weight, matrix, name="constant") -> SeparableKernel:
    """Kernel constant in time."""
    return SeparableKernel(space, horizon, weight, np.ones_like, matrix, name)


# ------------------------------------------------------------ convolution

def _weighted_chain(A: np.ndarray, weight: np.ndarray, B: np.ndarray,
                    gw: np.ndarray) -> np.ndarray:
    """sum_q gw[q] * A[q] @ diag-or-matrix(weight) @ B[q]."""
    if weight.ndim == 1:
        return np.einsum("qxz,z,qzy,q->xy", A, weight, B, gw, optimize=True)
    return np.einsum("qxz,zw,qwy,q->xy", A, weight, B, gw, optimize=True)


def _panel_points(t: float, npts: int):
    """Gauss-Legendre nodes and weights on [0, t/2] and [t/2, t], merged."""
    x, w = gauss_legendre(npts)
    taus = []
    wts = []
    for a, b in ((0.0, t / 2.0), (t / 2.0, t)):
        half = (b - a) / 2.0
        taus.append(a + half * (x + 1.0))
        wts.append(half * w)
    return np.concatenate(taus), np.concatenate(wts)


def convolve(F1: TimeKernel, F2: TimeKernel, t: float,
             quad: QuadratureConfig | None = None) -> np.ndarray:
    """Time convolution of two kernels under their shared pairing."""
    quad = quad or DEFAULT_QUAD
    if not F1.same_space(F2):
        raise SpaceMismatch("kernels live on different point spaces")
    if not F1.same_pairing(F2):
        raise SpaceMismatch("kernels carry different convolution pairings")
    t = float(t)
    horizon = min(F1.horizon, F2.horizon)
    if t < 0 or t > horizon * (1 + 1e-9):
        raise HorizonExceeded(f"time {t} outside the shared horizon [0, {horizon}]")
    t = min(t, horizon)
    if t == 0.0:
        return np.zeros((F1.n, F1.n))
    taus, gw = _panel_points(t, quad.nodes_per_panel)
    A = F1.at_many(t - taus)
    B = F2.at_many(taus)
    return _weighted_chain(A, F1.weight, B, gw)


# ------------------------------------------------------------------ folds

class FoldCache:
    """Iterated self-convolutions of a kernel, cached on a shared grid.

    fold(1) is the kernel itself; fold(l) samples f * fold(l-1) on the
    Chebyshev grid of [0, horizon] so that higher folds interpolate their
    predecessor instead of recursing.  A SeparableKernel f gets all nodes
    of a fold at once as M W (S @ samples of fold(l-1)), S its Volterra
    matrix built once per cache; any other f calls `convolve` per node.
    Build sequentially; the cache only grows and is safe to share once
    populated.
    """

    def __init__(self, f: TimeKernel, quad: QuadratureConfig | None = None,
                 horizon: float | None = None):
        self.f = f
        self.quad = quad or DEFAULT_QUAD
        self.horizon = horizon if horizon is not None else f.horizon
        if self.horizon > f.horizon * (1 + 1e-9):
            raise HorizonExceeded("fold horizon exceeds the kernel horizon")
        self.nodes = lobatto_nodes(self.quad.cheb_degree, self.horizon)
        self._folds = {1: f}
        self._S = f.volterra(self.horizon, self.quad) if isinstance(f, SeparableKernel) else None

    def fold(self, ell: int) -> TimeKernel:
        if ell < 1:
            raise DimensionMismatch("fold count must be at least 1")
        top = max(self._folds)
        while top < ell:
            prev = self._folds[top]
            if self._S is not None:
                samples = prev.values if top > 1 else prev.at_many(self.nodes)
                values = self.f.convolve_samples(self._S, samples)
            else:
                values = np.stack([convolve(self.f, prev, t, self.quad) for t in self.nodes])
            top += 1
            self._folds[top] = ChebKernel(self.f.space, self.horizon, self.f.weight, values)
        return self._folds[ell]


# ------------------------------------------------------------ certificates

def bound_ell_fold(C: float, norm1: float, k: int, ell: int, t: float) -> float:
    """Factorial majorant for the ell-fold of a kernel with envelope C t^k.

    If |f(x,y;t)| integrates to row mass at most norm1 and obeys the
    envelope, then |f^{*ell}| <= C norm1^(ell-1) t^(k+ell-1) / (k+ell-1)!.
    At ell = 1 this is the envelope itself, C t^k / k!.
    """
    if ell < 1:
        raise DimensionMismatch("fold count must be at least 1")
    # Built up as a running product: the closed form t^m / m! overflows
    # the factorial for m beyond ~170 even when the value itself is tiny.
    val = C * t ** k / math.factorial(k)
    for i in range(1, ell):
        val *= norm1 * t / (k + i)
    return val


def series_tail_bound(C: float, norm1: float, k: int, L: int, t: float) -> float:
    """Upper bound for sum_{ell > L} bound_ell_fold(C, norm1, k, ell, t).

    Successive terms shrink by the factor norm1 * t / (k + ell); once that
    ratio drops below 1/2 the rest is closed by a geometric sum.
    """
    total = 0.0
    ell = L + 1
    b = bound_ell_fold(C, norm1, k, ell, t)
    for _ in range(100000):
        if b == 0.0:
            return total
        ratio = norm1 * t / (k + ell)
        if ratio < 0.5:
            return total + b / (1.0 - ratio)
        total += b
        b *= ratio
        ell += 1
    return math.inf
