"""Space-time kernels with a certified convolution in the time variable.

A kernel maps (x, y, t) to a real value for points x, y of a finite space
and t on a closed horizon [0, T].  Two representations are supported:
closed forms (an evaluator of t) and Chebyshev-Lobatto samples with
barycentric interpolation.

The convolution pairs the space variable through a weight (a measure
vector, or a full symmetric matrix for Hilbert pairings) and integrates
the time variable with composite Gauss-Legendre panels split at t/2:

    (F * G)(x, y; t) = int_0^t sum_z F(x, z; t - tau) w(z) G(z, y; tau) dtau.

Iterated self-convolutions ("folds") are streamed, each sampled from the
one before, and a factorial-decay majorant bounds everything beyond a
truncation point, which is what certifies series built from these folds.

On a sampled grid every kernel is folded as a short sum in time,
sum_r phi_r(t) M_r (see TimeFactor); `convolve`, one time at a time, is
the reference for that path.
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
    """Kernel phi(t) M: a scalar time profile times one matrix.

    phi maps an array of times to an array of the same shape.
    """

    def __init__(self, space, horizon, weight, phi, matrix, name=""):
        self.phi = phi
        self.matrix = M = np.asarray(matrix, dtype=float)
        # The evaluator must not refer to self: a reference cycle would keep
        # every kernel alive until the cyclic collector runs.
        super().__init__(space, horizon, weight, lambda t: phi(t) * M, name)


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

def _panel_points(t: float, npts: int):
    """Gauss-Legendre nodes and weights on [0, t/2] and [t/2, t], merged."""
    x, w = gauss_legendre(npts)
    quarter = t / 4.0
    taus = quarter * (x + 1.0)
    return np.concatenate([taus, t / 2.0 + taus]), np.concatenate([quarter * w] * 2)


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
    # sum_q gw_q F1(t - tau_q) W F2(tau_q)
    A = pair((F1.at_many(t - taus) * gw[:, None, None]).reshape(-1, F1.n), F1.weight)
    B = F2.at_many(taus)
    return np.einsum("qxz,qzy->xy", A.reshape(B.shape), B, optimize=True)


# ------------------------------------------------------------------ folds

# Sketch singular values below RANK_CUT of the largest are dropped: they
# sit at the roundoff of the samples.  The fixed seed gives every kernel
# the same factor on every run.
RANK_CUT = 1e-14
SKETCH_WIDTH = 32
SKETCH_SEED = 2011


class TimeFactor:
    """A kernel f as sum_r phi_r(t) M_r at the times the folds of one grid read.

    On the Chebyshev grid t_0 < ... < t_m of [0, horizon] a fold reads f
    only at t_j - tau_jq, tau_jq the 2p panel points of `convolve` at t_j.
    values[r, j-1, q] = phi_r(t_j - tau_jq), matrices[r] = M_r; residual
    and residual_mass are the largest entry and row mass (against |W|) of
    f - sum_r phi_r M_r over those times.

    A SeparableKernel is its own single term, with no residual.  Any other
    kernel is factored by a randomized range finder (Halko, Martinsson &
    Tropp, SIAM Review 53, 2011) streamed node by node: a sketch pass sums
    fixed-seed Gaussian combinations of the samples and keeps the span of
    the sum above RANK_CUT as orthonormal M_r; a projection pass takes
    phi_r = <M_r, f> and the exact residual.  The sketch doubles until the
    residual is within RANK_CUT of the largest sample, or it keeps a column
    to spare (it has seen every direction above the cut), or it spans all
    n x n matrices or all sample times, where the factor is exact.  Each
    term then convolves through one scalar Volterra matrix S_r.
    """

    def __init__(self, f: TimeKernel, horizon: float, quad: QuadratureConfig):
        f._check_time(horizon)  # HorizonExceeded past the horizon of f
        self.weight = f.weight
        self.nodes = lobatto_nodes(quad.cheb_degree, horizon)
        self.taus, self.gw = (np.array(a) for a in zip(
            *(_panel_points(t, quad.nodes_per_panel) for t in self.nodes[1:])))
        times = self.nodes[1:, None] - self.taus
        if isinstance(f, SeparableKernel):
            self.matrices = f.matrix[None]
            self.values = f.phi(times)[None]
            self.residual = self.residual_mass = 0.0
        else:
            self._sample(f, times)
        # S_r[j, i] = sum_q gw_jq phi_r(t_j - tau_jq) l_i(tau_jq): the panels
        # of `convolve` at node t_j, resampled from the grid
        m1, bary = self.nodes.shape[0], lobatto_bary_weights(quad.cheb_degree)
        self.S = np.zeros((self.values.shape[0], m1, m1))
        for j, taus in enumerate(self.taus, start=1):
            self.S[:, j] = (self.gw[j - 1] * self.values[:, j - 1]) \
                @ interp_matrix(self.nodes, bary, taus)

    def _sample(self, f: TimeKernel, times: np.ndarray) -> None:
        absw, full = np.abs(f.weight), min(f.n ** 2, times.size)
        width = min(SKETCH_WIDTH, full)
        while True:
            omega = np.random.default_rng(SKETCH_SEED).standard_normal(times.shape + (width,))
            Y = sum(f.at_many(ts).reshape(len(ts), -1).T @ om for ts, om in zip(times, omega))
            U, sv, _ = np.linalg.svd(Y, full_matrices=False)
            Q = U[:, :int(np.sum(sv > RANK_CUT * sv[0]))]
            self.values = np.empty((Q.shape[1],) + times.shape)
            worst = np.zeros(3)  # residual, its row mass, largest sample
            for j, ts in enumerate(times):
                F = f.at_many(ts)
                self.values[:, j] = Q.T @ F.reshape(len(ts), -1).T
                R = np.abs(F - (self.values[:, j].T @ Q.T).reshape(F.shape))
                mass = R @ absw if absw.ndim == 1 else np.sum(R @ absw, axis=2)
                worst = np.maximum(worst, [R.max(), mass.max(), np.abs(F).max()])
            self.residual, self.residual_mass = float(worst[0]), float(worst[1])
            if worst[0] <= RANK_CUT * worst[2] or Q.shape[1] < width or width == full:
                break
            width = min(2 * width, full)
        self.matrices = Q.T.reshape(-1, f.n, f.n)

    def convolve(self, samples: np.ndarray) -> np.ndarray:
        """f * g at the grid nodes from g's (m+1, n, n) samples there."""
        return self._apply(self.S, samples)

    def self_convolve(self) -> np.ndarray:
        """f * f at the grid nodes, f(tau_jq) read from the factor too: the
        panels mirror each other about t_j / 2, so tau_jq = t_j - tau_j(2p-1-q)."""
        coef = np.zeros((self.values.shape[0], self.nodes.shape[0], self.values.shape[0]))
        coef[:, 1:] = np.einsum("rjq,sjq->rjs", self.gw * self.values, self.values[:, :, ::-1])
        return self._apply(coef, self.matrices)

    def _apply(self, coef: np.ndarray, block: np.ndarray) -> np.ndarray:
        # sum_r M_r W (coef_r @ block), one term at a time so that at most
        # two (m+1, n, n) temporaries live beside the sum
        m1, n = coef.shape[1], block.shape[-1]
        flat = block.reshape(block.shape[0], n * n)
        out = np.zeros((m1, n, n)) if coef.shape[0] == 0 else None
        for M, c in zip(self.matrices, coef):
            term = pair(M, self.weight) @ (c @ flat).reshape(m1, n, n)
            out = term if out is None else np.add(out, term, out=out)
        return out


class FoldCache:
    """Iterated self-convolutions of a kernel, streamed forward on one grid.

    fold(1) is the kernel itself; fold(l) samples f * fold(l-1) on the
    Chebyshev grid of [0, horizon] through the TimeFactor of f there:
    fold(2) from the factor alone, later folds from their predecessor's
    samples, so no fold recurses.  Only f and the newest fold are held:
    fold(l) returns either of them or advances to a later l, dropping the
    fold it leaves behind, and raises for a level in between.
    `residual_fold_bound` bounds what the factor's residual moves them.
    """

    def __init__(self, f: TimeKernel, quad: QuadratureConfig | None = None,
                 horizon: float | None = None):
        self.f = f
        self.quad = quad or DEFAULT_QUAD
        self.horizon = horizon if horizon is not None else f.horizon
        self.factor = TimeFactor(f, self.horizon, self.quad)
        self.nodes = self.factor.nodes
        self._folds = {1: f}

    def fold(self, ell: int) -> TimeKernel:
        top = max(self._folds)
        if ell < 1 or 1 < ell < top:
            raise DimensionMismatch(
                f"fold {ell} is not held: the cache holds 1 and {top} and only advances")
        while top < ell:
            values = (self.factor.convolve(self._folds.pop(top).values) if top > 1
                      else self.factor.self_convolve())
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


def residual_fold_bound(eps: float, eps_mass: float, C: float, norm1: float,
                        k: int, t: float) -> float:
    """Bound on sum_{l>=1} |g^{*l} - f^{*l}| at time t when g - f = E.

    Let |E| <= eps entrywise with row mass <= eps_mass (a TimeFactor's
    residual and residual_mass), so g has row mass <= nu = norm1 +
    eps_mass.  From g^{*l} - f^{*l} = g * (g^{*(l-1)} - f^{*(l-1)}) +
    E * f^{*(l-1)}, |A W B| <= (row mass of A) max|B| entrywise, and the
    majorant `bound_ell_fold` of |f^{*m}|, the entry bound d_l obeys
        d_l(t) <= nu int_0^t d_{l-1} + eps_mass C norm1^(l-2) t^(k+l-1) / (k+l-1)!
    with d_1 = eps.  By induction d_l(t) <= eps (nu t)^(l-1) / (l-1)! +
    (l-1) eps_mass C nu^(l-2) t^(k+l-1) / (k+l-1)!, and (l-1) / (k+l-1)!
    <= 1 / (k! (l-2)!) sums this to e^(nu t) (eps + eps_mass C t^(k+1) / k!).
    """
    return math.exp((norm1 + eps_mass) * t) * (eps + eps_mass * C * t ** (k + 1) / math.factorial(k))
