"""Space-time kernels with a certified convolution in the time variable.

A kernel maps (x, y, t) to a real value for points x, y of a finite space
and t on a closed horizon [0, T].  Two representations are supported:
closed forms, and sums sum_s psi_s(t) C_s on Chebyshev-Lobatto nodes, each
psi_s interpolated barycentrically (`ChebKernel`; dense samples are m+1 terms).
A closed form is a batched evaluator from a 1-D array of k <= BLOCK times
in [0, T] to a new (k, n, n) array of the kernel at those times: `at_many`
calls it once per block of BLOCK times, and `at(t)` is `at_many` of one
time.  `per_time` reduces a long time grid block by block, so that a
caller holds one block of samples beyond its output.

The convolution pairs the space variable through a weight (a measure
vector, or a full symmetric matrix for Hilbert pairings) and integrates
the time variable with composite Gauss-Legendre panels split at t/2:

    (F * G)(x, y; t) = int_0^t sum_z F(x, z; t - tau) w(z) G(z, y; tau) dtau.

Iterated self-convolutions ("folds") are streamed on one grid, DEFAULT_QUAD,
each made from the one before by the R-term TimeFactor sum_r phi_r(t) M_r:
an S-term fold gives R S terms (S_r psi_s, M_r W C_s), dense from m+1 on:
`TimeFactor.product` makes those samples, and a build's coefficients.
A closed form is factored from its m+1 node samples when they resolve it
(its Chebyshev series chops), otherwise from their range, projected on once
at the 2p m panel times the folds read and extended there by any block it
misses.  A build factors a starter and its image in one such pass, so a
profile starter is read with its image, once per panel time.  `convolve` is
the reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonExceeded,
    InvalidParametrix,
    SpaceMismatch,
)
from .space import PointSpace

U = 2.0 ** -53  # unit roundoff of float64

RADIX = 8  # of `SemigroupKernel`'s chain, 7 checkpoints a level; 16 ran no faster at n = 100

# Most times per evaluator call and reduction block: one node's panel times on
# the grid.  Larger blocks gain no speed and raise peak RSS at n = 100.
BLOCK = 32


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
    """Barycentric evaluation matrix: row M[i] maps samples to the value at targets[i],
    for targets of any shape."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    diff = targets[..., None] - nodes
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        C = bary / diff
        M = C / np.sum(C, axis=-1)[..., None]
    M[exact.any(axis=-1)] = 0.0
    M[exact] = 1.0
    return M


@dataclass(frozen=True)
class QuadratureConfig:
    """The one grid of every build, DEFAULT_QUAD: Gauss-Legendre points per panel (two
    panels per convolution, split at t/2) and the Chebyshev-Lobatto degree.  A build's
    certificate measures what it costs; the benchmark tracer reads `FoldCache.quad`."""

    nodes_per_panel: int = 16
    cheb_degree: int = 32


DEFAULT_QUAD = QuadratureConfig()
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(DEFAULT_QUAD.nodes_per_panel)


# DCT-I rows, the same on every horizon: DCT_ROWS @ samples at the m+1 Chebyshev-Lobatto
# nodes are the coefficients of the degree-m series through them (`ChebSeries`)
_J = np.arange(DEFAULT_QUAD.cheb_degree + 1)
_HALF = np.where(_J % _J[-1], 1.0, 0.5)  # the end terms count half
DCT_ROWS = (np.cos(np.pi * (np.outer(_J, _J) % (2 * _J[-1])) / _J[-1])
            * np.outer((-1.0) ** _J * _HALF, _HALF) * (2.0 / _J[-1]))
DCT_ROWS.flags.writeable = False


def pair(M: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """M W for a pairing W given as a measure vector or a matrix."""
    return M * weight[None, :] if weight.ndim == 1 else M @ weight


def left_multiply(P: np.ndarray, C: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P C per matrix of a finite block C; a diagonal P (dirac M W) scales rows: same numbers."""
    d = np.diagonal(P)
    return (np.multiply(d[:, None], C, out=out) if np.count_nonzero(P) == np.count_nonzero(d)
            else np.matmul(P, C, out=out))


def sup_norms(block: np.ndarray) -> np.ndarray:
    """max |M| of each matrix M of a (k, n, n) block, overwriting the block."""
    return np.abs(block, out=block).max(axis=(1, 2))


def row_masses(block: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """max_x sum_z |(M W)(x, z)| per M of a (k, n, n) block, overwritten with |M|;
    callers use it only through |A W B| <= (row mass of A W) max|B| entrywise."""
    paired = np.abs(block @ weight) if weight.ndim == 2 else None
    np.abs(block, out=block)
    return np.max(block @ weight, axis=1) if paired is None else np.max(paired.sum(axis=2), axis=1)


class TimeKernel:
    """Base class: a kernel on space x space x [0, horizon].

    weight is the convolution pairing: a vector (per-point measure) or a
    symmetric matrix (Hilbert pairing).  Subclasses implement at() or
    at_many().  Instances are immutable after construction.
    """

    def __init__(self, space: PointSpace, horizon: float, weight: np.ndarray):
        if not 0.0 < horizon < math.inf:  # NaN fails too
            raise HorizonExceeded(f"horizon must be positive and finite, got {horizon}")
        self.space = space
        self.horizon = float(horizon)
        self.weight = np.asarray(weight, dtype=float)
        if self.weight.ndim not in (1, 2):
            raise DimensionMismatch("pairing weight must be a vector or a matrix")

    @property
    def n(self) -> int:
        return self.space.n

    def _check_times(self, ts) -> np.ndarray:
        """ts flat and clipped to [0, horizon]; HorizonExceeded (NaN too) beyond roundoff."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        slack = 1e-9 * self.horizon
        bad = ~((ts >= -slack) & (ts <= self.horizon + slack))
        if bad.any():
            raise HorizonExceeded(
                f"time {ts[bad][0]} outside the kernel horizon [0, {self.horizon}]"
            )
        return np.clip(ts, 0.0, self.horizon)

    def at(self, t: float) -> np.ndarray:
        return self.at_many(t)[0]

    def at_many(self, ts) -> np.ndarray:
        return np.stack([self.at(t) for t in np.atleast_1d(ts)])

    def per_time(self, ts, reduce) -> np.ndarray:
        """reduce(at_many(block)), one value per time, over blocks of BLOCK
        times of ts; reduce may overwrite the block it is given."""
        return np.concatenate([reduce(self.at_many(ts[i:i + BLOCK]))
                               for i in range(0, ts.shape[0], BLOCK)])

    def same_space(self, other: "TimeKernel") -> bool:
        return self.space is other.space or self.space.points == other.space.points

    def same_pairing(self, other: "TimeKernel") -> bool:
        return np.array_equal(self.weight, other.weight)


class ClosedFormKernel(TimeKernel):
    """Kernel given by a batched evaluator, valid on [0, horizon].

    evaluator maps a 1-D array of k <= BLOCK times, already checked and
    clipped to [0, horizon], to a new (k, n, n) array (DimensionMismatch
    otherwise) that callers may overwrite.  at_many calls it once per
    block of BLOCK times, and at(t) is at_many of one time.
    """

    def __init__(self, space, horizon, weight, evaluator, name=""):
        super().__init__(space, horizon, weight)
        self.evaluator = evaluator
        self.name = name

    def at_many(self, ts) -> np.ndarray:
        ts = self._check_times(ts)
        if ts.shape[0] <= BLOCK:
            return self._evaluate(ts)
        out = np.empty((ts.shape[0], self.n, self.n))
        for i in range(0, ts.shape[0], BLOCK):
            out[i:i + BLOCK] = self._evaluate(ts[i:i + BLOCK])
        return out

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.evaluator(ts), dtype=float)
        if out.shape != (ts.shape[0], self.n, self.n):
            raise DimensionMismatch(f"evaluator returned shape {out.shape}, "
                                    f"expected {(ts.shape[0], self.n, self.n)}")
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
        super().__init__(space, horizon, weight, lambda ts: phi(ts)[:, None, None] * M, name)


class ChebKernel(TimeKernel):
    """Kernel sum_s psi_s(t) C_s, psi (m+1, S) interpolated barycentrically from the
    Chebyshev-Lobatto nodes of [0, horizon], C (S, n, n).  psi=None is the identity, the
    Lagrange basis in time: then C holds dense samples at the nodes, m+1 terms."""

    def __init__(self, space, horizon, weight, C: np.ndarray, psi: np.ndarray | None = None):
        super().__init__(space, horizon, weight)
        C = np.asarray(C, dtype=float)
        if C.ndim != 3 or C.shape[1:] != (space.n, space.n):
            raise DimensionMismatch(f"sample block has shape {C.shape}, expected (m+1, n, n)")
        self.C, self.psi = C, psi
        self.degree = (C.shape[0] if psi is None else psi.shape[0]) - 1

    @property
    def values(self) -> np.ndarray:
        """The (m+1, n, n) samples at the nodes."""
        return self.C if self.psi is None else np.tensordot(self.psi, self.C, 1)

    def sup(self) -> float:
        """max |values|, 0 with no terms; for one term max|psi| max|C|, the same number
        (rounding is monotone)."""
        if self.psi is None or self.psi.shape[1] != 1:
            return float(np.abs(self.values).max())
        return float(np.abs(self.psi).max() * np.abs(self.C).max())

    def at_many(self, ts) -> np.ndarray:
        m = self.degree  # off the nodes only: builds read a fold through `values`
        M = interp_matrix(lobatto_nodes(m, self.horizon), lobatto_bary_weights(m),
                          self._check_times(ts))
        return np.einsum("kj,jxy->kxy", M if self.psi is None else M @ self.psi, self.C)


def standard_chop(sizes: np.ndarray) -> int:
    """How many leading coefficients of a series to keep, given the size of each: those
    before the plateau where their envelope levels off near relative size u, by
    standardChop (J. L. Aurentz & L. N. Trefethen, Chopping a Chebyshev series, ACM TOMS
    43(4), 2017).  All of them if there is no plateau, fewer than 17, or none but zeros."""
    n = sizes.shape[0]
    env = np.maximum.accumulate(sizes[::-1])[::-1]  # the envelope: the largest size from k on
    if n < 17 or env[0] == 0.0:
        return n
    env = env / env[0]
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = int(1.25 * j + 5.5)  # round(1.25 j + 5), halves up
        if j2 > n:
            return n
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(U)):
            break
    if env[j - 2] == 0.0:
        return j - 1
    j3 = int(np.sum(env >= U ** (7 / 6)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = U ** (7 / 6)
    # the lowest point of the envelope, tilted to favour an earlier cut
    return max(int(np.argmin(np.log10(env[:j2]) + np.linspace(0.0, -math.log10(U) / 3, j2))), 1)


class ChebSeries(TimeKernel):
    """sum_k coeffs[k] T_k(2t/horizon - 1), evaluated by T_{k+1} = 2x T_k - T_{k-1}: a
    build's base; samples at the Chebyshev-Lobatto nodes give coeffs = DCT_ROWS @ samples.

    A ChebKernel cannot serve: the bound on its barycentric formula (rounded nodes) plus the
    DCT that finds coefficients to bound is some 20 times this series' roundoff, 1.3e-12 on
    the two-point graph at tol 1e-12.  Folds are read only at the nodes and stay ChebKernels,
    most as a few terms in time; only the base is a series.

    Of the m+1 coefficients it keeps those before the roundoff plateau of max_{x,y} |c_k|
    (Aurentz & Trefethen's `standard_chop`, at least 3) if the tail dropped, max_{x,y}
    sum_{k>d} |c_k|, is within (m+1) u max|c_0|, the rounding of an (m+1)-term sum of c_0's
    size.  `degree` is the kept d, bounded by `neumann._defect_bound`; `values` is the series
    at the m+1 nodes.  It holds the block it is given, or a copy of the rows it keeps."""

    def __init__(self, space, horizon, weight, coeffs: np.ndarray):
        super().__init__(space, horizon, weight)
        flat = coeffs.reshape(coeffs.shape[0], -1)
        m = flat.shape[0] - 1
        self.nodes = lobatto_nodes(m, self.horizon)
        sizes = np.maximum(flat.max(axis=1), -flat.min(axis=1))  # max|c_k|, no |c| block
        keep = max(standard_chop(sizes), 3)  # `_defect_bound` reads c_2
        if keep <= m and np.abs(flat[keep:]).sum(axis=0).max() <= (m + 1) * U * sizes[0]:
            flat = flat[:keep].copy()  # frees the whole block
        self.degree = flat.shape[0] - 1
        self.coeffs = flat.reshape((-1,) + coeffs.shape[1:])

    @property
    def values(self) -> np.ndarray:
        """The series at the nodes, where it interpolates its samples."""
        return self.at_many(self.nodes)

    def at_many(self, ts) -> np.ndarray:
        # chebvander gives these rows bit for bit, but costs about 85 us for one
        # time against 12 us here (85 against 270 for 32 times), and `K.at` reads
        # one time per call, some 2,260 calls per query-and-check pass.
        rows = []
        for x in map(float, 2.0 * self._check_times(ts) / self.horizon - 1.0):
            row = [1.0, x]
            for _ in range(self.degree - 1):
                row.append(2.0 * x * row[-1] - row[-2])
            rows.append(row[:self.degree + 1])
        flat = self.coeffs.reshape(self.degree + 1, -1)
        return (np.array(rows) @ flat).reshape(-1, self.n, self.n)


def _pieces(eps: float, pieces: float, gram: np.ndarray | None) -> float:
    """Error of K over `pieces` base pieces within eps each (`SemigroupKernel`);
    inf once a Gram pairing's (1 + eps)^pieces passes e^700."""
    if gram is None:
        return eps * pieces
    x = pieces * math.log1p(eps)
    return float(np.max(np.abs(gram))) * math.expm1(x) if x < 700.0 else math.inf


class SemigroupKernel(TimeKernel):
    """A heat kernel stored on a base horizon T_b, extended by its semigroup.

    Past T_b, t = r + q T_b with q = ceil(t/T_b) - 1 and r in (0, T_b], and K(t) W =
    K(r) W prod_k P_{k,d_k} over the nonzero octal digits d_k of q, W the pairing: one
    evaluation of the base and one product per digit, of checkpoints P_{k,d} = K(d 8^k T_b) W
    (fixed-base exponentiation, E. F. Brickell et al., EUROCRYPT '92).  Level k holds d =
    1..7: P_{0,1} from the base, P_{k,d} = P_{k,d-1} P_{k,1}, P_{k+1,1} = P_{k,7} P_{k,1}.
    The chain grows one whole level per assignment as queries need levels, so readers see
    whole chains whose bits do not depend on query order.  `horizon` is the build interval,
    not a limit; weight_inv inverts a matrix pairing (its Gram), None for a measure;
    piece_bound is the error the build proves for the base on [0, T_b].

    Error, the one rule `error(t)` reports.  The exact K W = e^{-tA} is stochastic.  For a
    measure pairing K is symmetric, so |Ã W B̃ - A W B| <= a (1 + mu(X) b) + b if |Ã - A| <=
    a, |B̃ - B| <= b entrywise ((Ã - A) W B is within a, the columns of W B summing to one);
    a product rounds within n u max|K(0)|, (un)pairing within u max|K(0)|.  Each product,
    in the chain or in `at`, joins two runs of pieces, so a product over c pieces takes at
    most c - 1 of them: to first order the errors of the c = q + 1 = max(1, ceil(t/T_b))
    pieces `at` multiplies add, each within eps = piece_bound, and error(t) = c eps.  For a
    Gram G = W^-1, pieces within eps of K W in max_x sum_y |.| compose within (1 + eps)^c
    - 1, and K = (K W) G within max|G| times that: error(t) = max|G| ((1 + eps)^c - 1), inf
    past e^700.  The build signs error(T), c = 2^squarings, as `truncation_bound`; error is
    nondecreasing in t.  r in (0, T_b] keeps t = 2^j T_b at 2^j pieces, and q <
    2^ceil(log2(t/T_b)) keeps the products, at most popcount(q), within the squarings of
    halving t onto T_b.
    """

    def __init__(self, base: ChebSeries, horizon: float, weight_inv: np.ndarray | None,
                 piece_bound: float):
        super().__init__(base.space, horizon, base.weight)
        self.base = base
        self._winv = weight_inv
        self.piece_bound = piece_bound
        self._chain = ()

    def _split(self, t: float) -> tuple[float, int]:
        """t = r + q T_b to the last bit, r in (0, T_b] (0 at t = 0), in q + 1 pieces."""
        t, Tb = float(t), self.base.horizon
        # q < 2^53 is exact and holds the chain to 18 levels; past it eps_b ceil(t/T_b) >> 1
        if not 0.0 <= t / Tb < 2.0 ** 53:  # NaN and inf fail too
            raise HorizonExceeded(f"time {t} is negative, not finite, or 2^53 or more "
                                  f"base horizons of {Tb}")
        # fmod is exact, so r + q Tb is t to the last bit; r = 0 moves to Tb
        r = math.fmod(t, Tb) or min(t, Tb)
        return r, round((t - r) / Tb)

    def error(self, t: float) -> float:
        """The certified sup-norm error of `at(t)`; refuses the times `at` refuses."""
        return _pieces(self.piece_bound, self._split(t)[1] + 1, self._winv)

    def at(self, t: float) -> np.ndarray:
        r, q = self._split(t)
        if q == 0:
            return self.base.at(r)
        chain = self._chain
        while RADIX ** len(chain) <= q:
            level = [chain[-1][-1] @ chain[-1][0] if chain
                     else pair(self.base.at(self.base.horizon), self.weight)]
            for _ in range(RADIX - 2):
                level.append(level[-1] @ level[0])
            self._chain = chain = chain + (tuple(level),)
        M = pair(self.base.at(r), self.weight)
        for level in chain:
            q, d = divmod(q, RADIX)
            if d:
                M = M @ level[d - 1]
        return M / self.weight[None, :] if self.weight.ndim == 1 else M @ self._winv


def constant_kernel(space, horizon, weight, matrix, name="constant") -> SeparableKernel:
    """Kernel constant in time."""
    return SeparableKernel(space, horizon, weight, np.ones_like, matrix, name)


# ------------------------------------------------------------ convolution

def _panel_points(ts):
    """Gauss-Legendre nodes and weights on [0, t/2] and [t/2, t], merged: for
    each time t of ts a row of 2 nodes_per_panel (one row for a scalar t)."""
    ts = np.asarray(ts, dtype=float)[..., None]
    quarter = ts / 4.0
    taus = quarter * (_GL_NODES + 1.0)
    return (np.concatenate([taus, ts / 2.0 + taus], axis=-1),
            np.concatenate([quarter * _GL_WEIGHTS] * 2, axis=-1))


# l_i(tau_jq) at the panel points of t_1..t_m on [0, 1], (m, 2p, m+1): both scale with
# the horizon, so these rows serve every horizon
_UNIT = lobatto_nodes(DEFAULT_QUAD.cheb_degree, 1.0)
_RESAMPLING = interp_matrix(_UNIT, lobatto_bary_weights(DEFAULT_QUAD.cheb_degree),
                            _panel_points(_UNIT[1:])[0])
_RESAMPLING.flags.writeable = False


def convolve(F1: TimeKernel, F2: TimeKernel, t: float) -> np.ndarray:
    """Time convolution of two kernels under their shared pairing."""
    if not F1.same_space(F2):
        raise SpaceMismatch("kernels live on different point spaces")
    if not F1.same_pairing(F2):
        raise SpaceMismatch("kernels carry different convolution pairings")
    t = float(t)
    horizon = min(F1.horizon, F2.horizon)
    if not 0.0 <= t <= horizon * (1 + 1e-9):
        raise HorizonExceeded(f"time {t} outside the shared horizon [0, {horizon}]")
    t = min(t, horizon)
    if t == 0.0:
        return np.zeros((F1.n, F1.n))
    taus, gw = _panel_points(t)
    # sum_q gw_q F1(t - tau_q) W F2(tau_q)
    A = pair((F1.at_many(t - taus) * gw[:, None, None]).reshape(-1, F1.n), F1.weight)
    B = F2.at_many(taus)
    return np.einsum("qxz,qzy->xy", A.reshape(B.shape), B, optimize=True)


# ------------------------------------------------------------------ folds

# Singular values below RANK_CUT of the largest (of a resolved node block, or
# of the coefficients at the panel times) sit at the roundoff of the samples:
# they are dropped.  At the panel times it also bounds, in Frobenius norm, what
# the basis misses (`TimeFactor`); it is not an entrywise bound.
RANK_CUT = 1e-14


def _refuse_nonfinite(f: TimeKernel, top: float) -> None:
    """InvalidParametrix naming f unless top, the largest |sample| of f read, is finite."""
    if not math.isfinite(top):
        raise InvalidParametrix(f"kernel {getattr(f, 'name', '') or type(f).__name__!r} "
                                f"is not finite on [0, {f.horizon}]")


class TimeFactor:
    """A kernel f as sum_r phi_r(t) M_r at the times the folds of one grid read.

    On the Chebyshev grid t_0 < ... < t_m of [0, horizon] a fold reads f
    only at t_j - tau_jq, tau_jq the 2p panel points of `convolve` at t_j.
    values[r, j-1, q] = phi_r(t_j - tau_jq), matrices[r] = M_r, and on_grid
    is f at the nodes, a ChebKernel: fold 1 of a build, and its starter's
    node values.

    A SeparableKernel is its own single term.  Any other kernel is evaluated
    once at the m+1 nodes, and one SVD of the (m+1) x n^2 node block serves
    both of its paths.  If those samples resolve it, that is if their
    Chebyshev series chops as a `ChebSeries` base does, the factor is read
    from them alone: M_r are the right singular vectors above RANK_CUT, and
    phi_r(t_j - tau_jq) = phi_r(tau_j(2p-1-q)) (the panels mirror each other
    about t_j / 2) applies the barycentric rows of `_RESAMPLING` to phi_r(t_i)
    = <M_r, f(t_i)>.

    An unresolved kernel is read once at each panel time, in one pass over
    the nodes' blocks of 2p times, which serves several kernels at once
    (`together`; one kernel is its one-kernel case).  A build factors its
    heat image f and its starter H together, f's block first at each node:
    a profile image is made from H at the same times and hands that block
    to H, so the starter is not evaluated again.  Each block is
    projected on an orthonormal basis Q of n x n matrices: at first the node
    range, the right singular vectors above the node block's own rounding
    u sigma_0.  A block F takes coefficients c = <Q, F>
    and leaves the residual R = F - sum c Q.  With low the sum of squares of the
    first coefficient row so far and missed that of the residuals, a block
    whose |R|_F^2 passes allow = RANK_CUT^2 low - missed first extends Q by the
    fewest leading right singular vectors of R whose tail sum of squares is
    within allow (orthogonalized against Q, zero coefficients in the blocks
    before), and is projected again.  So missed <= RANK_CUT^2 low after every
    block, with no fallback.  A row norm of a matrix is at most its largest
    singular value, and low sums squares of entries of the first row of the
    final (terms x 2p m) coefficient block, so sqrt(low) <= sigma_0 of that
    block, and sqrt(missed) <= RANK_CUT sigma_0.  One SVD of the block then
    recuts the terms at RANK_CUT sigma_0, and over all panel times the
    Frobenius norm of f - sum_r phi_r M_r is at most RANK_CUT sigma_0
    sqrt(1 + d), d the terms dropped.  The bound is in Frobenius norm, not
    entrywise.  Seen on profile images and starters at n = 32 to 80: the
    node range holds f, missing 0.04 to 0.2 of that cut, and no block extends
    it; a kernel of time rank above m+1, or with a support edge inside the
    horizon, extends it.  The factor depends on f alone.  A sample that is
    not finite is refused with InvalidParametrix.  Each term convolves
    through one scalar Volterra matrix S_r into ChebKernels.
    """

    def __init__(self, f: TimeKernel, horizon: float):
        for _ in self._read(f, horizon):
            pass

    @classmethod
    def together(cls, kernels, horizon: float) -> list["TimeFactor"]:
        """The factors of kernels on one grid, each the one `TimeFactor(kernel, horizon)`
        makes, bit for bit, read together: each kernel's node samples in turn, then each
        block of 2p panel times of every kernel they leave unresolved, in kernel order,
        before the next block."""
        factors = [cls.__new__(cls) for _ in kernels]
        for _ in itertools.zip_longest(*(t._read(f, horizon) for t, f in zip(factors, kernels))):
            pass
        return factors

    def _read(self, f: TimeKernel, horizon: float):
        """Make this factor of f, yielding before each block of panel times it reads."""
        f._check_times(horizon)  # HorizonExceeded past the horizon of f
        self.space, self.horizon, self.weight = f.space, horizon, f.weight
        self.nodes = lobatto_nodes(DEFAULT_QUAD.cheb_degree, horizon)
        self.taus, self.gw = _panel_points(self.nodes[1:])
        times = self.nodes[1:, None] - self.taus
        if isinstance(f, SeparableKernel):
            self.on_grid = ChebKernel(f.space, horizon, f.weight, f.matrix[None],
                                      f.phi(self.nodes)[:, None])
            self.matrices = f.matrix[None]
            self.values = f.phi(times)[None]
            _refuse_nonfinite(f, np.maximum(self.on_grid.sup(), np.abs(self.values).max()))
        else:
            Q = self._from_nodes(f, times)
            if Q is not None:
                yield from self._sample(f, times, Q)
        self.paired = pair(self.matrices, self.weight)
        # S_r[j, i] = sum_q gw_jq phi_r(t_j - tau_jq) l_i(tau_jq), the panels of `convolve` at
        # t_j resampled from the grid: _RESAMPLING, the same on every horizon
        self.S = np.zeros(self.values.shape[:1] + (self.nodes.size,) * 2)
        self.S[:, 1:] = np.einsum("rjq,jqi->rji", self.gw * self.values, _RESAMPLING)

    def _from_nodes(self, f: TimeKernel, times: np.ndarray) -> np.ndarray | None:
        """on_grid from f at the nodes, and the factor if they resolve f; else the
        orthonormal basis of their range, (n^2, terms) in C order, that `_sample` extends."""
        samples = f.at_many(self.nodes)
        _refuse_nonfinite(f, np.abs(samples).max())
        self.on_grid = ChebKernel(f.space, self.horizon, f.weight, samples)
        flat = samples.reshape(samples.shape[0], -1)
        _, sv, Vt = np.linalg.svd(flat, full_matrices=False)
        # resolved if its series chops
        if ChebSeries(f.space, self.horizon, f.weight, DCT_ROWS @ flat).degree < len(times):
            Q = Vt[:int(np.sum(sv > RANK_CUT * sv[0]))]
            # the panel rows mirrored, applied to phi_r(t_i) = <M_r, f(t_i)>
            self.values = np.moveaxis(_RESAMPLING[:, ::-1] @ (flat @ Q.T), -1, 0)
            self.matrices = Q.reshape((-1,) + samples.shape[1:])
            return None
        return Vt[:int(np.sum(sv > U * sv[0]))].T.copy()  # a copy: Vt goes before the pass

    def _sample(self, f: TimeKernel, times: np.ndarray, Q: np.ndarray):
        # Q: orthonormal columns spanning the node samples, extended where a block needs it
        self.values = np.empty((Q.shape[1],) + times.shape)
        low = missed = 0.0  # sums of squares of the first coefficient row and of the residual
        for j, ts in enumerate(times):
            yield
            F = f.at_many(ts)
            _refuse_nonfinite(f, np.abs(F).max())
            F = F.reshape(len(ts), -1)
            self.values[:, j] = Q.T @ F.T
            R = F - self.values[:, j].T @ Q.T
            low += np.vdot(self.values[:1, j], self.values[:1, j])  # 0 while Q is empty
            allow = max(RANK_CUT ** 2 * low - missed, 0.0)
            if np.vdot(R, R) > allow:
                # the fewest leading right singular vectors of R whose tail is within allow
                _, s, Vt = np.linalg.svd(R, full_matrices=False)
                V = Vt[:s.size - int(np.sum(np.cumsum(s[::-1] ** 2) <= allow))].T
                Q = np.hstack([Q, np.linalg.qr(V - Q @ (Q.T @ V))[0]])
                self.values = np.concatenate([self.values, np.zeros((V.shape[1],) + times.shape)])
                self.values[:, j] = Q.T @ F.T
                R = F - self.values[:, j].T @ Q.T
            missed += np.vdot(R, R)
        # one SVD of the coefficients recuts the terms at RANK_CUT of the largest
        P, sv, Vt = np.linalg.svd(self.values.reshape(Q.shape[1], times.size),
                                  full_matrices=False)
        rank = int(np.sum(sv > RANK_CUT * sv[0])) if sv.size else 0  # none for a zero kernel
        self.values = (sv[:rank, None] * Vt[:rank]).reshape((rank,) + times.shape)
        self.matrices = (Q @ P[:, :rank]).T.reshape(-1, f.n, f.n)

    def convolve(self, g: ChebKernel) -> ChebKernel:
        """f * g at the grid nodes from g's terms there."""
        return self._apply(self.S, g.psi, g.C)

    def self_convolve(self) -> ChebKernel:
        """f * f at the grid nodes, f(tau_jq) read from the factor too: the
        panels mirror each other about t_j / 2, so tau_jq = t_j - tau_j(2p-1-q)."""
        coef = np.zeros((self.values.shape[0], self.nodes.shape[0], self.values.shape[0]))
        coef[:, 1:] = np.einsum("rjq,sjq->rjs", self.gw * self.values, self.values[:, :, ::-1])
        return self._apply(coef, None, self.matrices)

    def _apply(self, left, psi, C) -> ChebKernel:
        # R S terms (left_r psi_s, M_r W C_s), psi None the identity, or from m+1 on `product`
        (R, m1), (S, n) = left.shape[:2], C.shape[:2]
        if R * S < m1:
            coef = left if psi is None else left @ psi
            return ChebKernel(self.space, self.horizon, self.weight,
                              np.matmul(self.paired[:, None], C[None]).reshape(R * S, n, n),
                              coef.transpose(1, 0, 2).reshape(m1, R * S))
        return ChebKernel(self.space, self.horizon, self.weight,
                          self.product(left, psi, C).reshape(m1, n, n))

    def product(self, left, psi, C, rows=None, plus=None) -> np.ndarray:
        """rows sum_r (left_r psi) @ (M_r W C), one (m+1) x n^2 block, psi and rows None the
        identity: a dense fold, or a build's coefficients (`neumann`).  Node terms plus, psi_+ (x)
        C_+, ride in the r = 0 product, rows [left_0 psi | psi_+] @ [M_0 W C ; C_+]: one block."""
        S, n = C.shape[:2]
        L, *rest = left if psi is None else left @ psi
        right = np.empty((S + (0 if plus is None else len(plus.C)), n, n))
        left_multiply(self.paired[0], C, out=right[:S])
        if plus is not None:
            right[S:] = plus.C
            L = np.hstack([L, np.eye(len(L)) if plus.psi is None else plus.psi])
        out = (L if rows is None else rows @ L) @ right.reshape(len(right), -1)
        del right
        for L, MW in zip(rest, self.paired[1:]):
            out += (L if rows is None else rows @ L) @ left_multiply(MW, C).reshape(S, -1)
        return out


class FoldCache:
    """Iterated self-convolutions of a kernel, streamed forward on one grid.

    fold(1) is the kernel itself; fold(l) is f * fold(l-1) on the Chebyshev
    grid of [0, horizon], R^l terms (dense from m+1 on) made by the R-term
    TimeFactor of f there: fold(2) from the factor alone, later folds from
    their predecessor's terms, so no fold recurses.  Only f and the newest fold are held:
    fold(l) returns either of them or advances to a later l, dropping the
    fold it leaves behind, and raises for a level in between.  f is a kernel,
    factored here on [0, horizon] (its own horizon by default), or a TimeFactor
    of one, whose grid it keeps and whose node samples serve as fold 1.
    """

    def __init__(self, f: TimeKernel | TimeFactor, horizon: float | None = None):
        if isinstance(f, TimeFactor):
            self.factor, f = f, f.on_grid
        else:
            self.factor = TimeFactor(f, horizon if horizon is not None else f.horizon)
        self.f = f
        self.quad = DEFAULT_QUAD
        self.horizon = self.factor.horizon
        self.nodes = self.factor.nodes
        self._folds = {1: f}

    def fold(self, ell: int) -> TimeKernel:
        top = max(self._folds)
        if ell < 1 or 1 < ell < top:
            raise DimensionMismatch(
                f"fold {ell} is not held: the cache holds 1 and {top} and only advances")
        while top < ell:
            self._folds[top + 1] = (self.factor.convolve(self._folds.pop(top)) if top > 1
                                    else self.factor.self_convolve())
            top += 1
        return self._folds[ell]
