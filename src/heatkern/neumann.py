"""Heat kernel construction by starter kernel plus convolution series.

Writing f = L_x H for the heat image of a validated starter, the exact
kernel is K = H + H * F with F = sum_{l>=1} (-1)^l f^{*l}, the alternating
sum of time-convolution powers.  Each fold picks up a factor t/l from the
time integral, so the series converges factorially once enough terms are
taken.  The L-term kernel K_L solves the heat equation up to the next
fold, (d/dt + L_x) K_L = (-1)^L f^{*(L+1)}, so the series stops at the
first fold too small to matter.  The certificate is the defect of the
kernel actually built (`_defect_bound`), whatever the starter.

Stiff spaces (large generator norm against the horizon) would overflow
the alternating partial sums long before the factorial decay kicks in, so
the series is built on a short base horizon and extended by the semigroup
(SemigroupKernel); the certificate grows with the pieces (`_pieces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonExceeded,
    InvalidParametrix,
    NoConvergenceBudget,
    SpaceMismatch,
)
from .space import Conductance, PointSpace, generator
from .parametrix import Parametrix, ParametrixReport, validate
from .timekernel import (
    ChebSeries,
    ClosedFormKernel,
    DEFAULT_QUAD,
    FoldCache,
    SemigroupKernel,
    TimeFactor,
    TimeKernel,
    convolve,  # noqa: F401  (unused here; bench/spans.py wraps neumann.convolve)
    lobatto_nodes,
    row_masses,
)

# Largest admissible (stiffness) x (base horizon) before the series is
# rebuilt on a halved horizon.  Stiffness is the larger of the series
# row-mass scale and the generator's row-sum rate: the first keeps the
# alternating partial sums near unit scale, the second keeps e^{-tA}
# resolvable by the base Chebyshev grid.  So T_base |A|_inf <= THETA.
THETA = 4.0
U = 2.0 ** -53  # unit roundoff of float64


@dataclass
class HeatKernelResult:
    """A constructed heat kernel with its convergence certificate and the
    validation report of the build that made it."""

    K: TimeKernel
    terms_used: int
    truncation_bound: float
    parametrix_family: str
    space: PointSpace
    conductance: Conductance
    kind: str
    generator_matrix: np.ndarray
    weight: np.ndarray
    horizon: float
    base_horizon: float
    squarings: int
    tol: float
    report: ParametrixReport | None = field(default=None, repr=False)


def _operator_rate(A: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(A), axis=1)))


def _row_mass_norm(f: TimeKernel, weight: np.ndarray, ts: np.ndarray) -> float:
    """sup_t max_x sum_z |f(x, z; t)| paired against the weight."""
    return float(np.max(f.per_time(ts, lambda M: row_masses(M, weight))))


def _sample_grid(horizon: float, m: int = 48) -> np.ndarray:
    dense = lobatto_nodes(m, horizon)
    small = np.geomspace(max(horizon * 1e-6, 1e-12), horizon / m, 8)
    return np.unique(np.concatenate([dense, small]))


def _allowance(m, n, h, V0, S0, Z, E0, rho) -> float:
    """Floating-point allowance of one base piece (see `_defect_bound`)."""
    return U * ((n + 1) * E0 + (m + 1) * S0 + Z + (n + 3) * V0
                + (1.0 + h) * ((m + n + 1) * rho + (2.0 + h * (n + 4)) * S0))


def _pieces(eps: float, grow: float, gram: np.ndarray | None) -> float:
    """Error of K over `grow` base pieces within eps each (`SemigroupKernel`);
    inf once a Gram pairing's (1 + eps)^grow passes e^700."""
    if gram is None:
        return eps * grow
    x = grow * math.log1p(eps)
    return float(np.max(np.abs(gram))) * math.expm1(x) if x < 700.0 else math.inf


def _defect_bound(base: ChebSeries, A: np.ndarray, K0: np.ndarray):
    """(E0, rho, allowance): K.at is within E0 + (1 + h) rho + allowance of
    the exact kernel on [0, T_b], h = T_b |A|_inf <= THETA, in |X| = max|X|
    for a measure pairing; for a Gram G = W^-1, K W is, in max_x sum_y |X|.

    The base is K~(t) = sum_k c_k T_k(2t/T_b - 1), c = base.coeffs (c W
    for a Gram); the exact kernel e^{-tA} K(0), K(0) = diag(1/mu) (I for a
    Gram), e^{-sA} stochastic, so |e^{-sA} X| <= |X|.  With r(t) = K~(t) -
    K~(0) + int_0^t A K~ (the defect correction principle, H. J. Stetter,
    Numer. Math. 29, 1978), E = K~ - K solves (E - r)' = -A (E - r) - A r,
    so |E(t)| <= |E(0)| + (1 + h) sup|r|.  r = q(t) - q(0), q = K~ + A
    sum_{k>=1} I_k T_k with I_k = (T_b/4)(c'_{k-1} - c_{k+1})/k (c'_0 =
    2 c_0) the antiderivative's coefficients, so sup|r| <= 2 |sum_{k>=1}
    |c_k + A I_k|| = rho, as |T_k| <= 1 (L. N. Trefethen, Approximation
    Theory and Approximation Practice, 2013).

    Allowance, to first order in u, with S0 = |sum_k |c_k||, so sum_{k>=1}
    |I_k| <= T_b S0 / 2 entrywise, and V0 = |K(0)|: |E(0)| <= E0 + u ((n +
    1) E0 + (m + 1) S0 + V0).  The I_k round within 3u T_b S0 / 2, A I
    within (n + 3) u h S0 / 2, adding c_k within u (h / 2 + 1) S0 and rho
    within (m + n + 1) u rho.  `base.at` rounds row k within 1.5 k^2 u
    (errors follow the recurrence through U_{k-j}, |U_i| <= i + 1, 3u a
    step), x = 2t/T_b - 1 within 3u moves T_k by 3 k^2 u, and the product
    adds (m + 1) u S0: u Z, Z = |sum_k (m + 1 + 4.5 k^2) |c_k||.  A piece
    past T_b carries (n + 2) u V0 of product rounding.  For a Gram, Z is
    in |B| = max_x sum_y (B |W|)(x, y) of the unpaired c, plus 2n u S0 of
    it for c W and K.at's K~ W; and on [0, T_b] K.at is K~, not (K~ W) G,
    which adds |K~| max|I - W G| / max|G|, |K~| <= max_x sum_yk |c_k|.
    """
    m, n, Tb, W = base.degree, base.n, base.horizon, base.weight
    weights = np.stack([np.ones(m + 1), m + 1 + 4.5 * np.arange(m + 1) ** 2])
    SZ = (weights @ np.abs(base.coeffs).reshape(m + 1, -1)).reshape(2, n, n)
    c, gap = base.coeffs, 0.0
    if W.ndim == 2:
        def norm(X):
            return float(X.sum(axis=-1).max())
        SW, Z = (SZ @ np.abs(W)).sum(axis=2).max(axis=1)
        gap = norm(SZ[0]) * (np.max(np.abs(np.eye(n) - W @ K0)) + n * U * np.max(np.abs(W) @ np.abs(K0)))
        gap, Z = float(gap / np.max(np.abs(K0))), float(Z + 2 * n * SW)
        c, K0 = (c.reshape(-1, n) @ W).reshape(c.shape), np.eye(n)
        S0 = norm(np.abs(c).sum(axis=0))
    else:
        def norm(X):
            return float(X.max())
        S0, Z = map(float, SZ.max(axis=(1, 2)))
    E0 = norm(np.abs(np.tensordot((-1.0) ** np.arange(m + 1), c, 1) - K0))
    cc = c.transpose(1, 0, 2)
    # I_1 .. I_{m+1} laid out (n, m + 1, n): one GEMM applies A to them all
    I = np.empty((n, m + 1, n))
    np.subtract(cc[:, :m - 1], cc[:, 2:], out=I[:, :m - 1])
    I[:, 0] = 2.0 * cc[:, 0] - cc[:, 2]
    I[:, m - 1:] = cc[:, m - 1:]
    I *= (Tb / 4.0 / np.arange(1, m + 2))[:, None]
    Q = (A @ I.reshape(n, -1)).reshape(n, m + 1, n)
    Q[:, :m] += cc[:, 1:]
    rho = 2.0 * norm(np.abs(Q, out=Q).sum(axis=1))
    V0 = norm(np.abs(K0))
    return E0, rho, _allowance(m, n, Tb * _operator_rate(A), V0, S0, Z, E0, rho) + gap


def build_heat_kernel(parametrix: Parametrix, T: float, tol: float = 1e-8,
                      max_terms: int = 64) -> HeatKernelResult:
    """Construct the heat kernel on [0, T] from a validated starter.

    Validates the starter first, with `validate`'s defaults (the report
    lands on the result).  On the DEFAULT_QUAD grid of T_b = T /
    2^squarings the folds stream into F until the first fold l whose share
    T_b |W| max|f^{*l}| (|W| = 1 for a measure, the largest row sum of |W|
    for a Gram pairing), carried over the pieces, is below tol / 2; that is
    `terms_used`.  When max_terms folds do not get there, T_b is halved and
    the stream restarts.  K = H + H * F is assembled once, and a
    SemigroupKernel reaches T.  `truncation_bound` is what `_defect_bound`
    proves for one base piece, carried over the 2^squarings pieces of T by
    `_pieces`.  Refuses a tol the allowance alone reaches, and a kernel
    whose bound misses tol.
    """
    if not T > 0.0:
        raise HorizonExceeded(f"horizon must be positive, got {T}")
    if T > parametrix.H.horizon * (1.0 + 1e-9):
        raise HorizonExceeded(f"starter was built for horizon {parametrix.H.horizon}, "
                              f"cannot construct out to T={T}")
    H, f, weight = parametrix.H, parametrix.heat_image, parametrix.weight
    # The folds, the certificate and H * F all pair under this one weight.
    if not (H.same_space(f) and H.same_pairing(f) and np.array_equal(H.weight, weight)):
        raise SpaceMismatch("starter and heat image must share one space and the starter's weight")
    report = validate(parametrix)
    if not report.passed:
        raise InvalidParametrix(
            f"starter family {parametrix.family!r} failed validation "
            f"({', '.join(report.failed_checks)}: dirac residual {report.dirac_residual:.3g}, "
            f"fitted order {report.fitted_order:.3g} vs declared {report.order_k})")

    A, a = parametrix.generator_matrix, _operator_rate(parametrix.generator_matrix)
    norm1 = _row_mass_norm(f, weight, _sample_grid(T))
    rate = max(norm1, a, parametrix.rate)
    gram, m = parametrix.gram if weight.ndim == 2 else None, DEFAULT_QUAD.cheb_degree
    K0 = np.diag(1.0 / weight) if gram is None else gram
    V0 = float(np.max(K0)) if gram is None else 1.0  # |K(0)| in `_defect_bound`'s norm
    # A fold's share of K's error is about T_b |W| max|fold|, as e^{-sA} is
    # stochastic; it only stops the series, `_defect_bound` certifies.
    Wnorm = 1.0 if gram is None else _operator_rate(weight)

    # Halve T_b while max_terms folds do not fall below tol / 2 and the
    # allowance over all pieces still leaves room: a squaring doubles the
    # amplification but shrinks the folds superexponentially.
    squarings = math.ceil(math.log2(rate * T / THETA)) if rate * T > THETA else 0
    while True:
        T_base, grow = T / 2 ** squarings, 2.0 ** squarings
        # the allowance for coefficients the size of K(0)
        fp = _pieces(_allowance(m, f.n, T_base * a, V0, V0, (m + 1) * V0, 0, 0), grow, gram)
        if not fp < tol:  # a NaN tol too
            raise NoConvergenceBudget(
                f"no certificate below tol={tol} within {max_terms} terms: base horizon "
                f"{T_base:.3g}, row-mass norm {norm1:.3g}, and {squarings} squarings lift "
                f"the floating-point allowance to {fp:.3g}; raise tol or max_terms")
        cache = FoldCache(f, horizon=T_base)
        Fvals = np.zeros((cache.nodes.shape[0], f.n, f.n))
        for terms in range(1, max_terms + 1):
            fold = cache.fold(terms).values if terms > 1 else f.at_many(cache.nodes)
            Fvals += (-1) ** terms * fold
            if _pieces(T_base * Wnorm * max(fold.max(), -fold.min()), grow, gram) < tol / 2:
                break
        else:
            squarings += 1
            continue
        break

    # K = H + H * F on the base grid.  Free the last fold and the factor
    # first: K's samples allocated above them would pin their heap pages
    # until K itself is freed.
    del cache, fold
    Hf = TimeFactor(H, T_base, DEFAULT_QUAD)
    base = ChebSeries(parametrix.space, T_base, weight, H.at_many(Hf.nodes) + Hf.convolve(Fvals))
    del Hf, Fvals
    E0, rho, fp = _defect_bound(base, A, K0)
    bound = _pieces(E0 + (1.0 + T_base * a) * rho + fp, grow, gram)
    # the folds left out are below tol / 2: more terms would not lower it
    if bound >= tol:
        raise NoConvergenceBudget(
            f"the built kernel's residual {rho:.3g} (error at t = 0 {E0:.3g}, floating-point "
            f"allowance {fp:.3g}, {squarings} squarings) certifies {bound:.3g} after "
            f"{terms} terms, not below tol={tol}; raise tol")

    return HeatKernelResult(
        K=SemigroupKernel(base, horizon=T, weight_inv=parametrix.gram), terms_used=terms,
        truncation_bound=bound, parametrix_family=parametrix.family, space=parametrix.space,
        conductance=parametrix.conductance, kind=parametrix.kind, generator_matrix=A,
        weight=weight, horizon=T, base_horizon=T_base, squarings=squarings, tol=tol,
        report=report)


def cross_parametrix_build(result: HeatKernelResult,
                           conductance: Conductance | None = None,
                           lam: np.ndarray | None = None,
                           tol: float = 1e-8, T: float | None = None,
                           max_terms: int = 64) -> HeatKernelResult:
    """Rebuild the heat kernel after changing conductances or the measure.

    The previously built kernel, rescaled column-wise to the new measure,
    is itself an order-zero starter for the perturbed space: its heat
    image under the new generator is exactly (A_new - A_old) H, with no
    time-derivative error at all.  Small perturbations therefore converge
    in very few terms.  `build_heat_kernel` validates it and refuses it
    when the two spaces are too far apart for the import to start the
    series.
    """
    if result.weight.ndim != 1:
        raise InvalidParametrix("cross builds need a measure-paired kernel, not a Hilbert pairing")
    old_space = result.space
    if lam is None:
        new_space = old_space
    else:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (old_space.n,):
            raise DimensionMismatch("new measure does not match the space")
        if not np.all((0.0 < lam) & (lam < np.inf)):
            raise InvalidParametrix("new measure must stay strictly positive and finite")
        new_space = PointSpace(old_space.points, lam)
    cond = conductance if conductance is not None else result.conductance
    if cond.matrix.shape != (old_space.n, old_space.n):
        raise DimensionMismatch("new conductance does not match the space")
    A_new, mu_new = generator(new_space, cond, result.kind)
    A_old, mu_old = result.generator_matrix, result.weight
    scale = mu_old / mu_new
    Kp = result.K
    horizon = Kp.horizon if T is None else float(T)
    diff = A_new - A_old

    H = ClosedFormKernel(new_space, horizon, mu_new, lambda ts: Kp.at_many(ts) * scale,
                         name="imported")
    image = ClosedFormKernel(new_space, horizon, mu_new, lambda ts: diff @ H.at_many(ts),
                             name="imported-image")
    # The imported starter varies on the old kernel's time scale even when
    # the perturbation (and hence the series norm) is tiny.
    p = Parametrix(H, image, 0, "imported", new_space, cond, result.kind, A_new, mu_new,
                   rate=_operator_rate(A_old))
    return build_heat_kernel(p, horizon, tol=tol, max_terms=max_terms)
