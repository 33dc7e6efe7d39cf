"""Spectral ground truth, independent of the series construction.

The eigensolver is a Jacobi iteration on the measure-symmetrized
generator, in the round-robin parallel ordering of Brent & Luk (SIAM J.
Sci. Stat. Comput. 6, 1985), so each round's disjoint rotations run as
array operations.  It shares no code with the series engine or with any
external eigensolver, so agreement between the engine's kernels and the
spectral expansion is a meaningful cross-check.  A Taylor-core
scaling-and-squaring matrix exponential gives a second, basis-free oracle:
the two oracles work from the same matrix but through unrelated
algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonExceeded,
    NoConvergenceBudget,
    NonpositiveMeasure,
    NotSelfAdjoint,
)


def _round_robin(n: int):
    """Pairs (P, Q), P < Q, of each round of one round-robin sweep over n.

    An odd n gets one phantom index so that m = n + 1 is even; the pair
    holding it has no couplings and is dropped, so that round leaves one
    real index untouched.  Every real pair appears in exactly one of the
    m - 1 rounds, and the pairs of a round are disjoint.
    """
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(np.arange(1, m), r)))
        a, b = order[: m // 2], order[: m // 2 - 1 : -1]
        P, Q = np.minimum(a, b), np.maximum(a, b)
        keep = Q < n
        rounds.append((P[keep], Q[keep]))
    return rounds


def jacobi_eigh(S, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by parallel-ordered Jacobi.

    Each sweep visits every off-diagonal pair once, in the round-robin
    parallel ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6,
    1985): m - 1 rounds of disjoint pairs, m = n rounded up to even.
    Disjoint rotations commute and leave each other's 2x2 blocks alone,
    so a round takes all its angles from the matrix it starts from and
    applies them as whole-array operations.  Sweeps continue until the
    off-diagonal Frobenius norm falls below 1e-14 times the matrix scale;
    NoConvergenceBudget if max_sweeps sweeps do not get there.  Returns
    (eigenvalues ascending, orthonormal eigenvectors as columns).
    """
    A = np.array(S, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    scale = math.sqrt(float(np.sum(A * A))) or 1.0
    skip = 1e-14 * scale * 1e-2
    mask = ~np.eye(n, dtype=bool)
    rounds = _round_robin(n)
    for sweep in range(max_sweeps + 1):
        # Summing the squared off-diagonal entries directly; the textbook
        # ||A||_F^2 - ||diag||^2 form cancels catastrophically once the
        # off part is small and can report zero while entries sit at
        # sqrt(eps) scale.
        off = math.sqrt(max(float(np.sum(A[mask] ** 2)), 0.0))
        if off <= 1e-14 * scale:
            break
        if sweep == max_sweeps:
            raise NoConvergenceBudget(
                f"Jacobi eigensolver left off-diagonal norm {off:.3e} above "
                f"{1e-14 * scale:.3e} after {max_sweeps} sweeps"
            )
        for P, Q in rounds:
            apq = A[P, Q]
            live = np.abs(apq) > skip
            if not live.any():
                continue
            p, q, apq = P[live], Q[live], apq[live]
            theta = (A[q, q] - A[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            cs = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * cs
            col_p, col_q = A[:, p], A[:, q]
            A[:, p] = cs * col_p - sn * col_q
            A[:, q] = sn * col_p + cs * col_q
            row_p, row_q = A[p, :], A[q, :]
            A[p, :] = cs[:, None] * row_p - sn[:, None] * row_q
            A[q, :] = sn[:, None] * row_p + cs[:, None] * row_q
            vp, vq = V[:, p], V[:, q]
            V[:, p] = cs * vp - sn * vq
            V[:, q] = sn * vp + cs * vq
    lam = np.diag(A).copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], V[:, order]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenpairs of a generator, orthonormal in L^2(mu).

    eigenvalues are ascending; eigenvectors are columns of phi with
    sum_x phi_i(x) phi_j(x) mu(x) = delta_ij.  residual records the
    worst-case |A phi - lambda phi| entry observed at construction.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mu: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def zero_tol(self) -> float:
        lam_max = float(self.eigenvalues[-1]) if self.n else 0.0
        return 1e-8 * max(1.0, lam_max)

    @property
    def zero_multiplicity(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))

    @property
    def gap(self) -> float:
        above = self.eigenvalues[self.eigenvalues > self.zero_tol]
        return float(above[0]) if above.size else 0.0


def eigh_weighted(operator, mu) -> SpectralData:
    """Eigendecomposition of an operator self-adjoint in L^2(mu).

    mu is a measure vector, one entry per row of the operator
    (DimensionMismatch otherwise, as for a matrix pairing) with every
    entry finite and positive (NonpositiveMeasure otherwise).  Symmetrizes
    as S = D^{1/2} A D^{-1/2} with D = diag(mu), rejects operators whose
    symmetrized form is not symmetric or not finite (NotSelfAdjoint), runs
    the Jacobi solver, and maps eigenvectors back to mu-orthonormal
    functions phi = D^{-1/2} v.
    """
    A = np.asarray(operator, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != A.shape[:1]:
        raise DimensionMismatch(
            f"eigh_weighted needs a measure vector of length {A.shape[0]}, "
            f"got shape {mu.shape}"
        )
    bad = ~(np.isfinite(mu) & (mu > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonpositiveMeasure(
            f"eigh_weighted needs a finite positive measure, "
            f"got mu[{i}] = {float(mu[i])!r}"
        )
    root = np.sqrt(mu)
    S = (A * root[:, None]) / root[None, :]
    scale = float(np.max(np.abs(S))) or 1.0
    defect = float(np.max(np.abs(S - S.T)))
    # Written so that a NaN defect or scale (a non-finite operator) fails.
    if not defect <= 1e-10 * scale:
        raise NotSelfAdjoint(
            f"operator is not self-adjoint in the given measure "
            f"(symmetrization defect {defect:.3e} at scale {scale:.3e})"
        )
    lam, V = jacobi_eigh((S + S.T) / 2.0)
    phi = V / root[:, None]
    residual = float(np.max(np.abs(A @ phi - phi * lam[None, :])))
    return SpectralData(lam, phi, mu.copy(), residual)


def spectral_heat(spec: SpectralData, t: float) -> np.ndarray:
    """Heat kernel K(x, y; t) = sum_n exp(-lambda_n t) phi_n(x) phi_n(y), an eigenvalue below 0
    by at most the solver's rounding n u max(1, lambda_max) read as 0: K settles at large t."""
    if not 0 <= t < math.inf:
        raise HorizonExceeded(f"time must be finite and nonnegative, got {t}")
    phi, lam = spec.eigenvectors, spec.eigenvalues
    lam = np.where((lam < 0.0) & (lam >= -spec.n * 2.0 ** -53 * max(1.0, *lam[-1:])), 0.0, lam)
    return (phi * np.exp(-lam * t)) @ phi.T


def expm_series(A, t: float) -> np.ndarray:
    """exp(-t A) by scaling and squaring with a truncated Taylor core.

    Scales so the Taylor argument has 1-norm at most 1/2, sums terms until
    they fall below 1e-13 (adjusted for the squarings), then squares back.
    Independent of the eigensolver path.  The s squarings amplify the
    core's rounding by about 2^s, so from s = 53 (t |A|_1 past about 2^51)
    on, where 2^s u >= 1, it raises HorizonExceeded: the 2^53 limit that
    `SemigroupKernel` keeps.  A time or an operator entry that is not
    finite raises HorizonExceeded or NotSelfAdjoint.
    """
    if not math.isfinite(t):
        raise HorizonExceeded(f"time must be finite, got {t}")
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise NotSelfAdjoint("operator has entries that are not finite")
    B = -t * A
    n = B.shape[0]
    norm = float(np.max(np.sum(np.abs(B), axis=0))) if n else 0.0
    s = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    if s >= 53:  # 2^s u >= 1
        raise HorizonExceeded(f"t |A|_1 = {norm:.3g} at t = {t} needs {s} squarings, 52 at most")
    C = B / (2.0 ** s)
    X = np.eye(n)
    term = np.eye(n)
    target = 1e-13 / (2.0 ** (s + 1))
    for j in range(1, 200):
        term = term @ C / j
        X = X + term
        if float(np.max(np.abs(term))) <= target * max(1.0, float(np.max(np.abs(X)))):
            break
    for _ in range(s):
        X = X @ X
    return X
