"""Spectral ground truth, independent of the series construction.

The eigensolver is a cyclic Jacobi iteration on the measure-symmetrized
generator.  It shares no code with the series engine or with any external
eigensolver, so agreement between the engine's kernels and the spectral
expansion is a meaningful cross-check.  A Taylor-core scaling-and-squaring
matrix exponential gives a second, basis-free oracle: the two oracles work
from the same matrix but through unrelated algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSelfAdjoint


def jacobi_eigh(S, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps zero out every off-diagonal pair in turn until the off-diagonal
    Frobenius norm falls below tol times the matrix scale.  Returns
    (eigenvalues ascending, orthonormal eigenvectors as columns).
    """
    A = np.array(S, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return A[0, :1].copy(), V
    scale = math.sqrt(float(np.sum(A * A))) or 1.0
    skip = tol * scale * 1e-2
    mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # Summing the squared off-diagonal entries directly; the textbook
        # ||A||_F^2 - ||diag||^2 form cancels catastrophically once the
        # off part is small and can report zero while entries sit at
        # sqrt(eps) scale.
        off2 = float(np.sum(A[mask] ** 2))
        if math.sqrt(max(off2, 0.0)) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                cs = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * cs
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = cs * col_p - sn * col_q
                A[:, q] = sn * col_p + cs * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = cs * row_p - sn * row_q
                A[q, :] = sn * row_p + cs * row_q
                vp = V[:, p].copy()
                vq = V[:, q].copy()
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
    (DimensionMismatch otherwise, as for a matrix pairing).  Symmetrizes
    as S = D^{1/2} A D^{-1/2} with D = diag(mu), rejects operators whose
    symmetrized form is not symmetric (NotSelfAdjoint), runs the Jacobi
    solver, and maps eigenvectors back to mu-orthonormal functions
    phi = D^{-1/2} v.
    """
    A = np.asarray(operator, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != A.shape[:1]:
        raise DimensionMismatch(
            f"eigh_weighted needs a measure vector of length {A.shape[0]}, "
            f"got shape {mu.shape}"
        )
    root = np.sqrt(mu)
    S = (A * root[:, None]) / root[None, :]
    scale = float(np.max(np.abs(S))) or 1.0
    defect = float(np.max(np.abs(S - S.T)))
    if defect > 1e-10 * scale:
        raise NotSelfAdjoint(
            f"operator is not self-adjoint in the given measure "
            f"(symmetrization defect {defect:.3e} at scale {scale:.3e})"
        )
    lam, V = jacobi_eigh((S + S.T) / 2.0)
    phi = V / root[:, None]
    residual = float(np.max(np.abs(A @ phi - phi * lam[None, :])))
    return SpectralData(lam, phi, mu.copy(), residual)


def spectral_heat(spec: SpectralData, t: float) -> np.ndarray:
    """Heat kernel K(x, y; t) = sum_n exp(-lambda_n t) phi_n(x) phi_n(y)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    phi = spec.eigenvectors
    return (phi * np.exp(-spec.eigenvalues * t)) @ phi.T


def expm_series(A, t: float, tol: float = 1e-13) -> np.ndarray:
    """exp(-t A) by scaling and squaring with a truncated Taylor core.

    Scales so the Taylor argument has 1-norm at most 1/2, sums terms until
    they fall below the (squaring-adjusted) tolerance, then squares back.
    Independent of the eigensolver path.
    """
    B = -t * np.asarray(A, dtype=float)
    n = B.shape[0]
    norm = float(np.max(np.sum(np.abs(B), axis=0))) if n else 0.0
    s = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    C = B / (2.0 ** s)
    X = np.eye(n)
    term = np.eye(n)
    target = tol / (2.0 ** (s + 1))
    for j in range(1, 200):
        term = term @ C / j
        X = X + term
        if float(np.max(np.abs(term))) <= target * max(1.0, float(np.max(np.abs(X)))):
            break
    for _ in range(s):
        X = X @ X
    return X
