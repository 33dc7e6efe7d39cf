"""Quantities derived from a constructed heat kernel.

Everything here comes in two routes wherever the underlying object admits
one: a spectral formula summed over eigenpairs, and a time-domain formula
integrating the constructed kernel.  The pairs are kept separate on
purpose; their agreement is the cross-check that the construction is
right, so nothing below shares intermediate results between routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedSpace,
    NoConvergenceBudget,
    NonpositiveEntry,
    NonpositiveShift,
    NonpositiveTime,
    NotStochasticallyComplete,
    TailUncontrolled,
)
from .space import Conductance, PointSpace, connected_components, generator
from .spectral import SpectralData, eigh_weighted, spectral_heat  # noqa: F401 (bench wraps it)
from .timekernel import gauss_legendre, pair
from .neumann import HeatKernelResult


def _require_connected(space: PointSpace, conductance: Conductance, what: str) -> None:
    comps = connected_components(space, conductance)
    if len(comps) != 1:
        raise DisconnectedSpace(
            f"{what} needs a connected space; found {len(comps)} components"
        )


def _require_route(spec: SpectralData, K: HeatKernelResult | None, tol: float) -> None:
    """A time route needs a finite positive tol and a kernel paired by spec.mu."""
    if not 0.0 < tol < math.inf:
        raise NoConvergenceBudget(f"tolerance must be positive and finite, got {tol}")
    if K is not None and not (K.weight.ndim == 1 and np.array_equal(K.weight, spec.mu)):
        raise DimensionMismatch("the kernel's pairing is not the spectral data's measure")


def _ground_projector(spec: SpectralData) -> np.ndarray:
    m = spec.zero_multiplicity
    if m != 1:
        raise DisconnectedSpace(
            f"expected a single zero mode, found {m}; the space is not connected"
        )
    phi0 = spec.eigenvectors[:, :1]
    return phi0 @ phi0.T


def _green_spectral(spec: SpectralData) -> np.ndarray:
    live = spec.eigenvalues > spec.zero_tol
    lam = spec.eigenvalues[live]
    phi = spec.eigenvectors[:, live]
    return (phi / lam) @ phi.T


@dataclass
class GreenResult:
    """Regularized inverse of the generator, by both routes.

    horizon is the cutoff of the time integral.  budget is what the two
    routes may differ by: the spectral tail, the quadrature refinement
    error, the kernel's certified error integrated over [0, horizon] (0
    for the spectral integrand), and 1e-10 of roundoff.
    """

    G_star: np.ndarray
    quadrature: np.ndarray
    agreement: float
    tail_bound: float
    quad_error: float
    horizon: float
    budget: float


def _kernel_error_integral(K: HeatKernelResult, T_cut: float) -> float:
    """int_0^T_cut of K's certified error: truncation_bound up to the build
    horizon T, doubled by each squaring past it (up to 2T, 4T, ...)."""
    span, a, b, grow = 0.0, 0.0, K.horizon, 1.0
    while a < T_cut:
        span += grow * (min(b, T_cut) - a)
        a, b, grow = b, 2.0 * b, 2.0 * grow
    return K.truncation_bound * span


def green_regularized(space: PointSpace, conductance: Conductance, spec: SpectralData,
                      K: HeatKernelResult | None = None, tol: float = 1e-8) -> GreenResult:
    """G* = sum over nonzero modes of phi phi^T / lambda, cross-checked.

    The quadrature route integrates K(t) - Pi_0 from 0 out to a cutoff
    where the spectral gap has damped every nonzero mode below tol/10,
    on geometrically growing panels of 16 and then 32 Gauss-Legendre
    points, with K a build's kernel or, when K is None, the spectral heat
    kernel, and spec the combinatorial generator's.  The certified
    pieces are the spectral tail beyond the cutoff, the observed
    quadrature refinement error between the two, and the build's error
    integrated to the cutoff; they sum to `budget`.  K must be paired by
    spec.mu (DimensionMismatch otherwise).
    """
    _require_route(spec, K, tol)
    _require_connected(space, conductance, "regularization")
    if spec.gap <= 1e-8:
        raise TailUncontrolled(
            f"spectral gap {spec.gap:.3g} is below 1e-8; the time integral "
            f"cannot be truncated"
        )
    Pi0 = _ground_projector(spec)
    G = _green_spectral(spec)

    eps = tol / 10.0
    T_cut = math.log(1.0 / eps) / spec.gap

    def integrand(t):
        M = spectral_heat(spec, t) if K is None else K.K.at(t)
        return M - Pi0

    lam_max = max(float(spec.eigenvalues[-1]), spec.gap)
    edges = [0.0, min(1.0 / lam_max, T_cut)]
    while edges[-1] < T_cut:
        edges.append(min(edges[-1] * 2.0, T_cut))

    def integrate(npanel):
        xs, ws = gauss_legendre(npanel)
        total = np.zeros_like(Pi0)
        for a, b in zip(edges, edges[1:]):
            half = (b - a) / 2.0
            mid = (b + a) / 2.0
            for x, w in zip(xs, ws):
                total += (w * half) * integrand(mid + half * x)
        return total

    coarse = integrate(16)
    fine = integrate(32)
    quad_error = float(np.max(np.abs(fine - coarse)))

    live = spec.eigenvalues > spec.zero_tol
    lam = spec.eigenvalues[live]
    phi = spec.eigenvectors[:, live]
    phimax2 = float(np.max(np.abs(phi))) ** 2
    tail = float(np.sum(np.exp(-lam * T_cut))) * phimax2 / spec.gap
    kernel_error = 0.0 if K is None else _kernel_error_integral(K, T_cut)

    return GreenResult(
        G_star=G, quadrature=fine,
        agreement=float(np.max(np.abs(fine - G))),
        tail_bound=tail, quad_error=quad_error, horizon=T_cut,
        budget=tail + quad_error + kernel_error + 1e-10,
    )


def resolvent(spec: SpectralData, s: float) -> np.ndarray:
    """(A + s)^-1 as a spectral sum; requires a strictly positive shift."""
    if not s > 0.0:
        raise NonpositiveShift(f"resolvent shift must be positive, got {s}")
    return (spec.eigenvectors / (spec.eigenvalues + s)) @ spec.eigenvectors.T


def resistance(space: PointSpace, conductance: Conductance,
               spec: SpectralData) -> np.ndarray:
    """R(x, y) = G*(x,x) + G*(y,y) - 2 G*(x,y), spec of the combinatorial generator."""
    _require_connected(space, conductance, "resistance")
    G = _green_spectral(spec)
    d = np.diag(G)
    return d[:, None] + d[None, :] - G - G.T


def resistance_by_current(space: PointSpace, conductance: Conductance,
                          x, y) -> float:
    """Resistance through a unit-current flow problem, no spectral data.

    Solves the generator equation A v = (e_x - e_y) / mu in least-squares
    form and reads off v(x) - v(y); an independent route used to check the
    Green's-function formula.
    """
    _require_connected(space, conductance, "resistance")
    i, j = space.index(x), space.index(y)
    A, mu = generator(space, conductance, "combinatorial")
    rhs = np.zeros(space.n)
    rhs[i] = 1.0 / mu[i]
    rhs[j] -= 1.0 / mu[j]
    v, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return float(v[i] - v[j])


def entropy(result: HeatKernelResult, x, t: float) -> float:
    """E(x, t) = sum_y K(x,y;t) ln K(x,y;t) mu(y), the negative Shannon
    entropy of the heat distribution started at x."""
    if t <= 0.0:
        raise NonpositiveTime(f"entropy needs t > 0, got {t}")
    if result.weight.ndim != 1:
        raise DimensionMismatch("entropy needs a measure-paired kernel")
    mu = result.weight
    i = result.space.index(x)
    row = result.K.at(t)[i]
    mass = float(row @ mu)
    if abs(mass - 1.0) > 1e-8:
        raise NotStochasticallyComplete(
            f"heat mass from {x!r} at t={t} is {mass}, not 1"
        )
    if np.any(row <= 1e-300):
        bad = result.space.points[int(np.argmin(row))]
        raise NonpositiveEntry(
            f"kernel entry K({x!r}, {bad!r}; {t}) is not positive; "
            f"entropy is undefined before the kernel charges every point"
        )
    return float(np.sum(row * np.log(row) * mu))


@dataclass
class PoissonResult:
    """Subordinated kernel exp(-w sqrt(A)), by both routes."""

    spectral: np.ndarray
    subordinated: np.ndarray
    deviation: float
    levels: int
    window: tuple


def poisson_kernel(spec: SpectralData, K: HeatKernelResult | None = None, w: float = 1.0,
                   tol: float = 1e-8) -> PoissonResult:
    """exp(-w sqrt(A)) via the square-root subordination of the heat flow.

    Spectral route: damp each mode by exp(-w sqrt(lambda)).  Time route:
    after substituting t = e^u, the subordination integral becomes

        Pi_0 + w / sqrt(4 pi) * int (K(e^u) - Pi_0)
                                    exp(-w^2 / (4 e^u) - u/2) du

    over a window chosen so both Gaussian-type tails sit below tol/10;
    the trapezoid rule on this doubly exponentially decaying integrand
    converges geometrically under halving, at most nine times.  K is a
    build paired by spec.mu, whose kernel the time route integrates, or
    None for the spectral heat kernel.
    """
    if not 0.0 < w < math.inf:
        raise NonpositiveTime(f"subordination parameter must be positive and finite, got {w}")
    _require_route(spec, K, tol)
    if spec.n > 1 and spec.gap <= 1e-8:
        raise TailUncontrolled(
            f"spectral gap {spec.gap:.3g} is too small to truncate the "
            f"subordination integral"
        )
    lam = np.clip(spec.eigenvalues, 0.0, None)
    phi = spec.eigenvectors
    P_spec = (phi * np.exp(-w * np.sqrt(lam))) @ phi.T

    Pi0 = _ground_projector(spec)
    if spec.zero_multiplicity == spec.n:
        # everything lives in the ground mode (single point); the
        # subordination integrand vanishes identically
        return PoissonResult(
            spectral=P_spec, subordinated=Pi0.copy(),
            deviation=float(np.max(np.abs(Pi0 - P_spec))),
            levels=0, window=(0.0, 0.0),
        )
    def integrand(u):
        t = math.exp(u)
        M = spectral_heat(spec, t) if K is None else K.K.at(t)
        damp = math.exp(-w * w / (4.0 * t) - u / 2.0)
        return (M - Pi0) * damp

    L0 = math.log(10.0 / tol)
    u_min = math.log(w * w / (4.0 * L0)) - 1.0
    u_max = math.log(L0 / spec.gap) + 1.0

    h = (u_max - u_min) / 16.0
    us = np.arange(u_min, u_max + h / 2.0, h)
    vals = [integrand(u) for u in us]
    I = h * (sum(vals) - (vals[0] + vals[-1]) / 2.0)
    levels = 0
    while levels < 9:
        mids = us[:-1] + h / 2.0
        I_new = I / 2.0 + (h / 2.0) * sum(integrand(u) for u in mids)
        h /= 2.0
        us = np.sort(np.concatenate([us, mids]))
        levels += 1
        change = float(np.max(np.abs(I_new - I)))
        I = I_new
        if change < tol / 4.0:
            break

    P_sub = Pi0 + (w / math.sqrt(4.0 * math.pi)) * I
    return PoissonResult(
        spectral=P_spec, subordinated=P_sub,
        deviation=float(np.max(np.abs(P_sub - P_spec))),
        levels=levels, window=(u_min, u_max),
    )


@dataclass
class HeatDiagnostics:
    """Structural health numbers for a constructed kernel."""

    semigroup_defect: float
    min_value: float
    max_mass: float
    min_mass: float
    symmetry_defect: float
    mass_drift: float
    l2_monotone: bool
    t_grid: tuple = field(default=())

    def worst(self) -> float:
        return max(self.semigroup_defect, -min(self.min_value, 0.0),
                   self.symmetry_defect, self.mass_drift)


def _diagnostic_grid(horizon: float) -> tuple:
    return tuple(t for t in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0) if t <= horizon) \
        or (horizon / 4.0, horizon / 2.0, float(horizon))


def semigroup_defect(result: HeatKernelResult, mats=None) -> float:
    """max |K(s + t) - K(s) W K(t)| over pairs s <= t of the times of mats
    (default: K on the `diagnostics` grid), W the pairing; unlike the rest of
    `diagnostics` it holds for a matrix pairing too (K(t) = e^{-tA} G, W = G^-1)."""
    K, W = result.K, result.weight
    if mats is None:
        mats = {t: K.at(t) for t in _diagnostic_grid(result.horizon)}
    ts = tuple(mats)
    defect = 0.0
    for i, ti in enumerate(ts):
        for tj in ts[i:]:
            rhs = pair(mats[ti], W) @ mats[tj]
            defect = max(defect, float(np.max(np.abs(K.at(ti + tj) - rhs))))
    return defect


def diagnostics(result: HeatKernelResult) -> HeatDiagnostics:
    """Evaluate the structural identities a heat kernel must satisfy.

    Checks the semigroup property under the measure pairing, entrywise
    nonnegativity, conservation and drift of total mass, symmetry of
    K(x, y; t) mu(y) in its arguments, and monotone decay of the
    mu-weighted L2 norm of each row, at the times 0.05, 0.2, 0.5, 1, 2 and
    5 that fall within the horizon (or at T/4, T/2 and T when none does),
    each K(t) evaluated once.  The result is returned, not stored.
    """
    if result.weight.ndim != 1:
        raise DimensionMismatch("diagnostics need a measure-paired kernel")
    K = result.K
    mu = result.weight
    t_grid = _diagnostic_grid(result.horizon)
    mats = {t: K.at(t) for t in t_grid}

    # The kernel is a density against mu, so K itself is the symmetric
    # object; K(x,y;t) mu(y) is only self-adjointness, not symmetry.
    min_value = min(float(np.min(M)) for M in mats.values())
    symmetry = max(float(np.max(np.abs(M - M.T))) for M in mats.values())

    masses = {t: M @ mu for t, M in mats.items()}
    max_mass = max(float(np.max(m)) for m in masses.values())
    min_mass = min(float(np.min(m)) for m in masses.values())
    drift = max(float(np.max(np.abs(m - 1.0))) for m in masses.values())

    defect = semigroup_defect(result, mats=mats)

    # mu-weighted L2 norm of t -> K(x, ., t) never grows in t.
    l2_ok = True
    prev_en = None
    for M in [K.at(0.0), *mats.values()]:  # t_grid ascends
        en = (M * M) @ mu
        if prev_en is not None and np.any(en > prev_en * (1.0 + 1e-10) + 1e-12):
            l2_ok = False
        prev_en = en

    return HeatDiagnostics(
        semigroup_defect=defect, min_value=min_value, max_mass=max_mass,
        min_mass=min_mass, symmetry_defect=symmetry, mass_drift=drift,
        l2_monotone=l2_ok, t_grid=t_grid,
    )
