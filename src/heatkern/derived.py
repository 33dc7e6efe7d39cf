"""Quantities derived from a constructed heat kernel.

Everything here comes in two routes wherever the underlying object admits
one: a spectral formula summed over eigenpairs, and a time-domain formula
integrating the constructed kernel.  A built kernel's Green's function is
integrated with no spectral data but its measure, and its Poisson kernel
with no more than its measure and gap; each time route stops by a proof,
not by a test, and reports the budget the routes may differ by.  The pairs
are kept separate on purpose; their agreement is the cross-check that the
construction is right, so nothing below shares intermediate results
between routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .timekernel import U, pair
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


def _green_spectral(spec: SpectralData) -> np.ndarray:
    live = spec.eigenvalues > spec.zero_tol
    lam = spec.eigenvalues[live]
    phi = spec.eigenvectors[:, live]
    return (phi / lam) @ phi.T


@dataclass
class GreenResult:
    """Regularized inverse of the generator by both routes: G_star the spectral sum,
    quadrature J_N = int_0^N (K(t) - Pi_0) dt by doubling the semigroup to the horizon
    N, tail_bound >= max|G* - J_N|, quad_error >= max|J_N - exact J_N| (the kernel's
    error and the rounding carried through), and budget = tail_bound + quad_error +
    1e-10, what the routes may differ by."""

    G_star: np.ndarray
    quadrature: np.ndarray
    agreement: float
    tail_bound: float
    quad_error: float
    horizon: float
    budget: float


def green_regularized(space: PointSpace, conductance: Conductance, spec: SpectralData,
                      K: HeatKernelResult | None = None, tol: float = 1e-8) -> GreenResult:
    """G* = sum over nonzero modes of phi phi^T / lambda, cross-checked by
    G* = int_0^inf D_t dt, D_t = K(t) - Pi_0, integrated by doubling the semigroup.

    K is a build paired by spec.mu (DimensionMismatch otherwise) or None for
    the spectral heat kernel; spec holds the generator's eigenpairs in L^2(mu).
    On a connected space, with W = diag mu and Pi_0 = 1/mu(X), K >= 0 is
    symmetric and K W stochastic, so with J_N = int_0^N D, J_2N = J_N + J_N W D_N,
    D_2N = D_N W D_N and G* - J_N = G* W D_N (N. J. Higham, Functions of
    Matrices, SIAM 2008, 10.7).  A build starts at N = T_b from K.base(T_b) -
    Pi_0 and the base series' exact integral T_b (sum_{k even} c_k / (1 - k^2)
    - Pi_0) (C. W. Clenshaw & A. R. Curtis, Numer. Math. 2, 1960), with no K.at
    call and only spec.mu read; K None at N = 1/gap from the live modes'
    phi phi^T times (1 - e^{-lambda N}) / lambda and e^{-lambda N}.

    Proof, entrywise.  Let e_J, e_D bound the computed J~, D~ against the exact
    J, D, and a_N, the largest mu-weighted row or column sum of |D~| plus
    mu(X) e_D, bound those of D.  As max|X W D_N| <= a_N max|X|, G* - J_N =
    (G* - J_N) W D_N + J_N W D_N gives the tail bound max|G* - J_N| <=
    max|J_N W D_N| / (1 - a_N) for a_N < 1, from the next increment and its
    error.  With E = computed - exact, J~ W D~ - J W D = E_J W D + J~ W E_D and
    D~ W D~ - D W D = E_D W D + D W E_D + E_D W E_D.  D and J have zero mu-sums
    along rows and columns, so |E W D| = |E W K - E W Pi_0| <= max|E| + Pi_0 m as
    well as a_N max|E|, m the largest |mu-sum| of a row of E, which is the
    computed matrix's (of a column for D W E), and J W E_D = int_0^N K W E_D -
    N Pi_0 W E_D.  With mass(J) = max_x sum_z |J(x, z)| mu(z), the errors grow
    linearly in N before the kernel mixes, as K.error does:

        e_J(2N) <= e_J + min(a_N e_J, e_J + Pi_0 m_J) + rounding
                   + min(mass(J~) e_D, N (e_D + Pi_0 m_D) + mu(X) e_J e_D),
        e_D(2N) <= 2 min(a_N e_D, e_D + Pi_0 m_D) + mu(X) e_D^2 + rounding,

    from e_D = K.error(T_b), which holds on [0, T_b], and e_J = T_b K.error(T_b)
    (0 for K None).  Rounding, to first order in u with g = (n + d + 4) u, d the
    base's kept degree: a product X W Y within g mass(X) max|Y|, a mu-sum within
    g of its absolute terms, a sum within u, the base within g (Pi_0 + max|D|)
    and g T_b (sum |c_k / (1 - k^2)| + Pi_0) (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3).

    It stops at the first N whose tail bound is below min(tol/4, e_J(N)); see
    GreenResult.  TailUncontrolled refuses 53 doublings, a gap at or below 1e-8,
    a second mode within spec.zero_tol, and a tol/10 that is zero or subnormal.
    """
    _require_route(spec, K, tol)
    _require_connected(space, conductance, "regularization")
    if spec.gap <= 1e-8 or spec.zero_multiplicity != 1:
        raise TailUncontrolled(f"spectral gap {spec.gap:.3g} with {spec.zero_multiplicity} zero "
                               f"modes: the time integral cannot be truncated")
    if not tol / 10.0 >= np.finfo(float).tiny:
        raise TailUncontrolled(f"tol/10 = {tol / 10.0:.3g} underflows: no time window meets it")

    mu, mu_X = spec.mu, float(np.sum(spec.mu))
    Pi0 = 1.0 / mu_X
    if K is None:
        live = spec.eigenvalues > spec.zero_tol
        lam, phi = spec.eigenvalues[live], spec.eigenvectors[:, live]
        N, g, e_D, e_J = 1.0 / spec.gap, (spec.n + 4) * U, 0.0, 0.0
        J = (phi * (-np.expm1(-lam * N) / lam)) @ phi.T
        D = (phi * np.exp(-lam * N)) @ phi.T
    else:
        base = K.K.base
        N, g, c = base.horizon, (spec.n + base.degree + 4) * U, base.coeffs[::2]
        w = 1.0 / (1.0 - np.arange(0, base.degree + 1, 2) ** 2.0)
        J = N * (np.tensordot(w, c, 1) - Pi0)
        D = base.at(N) - Pi0
        e_K, sums = K.K.error(N), float(np.max(np.tensordot(np.abs(w), np.abs(c), 1)))
        e_D, e_J = e_K + g * (Pi0 + float(np.max(np.abs(D)))), N * (e_K + g * (sums + Pi0))

    for _ in range(53):
        absD = np.abs(D)
        a = max(float(np.max(mu @ absD)), float(np.max(absD @ mu))) + mu_X * e_D
        mass = float(np.max(np.abs(J) @ mu))
        m_D = max(float(np.max(np.abs(D @ mu))), float(np.max(np.abs(mu @ D)))) + g * a
        m_J = float(np.max(np.abs(J @ mu))) + g * mass
        step = (J * mu) @ D
        e_step = (min(a * e_J, e_J + Pi0 * m_J) + g * mass * float(np.max(absD))
                  + min(mass * e_D, N * (e_D + Pi0 * m_D) + mu_X * e_J * e_D))
        tail = (float(np.max(np.abs(step))) + e_step) / (1.0 - a) if a < 1.0 else math.inf
        if tail < min(tol / 4.0, e_J):
            break
        J += step
        e_J += e_step + U * float(np.max(np.abs(J)))
        e_D = 2.0 * min(a * e_D, e_D + Pi0 * m_D) + mu_X * e_D * e_D + g * a * float(np.max(absD))
        D = (D * mu) @ D
        N *= 2.0
    else:
        raise TailUncontrolled(f"no tail bound below tol={tol} after 53 doublings, t = {N:.3g}")

    G = _green_spectral(spec)
    return GreenResult(G_star=G, quadrature=J, agreement=float(np.max(np.abs(J - G))),
                       tail_bound=tail, quad_error=e_J, horizon=N, budget=tail + e_J + 1e-10)


def resolvent(spec: SpectralData, s: float) -> np.ndarray:
    """(A + s)^-1 as a spectral sum; requires a strictly positive shift."""
    if not s > 0.0:
        raise NonpositiveShift(f"resolvent shift must be positive, got {s}")
    return (spec.eigenvectors / (spec.eigenvalues + s)) @ spec.eigenvectors.T


def resistance(space: PointSpace, conductance: Conductance,
               spec: SpectralData) -> np.ndarray:
    """R(x, y) = G*(x,x) + G*(y,y) - 2 G*(x,y), spec of the combinatorial generator.

    G* drops every mode within spec.zero_tol, so spectral data with a second such
    mode on a connected space (a true eigenvalue that small) is refused with
    TailUncontrolled, as `green_regularized` refuses it."""
    _require_connected(space, conductance, "resistance")
    if spec.zero_multiplicity != 1:
        raise TailUncontrolled(f"{spec.zero_multiplicity} modes within {spec.zero_tol:.3g} of "
                               f"zero on a connected space: G* would drop a true mode")
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
    """exp(-w sqrt(A)) by both routes: spectral, the damped modes; subordinated, one
    trapezoid pass over `nodes` kernel reads in the log-time window (u_lo, u_hi); budget,
    the bound `poisson_kernel` proves on max|subordinated - exact| + 1e-10."""

    spectral: np.ndarray
    subordinated: np.ndarray
    deviation: float
    nodes: int
    window: tuple
    budget: float


def poisson_kernel(spec: SpectralData, K: HeatKernelResult | None = None, w: float = 1.0,
                   tol: float = 1e-8) -> PoissonResult:
    """exp(-w sqrt(A)) via the square-root subordination of the heat flow.

    Spectral route: damp each mode by exp(-w sqrt(lambda)), lambda_0 taken as 0.  Time
    route, t = e^u: exp(-w sqrt(A)) = Pi_0 + int F(u) du, F(u) = c g(u) (K(e^u) - Pi_0), c =
    w / sqrt(4 pi), g(u) = exp(-w^2 / (4 e^u) - u/2), Pi_0 = 1/mu(X), by one trapezoid pass
    h sum_k F(u_k), u_k = u_lo + k h for k = 0..N, u_N >= u_hi.  K is a build paired by
    spec.mu, read once per node, or None for the spectral heat kernel.  TailUncontrolled
    refuses a gap at or below 1e-8 and a window that w or tol make empty or infinite;
    DisconnectedSpace a second mode within spec.zero_tol (the space is not connected, or
    a true eigenvalue is that small).

    Proof, entrywise, with m = min mu, a = pi/4 and n points.  As sum_k phi_k(x)^2 =
    1/mu(x), the exact |K(s) - Pi_0| <= e^{-gap Re s} / m for Re s >= 0; as Re e^{u+iv} >=
    e^u cos a for |v| <= a, and int_0^inf s^{-3/2} e^{-alpha/s - beta s} ds = sqrt(pi/alpha)
    e^{-2 sqrt(alpha beta)}, int |F(u + iv)| du <= M = e^{-w sqrt(gap) cos a} / (m sqrt(cos
    a)).  The bi-infinite sum then misses the integral by at most 2M / (e^{2 pi a/h} - 1)
    (L. N. Trefethen & J. A. C. Weideman, SIAM Review 56(3), 2014, Thm 5.1), within tol/4
    for h = 2 pi a / ln(1 + 8M/tol) or any smaller h, as the cap at a quarter of the window.
    Left: c g(u) / m bounds |F| and increases below s = e^u = w^2/2, so the terms before
    u_lo sum to at most erfc(w / (2 sqrt(s_lo))) / m <= e^{-w^2 / (4 s_lo)} / m, within
    tol/8 for s_lo <= w^2 / (4 max(ln(8 / (m tol)), 1/2)).  Right: c s^{-1/2} e^{-gap s} / m
    bounds |F| and decreases, so the terms past u_N sum to at most c int_{s_hi}^inf s^{-3/2}
    e^{-gap s} ds / m <= w e^{-gap s_hi} / (m sqrt(pi s_hi)) if gap s_hi >= 1, within tol/8
    for s_hi >= max(1, ln(8 w sqrt(gap) / (sqrt(pi) m tol))) / gap.  The window takes each
    edge one unit of log time further out, which keeps both bounds, so that it is empty
    only where these edges cross by two units; the budget evaluates the tails there.  A
    build's kernel adds sum_k h c g(u_k) K.error(e^{u_k}).  Rounding, to first order in u,
    as |D| <= 1/m for D = K(e^z) - Pi_0 on the strip: a node and its time lie within (1 +
    |u_lo| + 2|u_k|) u of u_k, moving F by at most that times c g(u_k) (w^2 / (4 e^{u_k})
    + 2) / m by Cauchy's estimate; a weight rounds within (6 + 4|x_k|) u, x_k the exponent
    of g, D and the product within 2u, the sum within N u, and Pi_0 within (n + 1) u Pi_0
    <= 2u/m (times 1 + sum_k h c g(u_k)) and its sum within u/m.  The budget adds these
    bounds and the 1e-10 the spectral route may miss by.
    """
    if not 0.0 < w < math.inf:
        raise NonpositiveTime(f"subordination parameter must be positive and finite, got {w}")
    _require_route(spec, K, tol)
    if spec.n > 1 and spec.gap <= 1e-8:
        raise TailUncontrolled(f"spectral gap {spec.gap:.3g} is too small to truncate the "
                               f"subordination integral")
    if spec.zero_multiplicity != 1:
        raise DisconnectedSpace(f"expected a single zero mode, found {spec.zero_multiplicity} "
                                f"within {spec.zero_tol:.3g}: the space is not connected, or "
                                f"a true eigenvalue is too small to tell from zero")
    Pi0 = 1.0 / float(np.sum(spec.mu))
    # A 1 = 0 on a connected space; the solver's lambda_0 costs w sqrt|lambda_0| Pi_0
    spec = replace(spec, eigenvalues=np.concatenate(([0.0], spec.eigenvalues[1:])))
    phi = spec.eigenvectors
    P_spec = (phi * np.exp(-w * np.sqrt(spec.eigenvalues))) @ phi.T
    P_sub = np.full((spec.n, spec.n), Pi0)
    if spec.n == 1:  # all in the ground mode: the subordination integrand vanishes
        return PoissonResult(spectral=P_spec, subordinated=P_sub, nodes=0, window=(0.0, 0.0),
                             deviation=float(np.max(np.abs(P_sub - P_spec))), budget=1e-10)

    m, gap, a = float(np.min(spec.mu)), spec.gap, math.pi / 4.0
    # in logs, which stay finite where products of w, m and tol over- or underflow
    ln_mt = math.log(m) + math.log(tol)
    s_lo = w * w / (4.0 * math.e * max(math.log(8.0) - ln_mt, 0.5))
    s_hi = math.e * max(1.0, math.log(8.0 * w) + 0.5 * math.log(gap / math.pi) - ln_mt) / gap
    if not 0.0 < s_lo < s_hi < math.inf:
        raise TailUncontrolled(f"window [{s_lo:.3g}, {s_hi:.3g}] is not finite and increasing")
    u_lo, u_hi = math.log(s_lo), math.log(s_hi)
    y = math.log(8.0 / math.sqrt(math.cos(a))) - w * math.sqrt(gap) * math.cos(a) - ln_mt
    h = min(2.0 * math.pi * a / (max(y, 0.0) + math.log1p(math.exp(-abs(y)))),  # ln(1 + e^y)
            (u_hi - u_lo) / 4.0)
    u = u_lo + h * np.arange(math.ceil((u_hi - u_lo) / h) + 1)
    t = np.exp(u)
    x = -w * w / (4.0 * t) - u / 2.0
    wts = h * (w / math.sqrt(4.0 * math.pi)) * np.exp(x)
    S = np.zeros_like(P_sub)
    for tk, wk in zip(t.tolist(), wts.tolist()):
        S += wk * ((spectral_heat(spec, tk) if K is None else K.K.at(tk)) - Pi0)
    P_sub += S
    kernel = 0.0 if K is None else float(wts @ [K.K.error(tk) for tk in t.tolist()])
    shift = (1.0 + abs(u_lo) + 2.0 * np.abs(u)) * (w * w / (4.0 * t) + 2.0)
    rounding = U / m * (float(wts @ (len(u) + 10.0 + 4.0 * np.abs(x) + shift)) + 3.0)
    tails = (math.erfc(w / (2.0 * math.sqrt(s_lo))) / m
             + w * math.exp(-gap * s_hi) / (m * math.sqrt(math.pi * s_hi)))
    return PoissonResult(spectral=P_spec, subordinated=P_sub, nodes=len(u), window=(u_lo, u_hi),
                         deviation=float(np.max(np.abs(P_sub - P_spec))),
                         budget=tol / 4.0 + tails + kernel + rounding + 1e-10)


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
