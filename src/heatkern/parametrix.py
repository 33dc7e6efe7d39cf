"""Small-time starter kernels and their validation.

A parametrix is a kernel H(x, y; t) that reproduces functions in the
small-time limit (the Dirac property) and whose image under the heat
operator, L_x H = d/dt H + A_x H with A the generator acting in the first
variable, vanishes like t^k at small times.  A starter declares its order
k; the build certifies the kernel it makes, whatever the starter.

Four families are provided: the identity-at-time-zero kernel (order 0,
exact Dirac property), distance-profile kernels normalized to unit mass
per row, truncated eigenbasis kernels (whose heat image vanishes
identically), and reproducing-kernel starters paired through the inverse
Gram matrix.  ``validate`` measures the Dirac residual on a shrinking
time grid, fits the observed order of the heat image, and reports which
pairing flavors pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTruncation,
    DimensionMismatch,
    NotPositiveDefinite,
    NotReproducing,
)
from .space import (
    Conductance,
    PointSpace,
    generator,
    graph_distances,
)
from .spectral import eigh_weighted
from .timekernel import ClosedFormKernel, SeparableKernel, TimeKernel, constant_kernel, pair, sup_norms


@dataclass
class ParametrixReport:
    """Validation outcome for a starter kernel."""

    family: str
    order_k: int
    dirac_residual: float
    residual_ts: np.ndarray
    residual_values: np.ndarray
    fitted_order: float
    flavors: dict
    passed: bool
    failed_checks: tuple = ()


@dataclass
class Parametrix:
    """A starter kernel with its heat image and declared order.

    order_k declares |L_x H(x, y; t)| = O(t^k), which `validate` fits.  A
    nonzero rate declares the time scale 1/rate on which the starter itself
    varies when the generator does not show it (the imported starter of a
    rebuild); `validate` fits the order below it and the build's base
    horizon resolves it.  weight is the convolution pairing the starter
    expects: a measure vector, or the inverse Gram matrix for
    reproducing-kernel starters.  A parametrix holds no validation outcome:
    `build_heat_kernel` validates it on every build.
    """

    H: TimeKernel
    heat_image: TimeKernel
    order_k: int
    family: str
    space: PointSpace
    conductance: Conductance
    kind: str
    generator_matrix: np.ndarray
    weight: np.ndarray
    gram: np.ndarray | None = None
    rate: float = 0.0
    # Whether H is analytic in t on [0, horizon] (profiles decay like exp(-d/t)
    # at t = 0).  Only bench/spans.py reads it: the build certifies any starter.
    analytic_in_time: bool = True


def dirac_parametrix(space: PointSpace, conductance: Conductance,
                     kind: str = "combinatorial", horizon: float = 10.0) -> Parametrix:
    """Starter equal to the identity kernel delta_xy / mu(y) at every time.

    Exact Dirac property; heat image is the constant matrix A D^-1, so the
    order is 0.
    """
    A, mu = generator(space, conductance, kind)
    H0 = np.diag(1.0 / mu)
    H = constant_kernel(space, horizon, mu, H0, name="dirac")
    image = constant_kernel(space, horizon, mu, A @ H0, name="dirac-image")
    return Parametrix(H, image, 0, "dirac", space, conductance, kind, A, mu)


def _epanechnikov(u):
    inside = u < 1.0
    Fd = np.multiply(-1.5, u, out=np.zeros_like(u), where=inside)
    u *= u
    np.subtract(1.0, u, out=u)
    u *= 0.75
    u[~inside] = 0.0
    return u, Fd


def _exponential(u):
    F = np.exp(np.negative(u, out=u), out=u)
    return F, -F


# Each profile maps a block u = d / t, which it overwrites, to (F(u), F'(u)).
_PROFILES = {"epanechnikov": _epanechnikov, "exponential": _exponential}


def profile_parametrix(space: PointSpace, conductance: Conductance,
                       profile: str = "epanechnikov", order: int = 0,
                       kind: str = "combinatorial", horizon: float = 10.0) -> Parametrix:
    """Starter H(x, y; t) = F(d(x, y) / t) / S(x, t), unit row mass in mu.

    F is the named profile shape; d is the shortest-path distance with
    edge length 1/weight; S(x, t) = sum_y F(d(x,y)/t) mu(y) normalizes the
    row, >= F(0) mu(x) > 0 as d(x, x) = 0.  The declared order is recorded
    as given; the empirical order lands in the validation report.
    """
    if profile not in _PROFILES:
        raise DimensionMismatch(
            f"unknown profile {profile!r}; expected one of {tuple(_PROFILES)}"
        )
    profile_fn = _PROFILES[profile]
    A, mu = generator(space, conductance, kind)
    d = graph_distances(space, conductance)
    limit = np.diag(1.0 / mu)
    image_limit = A @ limit

    def shape(ts):
        # F(d/t), F'(d/t) and the row normalizer S, shared by H and its image;
        # rows at t = 0 are taken at the horizon, then set to their limit.
        zero = ts <= 0.0
        t = np.where(zero, horizon, ts)[:, None, None]
        Fv, Fd = profile_fn(d / t)
        return zero, t, Fv, Fd, (Fv @ mu)[:, :, None]

    def H_at(ts):
        zero, _, Fv, _, S = shape(ts)
        Fv /= S
        Fv[zero] = limit
        return Fv

    def image_at(ts):
        # d/dt H + A H, with d/dt H = F'/S - F S'/S^2 (0 at t = 0).
        zero, t, Fv, Fd, S = shape(ts)
        w = np.divide(-d, t ** 2)
        Fd *= w
        Sd = Fd @ mu
        Fd /= S
        H = np.divide(Fv, S, out=w)
        Fv *= Sd[:, :, None] / S ** 2
        Fd -= Fv
        Fd += np.matmul(A, H, out=Fv)
        Fd[zero] = image_limit
        return Fd

    H = ClosedFormKernel(space, horizon, mu, H_at, name=f"profile-{profile}")
    image = ClosedFormKernel(space, horizon, mu, image_at, name=f"profile-{profile}-image")
    return Parametrix(H, image, order, f"profile-{profile}", space, conductance, kind, A, mu,
                      analytic_in_time=False)


def spectral_parametrix(space: PointSpace, conductance: Conductance, n_modes: int,
                        kind: str = "combinatorial", horizon: float = 10.0) -> Parametrix:
    """Starter from the lowest n_modes eigenpairs of the generator.

    Every retained mode solves the heat equation, so the heat image is
    identically zero; what a truncated starter loses is the Dirac
    property, which validation flags whenever n_modes < n.
    """
    if not 1 <= n_modes <= space.n or int(n_modes) != n_modes:  # NaN fails the first test
        raise BadTruncation(
            f"mode count must be an integer in [1, {space.n}], got {n_modes}"
        )
    n_modes = int(n_modes)
    A, mu = generator(space, conductance, kind)
    spec = eigh_weighted(A, mu)
    lam = spec.eigenvalues[:n_modes]
    phi = spec.eigenvectors[:, :n_modes]

    def H_at(ts):
        return (phi * np.exp(np.outer(ts, -lam))[:, None, :]) @ phi.T

    H = ClosedFormKernel(space, horizon, mu, H_at, name=f"spectral-{n_modes}")
    zero = np.zeros((space.n, space.n))
    image = constant_kernel(space, horizon, mu, zero, name="spectral-image")
    return Parametrix(H, image, 0, "spectral", space, conductance, kind, A, mu)


def rkhs_parametrix(space: PointSpace, gram: np.ndarray, conductance: Conductance,
                    kind: str = "combinatorial", horizon: float = 10.0) -> Parametrix:
    """Starter exp(-t) G(x, y) for a reproducing kernel G, paired by G^-1.

    The Dirac property holds in the kernel's own Hilbert pairing
    <f, g> = f^T G^-1 g, not against the base measure; validation reports
    the 'hilbert' flavor for it.  Requires G symmetric positive definite.
    """
    G = np.asarray(gram, dtype=float)
    if G.shape != (space.n, space.n):
        raise DimensionMismatch("gram matrix does not match the space")
    if not (np.isfinite(G).all()
            and float(np.max(np.abs(G - G.T))) <= 1e-12 * max(1.0, float(np.max(np.abs(G))))):
        raise NotPositiveDefinite("gram matrix is not finite and symmetric")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("gram matrix is not positive definite") from None
    Ginv = np.linalg.inv(G)
    Ginv = (Ginv + Ginv.T) / 2.0
    repro = float(np.max(np.abs(G @ Ginv - np.eye(space.n))))
    if repro > 1e-8:
        raise NotReproducing(
            f"gram matrix is too ill-conditioned to reproduce point evaluations "
            f"(identity residual {repro:.3e})"
        )
    A, _ = generator(space, conductance, kind)
    B = A @ G - G

    H = SeparableKernel(space, horizon, Ginv, lambda t: np.exp(-t), G, name="rkhs")
    image = SeparableKernel(space, horizon, Ginv, lambda t: np.exp(-t), B, name="rkhs-image")
    return Parametrix(H, image, 0, "rkhs", space, conductance, kind, A, Ginv, gram=G)


# ------------------------------------------------------------- validation

def _monotone_to_zero(res: np.ndarray, tolerance: float) -> bool:
    # res is ordered along decreasing t; it must not grow on the way down.
    for a, b in zip(res, res[1:]):
        if b > a * (1.0 + 1e-9) + 1e-13:
            return False
    return res[-1] <= tolerance


def validate(parametrix: Parametrix, tolerance: float = 1e-6) -> ParametrixReport:
    """Measure the Dirac residual, fit the heat-image order, and judge.

    H is evaluated once, on a decreasing time grid of 13 times ending at
    t = 0, and the Dirac residual is read from that block in three
    flavors: sup, max_{x,z} |(H(t) . mu) - I| against the base measure;
    L2, the mu-weighted row 2-norms of the same difference; and Hilbert,
    the sup residual under the starter's own pairing (the sup flavor again
    for a measure pairing).  Each must shrink monotonically and land below
    `tolerance` (times sqrt(mu(X)) for L2).  The order fit is the log-log
    slope of the sup-norm of the heat image, evaluated once at 20 times
    across [1e-3, 1e-1] (clipped to the horizon), or across the two
    decades below 0.1/rate when the starter declares a rate; it must reach
    the declared order minus 0.1, and is inf when the image vanishes.  The
    starter passes if any flavor passes both checks.  The report is
    returned and kept nowhere: `build_heat_kernel` runs its own validation
    at the default tolerance, so `tolerance` shapes only this report.
    """
    H = parametrix.H
    horizon = H.horizon
    k = parametrix.order_k

    top = min(0.1, horizon / 2.0)
    ts_desc = np.concatenate([np.geomspace(top, top * 1e-3, 12), [0.0]])
    pairing = parametrix.weight
    measure = pairing if pairing.ndim == 1 else H.space.lam
    Hs = H.at_many(ts_desc)
    eye = np.eye(H.n)
    diff = pair(Hs, measure) - eye
    res_l2 = np.max(np.sqrt(np.square(diff) @ measure), axis=1)
    res_measure = sup_norms(diff)
    res_hilbert = res_measure if pairing.ndim == 1 else sup_norms(pair(Hs, pairing) - eye)

    lo = min(1e-3, horizon / 100.0)
    hi = min(0.1, horizon / 2.0)
    if parametrix.rate:
        # The starter relaxes on the time scale 1/rate.  A window reaching
        # 1/rate sees that decay (slopes near -0.1), not the order, so the
        # fit stays a decade below it.
        hi = min(hi, 0.1 / parametrix.rate)
        lo = hi / 100.0
    ts_fit = np.geomspace(lo, hi, 20)
    sup_vals = parametrix.heat_image.per_time(ts_fit, sup_norms)
    if np.max(sup_vals) < 1e-250:
        fitted = np.inf  # the heat image vanishes identically
    else:
        clipped = np.clip(sup_vals, 1e-300, None)
        fitted = float(np.polyfit(np.log(ts_fit), np.log(clipped), 1)[0])

    order_ok = fitted >= k - 0.1
    dirac_sup = _monotone_to_zero(res_measure, tolerance)
    dirac_l2 = _monotone_to_zero(res_l2, tolerance * np.sqrt(float(measure.sum())))
    dirac_hil = _monotone_to_zero(res_hilbert, tolerance)
    flavors = {
        "1-infty": bool(dirac_sup and order_ok),
        "2-2": bool(dirac_l2 and order_ok),
        "hilbert": bool(dirac_hil and order_ok),
    }
    passed = any(flavors.values())
    checks = (("dirac limit", dirac_sup or dirac_l2 or dirac_hil), ("order fit", order_ok))
    return ParametrixReport(
        family=parametrix.family,
        order_k=k,
        dirac_residual=float(res_hilbert[-1]),  # res_measure for a measure pairing
        residual_ts=ts_desc,
        residual_values=res_hilbert,
        fitted_order=fitted,
        flavors=flavors,
        passed=passed,
        failed_checks=() if passed else tuple(name for name, ok in checks if not ok),
    )
