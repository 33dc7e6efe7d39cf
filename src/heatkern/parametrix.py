"""Small-time starter kernels and their validation.

A parametrix is a kernel H(x, y; t) that reproduces functions in the
small-time limit (the Dirac property) and whose image under the heat
operator, L_x H = d/dt H + A_x H with A the generator acting in the first
variable, stays bounded by an envelope C t^k on the build horizon.  The
order k controls how fast the series correction built on top of H decays.

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
    order_note: str
    envelope_constant: float
    flavors: dict
    passed: bool
    failed_checks: tuple = ()


@dataclass
class Parametrix:
    """A starter kernel with its heat image and declared envelope.

    envelope is {'C': float} declaring |L_x H(x, y; t)| <= C t^k on the
    horizon, with k = order_k, a claim `validate` checks (the build's
    certificate does not rest on it); an optional 'rate' declares the time
    scale 1/rate on which the starter itself varies when the generator does
    not show it (the imported starter of a rebuild).  weight is the convolution
    pairing the starter expects: a measure vector, or the inverse Gram
    matrix for reproducing-kernel starters.  A parametrix holds no
    validation outcome: `build_heat_kernel` validates it on every build.
    """

    H: TimeKernel
    heat_image: TimeKernel
    order_k: int
    family: str
    envelope: dict
    space: PointSpace
    conductance: Conductance
    kind: str
    generator_matrix: np.ndarray
    weight: np.ndarray
    gram: np.ndarray | None = None
    # Whether H is analytic in t on [0, horizon] (profiles decay like exp(-d/t)
    # at t = 0).  Only bench/spans.py reads it: the build certifies any starter.
    analytic_in_time: bool = True


def dirac_parametrix(space: PointSpace, conductance: Conductance,
                     kind: str = "combinatorial", horizon: float = 10.0) -> Parametrix:
    """Starter equal to the identity kernel delta_xy / mu(y) at every time.

    Exact Dirac property; heat image is the constant matrix A D^-1, so the
    order is 0 with envelope constant max |A D^-1|.
    """
    A, mu = generator(space, conductance, kind)
    H0 = np.diag(1.0 / mu)
    LH = A @ H0
    C = float(np.max(np.abs(LH)))
    H = constant_kernel(space, horizon, mu, H0, name="dirac")
    image = constant_kernel(space, horizon, mu, LH, name="dirac-image")
    return Parametrix(H, image, 0, "dirac", {"C": C},
                      space, conductance, kind, A, mu)


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
    ts = np.geomspace(horizon * 1e-5, horizon, 160)
    sup = np.max(image.per_time(ts, sup_norms) / (ts ** order if order else 1.0))
    C = float(sup) * 1.05 + 1e-300
    return Parametrix(H, image, order, f"profile-{profile}",
                      {"C": C},
                      space, conductance, kind, A, mu,
                      analytic_in_time=False)


def spectral_parametrix(space: PointSpace, conductance: Conductance, n_modes: int,
                        kind: str = "combinatorial", horizon: float = 10.0) -> Parametrix:
    """Starter from the lowest n_modes eigenpairs of the generator.

    Every retained mode solves the heat equation, so the heat image is
    identically zero; what a truncated starter loses is the Dirac
    property, which validation flags whenever n_modes < n.
    """
    if int(n_modes) != n_modes or not 1 <= n_modes <= space.n:
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
    return Parametrix(H, image, 0, "spectral", {"C": 0.0},
                      space, conductance, kind, A, mu)


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
    if float(np.max(np.abs(G - G.T))) > 1e-12 * max(1.0, float(np.max(np.abs(G)))):
        raise NotPositiveDefinite("gram matrix is not symmetric")
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
    C = float(np.max(np.abs(B)))
    return Parametrix(H, image, 0, "rkhs", {"C": C},
                      space, conductance, kind, A, Ginv, gram=G)


# ------------------------------------------------------------- validation

def _dirac_residuals(H: TimeKernel, pairing: np.ndarray, ts: np.ndarray) -> np.ndarray:
    eye = np.eye(H.n)
    return H.per_time(ts, lambda M: sup_norms(pair(M, pairing) - eye))


def _monotone_to_zero(res: np.ndarray, tolerance: float) -> bool:
    # res is ordered along decreasing t; it must not grow on the way down.
    for a, b in zip(res, res[1:]):
        if b > a * (1.0 + 1e-9) + 1e-13:
            return False
    return res[-1] <= tolerance


def validate(parametrix: Parametrix, tolerance: float = 1e-6) -> ParametrixReport:
    """Measure the Dirac residual, fit the heat-image order, and judge.

    The Dirac residual max_{x,z} |(H(t) . pairing) - I| is evaluated on a
    decreasing time grid ending at t = 0; it must shrink monotonically and
    land below `tolerance`.  The order fit is the log-log slope of the
    sup-norm of the heat image at 20 times across [1e-3, 1e-1] (clipped
    to the horizon), or across the two decades below 0.1/rate when the
    envelope declares a rate; it must reach the declared order minus 0.1.
    Both checks run under the sup, L2, and Hilbert pairing flavors, and
    the starter passes if any flavor does and the heat image stays under
    its declared envelope C t^k.  The report is returned and kept nowhere:
    `build_heat_kernel` runs its own validation at the default tolerance,
    so `tolerance` shapes only this report.
    """
    H = parametrix.H
    horizon = H.horizon
    k = parametrix.order_k
    C = parametrix.envelope["C"]

    top = min(0.1, horizon / 2.0)
    ts_desc = np.concatenate([np.geomspace(top, top * 1e-3, 12), [0.0]])
    measure = parametrix.weight if parametrix.weight.ndim == 1 else H.space.lam
    res_measure = _dirac_residuals(H, measure, ts_desc)
    if parametrix.weight.ndim == 2:
        res_hilbert = _dirac_residuals(H, parametrix.weight, ts_desc)
    else:
        res_hilbert = res_measure

    lo = min(1e-3, horizon / 100.0)
    hi = min(0.1, horizon / 2.0)
    rate = parametrix.envelope.get("rate")
    if rate:
        # The starter relaxes on the time scale 1/rate.  A window reaching
        # 1/rate sees that decay (slopes near -0.1), not the order, so the
        # fit stays a decade below it.
        hi = min(hi, 0.1 / rate)
        lo = hi / 100.0
    ts_fit = np.geomspace(lo, hi, 20)
    sup_vals = parametrix.heat_image.per_time(ts_fit, sup_norms)
    if np.max(sup_vals) < 1e-250:
        fitted = np.inf
        order_note = "heat image vanishes identically; order fit skipped"
        env_ok = True
        measured_C = 0.0
    else:
        clipped = np.clip(sup_vals, 1e-300, None)
        fitted = float(np.polyfit(np.log(ts_fit), np.log(clipped), 1)[0])
        order_note = ""
        env_ok = bool(np.all(sup_vals <= C * ts_fit ** k * (1.0 + 1e-6) + 1e-9))
        measured_C = float(np.max(sup_vals / np.clip(ts_fit ** k, 1e-300, None)))

    order_ok = (fitted == np.inf) or (fitted >= k - 0.1)
    dirac_sup = _monotone_to_zero(res_measure, tolerance)
    dirac_hil = _monotone_to_zero(res_hilbert, tolerance)

    # L2 flavor: same limit, measured in mu-weighted row 2-norms.
    eye = np.eye(H.n)
    res_l2 = H.per_time(ts_desc, lambda M: np.max(
        np.sqrt(np.square(pair(M, measure) - eye) @ measure), axis=1))
    dirac_l2 = _monotone_to_zero(res_l2, tolerance * np.sqrt(float(measure.sum())))

    flavors = {
        "1-infty": bool(dirac_sup and order_ok and env_ok),
        "2-2": bool(dirac_l2 and order_ok),
        "hilbert": bool(dirac_hil and order_ok),
    }
    # The envelope is the starter's own claim about its heat image, checked
    # here alone: no flavor passes a starter that breaks it.
    passed = env_ok and any(flavors.values())
    checks = (("dirac limit", dirac_sup or dirac_l2 or dirac_hil),
              ("order fit", order_ok), ("envelope", env_ok))
    return ParametrixReport(
        family=parametrix.family,
        order_k=k,
        dirac_residual=float(res_hilbert[-1]),  # res_measure for a measure pairing
        residual_ts=ts_desc,
        residual_values=res_hilbert,
        fitted_order=fitted,
        order_note=order_note,
        envelope_constant=measured_C if not np.isinf(fitted) else 0.0,
        flavors=flavors,
        passed=passed,
        failed_checks=() if passed else tuple(name for name, ok in checks if not ok),
    )
