"""Heat kernel construction by starter kernel plus convolution series.

Writing f = L_x H for the heat image of a validated starter, the exact
kernel is K = H + H * F with F = sum_{l>=1} (-1)^l f^{*l}, the alternating
sum of time-convolution powers.  Each fold picks up a factor t/l from the
time integral, so the series converges factorially once enough terms are
taken; the tail is certified a priori from the envelope |f| <= C t^k and
the row-mass norm of f.

Stiff spaces (large generator norm against the horizon) would overflow
the alternating partial sums long before the factorial decay kicks in, so
the series is built on a short base horizon and extended by the semigroup
(SemigroupKernel); the certificate doubles per doubling of the horizon.
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
    ChebKernel,
    ClosedFormKernel,
    DEFAULT_QUAD,
    FoldCache,
    QuadratureConfig,
    SemigroupKernel,
    TimeFactor,
    TimeKernel,
    convolve,  # noqa: F401  (unused here; bench/spans.py wraps neumann.convolve)
    lobatto_nodes,
    residual_fold_bound,
    row_masses,
    series_tail_bound,
    sup_norms,
)

# Largest admissible (stiffness) x (base horizon) before the series is
# rebuilt on a halved horizon.  Stiffness is the larger of the series
# row-mass scale and the generator's row-sum rate: the first keeps the
# alternating partial sums near unit scale, the second keeps e^{-tA}
# resolvable by the base Chebyshev grid.
THETA = 4.0


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


def build_heat_kernel(parametrix: Parametrix, T: float, tol: float = 1e-8,
                      max_terms: int = 64) -> HeatKernelResult:
    """Construct the heat kernel on [0, T] from a validated starter.

    Validates the starter first, always and with `validate`'s defaults,
    so no earlier or looser validation can reach the series (the report
    lands on the result).  Then picks a base horizon short enough for the
    alternating series to stay well scaled, sums the folds on the
    DEFAULT_QUAD Chebyshev grid, assembles K = H + H * F there, and wraps
    the grid in a SemigroupKernel, which reaches T from binary
    checkpoints.  The certified sup error at T is stored as
    `truncation_bound`; construction refuses a starter that fails
    validation, and refuses to start when the certificate cannot be
    brought under tol.
    """
    if T <= 0.0:
        raise HorizonExceeded(f"horizon must be positive, got {T}")
    if T > parametrix.H.horizon * (1.0 + 1e-9):
        raise HorizonExceeded(
            f"starter was built for horizon {parametrix.H.horizon}, "
            f"cannot construct out to T={T}"
        )
    H, f, weight = parametrix.H, parametrix.heat_image, parametrix.weight
    # The folds, the certificate and H * F all pair under this one weight.
    if not (H.same_space(f) and H.same_pairing(f) and np.array_equal(H.weight, weight)):
        raise SpaceMismatch("starter and heat image must share one space and the starter's weight")
    report = validate(parametrix)
    if not report.passed:
        raise InvalidParametrix(
            f"starter family {parametrix.family!r} failed validation "
            f"({', '.join(report.failed_checks)}: dirac residual "
            f"{report.dirac_residual:.3g}, fitted order "
            f"{report.fitted_order:.3g} vs declared {parametrix.order_k})"
        )

    C = float(parametrix.envelope["C"])
    k = int(parametrix.order_k)
    norm1 = _row_mass_norm(f, weight, _sample_grid(T))
    rate = max(norm1, _operator_rate(parametrix.generator_matrix),
               float(parametrix.envelope.get("rate", 0.0)))

    # Base horizon: halve until both the series and the kernel are tame.
    # Each extra squaring doubles the error amplification but shrinks the
    # series tail superexponentially, so keep halving while the tolerance
    # is out of reach and the amplified slop still leaves room.
    squarings = 0
    if rate * T > THETA:
        squarings = math.ceil(math.log2(rate * T / THETA))
    # Charge the certificate a per-fold resampling slop scaled to the
    # requested tolerance.  The grid is spectrally accurate and exact on
    # polynomial folds, so tightening the budget costs nothing; the floor
    # keeps the claim above roundoff.
    slop = min(1e-13, max(tol * 1e-3, 1e-15))
    terms = None

    def certificate(L, slop_term, charge=0.0):
        # Series tail through the H * F assembly, plus the charged slop and
        # low-rank residual, amplified by the squarings; reads the current
        # base horizon.
        tail = series_tail_bound(C, norm1, k, L, T_base)
        return (tail * (1.0 + T_base * massH) + slop_term + charge) * grow

    while True:
        T_base = T / (2 ** squarings)
        grow = 2.0 ** squarings
        massH = _row_mass_norm(H, weight, _sample_grid(T_base))
        for L in range(1, max_terms + 1):
            if certificate(L, L * slop) < tol:
                terms = L
                break
        if terms is not None:
            break
        if 2.0 * grow * slop >= tol:
            raise NoConvergenceBudget(
                f"no certificate below tol={tol} within {max_terms} terms: "
                f"base horizon {T_base:.3g}, row-mass norm {norm1:.3g}, "
                f"{squarings} squarings amplify by {grow:.0f}; raise tol "
                f"or max_terms"
            )
        squarings += 1

    def assemble(q):
        # K = H + H * F on the grid of q, and the residual it charges: F's
        # (see residual_fold_bound) through H of row mass <= massH plus its
        # residual's, plus H's residual against |F| <= C T^k e^(norm1 T) / k!.
        cache = FoldCache(f, q, horizon=T_base)
        Fvals = np.zeros((cache.nodes.shape[0], f.n, f.n))
        for ell in range(1, terms + 1):
            Fvals += ((-1) ** ell) * (cache.fold(ell).values if ell > 1 else f.at_many(cache.nodes))
        epsF = residual_fold_bound(cache.factor.residual, cache.factor.residual_mass,
                                   C, norm1, k, T_base)
        # Free the last fold and the factor first: K's samples allocated
        # above them would pin their heap pages until K itself is freed.
        del cache
        Hf = TimeFactor(H, T_base, q)
        Fmax = C * T_base ** k / math.factorial(k) * math.exp(norm1 * T_base)
        charge = epsF * (1.0 + T_base * (massH + Hf.residual_mass)) \
            + T_base * Hf.residual_mass * (Fmax + epsF)
        return H.at_many(Hf.nodes) + Hf.convolve(Fvals), charge

    Kvals, charge = assemble(DEFAULT_QUAD)
    slop_term = terms * slop
    if not parametrix.analytic_in_time:
        # The charged per-fold slop assumes spectral quadrature accuracy.
        # Starters that are merely smooth at t = 0 converge only
        # root-exponentially, so the assumption is unsound for them:
        # assemble once more on a doubled grid, charge twice the observed
        # refinement delta (an upper bound for the finer grid's own
        # error), and keep the finer kernel.
        fine = QuadratureConfig(nodes_per_panel=2 * DEFAULT_QUAD.nodes_per_panel,
                                cheb_degree=2 * DEFAULT_QUAD.cheb_degree)
        fKvals, charge = assemble(fine)
        coarse = ChebKernel(parametrix.space, T_base, weight, Kvals)
        fine_nodes = lobatto_nodes(fine.cheb_degree, T_base)
        measured = float(np.max(np.abs(coarse.at_many(fine_nodes) - fKvals)))
        slop_term = max(slop_term, 2.0 * measured)
        Kvals = fKvals
    bound = certificate(terms, slop_term, charge)
    if bound >= tol:
        raise NoConvergenceBudget(
            f"charged quadrature error {slop_term:.3g} and low-rank residual "
            f"{charge:.3g} on the base grid lift the certificate to "
            f"{bound:.3g}, above tol={tol}; raise tol"
        )
    base = ChebKernel(parametrix.space, T_base, weight, Kvals)

    gram = parametrix.gram
    K = SemigroupKernel(base, horizon=T, weight_inv=gram)
    return HeatKernelResult(
        K=K, terms_used=terms, truncation_bound=bound,
        parametrix_family=parametrix.family, space=parametrix.space,
        conductance=parametrix.conductance, kind=parametrix.kind,
        generator_matrix=parametrix.generator_matrix, weight=weight,
        horizon=T, base_horizon=T_base, squarings=squarings, tol=tol,
        report=report,
    )


def heat_residual(result: HeatKernelResult) -> float:
    """max |d/dt K + A K| at nine nodes of the base grid, by spectral
    differentiation, with the build's own generator A."""
    A, base = result.generator_matrix, result.K.base
    idx = np.linspace(0, base.nodes.shape[0] - 1, 9).astype(int)
    return float(np.max(np.abs(base.dvalues[idx] + A @ base.values[idx])))


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
        raise InvalidParametrix(
            "cross builds need a measure-paired kernel, not a Hilbert pairing"
        )
    old_space = result.space
    if lam is None:
        new_space = old_space
    else:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (old_space.n,):
            raise DimensionMismatch("new measure does not match the space")
        if np.any(lam <= 0.0):
            raise InvalidParametrix("new measure must stay strictly positive")
        new_space = PointSpace(old_space.points, lam)
    cond = conductance if conductance is not None else result.conductance
    if cond.matrix.shape != (old_space.n, old_space.n):
        raise DimensionMismatch("new conductance does not match the space")
    A_new, mu_new = generator(new_space, cond, result.kind)
    A_old = result.generator_matrix
    mu_old = result.weight
    scale = mu_old / mu_new
    Kp = result.K
    horizon = Kp.horizon if T is None else float(T)
    diff = A_new - A_old

    H = ClosedFormKernel(new_space, horizon, mu_new, lambda ts: Kp.at_many(ts) * scale,
                         name="imported")
    image = ClosedFormKernel(new_space, horizon, mu_new, lambda ts: diff @ H.at_many(ts),
                             name="imported-image")
    Cimg = float(np.max(image.per_time(_sample_grid(horizon), sup_norms)))
    Cimg = Cimg * (1.0 + 1e-6) + 1e-300
    # The imported starter varies on the old kernel's time scale even when
    # the perturbation (and hence the series norm) is tiny.
    envelope = {"C": Cimg, "rate": _operator_rate(A_old)}
    p = Parametrix(H, image, 0, "imported", envelope,
                   new_space, cond, result.kind, A_new, mu_new)
    return build_heat_kernel(p, horizon, tol=tol, max_terms=max_terms)
