import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heatkern import (
    ChebKernel,
    ClosedFormKernel,
    Conductance,
    FoldCache,
    PointSpace,
    QuadratureConfig,
    SemigroupKernel,
    SeparableKernel,
    bound_ell_fold,
    build_heat_kernel,
    build_space,
    convolve,
    dirac_parametrix,
    generator,
    profile_parametrix,
    rkhs_parametrix,
    series_tail_bound,
    spectral_parametrix,
)
from heatkern.timekernel import (
    DEFAULT_QUAD,
    TimeFactor,
    lobatto_nodes,
    residual_fold_bound,
)
from heatkern.errors import (
    DimensionMismatch,
    HorizonExceeded,
    SpaceMismatch,
)

from _graphs import random_connected_graph


def const_kernel(space, M, weight=None, horizon=10.0):
    M = np.asarray(M, dtype=float)
    w = space.lam if weight is None else weight
    return ClosedFormKernel(space, horizon, w, lambda t: M, name="const")


def test_convolve_constant_ones(two_point):
    sp, _, _ = two_point
    ones = const_kernel(sp, np.ones((2, 2)))
    out = convolve(ones, ones, 0.5)
    assert np.max(np.abs(out - 1.0)) < 1e-14


def test_convolve_zero_annihilates(two_point):
    sp, _, _ = two_point
    ones = const_kernel(sp, np.ones((2, 2)))
    zero = const_kernel(sp, np.zeros((2, 2)))
    for t in (0.0, 0.3, 2.0):
        assert np.max(np.abs(convolve(ones, zero, t))) == 0.0


def test_convolve_constant_matrix_squares(rng):
    sp, _, _ = build_space(range(4), None, [(0, 1, 1.0), (1, 2, 1.0),
                                            (2, 3, 1.0), (0, 3, 1.0)])
    A = rng.standard_normal((4, 4))
    f = const_kernel(sp, A)
    out = convolve(f, f, 1.0)
    assert np.max(np.abs(out - A @ A)) < 1e-13 * max(1.0, np.max(np.abs(A @ A)))


def test_convolve_bilinear(two_point, rng):
    sp, _, _ = two_point
    mats = [rng.standard_normal((2, 2)) for _ in range(3)]
    f1 = const_kernel(sp, mats[0])
    f1p = const_kernel(sp, mats[1])
    f2 = const_kernel(sp, mats[2])
    a, b = 1.7, -0.3
    comb = const_kernel(sp, a * mats[0] + b * mats[1])
    lhs = convolve(comb, f2, 1.2)
    rhs = a * convolve(f1, f2, 1.2) + b * convolve(f1p, f2, 1.2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_convolve_quadrature_converged(two_point, rng):
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = ClosedFormKernel(sp, 10.0, sp.lam, lambda t: np.exp(-0.7 * t) * B)
    base = convolve(f, f, 2.0)
    fine = convolve(f, f, 2.0, quad=QuadratureConfig(nodes_per_panel=32, cheb_degree=64))
    assert np.max(np.abs(base - fine)) < 1e-13


def test_convolve_envelope_bound(two_point, rng):
    # |F1 * F2| <= C1 C2 h(x) k! l! / (k+l+1)! t^(k+l+1) + quadrature slack
    sp, _, _ = two_point
    for k, l in ((0, 0), (1, 0), (2, 1)):
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2))
        f1 = ClosedFormKernel(sp, 10.0, sp.lam, lambda t, B=B, k=k: (t ** k) * B)
        f2 = ClosedFormKernel(sp, 10.0, sp.lam, lambda t, C=C, l=l: (t ** l) * C)
        C2 = np.max(np.abs(C))
        h = np.max(np.abs(B), axis=1) * 2.0  # row sums dominate |row|_1 here
        for t in (0.5, 1.0, 3.0):
            out = np.abs(convolve(f1, f2, t))
            cap = (C2 * h[:, None] * math.factorial(k) * math.factorial(l)
                   / math.factorial(k + l + 1) * t ** (k + l + 1))
            assert np.all(out <= cap + 1e-10)


def test_convolve_space_mismatch(two_point, k3):
    sp2, _, _ = two_point
    sp3, _, _ = k3
    f = const_kernel(sp2, np.ones((2, 2)))
    g = const_kernel(sp3, np.ones((3, 3)))
    with pytest.raises(SpaceMismatch):
        convolve(f, g, 0.5)


def test_convolve_pairing_mismatch(two_point):
    sp, _, _ = two_point
    f = const_kernel(sp, np.ones((2, 2)), weight=np.array([1.0, 1.0]))
    g = const_kernel(sp, np.ones((2, 2)), weight=np.array([2.0, 1.0]))
    with pytest.raises(SpaceMismatch):
        convolve(f, g, 0.5)


def test_convolve_horizon_guard(two_point):
    sp, _, _ = two_point
    f = const_kernel(sp, np.ones((2, 2)), horizon=1.0)
    with pytest.raises(HorizonExceeded):
        convolve(f, f, 2.0)
    with pytest.raises(HorizonExceeded):
        convolve(f, f, -0.1)


def test_ell_fold_single_point():
    sp, _, _ = build_space(["o"], None, [("o", "o", 1.0)])
    f = const_kernel(sp, np.ones((1, 1)))
    cache = FoldCache(f)
    for ell in (1, 2, 3, 4, 6):
        want = 1.0 ** (ell - 1) / math.factorial(ell - 1)
        tol = 1e-13 if ell == 3 else 1e-11
        assert cache.fold(ell).at(1.0)[0, 0] == pytest.approx(want, abs=tol)


def test_ell_fold_base_case(two_point, rng):
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = ClosedFormKernel(sp, 10.0, sp.lam, lambda t: np.exp(-t) * B)
    assert np.array_equal(FoldCache(f).fold(1).at(0.7), f.at(0.7))


def test_ell_fold_zero_kernel(two_point):
    sp, _, _ = two_point
    z = const_kernel(sp, np.zeros((2, 2)))
    cache = FoldCache(z)
    for ell in (2, 3):
        assert np.max(np.abs(cache.fold(ell).at(1.0))) == 0.0


def test_ell_fold_rejects_bad_count(two_point):
    sp, _, _ = two_point
    f = const_kernel(sp, np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        FoldCache(f).fold(0)


def test_fold_cache_streams_forward(two_point):
    # the series reads its folds in ascending order, so the cache holds the
    # kernel and the newest fold only; a fold it has left behind raises
    sp, _, _ = two_point
    f = const_kernel(sp, np.ones((2, 2)))
    cache = FoldCache(f)
    top = cache.fold(5)
    assert set(cache._folds) == {1, 5}
    assert cache.fold(5) is top and cache.fold(1) is f
    for ell in (2, 4):
        with pytest.raises(DimensionMismatch):
            cache.fold(ell)
    want = 2.0 ** 5 / math.factorial(5)  # f = J, J J = 2 J: fold 6 is (2t)^5 / 5! J
    assert cache.fold(6).at(1.0)[0, 0] == pytest.approx(want, abs=1e-12)
    assert set(cache._folds) == {1, 6}


def test_dirac_build_peak_memory_is_a_few_fold_blocks():
    # holding every fold put one (m+1, n, n) block per term on the traced
    # peak (27 blocks here); streaming them holds the build to a handful
    rng = np.random.default_rng(60)
    sp, cond, _ = random_connected_graph(rng, n_min=60, n_max=60)
    p = dirac_parametrix(sp, cond, horizon=10.0)
    tracemalloc.start()
    try:
        res = build_heat_kernel(p, T=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (DEFAULT_QUAD.cheb_degree + 1) * sp.n ** 2 * 8
    assert res.terms_used >= 20
    assert peak <= 8 * block, peak / block


# ---------------------------------------------------------------- exact folds

def _poly_convolve_exact(p, q, mu):
    """Exact convolution of matrix polynomials with Fraction coefficients.

    p, q are lists of coefficient matrices (nested lists of Fraction);
    (t^a M) * (t^b N) integrates to t^(a+b+1) a! b! / (a+b+1)! M D_mu N.
    """
    n = len(mu)
    out_deg = len(p) + len(q)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(out_deg)]
    for a, M in enumerate(p):
        for b, N in enumerate(q):
            coef = (Fraction(math.factorial(a)) * math.factorial(b)
                    / math.factorial(a + b + 1))
            for i in range(n):
                for j in range(n):
                    acc = Fraction(0)
                    for z in range(n):
                        acc += M[i][z] * mu[z] * N[z][j]
                    out[a + b + 1][i][j] += coef * acc
    return out


def _poly_eval(p, t):
    n = len(p[0])
    vals = np.zeros((n, n))
    for a, M in enumerate(p):
        vals += float(t) ** a * np.array([[float(e) for e in row] for row in M])
    return vals


def _rational_polynomial_kernel(rng):
    """A degree-2 matrix polynomial in t with rational coefficients on a
    3-point path with measure (1, 2, 1): (kernel, measure, coefficients)."""
    n = 3
    sp, _, _ = build_space(range(n), [1.0, 2.0, 1.0],
                           [(0, 1, 1.0), (1, 2, 1.0)])
    mu = [Fraction(1), Fraction(2), Fraction(1)]
    coeffs = [
        [[Fraction(rng.integers(-3, 4), rng.integers(1, 4)) for _ in range(n)]
         for _ in range(n)]
        for _ in range(3)
    ]
    f = ClosedFormKernel(sp, 2.0, sp.lam, lambda t: _poly_eval(coeffs, t))
    return f, mu, coeffs


def test_folds_match_exact_rational_convolution(rng):
    # quadrature is polynomial-exact here, so every fold must agree with
    # symbolic integration up to fold-cache resampling error
    f, mu, coeffs = _rational_polynomial_kernel(rng)
    cache = FoldCache(f)
    exact = coeffs
    for ell in range(2, 7):
        exact = _poly_convolve_exact(coeffs, exact, mu)
        got = cache.fold(ell).at(1.0)
        want = _poly_eval(exact, 1.0)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) < 1e-9 * scale, f"fold {ell}"


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_dirac_folds_are_exact_taylor_terms(rng, kind):
    # the dirac heat image f = A D^-1 is constant, so its folds are
    # f^{*l}(t) = t^(l-1) / (l-1)! A^l D^-1; quadrature and resampling are
    # polynomial-exact at these degrees, leaving only roundoff
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    p = dirac_parametrix(sp, cond, kind=kind, horizon=1.0)
    A, Dinv = p.generator_matrix, np.diag(1.0 / p.weight)
    assert not np.allclose(p.weight, p.weight[0])
    cache = FoldCache(p.heat_image)
    norm = np.max(np.sum(np.abs(A), axis=1))
    for ell in range(1, 9):
        for t in (0.3, 1.0):
            want = t ** (ell - 1) / math.factorial(ell - 1) \
                * np.linalg.matrix_power(A, ell) @ Dinv
            scale = (norm * t) ** (ell - 1) / math.factorial(ell - 1) \
                * norm * np.max(Dinv)
            err = np.max(np.abs(cache.fold(ell).at(t) - want))
            assert err <= 1e-13 * scale, (kind, ell, t, err / scale)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_rkhs_folds_are_exact_closed_form(rng, kind):
    # the rkhs heat image f = e^{-t} B is separable in time, so under the
    # pairing W = G^-1 its folds are f^{*l}(t) = e^{-t} t^(l-1) / (l-1)!
    # (B W)^(l-1) B
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    X = rng.standard_normal((sp.n, sp.n))
    G = X @ X.T / sp.n + np.eye(sp.n)
    p = rkhs_parametrix(sp, G, cond, kind=kind, horizon=1.0)
    W = p.weight
    B = p.generator_matrix @ G - G
    BW = B @ W
    cache = FoldCache(p.heat_image)
    norm = np.max(np.sum(np.abs(BW), axis=1))
    for ell in range(1, 9):
        for t in (0.3, 1.0):
            want = np.exp(-t) * t ** (ell - 1) / math.factorial(ell - 1) \
                * np.linalg.matrix_power(BW, ell - 1) @ B
            scale = np.exp(-t) * (norm * t) ** (ell - 1) / math.factorial(ell - 1) \
                * np.max(np.abs(B))
            err = np.max(np.abs(cache.fold(ell).at(t) - want))
            assert err <= 1e-13 * scale, (kind, ell, t, err / scale)


def _lowrank_case(case, rng):
    """(kernel, fold horizon) of a kernel that takes the sampled factor."""
    if case == "polynomial":
        return _rational_polynomial_kernel(rng)[0], 0.25
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, weight_range=(0.5, 2.0))
    if case.startswith("profile"):
        # a heavy measure slows the generator enough that edges shorter
        # than the horizon put the epanechnikov support edge inside it
        sp = PointSpace(sp.points, np.full(sp.n, 4.0))
        p = profile_parametrix(sp, cond, case.split("-")[1], horizon=1.0)
        return p.heat_image, 0.6
    if case == "spectral":
        return spectral_parametrix(sp, cond, n_modes=sp.n - 2, horizon=1.0).H, 0.3
    # the image of a rebuild: (A_new - A_old) times the old kernel
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=1.0), T=1.0)
    W = cond.matrix * np.exp(rng.uniform(-0.3, 0.3, size=cond.matrix.shape))
    diff = generator(sp, Conductance((W + W.T) / 2.0))[0] - res.generator_matrix
    return ClosedFormKernel(sp, 1.0, res.weight, lambda t: diff @ res.K.at(t)), 0.3


def _sup_and_row_mass(f, horizon):
    samples = f.at_many(np.linspace(0.0, horizon, 257))
    mass = np.abs(samples) @ np.abs(f.weight)
    return float(np.max(np.abs(samples))), float(np.max(mass))


@pytest.mark.parametrize("case", ["profile-epanechnikov", "profile-exponential",
                                  "imported", "spectral", "polynomial"])
def test_lowrank_folds_match_convolve(rng, case):
    # every grid node of folds 2-6 against one `convolve` call on the same
    # kernel and the same previous fold; they may differ by the residual
    # the factor charges plus roundoff
    f, horizon = _lowrank_case(case, rng)
    assert not isinstance(f, SeparableKernel)
    cache = FoldCache(f, horizon=horizon)
    if case == "polynomial":
        assert cache.factor.values.shape[0] == 3
    C, norm1 = _sup_and_row_mass(f, horizon)
    charge = residual_fold_bound(cache.factor.residual, cache.factor.residual_mass,
                                 C, norm1, 0, horizon)
    for ell in range(2, 7):
        prev = cache.fold(ell - 1)
        want = np.stack([convolve(f, prev, t) for t in cache.nodes])
        err = np.max(np.abs(cache.fold(ell).values - want))
        assert err <= charge + 1e-13 * np.max(np.abs(want)), (case, ell, err)


def test_lowrank_residual_is_exact_and_deterministic(rng):
    # the residual a sampled factor reports is the largest entry (and row
    # mass) of f - sum_r phi_r M_r over the times the folds read,
    # recomputed here one time at a time; a second factor is identical
    f, horizon = _lowrank_case("profile-exponential", rng)
    factor = TimeFactor(f, horizon, DEFAULT_QUAD)
    assert 1 < factor.values.shape[0] < f.n ** 2
    worst = mass = scale = 0.0
    for j, t in enumerate(factor.nodes[1:]):
        for q, tau in enumerate(factor.taus[j]):
            exact = f.at(t - tau)
            err = np.abs(exact - np.tensordot(factor.values[:, j, q], factor.matrices, axes=1))
            worst = max(worst, float(np.max(err)))
            mass = max(mass, float(np.max(err @ f.weight)))
            scale = max(scale, float(np.max(np.abs(exact))))
    assert abs(factor.residual - worst) <= 1e-15 * scale
    assert abs(factor.residual_mass - mass) <= 1e-15 * scale * np.sum(f.weight)
    again = TimeFactor(f, horizon, DEFAULT_QUAD)
    assert np.array_equal(again.values, factor.values)
    assert np.array_equal(again.matrices, factor.matrices)


# ---------------------------------------------------------------- bounds

def test_bound_ell_fold_frozen_values():
    assert bound_ell_fold(1.0, 1.0, 0, 1, 2.0) == 1.0
    assert bound_ell_fold(1.0, 2.0, 0, 3, 1.0) == 2.0


def test_bound_series_sums_to_exponential():
    for C, norm1, k, t in ((1.0, 1.0, 0, 1.0), (2.0, 3.0, 1, 0.7),
                           (0.5, 1.5, 2, 2.0)):
        total = sum(bound_ell_fold(C, norm1, k, ell, t) for ell in range(1, 200))
        closing = C * max(norm1, 1.0) * t ** k * math.exp(t * norm1)
        assert total <= closing * (1 + 1e-12)


def test_series_tail_bound_dominates_true_tail():
    for L in range(0, 8):
        tail = sum(bound_ell_fold(1.0, 2.0, 1, ell, 3.0)
                   for ell in range(L + 1, 400))
        bound = series_tail_bound(1.0, 2.0, 1, L, 3.0)
        assert bound >= tail * (1 - 1e-12)
        assert bound <= 4.0 * tail + 1e-300  # not wastefully loose


# ---------------------------------------------------------------- kernels

def test_cheb_kernel_interpolates_exactly_at_nodes(two_point, rng):
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = ClosedFormKernel(sp, 4.0, sp.lam, lambda t: np.exp(-t) * B)
    cheb = ChebKernel(sp, 4.0, sp.lam, f.at_many(lobatto_nodes(32, 4.0)))
    for t in cheb.nodes:
        assert np.max(np.abs(cheb.at(t) - f.at(t))) < 1e-14
    for t in (0.1, 1.3, 3.9):
        assert np.max(np.abs(cheb.at(t) - f.at(t))) < 1e-12


def test_cheb_kernel_derivative(two_point, rng):
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = ClosedFormKernel(sp, 4.0, sp.lam, lambda t: np.exp(-t) * B)
    cheb = ChebKernel(sp, 4.0, sp.lam, f.at_many(lobatto_nodes(32, 4.0)))
    deriv = ChebKernel(sp, 4.0, sp.lam, cheb.dvalues)
    for t in (0.2, 1.0, 3.0):
        assert np.max(np.abs(deriv.at(t) + np.exp(-t) * B)) < 1e-10


def test_closed_form_horizon_guard(two_point):
    sp, _, _ = two_point
    f = const_kernel(sp, np.ones((2, 2)), horizon=1.0)
    with pytest.raises(HorizonExceeded):
        f.at(1.5)


def test_semigroup_kernel_extends_past_horizon(two_point):
    sp, cond, _ = two_point
    from heatkern import build_heat_kernel, dirac_parametrix
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=2.0)
    K = res.K
    want = lambda t: np.array([
        [(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2],
        [(1 - np.exp(-2 * t)) / 2, (1 + np.exp(-2 * t)) / 2]])
    for t in (0.5, 2.0, 6.0, 11.0):
        assert np.max(np.abs(K.at(t) - want(t))) < 1e-9
