import dataclasses
import math
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from heatkern import (
    ChebKernel,
    ClosedFormKernel,
    Conductance,
    FoldCache,
    PointSpace,
    SemigroupKernel,
    SeparableKernel,
    build_heat_kernel,
    build_space,
    convolve,
    dirac_parametrix,
    eigh_weighted,
    expm_series,
    generator,
    integer_line,
    profile_parametrix,
    rkhs_parametrix,
    spectral_heat,
    spectral_parametrix,
)
from heatkern import timekernel
from heatkern.timekernel import (
    DCT_ROWS,
    DEFAULT_QUAD,
    ChebSeries,
    RANK_CUT,
    U,
    TimeFactor,
    _panel_points,
    interp_matrix,
    lobatto_bary_weights,
    lobatto_nodes,
    pair,
    row_masses,
    standard_chop,
)
from heatkern.errors import (
    DimensionMismatch,
    HorizonExceeded,
    InvalidParametrix,
    SpaceMismatch,
)

from _graphs import random_connected_graph


def const_kernel(space, M, weight=None, horizon=10.0):
    M = np.asarray(M, dtype=float)
    w = space.lam if weight is None else weight
    return SeparableKernel(space, horizon, w, np.ones_like, M, name="const")


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
    # (f * f)(t) = int_0^t e^{-0.7 (t - tau)} e^{-0.7 tau} dtau B W B = t e^{-0.7 t} B W B
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = SeparableKernel(sp, 10.0, sp.lam, lambda t: np.exp(-0.7 * t), B)
    want = 2.0 * np.exp(-1.4) * pair(B, sp.lam) @ B
    assert np.max(np.abs(convolve(f, f, 2.0) - want)) < 1e-13


def test_convolve_envelope_bound(two_point, rng):
    # |F1 * F2| <= C1 C2 h(x) k! l! / (k+l+1)! t^(k+l+1) + quadrature slack
    sp, _, _ = two_point
    for k, l in ((0, 0), (1, 0), (2, 1)):
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2))
        f1 = SeparableKernel(sp, 10.0, sp.lam, lambda t, k=k: t ** k, B)
        f2 = SeparableKernel(sp, 10.0, sp.lam, lambda t, l=l: t ** l, C)
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
    f = SeparableKernel(sp, 10.0, sp.lam, lambda t: np.exp(-t), B)
    assert np.array_equal(FoldCache(f).fold(1).at(0.7), f.at(0.7))


def test_ell_fold_zero_kernel(two_point):
    sp, _, _ = two_point
    z = const_kernel(sp, np.zeros((2, 2)))
    cache = FoldCache(z)
    for ell in (2, 3):
        assert np.max(np.abs(cache.fold(ell).at(1.0))) == 0.0


def test_zero_closed_form_has_no_terms():
    # an identically zero image (a rebuild with nothing changed) spans nothing at its
    # nodes: its factor and its folds have no terms, and their sup is 0
    sp, _, _ = integer_line(3)
    zero = ClosedFormKernel(sp, 1.0, sp.lam, lambda ts: np.zeros((len(ts), sp.n, sp.n)))
    cache = FoldCache(zero)
    assert cache.factor.matrices.shape[0] == 0
    for ell in (2, 3):
        assert cache.fold(ell).psi.shape[1] == 0
        assert cache.fold(ell).sup() == 0.0
        assert not np.any(cache.fold(ell).values)


def test_factor_refuses_nonfinite_samples(rng):
    # NaN or inf at the nodes, at the panel times only, or in a separable profile:
    # InvalidParametrix naming the kernel, not a failed SVD or a silent NaN factor
    sp, _, _ = integer_line(3)
    M = rng.standard_normal((40, sp.n, sp.n))
    nodes = lobatto_nodes(DEFAULT_QUAD.cheb_degree, 1.0)

    def unresolved(ts):  # time rank 40: the nodes do not resolve it
        return np.tensordot(np.polynomial.chebyshev.chebvander(2.0 * ts - 1.0, 39), M, 1)

    for bad in (np.nan, np.inf):
        for where in (lambda ts: ts > 0.5, lambda ts: ~np.isin(ts, nodes)):
            f = ClosedFormKernel(sp, 1.0, sp.lam, lambda ts, where=where, bad=bad: np.where(
                where(ts)[:, None, None], bad, unresolved(ts)), name="broken")
            with pytest.raises(InvalidParametrix, match="broken"):
                TimeFactor(f, 1.0)
        f = SeparableKernel(sp, 1.0, sp.lam, lambda ts, bad=bad: np.where(ts > 0.5, bad, 1.0),
                            M[0], name="broken-profile")
        with pytest.raises(InvalidParametrix, match="broken-profile"):
            TimeFactor(f, 1.0)


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
    """sum_a t^a p_a at a time t, or at each time of a 1-D array."""
    t = np.asarray(t, dtype=float)[..., None, None]
    return sum(t ** a * np.array([[float(e) for e in row] for row in M])
               for a, M in enumerate(p))


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
    f = ClosedFormKernel(sp, 2.0, sp.lam, lambda ts: _poly_eval(coeffs, ts))
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
    """(kernel, fold horizon) of a kernel factored from its samples, at the grid
    nodes if they resolve it, else at the panel times."""
    if case == "polynomial":
        return _rational_polynomial_kernel(rng)[0], 0.25
    if case == "chebyshev-40":
        # sum_d T_d(2t/T - 1) M_d over 40 degrees on the 7-point path, T = 1:
        # time rank 40, more than the 33 node samples span
        sp, _, _ = integer_line(3)
        M = rng.standard_normal((40, sp.n, sp.n))
        return ClosedFormKernel(sp, 1.0, sp.lam, lambda ts: np.tensordot(
            np.polynomial.chebyshev.chebvander(2.0 * ts - 1.0, 39), M, axes=1)), 1.0
    if case == "epanechnikov-below-edges":
        # every edge (length 1/weight > 1.1) longer than the horizon: H = diag(1/mu) and
        # f = A H, constant in time, so the node samples resolve f
        sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, weight_range=(0.2, 0.9))
        return profile_parametrix(sp, cond, "epanechnikov", horizon=1.0).heat_image, 0.6
    n = 16 if case.endswith("-16") else None  # a larger space than the n = 6-8 default
    sp, cond, _ = random_connected_graph(rng, n_min=n or 6, n_max=n or 8, weight_range=(0.5, 2.0))
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
    return ClosedFormKernel(sp, 1.0, res.weight, lambda ts: diff @ res.K.at_many(ts)), 0.3


@pytest.mark.parametrize("case", ["profile-epanechnikov", "profile-exponential",
                                  "profile-epanechnikov-16", "imported", "spectral",
                                  "polynomial", "chebyshev-40", "epanechnikov-below-edges"])
def test_lowrank_folds_match_convolve(rng, case):
    # every grid node of folds 2-6 against one `convolve` call on the same
    # kernel and the same previous fold; they may differ by the factor's
    # residual (within RANK_CUT of its largest coefficient, in Frobenius norm)
    # carried through the folds, plus roundoff: within 1e-12 of the largest entry
    f, horizon = _lowrank_case(case, rng)
    assert not isinstance(f, SeparableKernel)
    cache = FoldCache(f, horizon=horizon)
    if case == "polynomial":
        assert cache.factor.values.shape[0] == 3
    if case == "chebyshev-40":
        # the panel blocks extended the 33-sample node range to every term
        assert cache.factor.values.shape[0] == 40
    for ell in range(2, 7):
        prev = cache.fold(ell - 1)
        want = np.stack([convolve(f, prev, t) for t in cache.nodes])
        err = np.max(np.abs(cache.fold(ell).values - want))
        assert err <= 1e-12 * np.max(np.abs(want)), (case, ell, err)


def _counting(f, times):
    """f with an evaluator that appends every time it is asked for to times."""
    def evaluator(ts):
        times.extend(ts)
        return f.evaluator(ts)
    return ClosedFormKernel(f.space, f.horizon, f.weight, evaluator, f.name)


def test_lowrank_cases_take_their_path(rng):
    # a kernel whose node samples chop (`ChebSeries`) is factored from those m + 1
    # samples alone; any other is projected on the range of those samples at the 2 p m
    # panel times in one pass, which extends that range where a block needs it (time
    # rank above m + 1, or a support edge inside the horizon): the m + 1 nodes first,
    # then each panel time once, in order
    nodal = {"spectral", "polynomial", "epanechnikov-below-edges"}
    panel = {"imported", "profile-epanechnikov", "profile-exponential", "chebyshev-40"}
    for case in sorted(nodal | panel):
        f, horizon = _lowrank_case(case, rng)
        times = []
        factor = TimeFactor(_counting(f, times), horizon)
        assert np.array_equal(times[:factor.nodes.size], factor.nodes), case
        if case in nodal:
            assert len(times) == factor.nodes.size, case
        else:
            assert np.array_equal(times[factor.nodes.size:],
                                  (factor.nodes[1:, None] - factor.taus).ravel()), case
        assert np.array_equal(factor.on_grid.values, f.at_many(factor.nodes)), case


def test_resolved_build_reads_each_kernel_once_at_the_nodes(rng):
    # below its shortest edge (lengths 1/weight > 1.1 against T = 1) the epanechnikov
    # starter is diag(1/mu) and its image A diag(1/mu): both factors come from the base
    # grid's nodes, and fold 1 and the assembly reuse those samples, so the build reads
    # f and H at no panel time and at each node but t = 0 (where validation reads H and
    # the row-mass scan f) once
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, weight_range=(0.2, 0.9))
    p = profile_parametrix(PointSpace(sp.points, np.full(sp.n, 0.1)), cond, "epanechnikov",
                           horizon=1.0)
    seen = {"H": [], "f": []}
    p = dataclasses.replace(p, H=_counting(p.H, seen["H"]),
                            heat_image=_counting(p.heat_image, seen["f"]))
    res = build_heat_kernel(p, T=1.0, tol=1e-8)
    assert res.squarings >= 1
    nodes = lobatto_nodes(DEFAULT_QUAD.cheb_degree, res.base_horizon)[1:]
    grid = set(nodes) | set((nodes[:, None] - _panel_points(nodes)[0]).ravel())
    for name, times in seen.items():
        assert Counter(t for t in times if t in grid) == Counter(nodes), name


def test_unresolved_build_reads_each_kernel_once_per_panel_time(rng):
    # the exponential profile at n = 32 keeps all 33 Chebyshev coefficients at the nodes,
    # so neither f nor H is resolved there, but the range of their node samples holds
    # them at the panel times: each factor, f's for the folds and H's for the assembly,
    # reads its kernel once at each node but t = 0 and once at each panel time
    sp, cond, _ = random_connected_graph(rng, n_min=32, n_max=32, weight_range=(0.5, 2.0))
    p = profile_parametrix(sp, cond, "exponential", horizon=10.0)
    seen = {"H": [], "f": []}
    p = dataclasses.replace(p, H=_counting(p.H, seen["H"]),
                            heat_image=_counting(p.heat_image, seen["f"]))
    res = build_heat_kernel(p, T=10.0, tol=1e-5)
    assert res.squarings >= 1
    nodes = lobatto_nodes(DEFAULT_QUAD.cheb_degree, res.base_horizon)[1:]
    grid = np.concatenate([nodes, (nodes[:, None] - _panel_points(nodes)[0]).ravel()])
    on_grid = set(grid)
    for name, times in seen.items():
        assert Counter(t for t in times if t in on_grid) == Counter(grid), name


def test_factor_convolves_the_terms_of_another_kernels_fold(rng):
    # a 3-term factor of g against the 9-term fold 2 of another kernel f:
    # 27 terms (S_r psi_s, M_r W C_s), each time column paired with its own
    # matrix (folds of one kernel cannot tell, their coefficients being
    # symmetric), which agree with `convolve` at the nodes
    f, horizon = _lowrank_case("polynomial", rng)
    g, _ = _lowrank_case("polynomial", rng)
    fold = FoldCache(f, horizon=horizon).fold(2)
    factor = TimeFactor(g, horizon)
    assert fold.psi.shape[1] == 9 and factor.matrices.shape[0] == 3
    terms = factor.convolve(fold)
    assert terms.psi.shape[1] == 27
    want = np.stack([convolve(g, fold, t) for t in factor.nodes])
    assert np.max(np.abs(terms.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_lowrank_factor_is_deterministic(rng):
    # a factor read at the panel times meets the bound of its docstring there
    # (recomputed here one time at a time): in Frobenius norm over all panel times
    # its residual is within RANK_CUT sigma_0 sqrt(1 + d), sigma_0 the largest
    # singular value of its coefficients and d <= n^2 - rank the terms the recut
    # dropped; and a second factor of the same kernel is identical
    for case in ("profile-exponential", "profile-epanechnikov", "chebyshev-40"):
        f, horizon = _lowrank_case(case, rng)
        factor = TimeFactor(f, horizon)
        rank = factor.values.shape[0]
        assert 1 < rank < f.n ** 2, case
        missed = 0.0
        for j, t in enumerate(factor.nodes[1:]):
            for q, tau in enumerate(factor.taus[j]):
                R = f.at(t - tau) - np.tensordot(factor.values[:, j, q], factor.matrices, axes=1)
                missed += float(np.vdot(R, R))
        sigma0 = np.linalg.norm(factor.values[0])
        assert math.sqrt(missed) <= RANK_CUT * sigma0 * math.sqrt(1 + f.n ** 2 - rank), case
        again = TimeFactor(f, horizon)
        assert np.array_equal(again.values, factor.values), case
        assert np.array_equal(again.matrices, factor.matrices), case


@pytest.mark.parametrize("case", ["separable", "profile-exponential"])
def test_volterra_matrices_match_the_per_node_loop(two_point, rng, case):
    # S is formed from the barycentric rows of the unit grid, shared by
    # every horizon; against the rows of the scaled grid, one node at a time.
    # The panels of all nodes at once are those of `convolve` at each node, bit for bit.
    if case == "separable":
        f, horizon = SeparableKernel(two_point[0], 10.0, two_point[0].lam, lambda t: np.exp(-t),
                                     rng.standard_normal((2, 2))), 7.3
    else:
        f, horizon = _lowrank_case(case, rng)
    for h in (horizon, horizon / 3.0):
        factor = TimeFactor(f, h)
        bary = lobatto_bary_weights(DEFAULT_QUAD.cheb_degree)
        loop = np.zeros_like(factor.S)
        for j, taus in enumerate(factor.taus, start=1):
            assert np.array_equal(np.stack(_panel_points(factor.nodes[j])),
                                  np.stack([taus, factor.gw[j - 1]]))
            loop[:, j] = (factor.gw[j - 1] * factor.values[:, j - 1]) \
                @ interp_matrix(factor.nodes, bary, taus)
        assert np.max(np.abs(factor.S - loop)) <= 1e-14 * np.max(np.abs(loop)), (case, h)


# ---------------------------------------------------------------- kernels

def test_cheb_kernel_interpolates_exactly_at_nodes(two_point, rng):
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = SeparableKernel(sp, 4.0, sp.lam, lambda t: np.exp(-t), B)
    nodes = lobatto_nodes(32, 4.0)
    cheb = ChebKernel(sp, 4.0, sp.lam, f.at_many(nodes))
    for t in nodes:
        assert np.max(np.abs(cheb.at(t) - f.at(t))) < 1e-14
    for t in (0.1, 1.3, 3.9):
        assert np.max(np.abs(cheb.at(t) - f.at(t))) < 1e-12


def test_cheb_kernel_derivative(two_point, rng):
    # a ChebSeries keeps the Chebyshev coefficients of the sampled
    # function: their derivative series is -e^{-t} B, and the series itself
    # interpolates the samples
    sp, _, _ = two_point
    B = rng.standard_normal((2, 2))
    f = SeparableKernel(sp, 4.0, sp.lam, lambda t: np.exp(-t), B)
    samples = f.at_many(lobatto_nodes(32, 4.0))
    cheb = ChebSeries(sp, 4.0, sp.lam, np.tensordot(DCT_ROWS, samples, 1))
    deriv = np.polynomial.chebyshev.chebder(cheb.coeffs, scl=2.0 / 4.0)
    for t in (0.2, 1.0, 3.0):
        at = np.polynomial.chebyshev.chebval(t / 2.0 - 1.0, deriv)
        assert np.max(np.abs(at + np.exp(-t) * B)) < 1e-10
        assert np.max(np.abs(cheb.at(t) - f.at(t))) < 1e-12
    assert np.max(np.abs(cheb.values - samples)) < 1e-14


def test_chopped_series_within_rounding_at_the_nodes(rng, monkeypatch):
    # a heat kernel's series keeps the coefficients before the roundoff plateau:
    # at the 33 nodes it is within (m+1) u max|c_0| of the whole series
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    Tb = 4.0 / np.abs(A).sum(axis=1).max()
    spec = eigh_weighted(A, mu)
    samples = np.stack([spectral_heat(spec, t) for t in lobatto_nodes(32, Tb)])
    coeffs = np.tensordot(DCT_ROWS, samples, 1)
    chopped = ChebSeries(sp, Tb, mu, coeffs)
    monkeypatch.setattr(timekernel, "standard_chop", lambda envelope: envelope.shape[0])
    full = ChebSeries(sp, Tb, mu, coeffs)
    assert chopped.degree < full.degree == 32
    assert np.array_equal(chopped.coeffs, full.coeffs[:chopped.degree + 1])
    assert np.max(np.abs(chopped.values - full.values)) <= 33 * U * np.max(np.abs(full.coeffs[0]))


def test_series_with_a_plateau_above_roundoff_keeps_every_coefficient(two_point, rng):
    # samples with noise at 1e-12: standardChop finds the plateau, but the tail
    # it would drop is far above (m+1) u max|c_0|, so all 33 coefficients stay
    sp, _, _ = two_point
    nodes = lobatto_nodes(32, 4.0)
    samples = np.exp(-nodes)[:, None, None] * rng.standard_normal((2, 2))
    samples += 1e-12 * rng.standard_normal(samples.shape)
    cheb = ChebSeries(sp, 4.0, sp.lam, np.tensordot(DCT_ROWS, samples, 1))
    assert standard_chop(np.abs(cheb.coeffs).max(axis=(1, 2))) < 33
    assert cheb.degree == 32


def test_closed_form_horizon_guard(two_point):
    sp, _, _ = two_point
    f = const_kernel(sp, np.ones((2, 2)), horizon=1.0)
    with pytest.raises(HorizonExceeded):
        f.at(1.5)


def _starter(case, rng, monkeypatch):
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, weight_range=(0.5, 2.0))
    if case == "dirac":
        return dirac_parametrix(sp, cond, horizon=2.0)
    if case.startswith("profile"):
        return profile_parametrix(sp, cond, case.split("-")[1], horizon=2.0)
    if case == "spectral":
        return spectral_parametrix(sp, cond, n_modes=sp.n - 2, horizon=2.0)
    if case == "rkhs":
        return rkhs_parametrix(sp, np.eye(sp.n) + 0.1, cond, horizon=2.0)
    # the imported starter of a rebuild, caught before its build
    from heatkern import neumann
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=2.0), T=2.0)
    monkeypatch.setattr(neumann, "build_heat_kernel", lambda p, *args, **kw: p)
    return neumann.cross_parametrix_build(res, lam=sp.lam * 1.01)


@pytest.mark.parametrize("case", ["dirac", "profile-epanechnikov", "profile-exponential",
                                  "spectral", "rkhs", "imported"])
def test_at_many_is_stacked_at_bitwise(rng, monkeypatch, case):
    # one block and more than one, with t = 0 and the horizon in both
    p = _starter(case, rng, monkeypatch)
    for f in (p.H, p.heat_image):
        for ts in (np.array([0.0, 0.3, 2.0]),
                   np.concatenate([[2.0], np.linspace(0.0, 2.0, 70)])):
            want = np.stack([f.at(t) for t in ts])
            assert np.array_equal(f.at_many(ts), want)
        assert np.all(np.isfinite(want))


def test_closed_form_refuses_wrong_evaluator_shape(two_point):
    sp, _, _ = two_point
    scalar = ClosedFormKernel(sp, 1.0, sp.lam, lambda ts: np.eye(2))
    short = ClosedFormKernel(sp, 1.0, sp.lam, lambda ts: np.zeros((1, 2, 2)))
    with pytest.raises(DimensionMismatch):
        scalar.at(0.5)
    with pytest.raises(DimensionMismatch):
        short.at_many([0.1, 0.5])


def test_closed_forms_refuse_nan_times(two_point):
    sp, cond, _ = two_point
    for p in (dirac_parametrix(sp, cond), profile_parametrix(sp, cond)):
        with pytest.raises(HorizonExceeded):
            p.H.at(float("nan"))
        with pytest.raises(HorizonExceeded):
            p.heat_image.at_many([0.1, float("nan")])


def test_sampled_kernels_refuse_bad_times(two_point):
    sp, cond, _ = two_point
    K = build_heat_kernel(dirac_parametrix(sp, cond), T=2.0).K
    # from 2^53 base horizons on, the piece count is not an exact integer
    for t in (float("nan"), float("inf"), -0.5, 1.7e308, 1e18, 2.0 ** 53 * K.base.horizon):
        with pytest.raises(HorizonExceeded):
            K.at(t)
    assert np.all(np.isfinite(K.at(0.99 * 2.0 ** 53 * K.base.horizon)))
    assert len(K._chain) == math.ceil(53 / 3)  # one level per octal digit
    with pytest.raises(HorizonExceeded):
        K.base.at(float("nan"))
    with pytest.raises(HorizonExceeded):
        K.base.at_many([0.1, float("nan")])


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


def _checkpoint_build(rng, case):
    # a stiff random graph, so the base horizon sits several halvings under
    # T = 2, with the oracle of its kernel and the inverse of its pairing
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    kind = "normalized" if case == "dirac-normalized" else "combinatorial"
    A, mu = generator(sp, cond, kind)
    if case == "rkhs":
        X = rng.standard_normal((sp.n, sp.n))
        G = X @ X.T / sp.n + np.eye(sp.n)
        res = build_heat_kernel(rkhs_parametrix(sp, G, cond, kind, horizon=2.0), T=2.0)
        return res, (lambda t: expm_series(A, t) @ G), G
    res = build_heat_kernel(dirac_parametrix(sp, cond, kind, horizon=2.0), T=2.0)
    spec = eigh_weighted(A, mu)
    return res, (lambda t: spectral_heat(spec, t)), np.diag(1.0 / mu)


def _checkpoint_times(res):
    # (q + 1/2) T_b has q = 8^k - 1 (all digits 7), 8^k (a new level) and 7 8^k
    # (its last checkpoint) whole base pieces before the base is read
    Tb, T = res.base_horizon, res.horizon
    return sorted({np.nextafter(Tb, 0.0), Tb, np.nextafter(Tb, np.inf), 8.0 * T,
                   *(q * Tb for q in (2, 3, 5, 7, 11, 2 ** res.squarings - 1)),
                   *(2.0 ** k * Tb for k in range(res.squarings + 2)),
                   *((q + 0.5) * Tb for k in (1, 2) for q in (8 ** k - 1, 8 ** k, 7 * 8 ** k))})


def _halving_squares(K, t, weight_inv):
    # the semigroup by halving t onto the base grid and squaring back up
    Tb = K.base.horizon
    if t <= Tb:
        return K.base.at(t)
    j = math.ceil(math.log2(t / Tb))
    M = pair(K.base.at(t / 2.0 ** j), K.weight)
    for _ in range(j):
        M = M @ M
    return M @ weight_inv


@pytest.mark.parametrize("case", ["dirac-combinatorial", "dirac-normalized", "rkhs"])
def test_semigroup_checkpoints_within_certificate(rng, case):
    # exact multiples of T_b, powers of two, one ulp either side of T_b and
    # 8T, past the chain the horizon needs: within the certificate doubled
    # per doubling past T, and equal to halving-and-squaring to roundoff
    res, oracle, weight_inv = _checkpoint_build(rng, case)
    K, T = res.K, res.horizon
    assert res.squarings >= 2
    for t in _checkpoint_times(res):
        M = K.at(t)
        bound = res.truncation_bound * 2.0 ** max(0, math.ceil(math.log2(t / T)))
        assert np.max(np.abs(M - oracle(t))) <= bound, (t, bound)
        ref = _halving_squares(K, t, weight_inv)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref)), t


class _CountedProduct:
    # `M @ P` on a plain array defers to P.__rmatmul__: numpy steps aside
    # for operands whose __array_ufunc__ is None
    __array_ufunc__ = None

    def __init__(self, P, calls):
        self.P, self.calls = P, calls

    def __rmatmul__(self, M):
        self.calls.append(1)
        return M @ self.P


def test_semigroup_products_are_the_octal_digits(rng):
    # one product of checkpoints per nonzero octal digit of q = ceil(t / T_b) - 1:
    # never more than popcount(q), nor the ceil(log2(t / T_b)) squarings of
    # halving t onto the base grid
    res, _, _ = _checkpoint_build(rng, "dirac-combinatorial")
    K, Tb = res.K, res.base_horizon
    times = _checkpoint_times(res) + list(rng.uniform(0.0, 8.0 * res.horizon, 200))
    # the largest time first grows the whole chain before it is wrapped
    want = {t: K.at(t) for t in [max(times)] + times}
    calls = []
    K._chain = tuple(tuple(_CountedProduct(P, calls) for P in level) for level in K._chain)
    for t in times:
        calls.clear()
        assert np.array_equal(K.at(t), want[t])
        q = math.ceil(t / Tb) - 1
        assert len(calls) == sum(d != "0" for d in oct(q)[2:]), t
        assert len(calls) <= bin(q).count("1") <= (math.ceil(math.log2(t / Tb)) if t > Tb else 0), t


def test_semigroup_error_charges_the_pieces_at_multiplies(two_point):
    # K.error(t) charges the q + 1 pieces of the exact split t = r + q T_b that `at`
    # multiplies: at T_b = 0.7, 3.5 = 2.2e-16 + 5 T_b takes six pieces, though the
    # rounded quotient 3.5 / 0.7 is 5.  Within two ulps of k T_b the charge is the
    # exact ceil(t / T_b), and it never falls as t grows
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=0.7, tol=1e-10)
    K, Tb = res.K, res.base_horizon
    assert Tb == 0.7
    assert K.error(3.5) == 6 * K.piece_bound
    times = {0.0}
    for k in range(1, 400):
        below = above = k * Tb
        times.add(below)
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            times.update((below, above))
    times = sorted(times)
    errors = [K.error(t) for t in times]
    for t, err in zip(times, errors):
        assert err == max(1, math.ceil(Fraction(t) / Fraction(Tb))) * K.piece_bound, t
    assert all(a <= b for a, b in zip(errors, errors[1:]))


def test_semigroup_query_order_does_not_move_bits(rng):
    # a chain grown by one large query or level by level holds the same bits
    res, _, gram = _checkpoint_build(rng, "rkhs")
    times = _checkpoint_times(res)
    up, down = (SemigroupKernel(res.K.base, res.horizon, gram, res.K.piece_bound)
                for _ in range(2))
    ascending = {t: up.at(t) for t in times}
    descending = {t: down.at(t) for t in reversed(times)}
    assert all(np.array_equal(ascending[t], descending[t]) for t in times)


def test_semigroup_chain_shared_between_threads(rng):
    # threads that race to grow one chain each read a whole chain: every
    # result equals the serial one, bit for bit, on a fresh kernel per round
    res, _, _ = _checkpoint_build(rng, "dirac-combinatorial")
    times = _checkpoint_times(res)
    want = {t: res.K.at(t) for t in times}
    orders = [rng.permutation(times) for _ in range(6)]
    wrong = []

    def query(K, start, order):
        start.wait(timeout=60.0)
        for t in order:
            if not np.array_equal(K.at(t), want[t]):
                wrong.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            K = SemigroupKernel(res.K.base, res.horizon, None, res.K.piece_bound)
            start = threading.Barrier(len(orders))
            threads = [threading.Thread(target=query, args=(K, start, order)) for order in orders]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_row_masses_pair_first(rng):
    # a matrix pairing's row mass is that of |M W|, at most that of |M| |W|;
    # a measure's is that of |M| against it, as before
    M = rng.standard_normal((3, 5, 5))
    X = rng.standard_normal((5, 5))
    W, mu = X @ X.T + np.eye(5), rng.uniform(0.2, 5.0, 5)
    assert np.array_equal(row_masses(M.copy(), W), np.abs(M @ W).sum(axis=2).max(axis=1))
    assert np.all(row_masses(M.copy(), W) <= (np.abs(M) @ np.abs(W)).sum(axis=2).max(axis=1))
    assert np.array_equal(row_masses(M.copy(), mu), (np.abs(M) @ mu).max(axis=1))
    block = M.copy()
    row_masses(block, W)
    assert np.array_equal(block, np.abs(M))
