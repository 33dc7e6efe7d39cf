import inspect
import warnings

import numpy as np
import pytest

from heatkern import (
    build_space,
    eigh_weighted,
    expm_series,
    generator,
    jacobi_eigh,
    spectral,
    spectral_heat,
)
from heatkern.errors import (
    HorizonExceeded,
    NoConvergenceBudget,
    NonpositiveMeasure,
    NotSelfAdjoint,
)

from _graphs import random_connected_graph


def test_jacobi_matches_numpy_eigenvalues(rng):
    for n in (2, 3, 5, 8, 13):
        S = rng.standard_normal((n, n))
        S = (S + S.T) / 2.0
        vals, vecs = jacobi_eigh(S)
        ref = np.linalg.eigvalsh(S)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale
        # columns stay orthonormal and diagonalize S
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-13
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - S)) < 1e-12 * scale


def test_jacobi_off_diagonal_is_annihilated(rng):
    # the convergence check must see the off part directly; a Frobenius
    # subtraction stalls at sqrt(eps) scale
    S = rng.standard_normal((9, 9))
    S = (S + S.T) / 2.0
    vals, vecs = jacobi_eigh(S)
    D = vecs.T @ S @ vecs
    off = D - np.diag(np.diag(D))
    assert np.max(np.abs(off)) < 1e-13 * max(1.0, np.max(np.abs(vals)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 41])
def test_jacobi_odd_sizes_and_padding(rng, n):
    # an odd n pairs one index with a phantom in every round; that index
    # must still be rotated against every other one within a sweep
    S = rng.standard_normal((n, n))
    S = (S + S.T) / 2.0
    vals, vecs = jacobi_eigh(S)
    ref = np.linalg.eigvalsh(S)
    scale = max(1.0, np.max(np.abs(ref)))
    assert vals.shape == (n,) and vecs.shape == (n, n)
    assert np.max(np.abs(vals - ref)) < 1e-12 * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-13
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - S)) < 1e-12 * scale


def test_jacobi_diagonal_input_is_returned_unchanged():
    d = np.array([-2.0, 0.5, 1.0, 3.0, 7.0])
    vals, vecs = jacobi_eigh(np.diag(d))
    assert np.array_equal(vals, d)
    assert np.array_equal(vecs, np.eye(5))


def test_jacobi_sweep_budget_is_typed(rng):
    S = rng.standard_normal((30, 30))
    S = (S + S.T) / 2.0
    with pytest.raises(NoConvergenceBudget):
        jacobi_eigh(S, max_sweeps=1)


def test_spectral_module_uses_no_linalg():
    # the oracle is only independent while it shares no code with LAPACK
    assert "linalg" not in inspect.getsource(spectral)


def test_eigh_weighted_rejects_non_finite_operator(k3):
    sp, cond, _ = k3
    A, mu = generator(sp, cond, "combinatorial")
    A[0, 1] = A[1, 0] = np.nan
    with pytest.raises(NotSelfAdjoint):
        eigh_weighted(A, mu)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_eigh_weighted_rejects_nonpositive_measure(k3, bad):
    sp, cond, _ = k3
    A, _ = generator(sp, cond, "combinatorial")
    with pytest.raises(NonpositiveMeasure):
        eigh_weighted(A, np.array([1.0, bad, 1.0]))


def test_eigh_weighted_two_point(two_point):
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_eigh_weighted_k3(k3):
    sp, cond, _ = k3
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_eigh_weighted_single_point():
    sp, cond, _ = build_space(["a"], None, [("a", "a", 1.0)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert np.allclose(spec.eigenvalues, [0.0], atol=1e-14)
    assert spectral_heat(spec, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_spectral_invariants_random(rng, kind):
    for _ in range(8):
        sp, cond, _ = random_connected_graph(rng, random_measure=True)
        A, mu = generator(sp, cond, kind)
        spec = eigh_weighted(A, mu)
        n = sp.n
        phi = spec.eigenvectors
        # mu-orthonormality
        G = phi.T @ (mu[:, None] * phi)
        assert np.max(np.abs(G - np.eye(n))) < 1e-12
        # eigenpair residual recorded and small
        assert spec.residual < 1e-10
        for i in range(n):
            r = A @ phi[:, i] - spec.eigenvalues[i] * phi[:, i]
            assert np.max(np.abs(r)) < 1e-10
        # bottom of the spectrum
        assert spec.eigenvalues[0] >= -1e-10
        assert spec.zero_multiplicity == 1
        assert spec.gap > 0.0


def test_two_oracle_agreement(rng):
    # spectral assembly against the scaled-and-squared Taylor series
    for _ in range(6):
        sp, cond, _ = random_connected_graph(rng, random_measure=True)
        A, mu = generator(sp, cond, "combinatorial")
        spec = eigh_weighted(A, mu)
        for t in (0.1, 1.0, 5.0):
            K1 = spectral_heat(spec, t)
            K2 = expm_series(A, t) / mu[None, :]
            assert np.max(np.abs(K1 - K2)) < 1e-11


def test_semigroup_exactness(rng):
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    for s, t in ((0.3, 0.7), (1.0, 1.5), (0.05, 4.0)):
        lhs = spectral_heat(spec, s + t)
        rhs = spectral_heat(spec, s) @ (mu[:, None] * spectral_heat(spec, t))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_spectral_heat_at_zero_is_dirac(rng):
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert np.max(np.abs(spectral_heat(spec, 0.0) - np.diag(1.0 / mu))) < 1e-11


def test_degenerate_modes_compared_as_kernels(k3):
    # eigenvalue 3 has multiplicity two; individual eigenvectors are not
    # pinned down, but the assembled kernel is
    sp, cond, _ = k3
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    t = 0.8
    K = spectral_heat(spec, t)
    # closed form for the unit triangle: diagonal and off-diagonal values
    diag = (1.0 + 2.0 * np.exp(-3.0 * t)) / 3.0
    off = (1.0 - np.exp(-3.0 * t)) / 3.0
    want = np.full((3, 3), off) + np.diag(np.full(3, diag - off))
    assert np.max(np.abs(K - want)) < 1e-13


def test_degenerate_k6_compared_as_kernels():
    # eigenvalue 6 of the unit K6 has multiplicity five
    names = list("abcdef")
    edges = [(a, b, 1.0) for i, a in enumerate(names) for b in names[i + 1:]]
    sp, cond, _ = build_space(names, None, edges)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert np.allclose(spec.eigenvalues, [0.0] + [6.0] * 5, atol=1e-12)
    t = 0.3
    decay = np.exp(-6.0 * t)
    want = np.full((6, 6), (1.0 - decay) / 6.0) + np.eye(6) * decay
    assert np.max(np.abs(spectral_heat(spec, t) - want)) < 1e-13


def test_expm_series_diagonal():
    A = np.diag([1.0, 2.0])
    E = expm_series(A, 1.0)
    assert np.allclose(np.diag(E), [np.exp(-1.0), np.exp(-2.0)], atol=1e-14)
    assert abs(E[0, 1]) < 1e-15 and abs(E[1, 0]) < 1e-15


def test_expm_series_zero_matrix():
    assert np.array_equal(expm_series(np.zeros((3, 3)), 2.0), np.eye(3))


def test_zero_multiplicity_counts_components():
    sp, cond, _ = build_space(["a", "b", "c", "d"], None,
                              [("a", "b", 1.0), ("c", "d", 1.0)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert spec.zero_multiplicity == 2


def test_spectral_heat_settles_at_large_times():
    # the Jacobi solver leaves lambda_0 = -8.0e-18 on this uneven measure, within its
    # rounding n u max(1, lambda_max): read as 0, the kernel settles on Pi_0 = 1 / mu(X)
    # instead of growing
    sp, cond, _ = build_space(["a", "b", "c"], [1.0, 2.0, 0.5],
                              [("a", "b", 1.0), ("b", "c", 2.0)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert -3 * 2.0 ** -53 * spec.eigenvalues[-1] <= spec.eigenvalues[0] < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.max(np.abs(spectral_heat(spec, 1e17) - 1.0 / mu.sum())) <= 1e-12
        assert np.all(np.isfinite(spectral_heat(spec, 1e300)))


@pytest.mark.parametrize("lam0", [-1.0, -1e-12])
def test_spectral_heat_keeps_a_negative_eigenvalue_beyond_rounding(lam0):
    # an eigenvalue below 0 by more than n u max(1, lambda_max) is the operator's own,
    # and K grows with it, even one inside the zero cluster (|lambda| <= zero_tol): the
    # oracle shows a generator that is not nonnegative instead of hiding it
    spec = eigh_weighted(np.diag([lam0, 1.0]), np.ones(2))
    t = -1.0 / lam0
    assert np.allclose(spectral_heat(spec, t), np.diag([np.e, np.exp(-t)]))


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.5])
def test_spectral_heat_refuses_bad_times(t):
    spec = eigh_weighted(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2))
    with pytest.raises(HorizonExceeded):
        spectral_heat(spec, t)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_expm_series_refuses_non_finite_time(t):
    with pytest.raises(HorizonExceeded):
        expm_series(np.eye(2), t)


def test_expm_series_refuses_non_finite_operator():
    with pytest.raises(NotSelfAdjoint):
        expm_series(np.array([[float("nan"), 0.0], [0.0, 1.0]]), 1.0)


def test_expm_series_refuses_53_squarings():
    # at t = 1e17 this path needs 61 squarings, which amplify the rounding of a kernel
    # that settles on Pi_0 = 1 / mu(X) by 2^61: it read 2.2e68 instead of refusing
    sp, cond, _ = build_space(["a", "b", "c"], [1.0, 2.0, 0.5],
                              [("a", "b", 1.0), ("b", "c", 2.0)])
    A, _mu = generator(sp, cond, "combinatorial")
    with pytest.raises(HorizonExceeded, match="needs 61 squarings"):
        expm_series(A, 1e17)
    # t |A|_1 = 2^51 takes 52 squarings, the most it keeps; 2^52 takes 53
    assert expm_series(np.ones((1, 1)), 2.0 ** 51)[0, 0] == 0.0
    with pytest.raises(HorizonExceeded, match="needs 53 squarings"):
        expm_series(np.ones((1, 1)), 2.0 ** 52)
