import numpy as np
import pytest

from heatkern import (
    build_heat_kernel,
    build_space,
    dirac_parametrix,
    generator,
    profile_parametrix,
    rkhs_parametrix,
    spectral_parametrix,
    validate,
)
from heatkern.errors import (
    BadTruncation,
    DimensionMismatch,
    InvalidParametrix,
    NotPositiveDefinite,
)

from _graphs import random_connected_graph


def test_dirac_mass_normalization():
    sp, cond, _ = build_space(["a", "b"], [2.0, 1.0], [("a", "b", 1.0)])
    p = dirac_parametrix(sp, cond)
    H0 = p.H.at(0.7)
    assert H0[0, 0] == 0.5
    assert H0[1, 1] == 1.0
    assert H0[0, 1] == 0.0


def test_dirac_validates(two_point):
    sp, cond, _ = two_point
    p = dirac_parametrix(sp, cond)
    rep = validate(p)
    assert rep.passed
    assert rep.flavors["1-infty"]
    assert rep.flavors["2-2"]
    assert rep.order_k == 0
    assert rep.dirac_residual == 0.0  # identity kernel, exact at t = 0


def test_loose_validation_cannot_reach_a_build(k3):
    # one mode of three loses the Dirac property (residual 2/3); a report at
    # tolerance 1 passes the starter, and the build must still refuse it
    sp, cond, _ = k3
    p = spectral_parametrix(sp, cond, n_modes=1)
    assert validate(p, tolerance=1.0).passed
    with pytest.raises(InvalidParametrix):
        build_heat_kernel(p, 5.0, 1e-8)


def test_dirac_residual_grid_is_monotone(rng):
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    p = dirac_parametrix(sp, cond)
    rep = validate(p)
    vals = rep.residual_values
    assert np.all(vals[1:] <= vals[:-1] * (1 + 1e-9) + 1e-13)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_dirac_image_is_exact(rng, kind):
    # H is diag(1/mu) at every time, so L_x H = A diag(1/mu) exactly
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    p = dirac_parametrix(sp, cond, kind=kind)
    A, mu = generator(sp, cond, kind)
    want = A @ np.diag(1.0 / mu)
    for t in np.linspace(0.01, 10.0, 23):
        assert np.array_equal(p.heat_image.at(t), want)


def _count_calls(kernel):
    calls = []

    def counted(ts, evaluate=kernel.evaluator):
        calls.append(len(ts))
        return evaluate(ts)

    kernel.evaluator = counted
    return calls


def test_validate_evaluates_each_kernel_once(two_point):
    # the Dirac residuals of every flavor come from one block of H at the
    # 13 grid times, and the order fit from one block of the image at 20
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    for p in (profile_parametrix(sp, cond, profile="exponential"),
              rkhs_parametrix(sp, G, cond)):
        h_calls, image_calls = _count_calls(p.H), _count_calls(p.heat_image)
        assert validate(p).passed
        assert h_calls == [13]
        assert image_calls == [20]


def test_profile_exponential_ratio(two_point):
    sp, cond, _ = two_point
    p = profile_parametrix(sp, cond, profile="exponential")
    H = p.H.at(1.0)
    assert H[0, 1] / H[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_profile_rows_normalized(rng):
    sp, cond, _ = random_connected_graph(rng, random_measure=True, n_max=8)
    for profile in ("epanechnikov", "exponential"):
        p = profile_parametrix(sp, cond, profile=profile)
        _, mu = generator(sp, cond, "combinatorial")
        for t in (0.05, 0.3, 1.0, 7.0):
            mass = p.H.at(t) @ mu
            assert np.max(np.abs(mass - 1.0)) < 1e-12


def test_profile_epanechnikov_compact_support(two_point):
    sp, cond, _ = two_point
    p = profile_parametrix(sp, cond, profile="epanechnikov")
    # d(a, b) = 1, so for t < 1 the off-diagonal entry is exactly zero
    assert p.H.at(0.5)[0, 1] == 0.0
    assert p.H.at(2.0)[0, 1] > 0.0


def test_profile_dirac_limit(two_point):
    sp, cond, _ = two_point
    p = profile_parametrix(sp, cond, profile="exponential")
    assert np.array_equal(p.H.at(0.0), np.eye(2))
    rep = validate(p)
    assert rep.passed


def test_profile_unknown_name(two_point):
    sp, cond, _ = two_point
    with pytest.raises(DimensionMismatch):
        profile_parametrix(sp, cond, profile="gaussian")


def test_profile_overdeclared_order_fails_validation(two_point):
    sp, cond, _ = two_point
    p = profile_parametrix(sp, cond, profile="exponential", order=2)
    rep = validate(p)
    assert rep.fitted_order < 1.9
    assert not rep.passed


def test_spectral_full_basis_two_point(two_point):
    sp, cond, _ = two_point
    p = spectral_parametrix(sp, cond, n_modes=2)
    rep = validate(p)
    assert rep.passed
    # all modes retained: the starter already is the heat kernel
    assert np.max(np.abs(p.heat_image.at(0.5))) == 0.0
    assert rep.fitted_order == np.inf


def test_spectral_truncated_two_point(two_point):
    sp, cond, _ = two_point
    p = spectral_parametrix(sp, cond, n_modes=1)
    # ground mode only: every entry is 1/2 under the counting measure
    assert np.max(np.abs(p.H.at(0.3) - 0.5)) < 1e-14
    rep = validate(p)
    assert not rep.passed
    assert rep.dirac_residual == pytest.approx(0.5, abs=1e-12)


def test_spectral_truncation_bounds(two_point):
    sp, cond, _ = two_point
    with pytest.raises(BadTruncation):
        spectral_parametrix(sp, cond, n_modes=0)
    with pytest.raises(BadTruncation):
        spectral_parametrix(sp, cond, n_modes=3)
    for bad in (np.nan, np.inf, 1.5):
        with pytest.raises(BadTruncation):
            spectral_parametrix(sp, cond, n_modes=bad)


def test_rkhs_heat_image_hand_value(two_point):
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = rkhs_parametrix(sp, G, cond)
    want = np.exp(-0.8) * np.array([[-1.0, -2.0], [-2.0, -1.0]])
    assert np.max(np.abs(p.heat_image.at(0.8) - want)) < 1e-13
    assert np.max(np.abs(p.H.at(0.0) - G)) == 0.0


def test_rkhs_passes_only_hilbert_flavor(two_point):
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = rkhs_parametrix(sp, G, cond)
    rep = validate(p)
    assert rep.passed
    assert rep.flavors["hilbert"]
    assert not rep.flavors["1-infty"]
    assert not rep.flavors["2-2"]


def test_rkhs_rejects_asymmetric_and_indefinite(two_point):
    sp, cond, _ = two_point
    with pytest.raises(NotPositiveDefinite):
        rkhs_parametrix(sp, np.array([[2.0, 1.0], [0.5, 2.0]]), cond)
    with pytest.raises(NotPositiveDefinite):
        rkhs_parametrix(sp, np.array([[1.0, 2.0], [2.0, 1.0]]), cond)
    # numpy's Cholesky does not raise for an all-NaN matrix
    for bad in (np.nan, np.inf):
        with pytest.raises(NotPositiveDefinite):
            rkhs_parametrix(sp, np.full((2, 2), bad), cond)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_families_validate_on_random_graphs(rng, kind):
    for _ in range(3):
        sp, cond, _ = random_connected_graph(rng, n_max=7, random_measure=True)
        for make in (
            lambda: dirac_parametrix(sp, cond, kind=kind),
            lambda: spectral_parametrix(sp, cond, n_modes=sp.n, kind=kind),
        ):
            rep = validate(make())
            assert rep.passed, rep


def test_profile_validates_on_moderate_weights(rng):
    # the order-fit window [1e-3, 1e-1] is asymptotic only when edge
    # lengths 1/w sit well above it; wild weights put a transient bump of
    # the heat image inside it, and refusal there is honest
    for _ in range(3):
        sp, cond, _ = random_connected_graph(rng, n_max=7,
                                             weight_range=(0.5, 2.0))
        rep = validate(profile_parametrix(sp, cond, profile="exponential"))
        assert rep.passed, rep


def test_fitted_order_meets_declaration(rng):
    sp, cond, _ = random_connected_graph(rng, n_max=6)
    p = dirac_parametrix(sp, cond)
    rep = validate(p)
    assert rep.fitted_order >= p.order_k - 0.1


def test_validate_report_fields(two_point):
    sp, cond, _ = two_point
    rep = validate(dirac_parametrix(sp, cond))
    assert rep.family == "dirac"
    assert rep.residual_ts.shape == rep.residual_values.shape
    assert rep.residual_ts[-1] == 0.0
    assert set(rep.flavors) == {"1-infty", "2-2", "hilbert"}
