import dataclasses

import numpy as np
import pytest

from heatkern import (
    ClosedFormKernel,
    Conductance,
    Parametrix,
    PointSpace,
    SeparableKernel,
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
    ConfigError,
    DimensionMismatch,
    InvalidParametrix,
    NotPositiveDefinite,
)

from heatkern.parametrix import _sup_per_time
from heatkern.timekernel import constant_kernel, sup_norms

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
    # 13 grid times, and the order fit from one block of the image at 20, or
    # from its time profile at 20 times for a separable image, with no block
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    for p in (profile_parametrix(sp, cond, profile="exponential"),
              rkhs_parametrix(sp, G, cond)):
        h_calls, image_calls = _count_calls(p.H), _count_calls(p.heat_image)
        phi_calls, separable = [], isinstance(p.heat_image, SeparableKernel)
        if separable:
            phi = p.heat_image.phi
            p.heat_image.phi = lambda ts, phi=phi: phi_calls.append(len(ts)) or phi(ts)
        assert validate(p).passed
        assert h_calls == [13]
        assert (image_calls, phi_calls) == (([], [20]) if separable else ([20], []))


def test_order_fit_reads_a_separable_image_without_a_block(two_point, rng):
    # |phi(t)| max|M| is the block's max|phi(t) M| bit for bit, rounding being
    # monotone: for the dirac image (phi = 1), the rkhs image (e^-t) and a phi
    # that changes sign, at scales from 1e-300 to 1e300
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    ts = np.geomspace(1e-4, 1.0, 20)
    images = [dirac_parametrix(sp, cond).heat_image, rkhs_parametrix(sp, G, cond).heat_image]
    for scale in (1e-300, 1.0, 1e300):
        images.append(SeparableKernel(sp, 2.0, sp.lam, lambda t: np.cos(9.0 * t) - 0.3,
                                      scale * rng.standard_normal((2, 2))))
    for f in images:
        assert isinstance(f, SeparableKernel)
        assert np.array_equal(_sup_per_time(f, ts), f.per_time(ts, sup_norms))


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


@pytest.mark.parametrize("order", [np.nan, -3, np.inf, 0.5])
def test_profile_refuses_an_unusable_order(two_point, order):
    sp, cond, _ = two_point
    with pytest.raises(ConfigError, match="nonnegative integer"):
        profile_parametrix(sp, cond, profile="exponential", order=order)


@pytest.mark.parametrize("change, match", [
    ({"order_k": -3}, "nonnegative integer"),
    ({"order_k": np.nan}, "nonnegative integer"),
], ids=["order-negative", "order-nan"])
def test_parametrix_refuses_an_unusable_declaration(two_point, change, match):
    # a hand-edited starter is refused where it is made, before any build
    sp, cond, _ = two_point
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(dirac_parametrix(sp, cond), **change)


def test_parametrix_reads_its_space_pairing_and_rate_from_its_kernels(k3):
    # eight settable values: the space and pairing are H's, the generator is made of
    # the space, conductance and kind, and the rate is the row mass of H'(0) W =
    # (f(0) - A H(0)) W, 0 for dirac and the profiles, which start at rest, 1 for
    # rkhs (H'(0) W = -I) and the generator's for a full basis
    sp, cond, _ = k3
    assert sum(f.init for f in dataclasses.fields(Parametrix)) == 8
    starters = {
        "dirac": dirac_parametrix(sp, cond),
        "epanechnikov": profile_parametrix(sp, cond, "epanechnikov"),
        "exponential": profile_parametrix(sp, cond, "exponential"),
        "spectral": spectral_parametrix(sp, cond, sp.n),
        "rkhs": rkhs_parametrix(sp, np.eye(sp.n) + 0.1, cond),
    }
    for name, p in starters.items():
        assert p.space is p.H.space and p.weight is p.H.weight, name
        with pytest.raises(TypeError):
            dataclasses.replace(p, space=PointSpace(("x", "y", "z"), np.ones(3)))
    assert [starters[name].rate for name in ("dirac", "epanechnikov", "exponential")] == [0.0] * 3
    assert starters["rkhs"].rate == pytest.approx(1.0, rel=1e-12)
    A, _ = generator(sp, cond)
    assert starters["spectral"].rate == pytest.approx(np.abs(A).sum(axis=1).max(), rel=1e-12)


def test_replacing_a_kernel_recomputes_the_rate(two_point):
    # a starter that jumps to 2 diag(1/mu) at t = 0 moves at once: H'(0) W = -A,
    # row mass 2 on the unit edge; an image that is not finite there is refused by name
    sp, cond, _ = two_point
    p = dirac_parametrix(sp, cond, horizon=2.0)
    q = dataclasses.replace(p, H=constant_kernel(sp, 2.0, p.weight, 2.0 * p.H.at(0.0)))
    assert (p.rate, q.rate) == (0.0, 2.0)
    for bad in (np.nan, np.inf):
        image = ClosedFormKernel(sp, 2.0, p.weight, name="broken-image",
                                 evaluator=lambda ts, bad=bad: np.full((ts.size, 2, 2), bad))
        with pytest.raises(InvalidParametrix, match="broken-image"):
            dataclasses.replace(p, heat_image=image)


def test_parametrix_makes_its_generator_from_its_conductance_and_kind(path3):
    # A is not declared: replacing the conductance or the kind remakes it, and a
    # kind `generator` does not know is refused at construction, not at the build
    sp, cond, _ = path3
    p = dirac_parametrix(sp, cond)
    q = dataclasses.replace(p, conductance=Conductance(3.0 * cond.matrix), kind="normalized")
    for s in (p, q):
        assert np.array_equal(s.generator_matrix, generator(s.space, s.conductance, s.kind)[0])
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(p, generator_matrix=np.zeros((3, 3)))
    with pytest.raises(ConfigError, match="bogus"):
        dataclasses.replace(p, kind="bogus")


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_validate_reads_a_huge_gram_in_its_hilbert_flavor(path3, scale):
    # the L2 residual of H(t) = e^-t G against the counting measure overflows: that
    # flavor reads inf and fails, with no RuntimeWarning, and the Hilbert flavor decides
    sp, cond, _ = path3
    report = validate(rkhs_parametrix(sp, scale * np.eye(3), cond))
    assert report.flavors == {"1-infty": False, "2-2": False, "hilbert": True}
    assert report.passed


@pytest.mark.parametrize("tolerance", [np.nan, -1.0, 0.0, np.inf])
def test_validate_refuses_an_unusable_tolerance(two_point, tolerance):
    sp, cond, _ = two_point
    with pytest.raises(ConfigError, match="positive and finite"):
        validate(dirac_parametrix(sp, cond), tolerance=tolerance)


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
