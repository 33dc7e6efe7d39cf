import dataclasses
import math

import numpy as np
import pytest

from heatkern import (
    ChebKernel,
    ClosedFormKernel,
    Conductance,
    build_heat_kernel,
    build_space,
    convolve,
    cross_parametrix_build,
    dirac_parametrix,
    eigh_weighted,
    expm_series,
    generator,
    profile_parametrix,
    rkhs_parametrix,
    SeparableKernel,
    spectral_heat,
    spectral_parametrix,
    validate,
)
from heatkern.errors import (
    HorizonExceeded,
    InvalidParametrix,
    NoConvergenceBudget,
    SpaceMismatch,
)
from heatkern import neumann
from heatkern.neumann import _defect_bound, _pieces
from heatkern.timekernel import ChebSeries, lobatto_nodes

from _graphs import random_connected_graph


def closed_form_two_point(t):
    e = np.exp(-2.0 * t)
    return np.array([[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]])


def closed_form_triangle(t):
    # e^{-tL} on the unit triangle: J/3 + e^{-3t} (I - J/3)
    return np.full((3, 3), 1.0 / 3.0) + np.exp(-3.0 * t) * (np.eye(3) - 1.0 / 3.0)


def test_two_point_closed_form(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0)
    K1 = res.K.at(1.0)
    assert K1[0, 0] == pytest.approx(0.56766764, abs=1e-8)
    for t in (0.05, 0.3, 1.0, 4.0, 10.0):
        assert np.max(np.abs(res.K.at(t) - closed_form_two_point(t))) < 1e-10
    assert res.truncation_bound < 1e-8
    assert res.terms_used >= 1


def test_kernel_at_zero_is_dirac():
    sp, cond, _ = build_space(["a", "b"], [2.0, 1.0], [("a", "b", 3.0)])
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0)
    assert np.max(np.abs(res.K.at(0.0) - np.diag([0.5, 1.0]))) < 1e-14


def test_k3_matches_spectral_oracle(k3):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    dev = np.max(np.abs(res.K.at(0.5) - spectral_heat(spec, 0.5)))
    assert dev < 1e-8


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_oracle_agreement_random_graphs(rng, kind):
    for _ in range(4):
        sp, cond, _ = random_connected_graph(rng, n_max=9, random_measure=True)
        res = build_heat_kernel(dirac_parametrix(sp, cond, kind=kind), T=5.0)
        A, mu = generator(sp, cond, kind)
        spec = eigh_weighted(A, mu)
        for t in (0.05, 0.5, 1.0, 5.0):
            dev = np.max(np.abs(res.K.at(t) - spectral_heat(spec, t)))
            assert dev < 1e-7, (kind, sp.n, t, dev)


def test_profile_starter_builds_to_same_kernel(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(profile_parametrix(sp, cond, "exponential"),
                            T=5.0, tol=1e-5)
    assert res.truncation_bound < 1e-5
    for t in (0.2, 1.0, 5.0):
        assert np.max(np.abs(res.K.at(t) - closed_form_two_point(t))) < 1e-5


def test_profile_starter_refuses_tight_tolerance(two_point):
    # a profile starter is not analytic at t = 0.  With measure 0.05 on
    # the unit edge, one assembly on the default grid is certified at
    # 1e-10 and sits within its bound of the closed form.  On the unit
    # edge itself the exponential profile's kernel is about 2e-7 off on
    # that grid, so 1e-10 is refused after max_terms, naming the residual;
    # and a tolerance below the floating-point allowance is refused at once
    sp, cond, _ = build_space(["a", "b"], [0.05, 0.05], [("a", "b", 1.0)])
    p = profile_parametrix(sp, cond, "exponential", horizon=1.0)
    res = build_heat_kernel(p, T=1.0, tol=1e-10)
    assert res.truncation_bound < 1e-10
    for t in np.linspace(0.0, 1.0, 26):
        exact = closed_form_two_point(t / 0.05) / 0.05
        assert np.max(np.abs(res.K.at(t) - exact)) <= res.truncation_bound
    with pytest.raises(NoConvergenceBudget, match="allowance"):
        build_heat_kernel(p, T=1.0, tol=1e-15)
    sp, cond, _ = two_point
    with pytest.raises(NoConvergenceBudget, match="residual"):
        build_heat_kernel(profile_parametrix(sp, cond, "exponential"), T=5.0, tol=1e-10)


def test_refused_build_assembles_once(two_point, monkeypatch):
    # a bound that misses tol is refused without a second assembly: the
    # folds left out are already below tol / 2, so more would not lower it
    sp, cond, _ = two_point
    made = []

    def counted(*args):
        made.append(args)
        return ChebSeries(*args)

    monkeypatch.setattr(neumann, "ChebSeries", counted)
    with pytest.raises(NoConvergenceBudget, match="residual"):
        build_heat_kernel(profile_parametrix(sp, cond, "exponential"), T=5.0, tol=1e-10)
    assert len(made) == 1


def test_full_spectral_starter_is_one_term(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(spectral_parametrix(sp, cond, n_modes=2), T=5.0)
    assert res.terms_used <= 1
    assert np.max(np.abs(res.K.at(1.0) - closed_form_two_point(1.0))) < 1e-12


def test_stiff_graph_squares_down(rng):
    sp, cond, _ = build_space(["a", "b"], None, [("a", "b", 40.0)])
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0)
    assert res.squarings > 0
    assert res.base_horizon * 2 ** res.squarings == pytest.approx(10.0)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    for t in (0.01, 0.5, 10.0):
        assert np.max(np.abs(res.K.at(t) - spectral_heat(spec, t))) < 1e-8


def test_certificate_reflects_tolerance(two_point):
    # down the tolerance ladder each certificate meets its tol and covers
    # the closed form, and a tighter tol never takes fewer folds
    sp, cond, _ = two_point
    terms = 0
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=tol)
        dev = _worst(res, closed_form_two_point, np.linspace(0.0, 10.0, 20))
        assert dev <= res.truncation_bound < tol, tol
        assert res.terms_used >= terms, tol
        terms = res.terms_used


@pytest.mark.parametrize("family", ["dirac", "rkhs"])
def test_few_terms_certify_by_halving(family):
    # a fold cap too small for the default base horizon is met by halving
    # it until the last fold kept no longer matters
    sp, cond, _ = build_space(["a", "b", "c"], [1.0, 2.0, 0.5], [("a", "b", 1.0), ("b", "c", 0.5)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    G = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
    p = (dirac_parametrix(sp, cond, horizon=2.0) if family == "dirac"
         else rkhs_parametrix(sp, G, cond, horizon=2.0))

    def exact(t):
        return spectral_heat(spec, t) if family == "dirac" else expm_series(A, t) @ G

    free = build_heat_kernel(p, T=2.0, tol=1e-4)
    for max_terms in (3, 2):
        res = build_heat_kernel(p, T=2.0, tol=1e-4, max_terms=max_terms)
        assert res.terms_used == max_terms < free.terms_used
        assert res.squarings > free.squarings
        assert _worst(res, exact, np.linspace(0.0, 2.0, 21)) <= res.truncation_bound < 1e-4


@pytest.mark.parametrize("max_terms", [1, 0])
def test_too_few_terms_are_refused(two_point, max_terms):
    # one fold moves the kernel by about T max|f| however T is split, so
    # halving runs into the floating-point allowance and the build refuses
    sp, cond, _ = two_point
    with pytest.raises(NoConvergenceBudget, match="allowance"):
        build_heat_kernel(dirac_parametrix(sp, cond, horizon=2.0), T=2.0, tol=1e-4,
                          max_terms=max_terms)


def test_pieces_saturate_to_inf():
    # a Gram pairing's (1 + eps)^grow past e^700 is inf, not an OverflowError
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert _pieces(5.0, 2.0 ** 9, G) == math.inf
    assert _pieces(5.0, 2.0 ** 9, None) == 5.0 * 2.0 ** 9
    assert _pieces(1e-3, 4.0, G) == 2.0 * math.expm1(4.0 * math.log1p(1e-3))


def test_build_refuses_truncated_spectral(two_point):
    sp, cond, _ = two_point
    bad = spectral_parametrix(sp, cond, n_modes=1)
    with pytest.raises(InvalidParametrix):
        build_heat_kernel(bad, T=1.0)


def test_build_horizon_guard(two_point):
    sp, cond, _ = two_point
    p = dirac_parametrix(sp, cond, horizon=2.0)
    with pytest.raises(HorizonExceeded):
        build_heat_kernel(p, T=5.0)
    with pytest.raises(HorizonExceeded):
        build_heat_kernel(p, T=-1.0)
    with pytest.raises(HorizonExceeded):
        build_heat_kernel(p, T=math.nan)


def test_build_refuses_nan_tolerance_at_once(two_point, monkeypatch):
    # the allowance test fails for NaN, so no horizon is halved
    sp, cond, _ = two_point
    folds = []
    monkeypatch.setattr(neumann, "FoldCache", lambda *a, **k: folds.append(a))
    with pytest.raises(NoConvergenceBudget):
        build_heat_kernel(dirac_parametrix(sp, cond), T=1.0, tol=math.nan)
    assert folds == []


def _integral(kernel):
    """Chebyshev coefficients of int_0^t kernel on the kernel's horizon."""
    return np.polynomial.chebyshev.chebint(kernel.coeffs, lbnd=-1, scl=kernel.horizon / 2.0)


def _cheb_at(coeffs, horizon, t):
    return np.polynomial.chebyshev.chebval(2.0 * t / horizon - 1.0, coeffs)


def test_duhamel_identity(two_point, rng):
    # L(H * f) = f + (L_x H) * f, the identity the series construction
    # rests on; checked in the integral form the certificate uses,
    # g(t) - g(0) + A int_0^t g = int_0^t (f + (L_x H) * f), g = H * f
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    p = dirac_parametrix(sp, cond, horizon=2.0)
    B = rng.standard_normal((2, 2))
    C = rng.standard_normal((2, 2))
    f = ClosedFormKernel(sp, 2.0, mu, lambda ts: np.exp(-0.4 * ts)[:, None, None] * B
                         + ts[:, None, None] * C)
    nodes = lobatto_nodes(32, 2.0)
    g = ChebSeries(sp, 2.0, mu, np.stack([convolve(p.H, f, t) for t in nodes]))
    h = ChebSeries(sp, 2.0, mu, np.stack([f.at(t) + convolve(p.heat_image, f, t)
                                          for t in nodes]))
    Ig, Ih = _integral(g), _integral(h)
    for t in (0.3, 0.9, 1.6):
        lhs = g.at(t) - g.at(0.0) + A @ _cheb_at(Ig, 2.0, t)
        assert np.max(np.abs(lhs - _cheb_at(Ih, 2.0, t))) < 1e-9


def test_heat_residual_of_built_kernel(two_point):
    # the integral residual r(t) = K(t) - K(0) + A int_0^t K of the base
    # kernel, evaluated directly at 41 times, sits within the coefficient
    # sum the certificate charges; and the certificate is that bound alone
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    A, base = res.generator_matrix, res.K.base
    K0 = np.diag(1.0 / res.weight)
    E0, rho, fp = _defect_bound(base, A, K0)
    assert rho < 1e-6
    I = _integral(base)
    for t in np.linspace(0.0, base.horizon, 41):
        r = base.at(t) - base.at(0.0) + A @ _cheb_at(I, base.horizon, t)
        assert np.max(np.abs(r)) <= rho + 1e-15
    h = base.horizon * np.max(np.sum(np.abs(A), axis=1))
    assert res.truncation_bound == (E0 + (1.0 + h) * rho + fp) * 2.0 ** res.squarings


def test_cross_build_weight_perturbation(rng, k3):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0)
    W = cond.matrix.copy()
    W[0, 1] = W[1, 0] = 1.3
    cond2 = Conductance(W)
    res2 = cross_parametrix_build(res, conductance=cond2, tol=1e-9)
    A2, mu2 = generator(sp, cond2, "combinatorial")
    spec2 = eigh_weighted(A2, mu2)
    for t in (0.1, 1.0, 5.0):
        dev = np.max(np.abs(res2.K.at(t) - spectral_heat(spec2, t)))
        assert dev < 1e-9
    assert res2.parametrix_family == "imported"


def test_cross_build_measure_change(k3):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0)
    res2 = cross_parametrix_build(res, lam=np.array([1.0, 1.0, 2.0]), tol=1e-9)
    assert np.max(np.abs(res2.K.at(0.0) - np.diag([1.0, 1.0, 0.5]))) < 1e-12
    A2, mu2 = generator(res2.space, cond, "combinatorial")
    spec2 = eigh_weighted(A2, mu2)
    dev = np.max(np.abs(res2.K.at(1.0) - spectral_heat(spec2, 1.0)))
    assert dev < 1e-9


def test_cross_build_stiff_weight_perturbation(rng):
    # the imported starter relaxes on the old kernel's time scale 1/rate,
    # which a stiff graph puts inside the default order-fit window; the
    # fit must look below it, or every such rebuild is refused
    sp, cond, _ = random_connected_graph(rng, n_min=12, n_max=12, random_measure=True)
    A, _ = generator(sp, cond, "combinatorial")
    W = cond.matrix * (50.0 / np.max(np.sum(np.abs(A), axis=1)))
    res = build_heat_kernel(dirac_parametrix(sp, Conductance(W), horizon=5.0), T=5.0)
    for _ in range(2):
        f = np.exp(rng.uniform(np.log(0.7), np.log(1.4), size=W.shape))
        cond2 = Conductance(W * (f + f.T) / 2.0)
        res2 = cross_parametrix_build(res, conductance=cond2, tol=1e-8)
        A2, mu2 = generator(sp, cond2, "combinatorial")
        spec2 = eigh_weighted(A2, mu2)
        dev = max(float(np.max(np.abs(res2.K.at(t) - spectral_heat(spec2, t))))
                  for t in np.linspace(0.0, 5.0, 11))
        assert dev <= res2.truncation_bound < 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_cross_build_refuses_unusable_measure(k3, bad):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=1.0)
    with pytest.raises(InvalidParametrix, match="positive and finite"):
        cross_parametrix_build(res, lam=np.array([1.0, bad, 1.0]))


def test_cross_build_rejects_hilbert_kernels(two_point):
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = build_heat_kernel(rkhs_parametrix(sp, G, cond), T=2.0)
    with pytest.raises(InvalidParametrix):
        cross_parametrix_build(res, lam=np.array([1.0, 2.0]))


def test_rkhs_build_matches_operator_exponential(two_point):
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = build_heat_kernel(rkhs_parametrix(sp, G, cond), T=2.0)
    from heatkern import expm_series
    A, _ = generator(sp, cond, "combinatorial")
    for t in (0.3, 1.0, 2.0):
        want = expm_series(A, t) @ G
        assert np.max(np.abs(res.K.at(t) - want)) < 1e-10


@pytest.mark.parametrize("family", ["dirac", "rkhs"])
def test_separable_path_matches_generic_path(rng, family):
    # the build from SeparableKernels (scalar Volterra folds and assembly)
    # against the same series on the same base grid summed from per-node
    # `convolve` calls, the reference
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    if family == "dirac":
        p = dirac_parametrix(sp, cond, horizon=2.0)
    else:
        X = rng.standard_normal((sp.n, sp.n))
        p = rkhs_parametrix(sp, X @ X.T / sp.n + np.eye(sp.n), cond, horizon=2.0)
    assert isinstance(p.H, SeparableKernel)
    assert isinstance(p.heat_image, SeparableKernel)
    fast = build_heat_kernel(p, T=2.0, tol=1e-8)
    f, H, Tb = p.heat_image, p.H, fast.base_horizon
    nodes = lobatto_nodes(fast.K.base.degree, Tb)
    fold, Fvals = f, -f.at_many(nodes)
    for ell in range(2, fast.terms_used + 1):
        fold = ChebKernel(sp, Tb, p.weight, np.stack([convolve(f, fold, t) for t in nodes]))
        Fvals += (-1) ** ell * fold.values
    F = ChebKernel(sp, Tb, p.weight, Fvals)
    ref = np.stack([H.at(t) + convolve(H, F, t) for t in nodes])
    assert np.max(np.abs(fast.K.base.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("path", ["separable", "generic"])
@pytest.mark.parametrize("role", ["H", "heat_image"])
def test_build_refuses_mixed_pairings(two_point, path, role):
    # a starter or image paired under another weight than the record's is
    # refused on the separable path as on the per-node path
    sp, cond, _ = two_point
    p = dirac_parametrix(sp, cond, horizon=2.0)
    if path == "generic":
        p = dataclasses.replace(p, **{
            name: ClosedFormKernel(sp, k.horizon, k.weight, k.evaluator)
            for name, k in (("H", p.H), ("heat_image", p.heat_image))})
    k = getattr(p, role)
    if path == "separable":
        bad = SeparableKernel(sp, k.horizon, 2.0 * k.weight, k.phi, k.matrix)
    else:
        bad = ClosedFormKernel(sp, k.horizon, 2.0 * k.weight, k.evaluator)
    with pytest.raises(SpaceMismatch):
        build_heat_kernel(dataclasses.replace(p, **{role: bad}), T=2.0)


def _served(build, tol):
    # a stiff graph may honestly refuse a tight tolerance; a looser request
    # must then be served
    while True:
        try:
            return build(tol)
        except NoConvergenceBudget:
            tol *= 10.0
            assert tol <= 1e-3, "refusal should not persist at loose tol"


def _worst(res, exact, times):
    return max(float(np.max(np.abs(res.K.at(t) - exact(t)))) for t in times)


def _gram(rng, n, condition):
    # a random symmetric positive definite Gram of the given condition
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    G = (Q * np.geomspace(1.0, 1.0 / condition, n)) @ Q.T
    return (G + G.T) / 2.0


def test_profile_certificates_hold_on_random_graphs(rng):
    # seeded sweep: uneven measures, both kinds and both profiles; a
    # certified build sits within its bound of the oracle.  With weights
    # 0.1..10 a starter can only be refused by validation, never by its
    # build; stiff graphs (weights 1e-3..1e3) may also be refused by the
    # build, where one default grid resolves the profile only to about
    # 1e-7 per base horizon
    certified = 0
    for weights in ((0.1, 10.0), (1e-3, 1e3), (0.1, 10.0), (1e-3, 1e3)):
        sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=12, weight_range=weights,
                                             random_measure=True)
        for kind in ("combinatorial", "normalized"):
            A, mu = generator(sp, cond, kind)
            spec = eigh_weighted(A, mu)
            for profile in ("epanechnikov", "exponential"):
                p = profile_parametrix(sp, cond, profile, kind=kind, horizon=1.0)
                if not validate(p).passed:
                    continue
                try:
                    res = build_heat_kernel(p, T=1.0, tol=1e-5)
                except NoConvergenceBudget:
                    assert weights[1] > 10.0, (sp.n, kind, profile)
                    continue
                dev = _worst(res, lambda t: spectral_heat(spec, t), np.linspace(0.0, 1.0, 11))
                assert dev <= res.truncation_bound < 1e-5, (sp.n, kind, profile, weights)
                certified += 1
    assert certified >= 8


def test_certificate_bound_honored(rng):
    # whenever a certificate is granted, the oracle deviation respects it:
    # dirac builds at both kinds on uneven measures, half of them stiff
    # (weights 1e-3..1e3), each rebuilt on weights moved by up to 40 %; and
    # rkhs builds with Grams of condition up to 1e6, held to the certificate
    # up to T and to twice it at 2T
    rebuilt = 0
    for case in range(8):
        kind = ("combinatorial", "normalized")[case // 2 % 2]
        weights = (1e-3, 1e3) if case % 2 else (0.1, 10.0)
        sp, cond, _ = random_connected_graph(rng, n_max=8, weight_range=weights,
                                             random_measure=True)
        tol = 10.0 ** -rng.integers(6, 11)
        res = _served(lambda tol: build_heat_kernel(dirac_parametrix(sp, cond, kind),
                                                    T=5.0, tol=tol), tol)
        spec = eigh_weighted(*generator(sp, cond, kind))
        worst = _worst(res, lambda t: spectral_heat(spec, t), np.linspace(0.0, 5.0, 21))
        assert worst <= res.truncation_bound < res.tol, (sp.n, kind, weights, worst)
        A, _ = generator(sp, cond, kind)
        G = _gram(rng, sp.n, 10.0 ** rng.uniform(0.0, 6.0))
        res3 = _served(lambda tol: build_heat_kernel(
            rkhs_parametrix(sp, G, cond, kind, horizon=2.0), T=2.0, tol=tol), 1e-8)
        worst = _worst(res3, lambda t: expm_series(A, t) @ G, np.linspace(0.0, 2.0, 21))
        assert worst <= res3.truncation_bound < res3.tol, (sp.n, kind, weights, worst)
        worst = _worst(res3, lambda t: expm_series(A, t) @ G, [4.0])
        assert worst <= 2.0 * res3.truncation_bound, (sp.n, kind, weights, worst)
        f = np.exp(rng.uniform(np.log(0.7), np.log(1.4), size=cond.matrix.shape))
        moved = Conductance(cond.matrix * (f + f.T) / 2.0)
        try:
            res2 = cross_parametrix_build(res, conductance=moved, tol=res.tol)
        except (InvalidParametrix, NoConvergenceBudget):
            continue
        spec2 = eigh_weighted(*generator(sp, moved, kind))
        worst = _worst(res2, lambda t: spectral_heat(spec2, t), np.linspace(0.0, 5.0, 21))
        assert worst <= res2.truncation_bound < res.tol, (sp.n, kind, weights, worst)
        rebuilt += 1
    assert rebuilt >= 4


def test_certificate_covers_roundoff():
    # at tol = 1e-12 the series error is far below roundoff, so the
    # certificate rests on its floating-point allowance; it must still
    # cover what K.at returns at 50 times up to T and, doubled, at 2T
    for edges, exact in ((["ab"], closed_form_two_point),
                         (["ab", "ac", "bc"], closed_form_triangle)):
        points = sorted(set("".join(edges)))
        sp, cond, _ = build_space(points, None, [(e[0], e[1], 1.0) for e in edges])
        res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-12)
        assert res.squarings > 0
        assert _worst(res, exact, np.linspace(0.0, 5.0, 50)) <= res.truncation_bound < 1e-12
        assert _worst(res, exact, [10.0]) <= 2.0 * res.truncation_bound


def test_rkhs_certificate_holds_for_ill_conditioned_gram():
    # a Gram of condition 1e6 on a stiff graph, where the kernel's error
    # past the base horizon grows faster than one piece's bound doubled per
    # squaring: the certificate, proven for the paired kernel K W, covers it
    # to 4T, and is that bound carried over the pieces
    rng = np.random.default_rng(27)
    sp, cond, _ = random_connected_graph(rng, n_min=5, n_max=8, weight_range=(1.0, 30.0),
                                         random_measure=True)
    Q, _ = np.linalg.qr(rng.standard_normal((sp.n, sp.n)))
    G = (Q * np.geomspace(1.0, 1e-6, sp.n)) @ Q.T
    A, _ = generator(sp, cond, "combinatorial")
    res = _served(lambda tol: build_heat_kernel(rkhs_parametrix(sp, G, cond, horizon=2.0),
                                                T=2.0, tol=tol), 1e-8)
    assert res.squarings >= 3
    for t in np.linspace(0.0, 8.0, 33):
        dev = float(np.max(np.abs(res.K.at(t) - expm_series(A, t) @ G)))
        grow = 2.0 ** max(0, math.ceil(math.log2(t / 2.0))) if t > 0 else 1.0
        assert dev <= res.truncation_bound * grow, t
    E0, rho, fp = _defect_bound(res.K.base, A, G)
    h = res.base_horizon * np.max(np.sum(np.abs(A), axis=1))
    eps = E0 + (1.0 + h) * rho + fp
    assert res.truncation_bound == np.max(np.abs(G)) * math.expm1(
        2.0 ** res.squarings * math.log1p(eps))


def test_rkhs_certificates_hold_on_random_graphs(rng):
    # seeded sweep: uneven measures, weights 0.1..10, both kinds, Grams of
    # condition about 10 to 100; the kernel e^{-tA} G sits within the
    # certificate up to T and within it doubled per doubling past T
    certified = 0
    for _ in range(3):
        sp, cond, _ = random_connected_graph(rng, n_min=5, n_max=10, random_measure=True)
        X = rng.standard_normal((sp.n, sp.n))
        G = X @ X.T / sp.n + 0.05 * np.eye(sp.n)
        for kind in ("combinatorial", "normalized"):
            A, _ = generator(sp, cond, kind)
            try:
                res = build_heat_kernel(rkhs_parametrix(sp, G, cond, kind, horizon=2.0),
                                        T=2.0, tol=1e-8)
            except NoConvergenceBudget:
                continue
            for t in np.linspace(0.0, 8.0, 33):
                dev = float(np.max(np.abs(res.K.at(t) - expm_series(A, t) @ G)))
                grow = 2.0 ** max(0, math.ceil(math.log2(t / 2.0))) if t > 0 else 1.0
                assert dev <= res.truncation_bound * grow, (sp.n, kind, t)
            assert res.truncation_bound < 1e-8
            certified += 1
    assert certified >= 5
