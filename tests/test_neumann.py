import dataclasses
import functools
import math

import numpy as np
import pytest

from heatkern import (
    ChebKernel,
    ClosedFormKernel,
    Conductance,
    FoldCache,
    HeatKernelResult,
    build_heat_kernel,
    build_space,
    convolve,
    cross_parametrix_build,
    dirac_parametrix,
    eigh_weighted,
    expm_series,
    generator,
    integer_line,
    profile_parametrix,
    rkhs_parametrix,
    SeparableKernel,
    spectral_heat,
    spectral_parametrix,
    validate,
)
from heatkern.errors import (
    AsymmetricConductance,
    DimensionMismatch,
    HorizonExceeded,
    InvalidParametrix,
    NoConvergenceBudget,
    NonpositiveMeasure,
    SpaceMismatch,
    ZeroDegreePoint,
)
from heatkern import neumann, timekernel
from heatkern.neumann import _defect_bound
from heatkern.timekernel import DCT_ROWS, DEFAULT_QUAD, ChebSeries, _pieces, lobatto_nodes

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
    # that grid, so 1e-10 is refused once the folds settle, naming the residual;
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


def test_unsettled_series_is_refused(monkeypatch):
    # the base horizon is chosen once: a series still moving after
    # MAX_TERMS folds is refused, naming the last fold's share
    sp, cond, _ = build_space(["a", "b", "c"], [1.0, 2.0, 0.5], [("a", "b", 1.0), ("b", "c", 0.5)])
    p = dirac_parametrix(sp, cond, horizon=2.0)
    assert build_heat_kernel(p, T=2.0, tol=1e-4).terms_used > 2
    monkeypatch.setattr(neumann, "MAX_TERMS", 2)
    with pytest.raises(NoConvergenceBudget, match=r"after 2 folds: the last fold's share"):
        build_heat_kernel(p, T=2.0, tol=1e-4)


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
    # a starter needs a finite horizon, so no build reaches T = inf
    with pytest.raises(HorizonExceeded, match="positive and finite"):
        dirac_parametrix(sp, cond, horizon=math.inf)


def test_build_refuses_nan_tolerance_at_once(two_point, monkeypatch):
    # the allowance test fails for NaN, so no fold is taken
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
    g = ChebSeries(sp, 2.0, mu, np.tensordot(DCT_ROWS, [convolve(p.H, f, t) for t in nodes], 1))
    h = ChebSeries(sp, 2.0, mu, np.tensordot(DCT_ROWS, [f.at(t) + convolve(p.heat_image, f, t)
                                                        for t in nodes], 1))
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


def test_noop_rebuild_has_a_zero_image():
    # with nothing changed the imported image (A_new - A_old) H is identically zero:
    # fold 1 settles the series, and the rebuilt kernel is the heat kernel.  Each
    # certificate bounds its own kernel's distance to it, so the two kernels are
    # within the sum of both bounds (rate T / THETA = 1 puts both builds on an octave
    # edge: the rebuild may take one squaring the first build did not)
    sp, cond, _ = integer_line(3)
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=1.0), T=1.0)
    again = cross_parametrix_build(res)
    assert again.terms_used == 1 and again.truncation_bound < again.tol
    for t in (0.1, 0.5, 1.0):
        exact = expm_series(res.generator_matrix, t) / res.weight[None, :]
        assert np.max(np.abs(again.K.at(t) - exact)) <= again.K.error(t)
        assert np.max(np.abs(again.K.at(t) - res.K.at(t))) <= again.K.error(t) + res.K.error(t)


def test_build_refuses_a_nonfinite_image():
    # an image NaN or inf past t = 0.5 passes validation, which reads small times; its
    # sampled row mass is not finite, and the build refuses it by name
    sp, cond, _ = integer_line(3)
    p = dirac_parametrix(sp, cond, horizon=1.0)
    f = p.heat_image
    for bad in (np.nan, np.inf):
        image = ClosedFormKernel(sp, 1.0, p.weight, lambda ts, bad=bad: np.where(
            (ts > 0.5)[:, None, None], bad, f.at_many(ts)), name="broken-image")
        with pytest.raises(InvalidParametrix, match="broken-image"):
            build_heat_kernel(dataclasses.replace(p, heat_image=image), T=1.0)


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


def test_imported_starter_moves_at_the_old_generators_rate(rng, monkeypatch):
    # the rebuild declares no rate: its starter's H'(0) W is -A_old, read from its
    # kernels at construction, so its rate is the old generator's
    sp, cond, _ = random_connected_graph(rng, n_min=12, n_max=12, random_measure=True)
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=2.0), T=2.0)
    made = []

    def caught(p, T, tol):
        made.append(p)
        return build_heat_kernel(p, T, tol)

    monkeypatch.setattr(neumann, "build_heat_kernel", caught)
    cross_parametrix_build(res, conductance=Conductance(cond.matrix * 2.0))
    old = neumann._operator_rate(res.generator_matrix)
    assert abs(made[0].rate - old) <= 1e-12 * old


def test_build_refuses_a_rate_past_the_squaring_range():
    # a rate of 1e308 is finite, but rate T / THETA is not: no count of squarings
    # reaches it, and the build refuses it before taking its logarithm
    sp, cond, _ = build_space("ab", None, [("a", "b", 5e307)])
    with pytest.raises(NoConvergenceBudget, match=r"more than 2\^52"):
        build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)


def test_build_refuses_a_fold_that_overflows(path3):
    # (M W)^(l-1) M overflows while psi_l underflows: the first fold whose sup is not
    # finite is refused by name, not carried as a NaN share through all 64 folds
    sp, cond, _ = build_space("ab", None, [("a", "b", 1.5e14)])
    with pytest.raises(NoConvergenceBudget, match="fold 22 "):
        build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e2)
    # a measure of 1e300 on two points lifts the import's fold 2 to about 1e282, so
    # fold 3 overflows by a margin no rounding of the imported kernel can close
    res = build_heat_kernel(dirac_parametrix(*path3[:2]), T=10.0, tol=1e-8)
    with pytest.raises(NoConvergenceBudget, match="fold 3 "):
        cross_parametrix_build(res, lam=np.array([1e300, 1e300, 1.0]))


@pytest.mark.parametrize("T", [2e-318, 1e-320, 5e-324])
def test_build_reaches_a_subnormal_horizon(path3, T):
    # the row-mass samples start at T 1e-6, which underflows to 0 at these T
    sp, cond, _ = path3
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=1.0), T=T, tol=1e-8)
    assert (res.terms_used, res.squarings, res.horizon) == (1, 0, T)
    assert res.truncation_bound < 1e-8


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_build_refuses_a_huge_gram(path3, scale):
    # validation passes in the Hilbert flavor; no absolute tol holds on entries this big
    sp, cond, _ = path3
    with pytest.raises(NoConvergenceBudget, match="allowance"):
        build_heat_kernel(rkhs_parametrix(sp, scale * np.eye(3), cond), T=10.0, tol=1e-8)


def test_build_refuses_a_starter_replaced_onto_another_conductance():
    # the generator is the named conductance's, 3x the one the dirac image was
    # made with: the built kernel's residual shows it, where a declared generator
    # of the old weights signed 1.1e-10 for a kernel 0.16 off the reported operator's
    sp, cond, _ = build_space("abc", None, [("a", "b", 1.0), ("b", "c", 2.0)])
    p = dataclasses.replace(dirac_parametrix(sp, cond), conductance=Conductance(3.0 * cond.matrix))
    with pytest.raises(NoConvergenceBudget, match="certifies"):
        build_heat_kernel(p, T=5.0, tol=1e-8)


def test_result_reads_its_facts_from_its_kernel(two_point, k3):
    # six settable values: space, pairing, horizons, squarings and certificate are K's,
    # the generator its conductance and kind's, so replacing K moves them all
    assert sum(f.init for f in dataclasses.fields(HeatKernelResult)) == 6
    res = build_heat_kernel(dirac_parametrix(*two_point[:2]), T=5.0, tol=1e-8)
    assert res.base_horizon * 2 ** res.squarings == res.horizon == 5.0
    assert res.truncation_bound == res.K.error(5.0) < 1e-8
    assert np.array_equal(res.generator_matrix, generator(res.space, res.conductance)[0])
    other = build_heat_kernel(dirac_parametrix(*k3[:2], horizon=2.0), T=2.0, tol=1e-10)
    moved = dataclasses.replace(res, K=other.K)
    assert (moved.horizon, moved.space, moved.weight) == (2.0, other.K.space, other.K.weight)
    assert (moved.base_horizon, moved.squarings, moved.truncation_bound) \
        == (other.base_horizon, other.squarings, other.truncation_bound)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_cross_build_refuses_unusable_measure(k3, bad):
    # the new space refuses the measure, as `build_space` does
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=1.0)
    with pytest.raises(NonpositiveMeasure, match="positive and finite.*point 'b'"):
        cross_parametrix_build(res, lam=np.array([1.0, bad, 1.0]))


_BAD_CONDUCTANCES = {
    "negative": (lambda W: -W, NonpositiveMeasure),
    "nan": (lambda W: np.where(W > 0, math.nan, 0.0), NonpositiveMeasure),
    "inf": (lambda W: np.where(W > 0, math.inf, 0.0), NonpositiveMeasure),
    "overflowing-degree": (lambda W: np.where(W > 0, 1e308, 0.0), NonpositiveMeasure),
    "asymmetric": (lambda W: W + np.triu(W), AsymmetricConductance),
    "zero-degree": (lambda W: 0.0 * W, ZeroDegreePoint),
    "wrong-shape": (lambda W: W[:2, :2], DimensionMismatch),
}
_ENTRY_POINTS = {  # each makes its operator from the conductance `bad`
    "dirac": lambda sp, cond, bad: dirac_parametrix(sp, bad, horizon=2.0),
    "profile": lambda sp, cond, bad: profile_parametrix(sp, bad, "exponential", horizon=2.0),
    "spectral": lambda sp, cond, bad: spectral_parametrix(sp, bad, sp.n, horizon=2.0),
    "rkhs": lambda sp, cond, bad: rkhs_parametrix(sp, np.eye(sp.n) + 0.1, bad, horizon=2.0),
    "cross": lambda sp, cond, bad: cross_parametrix_build(
        build_heat_kernel(dirac_parametrix(sp, cond, horizon=2.0), T=2.0), conductance=bad),
}


@pytest.mark.parametrize("entry, case", [
    pytest.param(entry, case, id=case if entry == "cross" else f"{entry}-{case}")
    for entry in _ENTRY_POINTS for case in _BAD_CONDUCTANCES])
def test_cross_build_refuses_what_build_space_refuses(path3, entry, case):
    # every starter and the rebuild make their operator through `generator`,
    # which refuses each conductance `build_space` refuses
    sp, cond, _ = path3
    change, error = _BAD_CONDUCTANCES[case]
    with pytest.raises(error):
        _ENTRY_POINTS[entry](sp, cond, Conductance(change(cond.matrix)))


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


def _per_node_series(p, T, tol):
    """(squarings, terms, base horizon, F's samples) of the series summed from
    per-node `convolve` calls, each fold sampled densely on the base grid, with
    the base horizon and stop rule that `build_heat_kernel` documents."""
    f, weight = p.heat_image, p.weight
    rate = max(neumann._row_mass_norm(f, weight, neumann._sample_grid(T)),
               neumann._operator_rate(p.generator_matrix), p.rate)
    squarings = math.ceil(math.log2(rate * T / neumann.THETA)) if rate * T > neumann.THETA else 0
    Tb, gram = T / 2 ** squarings, p.gram if weight.ndim == 2 else None
    Wnorm = 1.0 if gram is None else neumann._operator_rate(weight)
    nodes = lobatto_nodes(DEFAULT_QUAD.cheb_degree, Tb)
    fold = f.at_many(nodes)
    F = -fold
    for terms in range(2, neumann.MAX_TERMS + 1):
        if _pieces(Tb * Wnorm * np.max(np.abs(fold)), 2.0 ** squarings, gram) < tol / 2:
            return squarings, terms - 1, Tb, F
        prev = ChebKernel(p.space, Tb, weight, fold)
        fold = np.stack([convolve(f, prev, t) for t in nodes])
        F += (-1) ** terms * fold
    raise AssertionError("the reference series did not settle")


def _family_build(rng, family):
    """(parametrix, T, tol, result) of a small seeded build of one family."""
    if family.startswith("profile"):
        # counting measure and weights 0.5..2, as in the benchmark's profile graphs
        sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, weight_range=(0.5, 2.0))
        p = profile_parametrix(sp, cond, family.split("-")[1], horizon=1.0)
        return p, 1.0, 1e-5, build_heat_kernel(p, T=1.0, tol=1e-5)
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    if family == "imported":
        # the parametrix `cross_parametrix_build` makes, caught on its way in
        res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=2.0), T=2.0)
        moved = Conductance(cond.matrix * 1.1)
        made = []

        def caught(p, T, tol):
            made.append(p)
            return build_heat_kernel(p, T, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neumann, "build_heat_kernel", caught)
            out = cross_parametrix_build(res, conductance=moved)
        return made[0], 2.0, 1e-8, out
    if family == "spectral":
        p = spectral_parametrix(sp, cond, n_modes=sp.n, horizon=2.0)
    elif family == "rkhs":
        X = rng.standard_normal((sp.n, sp.n))
        p = rkhs_parametrix(sp, X @ X.T / sp.n + np.eye(sp.n), cond, horizon=2.0)
    else:
        p = dirac_parametrix(sp, cond, family.partition("-")[2] or "combinatorial", horizon=2.0)
    return p, 2.0, 1e-8, build_heat_kernel(p, T=2.0, tol=1e-8)


@pytest.mark.parametrize("family", ["dirac", "rkhs", "profile-exponential", "imported"])
def test_separable_path_matches_generic_path(rng, family):
    # the build (folds held as short sums psi (x) C in time, assembled
    # through the factor of H) against the same series on the same base grid
    # summed from per-node `convolve` calls, the reference.  A one-term image
    # keeps every fold one term; an image of many terms (an exponential
    # profile, a rebuild's import) is sampled densely from fold 2 on
    p, T, tol, fast = _family_build(rng, family)
    f, H, Tb = p.heat_image, p.H, fast.base_horizon
    cache = FoldCache(f, horizon=Tb)
    m1 = DEFAULT_QUAD.cheb_degree + 1
    if family in ("dirac", "rkhs"):
        assert isinstance(H, SeparableKernel) and isinstance(f, SeparableKernel)
        folds = [cache.factor.on_grid] + [cache.fold(ell) for ell in range(2, 9)]
        assert all(k.psi.shape == (m1, 1) and k.C.shape == (1, f.n, f.n) for k in folds)
    else:
        assert cache.factor.values.shape[0] ** 2 >= m1  # fold 2 has R^2 terms
        assert all(cache.fold(ell).psi is None for ell in range(2, 9))
    squarings, terms, ref_Tb, Fvals = _per_node_series(p, T, tol)
    assert (squarings, terms, ref_Tb) == (fast.squarings, fast.terms_used, Tb)
    F = ChebKernel(p.space, Tb, p.weight, Fvals)
    ref = np.stack([H.at(t) + convolve(H, F, t) for t in cache.nodes])
    assert np.max(np.abs(fast.K.base.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "family", ["dirac", "dirac-normalized", "rkhs", "profile-epanechnikov", "spectral"])
def test_base_is_the_starter_plus_its_convolution_with_the_kept_folds(rng, family):
    # the base's coefficients, one product of the time terms of H and of the kept
    # folds with their matrices, against H + H * F at the nodes with `convolve` for
    # the time integral, F = sum_l (-1)^l f^{*l} over the folds the build kept
    p, T, tol, res = _family_build(rng, family)
    cache = FoldCache(p.heat_image, horizon=res.base_horizon)
    folds = [cache.factor.on_grid] + [cache.fold(ell) for ell in range(2, res.terms_used + 1)]
    F = ChebKernel(p.space, res.base_horizon, p.weight,
                   sum((-1) ** ell * k.values for ell, k in enumerate(folds, start=1)))
    want = np.stack([p.H.at(t) + convolve(p.H, F, t) for t in cache.nodes])
    assert np.max(np.abs(res.K.base.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_diagonal_pairing_scales_rows_bit_for_bit(rng, monkeypatch, kind):
    # a dirac starter's M W is diagonal, so the assembly scales the folds' rows
    # instead of multiplying them: the base is the one the product gives
    sp, cond, _ = random_connected_graph(rng, n_min=6, n_max=8, random_measure=True)
    p = dirac_parametrix(sp, cond, kind, horizon=2.0)
    MW = timekernel.TimeFactor(p.H, 2.0).paired[0]
    assert np.count_nonzero(MW) == sp.n
    scaled = build_heat_kernel(p, T=2.0)
    scale = timekernel.left_multiply
    monkeypatch.setattr(timekernel, "left_multiply",
                        lambda P, C, out=None: np.matmul(P, C, out=out))
    product = build_heat_kernel(p, T=2.0)
    assert np.array_equal(scaled.K.base.coeffs, product.K.base.coeffs)
    C = rng.standard_normal((5, sp.n, sp.n))
    assert np.array_equal(scale(MW, C), MW @ C)


def test_tiny_horizon_base_keeps_three_coefficients(two_point):
    # over 1e-9 the kernel is linear in t to roundoff: the chop keeps c_0..c_2,
    # the least `_defect_bound` reads, and the certificate covers the closed form
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=1e-9), T=1e-9)
    assert res.K.base.degree == 2
    for t in np.linspace(0.0, 3e-9, 7):
        assert np.max(np.abs(res.K.at(t) - closed_form_two_point(t))) <= res.truncation_bound


@pytest.mark.parametrize("T", [1e-13, 1e-15, 1e-20, 1e-300])
def test_small_horizons_build(two_point, T):
    # the row-mass sample times scale with T, so none lies past a tiny horizon
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=T), T=T)
    assert res.truncation_bound < 1e-14
    for t in np.linspace(0.0, 2.0 * T, 9):
        assert np.max(np.abs(res.K.at(t) - closed_form_two_point(t))) <= res.K.error(t)


@pytest.mark.parametrize("family", ["dirac-combinatorial", "dirac-normalized", "rkhs",
                                    "profile-epanechnikov", "profile-exponential"])
def test_chopped_base_certifies_no_worse(rng, family, monkeypatch):
    # the base kept to its roundoff plateau certifies at most what the whole
    # 33-coefficient series does, after the same folds and squarings
    for _ in range(3):
        p, T, tol, chopped = _family_build(rng, family)
        with monkeypatch.context() as mp:
            mp.setattr(timekernel, "standard_chop", lambda envelope: envelope.shape[0])
            full = build_heat_kernel(p, T, tol)
        assert full.K.base.degree == DEFAULT_QUAD.cheb_degree
        assert (chopped.terms_used, chopped.squarings) == (full.terms_used, full.squarings)
        assert chopped.truncation_bound <= full.truncation_bound


@pytest.mark.parametrize("family", ["dirac-combinatorial", "dirac-normalized", "rkhs",
                                    "profile-epanechnikov", "profile-exponential"])
def test_stop_index_and_certificate_match_the_per_node_reference(rng, family):
    # the factored folds stop where the per-node `convolve` series stops, on
    # the same base horizon, and the certificate covers the oracle at 20
    # times in [0, 2T]
    p, T, tol, res = _family_build(rng, family)
    squarings, terms, _, _ = _per_node_series(p, T, tol)
    assert (res.squarings, res.terms_used) == (squarings, terms)
    A = p.generator_matrix
    if p.weight.ndim == 2:
        def exact(t):
            return expm_series(A, t) @ p.gram
    else:
        spec = eigh_weighted(A, p.weight)

        def exact(t):
            return spectral_heat(spec, t)
    assert _worst(res, exact, np.linspace(0.0, 2.0 * T, 20)) <= res.truncation_bound < tol


@pytest.mark.parametrize("path", ["separable", "generic"])
@pytest.mark.parametrize("role", ["H", "heat_image"])
def test_build_refuses_mixed_pairings(two_point, path, role):
    # a starter or image paired under another weight than the record's is
    # refused on the separable path as on the per-node path, by the
    # parametrix itself before any build
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


def test_error_covers_the_oracle_at_every_time(rng):
    # K.error(t), the one certified-error rule, against the oracle at 20 times
    # in [0, 2T] (t = 0 and t < T_b among them): dirac builds of both kinds,
    # both profiles at tol 1e-5, rkhs builds against e^{-tA} G and a rebuild,
    # on n <= 10 with uneven measures and weights 0.1..10 or 1e-3..1e3.
    # K.error(T) is the signed truncation_bound, and K.error never falls
    T, checked, rebuilt = 1.0, 0, 0
    for weights in ((0.1, 10.0), (1e-3, 1e3)) * 4:
        sp, cond, _ = random_connected_graph(rng, n_max=10, weight_range=weights,
                                             random_measure=True)
        builds = []
        for kind in ("combinatorial", "normalized"):
            A, mu = generator(sp, cond, kind)
            spec = eigh_weighted(A, mu)
            heat = functools.partial(spectral_heat, spec)
            builds.append((_served(lambda tol: build_heat_kernel(
                dirac_parametrix(sp, cond, kind, horizon=T), T, tol), 1e-8), heat))
            for profile in ("epanechnikov", "exponential"):
                p = profile_parametrix(sp, cond, profile, kind=kind, horizon=T)
                try:
                    builds.append((build_heat_kernel(p, T, 1e-5), heat))
                except (InvalidParametrix, NoConvergenceBudget):
                    pass
            G = _gram(rng, sp.n, 10.0 ** rng.uniform(0.0, 3.0))
            builds.append((_served(lambda tol: build_heat_kernel(
                rkhs_parametrix(sp, G, cond, kind, horizon=T), T, tol), 1e-8),
                lambda t, A=A, G=G: expm_series(A, t) @ G))
        f = np.exp(rng.uniform(np.log(0.7), np.log(1.4), size=cond.matrix.shape))
        moved = Conductance(cond.matrix * (f + f.T) / 2.0)
        try:
            res = cross_parametrix_build(builds[0][0], conductance=moved)
            builds.append((res, functools.partial(
                spectral_heat, eigh_weighted(*generator(sp, moved, "combinatorial")))))
            rebuilt += 1
        except (InvalidParametrix, NoConvergenceBudget):
            pass
        for res, exact in builds:
            K = res.K
            times = np.sort(np.concatenate([[0.0, res.base_horizon / 2.0, T, 2.0 * T],
                                            rng.uniform(0.0, 2.0 * T, 16)]))
            errors = [K.error(t) for t in times]
            assert K.error(T) == res.truncation_bound
            assert all(a <= b for a, b in zip(errors, errors[1:]))
            for t, err in zip(times, errors):
                dev = float(np.max(np.abs(K.at(t) - exact(t))))
                assert dev <= err, (res.parametrix_family, t)
                checked += 1
    assert checked >= 1000 and rebuilt >= 4


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
