"""Green's function, resolvent, resistance, entropy, Poisson, diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from heatkern import (
    ClosedFormKernel,
    SeparableKernel,
    build_heat_kernel,
    build_space,
    diagnostics,
    dirac_parametrix,
    eigh_weighted,
    entropy,
    generator,
    green_regularized,
    integer_line,
    poisson_kernel,
    resistance,
    resistance_by_current,
    resolvent,
    rkhs_parametrix,
    spectral_heat,
)
from heatkern.errors import (
    DimensionMismatch,
    DisconnectedSpace,
    NoConvergenceBudget,
    NonpositiveEntry,
    NonpositiveShift,
    NonpositiveTime,
    NotStochasticallyComplete,
    TailUncontrolled,
)

from _graphs import random_connected_graph


# ---------------------------------------------------------------- green


def test_green_two_point_values(two_point):
    sp, cond, _ = two_point
    g = green_regularized(sp, cond, _spec(sp, cond))
    # single nonzero mode lambda=2, phi=(1,-1)/sqrt(2)
    want = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.max(np.abs(g.G_star - want)) < 1e-12
    assert np.max(np.abs(g.G_star - g.G_star.T)) < 1e-10
    assert g.agreement <= g.tail_bound + 1e-8


def test_green_orthogonal_to_ground_mode(rng):
    sp, cond, _ = random_connected_graph(rng, n_max=9, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    g = green_regularized(sp, cond, spec)
    phi0 = spec.eigenvectors[:, 0]
    # sum_x G*(x,y) phi0(x) mu_x = 0 for every y
    assert np.max(np.abs((phi0 * mu) @ g.G_star)) < 1e-10
    assert np.max(np.abs((phi0 * mu) @ g.quadrature)) < 1e-7


def test_green_inverts_on_mean_zero_functions(rng):
    sp, cond, _ = random_connected_graph(rng, n_max=8, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    g = green_regularized(sp, cond, _spec(sp, cond))
    for _ in range(5):
        f = rng.normal(size=sp.n)
        # G* acts as a kernel: (G*f)(x) = sum_y G*(x,y) f(y) mu_y
        v = g.G_star @ (f * mu)
        want = f - float(f @ mu) / float(mu.sum())
        assert np.max(np.abs(A @ v - want)) < 1e-9


def test_green_path_matches_pseudoinverse(path3):
    sp, cond, _ = path3
    g = green_regularized(sp, cond, _spec(sp, cond))
    A, _ = generator(sp, cond, "combinatorial")
    # counting measure, so the spectral sum is the Moore-Penrose inverse
    assert np.max(np.abs(g.G_star - np.linalg.pinv(A))) < 1e-9


def test_green_quadrature_route_uses_built_kernel(k3):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    spec = eigh_weighted(res.generator_matrix, res.weight)
    g = green_regularized(sp, cond, spec, K=res)
    budget = g.tail_bound + g.quad_error + res.truncation_bound * g.horizon + 1e-10
    assert g.agreement <= budget


def test_green_budget_integrates_the_bound_past_the_horizon(path3):
    # the doubling carries the build's K.error(T_b) from T_b to where the
    # kernel has mixed, past T = 10 on the unit path; the budget is the tail
    # bound plus that carried error and 1e-10, with or without a kernel
    sp, cond, _ = path3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    spec = eigh_weighted(res.generator_matrix, res.weight)
    for K in (res, None):
        g = green_regularized(sp, cond, spec, K=K)
        assert g.budget == g.tail_bound + g.quad_error + 1e-10
        assert g.agreement <= g.budget
    g = green_regularized(sp, cond, spec, K=res)
    doublings = math.log2(g.horizon / res.base_horizon)
    assert doublings == int(doublings) and g.horizon > res.horizon
    assert g.quad_error >= res.base_horizon * res.K.error(res.base_horizon)
    assert g.tail_bound < min(1e-8 / 4.0, g.quad_error)


def test_green_two_route_agreement_random(rng):
    # weights over two and over six decades, uneven measures, the spectral
    # heat kernel and a built one of either kind, each paired by its own
    # spectral data: the budget covers every agreement, and a build's
    # quad_error covers its distance from the spectral J_N on its own
    for weight_range in ((0.1, 10.0), (1e-3, 1e3)):
        for _ in range(5):
            sp, cond, _ = random_connected_graph(rng, n_max=8, weight_range=weight_range,
                                                 random_measure=True)
            for kind in ("combinatorial", "normalized"):
                spec = eigh_weighted(*generator(sp, cond, kind))
                T = min(10.0, 50.0 / float(spec.eigenvalues[-1]))
                res = build_heat_kernel(dirac_parametrix(sp, cond, kind), T=T, tol=1e-9)
                for K in (None, res):
                    g = green_regularized(sp, cond, spec, K=K)
                    assert g.agreement <= g.budget
                live = spec.eigenvalues > spec.zero_tol
                lam, phi = spec.eigenvalues[live], spec.eigenvectors[:, live]
                J_N = (phi * (-np.expm1(-lam * g.horizon) / lam)) @ phi.T
                assert np.max(np.abs(g.quadrature - J_N)) <= g.quad_error


@pytest.mark.parametrize("radius", [5, 15, 25])
def test_green_on_the_integer_line(radius):
    # gaps down to 3.8e-3: the doubling runs far past T = 10 and certifies
    # below the budget the log-time trapezoid it replaced reached here
    sp, cond, _ = integer_line(radius)
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    g = green_regularized(sp, cond, eigh_weighted(res.generator_matrix, res.weight), K=res)
    assert g.agreement <= g.budget < {5: 2.27e-7, 15: 1.40e-5, 25: 1.06e-4}[radius]


class _CountingKernel:
    """A kernel that counts its evaluations and keeps their times."""

    def __init__(self, K):
        self.K, self.calls, self.base, self.times = K, 0, K.base, []
        self.space, self.weight, self.horizon = K.space, K.weight, K.horizon

    def at(self, t):
        self.calls += 1
        self.times.append(t)
        return self.K.at(t)

    def error(self, t):
        return self.K.error(t)


def test_green_time_route_evaluation_count(path3):
    # the doubling starts from the base series and makes its own products:
    # no K.at call, where the log-time trapezoid made 129
    sp, cond, _ = path3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    counted = _CountingKernel(res.K)
    g = green_regularized(sp, cond, _spec(sp, cond), K=dataclasses.replace(res, K=counted),
                          tol=1e-8)
    assert counted.calls == 0
    assert g.agreement <= g.budget


@pytest.mark.parametrize("tol", [5e-324, 1e-320])
def test_green_refuses_an_underflowing_window(path3, tol):
    # tol/10 underflows to 0 or to a subnormal, whose inverse is inf
    sp, cond, _ = path3
    spec = _spec(sp, cond)
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    for K in (None, res):
        with pytest.raises(TailUncontrolled, match="window"):
            green_regularized(sp, cond, spec, K=K, tol=tol)


def test_green_rejects_disconnected():
    sp, cond, _ = build_space("abcd", None, [("a", "b", 1.0), ("c", "d", 1.0)])
    with pytest.raises(DisconnectedSpace):
        green_regularized(sp, cond, _spec(sp, cond))


def test_green_rejects_vanishing_gap():
    sp, cond, _ = build_space("ab", None, [("a", "b", 1e-12)])
    with pytest.raises(TailUncontrolled):
        green_regularized(sp, cond, _spec(sp, cond))


# ------------------------------------------------------------- resolvent


def test_resolvent_two_point_value(two_point):
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    R = resolvent(spec, 1.0)
    # 1/2 + (1/2)/3 on the diagonal
    assert abs(R[0, 0] - 2.0 / 3.0) < 1e-12
    assert abs(R[0, 1] - (0.5 - 0.5 / 3.0)) < 1e-12


def test_resolvent_identity(rng):
    sp, cond, _ = random_connected_graph(rng, n_max=9, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    ident = np.diag(1.0 / mu)
    for s in (0.1, 1.0, 10.0):
        R = resolvent(spec, s)
        assert np.max(np.abs((A + s * np.eye(sp.n)) @ R - ident)) < 1e-10


def test_resolvent_dominant_shift_limit(two_point):
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    s = 1e6
    assert np.max(np.abs(s * resolvent(spec, s) - np.eye(2))) < 1e-5


def test_resolvent_single_point_self_loop():
    sp, cond, _ = build_space(["p"], None, [("p", "p", 2.0)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    assert spec.eigenvalues.shape == (1,)
    assert abs(spec.eigenvalues[0]) < 1e-14
    assert abs(resolvent(spec, 1.0)[0, 0] - 1.0) < 1e-14


def test_resolvent_rejects_nonpositive_shift(two_point):
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    for s in (0.0, -1.0, math.nan):
        with pytest.raises(NonpositiveShift):
            resolvent(spec, s)


# ------------------------------------------------------------ resistance


def _spec(sp, cond):
    return eigh_weighted(*generator(sp, cond, "combinatorial"))


def test_resistance_two_point_unit_edge(two_point):
    sp, cond, _ = two_point
    R = resistance(sp, cond, _spec(sp, cond))
    assert np.max(np.abs(R - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-12


def test_resistance_path_adds_in_series(path3):
    sp, cond, _ = path3
    R = resistance(sp, cond, _spec(sp, cond))
    assert abs(R[0, 2] - 2.0) < 1e-10
    assert abs(R[0, 1] - 1.0) < 1e-10
    assert np.max(np.abs(np.diag(R))) == 0.0


def test_resistance_matches_unit_current_flow(rng):
    for _ in range(8):
        sp, cond, _ = random_connected_graph(rng, n_max=9)
        R = resistance(sp, cond, _spec(sp, cond))
        i, j = rng.choice(sp.n, size=2, replace=False)
        flow = resistance_by_current(sp, cond, sp.points[i], sp.points[j])
        assert abs(R[i, j] - flow) < 1e-9


def test_resistance_is_a_metric(rng):
    for _ in range(100):
        sp, cond, _ = random_connected_graph(rng, n_max=10)
        R = resistance(sp, cond, _spec(sp, cond))
        assert np.max(np.abs(R - R.T)) < 1e-10
        assert np.max(np.abs(np.diag(R))) < 1e-12
        lhs = R[:, None, :]
        rhs = R[:, :, None] + R[None, :, :]
        bad = np.argwhere(lhs > rhs + 1e-10)
        assert bad.size == 0, (
            f"triangle inequality fails at (x,z,y)={bad[0]} with "
            f"weights {cond.matrix!r}"
        )


def test_resistance_rejects_disconnected():
    sp, cond, _ = build_space("abcd", None, [("a", "b", 1.0), ("c", "d", 1.0)])
    spec = _spec(sp, cond)
    with pytest.raises(DisconnectedSpace):
        resistance(sp, cond, spec)
    with pytest.raises(DisconnectedSpace):
        resistance_by_current(sp, cond, "a", "c")


def test_resistance_refuses_a_true_mode_within_zero_tol():
    # a connected 7-point graph, weights 1e-4..1e4 and uneven measures, whose
    # lambda_1 = 1.05e-4 sits below zero_tol = 1.3e-4: the spectral G* would drop
    # that mode and miss `resistance_by_current` by 3.7e3, so it is refused
    rng = np.random.default_rng(1)
    ranges = [(0.1, 10.0), (1e-3, 1e3), (1e-4, 1e4)]
    for i in range(75):
        sp, cond, _ = random_connected_graph(rng, n_max=10, weight_range=ranges[i % 3],
                                             random_measure=True)
    spec = _spec(sp, cond)
    assert sp.n == 7 and spec.zero_multiplicity == 2
    assert spec.zero_tol > spec.eigenvalues[1] > 1e-5
    with pytest.raises(TailUncontrolled):
        resistance(sp, cond, spec)
    with pytest.raises(DisconnectedSpace, match="too small to tell from zero"):
        poisson_kernel(spec)
    R = np.array([[resistance_by_current(sp, cond, x, y) for y in sp.points] for x in sp.points])
    assert np.all(np.isfinite(R)) and R.max() > 10.0


# --------------------------------------------------------------- entropy


def test_entropy_two_point_closed_form(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    p = (1.0 + math.exp(-2.0)) / 2.0
    q = (1.0 - math.exp(-2.0)) / 2.0
    want = p * math.log(p) + q * math.log(q)
    assert abs(entropy(res, "a", 1.0) - want) < 1e-9
    assert abs(want - (-0.6839611990568)) < 1e-12


def test_entropy_long_time_limit_is_log_inverse_volume(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    assert abs(entropy(res, "a", 20.0) - math.log(0.5)) < 1e-6


def test_entropy_vanishes_at_short_times(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    e3 = entropy(res, "a", 1e-3)
    e4 = entropy(res, "a", 1e-4)
    # E(t) ~ t (ln t - 1) near zero, so the grid values shrink toward 0
    assert abs(e3) < 1e-2
    assert abs(e4) < abs(e3)


def test_entropy_decreasing_on_normalized_build(rng):
    sp, cond, _ = random_connected_graph(rng, n_max=6)
    res = build_heat_kernel(dirac_parametrix(sp, cond, kind="normalized"),
                            T=5.0, tol=1e-10)
    x = sp.points[0]
    vals = [entropy(res, x, t) for t in (0.2, 0.5, 1.0, 2.0, 5.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_entropy_requires_unit_mass(two_point):
    # any kernel whose rows do not integrate to 1 is rejected up front
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    leaky = ClosedFormKernel(sp, 5.0, res.weight,
                             lambda ts: 0.9 * res.K.at_many(ts))
    with pytest.raises(NotStochasticallyComplete):
        entropy(dataclasses.replace(res, K=leaky), "a", 1.0)


def test_entropy_rejects_vanished_entries(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    frozen = SeparableKernel(sp, 5.0, res.weight, np.ones_like, np.eye(2))
    broken = dataclasses.replace(res, K=frozen)
    with pytest.raises(NonpositiveEntry):
        entropy(broken, "a", 1.0)


def test_entropy_guards(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    with pytest.raises(NonpositiveTime):
        entropy(res, "a", 0.0)
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    res_rkhs = build_heat_kernel(rkhs_parametrix(sp, G, cond), T=2.0)
    with pytest.raises(DimensionMismatch):
        entropy(res_rkhs, "a", 1.0)


# --------------------------------------------------------------- poisson


def test_poisson_two_point_value(two_point):
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    P = poisson_kernel(spec, None, w=1.0)
    want = (1.0 + math.exp(-math.sqrt(2.0))) / 2.0
    assert abs(P.spectral[0, 0] - want) < 1e-14
    assert abs(P.subordinated[0, 0] - want) < 1e-8
    assert P.deviation < 1e-8


def test_poisson_subordinates_the_built_kernel(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    spec = eigh_weighted(res.generator_matrix, res.weight)
    P = poisson_kernel(spec, res, w=1.0)
    assert P.deviation <= P.budget < 1e-8
    assert P.window[0] < P.window[1]
    assert P.nodes >= 5


def test_poisson_reads_its_kernel_once_per_node(path3):
    # one trapezoid pass: `nodes` reads at ascending times, none revisited, from
    # the window's left edge to its first node at or past the right one
    sp, cond, _ = path3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    counted = _CountingKernel(res.K)
    P = poisson_kernel(_spec(sp, cond), dataclasses.replace(res, K=counted), w=1.0, tol=1e-8)
    assert counted.calls == P.nodes == len(set(counted.times))
    assert counted.times == sorted(counted.times)
    u = np.log(counted.times)
    assert abs(u[0] - P.window[0]) < 1e-12 and u[-2] < P.window[1] <= u[-1]
    assert P.deviation <= P.budget


def test_poisson_budget_covers_the_deviation_on_a_seeded_sweep():
    # 60 graphs on up to 9 points, weights 0.1..10, 1e-3..1e3 or 0.5..2, every
    # other one with an uneven measure; the spectral heat kernel and a dirac build
    # at T = 10, tol 1e-8, each at w = 0.1, 1 and 10 with tol 1e-8.  A window that
    # w and the gap leave empty is refused; every answer lies within its budget
    rng = np.random.default_rng(30)
    answered = refused = 0
    for i in range(60):
        weights = [(0.1, 10.0), (1e-3, 1e3), (0.5, 2.0)][i % 3]
        sp, cond, _ = random_connected_graph(rng, n_max=9, weight_range=weights,
                                             random_measure=i % 2 == 1)
        res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
        for K, spec in ((None, _spec(sp, cond)),
                        (res, eigh_weighted(res.generator_matrix, res.weight))):
            for w in (0.1, 1.0, 10.0):
                try:
                    P = poisson_kernel(spec, K, w=w, tol=1e-8)
                except TailUncontrolled as err:
                    assert "window" in str(err) and w == 10.0
                    refused += 1
                    continue
                assert P.deviation <= P.budget < 1e-7, (i, w, K is None)
                answered += 1
    assert answered >= 340 and refused <= 10


def test_poisson_small_w_approaches_identity_kernel():
    sp, cond, _ = build_space("ab", {"a": 2.0, "b": 1.0}, [("a", "b", 1.0)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    P = poisson_kernel(spec, None, w=1e-4)
    assert np.max(np.abs(P.subordinated - np.diag(1.0 / mu))) < 1e-2


def test_poisson_agreement_across_w(rng):
    for _ in range(3):
        sp, cond, _ = random_connected_graph(rng, n_max=8)
        A, mu = generator(sp, cond, "combinatorial")
        spec = eigh_weighted(A, mu)
        assert spec.gap >= 0.1
        for w in (0.1, 1.0, 5.0):
            assert poisson_kernel(spec, None, w=w).deviation < 1e-6


def test_poisson_single_point_is_one_for_all_w():
    sp, cond, _ = build_space(["p"], None, [("p", "p", 1.0)])
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    for w in (0.01, 1.0, 100.0):
        P = poisson_kernel(spec, None, w=w)
        assert np.max(np.abs(P.subordinated - 1.0)) < 1e-14
        assert P.deviation < 1e-14


@pytest.mark.parametrize("w", [1e-200, 1e150, 1e200])
def test_poisson_refuses_a_window_that_is_empty_or_infinite(path3, w):
    # w^2 underflows to 0, puts the window's start past its end, or overflows
    sp, cond, _ = path3
    spec = _spec(sp, cond)
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=10.0, tol=1e-8)
    for K in (None, res):
        with pytest.raises(TailUncontrolled, match="window"):
            poisson_kernel(spec, K, w=w)


def test_poisson_guards(two_point):
    sp, cond, _ = two_point
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    with pytest.raises(NonpositiveTime):
        poisson_kernel(spec, None, w=0.0)
    spt, condt, _ = build_space("ab", None, [("a", "b", 1e-12)])
    At, mut = generator(spt, condt, "combinatorial")
    with pytest.raises(TailUncontrolled):
        poisson_kernel(eigh_weighted(At, mut), None, w=1.0)


# ----------------------------------------------------------- diagnostics


def test_diagnostics_clean_on_oracle_kernel(k3):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8)
    spec = eigh_weighted(res.generator_matrix, res.weight)
    # the semigroup pairs of the T = 5 grid reach 2T
    oracle = ClosedFormKernel(sp, 10.0, res.weight,
                              lambda ts: np.stack([spectral_heat(spec, t) for t in ts]))
    diag = diagnostics(dataclasses.replace(res, K=oracle))
    assert diag.semigroup_defect < 1e-10
    assert diag.symmetry_defect < 1e-10
    assert diag.min_value >= -1e-14
    assert diag.max_mass <= 1.0 + 1e-12
    assert diag.l2_monotone


def test_diagnostics_on_built_kernel(k3):
    sp, cond, _ = k3
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8)
    diag = diagnostics(res)
    assert diag.semigroup_defect < 1e-6
    assert diag.min_value >= -1e-9
    assert diag.mass_drift < 1e-8
    assert diag.worst() >= diag.semigroup_defect


def test_diagnostics_normalized_mass_is_conserved(rng):
    sp, cond, _ = random_connected_graph(rng, n_max=7)
    res = build_heat_kernel(dirac_parametrix(sp, cond, kind="normalized"),
                            T=5.0, tol=1e-9)
    diag = diagnostics(res)
    assert diag.max_mass <= 1.0 + 1e-8
    assert diag.min_mass >= 1.0 - 1e-8
    assert diag.mass_drift < 1e-8
    assert diag.l2_monotone


def test_diagnostics_grid_defaults_clip_to_horizon(two_point):
    sp, cond, _ = two_point
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8)
    assert diagnostics(res).t_grid == (0.05, 0.2, 0.5, 1.0, 2.0, 5.0)
    short = build_heat_kernel(dirac_parametrix(sp, cond), T=0.02, tol=1e-8)
    assert diagnostics(short).t_grid == (0.005, 0.01, 0.02)


def test_diagnostics_rejects_operator_paired_kernel(two_point):
    sp, cond, _ = two_point
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = build_heat_kernel(rkhs_parametrix(sp, G, cond), T=2.0)
    with pytest.raises(DimensionMismatch):
        diagnostics(res)


# ------------------------------------------- parameters and pairings


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_green_refuses_unusable_tolerance(path3, tol):
    sp, cond, _ = path3
    with pytest.raises(NoConvergenceBudget):
        green_regularized(sp, cond, _spec(sp, cond), tol=tol)


@pytest.mark.parametrize("w, tol, error", [
    (math.nan, 1e-8, NonpositiveTime), (math.inf, 1e-8, NonpositiveTime),
    (1.0, math.nan, NoConvergenceBudget), (1.0, 0.0, NoConvergenceBudget),
])
def test_poisson_refuses_unusable_parameters(path3, w, tol, error):
    sp, cond, _ = path3
    with pytest.raises(error):
        poisson_kernel(_spec(sp, cond), None, w=w, tol=tol)


def _foreign_builds(sp, cond):
    # a Gram-paired build, and a normalized build, whose measure c lam is
    # not the combinatorial spectral data's lam on the path
    G = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
    yield build_heat_kernel(rkhs_parametrix(sp, G, cond), T=2.0, tol=1e-6)
    yield build_heat_kernel(dirac_parametrix(sp, cond, kind="normalized"), T=5.0)


def test_green_and_poisson_refuse_a_kernel_of_another_pairing(path3):
    sp, cond, _ = path3
    spec = _spec(sp, cond)
    for res in _foreign_builds(sp, cond):
        with pytest.raises(DimensionMismatch):
            green_regularized(sp, cond, spec, K=res)
        with pytest.raises(DimensionMismatch):
            poisson_kernel(spec, res, w=1.0)
