"""Acceptance checklist.

Each test prints one ``acceptance N (name): PASS/FAIL`` line with the
observed numbers, so a plain pytest run doubles as a signed checklist.
Tolerances are stated inline next to each assertion.

The small-time entropy limit is checked in its own strictly-xfailing
test: E(t) = t (ln(1/t) + 1) + O(t^2) on the two-point space, so at
t = 1e-4 the entropy is still about 1.02e-3, an order of magnitude
outside the 1e-4 window.  The criterion is recorded as unattainable
rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from heatkern import (
    Conductance,
    ball_truncate,
    build_heat_kernel,
    build_space,
    cross_parametrix_build,
    diagnostics,
    dirac_parametrix,
    eigh_weighted,
    entropy,
    generator,
    green_regularized,
    integer_line,
    poisson_kernel,
    resistance,
    resolvent,
    spectral_heat,
    spectral_parametrix,
)
from heatkern.cli import main

from _graphs import random_connected_graph


def _emit(capfd, n, name, ok, detail=""):
    line = f"acceptance {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capfd.disabled():
        print(line, flush=True)


def _two_point():
    return build_space("ab", None, [("a", "b", 1.0)])


def _k3():
    return build_space("abc", None,
                       [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])


def test_acceptance_1_closed_form(capfd):
    t0 = time.monotonic()
    sp, cond, _ = _two_point()
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8)
    K1 = res.K.at(1.0)
    dev = max(abs(K1[0, 0] - (1.0 + math.exp(-2.0)) / 2.0),
              abs(K1[0, 1] - (1.0 - math.exp(-2.0)) / 2.0))
    elapsed = time.monotonic() - t0
    ok = dev < 1e-8 and elapsed < 1.0
    _emit(capfd, 1, "two-point closed form", ok,
          f"dev {dev:.2e} vs 1e-8, {elapsed * 1e3:.0f} ms vs 1 s")
    assert dev < 1e-8
    assert elapsed < 1.0


def test_acceptance_2_oracle_equivalence(capfd):
    rng = np.random.default_rng(20240816)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        sp, cond, _ = random_connected_graph(rng)  # n <= 12, weights [0.1, 10]
        for kind in ("combinatorial", "normalized"):
            res = build_heat_kernel(dirac_parametrix(sp, cond, kind=kind),
                                    T=5.0, tol=1e-8)
            spec = eigh_weighted(res.generator_matrix, res.weight)
            for t in (0.05, 0.5, 1.0, 5.0):
                d = float(np.max(np.abs(res.K.at(t) - spectral_heat(spec, t))))
                worst = max(worst, d)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-7 and elapsed < 120.0
    _emit(capfd, 2, "spectral oracle, 50 random graphs", ok,
          f"max dev {worst:.2e} vs 1e-7, {elapsed:.1f} s vs 120 s")
    assert worst < 1e-7
    assert elapsed < 120.0


def test_acceptance_3_remainder_order(capfd):
    sp, cond, _ = _k3()
    ts = np.geomspace(1e-3, 1e-1, 9)

    p = dirac_parametrix(sp, cond)
    res = build_heat_kernel(p, T=5.0, tol=1e-12)
    r = np.array([float(np.max(np.abs(res.K.at(t) - p.H.at(t)))) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(r), 1)[0])

    p_full = spectral_parametrix(sp, cond, sp.n)
    res_full = build_heat_kernel(p_full, T=5.0, tol=1e-8)
    resid = max(float(np.max(np.abs(res_full.K.at(t) - p_full.H.at(t))))
                for t in ts)
    skip_reason = (f"full-spectral slope skipped: remainder {resid:.1e} is "
                   f"identically zero, no order to fit")

    ok = slope >= 0.9 and resid < 1e-12
    _emit(capfd, 3, "remainder order k+1", ok,
          f"dirac slope {slope:.3f} vs 0.9; {skip_reason}")
    assert slope >= 0.9
    assert resid < 1e-12


def test_acceptance_4_structural_properties(capfd):
    rng = np.random.default_rng(20240817)
    builds = []
    sp, cond, _ = _two_point()
    builds.append(build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8))
    sp, cond, _ = _k3()
    builds.append(build_heat_kernel(dirac_parametrix(sp, cond, kind="normalized"),
                                    T=5.0, tol=1e-8))
    sp, cond, _ = build_space("abc", None, [("a", "b", 1.0), ("b", "c", 1.0)])
    builds.append(build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8))
    sp, cond, _ = build_space("ab", None, [("a", "b", 40.0)])  # stiff edge
    builds.append(build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8))
    for kind in ("combinatorial", "normalized"):
        sp, cond, _ = random_connected_graph(rng, n_max=10)
        builds.append(build_heat_kernel(dirac_parametrix(sp, cond, kind=kind),
                                        T=5.0, tol=1e-8))

    worst = {"semigroup": 0.0, "negativity": 0.0, "mass_excess": 0.0,
             "mass_defect_norm": 0.0, "symmetry": 0.0, "drift": 0.0}
    l2_all = True
    for res in builds:
        d = diagnostics(res)
        worst["semigroup"] = max(worst["semigroup"], d.semigroup_defect)
        worst["negativity"] = max(worst["negativity"], -min(d.min_value, 0.0))
        worst["mass_excess"] = max(worst["mass_excess"], d.max_mass - 1.0)
        if res.kind == "normalized":
            worst["mass_defect_norm"] = max(worst["mass_defect_norm"],
                                            abs(d.max_mass - 1.0),
                                            abs(d.min_mass - 1.0))
        worst["symmetry"] = max(worst["symmetry"], d.symmetry_defect)
        worst["drift"] = max(worst["drift"], d.mass_drift)
        l2_all = l2_all and d.l2_monotone

    ok = (worst["semigroup"] < 1e-6 and worst["negativity"] <= 1e-9
          and worst["mass_excess"] <= 1e-9 and worst["mass_defect_norm"] <= 1e-8
          and worst["symmetry"] < 1e-8 and worst["drift"] < 1e-8 and l2_all)
    _emit(capfd, 4, "semigroup/positivity/mass/symmetry", ok,
          f"semigroup {worst['semigroup']:.1e} vs 1e-6, "
          f"negativity {worst['negativity']:.1e} vs 1e-9, "
          f"mass excess {worst['mass_excess']:.1e} vs 1e-9, "
          f"symmetry {worst['symmetry']:.1e} vs 1e-8, "
          f"drift {worst['drift']:.1e} vs 1e-8, l2 monotone {l2_all}")
    assert worst["semigroup"] < 1e-6
    assert worst["negativity"] <= 1e-9
    assert worst["mass_excess"] <= 1e-9
    assert worst["mass_defect_norm"] <= 1e-8
    assert worst["symmetry"] < 1e-8
    assert worst["drift"] < 1e-8
    assert l2_all


def test_acceptance_5_derived_quantities(capfd):
    rng = np.random.default_rng(20240818)

    green_ok = True
    green_worst = 0.0
    for _ in range(20):
        sp, cond, _ = random_connected_graph(rng, n_max=10)
        g = green_regularized(sp, cond, eigh_weighted(*generator(sp, cond, "combinatorial")))
        green_worst = max(green_worst, g.agreement - g.tail_bound)
        green_ok = green_ok and g.agreement <= g.tail_bound + 1e-8

    res_dev = 0.0
    tri_defect = 0.0
    for _ in range(100):
        sp, cond, _ = random_connected_graph(rng, n_max=10)
        R = resistance(sp, cond, eigh_weighted(*generator(sp, cond, "combinatorial")))
        W = cond.matrix
        L = np.diag(W @ np.ones(sp.n)) - W
        Lp = np.linalg.pinv(L)
        d = np.diag(Lp)
        R_pinv = d[:, None] + d[None, :] - Lp - Lp.T
        res_dev = max(res_dev, float(np.max(np.abs(R - R_pinv))))
        slack = R[:, :, None] + R[None, :, :] - R[:, None, :]
        tri_defect = max(tri_defect, -float(np.min(slack)))

    resolvent_dev = 0.0
    for _ in range(10):
        sp, cond, _ = random_connected_graph(rng, n_max=10)
        A, mu = generator(sp, cond, "combinatorial")
        spec = eigh_weighted(A, mu)
        for s in (0.1, 1.0, 10.0):
            R_s = resolvent(spec, s)
            resolvent_dev = max(resolvent_dev, float(np.max(np.abs(
                (A + s * np.eye(sp.n)) @ R_s - np.eye(sp.n)))))

    specs = []
    for make in (_two_point, _k3):
        sp, cond, _ = make()
        A, mu = generator(sp, cond, "combinatorial")
        specs.append(eigh_weighted(A, mu))
    while len(specs) < 5:
        sp, cond, _ = random_connected_graph(rng, n_max=8)
        A, mu = generator(sp, cond, "combinatorial")
        spec = eigh_weighted(A, mu)
        if spec.gap >= 0.1:
            specs.append(spec)
    poisson_dev = max(poisson_kernel(spec, None, w=w).deviation
                      for spec in specs for w in (0.1, 0.5, 1.0, 2.0, 5.0))

    sp, cond, _ = _two_point()
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    entropy_dev = abs(entropy(res, "a", 20.0) - math.log(0.5))

    ok = (green_ok and res_dev < 1e-9 and tri_defect <= 1e-10
          and resolvent_dev < 1e-10 and poisson_dev < 1e-6
          and entropy_dev < 1e-4)
    _emit(capfd, 5, "green/resistance/resolvent/poisson/entropy", ok,
          f"green slack {green_worst:.1e} vs certificate, "
          f"resistance dev {res_dev:.1e} vs 1e-9, "
          f"triangle defect {tri_defect:.1e}, "
          f"resolvent dev {resolvent_dev:.1e} vs 1e-10, "
          f"poisson dev {poisson_dev:.1e} vs 1e-6, "
          f"entropy tail dev {entropy_dev:.1e} vs 1e-4")
    assert green_ok
    assert res_dev < 1e-9
    assert tri_defect <= 1e-10
    assert resolvent_dev < 1e-10
    assert poisson_dev < 1e-6
    assert entropy_dev < 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="E(t) = t (ln(1/t) + 1) + O(t^2) on the two-point space, so "
           "|E(1e-4)| is about 1.02e-3; the stated 1e-4 window at t = 1e-4 "
           "is not attainable, the limit is only reached logarithmically",
)
def test_acceptance_5_entropy_small_time(capfd):
    sp, cond, _ = _two_point()
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-10)
    e = entropy(res, "a", 1e-4)
    ok = abs(e) < 1e-4
    _emit(capfd, 5, "entropy small-time limit", ok,
          f"|E(1e-4)| = {abs(e):.2e} vs 1e-4; "
          f"t(ln(1/t)+1) = {1e-4 * (math.log(1e4) + 1):.2e}")
    assert ok


def test_acceptance_6_lattice_bessel(capfd):
    def bessel_i(k, x, terms=60):
        total = 0.0
        for m in range(terms):
            total += (x / 2.0) ** (2 * m + k) \
                / (math.factorial(m) * math.factorial(m + k))
        return total

    line, line_cond, _ = integer_line(25)
    sp, cond, _ = ball_truncate(line, line_cond, 0, 20)
    assert sp.n == 41
    res = build_heat_kernel(dirac_parametrix(sp, cond, horizon=2.0),
                            T=2.0, tol=1e-10)
    K1 = res.K.at(1.0)
    i0 = sp.index(0)
    dev = max(abs(K1[i0, sp.index(y)] - math.exp(-2.0) * bessel_i(abs(y), 2.0))
              for y in (0, 1, 2, 5))
    ok = dev < 1e-8
    _emit(capfd, 6, "integer-line ball vs Bessel series", ok,
          f"dev {dev:.2e} vs 1e-8 on the radius-20 ball at t=1")
    assert dev < 1e-8


def test_acceptance_7_conductance_perturbation(capfd):
    rng = np.random.default_rng(20240819)
    sp, cond, _ = random_connected_graph(rng, n_max=8)
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=1e-8)
    worst = 0.0
    for _ in range(10):
        factors = np.exp(rng.uniform(math.log(0.7), math.log(1.4),
                                     size=(sp.n, sp.n)))
        Wp = cond.matrix * (factors + factors.T) / 2.0
        new_cond = Conductance(Wp)
        res2 = cross_parametrix_build(res, conductance=new_cond, tol=1e-8)
        spec2 = eigh_weighted(res2.generator_matrix, res2.weight)
        for t in (0.05, 0.5, 1.0, 5.0):
            d = float(np.max(np.abs(res2.K.at(t) - spectral_heat(spec2, t))))
            worst = max(worst, d)
    ok = worst < 1e-8
    _emit(capfd, 7, "rebuild after weight perturbation", ok,
          f"max oracle dev {worst:.2e} vs rebuild tol 1e-8, 10 perturbations")
    assert worst < 1e-8


def test_acceptance_8_certificate_honesty(capfd, tmp_path):
    sp, cond, _ = _k3()
    A, mu = generator(sp, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    ts = (0.05, 0.5, 1.0, 5.0)
    devs = []
    for j in range(15):
        tol = 1e-4 / 2 ** j
        res = build_heat_kernel(dirac_parametrix(sp, cond), T=5.0, tol=tol)
        assert res.truncation_bound < tol
        devs.append(max(float(np.max(np.abs(res.K.at(t) - spectral_heat(spec, t))))
                        for t in ts))
    # halving the tolerance must never make the observed deviation worse;
    # 1e-14 absorbs re-rounding when the term count stays put
    monotone = all(b <= a + 1e-14 for a, b in zip(devs, devs[1:]))

    edges = tmp_path / "k3.edges"
    edges.write_text("a b 1.0\nb c 1.0\nc a 1.0\n")
    loose = tmp_path / "loose.cfg"
    loose.write_text("neumann.tol = 1e-3\n")
    code = main(["oracle-compare", "--edges", str(edges),
                 "--config", str(loose), "--tol", "1e-10"])

    ok = monotone and code == 2
    _emit(capfd, 8, "certificate honesty under tol halving", ok,
          f"devs {devs[0]:.1e} -> {devs[-1]:.1e} nonincreasing {monotone}; "
          f"oversized tol exits {code} (want 2)")
    assert monotone
    assert code == 2
