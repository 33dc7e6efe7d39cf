import numpy as np
import pytest

from heatkern import (
    build_space,
    connected_components,
    degree_vector,
    energy_inner,
    generator,
    graph_distances,
)
from heatkern.errors import (
    AsymmetricConductance,
    DimensionMismatch,
    DisconnectedSpace,
    DuplicatePoint,
    NonpositiveMeasure,
    ZeroDegreePoint,
)

from _graphs import random_connected_graph


def test_build_space_counting_default(two_point):
    space, cond, deg = two_point
    assert space.points == ("a", "b")
    assert np.array_equal(space.lam, np.ones(2))
    assert cond.matrix[0, 1] == 1.0
    assert cond.matrix[1, 0] == 1.0
    assert np.array_equal(deg.c, np.array([1.0, 1.0]))


def test_build_space_measure_forms():
    edges = [("a", "b", 1.0)]
    sp, _, _ = build_space(["a", "b"], 2.0, edges)
    assert np.array_equal(sp.lam, np.array([2.0, 2.0]))
    sp, _, _ = build_space(["a", "b"], {"b": 3.0}, edges)
    assert np.array_equal(sp.lam, np.array([1.0, 3.0]))
    sp, _, _ = build_space(["a", "b"], [2.0, 5.0], edges)
    assert np.array_equal(sp.lam, np.array([2.0, 5.0]))


def test_build_space_rejects_duplicates():
    with pytest.raises(DuplicatePoint):
        build_space(["a", "a"], None, [("a", "a", 1.0)])


def test_build_space_rejects_nonpositive_measure():
    with pytest.raises(NonpositiveMeasure):
        build_space(["a", "b"], [1.0, 0.0], [("a", "b", 1.0)])


def test_build_space_rejects_conflicting_orientations():
    with pytest.raises(AsymmetricConductance):
        build_space(["a", "b"], None, [("a", "b", 1.0), ("b", "a", 2.0)])


def test_build_space_accepts_agreeing_orientations():
    _, cond, _ = build_space(["a", "b"], None, [("a", "b", 1.0), ("b", "a", 1.0)])
    assert cond.matrix[0, 1] == 1.0


def test_build_space_rejects_isolated_point():
    with pytest.raises(ZeroDegreePoint):
        build_space(["a", "b", "c"], None, [("a", "b", 1.0)])


def test_build_space_rejects_wrong_length_measure():
    with pytest.raises(DimensionMismatch):
        build_space(["a", "b"], [1.0, 2.0, 3.0], [("a", "b", 1.0)])


def test_self_loop_contributes_to_degree():
    _, cond, deg = build_space(["a"], None, [("a", "a", 1.0)])
    assert deg.c[0] == 1.0


def test_degree_k3(k3):
    _, cond, deg = k3
    assert np.array_equal(deg.c, np.array([2.0, 2.0, 2.0]))
    assert np.array_equal(degree_vector(cond), deg.c)


def test_nu_measure_two_point():
    # the normalized generator is paired by nu = c * lam
    sp, cond, deg = build_space(["a", "b"], [2.0, 1.0], [("a", "b", 3.0)])
    _, nu = generator(sp, cond, "normalized")
    assert np.array_equal(nu, np.array([6.0, 3.0]))
    assert np.array_equal(nu, deg.c * sp.lam)


def test_laplacian_apply_k3(k3):
    # under the counting measure the combinatorial generator is Delta
    sp, cond, _ = k3
    A, _ = generator(sp, cond, "combinatorial")
    out = A @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, [2.0, -1.0, -1.0], atol=0, rtol=0)


def test_laplacian_kills_constants(rng):
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    for kind in ("combinatorial", "normalized"):
        A, _ = generator(sp, cond, kind)
        assert np.max(np.abs(A @ np.ones(sp.n))) < 1e-12


def test_markov_apply_path(path3):
    # under the counting measure the normalized generator is I - P with P
    # the Markov averaging operator W / c
    sp, cond, _ = path3
    A, _ = generator(sp, cond, "normalized")
    out = (np.eye(sp.n) - A) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 0.5, 0.0], atol=0, rtol=0)


def test_markov_preserves_constants(rng):
    sp, cond, _ = random_connected_graph(rng)
    A, _ = generator(sp, cond, "normalized")
    out = (np.eye(sp.n) - A) @ np.ones(sp.n)
    assert np.max(np.abs(out - 1.0)) < 1e-12


def test_energy_inner_k3(k3):
    sp, cond, _ = k3
    f = np.array([1.0, 0.0, 0.0])
    assert energy_inner(sp, cond, f, f) == pytest.approx(2.0, abs=0)


def test_energy_is_greens_identity(rng):
    # <f, Delta g> = <f, g>_E with Delta = diag(c) - W = diag(mu) A for the
    # combinatorial generator A under any base measure (A = Delta under the
    # counting measure); energy_inner takes the double sum, so the two
    # sides share no code
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    f = rng.standard_normal(sp.n)
    g = rng.standard_normal(sp.n)
    lhs = float(f @ (mu * (A @ g)))
    assert energy_inner(sp, cond, f, g) == pytest.approx(lhs, abs=1e-10)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_generator_self_adjoint_in_mu(rng, kind):
    for _ in range(5):
        sp, cond, _ = random_connected_graph(rng, random_measure=True)
        A, mu = generator(sp, cond, kind)
        S = mu[:, None] * A
        assert np.max(np.abs(S - S.T)) < 1e-12 * max(1.0, np.max(np.abs(S)))


def test_generator_counting_measure_matches_matrices(k3):
    sp, cond, _ = k3
    W = cond.matrix
    c = degree_vector(cond)
    A, mu = generator(sp, cond, "combinatorial")
    assert np.allclose(A, np.diag(c) - W)
    assert np.array_equal(mu, sp.lam)
    At, nu = generator(sp, cond, "normalized")
    assert np.allclose(At, np.eye(3) - W / c[:, None])
    assert np.array_equal(nu, degree_vector(cond) * sp.lam)


def test_generator_rejects_unknown_kind(k3):
    sp, cond, _ = k3
    with pytest.raises(Exception):
        generator(sp, cond, "fancy")


def test_connected_components_counts():
    pts = ["a", "b", "c", "d"]
    edges = [("a", "b", 1.0), ("c", "d", 1.0)]
    sp, cond, _ = build_space(pts, None, edges)
    comps = connected_components(sp, cond)
    assert comps == [[0, 1], [2, 3]]


def test_graph_distances_inverse_weight():
    sp, cond, _ = build_space(["a", "b", "c"], None,
                              [("a", "b", 2.0), ("b", "c", 4.0)])
    d = graph_distances(sp, cond)
    i, j, k = sp.index("a"), sp.index("b"), sp.index("c")
    assert d[i, j] == pytest.approx(0.5)
    assert d[j, k] == pytest.approx(0.25)
    assert d[i, k] == pytest.approx(0.75)
    assert np.array_equal(d, d.T)


def test_graph_distances_disconnected_raises():
    sp, cond, _ = build_space(["a", "b", "c", "d"], None,
                              [("a", "b", 1.0), ("c", "d", 1.0)])
    with pytest.raises(DisconnectedSpace):
        graph_distances(sp, cond)
