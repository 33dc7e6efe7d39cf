import numpy as np
import pytest

from heatkern import (
    Conductance,
    PointSpace,
    build_space,
    connected_components,
    generator,
    graph_distances,
)
from heatkern.errors import (
    AsymmetricConductance,
    DimensionMismatch,
    DisconnectedSpace,
    DuplicatePoint,
    NonpositiveMeasure,
    UnknownPoint,
    ZeroDegreePoint,
)

from _graphs import random_connected_graph


def energy_inner(cond, f, g):
    """Energy form (1/2) sum_x sum_y weight(x,y) (f(x)-f(y)) (g(x)-g(y)),
    from the defining double sum rather than through the generator."""
    df = f[:, None] - f[None, :]
    dg = g[:, None] - g[None, :]
    return 0.5 * float(np.sum(cond.matrix * df * dg))


def test_build_space_counting_default(two_point):
    space, cond, deg = two_point
    assert space.points == ("a", "b")
    assert np.array_equal(space.lam, np.ones(2))
    assert cond.matrix[0, 1] == 1.0
    assert cond.matrix[1, 0] == 1.0
    assert np.array_equal(deg, np.array([1.0, 1.0]))


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


@pytest.mark.parametrize("w", [-1.0, np.nan, np.inf, "heavy"])
def test_build_space_rejects_negative_and_non_finite_weights(w):
    with pytest.raises(NonpositiveMeasure, match=r"pair \('a', 'b'\)"):
        build_space(["a", "b", "c"], None, [("a", "b", w), ("b", "c", 1.0)])


@pytest.mark.parametrize("lam", [["x", 1.0], {"a": "x"}, "x"], ids=["list", "mapping", "scalar"])
def test_build_space_rejects_a_measure_that_is_not_a_number(lam):
    with pytest.raises(NonpositiveMeasure, match="point 'a' must be a number; got 'x'"):
        build_space(["a", "b"], lam, [("a", "b", 1.0)])


def test_build_space_rejects_conflicting_orientations():
    with pytest.raises(AsymmetricConductance):
        build_space(["a", "b"], None, [("a", "b", 1.0), ("b", "a", 2.0)])


def test_build_space_accepts_agreeing_orientations():
    _, cond, _ = build_space(["a", "b"], None, [("a", "b", 1.0), ("b", "a", 1.0)])
    assert cond.matrix[0, 1] == 1.0


def test_build_space_rejects_isolated_point():
    with pytest.raises(ZeroDegreePoint):
        build_space(["a", "b", "c"], None, [("a", "b", 1.0)])


def test_unknown_points_raise_typed_key_errors():
    # an InputError for the command line, still a KeyError to lookups
    with pytest.raises(UnknownPoint, match="edge references unknown point 'c'"):
        build_space(["a", "b"], None, [("a", "c", 1.0)])
    space, _, _ = build_space(["a", "b"], None, [("a", "b", 1.0)])
    with pytest.raises(KeyError, match="unknown point 'c'"):
        space.index("c")


def test_build_space_rejects_measure_of_unknown_point():
    with pytest.raises(UnknownPoint, match="measure names unknown point 'zz'"):
        build_space(["a", "b"], {"zz": 2.0}, [("a", "b", 1.0)])


@pytest.mark.parametrize("points, lam, error, match", [
    (("a", "b", "a"), np.ones(3), DuplicatePoint, "duplicate point id 'a'"),
    ((), np.ones(0), DimensionMismatch, "at least one point"),
    (("a", "b"), np.ones(3), DimensionMismatch, r"shape \(3,\), expected \(2,\)"),
    (("a", "b"), np.ones((2, 1)), DimensionMismatch, "expected"),
    (("a", "b"), np.array([1.0, 0.0]), NonpositiveMeasure, "got 0.0 at point 'b'"),
    (("a", "b"), np.array([-1.0, 1.0]), NonpositiveMeasure, "at point 'a'"),
    (("a", "b"), np.array([1.0, np.nan]), NonpositiveMeasure, "at point 'b'"),
    (("a", "b"), np.array([np.inf, 1.0]), NonpositiveMeasure, "at point 'a'"),
], ids=["duplicate", "empty", "long", "matrix", "zero", "negative", "nan", "inf"])
def test_point_space_refuses_bad_input(points, lam, error, match):
    with pytest.raises(error, match=match):
        PointSpace(points, lam)


def test_build_space_refuses_a_degree_that_overflows():
    # each weight is finite, their sum at 'a' is not
    with pytest.raises(NonpositiveMeasure, match="degree at point 'a' overflows"):
        build_space("abc", None, [("a", "b", 1e308), ("a", "c", 1e308)])


@pytest.mark.parametrize("kind, lam, weight", [
    ("combinatorial", [5e-324, 1.0], 1.0),
    ("normalized", [1e-200, 1.0], 1e-200),  # nu = c lam underflows to 0 at 'a'
], ids=["combinatorial", "normalized"])
def test_generator_refuses_a_measure_whose_reciprocal_overflows(kind, lam, weight):
    sp, cond, _ = build_space("ab", lam, [("a", "b", weight)])
    with pytest.raises(NonpositiveMeasure, match=f"{kind} measure .* at point 'a'"):
        generator(sp, cond, kind)


@pytest.mark.parametrize("kind, lam, weight", [
    ("combinatorial", [1e308, 1e308], 1.0),
    ("normalized", None, 1e308),  # nu = c lam = (1e308, 1e308)
], ids=["combinatorial", "normalized"])
def test_generator_refuses_a_measure_whose_total_overflows(kind, lam, weight):
    # each mu(x) is finite, mu(X) is not
    sp, cond, _ = build_space("ab", lam, [("a", "b", weight)])
    with pytest.raises(NonpositiveMeasure, match=rf"{kind} measure is too large: its total mu\(X\)"):
        generator(sp, cond, kind)


def test_point_space_freezes_a_copy_of_the_measure():
    lam = np.array([1.0, 2.0])
    sp = PointSpace(("a", "b"), lam)
    assert lam.flags.writeable
    lam[0] = 5.0
    assert np.array_equal(sp.lam, [1.0, 2.0])
    assert not sp.lam.flags.writeable


def test_conductance_freezes_a_copy_of_the_matrix():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    cond = Conductance(W)
    assert W.flags.writeable
    W[0, 1] = 5.0
    assert cond.matrix[0, 1] == 1.0
    assert not cond.matrix.flags.writeable


def test_generator_refuses_a_conductance_of_another_shape(k3):
    sp, cond, _ = k3
    with pytest.raises(DimensionMismatch, match=r"shape \(2, 2\), expected \(3, 3\)"):
        generator(sp, Conductance(cond.matrix[:2, :2]), "combinatorial")


def test_build_space_rejects_wrong_length_measure():
    with pytest.raises(DimensionMismatch):
        build_space(["a", "b"], [1.0, 2.0, 3.0], [("a", "b", 1.0)])


def test_self_loop_contributes_to_degree():
    _, cond, deg = build_space(["a"], None, [("a", "a", 1.0)])
    assert deg[0] == 1.0


def test_degree_k3(k3):
    _, cond, deg = k3
    assert np.array_equal(deg, np.array([2.0, 2.0, 2.0]))
    assert np.array_equal(cond.matrix @ np.ones(3), deg)
    assert not deg.flags.writeable


def test_nu_measure_two_point():
    # the normalized generator is paired by nu = c * lam
    sp, cond, deg = build_space(["a", "b"], [2.0, 1.0], [("a", "b", 3.0)])
    _, nu = generator(sp, cond, "normalized")
    assert np.array_equal(nu, np.array([6.0, 3.0]))
    assert np.array_equal(nu, deg * sp.lam)


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
    assert energy_inner(cond, f, f) == pytest.approx(2.0, abs=0)


def test_energy_is_greens_identity(rng):
    # <f, Delta g> = <f, g>_E with Delta = diag(c) - W = diag(mu) A for the
    # combinatorial generator A under any base measure (A = Delta under the
    # counting measure); energy_inner takes the double sum, so the two
    # sides share no code and the identity guards `generator`
    sp, cond, _ = random_connected_graph(rng, random_measure=True)
    A, mu = generator(sp, cond, "combinatorial")
    f = rng.standard_normal(sp.n)
    g = rng.standard_normal(sp.n)
    lhs = float(f @ (mu * (A @ g)))
    assert energy_inner(cond, f, g) == pytest.approx(lhs, abs=1e-10)


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_generator_self_adjoint_in_mu(rng, kind):
    for _ in range(5):
        sp, cond, _ = random_connected_graph(rng, random_measure=True)
        A, mu = generator(sp, cond, kind)
        S = mu[:, None] * A
        assert np.max(np.abs(S - S.T)) < 1e-12 * max(1.0, np.max(np.abs(S)))


def test_generator_counting_measure_matches_matrices(k3):
    sp, cond, c = k3
    W = cond.matrix
    A, mu = generator(sp, cond, "combinatorial")
    assert np.allclose(A, np.diag(c) - W)
    assert np.array_equal(mu, sp.lam)
    At, nu = generator(sp, cond, "normalized")
    assert np.allclose(At, np.eye(3) - W / c[:, None])
    assert np.array_equal(nu, c * sp.lam)


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
