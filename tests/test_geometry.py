import math

import numpy as np
import pytest

from dualgeo.geometry import (
    GRID_BLOCK, GeometryError, Metric, ScalarField, TensorField,
    covariant_derivative, grid_blocks, grid_points, hessian,
)
from dualgeo.jets import ARRAY_ROWS
from oracles import fd_christoffel, fd_ricci, laplacian, laplacian_divergence_form


def test_structural_symmetry_rejected():
    with pytest.raises(GeometryError, match="not structurally symmetric"):
        Metric.from_sources([["1", "x1"], ["x2", "1"]])


def test_christoffel_euclidean(euclid2):
    assert np.max(np.abs(euclid2.christoffel((0.3, -1.0)))) == 0.0


def test_christoffel_sphere(sphere2):
    x = (math.pi / 4, 0.3)
    gamma = sphere2.christoffel(x)
    # frozen from the finite-difference oracle on the defining formula
    assert np.isclose(gamma[0, 1, 1], -0.5, atol=1e-12)
    assert np.isclose(gamma[1, 0, 1], 1.0, atol=1e-12)
    assert np.max(np.abs(gamma - fd_christoffel(sphere2, x))) < 1e-8


def test_christoffel_conformal():
    g = Metric.from_sources([["exp(2*x1)", "0"], ["0", "exp(2*x1)"]])
    x = (0.0, 0.0)
    gamma = g.christoffel(x)
    assert np.isclose(gamma[0, 0, 0], 1.0)
    assert np.isclose(gamma[0, 1, 1], -1.0)
    assert np.isclose(gamma[1, 0, 1], 1.0)
    assert np.max(np.abs(gamma - fd_christoffel(g, x))) < 1e-8


def test_christoffel_symmetric_and_metric_compatible(sphere2):
    x = (1.1, 0.4)
    gamma = sphere2.christoffel(x)
    assert np.max(np.abs(gamma - np.einsum("kji->kij", gamma))) < 1e-14
    # metricity: d_a g_ij = Gamma^m_ai g_mj + Gamma^m_aj g_im
    gmat, dg, _ = sphere2.jets(x)
    corr = np.einsum("mai,mj->aij", gamma, gmat)
    assert np.max(np.abs(dg - corr - np.einsum("aji->aij", corr))) < 1e-10


def test_ricci_flat(euclid2):
    assert np.max(np.abs(euclid2.ricci((0.4, 2.0)))) < 1e-12


def test_ricci_unit_sphere(sphere2):
    x = (0.9, 0.2)
    ric = sphere2.ricci(x)
    assert np.max(np.abs(ric - sphere2.value(x))) < 1e-10
    assert np.max(np.abs(ric - fd_ricci(sphere2, x))) < 1e-6


def test_ricci_radius_r_sphere():
    R = 2.5
    g = Metric.from_sources([[f"{R*R}", "0"], ["0", f"{R*R}*sin(x1)^2"]])
    x = (1.2, 0.7)
    ric = g.ricci(x)
    # Einstein factor (n - 1)/R^2
    assert np.max(np.abs(ric - g.value(x) / R**2)) < 1e-9
    assert np.max(np.abs(ric - fd_ricci(g, x))) < 1e-6


def test_first_bianchi(sphere2, sphere3):
    for g, x in ((sphere2, (0.8, 0.5)), (sphere3.metric, (0.2, -0.1, 0.3))):
        riem = np.einsum("pl,lkij->pkij", g.value(x), g.riemann(x))
        cyc = (riem + np.transpose(riem, (0, 2, 3, 1))
               + np.transpose(riem, (0, 3, 1, 2)))
        assert np.max(np.abs(cyc)) < 1e-8
        # antisymmetry in the last pair and the first pair
        assert np.max(np.abs(riem + np.transpose(riem, (0, 1, 3, 2)))) < 1e-9
        assert np.max(np.abs(riem + np.transpose(riem, (1, 0, 2, 3)))) < 1e-9


def test_hessian_flat_quadratic(euclid2):
    V = ScalarField.from_source("x1^2 + x2^2", 2)
    h = hessian(euclid2, V, (0.7, -0.2))
    assert np.allclose(h, np.diag([2.0, 2.0]))
    assert np.isclose(laplacian(euclid2, V, (0.7, -0.2)), 4.0)


def test_hessian_inverse_square(euclid2):
    V = ScalarField.from_source("1/x1^2", 2)
    h = hessian(euclid2, V, (1.0, 2.0))
    # closed-form differentiation: d^2/dx1^2 (x1^-2) = 6 x1^-4
    assert np.allclose(h, np.diag([6.0, 0.0]))
    assert np.isclose(laplacian(euclid2, V, (1.0, 2.0)), 6.0)


def test_hessian_constant_any_metric(sphere2):
    V = ScalarField.from_source("3", 2)
    assert np.max(np.abs(hessian(sphere2, V, (0.8, 0.1)))) == 0.0


def test_laplacian_divergence_form_agreement(sphere2, sphere3):
    cases = [
        (sphere2, ScalarField.from_source("sin(x1)*cos(x2)", 2), (0.9, 0.4)),
        (sphere3.metric, ScalarField.from_source("x1*x2 + x3^2", 3), (0.2, 0.1, -0.3)),
    ]
    for g, V, x in cases:
        a = laplacian(g, V, x)
        b = laplacian_divergence_form(g, V, x)
        assert abs(a - b) / max(1.0, abs(a)) < 1e-8


def test_covariant_derivative_flat_partial(euclid2):
    fld = TensorField.from_sources([[["x1", "0"], ["0", "0"]],
                                    [["0", "0"], ["0", "0"]]],
                                   ("up", "down", "down"), 2)
    out = covariant_derivative(euclid2, fld, (0.5, 0.5))
    assert out.shape == (2, 2, 2, 2)
    assert np.isclose(out[0, 0, 0, 0], 1.0)
    assert np.max(np.abs(out)) == 1.0


def test_covariant_derivative_metricity(sphere2, sphere3):
    for g, x in ((sphere2, (0.7, 0.2)), (sphere3.metric, (0.1, 0.2, -0.2))):
        n = g.n
        comps = [[g.comps[i][j] for j in range(n)] for i in range(n)]
        fld = TensorField(np.array(comps, dtype=object), ("down", "down"), n)
        out = covariant_derivative(g, fld, x)
        assert np.max(np.abs(out)) < 1e-9


def test_metricity_on_grid(sw2, sphere3):
    for fixture in (sw2, sphere3):
        g = fixture.metric
        n = g.n
        comps = np.array([[g.comps[i][j] for j in range(n)] for i in range(n)],
                         dtype=object)
        fld = TensorField(comps, ("down", "down"), n)
        worst = max(
            float(np.max(np.abs(covariant_derivative(g, fld, x))))
            for x in fixture.grid(3))
        assert worst < 1e-9


def test_grid_points_shape():
    pts = grid_points([(0.0, 1.0), (2.0, 3.0)], per_axis=5)
    assert isinstance(pts, np.ndarray) and pts.shape == (25, 2)
    assert np.allclose(pts[0], [0.0, 2.0])
    assert np.allclose(pts[-1], [1.0, 3.0])
    shrunk = grid_points([(0.0, 1.0)], per_axis=3, margin=0.25)
    assert np.allclose([p[0] for p in shrunk], [0.25, 0.5, 0.75])


def test_grid_blocks_cover_the_grid_in_order():
    grid = grid_points([(0.0, 1.0), (2.0, 3.0)], per_axis=9)
    blocks = list(grid_blocks(grid))
    assert [len(b) for b in blocks] == [GRID_BLOCK, 81 - GRID_BLOCK]
    assert np.concatenate(blocks).tobytes() == grid.tobytes()
    assert all(np.shares_memory(b, grid) for b in blocks)


@pytest.mark.parametrize("margin", [0.5, 2.0])
def test_grid_margin_must_leave_an_interior(margin):
    # at margin 2.0 the shrunk axis would run 2.0, 0.5, -1.0: outside [0, 1]
    with pytest.raises(ValueError, match="no interior"):
        grid_points([(0.0, 1.0), (0.0, 10.0)], per_axis=3, margin=margin)


def test_condition_number_guard():
    g = Metric.from_sources([["x1", "0"], ["0", "1"]])
    with pytest.raises(Exception, match="condition number"):
        g.inverse((1e-9, 0.0))


@pytest.mark.parametrize("fixture_name", ["sw2", "sphere3-trivial"])
def test_metric_on_stacked_points_equals_single_points(fixture_name):
    from dualgeo.fixtures import builtin
    g = builtin(fixture_name).metric
    points = np.stack(builtin(fixture_name).grid(3))
    for method in (g.value, g.inverse, g.christoffel, *((lambda x: g.jets(x)[k])
                                                        for k in (1, 2))):
        single = np.stack([method(x) for x in points])
        batch = method(points)
        assert batch.shape == single.shape
        assert batch.tobytes() == single.tobytes()


def test_singular_metric_error_names_first_bad_point():
    from dualgeo.geometry import SingularMetricError
    g = Metric.from_sources([["x1", "0"], ["0", "1"]])
    points = np.array([[1.0, 0.0], [1e-9, 0.5], [1e-10, 0.7]])
    with pytest.raises(SingularMetricError, match=r"at \[1.e-09 5.e-01\]"):
        g.inverse(points)


def test_a_nonfinite_metric_is_singular_at_its_first_point():
    # g_22 = 1 + 0 * inf is NaN from x1 = 0.355 on, with no domain error:
    # the condition check names the first such point, in a stack or alone
    from dualgeo.fixtures import from_config, validate
    from dualgeo.geometry import SingularMetricError
    g = Metric.from_sources([["1", "0"], ["0", "1 + 0*(exp(1000*x1)*exp(1000*x1))"]])
    points = np.array([[0.0, 0.0], [0.5, 0.25], [0.6, 0.0]])
    with pytest.raises(SingularMetricError, match=r"number nan exceeds .* at \[0.5  0.25\]$"):
        g.inverse(points)
    with pytest.raises(SingularMetricError, match=r"at \[0.6 0. \]$"):
        g.flat("inverse", [0.6, 0.0])
    # a fixture on it fails validation with that message, not a LinAlgError's
    fixture = from_config({"name": "nan-metric", "dimension": 2, "kind": "nondegenerate",
                           "metric": [["1", "0"], ["0", "1 + 0*(exp(1000*x1)*exp(1000*x1))"]],
                           "domain": [[0.0, 0.6], [0.0, 1.0]], "structure": {"T": [
                               [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}},
                          validate_on_load=False)
    [failure] = [f for f in validate(fixture) if f["check"] == "metric-conditioning"]
    assert failure["message"].endswith("at [0.6 0. ]")


@pytest.mark.parametrize("shape", [(3, 2), (ARRAY_ROWS + 5, 2), (4, 5, 2)],
                         ids=["below-array-rows", "above-array-rows", "two-lead-axes"])
def test_scalar_field_on_stacked_points_equals_single_points(shape):
    V = ScalarField.from_source("x1 + 10*x2 + sin(x1*x2)", 2)
    points = np.random.default_rng(3).uniform(-2.0, 2.0, size=shape)
    stacked = V.value(points)
    assert stacked.shape == shape[:-1]
    alone = np.array([V.value(x) for x in points.reshape(-1, 2)]).reshape(shape[:-1])
    assert stacked.tobytes() == alone.tobytes()


def test_tensor_field_on_stacked_points_equals_single_points():
    T = TensorField.from_sources([[["x1*x2", "1/x1"], ["x2^2", "0"]],
                                  [["sin(x1)", "x1"], ["2", "x2"]]],
                                 ("up", "down", "down"), 2)
    points = np.array([[0.5, 1.0], [1.5, -2.0], [3.0, 0.25]])
    batch = T.value(points)
    assert batch.shape == (3, 2, 2, 2)
    single = np.stack([T.value(x) for x in points])
    assert batch.tobytes() == single.tobytes()


def test_metric_parts_are_read_only(sphere2, euclid2):
    # Metric keeps each part of a stack's record and hands it out again, and
    # a constant metric hands out broadcast views of its origin's parts: a
    # write into either would change what every later caller reads
    stack = np.array([[1.0, 0.5], [1.2, -0.3]])
    before = sphere2.christoffel(stack).copy()
    with pytest.raises(ValueError, match="read-only"):
        sphere2.christoffel(stack)[0, 1, 0, 1] = 7.0
    assert sphere2.christoffel(stack).tobytes() == before.tobytes()
    for x in (stack, stack[0]):
        for part in (euclid2.value(x), euclid2.inverse(x), euclid2.christoffel(x)):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 7.0
    assert np.all(euclid2.value(stack) == np.eye(2))


def test_a_table_step_computes_the_metric_data_once_per_stage(monkeypatch):
    # sphere3-trivial without its structure block recovers T in every stage,
    # and the solver and the table both ask for Gamma at the stage's rows, so
    # a Gamma computed on every call is computed twice per stage.  Each
    # computation makes a new array, so the distinct arrays christoffel
    # returns count them (all are kept alive, so no id is reused).
    from dualgeo.fixtures import builtin_config, from_config
    from dualgeo.geodesics import integrate_dual_geodesics
    cfg = builtin_config("sphere3-trivial")
    del cfg["structure"]
    fixture = from_config(cfg)
    table = fixture.connection_table(["+T", "+B", "-T", "-B"])
    jets, gammas = [], []
    eval_jets, christoffel = Metric._eval_jets, Metric.christoffel

    def counting_jets(self, x):
        jets.append(len(x))
        return eval_jets(self, x)

    def keeping_christoffel(self, x):
        gammas.append(christoffel(self, x))
        return gammas[-1]

    monkeypatch.setattr(Metric, "_eval_jets", counting_jets)
    monkeypatch.setattr(Metric, "christoffel", keeping_christoffel)
    x0s = [[0.1, 0.2, 0.0], [0.0, 0.1, -0.2], [-0.1, 0.0, 0.1], [0.2, -0.1, 0.05]]
    w0s = [[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, -0.3], [-0.2, 0.1, 0.1]]
    (traj, *_) = integrate_dual_geodesics(table, fixture.metric, x0s, w0s, steps=1, h=1e-3)
    assert len(traj.tau) == 2
    # the first stage runs at the starts, where the initial momenta read g
    assert jets == [4] * 4
    assert len({id(gamma) for gamma in gammas}) == 4 < len(gammas)
