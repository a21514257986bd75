import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgeo import geodesics
from dualgeo.connections import AffineConnection, levi_civita, shift_by_one_form
from dualgeo.expressions import EvalDomainError
from dualgeo.fixtures import builtin, builtin_config, builtin_names, from_config
from dualgeo.geodesics import (
    EXPORT_BLOCK, QUERY_BLOCK, WINDOW_DRIFT, WINDOW_REACH, Trajectory, _Polyline,
    _polyline_distances, _window_distances, curves_coincide, integrate_dual_geodesic,
    integrate_dual_geodesics,
)
from dualgeo.geometry import Metric
from dualgeo.theorems import _seeded_initial_conditions
from oracles import (
    dense_polyline_distances, reference_csv, reference_json, window_polyline_distances,
)


def test_straight_line_euclidean(euclid2):
    conn = levi_civita(euclid2)
    traj = integrate_dual_geodesic(conn, euclid2, [0.0, 0.0], [1.0, 0.5], 100, 0.01)
    assert traj.exit_reason == "completed"
    expected = np.outer(traj.tau, [1.0, 0.5])
    assert np.max(np.abs(traj.x - expected)) < 1e-12
    assert np.max(np.abs(traj.p - [1.0, 0.5])) < 1e-12


def test_zero_velocity_rejected(euclid2):
    with pytest.raises(ValueError, match="nonzero"):
        integrate_dual_geodesic(levi_civita(euclid2), euclid2, [0.0, 0.0],
                                [0.0, 0.0], 10, 0.01)


@pytest.mark.parametrize("steps, h, name", [
    (-1, 1e-3, "steps"), (10, 0.0, "h"), (10, -1e-3, "h"), (10, math.nan, "h"),
    (10, math.inf, "h")], ids=["negative-steps", "zero-h", "negative-h", "nan-h", "inf-h"])
def test_bad_steps_or_h_fail_before_anything_else(steps, h, name):
    # no connection, metric or starts: the check comes before any of them is read
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        integrate_dual_geodesics(None, None, None, None, steps, h)


def test_velocity_rescaling_same_point_set(sw2):
    conn = sw2.connection("+T")
    kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
    a = integrate_dual_geodesic(conn, sw2.metric, [1.0, 2.0], [0.3, 0.2], 1000, 1e-3, **kw)
    b = integrate_dual_geodesic(conn, sw2.metric, [1.0, 2.0], [0.6, 0.4], 500, 1e-3, **kw)
    cmp = curves_coincide(a, b, 1e-7)
    assert cmp.coincide, (cmp.dist_a_to_b, cmp.dist_b_to_a)


def test_sw_t_and_b_trajectories_coincide(sw2):
    kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
    a = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                                [0.35, 0.35], 2000, 1e-3, **kw)
    b = integrate_dual_geodesic(sw2.connection("+B"), sw2.metric, [1.0, 2.0],
                                [0.35, 0.35], 2000, 1e-3, **kw)
    cmp = curves_coincide(a, b, 1e-6)
    assert cmp.coincide, (cmp.dist_a_to_b, cmp.dist_b_to_a)
    # half-step cross-validation of the same curve; the floor is the
    # piecewise-linear interpolation error of the coarser polyline (~ds^2)
    a_half = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                                     [0.35, 0.35], 4000, 5e-4, **kw)
    assert curves_coincide(a, a_half, 1e-7).coincide


def test_sw_unit_speed_pair(sw2):
    # the same comparison at unit-scale initial velocity: the symmetrized
    # companion accelerates ~20x across the box, so the piecewise-linear
    # measurement floor rises to ~1e-5; the curves still coincide there
    kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
    a = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                                [1.0, 1.0], 2000, 1e-3, **kw)
    b = integrate_dual_geodesic(sw2.connection("+B"), sw2.metric, [1.0, 2.0],
                                [1.0, 1.0], 2000, 1e-3, **kw)
    cmp = curves_coincide(a, b, 1e-5)
    assert cmp.coincide, (cmp.dist_a_to_b, cmp.dist_b_to_a)


def test_lc_not_in_the_class(sw2):
    kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
    a = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                                [0.35, 0.35], 2000, 1e-3, **kw)
    c = integrate_dual_geodesic(sw2.connection("LC"), sw2.metric, [1.0, 2.0],
                                [0.35, 0.35], 2000, 1e-3, **kw)
    assert not curves_coincide(a, c, 1e-6).coincide


def test_trajectory_vs_itself(euclid2):
    traj = integrate_dual_geodesic(levi_civita(euclid2), euclid2, [0.0, 0.0],
                                   [1.0, 0.0], 50, 0.01)
    cmp = curves_coincide(traj, traj, 1e-12)
    assert cmp.coincide and cmp.dist_a_to_b == 0.0 and cmp.dist_b_to_a == 0.0


def test_line_at_double_speed_coincides(euclid2):
    conn = levi_civita(euclid2)
    a = integrate_dual_geodesic(conn, euclid2, [0.0, 0.0], [1.0, 1.0], 100, 0.01)
    b = integrate_dual_geodesic(conn, euclid2, [0.0, 0.0], [2.0, 2.0], 100, 0.01)
    assert curves_coincide(a, b, 1e-10).coincide


def test_diverging_lines_fail(euclid2):
    conn = levi_civita(euclid2)
    a = integrate_dual_geodesic(conn, euclid2, [0.0, 0.0], [1.0, 0.0], 100, 0.01)
    b = integrate_dual_geodesic(conn, euclid2, [0.0, 0.0], [1.0, 0.3], 100, 0.01)
    cmp = curves_coincide(a, b, 1e-6)
    assert not cmp.coincide


def test_reparametrization_trivial_and_exponential(euclid2, sw2):
    # a scalar reparametrization q leaves the point set unchanged
    def with_and_without_q(conn, g, x0, w0, q, steps, h, tol=1e-6, **kw):
        affine = integrate_dual_geodesic(conn, g, x0, w0, steps, h, **kw)
        scaled = integrate_dual_geodesic(conn, g, x0, w0, steps, h, q=q, **kw)
        return curves_coincide(affine, scaled, tol)

    conn = levi_civita(euclid2)
    assert with_and_without_q(conn, euclid2, [0.0, 0.0], [1.0, 0.2],
                              q=lambda t: 0.0, steps=100, h=0.01).coincide
    # q = 1: same straight line traversed at exponential speed
    assert with_and_without_q(conn, euclid2, [0.0, 0.0], [1.0, 0.2],
                              q=lambda t: 1.0, steps=100, h=0.01).coincide
    cmp = with_and_without_q(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                             [0.3, 0.3], q=lambda t: math.sin(t),
                             steps=1500, h=1e-3, tol=1e-6,
                             box=sw2.box, singular_loci=sw2.singular_loci)
    assert cmp.coincide, (cmp.dist_a_to_b, cmp.dist_b_to_a)


def test_convergence_order(sw2):
    """halving h cuts the endpoint error by ~2^4 against an h/16 reference."""
    conn = sw2.connection("+T")
    kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
    h = 0.05
    tau_end = 1.0

    def endpoint(step):
        traj = integrate_dual_geodesic(conn, sw2.metric, [1.0, 2.0], [0.4, 0.3],
                                       int(round(tau_end / step)), step, **kw)
        assert traj.exit_reason == "completed"
        return traj.x[-1]

    ref = endpoint(h / 16)
    err_h = np.linalg.norm(endpoint(h) - ref)
    err_h2 = np.linalg.norm(endpoint(h / 2) - ref)
    ratio = err_h / err_h2
    assert 12.0 < ratio < 20.0, (err_h, err_h2, ratio)


def test_domain_exit_flag(sw2):
    traj = integrate_dual_geodesic(sw2.connection("LC"), sw2.metric, [2.5, 2.5],
                                   [1.0, 0.0], 2000, 1e-2,
                                   box=sw2.box, singular_loci=sw2.singular_loci)
    assert traj.exit_reason == "domain_exit"
    assert traj.x[-1][0] <= 3.0


def test_singular_margin_halt():
    g = Metric.from_sources([["1", "0"], ["0", "1"]])
    traj = integrate_dual_geodesic(levi_civita(g), g, [0.05, 0.5], [-1.0, 0.0],
                                   1000, 1e-3, singular_loci=[(0, 0.0)])
    assert traj.exit_reason == "singular_margin"


def test_lc_dual_geodesics_are_great_circles(sphere3, rng):
    """On the round sphere the Levi-Civita dual-geodesics are the geodesics:
    embedded ambient samples stay on a plane through the origin."""
    conn = sphere3.connection("LC")

    def embed(points):
        r2 = np.sum(points**2, axis=1)
        denom = 1.0 + r2
        ambient = np.empty((len(points), 4))
        ambient[:, :3] = 2.0 * points / denom[:, None]
        ambient[:, 3] = (1.0 - r2) / denom
        return ambient

    for _ in range(3):
        x0 = -0.2 + 0.4 * rng.random(3)
        w0 = rng.normal(size=3)
        w0 *= 0.4 / np.linalg.norm(w0)
        traj = integrate_dual_geodesic(conn, sphere3.metric, x0, w0, 1500, 1e-3,
                                       box=sphere3.box)
        amb = embed(traj.x)
        # unit norm preserved and rank-2 ambient span (plane through origin)
        assert np.max(np.abs(np.linalg.norm(amb, axis=1) - 1.0)) < 1e-9
        sv = np.linalg.svd(amb, compute_uv=False)
        assert sv[2] / sv[0] < 1e-8
        # constant metric speed along the curve
        speeds = [np.sqrt(traj.p[i] @ sphere3.metric.inverse(traj.x[i]) @ traj.p[i])
                  for i in range(0, len(traj.x), 300)]
        assert np.max(np.abs(np.diff(speeds))) < 1e-9


def _assert_rows_equal_single_runs(conn, g, x0s, w0s, steps, h, **kw):
    batch = integrate_dual_geodesics(conn, g, x0s, w0s, steps, h, **kw)
    assert len(batch) == len(x0s)
    for row, x0, w0 in zip(batch, x0s, w0s):
        alone = integrate_dual_geodesic(conn, g, x0, w0, steps, h, **kw)
        assert row.exit_reason == alone.exit_reason
        for got, want in ((row.tau, alone.tau), (row.x, alone.x), (row.p, alone.p)):
            # bit for bit, NaN and signed zeros included
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return batch


@pytest.mark.parametrize("name", builtin_names())
def test_batched_rows_equal_single_runs_on_claim_starts(name):
    # the seeded starts and connection pairs of the fixture's trajectory
    # claims, shortened to 40 steps
    fixture = builtin(name)
    starts = _seeded_initial_conditions(fixture, np.random.default_rng(7), 10)
    tags = ("+D", "-D", "+T", "-T") if fixture.is_semidegenerate else ("+T", "-T", "+B", "-B")
    for tag in tags:
        batch = _assert_rows_equal_single_runs(
            fixture.connection(tag), fixture.metric, [x0 for x0, _ in starts],
            [w0 for _, w0 in starts], 40, 1e-3, box=fixture.box,
            singular_loci=fixture.singular_loci)
        assert all(t.exit_reason == "completed" for t in batch)


# a non-constant metric with off-diagonal entries and a nonzero T, loaded
# without validation (it has no potentials), so that every sum of xdot, pdot
# and B's trace term adds terms that all round
_SHEARED = {
    "name": "sheared", "dimension": 2, "kind": "nondegenerate",
    "metric": [["2 + x2", "x1/4"], ["x1/4", "1 + x1^2"]], "domain": [[0.5, 1.5], [0.5, 1.5]],
    "structure": {"T": [[["x1*x2", "x2^2/3"], ["x2^2/3", "1/(1 + x2)"]],
                        [["sin(x1)", "x1 - x2"], ["x1 - x2", "x1^2*x2"]]]}}


def test_a_stack_with_q_equals_each_row_alone():
    # rows of all four connections, with a reparametrization q, on a metric
    # whose every sum rounds; four rows leave the box, each at its own step,
    # so the stack narrows to one +B row, which goes on alone on floats
    from dualgeo.fixtures import from_config
    fixture = from_config(_SHEARED, validate_on_load=False)
    rows = [("+B", [1.0, 1.0], [0.3, -0.2]), ("+T", [0.7, 1.2], [-1.5, 0.4]),
            ("-T", [1.2, 0.8], [0.2, 3.0]), ("-B", [0.8, 1.1], [-2.0, -1.0]),
            ("+B", [1.2, 0.8], [2.0, 0.5])]
    x0s, w0s = [x0 for _, x0, _ in rows], [w0 for _, _, w0 in rows]
    batch = _assert_table_rows_equal_single_runs(
        fixture.connection_table([tag for tag, _, _ in rows]), fixture.metric, x0s, w0s,
        400, 1e-3, q=math.sin, box=fixture.box)
    assert [(len(t.tau), t.exit_reason) for t in batch] == [
        (401, "completed"), (127, "domain_exit"), (143, "domain_exit"),
        (195, "domain_exit"), (259, "domain_exit")]
    # and one connection for every row, through the uniform table
    _assert_rows_equal_single_runs(fixture.connection("+B"), fixture.metric, x0s, w0s,
                                   400, 1e-3, q=math.sin, box=fixture.box)


def test_a_4d_stack_equals_each_row_alone_and_generates_one_step_per_case():
    # a non-constant metric with off-diagonal entries and a connection whose
    # coefficients vary with x, at n = 4; two rows leave the box, so the stack
    # narrows to one row, which goes on alone on floats
    g = Metric.from_sources([["2 + x1^2", "x2/5", "0", "x1*x4/10"],
                             ["x2/5", "3 + sin(x3)", "x3/7", "0"],
                             ["0", "x3/7", "2 + x2*x4", "1/(4 + x1)"],
                             ["x1*x4/10", "0", "1/(4 + x1)", "2.5 + x4^2/3"]])
    c = np.random.default_rng(4).uniform(-0.5, 0.5, (4, 4, 4))
    c = c + c.transpose(0, 2, 1)

    def coeff(x):
        # Gamma^k_{ij} = c[k, i, j] (x_i + x_j) / 4 + x_k^2 / 20
        x = np.asarray(x, dtype=float)
        return (c * (x[..., None, :, None] + x[..., None, None, :]) / 4
                + x[..., :, None, None] ** 2 / 20)

    conn = AffineConnection(g, coeff, "bent")
    x0s = [[1.0, 1.0, 1.0, 1.0], [0.9, 1.2, 0.8, 1.1], [1.3, 0.7, 1.1, 0.9]]
    w0s = [[0.3, -0.2, 0.1, 0.4], [-1.0, 0.5, 0.8, -0.3], [0.4, 1.5, -0.6, 0.2]]
    geodesics._lone_rk4.cache_clear()
    for q, samples in ((None, [601, 322, 317]), (math.sin, [601, 317, 311])):
        batch = _assert_rows_equal_single_runs(conn, g, x0s, w0s, 600, 1e-3, q=q,
                                               box=[(0.5, 1.5)] * 4)
        assert [len(t.tau) for t in batch] == samples
    # per q, the narrowed stack and three lone runs each make a step, from
    # one generated source per (n, q given)
    info = geodesics._lone_rk4.cache_info()
    assert (info.misses, info.hits) == (2, 6)


def test_batched_rows_halt_independently(euclid2):
    # straight lines (zero coefficients) except where a test region makes the
    # coefficients NaN (x1 > 0.6) or raise (x2 < -0.6025); every row stops
    # for a different reason at a different step
    def coeff(x):
        x = np.asarray(x)
        if np.any(x[..., 1] < -0.6025):
            raise EvalDomainError("test region", "x2")
        nan = np.where(x[..., 0] > 0.6, np.nan, 0.0)
        return np.zeros(x.shape + (2, 2)) + nan[..., None, None, None]

    conn = AffineConnection(euclid2, coeff, "regions")
    x0s = [[0.0, 0.0], [0.0, 0.5], [-0.2, 0.0], [0.3, -0.3], [0.2, -0.4]]
    w0s = [[0.1, 0.1], [0.0, 1.0], [-1.0, 0.0], [0.5, 0.0], [0.0, -1.0]]
    batch = _assert_rows_equal_single_runs(
        conn, euclid2, x0s, w0s, 100, 0.01, box=[(-1.0, 1.0), (-1.0, 1.0)],
        singular_loci=[(0, -0.5)])
    assert [t.exit_reason for t in batch] == [
        "completed", "domain_exit", "singular_margin", "nonfinite", "domain_exit"]
    lengths = [len(t.tau) for t in batch]
    assert lengths[0] == 101 and len(set(lengths)) == 5, lengths
    # the raising row stops at a stage point inside a step: its last sample
    # is still on the allowed side
    assert batch[4].x[-1][1] >= -0.6025
    # the nonfinite row halts at the first step whose covelocity is NaN, even
    # though its position is still finite, and keeps no such sample
    for traj in batch:
        assert np.isfinite(traj.x).all() and np.isfinite(traj.p).all()


def test_rank_deficient_structure_recovery_is_a_domain_exit():
    # the generic system on S^2 in stereographic coordinates, with T recovered
    # from its potentials: the third is infinite on the circle x1^2 + x2^2 = 1
    # inside the box, where the recovery is rank deficient.  The config is
    # not validated, since its box crosses that circle.
    from dualgeo.fixtures import from_config
    q = "(1 + x1^2 + x2^2)"
    fixture = from_config({
        "name": "s2-circle", "dimension": 2, "kind": "nondegenerate",
        "metric": [[f"4/{q}^2", "0"], ["0", f"4/{q}^2"]],
        "potentials": [f"{q}^2/(4*x1^2)", f"{q}^2/(4*x2^2)",
                       f"{q}^2/(1 - x1^2 - x2^2)^2", "1"],
        "domain": [[0.3, 2.0], [0.3, 2.0]],
        "singular_loci": [{"axis": 1, "value": 0.0}, {"axis": 2, "value": 0.0}]},
        validate_on_load=False)
    batch = _assert_rows_equal_single_runs(
        fixture.connection("+T"), fixture.metric, [[0.7, 0.7], [1.5, 1.5]],
        [[1.0, 1.0], [0.1, 0.1]], 200, 1e-3, box=fixture.box,
        singular_loci=fixture.singular_loci)
    assert [t.exit_reason for t in batch] == ["domain_exit", "completed"]
    assert len(batch[0].tau) < 100 and len(batch[1].tau) == 201


def _assert_table_rows_equal_single_runs(table, g, x0s, w0s, steps, h, **kw):
    """Every row of one state over a connection table equals the run of its
    start alone under its own connection, bit for bit."""
    batch = integrate_dual_geodesics(table, g, x0s, w0s, steps, h, **kw)
    assert len(batch) == len(x0s)
    for conn, row, x0, w0 in zip(table.conns, batch, x0s, w0s):
        alone = integrate_dual_geodesic(conn, g, x0, w0, steps, h, **kw)
        assert row.connection_tag == alone.connection_tag == conn.tag
        assert row.exit_reason == alone.exit_reason
        for got, want in ((row.tau, alone.tau), (row.x, alone.x), (row.p, alone.p)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return batch


def _without_structure(name):
    """The built-in ``name`` with its structure block deleted, so every
    structure field is recovered."""
    from dualgeo.fixtures import builtin_config, from_config
    cfg = builtin_config(name)
    del cfg["structure"]
    return from_config(cfg, validate_on_load=False)


@pytest.mark.parametrize("name", builtin_names() + ["sw2-recovered", "sw2-weak-recovered"])
def test_connection_table_rows_equal_single_connection_runs(name):
    # the rows of a theorem's suite-level state: its four connections times
    # the seeded claim starts, plus fast starts by the box's edge that leave;
    # a -recovered fixture's lone rows read their recovered fields' lists
    fixture = (_without_structure(name.removesuffix("-recovered"))
               if name.endswith("-recovered") else builtin(name))
    starts = _seeded_initial_conditions(fixture, np.random.default_rng(7), 10)
    lo, hi = np.array(fixture.box).T
    edge = lo + 0.01 * (hi - lo)
    starts += [(edge, -np.ones(fixture.n)), (edge + 0.02 * (hi - lo), -np.ones(fixture.n))]
    tags = ("+D", "+T", "-D", "-T") if fixture.is_semidegenerate else ("+T", "+B", "-T", "-B")
    rows = [(tag, x0, w0) for tag in tags for x0, w0 in starts]
    batch = _assert_table_rows_equal_single_runs(
        fixture.connection_table([tag for tag, _, _ in rows]), fixture.metric,
        [x0 for _, x0, _ in rows], [w0 for _, _, w0 in rows], 40, 1e-2,
        box=fixture.box, singular_loci=fixture.singular_loci)
    exits = [t.exit_reason for t in batch]
    assert exits.count("domain_exit") == 2 * len(tags)
    assert exits.count("completed") == 10 * len(tags)


def _ho2_variant(**changes):
    """ho2's config with its entries replaced by ``changes``, loaded without
    validation."""
    from dualgeo.fixtures import builtin_config, from_config
    return from_config({**builtin_config("ho2"), **changes}, validate_on_load=False)


def _raising(monkeypatch, error):
    """Make ``error`` escape the integrator instead of ending a row."""
    from dualgeo import geodesics
    monkeypatch.setattr(geodesics, "_DOMAIN_ERRORS",
                        tuple(e for e in geodesics._DOMAIN_ERRORS if e is not error))


def test_a_declared_field_that_divides_by_zero_ends_a_lone_row(monkeypatch):
    # T^1_11 = 1/x1 on a lone +B row, whose point path runs T's compiled
    # float function.  From x1 = 0.5 the row jumps over the pole and leaves
    # the box after 168 samples, with no error swallowed on the way; from
    # x1 = 0 the first stage's division check raises and ends the row there
    from dualgeo.expressions import EvalDomainError
    T = [[["1/x1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    fixture = _ho2_variant(structure={"T": T})

    def run(x1):
        return integrate_dual_geodesic(fixture.connection("+B"), fixture.metric, [x1, 0.3],
                                       [-1.0, 0.0], 1000, 1e-3, box=fixture.box,
                                       singular_loci=fixture.singular_loci)
    assert [(t.exit_reason, len(t.tau)) for t in (run(0.5), run(0.0))] == [
        ("domain_exit", 168), ("domain_exit", 1)]
    _raising(monkeypatch, EvalDomainError)
    assert len(run(0.5).tau) == 168
    with pytest.raises(EvalDomainError, match="division by zero"):
        run(0.0)


def test_a_metric_that_turns_singular_ends_lone_and_stacked_rows(monkeypatch):
    # g_11 = exp(-40 x1) grows past the condition bound as x1 falls: every
    # +-T and +-B row, alone or in a 4-row table state, ends after 51
    # samples, where the metric's condition check raises
    from dualgeo.geometry import SingularMetricError
    fixture = _ho2_variant(metric=[["exp(-40*x1)", "0"], ["0", "1"]])
    tags = ["+T", "+B", "-T", "-B"]
    kw = dict(box=fixture.box, singular_loci=fixture.singular_loci)

    def runs():
        table = integrate_dual_geodesics(fixture.connection_table(tags), fixture.metric,
                                         [[0.0, 0.3]] * 4, [[1.0, 0.1]] * 4, 1000, 1e-3, **kw)
        return table + [integrate_dual_geodesic(fixture.connection(tag), fixture.metric,
                                                [0.0, 0.3], [1.0, 0.1], 1000, 1e-3, **kw)
                        for tag in tags]
    assert [(t.exit_reason, len(t.tau)) for t in runs()] == [("domain_exit", 51)] * 8
    _raising(monkeypatch, SingularMetricError)
    for tag in tags:
        with pytest.raises(SingularMetricError, match="condition number"):
            integrate_dual_geodesic(fixture.connection(tag), fixture.metric, [0.0, 0.3],
                                    [1.0, 0.1], 1000, 1e-3, **kw)


def _regions_config(kind: str) -> dict:
    """A flat config whose structure tensor raises for x2 <= 0.6 (log),
    overflows to inf without raising near x1 = 3 (a product of two exps) and
    is near zero elsewhere, with a locus x1 = 0 just outside its box."""
    A = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    A[0][0][0] = "log(x2 - 0.6)"
    A[1][1][1] = "exp(1000*(x1 - 2.3))*exp(1000*(x1 - 2.3))"
    return {"name": "regions", "dimension": 2, "metric": [["1", "0"], ["0", "1"]],
            "kind": kind, "domain": [[0.0005, 3.0], [0.5, 3.0]],
            "singular_loci": [{"axis": 1, "value": 0.0}],
            "structure": {"T": A} if kind == "nondegenerate" else {"D": A, "s": ["x1", "x2"]}}


@pytest.mark.parametrize("kind, tags", [("nondegenerate", ("+T", "+B", "-T", "-B")),
                                        ("semidegenerate", ("+D", "+T", "-D", "-T"))])
def test_connection_table_rows_halt_as_single_connection_runs(kind, tags):
    # rows of all four connections that complete, reach the singular margin,
    # raise in the log (so a mixed-tag step is redone row by row), go
    # nonfinite, and leave the box
    from dualgeo.fixtures import from_config
    fixture = from_config(_regions_config(kind), validate_on_load=False)
    starts = [([1.0, 1.5], [0.1, 0.1]), ([0.0407, 1.5], [-1.0, 0.0]),
              ([1.0, 0.7], [0.0, -1.0]), ([2.2, 1.5], [1.0, 0.0]), ([1.0, 2.9], [0.0, 1.0])]
    rows = [(tag, x0, w0) for tag in tags for x0, w0 in starts]
    with np.errstate(all="ignore"):
        batch = _assert_table_rows_equal_single_runs(
            fixture.connection_table([tag for tag, _, _ in rows]), fixture.metric,
            [x0 for _, x0, _ in rows], [w0 for _, _, w0 in rows], 100, 0.01,
            box=fixture.box, singular_loci=fixture.singular_loci)
    exits = [t.exit_reason for t in batch]
    assert exits == ["completed", "singular_margin", "domain_exit", "nonfinite",
                     "domain_exit"] * 4
    # the raising rows stop at a stage point inside a step, still in the box
    assert all(batch[r].x[-1][1] > 0.6 for r in range(2, 20, 5))


def test_a_table_binds_once_per_running_set_and_per_redone_row(monkeypatch):
    # rows that complete, raise in the log (a mixed-tag step redone row by
    # row), leave the box and reach the singular margin, each at its own step;
    # a stack of rows binds the table, and a lone row takes its own connection
    from dualgeo import geodesics
    from dualgeo.fixtures import from_config
    fixture = from_config(_regions_config("nondegenerate"), validate_on_load=False)
    rows = [("+T", [1.0, 1.5], [0.1, 0.1]), ("+B", [1.0, 0.7], [0.0, -1.0]),
            ("-T", [1.0, 2.9], [0.0, 1.0]), ("-B", [0.0407, 1.5], [-1.0, 0.0])]
    table = fixture.connection_table([tag for tag, _, _ in rows])
    binds = []
    bind, lone_rk4 = table.bind, geodesics._lone_rk4

    def recording(running):
        binds.append((tuple(running), bind(running)))
        return binds[-1][1]

    def recording_lone(*shape):
        def make(flat, tp, point, q):
            row = next(r for r, conn in enumerate(table.conns) if conn.point is point)
            binds.append(((row,), table.conns[row]))
            return lone_rk4(*shape)(flat, tp, point, q)
        return make

    monkeypatch.setattr(table, "bind", recording)
    monkeypatch.setattr(geodesics, "_lone_rk4", recording_lone)
    steps = 100
    batch = integrate_dual_geodesics(table, fixture.metric, [x0 for _, x0, _ in rows],
                                     [w0 for _, _, w0 in rows], steps, 0.01,
                                     box=fixture.box, singular_loci=fixture.singular_loci)
    assert [t.exit_reason for t in batch] == ["completed", "domain_exit", "domain_exit",
                                              "singular_margin"]
    # a row that halts in step k keeps k samples; a completed row runs every step
    last = [min(len(t.tau), steps) for t in batch]
    redone = last[1]   # the step whose stage raised on row 1
    expected, previous = [], None
    for step in range(1, steps + 1):
        running = tuple(r for r in range(len(rows)) if last[r] >= step)
        if running != previous:
            expected.append(running)
            previous = running
        if step == redone:
            expected.extend((r,) for r in running)
    assert [running for running, _ in binds] == expected
    assert len(expected) == 4 + 3   # four running sets, three rows redone at step 10
    for running, coefficients in binds:
        if len(running) == 1:
            assert coefficients is table.conns[running[0]]
        else:
            assert all(coefficients != conn.coefficients for conn in table.conns)


# the metrics of the lone-row kernel tests: a constant one, whose parts a
# bound step reads once, and one that varies; both off-diagonal, so every sum
# of the kernel adds terms that all round
_KERNEL_METRICS = {"constant": [["1.5", "0.3"], ["0.3", "0.8"]],
                   "varying": [["2 + x2/4", "x1/8"], ["x1/8", "1 + x1^2/5"]]}
# starts that complete, reach the singular margin, raise in the log, go
# nonfinite (0 * inf past x1 = 2.655) and leave the box
_KERNEL_STARTS = [([1.0, 1.5], [0.1, 0.1]), ([0.0407, 1.5], [-1.0, 0.0]),
                  ([1.0, 0.7], [0.0, -1.0]), ([2.6, 1.5], [1.0, 0.0]),
                  ([1.0, 2.9], [0.0, 1.0])]


def _kernel_connections(kind: str, metric: str):
    """_regions_config on one of _KERNEL_METRICS, its overflowing entry made a
    NaN past the overflow, and every kind of connection it has: with a
    template (LC, +-T and +-B, or +-D, +-T), and without (dagger, a 1-form
    shift and a custom connection)."""
    cfg = _regions_config(kind)
    cfg["metric"] = _KERNEL_METRICS[metric]
    A = cfg["structure"]["T" if kind == "nondegenerate" else "D"]
    A[1][1][1] = f"0*({A[1][1][1]})"
    fixture = from_config(cfg, validate_on_load=False)
    g = fixture.metric
    tags = ("LC", "+T", "-T", "+B", "-B") if kind == "nondegenerate" else (
        "LC", "+D", "-D", "+T", "-T", "dagger")
    conns = [fixture.connection(tag) for tag in tags]

    def bent(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,...j,...k->...kij", x, x, x) / 50
    conns += [shift_by_one_form(conns[1], g, lambda x: np.asarray(x)[..., ::-1] / 10),
              AffineConnection(g, bent, "bent")]
    return fixture, conns


@pytest.mark.parametrize("q", [None, math.sin], ids=["q=0", "q=sin"])
@pytest.mark.parametrize("metric", sorted(_KERNEL_METRICS))
@pytest.mark.parametrize("kind", ["nondegenerate", "semidegenerate"])
def test_every_connection_kind_steps_alone_as_in_a_stack(kind, metric, q):
    # each row of a stack under each kind of connection equals its lone run,
    # which takes the generated step: a template's inlined coefficients, on a
    # constant metric its parts bound once, or the point of a connection
    # without one; the rows exit in every way a row can
    fixture, conns = _kernel_connections(kind, metric)
    assert fixture.metric.constant == (metric == "constant")
    assert [conn.template is None for conn in conns] == [False] * 5 + [True] * (len(conns) - 5)
    exits = set()
    for conn in conns:
        with np.errstate(all="ignore"):
            batch = _assert_rows_equal_single_runs(
                conn, fixture.metric, [x0 for x0, _ in _KERNEL_STARTS],
                [w0 for _, w0 in _KERNEL_STARTS], 100, 0.01, q=q, box=fixture.box,
                singular_loci=fixture.singular_loci)
        exits.update(t.exit_reason for t in batch)
        if conn.tag[1:] in ("T", "B", "D"):
            # the log raises inside a step, whose row keeps its samples in the box
            assert batch[2].exit_reason == "domain_exit" and batch[2].x[-1][1] > 0.6
    assert exits == {"completed", "singular_margin", "domain_exit", "nonfinite"}


# sw2 in the chart (x1 - x2/2, x2): a constant, off-diagonal metric whose
# family recovers T
_SHEARED_SW2 = {"name": "sw2-sheared", "dimension": 2, "kind": "nondegenerate",
                "metric": [["1", "-0.5"], ["-0.5", "1.25"]],
                "potentials": ["(x1 - x2/2)^2 + x2^2", "1/(x1 - x2/2)^2", "1/x2^2", "1"],
                "domain": [[1.5, 3.0], [0.5, 2.0]],
                "singular_loci": [{"axis": 2, "value": 0.0}]}


@pytest.mark.parametrize("q", [None, math.sin], ids=["q=0", "q=sin"])
@pytest.mark.parametrize("name", ["sw2-sheared", "sphere3-trivial"])
def test_recovered_t_and_b_rows_step_alone_as_in_a_stack(name, q):
    # +-T and +-B with T recovered at every stage point, on a constant and on
    # a varying metric; one row of each tag leaves the box
    cfg = _SHEARED_SW2 if name == "sw2-sheared" else builtin_config(name)
    fixture = from_config({key: v for key, v in cfg.items() if key != "structure"},
                          validate_on_load=False)
    assert fixture.metric.constant == (name == "sw2-sheared")
    rng = np.random.default_rng(3)
    lo, hi = np.array(fixture.box).T
    starts = [(lo + (hi - lo) * rng.uniform(0.4, 0.6, fixture.n),
               rng.normal(scale=0.2, size=fixture.n))
              for _ in range(2)] + [(lo + 0.01 * (hi - lo), -np.ones(fixture.n))]
    rows = [(tag, x0, w0) for tag in ("+T", "-T", "+B", "-B") for x0, w0 in starts]
    batch = _assert_table_rows_equal_single_runs(
        fixture.connection_table([tag for tag, _, _ in rows]), fixture.metric,
        [x0 for _, x0, _ in rows], [w0 for _, _, w0 in rows], 40, 1e-2, q=q,
        box=fixture.box, singular_loci=fixture.singular_loci)
    assert [t.exit_reason for t in batch] == ["completed", "completed", "domain_exit"] * 4


def test_forty_rows_of_four_tags_generate_one_step_per_shape_and_q():
    # a raising stage redoes each of 40 running rows alone, and each runs
    # alone again: both bind the step generated once per (sign, whether B)
    # and q, and no further source is generated
    fixture = from_config(_regions_config("nondegenerate"), validate_on_load=False)
    starts = [([1.0, 0.7], [0.0, -1.0])] + [([1.0 + 0.1 * k, 1.5], [0.1, 0.05 * k])
                                            for k in range(9)]
    rows = [(tag, x0, w0) for tag in ("+T", "-T", "+B", "-B") for x0, w0 in starts]
    table = fixture.connection_table([tag for tag, _, _ in rows])
    geodesics._lone_rk4.cache_clear()
    for k, q in enumerate((None, math.sin), 1):
        batch = _assert_table_rows_equal_single_runs(
            table, fixture.metric, [x0 for _, x0, _ in rows], [w0 for _, _, w0 in rows],
            30, 0.01, q=q, box=fixture.box, singular_loci=fixture.singular_loci)
        assert sum(t.exit_reason == "domain_exit" and len(t.tau) < 20 for t in batch) == 4
        info = geodesics._lone_rk4.cache_info()
        assert info.misses == 4 * k and info.hits + info.misses >= 80 * k


def test_connection_table_takes_the_suites_tags_only(sw2, sw2_weak):
    from dualgeo.fixtures import FixtureError
    for fixture, tag in ((sw2, "+D"), (sw2, "LC"), (sw2_weak, "+B"), (sw2_weak, "T")):
        with pytest.raises(FixtureError, match="connection table"):
            fixture.connection_table(["+T", tag])


def _region_connection(g, tag: str, bend: float) -> AffineConnection:
    """A constant Gamma^1_{22} = bend, except where the coefficients are NaN
    (x1 > 0.6) or raise (x2 < -0.6025)."""
    def coeff(x):
        x = np.asarray(x)
        if np.any(x[..., 1] < -0.6025):
            raise EvalDomainError("test region", "x2")
        nan = np.where(x[..., 0] > 0.6, np.nan, 0.0)
        gamma = np.zeros(x.shape + (2, 2)) + nan[..., None, None, None]
        gamma[..., 0, 1, 1] += bend
        return gamma

    return AffineConnection(g, coeff, tag)


def test_mixed_table_rows_halt_independently(euclid2):
    # straight lines and bent ones in one state; each row stops for its own
    # reason, and a step that raises on one row is redone row by row, each
    # row under its own connection (the bent rows would change bits under
    # the straight connection)
    from dualgeo.connections import ConnectionTable
    straight = _region_connection(euclid2, "straight", 0.0)
    bent = _region_connection(euclid2, "bent", 0.3)
    x0s = [[0.0, 0.0], [0.0, 0.5], [-0.2, 0.0], [0.3, -0.3], [0.2, -0.4]]
    w0s = [[0.1, 0.1], [0.0, 1.0], [-1.0, 0.0], [0.5, 0.0], [0.0, -1.0]]
    conns = [straight] * 5 + [bent] * 5
    raised = []

    def bind(rows):
        mine = [(conn, np.array([conns[r] is conn for r in rows])) for conn in (straight, bent)]

        def coefficients(x):
            out = np.empty(x.shape + (2, 2))
            for conn, rows_of_conn in mine:
                if rows_of_conn.any():
                    try:
                        out[rows_of_conn] = conn.coefficients(x[rows_of_conn])
                    except EvalDomainError:
                        raised.append(len(rows))
                        raise
            return out
        return coefficients

    batch = _assert_table_rows_equal_single_runs(
        ConnectionTable(conns, bind), euclid2, x0s * 2, w0s * 2, 100, 0.01,
        box=[(-1.0, 1.0), (-1.0, 1.0)], singular_loci=[(0, -0.5)])
    exits = [t.exit_reason for t in batch]
    assert exits[:5] == ["completed", "domain_exit", "singular_margin", "nonfinite",
                         "domain_exit"]
    assert {"completed", "domain_exit", "singular_margin", "nonfinite"} == set(exits[5:])
    assert exits[5] == "completed" and np.any(batch[5].x[-1] != batch[0].x[-1])
    # a whole-state stage raised while rows of both connections were running
    assert raised and max(raised) > 5
    for traj in batch:
        assert np.isfinite(traj.x).all() and np.isfinite(traj.p).all()


def test_table_must_cover_every_start(euclid2):
    from dualgeo.connections import ConnectionTable
    table = ConnectionTable.uniform(levi_civita(euclid2), 3)
    with pytest.raises(ValueError, match="3 connections for 2 starts"):
        integrate_dual_geodesics(table, euclid2, [[0.0, 0.0]] * 2, [[1.0, 0.0]] * 2, 10, 0.01)


def test_batched_starts_must_match(euclid2):
    conn = levi_civita(euclid2)
    with pytest.raises(ValueError, match="one shape"):
        integrate_dual_geodesics(conn, euclid2, [[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]],
                                 10, 0.01)
    with pytest.raises(ValueError, match="nonzero"):
        integrate_dual_geodesics(conn, euclid2, [[0.0, 0.0], [1.0, 0.0]],
                                 [[1.0, 0.0], [0.0, 0.0]], 10, 0.01)


def test_trajectory_monotone_parameter_guard():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)), "LC", 0.1)


def test_csv_round_trip_bit_exact(tmp_path, sw2):
    traj = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                                   [0.3, 0.1], 50, 1e-3,
                                   box=sw2.box, singular_loci=sw2.singular_loci)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "tau,x1,x2,p1,p2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    tau, x, p = data[:, 0], data[:, 1:3], data[:, 3:]
    assert np.array_equal(tau, traj.tau)
    assert np.array_equal(x, traj.x)
    assert np.array_equal(p, traj.p)


def test_json_export(tmp_path, euclid2):
    traj = integrate_dual_geodesic(levi_civita(euclid2), euclid2, [0.0, 0.0],
                                   [1.0, 0.0], 5, 0.1)
    path = tmp_path / "traj.json"
    traj.write_json(path)
    data = json.loads(path.read_text())
    assert data["metadata"]["method"] == "rk4"
    assert data["metadata"]["samples"] == 6
    assert float(data["x"][-1][0]) == traj.x[-1][0]


def test_json_round_trip_bit_exact(tmp_path, sw2):
    traj = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, [1.0, 2.0],
                                   [0.3, 0.1], 50, 1e-3,
                                   box=sw2.box, singular_loci=sw2.singular_loci)
    path = tmp_path / "traj.json"
    traj.write_json(path)
    data = json.loads(path.read_text())
    assert np.array([float(v) for v in data["tau"]]).tobytes() == traj.tau.tobytes()
    for name in ("x", "p"):
        parsed = np.array([[float(v) for v in row] for row in data[name]])
        assert parsed.tobytes() == getattr(traj, name).tobytes(), name


def _synthetic_trajectory(samples, n, exit_reason="completed"):
    """Random samples over 600 decades, led by inf, -inf, nan and -0.0."""
    rng = np.random.default_rng(1000 * samples + n)
    xp = rng.normal(size=(samples, 2 * n)) * 10.0 ** rng.integers(-300, 300, (samples, 2 * n))
    xp.flat[:4] = [np.inf, -np.inf, np.nan, -0.0]
    tau = np.cumsum(rng.uniform(0.5, 1.5, samples)) - 0.5
    return Trajectory(tau, xp[:, :n].copy(), xp[:, n:].copy(), "+T", 1e-3,
                      exit_reason=exit_reason)


@pytest.mark.parametrize("exit_reason", ["completed", "domain_exit"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("samples", [1, 2, EXPORT_BLOCK, EXPORT_BLOCK + 1,
                                     2 * EXPORT_BLOCK + 1])
def test_streamed_exports_equal_whole_document_writers(tmp_path, samples, n, exit_reason):
    traj = _synthetic_trajectory(samples, n, exit_reason)
    traj.write_json(tmp_path / "traj.json")
    traj.write_csv(tmp_path / "traj.csv")
    assert (tmp_path / "traj.json").read_bytes() == reference_json(traj).encode()
    assert (tmp_path / "traj.csv").read_bytes() == reference_csv(traj).encode()


def test_export_memory_does_not_grow_with_samples(tmp_path):
    # a json.dump of the whole document peaked at about 2 MB here, and grows
    # linearly with the samples; a block of strings takes about 0.1 MB
    traj = _synthetic_trajectory(4097, 2)
    for write in (traj.write_json, traj.write_csv):
        tracemalloc.start()
        try:
            write(tmp_path / "traj")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, (write.__name__, peak)


@pytest.mark.parametrize("queries,segments,n", [(1, 7, 2), (QUERY_BLOCK, 40, 2),
                                                (3 * QUERY_BLOCK + 5, 90, 3)])
def test_blocked_distances_equal_dense_formula(rng, queries, segments, n):
    poly = np.cumsum(rng.normal(size=(segments + 1, n)), axis=0)
    poly[5] = poly[4]  # a zero-length segment
    q = 3.0 * rng.normal(size=(queries, n))
    d, arcs = _polyline_distances(q, poly)
    d_ref, arcs_ref = dense_polyline_distances(q, poly)
    assert np.array_equal(d, d_ref) and np.array_equal(arcs, arcs_ref)


def test_curve_comparison_memory_is_linear_in_samples():
    # two 10^4-sample collinear segments overlapping on 55 % of their length
    # (a smaller share fails by MIN_OVERLAP): each direction compares ~5500
    # overlap samples, each with the segments of its arc window
    m = 10_000
    t = np.linspace(0.0, 1.0, m)
    line = np.stack([t, np.zeros(m)], axis=1)
    a = Trajectory(t, line, np.zeros_like(line), "a", 1.0 / m)
    b = Trajectory(t, line + [0.45, 0.0], np.zeros_like(line), "b", 1.0 / m)
    tracemalloc.start()
    try:
        cmp = curves_coincide(a, b, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cmp.coincide
    # a block's temporaries hold at most (3n + 5) doubles per scanned
    # query-segment pair; allowing twice that for a block against every
    # segment, the bound is 113 MB, where all ~5500 overlap queries against
    # every segment at once would take 4.8 GB
    assert peak < 2 * 8 * (3 * 2 + 5) * QUERY_BLOCK * m, peak


def test_curve_comparison_memory_is_bounded_when_nothing_is_pruned():
    # every segment of a circle is equally near its centre, and the scan of
    # every segment runs QUERY_BLOCK queries at a time
    m = 10_000
    t = np.linspace(0.0, 2.0 * np.pi, m)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    centres = np.zeros((2 * QUERY_BLOCK, 2))
    tracemalloc.start()
    try:
        d, arcs = _polyline_distances(centres, circle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d_ref, arcs_ref = dense_polyline_distances(centres[:1], circle)
    assert np.all(d == d_ref[0]) and np.all(arcs == arcs_ref[0])
    assert peak < 2 * 8 * (3 * 2 + 5) * QUERY_BLOCK * m, peak


def test_empty_overlap_fails():
    # b runs back over a's start and out again, ending inside a's only
    # segment; both curves are 1 long and each start lies on the other at
    # arc 0.4, so the offset is 0 and every sample counts.  Every sample of b
    # lies on a, but a's end is 0.4 from b
    a = Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]]),
                   np.zeros((2, 2)), "a", 1.0)
    b = Trajectory(np.array([0.0, 1.0, 2.0]),
                   np.array([[0.4, 0.0], [0.0, 0.0], [0.6, 0.0]]),
                   np.zeros((3, 2)), "b", 1.0)
    cmp = curves_coincide(a, b, 1e-6)
    assert cmp.dist_a_to_b == 0.4 and cmp.dist_b_to_a == 0.0
    assert not cmp.coincide


def _segment_trajectory(start: float, samples: int = 101) -> Trajectory:
    t = np.linspace(0.0, 1.0, samples)
    return Trajectory(t, np.stack([start + t, np.zeros(samples)], axis=1),
                      np.zeros((samples, 2)), "line", t[1])


def test_small_overlap_fails():
    # b continues a along the same line and shares only a's last tenth; the
    # shared points coincide exactly, so only the overlap share tells them apart
    cmp = curves_coincide(_segment_trajectory(0.0), _segment_trajectory(0.9), 1e-6)
    assert cmp.dist_a_to_b == math.inf and cmp.dist_b_to_a == math.inf
    assert not cmp.coincide


def test_overlap_of_most_samples_passes():
    # sharing 60 of 101 samples clears the MIN_OVERLAP share
    cmp = curves_coincide(_segment_trajectory(0.0), _segment_trajectory(0.4), 1e-6)
    assert cmp.coincide and cmp.dist_a_to_b == 0.0 and cmp.dist_b_to_a == 0.0


def _curve(x: np.ndarray) -> Trajectory:
    return Trajectory(np.arange(len(x), dtype=float), x, np.zeros_like(x), "curve", 1.0)


def _circle(samples: int, laps: float) -> Trajectory:
    t = np.linspace(0.0, 2.0 * np.pi * laps, samples)
    return _curve(np.stack([np.cos(t), np.sin(t)], axis=1))


@pytest.mark.parametrize("laps", [1, 5])
def test_one_closed_orbit_sampled_two_ways_coincides(laps):
    # 1000 samples a lap from (1, 0) against 700 a lap over 0.999 of the laps:
    # a closes on its own start, which lies on b's start too.  Each distance
    # is the other polyline's chord error, 1 - cos(dtheta / 2)
    a, b = _circle(1000 * laps, laps), _circle(700 * laps, 0.999 * laps)
    chord_a = 1.0 - np.cos(np.pi * laps / (1000 * laps - 1))
    chord_b = 1.0 - np.cos(np.pi * 0.999 * laps / (700 * laps - 1))
    cmp = curves_coincide(a, b, 2e-5)
    assert cmp.coincide, (cmp.dist_a_to_b, cmp.dist_b_to_a)
    assert math.isclose(cmp.dist_a_to_b, chord_b, rel_tol=1e-3)
    assert chord_a * 0.99 < cmp.dist_b_to_a <= chord_a * (1.0 + 1e-6)


def test_a_curve_that_doubles_back_fails():
    # a runs 0 -> 1 along a line, b runs 0 -> 0.9 and then back to 0.6 over
    # it, so every point of each lies on the other.  By arc position a's
    # samples near its end fall on b's way back and the other way round, so
    # their nearest point lies behind their arc window, at its first segment
    line = np.linspace(0.0, 1.0, 101)
    back = np.concatenate([line[:91], line[89:59:-1]])
    a = _curve(np.stack([line, np.zeros_like(line)], axis=1))
    b = _curve(np.stack([back, np.zeros_like(back)], axis=1))
    cmp = curves_coincide(a, b, 1e-6)
    assert cmp.dist_a_to_b == math.inf and cmp.dist_b_to_a == math.inf
    assert not cmp.coincide


def test_a_curve_that_leaves_the_other_by_a_bump_fails():
    # b follows a along a line but for a smooth bump of height 1e-4, whose
    # extra arc (about 1e-7) is far inside the window
    x = np.linspace(0.0, 1.0, 1001)
    y = np.where(np.abs(x - 0.5) < 0.1, 1e-4 * np.cos(5.0 * np.pi * (x - 0.5)) ** 2, 0.0)
    a = _curve(np.stack([x, np.zeros_like(x)], axis=1))
    cmp = curves_coincide(a, _curve(np.stack([x, y], axis=1)), 1e-6)
    assert math.isclose(cmp.dist_a_to_b, 1e-4, rel_tol=1e-6)
    assert math.isclose(cmp.dist_b_to_a, 1e-4, rel_tol=1e-6)
    assert not cmp.coincide


def test_the_retracing_probe_runs_round_the_unit_circle():
    # the retracing probe is sphere3-trivial's config on [-1.5, 1.5]^3, LC
    # (T = 0, so +B is LC) from x0 = (1, 0, 0) with w0 = (0, 1, 0) and h = 0.01:
    # the unit circle in the x1-x2 plane at unit coordinate speed
    cfg = builtin_config("sphere3-trivial")
    cfg["domain"] = [[-1.5, 1.5]] * 3
    del cfg["expected"]
    fx = from_config(cfg)
    traj = integrate_dual_geodesic(fx.connection("LC"), fx.metric, [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0], 700, 0.01, box=fx.box)
    t = 0.01 * np.arange(701)
    assert np.max(np.abs(traj.x - np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=1))) < 1e-8


@pytest.mark.parametrize("steps", [4000, 16_000])
def test_retracing_probe_comparison_scans_only_arc_windows(steps, monkeypatch):
    # the probe's two curves, as the test above pins them: one circle, about
    # 25 laps at 16,000 steps.  Every lap passes near every sample, so a
    # nearest-segment search over the whole curve evaluates about m^2 pairs
    # (78.6 million at 16,000 steps, in 4.5 s), where a sample at step k scans
    # its window's 2 (WINDOW_REACH + WINDOW_DRIFT k) + 1 segments, each way
    t = 0.01 * np.arange(steps + 1)
    x = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    segment_d2 = geodesics._segment_d2
    pairs = []

    def counted(dif, ab, len2):
        d2, s = segment_d2(dif, ab, len2)
        pairs.append(d2.size)
        return d2, s

    a, b = _curve(x), _curve(x.copy())
    monkeypatch.setattr(geodesics, "_segment_d2", counted)
    tracemalloc.start()
    try:
        cmp = curves_coincide(a, b, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cmp.coincide and cmp.dist_a_to_b == 0.0 and cmp.dist_b_to_a == 0.0
    m = steps + 1
    # both ways, plus block padding and the two offset scans of m pairs each
    assert sum(pairs) < 2 * m * (2 * WINDOW_REACH + 4 + WINDOW_DRIFT * m), sum(pairs)
    # O(m) arrays of about 30 doubles per sample; a scan of every segment in
    # blocks of QUERY_BLOCK took 4.4 MB at 4,000 steps and 16.3 MB at 16,000
    assert peak < 40 * 8 * m, peak


_coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
_lattice = st.integers(min_value=-3, max_value=3).map(lambda k: 0.5 * k)


@st.composite
def _polyline_case(draw):
    """A polyline and queries, drawn from the shapes where a nearest-segment
    search can go wrong: repeated vertices, collinear runs, equidistant ties,
    far-away queries, long smooth curves and near-coincident ones."""
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["lattice", "walk", "collinear", "circle", "square",
                                 "smooth", "coincident"]))
    extra = []
    if kind == "lattice":
        # few distinct points: repeats, zero-length segments, ties and
        # single-vertex or single-segment polylines
        poly = np.array(draw(st.lists(st.lists(_lattice, min_size=n, max_size=n),
                                      min_size=1, max_size=12)))
    elif kind == "walk":
        steps = np.array(draw(st.lists(st.lists(_coord, min_size=n, max_size=n),
                                       min_size=1, max_size=150)))
        poly = np.cumsum(steps, axis=0)
        for i in draw(st.lists(st.integers(1, len(poly) - 1), max_size=5)
                      if len(poly) > 1 else st.just([])):
            poly[i] = poly[i - 1]
    elif kind == "collinear":
        ts = draw(st.lists(_coord, min_size=1, max_size=80))
        direction = np.array(draw(st.lists(_lattice, min_size=n, max_size=n))) + 0.25
        poly = np.outer(ts, direction) + 1.0
    elif kind == "circle":
        t = np.linspace(0.0, 2.0 * np.pi, draw(st.integers(4, 400)))
        poly = np.zeros((len(t), n))
        poly[:, 0], poly[:, 1] = np.cos(t), np.sin(t)
    elif kind == "square":
        poly = np.zeros((5, n))
        poly[:, :2] = [[1, 1], [-1, 1], [-1, -1], [1, -1], [1, 1]]
    elif kind == "smooth":
        t = np.linspace(0.0, 3.0, 10_000)
        freq = draw(st.floats(0.5, 8.0))
        poly = np.zeros((len(t), n))
        poly[:, 0], poly[:, 1] = t, np.sin(freq * t)
    else:
        # the curves a dual-geodesic claim compares: a smooth curve, queries
        # from a window of a copy offset by about 1e-9, exact hits on every
        # 32nd vertex, and points on the bisector of the two segments that
        # meet there
        t = np.linspace(0.0, 3.0, draw(st.integers(800, 1200)))
        poly = np.zeros((len(t), n))
        poly[:, 0], poly[:, 1] = t, np.sin(draw(st.floats(0.5, 8.0)) * t)
        offset = draw(st.lists(st.floats(-1.5e-9, 1.5e-9), min_size=n, max_size=n))
        window = draw(st.integers(0, len(poly) - 96))
        extra += list(poly[window:window + 96] + offset)
        every = 32
        extra += list(poly[::every])
        joint = poly[every:-1:every]
        before = poly[every - 1:-2:every] - joint
        after = poly[every + 1::every] - joint
        bisector = (before / np.linalg.norm(before, axis=1, keepdims=True)
                    + after / np.linalg.norm(after, axis=1, keepdims=True))
        length = np.linalg.norm(bisector, axis=1, keepdims=True)
        extra += list(joint + 1e-6 * bisector / np.where(length == 0.0, 1.0, length))
    queries = [np.zeros(n)]  # the centre of the circle and the square
    queries += draw(st.lists(st.lists(_lattice, min_size=n, max_size=n), max_size=12))
    queries += draw(st.lists(st.lists(_coord, min_size=n, max_size=n), max_size=12))
    picks = draw(st.lists(st.integers(0, len(poly) - 1), max_size=12))
    queries += [poly[i] for i in picks]  # exact vertex hits
    queries += [poly[i] + 1e-9 for i in picks]
    queries += [1e6 * np.array(draw(st.lists(_lattice, min_size=n, max_size=n)))]
    return np.array(queries + extra, dtype=float), poly


@given(_polyline_case())
@settings(max_examples=300, deadline=None)
def test_polyline_distances_equal_dense_oracle(case):
    queries, poly = case
    d, arcs = _polyline_distances(queries, poly)
    d_ref, arcs_ref = dense_polyline_distances(queries, poly)
    assert np.array_equal(d, d_ref) and np.array_equal(arcs, arcs_ref)


@given(_polyline_case(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_window_distances_equal_window_oracle(case, seed):
    # windows centred anywhere on the curve or on a vertex's arc, from a
    # single arc to the whole curve
    queries, poly = case
    line = _Polyline(poly)
    rng = np.random.default_rng(seed)
    k = len(queries)
    centre = np.where(rng.random(k) < 0.5, rng.uniform(0.0, line.arcs[-1], k),
                      rng.choice(line.arcs, k))
    half = np.choose(rng.integers(0, 4, k), [np.zeros(k), np.full(k, 1e-9),
                                             rng.uniform(0.0, 0.05 * line.arcs[-1], k),
                                             rng.uniform(0.0, line.arcs[-1], k)])
    got = _window_distances(queries, centre - half, centre + half, line)
    want = window_polyline_distances(queries, centre - half, centre + half, poly)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_query_coordinates_equal_dense_oracle(bad):
    # a NaN or infinite coordinate gives NaN or infinite distances to every
    # segment, and argmin and the arc coordinate must treat them as the
    # dense scan does
    t = np.linspace(0.0, 3.0, 801)
    poly = np.stack([t, np.sin(2.0 * t)], axis=1)
    queries = poly[::5] + 1e-9
    queries[3, 1] = queries[100, 0] = bad
    with np.errstate(invalid="ignore"):
        d, arcs = _polyline_distances(queries, poly)
        d_ref, arcs_ref = dense_polyline_distances(queries, poly)
    assert np.array_equal(d, d_ref, equal_nan=True)
    assert np.array_equal(arcs, arcs_ref, equal_nan=True)
