"""The blocked grid checks against the per-point loops they replaced.

Every check evaluates the grid ``GRID_BLOCK`` rows at a time; the result must
equal the one-point-at-a-time reference in ``oracles`` bit for bit, on every
built-in, on recovered sw2, and on grids of one point, of fewer than
``GRID_BLOCK`` points and of a count that is not a multiple of it.
"""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from dualgeo.connections import (
    ConnectionError_, compatibility_residual, connection_ricci_symmetry_check,
    dual_projective_test, semi_compatibility_test,
)
from dualgeo.fixtures import builtin, builtin_config, from_config
from dualgeo.geometry import GRID_BLOCK, ScalarField, TensorField, grid_max, grid_maxima
from dualgeo.structure import (
    bertrand_darboux_check, beta_condition_residual, classify, killing_check, poisson_check,
)
from oracles import (
    buildable_tags, pointwise_bertrand_darboux, pointwise_beta_condition,
    pointwise_classification_norm, pointwise_compatibility, pointwise_dual_projective,
    pointwise_extracted_T, pointwise_killing, pointwise_poisson, pointwise_ricci_symmetry,
    pointwise_semi_compatibility, tags_without_jacobian,
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _fixture(name):
    if name == "sw2-recovered":
        cfg = builtin_config("sw2")
        del cfg["structure"]
        return from_config(cfg, validate_on_load=False)
    return builtin(name)


def _metric_as_killing(fixture) -> TensorField:
    """The metric itself, a Killing tensor of every metric."""
    n = fixture.n
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = fixture.metric.comps[i][j]
    return TensorField(comps, ("down", "down"), n)


def _potentials(fixture):
    if fixture.family is not None:
        return fixture.family.potentials
    return (ScalarField.from_source("x1*x2 + 1/x1", fixture.n),)


def assert_checks_equal_pointwise(fixture, grid, tags):
    g, n = fixture.metric, fixture.n
    for a, b in zip(tags, tags[1:]):
        conn_a, conn_b = fixture.connection(a), fixture.connection(b)
        res = dual_projective_test(
            conn_a, conn_b, g, grid,
            expected_alpha=lambda x: pointwise_dual_projective(conn_a, conn_b, g, x)[1])
        worst, _ = pointwise_dual_projective(conn_a, conn_b, g, grid)
        assert bits(res.max_residual) == bits(worst), (a, b)
        assert res.alpha_mismatch == 0.0, (a, b)
    beta = None
    if fixture.is_semidegenerate:
        def beta(x):
            return (fixture.s_covector(x) - (n + 2) * fixture.t_covector(x)) / n
    for tag in tags:
        conn = fixture.connection(tag)
        res = semi_compatibility_test(
            conn, g, grid,
            expected_beta=lambda x: pointwise_semi_compatibility(conn, g, x)[1])
        worst, _, worst_beta = pointwise_semi_compatibility(conn, g, grid, beta)
        assert bits(res.max_residual) == bits(worst), tag
        assert res.beta_mismatch == 0.0, tag
        assert semi_compatibility_test(conn, g, grid, expected_beta=beta).beta_mismatch \
            == worst_beta, tag
        assert (bits(compatibility_residual(conn, g, grid))
                == bits(pointwise_compatibility(conn, g, grid))), tag
        if tag in tags_without_jacobian(fixture):
            for ricci_check in (connection_ricci_symmetry_check, pointwise_ricci_symmetry):
                with pytest.raises(ConnectionError_, match=re.escape(repr(tag))):
                    ricci_check(conn, grid)
        else:
            assert (bits(connection_ricci_symmetry_check(conn, grid))
                    == bits(pointwise_ricci_symmetry(conn, grid))), tag
    if fixture.is_semidegenerate:
        D, s_cov = fixture.prolongation_tensor, fixture.s_covector
        cls = classify(g, D, s_cov, grid)
        assert bits(cls.max_n_norm) == bits(pointwise_classification_norm(g, D, s_cov, grid))
        for x, row in zip(grid, fixture.structure_tensor(grid)):
            assert row.tobytes() == pointwise_extracted_T(fixture, x).tobytes()
        assert (bits(beta_condition_residual(g, fixture.connection("+D"), D, s_cov, grid))
                == bits(pointwise_beta_condition(g, fixture.connection("+D"), D, s_cov,
                                                 grid)))
    killing = [(_metric_as_killing(fixture), None)]
    killing += [(kd.K, kd.W) for kd in fixture.killing]
    momenta = np.random.default_rng(5).normal(size=(4, n))
    for K, W in killing:
        assert bits(killing_check(g, K, grid)) == bits(pointwise_killing(g, K, grid))
        for V in _potentials(fixture):
            assert (bits(bertrand_darboux_check(g, K, V, grid))
                    == bits(pointwise_bertrand_darboux(g, K, V, grid)))
            F = W if W is not None else V
            assert (bits(poisson_check(g, V, K, F, grid, momenta))
                    == bits(pointwise_poisson(g, V, K, F, grid, momenta)))


@pytest.mark.parametrize("name", ["ho2", "sw2", "sw2-weak", "sw2-strong-synthetic",
                                  "sphere3-trivial", "sw2-recovered"])
def test_blocked_checks_equal_pointwise_loops(name):
    fixture = _fixture(name)
    assert_checks_equal_pointwise(fixture, fixture.grid(3),
                                  buildable_tags(fixture))


@pytest.mark.parametrize("per_axis", [1, 7, 9])
def test_blocked_checks_equal_pointwise_across_block_boundaries(per_axis, sw2, sw2_weak):
    # 1, 49 < GRID_BLOCK and 81 = GRID_BLOCK + 17 points
    assert_checks_equal_pointwise(sw2, sw2.grid(per_axis), ["+T", "+B"])
    assert_checks_equal_pointwise(sw2_weak, sw2_weak.grid(per_axis), ["+D", "+T"])


@pytest.mark.parametrize("rows", [1, GRID_BLOCK - 1, GRID_BLOCK, 3 * GRID_BLOCK + 5])
def test_one_pass_maxima_equal_one_grid_max_per_function(rows):
    # random values, a NaN row in the last block, and functions that return
    # a tuple of arrays
    rng = np.random.default_rng(rows)
    values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 1))
    values[-1, 1] = np.nan
    fns = [lambda v: v[:, 0], lambda v: (v[:, 0] - v[:, 2], v[:, 1]),
           lambda v: np.einsum("...i->...", v), lambda v: (v.sum(),)]
    singles = [lambda v: v[:, 0], lambda v: v[:, 0] - v[:, 2], lambda v: v[:, 1],
               lambda v: np.einsum("...i->...", v), lambda v: v.sum()]
    maxima = grid_maxima(fns, values)
    assert len(maxima) == len(singles)
    for fn, found in zip(singles, maxima):
        assert bits(found) == bits(grid_max(fn, values))
    assert np.isnan(maxima[2]) and not np.isnan(maxima[0])


def test_one_pass_maxima_run_every_function_on_a_block_before_the_next():
    seen = []
    values = np.arange(2 * GRID_BLOCK + 1.0)[:, None]
    grid_maxima([lambda v: seen.append(("a", v[0, 0])) or v,
                 lambda v: seen.append(("b", v[0, 0])) or v], values)
    assert seen == [(name, start) for start in (0.0, GRID_BLOCK, 2.0 * GRID_BLOCK)
                    for name in "ab"]


def test_one_pass_maxima_of_an_empty_grid_raise():
    with pytest.raises(ValueError):
        grid_maxima([lambda v: v, lambda v: (v, 2 * v)], np.zeros((0, 2)))


def test_grid_check_memory_is_bounded_by_the_block(sphere3):
    # a check that stacked the whole grid would hold its metric jets,
    # coefficients and residuals for every point at once
    conn = sphere3.connection("+B")
    small, large = sphere3.grid(4), sphere3.grid(20)
    assert len(small) == GRID_BLOCK
    for grid in (small, large):  # compile every program, warm every cache
        compatibility_residual(conn, sphere3.metric, grid)
    peaks = []
    for grid in (small, large):
        tracemalloc.start()
        try:
            compatibility_residual(conn, sphere3.metric, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= large.nbytes, peaks
