"""Negative controls for NaN evidence: a NaN residual fails its claim.

Every grid check reduces through ``geometry.grid_max``, whose block maxima fold
with ``np.maximum``: one NaN row makes the residual NaN, and NaN lands on
neither side of any tolerance.  Each control puts the NaN row in the first
``GRID_BLOCK`` rows of an 81-point grid and, separately, in a later block.
"""

import json

import numpy as np
import pytest

from dualgeo.cli import main
from dualgeo.connections import (
    AffineConnection, compatibility_residual, connection_ricci_symmetry_check,
    dual_projective_test, levi_civita, semi_compatibility_test,
)
from dualgeo.fixtures import builtin, builtin_config, load
from dualgeo.geometry import GRID_BLOCK, ScalarField, TensorField, grid_max
from dualgeo.structure import (
    bertrand_darboux_check, beta_condition_residual, classify, killing_check, poisson_check,
)
from dualgeo.theorems import (
    verify_remark_digamma, verify_theorem1, verify_theorem2, verify_weyl_symmetry,
)

ROWS = [0, 70]    # in the first block, and in the second (GRID_BLOCK = 64)


def test_grid_max_folds_blocks_and_keeps_nan():
    assert GRID_BLOCK == 64
    values = np.arange(81.0)[:, None] - 40.0
    assert grid_max(lambda v: v, values) == 40.0
    for row in ROWS:
        poisoned = values.copy()
        poisoned[row] = np.nan
        assert np.isnan(grid_max(lambda v: v, poisoned))
    with pytest.raises(ValueError):
        grid_max(lambda v: v, np.zeros((0, 2)))


def _nan_row_grid(fixture, row):
    grid = fixture.grid(9)
    assert grid.shape[0] == 81
    grid[row] = np.nan
    return grid


def _rotation_killing_tensor() -> TensorField:
    # the square of the rotation Killing vector of the flat plane
    comps = np.array([["x2^2", "-x1*x2"], ["-x1*x2", "x1^2"]], dtype=object)
    return TensorField.from_sources(comps.tolist(), ("down", "down"), 2)


@pytest.mark.parametrize("row", ROWS)
def test_connection_and_killing_checks_return_nan_on_a_nan_row(row, sw2):
    g = sw2.metric
    clean = sw2.grid(9)
    grid = _nan_row_grid(sw2, row)
    conn_t, conn_b = sw2.connection("+T"), sw2.connection("+B")
    assert dual_projective_test(conn_t, conn_b, g, clean).equivalent
    dp = dual_projective_test(conn_t, conn_b, g, grid)
    assert dp.equivalent is False and np.isnan(dp.max_residual)
    assert semi_compatibility_test(conn_b, g, clean).semi_compatible
    sc = semi_compatibility_test(conn_b, g, grid)
    assert sc.semi_compatible is False and np.isnan(sc.max_residual)
    assert compatibility_residual(conn_b, g, clean) < 1e-9
    assert np.isnan(compatibility_residual(conn_b, g, grid))
    assert connection_ricci_symmetry_check(conn_t, clean) < 1e-9
    assert np.isnan(connection_ricci_symmetry_check(conn_t, grid))

    K = _rotation_killing_tensor()
    V = ScalarField.from_source("x1^2 + x2^2", 2)       # rotation invariant
    momenta = np.random.default_rng(5).normal(size=(4, 2))
    for check in (lambda pts: killing_check(g, K, pts),
                  lambda pts: bertrand_darboux_check(g, K, V, pts),
                  lambda pts: poisson_check(g, V, K, ScalarField.from_source("0", 2),
                                            pts, momenta)):
        assert check(clean) < 1e-9
        residual = check(grid)
        assert np.isnan(residual) and not residual <= 1e-8


@pytest.mark.parametrize("row", ROWS)
def test_obstruction_checks_return_nan_on_a_nan_row(row, sw2_weak):
    g, D, s_cov = sw2_weak.metric, sw2_weak.prolongation_tensor, sw2_weak.s_covector
    clean = sw2_weak.grid(9)
    grid = _nan_row_grid(sw2_weak, row)
    assert classify(g, D, s_cov, clean).verdict == "WEAK"
    cls = classify(g, D, s_cov, grid)
    assert cls.verdict == "STRONG" and np.isnan(cls.max_n_norm)
    conn_d = sw2_weak.connection("+D")
    assert beta_condition_residual(g, conn_d, D, s_cov, clean) < 1e-8
    assert np.isnan(beta_condition_residual(g, conn_d, D, s_cov, grid))


def test_nan_coefficient_at_one_of_two_points_is_not_equivalent(euclid2):
    # a connection whose coefficient is NaN at one of two points is neither
    # rejected as torsion (NaN is no defect) nor accepted at residual 0
    points = np.array([[1.0, 1.0], [2.0, 1.0]])

    def coeff(x):
        gamma = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        gamma[np.asarray(x)[..., 0] == 2.0] = np.nan
        return gamma

    res = dual_projective_test(levi_civita(euclid2), AffineConnection(euclid2, coeff),
                               euclid2, points)
    assert res.equivalent is False
    assert np.isnan(res.max_residual)


def _poison(fn, point):
    """fn with NaN at every row of x equal to point."""
    def poisoned(x):
        out = np.array(fn(x), dtype=float)
        out[np.all(np.asarray(x) == point, axis=-1)] = np.nan
        return out
    return poisoned


def _fixture_with_nan_row(name, per_axis, row, tensor):
    fixture = builtin(name)
    grid = fixture.grid(per_axis)[:81]
    fixture.grid = lambda _per_axis=None: grid
    setattr(fixture, tensor, _poison(getattr(fixture, tensor), grid[row]))
    return fixture


def _claims(report) -> dict:
    return {c.claim_id: c for c in report.claims}


@pytest.mark.parametrize("row", ROWS)
def test_theorem1_and_weyl_grid_claims_fail_on_a_nan_row(row):
    fixture = _fixture_with_nan_row("sw2", 9, row, "structure_tensor")
    report = verify_theorem1(fixture, seed=7, trajectory_count=2, trajectory_steps=20)
    claims = _claims(report)
    for claim_id, claim in claims.items():
        if "trajectories" in claim_id:      # starts off the grid never meet the NaN
            assert claim.ok
        else:
            assert np.isnan(claim.residual) and not claim.ok, claim_id
    assert len(claims) == 13
    assert "max symmetry defect nan, max trace defect nan" in report.notes[0]
    weyl = _claims(verify_weyl_symmetry(fixture, seed=7))
    # a NaN t scale runs the Levi-Civita control instead of skipping it
    assert set(weyl) == {"weyl.total_symmetry", "weyl.negative_control.levi_civita"}
    assert all(np.isnan(c.residual) and not c.ok for c in weyl.values())


@pytest.mark.parametrize("row", ROWS)
def test_theorem2_grid_claims_fail_on_a_nan_row(row):
    fixture = _fixture_with_nan_row("sw2-weak", 9, row, "prolongation_tensor")
    claims = _claims(verify_theorem2(fixture, seed=7, trajectory_count=2,
                                     trajectory_steps=20))
    # the NaN obstruction is not WEAK, so the weak-only claims are not run,
    # and semi-compatibility must then rise "above" its tolerance: NaN does not
    assert len(claims) == 12
    assert claims["t2.semi_compatibility.plus"].direction == "above"
    for claim_id, claim in claims.items():
        if "trajectories" in claim_id:
            assert claim.ok
        else:
            assert np.isnan(claim.residual) and not claim.ok, claim_id


@pytest.mark.parametrize("row", ROWS)
def test_semi_compatibility_fails_on_a_nan_expected_beta(row):
    # t enters only the expected beta: the obstruction stays WEAK and the
    # semi-compatibility residual finite, while the beta mismatch is NaN
    fixture = _fixture_with_nan_row("sw2-weak", 9, row, "t_covector")
    claims = _claims(verify_theorem2(fixture, seed=7, trajectory_count=2,
                                     trajectory_steps=20))
    assert claims["t2.classification"].ok
    for sign in ("plus", "minus"):
        claim = claims[f"t2.semi_compatibility.{sign}"]
        assert claim.direction == "below" and np.isnan(claim.residual) and not claim.ok


@pytest.mark.parametrize("row", ROWS)
def test_digamma_grid_claims_fail_on_a_nan_row(row):
    fixture = _fixture_with_nan_row("sphere3-trivial", 5, row, "structure_tensor")
    report = verify_remark_digamma(fixture, seed=7)
    claims = _claims(report)
    assert len(claims) == 6
    for claim_id, claim in claims.items():
        assert np.isnan(claim.residual) and not claim.ok, claim_id
    assert "zeta: nan" in report.notes[-1]


def _nan_t_config(tmp_path):
    """sw2 with (1e308*x1*10 - 1e308*x1*10), which is inf - inf = NaN
    everywhere, added to every component of T."""
    cfg = builtin_config("sw2")
    T = cfg["structure"]["T"]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                T[k][i][j] = f"{T[k][i][j]} + (1e308*x1*10 - 1e308*x1*10)"
    path = tmp_path / "nan-t.json"
    path.write_text(json.dumps(cfg))
    return path


def _strict_json(line):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(line, parse_constant=refuse)


def test_nan_structure_tensor_fails_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _nan_t_config(tmp_path)
    code = main(["verify", str(path), "--theorem", "weyl"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    lines = [_strict_json(line[4:]) for line in err.splitlines() if line.startswith("  - ")]
    closed_form = [f for f in lines if f["check"] == "structure-closed-form"]
    assert len(closed_form) == 9            # every point of the validation grid
    assert all(f["residual"] == "nan" for f in closed_form)
    assert list(tmp_path.iterdir()) == [path]


def test_nan_structure_tensor_fails_every_claim(tmp_path):
    fixture = load(_nan_t_config(tmp_path), validate_on_load=False)
    claims = (verify_theorem1(fixture, seed=7).claims
              + verify_weyl_symmetry(fixture, seed=7).claims)
    assert len(claims) == 15
    assert [c.claim_id for c in claims if c.ok] == []
