import json
import re
from pathlib import Path

import numpy as np
import pytest

from dualgeo.fixtures import builtin, from_config, builtin_config
from dualgeo.theorems import (
    SUITES, SuiteNotApplicable, applicable_suites, verify_remark_digamma,
    verify_theorem1, verify_theorem2, verify_weyl_symmetry,
)
from oracles import (
    digamma_residuals_claim_by_claim, theorem1_grid_residuals_claim_by_claim,
    weyl_residuals_claim_by_claim,
)

GOLDEN = Path(__file__).parent / "golden"

# suite runs are expensive; share them across the assertions below
_CACHE = {}


def run_t1(fixture, **kw):
    key = ("t1", fixture.name, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = verify_theorem1(fixture, trajectory_count=4,
                                      trajectory_steps=500, **kw)
    return _CACHE[key]


def run_t2(fixture, **kw):
    key = ("t2", fixture.name, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = verify_theorem2(fixture, trajectory_count=4,
                                      trajectory_steps=500, **kw)
    return _CACHE[key]


def claims_by_id(report):
    return {c.claim_id: c for c in report.claims}


def test_theorem1_sw2_all_pass(sw2):
    report = run_t1(sw2)
    assert report.all_ok
    ids = claims_by_id(report)
    for sign in ("plus", "minus"):
        assert ids[f"t1.dual_projective.{sign}"].residual < 1e-9
        assert ids[f"t1.alpha_match.{sign}"].residual < 1e-9
        assert ids[f"t1.trajectories.{sign}"].residual < 1e-6
        assert ids[f"t1.compatibility.{sign}"].residual < 1e-9
        assert ids[f"t1.uniqueness.{sign}"].residual > 1e-3
        assert ids[f"t1.ricci_symmetry.{sign}"].residual < 1e-6
    control = ids["t1.negative_control.perturbed_b"]
    assert control.negative_control and control.ok


def test_theorem1_ho2_trivial(ho2):
    report = run_t1(ho2)
    assert report.all_ok
    # T = B = 0: the connections literally coincide with Levi-Civita
    conn = ho2.connection("+T")
    lc = ho2.connection("LC")
    x = np.array([0.3, -0.8])
    assert np.array_equal(conn.coefficients(x), lc.coefficients(x))


def test_theorem1_rejects_semidegenerate(sw2_weak):
    with pytest.raises(SuiteNotApplicable):
        verify_theorem1(sw2_weak)


def test_theorem2_weak(sw2_weak):
    report = run_t2(sw2_weak)
    assert report.all_ok
    ids = claims_by_id(report)
    assert ids["t2.classification"].direction == "below"
    assert ids["t2.dagger_equals_induced"].residual < 1e-10
    assert ids["t2.beta_condition"].residual < 1e-8
    assert ids["t2.ricci_symmetry"].residual < 1e-6
    assert ids["t2.extraction_cross_check"].residual < 1e-8
    for sign in ("plus", "minus"):
        assert ids[f"t2.semi_compatibility.{sign}"].residual < 1e-9


def test_theorem2_strong(sw2_strong):
    report = run_t2(sw2_strong)
    assert report.all_ok
    ids = claims_by_id(report)
    assert ids["t2.classification"].direction == "above"
    assert ids["t2.classification"].residual > 0.1
    # the semi-compatibility claims expect failure and record it as a pass
    for sign in ("plus", "minus"):
        claim = ids[f"t2.semi_compatibility.{sign}"]
        assert claim.direction == "above" and claim.residual > 1e-2
    assert ids["t2.beta_condition"].residual < 1e-8
    assert "t2.dagger_equals_induced" not in ids


def test_weyl_suite(sw2, ho2):
    r_sw = verify_weyl_symmetry(sw2)
    assert r_sw.all_ok
    ids = claims_by_id(r_sw)
    assert ids["weyl.total_symmetry"].residual < 1e-8
    assert ids["weyl.negative_control.levi_civita"].residual > 1e-3
    r_ho = verify_weyl_symmetry(ho2)
    assert r_ho.all_ok
    # trace form vanishes identically: control is skipped with a note
    assert "weyl.negative_control.levi_civita" not in claims_by_id(r_ho)
    assert any("skipped" in note for note in r_ho.notes)


def test_digamma_suite(sphere3):
    report = verify_remark_digamma(sphere3)
    assert report.all_ok
    ids = claims_by_id(report)
    assert ids["rd.difference_identity"].residual < 1e-9
    assert ids["rd.codazzi_f"].residual < 1e-9
    assert ids["rd.codazzi_b"].residual < 1e-9
    assert ids["rd.constant_zeta_coincidence"].residual < 1e-12
    assert ids["rd.fixture_zeta"].residual < 1e-12
    assert ids["rd.negative_control.nonconstant_zeta"].residual > 1e-6


@pytest.mark.parametrize("per_axis", [3, 9])
def test_digamma_claims_equal_one_pass_per_claim(sphere3, per_axis):
    # the suite reduces its claims in one pass over the grid; each residual
    # must be the one a separate pass per claim finds, bit for bit
    report = verify_remark_digamma(sphere3, per_axis=per_axis)
    expected = digamma_residuals_claim_by_claim(sphere3, per_axis)
    zeta_residual = expected.pop("zeta_residual")
    assert {c.claim_id: c.residual.hex() for c in report.claims} == {
        claim_id: residual.hex() for claim_id, residual in expected.items()}
    assert [c.claim_id for c in report.claims] == list(expected)   # claim order kept
    assert report.notes == [
        f"defining-equation residual of the fixture's zeta: {zeta_residual:.3e} "
        "(reported; the injected test zeta is not required to satisfy it)"]


def test_digamma_computes_the_metric_jets_once_per_block(monkeypatch):
    # 9^3 = 729 points are 12 blocks of GRID_BLOCK = 64 rows; the parent's
    # seven passes over them computed the metric jets 84 times
    from dualgeo.geometry import GRID_BLOCK, Metric
    fixture = builtin("sphere3-trivial")
    calls = []
    eval_jets = Metric._eval_jets

    def counting(self, x):
        calls.append(len(x))
        return eval_jets(self, x)

    monkeypatch.setattr(Metric, "_eval_jets", counting)
    verify_remark_digamma(fixture, per_axis=9)
    assert -(-9**3 // GRID_BLOCK) == 12
    assert len(calls) <= 12, calls


@pytest.mark.parametrize("name", ["sphere3-trivial", "sw2"])
def test_theorem1_pass_claims_equal_one_pass_per_claim(name):
    # theorem 1 reduces its uniqueness and Ricci claims and its remainder
    # defects in one pass after its sign loop; each must be the value a
    # separate pass per claim finds, bit for bit (12 and 10 grid blocks)
    fixture = builtin(name)
    per_axis = 9 if fixture.n == 3 else 25
    report = verify_theorem1(fixture, per_axis=per_axis, seed=11, trajectory_count=2,
                             trajectory_steps=20)
    expected = theorem1_grid_residuals_claim_by_claim(fixture, per_axis, 11, 2)
    s_sym, s_tr = expected.pop("s_sym"), expected.pop("s_tr")
    ids = {c.claim_id: c for c in report.claims}
    assert {k: ids[k].residual.hex() for k in expected} == {
        k: v.hex() for k, v in expected.items()}
    assert (f"decomposition remainder S: max symmetry defect {s_sym:.3e}, "
            f"max trace defect {s_tr:.3e} over the grid (reported, not asserted)"
            in report.notes)


@pytest.mark.parametrize("name", ["sw2", "ho2"])
def test_weyl_claims_equal_one_pass_per_claim(name):
    # the total-symmetry defect and the t scale that gates the Levi-Civita
    # control come from one pass; each must be the value a separate pass per
    # quantity finds, bit for bit (10 grid blocks)
    fixture = builtin(name)
    report = verify_weyl_symmetry(fixture, per_axis=25)
    expected = weyl_residuals_claim_by_claim(fixture, 25)
    t_scale = expected.pop("t_scale")
    assert {c.claim_id: c.residual.hex() for c in report.claims} == {
        claim_id: residual.hex() for claim_id, residual in expected.items()}
    assert [c.claim_id for c in report.claims] == list(expected)   # claim order kept
    skipped = ("trace 1-form vanishes on this fixture; Levi-Civita negative control "
               "is not discriminating and was skipped")
    if name == "ho2":
        assert t_scale == 0.0 and report.notes == [skipped]
    else:
        assert t_scale > 1e-6 and report.notes == []


def test_runner_notes_the_remainder_first_then_short_curves_in_claim_order(sw2):
    # a step of 8.0 leaves the box at once, so every start of both trajectory
    # claims gets a note; the remainder note, set in the grid pass, comes first
    report = verify_theorem1(sw2, per_axis=3, trajectory_step_size=8.0)
    assert report.notes[0].startswith("decomposition remainder S: max symmetry defect ")
    # a curve keeps 2 samples where its first step stays in the box, else 1
    assert [re.sub(r"kept \d and \d of", "kept _ and _ of", note)
            for note in report.notes[1:]] == [
        f"t1.trajectories.{sign}: start {start} kept _ and _ of 801 samples (exit reasons "
        "domain_exit, domain_exit); fewer than half, so the residual is inf"
        for sign in ("plus", "minus") for start in range(10)]
    ids = claims_by_id(report)
    assert ids["t1.trajectories.plus"].residual == ids["t1.trajectories.minus"].residual == np.inf


@pytest.mark.parametrize("name", ["ho2", "sw2", "sw2-weak", "sw2-strong-synthetic",
                                  "sphere3-trivial", "sw2-recovered", "sw2-weak-recovered"])
def test_runner_settles_every_claim(name):
    # no suite leaves a claim pending: a pending residual is NaN.  The
    # -recovered fixtures declare no structure fields, so every suite runs on
    # the solver's T, D and s, and a Jacobian a suite needs cannot be missing
    if name.endswith("-recovered"):
        cfg = builtin_config(name.removesuffix("-recovered"))
        del cfg["structure"]
        fixture = from_config(cfg)
    else:
        fixture = builtin(name)
    for suite in applicable_suites(fixture):
        kw = {"trajectory_count": 2, "trajectory_steps": 20} if suite in ("1", "2") else {}
        report = SUITES[suite](fixture, per_axis=3, **kw)
        assert report.claims and report.pending == []
        assert not [c.claim_id for c in report.claims if np.isnan(c.residual)]


def test_digamma_needs_n3(sw2):
    with pytest.raises(SuiteNotApplicable):
        verify_remark_digamma(sw2)


def test_applicable_suites(sw2, sw2_weak, sphere3):
    assert applicable_suites(sw2) == ["1", "weyl"]
    assert applicable_suites(sw2_weak) == ["2"]
    assert applicable_suites(sphere3) == ["1", "weyl", "digamma"]


def test_broken_fixture_fails_suite():
    # perturbing the declared structure tensor poisons the connections: the
    # suite must catch it (an all-pass here would be a bug)
    cfg = builtin_config("sw2")
    cfg["structure"]["T"][0][0][0] = "-3/(2*x1) + 1/50"
    cfg["expected"] = {}
    fixture = from_config(cfg, validate_on_load=False)  # skip the cross-check
    report = verify_theorem1(fixture, trajectory_count=2, trajectory_steps=200)
    ids = claims_by_id(report)
    assert not ids["t1.compatibility.plus"].ok or not ids["t1.alpha_match.plus"].ok
    assert not report.all_ok


def test_report_json_round_trip(sw2_weak):
    report = run_t2(sw2_weak)
    data = json.loads(report.to_json())
    assert data["fixture"] == "sw2-weak"
    assert data["suite"] == "theorem2"
    assert data["verdict"] == "pass"
    assert all(c["verdict"] == "pass" for c in data["claims"])
    assert {"package", "python", "numpy", "platform"} <= set(data["environment"])


def test_report_schema_is_stable_against_golden(sw2):
    """Golden-file check of the claim-id set and the per-claim key set."""
    report = run_t1(sw2)
    data = report.to_dict()
    shape = {
        "suite": data["suite"],
        "top_level_keys": sorted(data.keys()),
        "claim_keys": sorted(data["claims"][0].keys()),
        "claim_ids": sorted(c["id"] for c in data["claims"]),
    }
    golden_path = GOLDEN / "theorem1_report_shape.json"
    expected = json.loads(golden_path.read_text())
    assert shape == expected


def test_reports_are_deterministic(sw2_weak):
    a = verify_theorem2(sw2_weak, trajectory_count=2, trajectory_steps=150,
                        seed=123).to_json()
    b = verify_theorem2(sw2_weak, trajectory_count=2, trajectory_steps=150,
                        seed=123).to_json()
    assert a == b
    c = verify_theorem2(sw2_weak, trajectory_count=2, trajectory_steps=150,
                        seed=124).to_json()
    assert json.loads(c)["seed"] == 124


def test_trajectory_claim_needs_half_the_samples(sw2):
    # a step of 8.0 leaves the box at once: every curve keeps one of the
    # 801 samples asked for, so no start counts as evidence
    from dualgeo.theorems import (
        TOL_TRAJECTORY, CurveRow, VerificationReport, _run_claims, _seeded_initial_conditions,
    )
    report = VerificationReport(sw2.name, "theorem1", {}, 0)
    starts = _seeded_initial_conditions(sw2, np.random.default_rng(0), 10)
    claim = report.add("t1.trajectories.plus", "short curves", CurveRow("+T", "+B", starts),
                       TOL_TRAJECTORY)
    assert np.isnan(claim.residual) and not claim.ok
    _run_claims(report, sw2, None, steps=800, h=8.0)
    assert claim.residual == np.inf and not claim.ok
    assert len(report.notes) == 10
    assert report.notes[3] == (
        "t1.trajectories.plus: start 3 kept 1 and 1 of 801 samples (exit reasons "
        "domain_exit, domain_exit); fewer than half, so the residual is inf")


@pytest.mark.parametrize("suite, fixture_name, tags", [
    ("1", "sw2", ["+T", "+B", "-T", "-B"]),
    ("2", "sw2-weak", ["+D", "+T", "-D", "-T"]),
])
def test_suites_integrate_every_trajectory_in_one_call(suite, fixture_name, tags,
                                                       monkeypatch):
    # both signs' claims, each start under both connections, are the rows of
    # one state: one integrator call per suite, the starts drawn as before
    from dualgeo import theorems
    calls = []
    integrate = theorems.integrate_dual_geodesics

    def counting(table, *args, **kwargs):
        calls.append([conn.tag for conn in table.conns])
        return integrate(table, *args, **kwargs)

    monkeypatch.setattr(theorems, "integrate_dual_geodesics", counting)
    fixture = builtin(fixture_name)
    report = theorems.SUITES[suite](fixture, per_axis=3, trajectory_count=3,
                                    trajectory_steps=60)
    assert calls == [[tag for tag in tags for _ in range(3)]]
    ids = [claim.claim_id for claim in report.claims]
    for sign in ("plus", "minus"):
        # each claim keeps its place, right after the alpha claim of its sign
        at = ids.index(f"t{suite}.trajectories.{sign}")
        assert ids[at - 1] == f"t{suite}.alpha_match.{sign}"
        assert report.claims[at].ok and 0.0 <= report.claims[at].residual < 1e-6
