import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualgeo import fixtures
from dualgeo.fixtures import (
    FixtureError, FixtureValidationError, UnknownFixtureError, builtin,
    builtin_config, builtin_names, from_config, load, validate,
)
from oracles import reference_b_tensor

ROOT = Path(__file__).resolve().parents[1]
PACKAGED_SCHEMA = Path(fixtures.__file__).with_name("fixture.schema.json")


def test_builtin_names():
    assert builtin_names() == ["ho2", "sphere3-trivial", "sw2",
                               "sw2-strong-synthetic", "sw2-weak"]


def test_unknown_builtin():
    with pytest.raises(UnknownFixtureError):
        builtin("nosuch")


@pytest.mark.parametrize("name", builtin_names())
def test_every_builtin_validates(name):
    fixture = builtin(name)
    assert validate(fixture) == []


def test_ho2_structure_vanishes(ho2):
    for x in ho2.grid(3):
        assert np.max(np.abs(ho2.structure_tensor(x))) < 1e-10


def test_sw2_expected_spots(sw2):
    T = sw2.structure_tensor(np.array([1.0, 2.0]))
    assert np.isclose(T[0, 0, 0], -1.5)
    assert np.isclose(T[1, 0, 0], 0.75)


def test_sw2_weak_s_vector(sw2_weak):
    s = sw2_weak.s_vector(np.array([1.0, 2.0]))
    assert np.allclose(s, [-3.0, -1.5])


def test_config_round_trip_matches_builtin(tmp_path, sw2):
    cfg = builtin_config("sw2")
    path = tmp_path / "sw2.json"
    path.write_text(json.dumps(cfg))
    loaded = load(path)
    for x in ([1.0, 2.0], [0.7, 1.1]):
        x = np.array(x)
        assert np.array_equal(loaded.structure_tensor(x), sw2.structure_tensor(x))
        assert np.array_equal(loaded.metric.value(x), sw2.metric.value(x))


def test_config_without_closed_forms_recovers(tmp_path, sw2):
    cfg = builtin_config("sw2")
    del cfg["structure"]
    fixture = from_config(cfg)
    x = np.array([1.0, 2.0])
    assert np.max(np.abs(fixture.structure_tensor(x) - sw2.structure_tensor(x))) < 1e-10


def test_typo_in_potential_fails_validation(tmp_path):
    cfg = builtin_config("sw2")
    cfg["potentials"][1] = "1/x1"  # typo: should be 1/x1^2
    del cfg["structure"]
    cfg["expected"] = {}
    with pytest.raises(FixtureValidationError) as err:
        from_config(cfg)
    checks = {f["check"] for f in err.value.failures}
    assert "recovery-residual" in checks or "recovery" in checks


def test_asymmetric_metric_rejected():
    cfg = builtin_config("sw2")
    cfg["metric"] = [["1", "x1"], ["0", "1"]]
    with pytest.raises(FixtureError, match="symmetric"):
        from_config(cfg, validate_on_load=False)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2,,}')
    with pytest.raises(FixtureError, match="line 1"):
        load(path)


def test_wrong_domain_arity():
    cfg = builtin_config("sw2")
    cfg["domain"] = [[0.5, 3.0]]
    with pytest.raises(FixtureError, match="axes"):
        from_config(cfg, validate_on_load=False)


def test_margin_without_interior_rejected():
    cfg = builtin_config("sw2")
    cfg["singular_margin"] = 1.25  # the domain axes are 2.5 wide
    with pytest.raises(FixtureError, match="no interior"):
        from_config(cfg, validate_on_load=False)


def test_validation_is_total_not_raising(tmp_path):
    # several things wrong at once: report collects them instead of crashing
    cfg = builtin_config("sw2-weak")
    cfg["structure"]["s"] = ["-3/x1", "-4/x2"]  # wrong declared s
    cfg["expected"]["spots"][1]["value"] = -7.0
    fixture = from_config(cfg, validate_on_load=False)
    failures = validate(fixture)
    checks = [f["check"] for f in failures]
    assert "s-closed-form" in checks
    assert "expected-spot" in checks


def test_family_size_check():
    cfg = builtin_config("sw2")
    cfg["potentials"] = cfg["potentials"][:3]
    del cfg["structure"]
    cfg["expected"] = {}
    fixture = from_config(cfg, validate_on_load=False)
    assert any(f["check"] == "family-size" for f in validate(fixture))


def test_unknown_connection_tag(sw2):
    with pytest.raises(FixtureError, match="unknown connection tag"):
        sw2.connection("bogus")


def test_semidegenerate_connections_require_data(sw2):
    with pytest.raises(FixtureError):
        sw2.connection("+D")  # nondegenerate fixture carries no prolongation data


@pytest.mark.parametrize("call", ["prolongation_tensor", "prolongation_jacobian", "s_vector",
                                  "s_covector"])
def test_a_nondegenerate_fixture_has_no_semidegenerate_fields(sw2, call):
    # these returned least-squares solves of a system sw2 does not have
    with pytest.raises(FixtureError, match="fixture 'sw2' is nondegenerate; only the [Ds] "
                                           "of a semidegenerate fixture"):
        getattr(sw2, call)(np.array([1.0, 2.0]))


@pytest.mark.parametrize("name, call", [
    *(("sw2", call) for call in ("structure_tensor", "structure_tensor_jacobian", "t_covector",
                                 "b_tensor", "+T", "-T", "+B", "-B")),
    ("sw2-strong-synthetic", "prolongation_jacobian"),
])
def test_a_fixture_without_a_family_names_the_data_it_lacks(name, call):
    # loaded without validation, potentials or structure block, these reached
    # for the missing solver and raised AttributeError on None
    cfg = builtin_config(name)
    cfg.pop("potentials", None)
    del cfg["structure"]
    fixture = from_config(cfg, validate_on_load=False)
    evaluate = (fixture.connection(call).coefficients if call[0] in "+-"
                else getattr(fixture, call))
    data = "structure-tensor" if name == "sw2" else "prolongation"
    with pytest.raises(FixtureError, match=f"fixture {name!r} has no {data} data"):
        evaluate(np.array([1.0, 2.0]))


def test_digamma_needs_dimension(sw2):
    with pytest.raises(FixtureError, match="n >= 3"):
        sw2.connection("+F")


def test_classification_expected_mismatch_detected():
    cfg = builtin_config("sw2-strong-synthetic")
    cfg["expected"]["classification"] = "WEAK"
    fixture = from_config(cfg, validate_on_load=False)
    assert any(f["check"] == "classification" for f in validate(fixture))


def test_schema_documents_exist():
    for path in (PACKAGED_SCHEMA, ROOT / "docs/report.schema.json",
                 ROOT / "docs/expression-grammar.ebnf"):
        assert path.exists(), path
    # the packaged fixture schema is the only copy, and the one the loader uses
    assert not (ROOT / "docs/fixture.schema.json").exists()
    schema = json.loads(PACKAGED_SCHEMA.read_text())
    assert schema == fixtures.SCHEMA
    assert schema.get("type") == "object"
    for key in ("dimension", "metric", "kind", "domain"):
        assert key in schema["properties"]


def test_example_config_loads_and_validates():
    fixture = load(ROOT / "docs" / "example-fixture.json")
    assert fixture.name == "example-oscillator"
    # named constant bound at load time: k = 2 scales the quadratic potential
    V = fixture.family.potentials[0]
    assert V.value(np.array([1.0, 1.0])) == 4.0
    assert np.max(np.abs(fixture.structure_tensor(np.array([0.4, -0.3])))) < 1e-10


@pytest.mark.parametrize("name, tensor", [("sw2", "T"), ("sw2-strong-synthetic", "D")])
def test_declared_structure_with_torsion_fails_validation(name, tensor):
    # negative control: one asymmetric covariant pair, by 0.5
    cfg = builtin_config(name)
    cfg["structure"][tensor][0][0][1] = "0.5"
    failures = validate(from_config(cfg, validate_on_load=False))
    sym = [f for f in failures if f["check"] == "structure-symmetry"]
    assert len(sym) == 1 and sym[0]["residual"] == 0.5
    assert f"declared {tensor}" in sym[0]["message"]
    with pytest.raises(FixtureValidationError) as exc:
        from_config(cfg)
    assert sym[0] in exc.value.failures



@pytest.mark.parametrize("loci, domain, fragment", [
    ([{"axis": 0, "value": 0.0}], None, "singular_loci[0].axis: 0 is below the minimum 1"),
    ([{"axis": 3, "value": 0.0}], None, "axis 3 is not one of 1..2"),
    ([{"axis": 1.5, "value": 0.0}], None, "singular_loci[0].axis: 1.5 is not an integer"),
    ([{"axis": 2, "value": float("nan")}], None, "singular_loci[0].value: nan is not finite"),
    (None, [[-1.0, 2.0], [-1.0, 2.0]], "x1 = 0.0 is not a finite value outside"),
    (None, [[0.0, 3.0], [0.5, 3.0]], "x1 = 0.0 is not a finite value outside"),
], ids=["axis-0", "axis-3", "axis-fraction", "value-nan", "box-contains", "box-edge"])
def test_singular_loci_are_checked_at_load(loci, domain, fragment, tmp_path, capsys):
    # sw2's loci x1 = 0 and x2 = 0: a box over [-1, 2]^2 passed every grid
    # check on grids that miss 0, and axis 3 crashed trace with an IndexError
    from dualgeo.cli import main
    cfg = builtin_config("sw2")
    if loci is not None:
        cfg["singular_loci"] = loci
    if domain is not None:
        cfg["domain"] = domain
    with pytest.raises(FixtureError, match=re.escape(fragment)):
        from_config(cfg, validate_on_load=False)
    path = tmp_path / "loci.json"
    path.write_text(json.dumps(cfg))
    assert main(["trace", str(path), "--conn", "+T", "--x0", "1,2", "--w0", "0.1,0"]) == 3
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "trajectory-sw2-pT.csv").exists()


_WRONG_SPOT = [{"point": [1.0, 2.0], "tensor": "T", "index": [1, 1, 1], "value": 99.0,
                "tol": 1e-9}]


@pytest.mark.parametrize("entry, value, fragment", [
    ("dimension", None, "dimension: None is not an integer"),
    ("domain", None, "domain: None is not an array"),
    ("singular_margin", "x", "singular_margin: 'x' is not a number"),
    ("axis", None, "singular_loci[0].axis: None is not an integer"),
    ("metric", 5, "metric: 5 is not an array"),
    ("metric", [[1, 0], [0, 1]], "metric[0][0]: 1 is not a string"),
    ("zeta", 5, "zeta: 5 is not a string"),
    ("potentials", [5], "potentials[0]: 5 is not a string"),
    ("structure", {"T": 5}, "structure.T: 5 is not an array"),
    ("killing", [{"components": [[1, 0], [0, 0]], "scalar": "x1^2 + 1/x1^2",
                  "potential": "x1^2 + x2^2 + 1/x1^2 + 1/x2^2"}],
     "killing[0].components[0][0]: 1 is not a string"),
    ("potentials", 5, "potentials: 5 is not an array"),
    ("killing", 5, "killing: 5 is not an array"),
    ("killing", [5], "killing[0]: 5 is not an object"),
    ("singular_loci", [5], "singular_loci[0]: 5 is not an object"),
    ("singular_loci", None, "singular_loci: None is not an array"),
    ("structure", 5, "structure: 5 is not an object"),
    ("constants", 5, "constants: 5 is not an object"),
    ("constants", {"k": "a"}, "constants.k: 'a' is not a number"),
    ("singular_margin", -0.45, "singular_margin: -0.45 is below the minimum 0"),
    ("singular_margin", float("nan"), "singular_margin: nan is not finite"),
    ("domain", [[0.5, float("nan")], [0.5, 3.0]], "domain[0][1]: nan is not finite"),
    ("domain", [[0.5, 3.0], [float("-inf"), 3.0]], "domain[1][0]: -inf is not finite"),
    ("singular_margin", 10**400,
     "singular_margin: an integer of 1329 bits is beyond float range"),
    ("value", 10**400, "singular_loci[0].value: an integer of 1329 bits is beyond float range"),
    ("value", float("inf"), "singular_loci[0].value: inf is not finite"),
    ("constants", {"k": 10**400}, "constants.k: an integer of 1329 bits is beyond float range"),
    ("constants", {"k": float("inf")}, "constants.k: inf is not finite"),
    ("expected", {"spot": _WRONG_SPOT}, "expected.spot: unknown key; known keys: "
                                        "classification, enlarging, spots"),
    ("singular_locus", [{"axis": 1, "value": 0.0}], "singular_locus: unknown key"),
    ("name", 5, "name: 5 is not a string"),
    ("expected", {"spots": [{**_WRONG_SPOT[0], "value": 10**400}]},
     "expected.spots[0].value: an integer of 1329 bits is beyond float range"),
    ("expected", {"spots": [{**_WRONG_SPOT[0], "point": [1.0, 10**400]}]},
     "expected.spots[0].point[1]: an integer of 1329 bits is beyond float range"),
    ("expected", {"spots": [{**_WRONG_SPOT[0], "tol": float("inf")}]},
     "expected.spots[0].tol: inf is not finite"),
], ids=["dimension-null", "domain-null", "margin-string", "locus-axis-null", "metric-number",
        "metric-numeric-components", "zeta-number", "potential-number", "structure-T-number",
        "killing-numeric-components", "potentials-number", "killing-number",
        "killing-entry-number", "locus-number", "loci-null", "structure-number",
        "constants-number", "constant-string", "margin-negative", "margin-nan",
        "domain-bound-nan", "domain-bound-inf", "margin-beyond-float", "locus-beyond-float",
        "locus-inf", "constant-beyond-float", "constant-inf", "expected-misspelled",
        "loci-misspelled", "name-number", "spot-value-beyond-float",
        "spot-point-beyond-float", "spot-tol-inf"])
def test_config_values_of_the_wrong_type_are_fixture_errors(entry, value, fragment,
                                                            tmp_path, capsys):
    # the first ten ended the CLI with a TypeError or AttributeError traceback
    # and exit 1, and so did the next seven.  A string constant, a negative
    # margin (whose grid reached outside the box), a misspelled key and a
    # numeric name (which broke the report schema) loaded and passed; a NaN
    # margin or bound failed validation with misleading messages.  A locus
    # value or a constant beyond float range raised an OverflowError that
    # named no entry, and an infinite constant loaded.  An expected spot's
    # value or point beyond float range ended validation in an OverflowError
    # traceback, and an infinite spot tolerance made the spot impossible to
    # fail.  Each is now rejected at load, and the message names the entry's
    # JSON path.
    from dualgeo.cli import main
    cfg = builtin_config("sw2")
    if entry in ("axis", "value"):
        cfg["singular_loci"][0][entry] = value
    else:
        cfg[entry] = value
    with pytest.raises(FixtureError, match=re.escape(fragment)):
        from_config(cfg, validate_on_load=False)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path), "--out", str(tmp_path / "report.json")]) == 3
    stderr = capsys.readouterr().err
    assert fragment in stderr and "Traceback" not in stderr
    assert not (tmp_path / "report.json").exists()


def test_an_integer_literal_too_long_to_convert_is_a_fixture_error(tmp_path, capsys):
    # json.load raises a plain ValueError for an integer literal beyond
    # Python's 4300-digit conversion limit, which escaped with a traceback
    # and exit 1.  (The wrong-type table above cannot hold this case:
    # json.dumps cannot write such an integer either.)
    from dualgeo.cli import main
    cfg = json.loads((ROOT / "docs" / "example-fixture.json").read_text())
    cfg["singular_margin"] = "MARGIN"
    path = tmp_path / "long-literal.json"
    path.write_text(json.dumps(cfg).replace('"MARGIN"', "1" * 5000))
    with pytest.raises(FixtureError, match=re.escape(f"config {path} cannot be read: ")):
        load(path)
    assert main(["verify", str(path), "--out", str(tmp_path / "report.json")]) == 3
    stderr = capsys.readouterr().err
    assert f"config {path} cannot be read" in stderr and "Traceback" not in stderr
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("path, value, message", [
    (("potentials", 1), 5, "potentials[1]: 5 is not a string"),
    (("metric", 0, 0), 5, "metric[0][0]: 5 is not a string"),
    (("potentials", 1), "x1 +", "potentials[1] 'x1 +': unexpected end of input (at offset 4)"),
    (("killing", 0, "components", 0, 0), "x1 +",
     "killing[0].components [['x1 +', '0'], ['0', '0']]: unexpected end of input (at offset 4)"),
], ids=["potential-number", "metric-number", "potential-syntax", "killing-syntax"])
def test_a_bad_expression_names_its_config_entry(path, value, message, tmp_path, capsys):
    # each pair of these read the same, with an offset into a string the
    # message did not show; a number in place of an expression now fails the
    # schema check, which names its JSON path
    from dualgeo.cli import main
    cfg = builtin_config("sw2")
    *parents, last = path
    entry = cfg
    for key in parents:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(FixtureError) as err:
        from_config(cfg, validate_on_load=False)
    assert str(err.value) == f"invalid fixture config: {message}"
    config = tmp_path / "expression.json"
    config.write_text(json.dumps(cfg))
    assert main(["verify", str(config), "--out", str(tmp_path / "report.json")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("expected, check, message", [
    ({"spots": [5]}, None, "expected.spots[0]: 5 is not an object"),
    ({"spots": [{"point": [1.0, 1.0]}]}, None,
     "expected.spots[0]: required key 'tensor' is missing"),
    ({"spots": [{"point": [[1.0, 2.0]], "tensor": "T", "index": [1, 1, 1], "value": 0.0,
                 "tol": 1.0}]}, None, "expected.spots[0].point[0]: [1.0, 2.0] is not a number"),
    ({"spots": 5}, None, "expected.spots: 5 is not an array"),
    ({"spots": None}, None, "expected.spots: None is not an array"),
    (5, None, "expected: 5 is not an object"),
    ({"spots": [{"point": [1.0], "tensor": "T", "index": [1, 1, 1], "value": 0.0,
                 "tol": 1.0}]}, "expected-spot",
     "spots[0] is malformed: point has shape (1,), not (2,)"),
    *(({"spots": [{"point": [1.0, 2.0], "tensor": tensor, "index": index, "value": 0.0,
                   "tol": 1.0}]}, "expected-spot",
       f"spots[0] is malformed: {tensor} takes an index of length {rank} with entries "
       f"in 1..2, not {index}")
      for tensor, rank, index in (("T", 3, [1]), ("T", 3, [1, 1]), ("D", 3, [1, 1, 1, 1]),
                                  ("T", 3, [1, 3, 1]), ("s", 1, [1, 2]), ("t", 1, [3]))),
], ids=["not-an-object", "no-tensor", "stacked-point", "spots-number", "spots-null",
        "expected-number", "short-point", "T-index-1", "T-index-2", "D-index-4",
        "T-entry-3", "s-index-2", "t-entry-3"])
def test_a_malformed_spot_is_a_validation_failure(expected, check, message, tmp_path,
                                                  capsys):
    # each used to escape validate as a traceback: the spot's entries were
    # read outside its try, a stacked point failed in the failure entry, and
    # the spots and the block were iterated and read with no type check.
    # The schema check now rejects the first six before the fixture is built
    # (check None).  A point of the wrong length and an index that names no
    # one component depend on the dimension and stay validation failures; the
    # index ones used to fail with numpy's text, such as "only 0-dimensional
    # arrays can be converted to Python scalars" for T[1].
    from dualgeo.cli import main
    cfg = builtin_config("sw2")
    cfg["expected"] = expected
    if check is None:
        with pytest.raises(FixtureError) as err:
            from_config(cfg)
        assert not isinstance(err.value, FixtureValidationError)
        assert str(err.value) == f"invalid fixture config: {message}"
    else:
        with pytest.raises(FixtureValidationError) as err:
            from_config(cfg)
        assert err.value.failures == [{"check": check, "message": message}]
    config = tmp_path / "spot.json"
    config.write_text(json.dumps(cfg))
    assert main(["verify", str(config), "--out", str(tmp_path / "report.json")]) == 3
    stderr = capsys.readouterr().err
    assert message in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("metric, shape", [
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "3 x 3"),
    ([["1", "0"]], "1 x 2"),
    ([["1", "0"], ["0"]], "2 x 1/2"),
], ids=["3x3", "one-row", "ragged"])
def test_metric_must_be_dimension_by_dimension(metric, shape):
    # a 3 x 3 metric with dimension 2 used to build a 3-D metric beside 2-D
    # potentials and fail validation with a misleading family-size message
    cfg = builtin_config("sw2")
    cfg["metric"] = metric
    with pytest.raises(FixtureError, match=f"metric is {shape}, but dimension 2 needs 2 x 2"):
        from_config(cfg)


@pytest.mark.parametrize("name, path, value, message", [
    ("sw2-weak", ("structure", "D"), [], "structure.D is 0 x 0 x 0, but dimension 2 "
                                         "needs 2 x 2 x 2"),
    ("sw2", ("structure", "T"), [[["0", "0"], ["0", "0"]]],
     "structure.T is 1 x 2 x 2, but dimension 2 needs 2 x 2 x 2"),
    ("sw2-weak", ("structure", "s"), ["-3/x1"], "structure.s is 1, but dimension 2 needs 2"),
    ("sw2", ("killing", 0, "components"), [["1"]],
     "killing[0].components is 1 x 1, but dimension 2 needs 2 x 2"),
    ("sw2", ("expected", "spots", 0, "index"), [0, 1, 1],
     "invalid fixture config: expected.spots[0].index[0]: 0 is below the minimum 1"),
    ("sw2", ("killing", 0, "scalr"), "x1",
     "invalid fixture config: killing[0].scalr: unknown key; known keys: components, "
     "scalar, potential"),
], ids=["D-empty", "T-one-row", "s-short", "killing-1x1", "spot-index-0",
        "killing-misspelled"])
def test_tensor_entries_are_checked_at_load(name, path, value, message, tmp_path, capsys):
    # an empty D and a 1 x 1 Killing tensor ended in a traceback, a short T
    # or s failed validation with numpy's shape errors, a spot index 0 read
    # the last component, and a misspelled Killing key was ignored
    from dualgeo.cli import main
    cfg = builtin_config(name)
    *parents, last = path
    entry = cfg
    for key in parents:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(FixtureError) as err:
        from_config(cfg, validate_on_load=False)
    assert str(err.value) == message
    config = tmp_path / "shape.json"
    config.write_text(json.dumps(cfg))
    assert main(["verify", str(config), "--out", str(tmp_path / "report.json")]) == 3
    stderr = capsys.readouterr().err
    assert message in stderr and "Traceback" not in stderr


def test_every_builtin_declares_its_loci_outside_its_box():
    for name in builtin_names():
        fixture = builtin(name)
        for axis, value in fixture.singular_loci:
            lo, hi = fixture.box[axis]
            assert not lo <= value <= hi, name


def test_dimension_is_bounded_before_anything_is_built():
    from dualgeo.fixtures import MAX_DIMENSION
    assert MAX_DIMENSION == 6
    # a config past the limit is rejected before its metric is read: this
    # one has none that could be parsed
    for n, bound in ((MAX_DIMENSION + 1, "above the maximum 6"),
                     (10**9, "above the maximum 6"), (1, "below the minimum 2"),
                     (0, "below the minimum 2")):
        cfg = {"dimension": n, "metric": "not a metric", "kind": "nondegenerate",
               "domain": []}
        with pytest.raises(FixtureError, match=f"dimension: {n} is {bound}"):
            from_config(cfg)
    schema = json.loads(PACKAGED_SCHEMA.read_text())
    assert schema["properties"]["dimension"]["maximum"] == MAX_DIMENSION


@pytest.mark.parametrize("entry, value, check, point", [
    # g_11 vanishes at the grid's centre only
    ("metric", [["x1^2 + x2^2", "0"], ["0", "1"]], "metric-conditioning", [0.0, 0.0]),
    # the gradients span one direction where x1 or x2 vanishes
    ("potentials", ["x1^2 + x2^2", "x1^2", "x2^2", "1"], "recovery", [-1.0, 0.0]),
], ids=["singular-metric", "rank-deficient-family"])
def test_a_stacked_check_that_raises_is_one_failure_at_its_first_row(entry, value, check,
                                                                     point, tmp_path, capsys):
    # conditioning and recovery each run once over the whole grid, so either
    # fails once, naming its first failing row; the checks that need its
    # values (recovery, the closed-form comparison) are skipped
    from dualgeo.cli import main
    cfg = builtin_config("ho2")
    cfg[entry] = value
    cfg["domain"] = [[-1.0, 1.0], [-1.0, 1.0]]
    cfg["killing"], cfg["expected"] = [], {}
    failures = validate(from_config(cfg, validate_on_load=False))
    assert [f["check"] for f in failures] == [check]
    assert f"at {np.array(point)}" in failures[0]["message"]
    config = tmp_path / "stacked.json"
    config.write_text(json.dumps(cfg))
    assert main(["verify", str(config), "--out", str(tmp_path / "report.json")]) == 3
    stderr = capsys.readouterr().err
    assert failures[0]["message"] in stderr and "Traceback" not in stderr


def test_an_expression_error_in_a_declared_field_names_its_point():
    # ho2's declared T^1_11 = 1/x1 divides by zero on the line x1 = 0 of the
    # 3 x 3 validation grid over [-2, 2]^2; the stacked evaluation raised the
    # first failing row's error without saying where it failed
    cfg = builtin_config("ho2")
    cfg["structure"]["T"][0][0][0] = "1/x1"
    failures = validate(from_config(cfg, validate_on_load=False))
    message = f"declared T: division by zero in subexpression '1.0/x1' at {np.array([0.0, -2.0])}"
    assert [(f["check"], f["message"]) for f in failures if "point" not in f] == [
        ("structure-closed-form", message), ("structure-symmetry", message)]


@pytest.mark.parametrize("name, solves", [("sw2", 9), ("sw2-weak", 18)])
def test_validation_solves_each_recovered_field_once_per_grid_row(name, solves,
                                                                  monkeypatch):
    # the residual check and the closed-form comparison share one solve per
    # field and row of the 3^2 grid, T on sw2, D and s on sw2-weak, and each
    # field's rows are one SVD call
    stacks = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        stacks.append(a.shape[:-2])
        return svd(a, *args, **kwargs)

    fixture = builtin(name)
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert validate(fixture) == []
    assert stacks == [(9,)] * (solves // 9)


def test_each_expected_spot_is_checked_at_its_own_point():
    # a spot whose tensor raises fails alone, with its point; the other spots
    # of that tensor still pass or fail on their own values
    cfg = builtin_config("ho2")
    cfg["structure"]["T"][0][0][0] = "1/x1"
    spot = {"tensor": "T", "index": [1, 1, 1], "value": 3.0, "tol": 1e-9}
    cfg["expected"]["spots"] = [
        {**spot, "point": [0.5, -1.0], "value": 2.0}, {**spot, "point": [0.0, 1.0]},
        {**spot, "point": [1.0, 1.0]},
        {**spot, "point": [1.0, 1.0], "tensor": "t", "index": [2], "value": 0.0}]
    failures = validate(from_config(cfg, validate_on_load=False))
    assert [(f["message"], f["point"]) for f in failures if f["check"] == "expected-spot"] == [
        ("division by zero in subexpression '1.0/x1'", [0.0, 1.0]),
        ("T[1, 1, 1] = 1.0, expected 3.0", [1.0, 1.0])]


# tensor entries with signed zeros among them, so a -0 the einsum form turns
# into +0 (or keeps) shows in the bytes
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
# the fixtures whose t and b coefficients B uses, by dimension
_B_FIXTURES = {2: builtin("sw2"), 3: builtin("sphere3-trivial")}


@given(st.sampled_from([2, 3]), st.sampled_from([(), (1,), (5,), (40,)]), st.data())
@settings(max_examples=80, deadline=None)
def test_b_tensor_rounds_as_its_einsum_form(n, lead, data):
    fixture = _B_FIXTURES[n]
    T = data.draw(arrays(float, lead + (n, n, n), elements=_ENTRIES), label="T")
    gmat = data.draw(arrays(float, lead + (n, n), elements=_ENTRIES), label="g")
    ginv = data.draw(arrays(float, lead + (n, n), elements=_ENTRIES), label="ginv")
    got = fixture._with_trace_term(T, gmat, ginv)
    assert got.tobytes() == reference_b_tensor(T, gmat, ginv, n).tobytes()



# T entries with every IEEE special among them; g and g^-1 with signed zeros
_SPECIAL_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                             st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


def _flat_config(n: int) -> dict:
    zero = np.full((n, n, n), "0", dtype=object).tolist()
    return {"name": f"flat{n}", "dimension": n, "kind": "nondegenerate",
            "metric": np.where(np.eye(n, dtype=bool), "1", "0").tolist(),
            "domain": [[-1.0, 1.0]] * n, "structure": {"T": zero}}


@given(st.sampled_from([2, 3, 4]), st.data())
@settings(max_examples=120, deadline=None)
def test_b_tensor_at_a_point_rounds_as_the_stack(n, data):
    # the float arithmetic of the -B template at one point, from drawn flat
    # lists of T, g, g^-1 and Gamma_LC, against the stack's numpy calls:
    # every entry bit for bit, except that a NaN is compared by class only
    # (with two NaN operands, which one's sign CPython's float add keeps
    # changes once the interpreter specializes the add)
    from dualgeo.connections import _template_point
    fixture = from_config(_flat_config(n), validate_on_load=False)
    T = data.draw(arrays(float, (n, n, n), elements=_SPECIAL_ENTRIES), label="T")
    parts = {"value": data.draw(arrays(float, (n, n), elements=_ENTRIES), label="g"),
             "inverse": data.draw(arrays(float, (n, n), elements=_ENTRIES), label="ginv"),
             "christoffel": data.draw(arrays(float, (n, n, n), elements=_ENTRIES),
                                      label="christoffel")}
    sign, trace, _ = fixture.connection("-B").template
    point = _template_point(n, sign, trace, False)(
        lambda name, x: parts[name].ravel().tolist(), lambda x: T.ravel().tolist())
    got = np.array(point([0.0] * n)).reshape(n, n, n)
    with np.errstate(invalid="ignore"):
        want = parts["christoffel"] + fixture._with_trace_term(T, parts["value"],
                                                                parts["inverse"])
    assert got.shape == want.shape == (n, n, n)
    assert (np.where(np.isnan(got), np.nan, got).tobytes()
            == np.where(np.isnan(want), np.nan, want).tobytes())


@pytest.mark.parametrize("name", ["sw2", "sphere3-trivial"])
def test_b_tensor_at_a_point_equals_its_row_of_a_stack(name):
    fixture = builtin(name)
    points = fixture.grid(3)
    stacked = fixture.b_tensor(points)
    for x, row in zip(points, stacked):
        assert fixture.b_tensor(x).tobytes() == row.tobytes()
