import json
import os
import stat

import numpy as np
import pytest

from dualgeo.cli import main
from dualgeo.fixtures import builtin_config


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_straight_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", "ho2", "--conn", "LC", "--x0", "0,0",
                          "--w0", "1,0", "--steps", "100", "--h", "0.01"], capsys)
    assert code == 0
    lines = (tmp_path / "trajectory-ho2-LC.csv").read_text().splitlines()
    assert lines[0] == "tau,x1,x2,p1,p2"
    last = [float(v) for v in lines[-1].split(",")]
    assert np.allclose(last, [1.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_trace_compare_coincide(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", "sw2", "--conn", "+T", "--compare", "+B",
                          "--x0", "1,2", "--w0", "0.3,0.3",
                          "--steps", "600", "--h", "1e-3"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["coincide"] is True
    assert float(result["hausdorff_a_to_b"]) < 1e-6


def test_trace_compare_lc_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", "sw2", "--conn", "+T", "--compare", "LC",
                          "--x0", "1,2", "--w0", "0.3,0.3",
                          "--steps", "600", "--h", "1e-3"], capsys)
    assert code == 1
    assert json.loads(out)["coincide"] is False


def test_trace_domain_exit_reports_last_state(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", "sw2", "--conn", "LC", "--x0", "2.8,2.8",
                          "--w0", "1,0", "--steps", "500", "--h", "0.01"], capsys)
    assert code == 0
    assert "halted early" in err and "domain_exit" in err


@pytest.mark.parametrize("fixture, tag, x0, w0", [
    ("sw2-weak", "dagger", "1.3,1.4", "0.1,-0.05"),
    ("sphere3-trivial", "+F", "0.2,0.3,0.1", "0.1,-0.05,0.02"),
], ids=["dagger", "F"])
def test_trace_a_connection_without_a_jacobian(fixture, tag, x0, w0, tmp_path, capsys,
                                               monkeypatch):
    # dagger and F have no Jacobian; a trajectory needs their coefficients only
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", fixture, "--conn", tag, "--x0", x0, "--w0", w0,
                          "--steps", "200"], capsys)
    assert code == 0 and "halted early" not in err
    [csv] = tmp_path.glob("*.csv")
    assert len(csv.read_text().splitlines()) == 1 + 201


def test_trace_bad_vector_arity(capsys):
    code, out, err = run(["trace", "sw2", "--conn", "LC", "--x0", "1,2,3",
                          "--w0", "1,0", "--steps", "10", "--h", "0.01"], capsys)
    assert code == 2
    assert "components" in err


def test_trace_unknown_connection_tag(capsys):
    code, out, err = run(["trace", "sw2", "--conn", "bogus", "--x0", "1,2",
                          "--w0", "1,0", "--steps", "10", "--h", "0.01"], capsys)
    assert code == 2
    assert "unknown connection tag" in err


def test_unknown_fixture_exits_2(capsys):
    code, out, err = run(["verify", "nosuch"], capsys)
    assert code == 2
    assert "neither a built-in fixture" in err


def test_classify_weak(capsys):
    code, out, err = run(["classify", "sw2-weak"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "WEAK"
    assert float(data["max_obstruction_norm"]) < 1e-8
    assert "extracted_structure_tensor" in data


def test_classify_strong(capsys):
    code, out, err = run(["classify", "sw2-strong-synthetic"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "STRONG"
    assert float(data["max_obstruction_norm"]) > 0.1
    assert "extracted_structure_tensor" not in data


def test_classify_nondegenerate_rejected(capsys):
    code, out, err = run(["classify", "sw2"], capsys)
    assert code == 3
    assert "nondegenerate" in err


def test_verify_weak_fixture_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(["verify", "sw2-weak", "--theorem", "2", "--grid", "3",
                          "--out", str(out_path)], capsys)
    assert code == 0
    bundle = json.loads(out_path.read_text())
    assert bundle["verdict"] == "pass"
    assert bundle["reports"][0]["suite"] == "theorem2"
    assert "PASS" in err


def test_verify_strong_expected_failures_pass(tmp_path, capsys):
    # the suite EXPECTS strong behavior: detecting the semi-compatibility
    # violation is a pass, so the exit code is 0
    code, out, err = run(["verify", "sw2-strong-synthetic", "--theorem", "2",
                          "--grid", "3"], capsys)
    assert code == 0


def test_verify_inapplicable_suite(capsys):
    code, out, err = run(["verify", "sw2", "--theorem", "2"], capsys)
    assert code == 3


@pytest.mark.parametrize("fixture, theorem", [("sw2-weak", "2"),
                                              ("sphere3-trivial", "digamma")])
def test_verify_reports_identical_bytes(fixture, theorem, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["verify", fixture, "--theorem", theorem, "--grid", "3",
                          "--seed", "7", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_validation_failure_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    from dualgeo.fixtures import builtin_config
    cfg = builtin_config("sw2")
    cfg["potentials"][1] = "1/x1"
    del cfg["structure"]
    cfg["expected"] = {}
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(["verify", str(cfg_path)], capsys)
    assert code == 3
    assert "recovery" in err


def test_verify_config_file_equivalent_to_builtin(tmp_path, capsys):
    from dualgeo.fixtures import builtin_config
    cfg_path = tmp_path / "sw2w.json"
    cfg_path.write_text(json.dumps(builtin_config("sw2-weak")))
    out_path = tmp_path / "from-file.json"
    code, _, _ = run(["verify", str(cfg_path), "--theorem", "2", "--grid", "3",
                      "--out", str(out_path)], capsys)
    assert code == 0
    ref_path = tmp_path / "from-builtin.json"
    code, _, _ = run(["verify", "sw2-weak", "--theorem", "2", "--grid", "3",
                      "--out", str(ref_path)], capsys)
    assert code == 0
    a = json.loads(out_path.read_text())
    b = json.loads(ref_path.read_text())
    assert a["reports"][0]["claims"] == b["reports"][0]["claims"]


_TRACE = ["trace", "sw2", "--conn", "+T", "--x0", "1,2", "--w0", "0.1,0"]


@pytest.mark.parametrize("argv", [
    ["classify", "sw2-strong-synthetic", "--grid", "0"],
    ["verify", "sw2", "--grid", "0"],
    _TRACE + ["--steps", "-5"],
    _TRACE + ["--steps", "0"],
    _TRACE + ["--h", "0"],
    _TRACE + ["--h=-1e-3"],
    _TRACE + ["--h", "inf"],
    _TRACE + ["--compare", "+B", "--h", "nan"],
    _TRACE + ["--steps", str(10**6 + 1)],
    _TRACE + ["--steps", str(10**15)],
    ["verify", "sw2", "--grid", "1001"],
    ["verify", "sphere3-trivial", "--grid", "101"],
    ["classify", "sw2-strong-synthetic", "--grid", str(10**9)],
    ["classify", "sw2-weak", "--tol", "nan"],
    ["classify", "sw2-strong-synthetic", "--tol", "inf"],
    ["classify", "sw2-weak", "--tol", "0"],
    ["verify", "sw2", "--tol-algebraic", "inf"],
    ["verify", "sw2", "--tol-algebraic=-1e-9"],
    ["verify", "sw2", "--tol-curvature", "nan"],
    _TRACE + ["--compare", "+B", "--tol", "inf"],
    ["verify", "sw2", "--seed", "-1", "--theorem", "1"],
], ids=["classify-grid-0", "verify-grid-0", "steps-negative", "steps-0", "h-0",
        "h-negative", "h-inf", "compare-h-nan", "steps-above-limit", "steps-huge",
        "verify-grid-2d-above-limit", "verify-grid-3d-above-limit", "classify-grid-huge",
        "classify-tol-nan", "classify-tol-inf", "classify-tol-0", "verify-tol-algebraic-inf",
        "verify-tol-algebraic-negative", "verify-tol-curvature-nan", "compare-tol-inf",
        "verify-seed-negative"])
def test_numeric_input_without_evidence_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and out == ""
    assert not list(tmp_path.iterdir())    # rejected before anything ran


@pytest.mark.parametrize("argv", [
    ["verify", "sw2", "--theorem", "1", "--grid", "3"],
    ["classify", "sw2-weak", "--grid", "3"],
    _TRACE + ["--steps", "20"],
    _TRACE + ["--steps", "20", "--compare", "+B"],
], ids=["verify", "classify", "trace", "trace-compare"])
def test_an_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    # the command runs, then cannot write its output: exit 2, not the
    # claim-failure code, and one error line instead of a traceback
    out_path = tmp_path / "missing" / "out"
    code, out, err = run(argv + ["--out", str(out_path)], capsys)
    assert code == 2
    assert err.splitlines()[-1].startswith("error: ") and str(out_path.parent) in err
    assert not list(tmp_path.iterdir())


def test_an_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # the output file is created before any suite or classification runs
    import dualgeo.cli as cli

    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("ran before --out was checked")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, work)
    monkeypatch.setattr(cli, "classify", work)
    out_path = str(tmp_path / "missing" / "out")
    for argv in (["verify", "sw2", "--out", out_path],
                 ["classify", "sw2-weak", "--out", out_path]):
        code, out, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: "), argv
    assert calls == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "sw2", "--theorem", "weyl", "--grid", "3"],
    ["classify", "sw2-weak", "--grid", "3"],
], ids=["verify", "classify"])
def test_out_gets_the_mode_open_gives(argv, tmp_path, capsys):
    # the report gets the mode open() gives, as a trace export does; under
    # umask 022 that is 0644, where mkstemp's file is 0600
    umask = os.umask(0o022)
    try:
        out_path = tmp_path / "out.json"
        assert run(argv + ["--out", str(out_path)], capsys)[0] == 0
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out_path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_a_command_that_writes_nothing_leaves_no_file(tmp_path, capsys, monkeypatch):
    import dualgeo.cli as cli

    def not_applicable(*args, **kwargs):
        raise cli.SuiteNotApplicable("not applicable here")

    monkeypatch.setitem(cli.SUITES, "1", not_applicable)
    code, out, err = run(["verify", "sw2", "--theorem", "1",
                          "--out", str(tmp_path / "report.json")], capsys)
    assert code == 3 and "not applicable here" in err
    assert not list(tmp_path.iterdir())     # no report and no temporary file


def _config_with_potential(tmp_path, source):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "dimension": 2, "metric": [["1", "0"], ["0", "1"]], "kind": "semidegenerate",
        "domain": [[0.5, 3.0], [0.5, 3.0]], "potentials": [source, "1/x2^2", "1"]}))
    return str(path)


@pytest.mark.parametrize("source", [
    "(" * 200 + "x1" + ")" * 200,
    "-" * 3000 + "x1",
    " + ".join(["x1"] * 20000),
], ids=["parentheses", "unary-minus", "sum"])
def test_a_potential_nested_too_deep_exits_3(source, tmp_path, capsys):
    # the error line quotes the characters around the offset, not all of a
    # long source
    code, out, err = run(["verify", _config_with_potential(tmp_path, source)], capsys)
    assert code == 3
    assert "potentials[0]" in err and "100 levels deep" in err and "(at offset " in err
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000


@pytest.mark.parametrize("potential, message", [
    ("x1 + " + "a" * 100_000, "unknown identifier"),
    ("x1 + " + "a" * 100_000 + "(x1)", "unknown function"),
    ("x1 " + "1" * 100_000, "unexpected trailing input"),
], ids=["identifier", "function", "trailing-input"])
def test_a_long_offending_token_is_quoted_in_part(potential, message, tmp_path, capsys):
    # the parse error quotes the start of the token, not all of it
    from dualgeo.fixtures import builtin_config
    cfg = builtin_config("sw2")
    del cfg["structure"]
    cfg["potentials"][1] = potential
    path = tmp_path / "long-token.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 3
    assert "potentials[1]" in err and message in err
    assert "(the first 100 of 100000 characters)" in err and "(at offset " in err
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000


@pytest.mark.parametrize("case", ["directory", "nested-json"])
def test_a_config_that_cannot_be_read_exits_3(case, tmp_path, capsys):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_text("[" * 200000)
    # an unreadable file would be a third case, but root reads every file
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 3
    assert err.startswith(f"error: config {path} cannot be read: ")


def test_input_limits_hold_at_their_boundaries():
    from argparse import Namespace

    from dualgeo.cli import MAX_GRID_POINTS, MAX_STEPS, _input_problem
    assert (MAX_GRID_POINTS, MAX_STEPS) == (10**6, 10**6)

    def problem(n=1, **kw):
        return _input_problem(Namespace(**{"grid": 5, "steps": 10, "h": 1e-3, **kw}), n)

    assert problem(2, grid=1000) is None and problem(2, grid=1001) is not None
    assert problem(3, grid=100) is None and problem(3, grid=101) is not None
    assert problem(1, grid=10**6) is None and problem(1, grid=10**6 + 1) is not None
    assert problem(3, grid=10**100) is not None         # no 10^300-point power formed
    assert problem(steps=MAX_STEPS) is None and problem(steps=MAX_STEPS + 1) is not None


def test_limits_are_stated_in_help(capsys):
    for command, limit in (("verify", "1,000,000 points"), ("classify", "1,000,000 points"),
                           ("trace", "1 to 1,000,000")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert limit in " ".join(capsys.readouterr().out.split())


def test_rejected_inputs_allocate_nothing_large(tmp_path, capsys, monkeypatch):
    import tracemalloc
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        for argv in (_TRACE + ["--steps", str(10**12)],
                     ["verify", "sw2", "--grid", str(10**6)],
                     ["verify", "sphere3-trivial", "--grid", "101"]):
            assert run(argv, capsys)[0] == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20     # measured 1.3 MB; a 101^3-point 3-D grid alone is 24 MB


def test_trace_compare_of_curves_that_stopped_early_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", "sw2", "--conn", "+T", "--compare", "+B",
                          "--x0", "0.502,1.5", "--w0=-0.3,0", "--steps", "1000"], capsys)
    assert code == 1
    assert json.loads(out)["coincide"] is False
    assert "kept 7 and 7 of 1001 samples" in err
    assert "exit reasons domain_exit, domain_exit" in err


def test_declared_d_with_torsion_is_rejected_on_load(tmp_path, capsys, monkeypatch):
    from dualgeo.fixtures import builtin_config
    monkeypatch.chdir(tmp_path)
    cfg = builtin_config("sw2-strong-synthetic")
    cfg["structure"]["D"][0][0][1] = "0.5"
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(cfg))
    for argv in (["verify", str(path), "--grid", "3"],
                 ["trace", str(path), "--conn", "+D", "--x0", "1,2", "--w0", "0.1,0",
                  "--steps", "10"]):
        code, out, err = run(argv, capsys)
        assert code == 3, argv
        assert "structure-symmetry" in err


@pytest.mark.parametrize("command", [
    ["verify", "--grid", "3"],
    ["trace", "--conn", "+T", "--x0", "1,2", "--w0", "0.1,0", "--steps", "10"],
    ["classify"],
])
def test_every_command_lists_every_validation_failure(command, tmp_path, capsys,
                                                      monkeypatch):
    # an asymmetric T fails structure-symmetry after more than four
    # structure-closed-form failures, and moves the expected t[2] to -0.125
    from dualgeo.fixtures import builtin_config
    monkeypatch.chdir(tmp_path)
    cfg = builtin_config("sw2")
    cfg["structure"]["T"][0][0][1] = "0.5"
    path = tmp_path / "asymmetric-t.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run([command[0], str(path), *command[1:]], capsys)
    assert code == 3
    assert out == ""
    failures = [json.loads(line[len("  - "):]) for line in err.splitlines()
                if line.startswith("  - ")]
    checks = [f["check"] for f in failures]
    assert checks.count("structure-closed-form") > 4
    assert "structure-symmetry" in checks
    spot = [f["message"] for f in failures if f["check"] == "expected-spot"]
    assert spot == ["t[2] = -0.125, expected -0.375"]


@pytest.mark.parametrize("start", [
    ["--x0", "1,2", "--w0", "0,0"],
    ["--x0", "5,5", "--w0", "0.1,0"],
    ["--x0=nan,1", "--w0", "0.1,0"],
    ["--x0", "1,1", "--w0=inf,0"],
    ["--x0", "1,1", "--w0=0.1,nan"],
], ids=["w0-zero", "x0-outside-box", "x0-nan", "w0-inf", "w0-nan"])
def test_trace_start_without_evidence_exits_2(start, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["trace", "sw2", "--conn", "+T", "--compare", "+B", *start,
                          "--steps", "10", "--format", "both"], capsys)
    assert code == 2
    assert err.startswith("error: --") and err.count("\n") == 1
    assert out == ""
    assert not list(tmp_path.iterdir())    # rejected before anything was written


def test_trace_start_must_clear_the_singular_loci():
    from dualgeo.cli import _start_problem
    from dualgeo.fixtures import builtin_config, from_config
    from dualgeo.geodesics import SINGULAR_HALT_MARGIN
    cfg = builtin_config("sw2")
    cfg["domain"] = [[0.0005, 3.0], [0.5, 3.0]]     # x1 = 0 lies just outside
    fixture = from_config(cfg, validate_on_load=False)
    w0 = np.array([0.1, 0.0])
    assert _start_problem(fixture, np.array([SINGULAR_HALT_MARGIN, 1.0]), w0) is None
    assert "singular locus x1 = 0.0" in _start_problem(fixture, np.array([0.0008, 1.0]), w0)
    # the box edges are inside the box
    assert _start_problem(fixture, np.array([3.0, 0.5]), w0) is None


@pytest.mark.parametrize("enlarging", ["nope", "sphere3-trivial", "sw2-weak"])
def test_an_enlarging_fixture_of_no_use_exits_3(enlarging, tmp_path, capsys):
    # an unknown built-in, or one of another dimension, fails to load: before
    # the check, theorem 2 built it and died with a traceback and exit 1; a
    # semi-degenerate one made the cross-check compare the extraction with itself
    from dualgeo.fixtures import builtin_config
    cfg = builtin_config("sw2-weak")
    cfg["expected"]["enlarging"] = enlarging
    path = tmp_path / "enlarging.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["verify", str(path), "--theorem", "2", "--grid", "3"], capsys)
    assert code == 3 and out == ""
    assert err == (f"error: invalid fixture config: expected.enlarging {enlarging!r} is "
                   "not a nondegenerate built-in fixture of dimension 2 (ho2, sw2)\n")


def _without_family(name, keep):
    """Built-in ``name`` with no potentials, declaring only the ``keep``
    structure fields (sw2's T as D when it has no D) and no expected block."""
    from dualgeo.fixtures import builtin_config
    cfg = builtin_config(name)
    cfg.pop("potentials", None)
    fields = {"D": cfg["structure"].get("D", cfg["structure"].get("T")),
              "s": cfg["structure"].get("s")}
    cfg["structure"] = {key: fields[key] for key in keep}
    cfg["expected"] = {}
    return cfg


@pytest.mark.parametrize("cfg", [_without_family("sw2", ["D"]),
                                 _without_family("sw2-strong-synthetic", ["D"])],
                         ids=["nondegenerate-d-only", "semidegenerate-without-s"])
@pytest.mark.parametrize("command", [
    ["verify", "--grid", "3"],
    ["classify"],
    ["trace", "--conn", "+T", "--x0", "1,2", "--w0", "0.1,0", "--steps", "10"],
], ids=["verify", "classify", "trace"])
def test_a_config_without_potentials_needs_semidegenerate_d_and_s(cfg, command, tmp_path,
                                                                 capsys, monkeypatch):
    # both loaded before: verify and trace then died with a traceback and
    # exit 1 (an AttributeError on the missing solver, or "no semi-degeneracy
    # data"), and so did classify on the semi-degenerate one
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "no-family.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run([command[0], str(path), *command[1:]], capsys)
    assert code == 3 and out == ""
    assert ("family-missing: fixture declares no potentials; without them it must be "
            "semi-degenerate and declare structure.D and structure.s") in err
    assert not list(tmp_path.glob("trajectory*"))


def _with(name, change):
    """Built-in ``name``'s config after ``change(cfg)``."""
    cfg = builtin_config(name)
    change(cfg)
    return cfg


def _spot(tensor, index):
    # a tolerance that accepts whatever value a least-squares solve reads there
    return {"point": [1.0, 2.0], "tensor": tensor, "index": index, "value": 0.0, "tol": 100.0}


_ONLY_SEMIDEGENERATE = "fixture 'sw2' is nondegenerate; only the {} of a semidegenerate fixture"


@pytest.mark.parametrize("cfg, message", [
    (_with("sw2", lambda c: c["structure"].update(s=["1", "sin(x1)"])),
     "s-closed-form: structure.s is declared, but a nondegenerate fixture has no "
     "semi-degeneracy vector to check it against"),
    (_with("sw2-weak", lambda c: c["structure"].update(T=builtin_config("sw2")["structure"]["T"])),
     "structure-closed-form: structure.T is declared, but a semidegenerate fixture has no "
     "recovered structure tensor to check it against"),
    (_with("sw2", lambda c: c["structure"].update(D=builtin_config("sw2-weak")["structure"]["D"])),
     "prolongation-closed-form: structure.D is declared, but a nondegenerate fixture has no "
     "prolongation tensor to check it against"),
    (_with("sw2", lambda c: c["expected"]["spots"].append(_spot("s", [1]))),
     "expected-spot: " + _ONLY_SEMIDEGENERATE.format("s")),
    (_with("sw2", lambda c: c["expected"]["spots"].append(_spot("D", [1, 1, 1]))),
     "expected-spot: " + _ONLY_SEMIDEGENERATE.format("D")),
    (_with("sw2", lambda c: c["expected"].update(classification="STRONG")),
     "classification: " + _ONLY_SEMIDEGENERATE.format("D")),
    (_with("sw2", lambda c: c["expected"].update(enlarging="sw2")),
     "invalid fixture config: expected.enlarging 'sw2' is declared, but only theorem 2 "
     "reads it, and the fixture is nondegenerate, not semidegenerate"),
], ids=["nondegenerate-structure.s", "semidegenerate-structure.T", "nondegenerate-structure.D",
        "nondegenerate-spot-s", "nondegenerate-spot-D", "nondegenerate-classification",
        "nondegenerate-enlarging"])
def test_a_config_with_data_its_kind_never_reads_is_refused(cfg, message, tmp_path, capsys):
    # each loaded and verified before: the data was never read (a declared T
    # of a semi-degenerate fixture, enlarging without theorem 2), or was
    # checked against least-squares solves of fields the kind does not have
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    report = tmp_path / "report.json"
    code, out, err = run(["verify", str(path), "--grid", "3", "--out", str(report)], capsys)
    assert code == 3 and out == "" and not report.exists()
    assert message in err
