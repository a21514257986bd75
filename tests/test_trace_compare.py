"""`trace --compare` integrates the compare curve in a forked worker: its
outputs match an in-process run byte for byte, a failure on either side
reaches the caller, and no worker outlives the command."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualgeo import cli
from dualgeo.expressions import EvalDomainError
from dualgeo.fixtures import builtin, builtin_config, builtin_names, load
from dualgeo.geodesics import curves_coincide, integrate_dual_geodesic
from dualgeo.geometry import SingularMetricError

_CASES = {
    "sw2": ("sw2", "1.3,1.4", "-0.08,-0.05", "400", "1e-3"),
    "sw2-recovered": ("recovered", "1.3,1.4", "-0.08,-0.05", "150", "1e-3"),
    # +T leaves the box after 184 steps and +B after 300: both keep over half
    "halts-early": ("sw2", "1,2", "-0.5,0.1", "320", "1e-2"),
    # +T completes and +B leaves the box after 1257 of 2400 steps
    "compare-halts-early": ("sw2", "1.0,1.0", "0.35355339059327373,0.35355339059327373",
                            "2400", "1e-3"),
    # a metric that is not constant: each lone-row stage computes its record
    "sphere3-trivial": ("sphere3-trivial", "0.1,0.2,-0.1", "0.3,-0.2,0.1", "100", "1e-2"),
}


def _fixture_source(name, tmp_path):
    if name != "recovered":
        return name
    cfg = builtin_config("sw2")
    del cfg["structure"]
    path = tmp_path / "sw2-recovered.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _expected(source, x0, w0, steps, h, out):
    """The comparison's stdout when both curves are integrated in this
    process, with the +T curve's CSV and JSON exported to ``out``, and the
    notes of the curves that halt early, each with its tag."""
    fixture = builtin(source) if source in builtin_names() else load(source)
    x0, w0 = (np.array([float(v) for v in s.split(",")]) for s in (x0, w0))
    a, b = (integrate_dual_geodesic(fixture.connection(tag), fixture.metric, x0, w0,
                                    int(steps), float(h), box=fixture.box,
                                    singular_loci=fixture.singular_loci)
            for tag in ("+T", "+B"))
    a.write_csv(f"{out}.csv")
    a.write_json(f"{out}.json")
    cmp = curves_coincide(a, b, 1e-6, int(steps))
    assert cmp.short is None
    return json.dumps({
        "coincide": cmp.coincide,
        "hausdorff_a_to_b": f"{cmp.dist_a_to_b:.17g}",
        "hausdorff_b_to_a": f"{cmp.dist_b_to_a:.17g}",
        "tolerance": f"{cmp.tol:.17g}",
        "connections": ["+T", "+B"],
    }, indent=2, sort_keys=True) + "\n", [
        f"note: integration of {t.connection_tag} halted early ({t.exit_reason}) after "
        f"{len(t.tau) - 1} steps" for t in (a, b) if t.exit_reason != "completed"]


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "without-fork"])
@pytest.mark.parametrize("case", list(_CASES))
def test_trace_compare_matches_an_in_process_run(case, fork, tmp_path, capsys, monkeypatch):
    if not fork:
        monkeypatch.delattr(os, "fork")
    name, x0, w0, steps, h = _CASES[case]
    source = _fixture_source(name, tmp_path)
    out = tmp_path / "cli"
    code = cli.main(["trace", source, "--conn", "+T", "--compare", "+B", "--format", "both",
                     f"--x0={x0}", f"--w0={w0}", "--steps", steps, "--h", h,
                     "--out", str(out)])
    captured = capsys.readouterr()
    want, notes = _expected(source, x0, w0, steps, h, tmp_path / "reference")
    assert len(notes) == {"halts-early": 2, "compare-halts-early": 1}.get(case, 0)
    assert [line.split(";")[0] for line in captured.err.splitlines()
            if "halted early" in line] == notes
    assert captured.out == want
    assert code == (0 if json.loads(want)["coincide"] else 1)
    for ext in (".csv", ".json"):
        assert out.with_suffix(ext).read_bytes() == (tmp_path / f"reference{ext}").read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_TRACE = ["trace", "sw2", "--conn", "+T", "--compare", "+B", "--x0", "1,2",
          "--w0", "0.3,0.3", "--steps", "200", "--h", "1e-3"]


def _in_worker_only(monkeypatch, action):
    """Patch the CLI's integrator so that only the forked worker runs ``action``."""
    parent = os.getpid()

    def integrate(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return integrate_dual_geodesic(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate_dual_geodesic", integrate)


def _raise(exc):
    def action():
        raise exc
    return action


def test_worker_exception_reaches_the_caller(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _in_worker_only(monkeypatch, _raise(SingularMetricError("metric singular in the worker")))
    with pytest.raises(SingularMetricError, match="metric singular in the worker"):
        cli.main(_TRACE)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_exception_that_does_not_pickle_carries_its_traceback(tmp_path, monkeypatch):
    # EvalDomainError's constructor takes two arguments, so it cannot be rebuilt
    monkeypatch.chdir(tmp_path)
    _in_worker_only(monkeypatch, _raise(EvalDomainError("division by zero", "1/x1")))
    with pytest.raises(RuntimeError) as info:
        cli.main(_TRACE)
    assert "Traceback" in str(info.value)
    assert "EvalDomainError: division by zero in subexpression '1/x1'" in str(info.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parent_failure_leaves_no_worker(tmp_path, monkeypatch):
    # the worker would sleep for 30 s; an unwritable --out ends the command
    # as soon as the parent's own curve is exported
    _in_worker_only(monkeypatch, lambda: time.sleep(30))
    start = time.monotonic()
    assert cli.main(_TRACE + ["--out", str(tmp_path / "missing" / "trace")]) == 2
    assert time.monotonic() - start < 15
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_does_not_flush_the_stdio_it_inherits(tmp_path):
    # text in the parent's stdout buffer at the fork is written once, by the
    # parent (stdout to a pipe is block-buffered unless PYTHONUNBUFFERED).
    # The parent's own curve takes a second longer, so a worker that flushed
    # on its way out would do so before the parent reads its result.
    code = """if True:
        import os, sys, time
        from dualgeo import cli
        parent, integrate = os.getpid(), cli.integrate_dual_geodesic
        def slow_in_parent(*args, **kwargs):
            if os.getpid() == parent:
                time.sleep(1)
            return integrate(*args, **kwargs)
        cli.integrate_dual_geodesic = slow_in_parent
        sys.stdout.write("buffered\\n")
        sys.exit(cli.main(%r))""" % _TRACE
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("buffered\n{") and done.stdout.count("buffered") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "sw2-weak", "--theorem", "2"],
    ["trace", "sw2", "--conn", "+T", "--x0", "1,2", "--w0", "0.3,0.3", "--steps", "50"],
], ids=["verify", "trace"])
def test_only_trace_compare_forks(argv, tmp_path, capsys, monkeypatch):
    def fork():
        raise AssertionError("os.fork called")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "fork", fork)
    assert cli.main(argv) == 0


def _alive(pid):
    """Whether pid runs: it exists and is no zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_worker_dies_with_a_command_killed_by_a_signal(sig, tmp_path):
    # both curves would take seconds; the signal ends the command while its
    # worker integrates
    argv = ["trace", "sw2", "--conn", "+T", "--compare", "+B", "--x0=1.3,1.4",
            "--w0=-0.01,-0.005", "--steps", "100000", "--h", "1e-4"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    command = subprocess.Popen([sys.executable, "-m", "dualgeo.cli", *argv], cwd=tmp_path,
                               env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{command.pid}/task/{command.pid}/children")
    worker = None
    try:
        if not children.exists():
            pytest.skip("the kernel does not list a task's children")
        deadline = time.monotonic() + 60
        while worker is None and time.monotonic() < deadline:
            found = children.read_text().split()
            worker = int(found[0]) if found else None
            time.sleep(0.01)
        assert worker is not None, "no worker started"
        command.send_signal(sig)
        assert command.wait(timeout=10) == -sig
        deadline = time.monotonic() + 2
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(worker)
    finally:
        if command.poll() is None:
            command.kill()
            command.wait()
        if worker is not None and _alive(worker):
            os.kill(worker, signal.SIGKILL)
