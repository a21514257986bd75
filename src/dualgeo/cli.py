"""Command-line front end.

Subcommands: ``verify`` (run verification suites, emit a JSON report),
``trace`` (integrate dual-geodesics, export CSV/JSON, optionally compare two
connections), ``classify`` (weak/strong verdict of a semi-degenerate fixture).

Exit codes: 0 all claims pass, 1 claim failure, 2 usage error, 3 fixture or
input validation failure.  Reports embed every numeric input, so a report file
plus the package version pins the run; identical invocations write identical
bytes.  Output files are written atomically (temp file then rename).

``trace --compare`` integrates the compare curve in a forked worker process
while this one integrates and exports the first curve; the worker runs the
same code on the same inputs, so every output is bit-identical to integrating
both curves in one process.  The worker's memory is not part of this
process's ``ru_maxrss`` (``RUSAGE_SELF``); it shows in ``RUSAGE_CHILDREN``.
Without ``os.fork`` both curves run in this process, one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import sys
import tempfile

import numpy as np

from .expressions import ExpressionError
from .fixtures import (
    CONNECTION_TAGS, FixtureError, FixtureValidationError, UnknownFixtureError,
    builtin, builtin_names, load,
)
from .geodesics import (
    SINGULAR_HALT_MARGIN, CurveComparison, curves_coincide, integrate_dual_geodesic,
    short_comparison,
)
from .structure import classify
from .theorems import SUITES, SuiteNotApplicable, applicable_suites

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3

DEFAULT_GRID_ENV = "DUALGEO_GRID"
# Inputs beyond these are rejected before anything is allocated, so every
# accepted input fits in 8 GB.  A grid of 10^6 points is 8n MB per (N, n)
# array (a suite holds a few and evaluates them 64 rows at a time).  A trace
# costs about 0.45 kB per step on a 2-D chart (85 MB peak RSS at 10^5 steps
# with both exports), so 10^6 steps stay near 0.5 GB.
MAX_GRID_POINTS = 10**6
MAX_STEPS = 10**6


def _default_grid() -> int | None:
    """$DUALGEO_GRID as an int (5 when unset), or None when it is not one."""
    try:
        return int(os.environ.get(DEFAULT_GRID_ENV, "5"))
    except ValueError:
        return None


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dualgeo-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def _forked(fn, *args):
    """Start ``fn(*args)`` in a forked worker; yield a function that waits for
    its result and returns it, or re-raises the worker's exception (as a
    RuntimeError carrying its traceback when it does not pickle).  Leaving the
    block kills and reaps the worker.  Without ``os.fork``, the yielded
    function calls ``fn(*args)`` in this process.

    The package starts no thread, and numpy's OpenBLAS stops its thread pool
    across a fork (``pthread_atfork``), so the worker inherits no lock that
    another thread holds."""
    if not hasattr(os, "fork"):
        yield lambda: fn(*args)
        return
    # imported here, so that no other command pays their 1.5–2.5 ms of import time
    import signal
    import traceback
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:   # the worker leaves only through os._exit: no return, no stdio flush
        try:
            os.close(read_fd)   # so a write fails, not blocks, once the parent is gone
            try:
                payload = pickle.dumps((True, fn(*args)))
            except BaseException as exc:
                try:
                    payload = pickle.dumps((False, exc))
                    pickle.loads(payload)
                except Exception:
                    text = "".join(traceback.format_exception(exc))
                    payload = pickle.dumps((False, RuntimeError(f"worker failed:\n{text}")))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as reader:
            def result():
                data = reader.read()
                if not data:
                    raise RuntimeError("worker exited without a result")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                return value
            yield result
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _load_fixture(source: str):
    """The validated fixture named by ``source``, or the exit code after every
    reason it cannot load went to stderr (each validation failure as JSON):
    2 for a source that names nothing, 3 for a fixture that fails to load or
    to validate."""
    try:
        if source in builtin_names():
            return builtin(source, validate_on_load=True)
        if os.path.exists(source):
            return load(source)
        raise UnknownFixtureError(
            f"{source!r} is neither a built-in fixture ({', '.join(builtin_names())}) "
            "nor an existing config file")
    except FixtureValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  - {json.dumps(failure, sort_keys=True)}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnknownFixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FixtureError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _parse_vector(text: str, n: int, label: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(
            f"{label} needs {n} comma-separated components, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {label}: {exc}") from exc


def cmd_verify(args, fixture) -> int:
    wanted = applicable_suites(fixture) if args.theorem == "all" else [args.theorem]
    reports = []
    for name in wanted:
        suite = SUITES[name]
        kwargs = {"per_axis": args.grid, "seed": args.seed}
        if name in ("1", "2"):
            kwargs["tol_algebraic"] = args.tol_algebraic
            kwargs["tol_curvature"] = args.tol_curvature
        try:
            reports.append(suite(fixture, **kwargs))
        except SuiteNotApplicable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION

    bundle = {
        "fixture": fixture.name,
        "requested": args.theorem,
        "inputs": {
            "grid": args.grid,
            "seed": args.seed,
            "tol_algebraic": f"{args.tol_algebraic:.17g}",
            "tol_curvature": f"{args.tol_curvature:.17g}",
        },
        "reports": [r.to_dict() for r in reports],
        "verdict": "pass" if all(r.all_ok for r in reports) else "fail",
    }
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)

    for report in reports:
        for claim in sorted(report.claims, key=lambda c: c.claim_id):
            marker = "PASS" if claim.ok else "FAIL"
            print(f"[{marker}] {report.suite}:{claim.claim_id} "
                  f"residual={claim.residual:.3e} ({claim.direction} "
                  f"{claim.tolerance:.1e})", file=sys.stderr)
    return EXIT_OK if bundle["verdict"] == "pass" else EXIT_CLAIM_FAILURE


def _start_problem(fixture, x0: np.ndarray, w0: np.ndarray) -> str | None:
    """Why a trace from (x0, w0) cannot give evidence, or None when it can:
    the start must be finite, inside the box and clear of the singular loci
    by the integrator's halt margin, and the velocity finite and nonzero."""
    if not np.isfinite(x0).all():
        return f"--x0 must be finite, got {x0.tolist()}"
    if not (np.isfinite(w0).all() and np.any(w0)):
        return f"--w0 must be finite and nonzero, got {w0.tolist()}"
    for axis, (lo, hi) in enumerate(fixture.box):
        if not lo <= x0[axis] <= hi:
            return (f"--x0 lies outside the domain: x{axis + 1} = {float(x0[axis])!r} is not "
                    f"in [{lo!r}, {hi!r}]")
    for axis, value in fixture.singular_loci:
        if not abs(x0[axis] - value) >= SINGULAR_HALT_MARGIN:
            return (f"--x0 lies within {SINGULAR_HALT_MARGIN} of the singular locus "
                    f"x{axis + 1} = {value!r}")
    return None


def cmd_trace(args, fixture) -> int:
    try:
        x0 = _parse_vector(args.x0, fixture.n, "--x0")
        w0 = _parse_vector(args.w0, fixture.n, "--w0")
        conn = fixture.connection(args.conn)
        compare = fixture.connection(args.compare) if args.compare else None
    except (argparse.ArgumentTypeError, FixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    problem = _start_problem(fixture, x0, w0)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE

    def integrate(connection):
        return integrate_dual_geodesic(connection, fixture.metric, x0, w0, args.steps, args.h,
                                       box=fixture.box, singular_loci=fixture.singular_loci)

    def trace_and_export():
        traj = integrate(conn)
        if traj.exit_reason != "completed":
            print(f"note: integration halted early ({traj.exit_reason}) after "
                  f"{len(traj.tau) - 1} steps; last state tau={traj.tau[-1]:.17g} "
                  f"x={[f'{v:.17g}' for v in traj.x[-1]]}", file=sys.stderr)

        base = args.out or f"trajectory-{fixture.name}-{args.conn.replace('+', 'p').replace('-', 'm')}"
        if args.format in ("csv", "both"):
            traj.write_csv(base + ".csv")
            print(f"wrote {base}.csv", file=sys.stderr)
        if args.format in ("json", "both"):
            traj.write_json(base + ".json")
            print(f"wrote {base}.json", file=sys.stderr)
        return traj

    if compare is None:
        trace_and_export()
        return EXIT_OK
    # the compare curve runs in a forked worker while this process integrates
    # and exports the first one
    with _forked(integrate, compare) as compare_result:
        traj = trace_and_export()
        other = compare_result()

    why = short_comparison(traj, other, args.steps)
    if why is None:
        cmp = curves_coincide(traj, other, args.tol)
    else:
        print(f"note: no evidence of coincidence: the curves {why}", file=sys.stderr)
        cmp = CurveComparison(False, np.inf, np.inf, args.tol)
    result = {
        "coincide": cmp.coincide,
        "hausdorff_a_to_b": f"{cmp.dist_a_to_b:.17g}",
        "hausdorff_b_to_a": f"{cmp.dist_b_to_a:.17g}",
        "tolerance": f"{cmp.tol:.17g}",
        "connections": [args.conn, args.compare],
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK if cmp.coincide else EXIT_CLAIM_FAILURE


def cmd_classify(args, fixture) -> int:
    if not fixture.is_semidegenerate:
        print(f"error: fixture {fixture.name!r} is {fixture.kind}; classification "
              "applies to semi-degenerate fixtures only", file=sys.stderr)
        return EXIT_VALIDATION

    grid = fixture.grid(args.grid)
    cls = classify(fixture.metric, fixture.prolongation_tensor, fixture.s_covector,
                   grid, tol=args.tol)
    out = {
        "fixture": fixture.name,
        "classification": cls.verdict,
        "max_obstruction_norm": f"{cls.max_n_norm:.17g}",
        "tolerance": f"{cls.tol:.17g}",
        "grid": args.grid,
    }
    if cls.verdict == "WEAK":
        x = np.array([0.5 * (lo + hi) for lo, hi in fixture.box])
        T = fixture.structure_tensor(x)
        out["extracted_structure_tensor"] = {
            "point": [f"{v:.17g}" for v in x],
            "components": [[[f"{T[k, i, j]:.17g}" for j in range(fixture.n)]
                            for i in range(fixture.n)] for k in range(fixture.n)],
        }
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgeo",
        description="Verify dual-projective equivalences of the connections "
                    "induced by second-order superintegrable systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites on a fixture")
    p_verify.add_argument("fixture", help="built-in name or config path")
    p_verify.add_argument("--theorem", choices=["1", "2", "weyl", "digamma", "all"],
                          default="all", help="suite selection (default: all applicable)")
    grid_help = (f"grid points per axis (default 5 or ${DEFAULT_GRID_ENV}); at most "
                 f"{MAX_GRID_POINTS:,} points in all")
    p_verify.add_argument("--grid", type=int, default=_default_grid(), help=grid_help)
    p_verify.add_argument("--seed", type=int, default=20250808)
    p_verify.add_argument("--tol-algebraic", type=float, default=1e-9)
    p_verify.add_argument("--tol-curvature", type=float, default=1e-6)
    p_verify.add_argument("--out", help="report path (default: stdout)")
    p_verify.set_defaults(func=cmd_verify)

    p_trace = sub.add_parser("trace", help="integrate a dual-geodesic")
    p_trace.add_argument("fixture")
    p_trace.add_argument("--conn", required=True,
                         help=f"connection tag, one of {', '.join(CONNECTION_TAGS)}")
    p_trace.add_argument("--x0", required=True,
                         help="start position, comma-separated, no spaces (e.g. 1,2)")
    p_trace.add_argument("--w0", required=True,
                         help="start velocity, comma-separated, no spaces")
    p_trace.add_argument("--steps", type=int, default=1000,
                         help=f"RK4 steps, 1 to {MAX_STEPS:,} (default 1000)")
    p_trace.add_argument("--h", type=float, default=1e-3, help="fixed step size")
    p_trace.add_argument("--compare", help="second connection tag for coincidence check")
    p_trace.add_argument("--tol", type=float, default=1e-6,
                         help="coincidence tolerance for --compare")
    p_trace.add_argument("--format", choices=["csv", "json", "both"], default="csv")
    p_trace.add_argument("--out", help="output basename (extension added)")
    p_trace.set_defaults(func=cmd_trace)

    p_classify = sub.add_parser("classify", help="weak/strong classification")
    p_classify.add_argument("fixture")
    p_classify.add_argument("--grid", type=int, default=_default_grid(), help=grid_help)
    p_classify.add_argument("--tol", type=float, default=1e-8)
    p_classify.add_argument("--out", help="result path (default: stdout)")
    p_classify.set_defaults(func=cmd_classify)
    return parser


def _input_problem(args, n: int = 1) -> str | None:
    """Why a numeric input cannot give evidence, or would not fit in memory on
    a chart of dimension n, or None when all can."""
    grid = getattr(args, "grid", 1)
    if grid is None:
        return (f"${DEFAULT_GRID_ENV} must be an integer, "
                f"got {os.environ.get(DEFAULT_GRID_ENV)!r}")
    if grid < 1:
        return f"--grid (or ${DEFAULT_GRID_ENV}) must be at least 1, got {grid}"
    if grid > MAX_GRID_POINTS or grid**n > MAX_GRID_POINTS:
        return (f"--grid (or ${DEFAULT_GRID_ENV}) {grid} gives {grid}^{n} points; "
                f"at most {MAX_GRID_POINTS:,} are allowed")
    steps = getattr(args, "steps", 1)
    if not 1 <= steps <= MAX_STEPS:
        return f"--steps must be between 1 and {MAX_STEPS:,}, got {steps}"
    h = getattr(args, "h", 1.0)
    if not (np.isfinite(h) and h > 0.0):
        return f"--h must be a positive finite step, got {h}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # inputs first, then the fixture, then the grid against its dimension
    problem = _input_problem(args)
    if problem is None:
        fixture = _load_fixture(args.fixture)
        if isinstance(fixture, int):
            return fixture
        problem = _input_problem(args, fixture.n)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args, fixture)


if __name__ == "__main__":
    sys.exit(main())
