"""dualgeo benchmark: run one workload for a fixed time and report its metrics.

Usage (from the root of a dualgeo source tree):

    python3 perfbench/run.py --workload verify-sw2 --seed 1 --seconds 20 --trace 0

Each command runs in its own worker process, one at a time (a closed loop with
one client).  The loop starts commands until `--seconds` have passed, and at
least two, so that repeated outputs at one seed can be compared byte for byte.

--trace 0 reports the end-to-end metrics: `setup_s` (import + fixture build +
validation, median over the commands and four extra set-up-only processes),
`wall_s` (the CLI command after import, median over commands) and
`peak_rss_mb` (ru_maxrss of a command's process, median).

--trace 1 alternates untraced and traced commands and reports the per-layer
metrics of the traced ones (see tracer.py), plus the traced wall time, the
tracing overhead (traced minus untraced median wall time) and the share of the
traced wall time that spans below the `cli` root cover.

Every command passes the workload's correctness gate; a miss counts in
`failed`, over `attempted` processes.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from workloads import RECOVERED_CONFIG, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
COMMAND_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def find_source_tree() -> Path:
    root = BENCH.parent
    src = root / "src"
    if not (src / "dualgeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no dualgeo source tree at {src}; run the benchmark "
                         "from the root of a dualgeo checkout")
    return src


def write_recovered_config(src: Path, path: Path) -> None:
    """Write sw2's built-in config with the closed-form `structure` block
    removed, so every structure tensor is recovered pointwise.  It runs in its
    own process so that this one never imports dualgeo or numpy."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from dualgeo.fixtures import builtin_config; "
            "cfg = builtin_config('sw2'); del cfg['structure']; "
            "open(sys.argv[2], 'w').write(json.dumps(cfg, indent=2, sort_keys=True))")
    subprocess.run([sys.executable, "-c", code, str(src), str(path)], check=True,
                   timeout=COMMAND_TIMEOUT_S)


class Runner:
    def __init__(self, workload, seed: int, src: Path, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.source = workload.fixture_source(workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None

    def _spawn(self, argv, trace: bool) -> tuple[dict | None, subprocess.CompletedProcess | None]:
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {"src": str(self.src), "bench": str(BENCH), "fixture": self.source,
                "argv": argv, "trace": trace, "result": str(result_path),
                "spans": str(self.workdir / "spans.npz")}
        self.attempted += 1
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                  capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
                                  cwd=self.workdir)
        except subprocess.TimeoutExpired:
            self.failures.append(f"process timed out after {COMMAND_TIMEOUT_S} s")
            return None, None
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"worker exited {proc.returncode}: {tail[0]}")
            return None, proc
        result = json.loads(result_path.read_text())
        if "error" in result:
            self.failures.append(result["error"])
            return None, proc
        return result, proc

    def setup_probe(self) -> dict | None:
        result, _ = self._spawn(None, trace=False)
        return result

    def command(self, trace: bool) -> dict | None:
        for stale in ("report.json", "trajectory.csv", "trajectory.json"):
            (self.workdir / stale).unlink(missing_ok=True)
        argv = self.workload.argv(self.seed, self.workdir)
        result, proc = self._spawn(argv, trace)
        if result is None:
            return None
        outcome = self.workload.check(self.seed, self.workdir, result["exit_code"],
                                      proc.stdout, proc.stderr)
        if self.first_digest is None:
            self.first_digest = outcome.digest
        elif outcome.digest != self.first_digest:
            outcome.problems.append("output differs from the run's first command")
        if outcome.problems:
            self.failures.append("; ".join(outcome.problems))
            return None
        return result


def high_percentile(values: list[float]):
    """The highest percentile with at least ten samples above it, or None."""
    k = len(values)
    if k < 11:
        return None
    return 100.0 * (k - 10) / k, sorted(values)[k - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    line = f"{name}: median {med:.6g} {unit} over {len(values)} samples"
    hp = high_percentile(values)
    if hp is None:
        line += " (no percentile has ten samples above it)"
    else:
        line += f", p{hp[0]:.0f} {hp[1]:.6g} {unit}"
    return line + ": " + " ".join(f"{v:.4g}" for v in values)


def run_plain(runner: Runner, seconds: int):
    setups, walls, rss = [], [], []
    for _ in range(SETUP_PROBES):
        probe = runner.setup_probe()
        if probe is not None:
            setups.append(probe["setup_s"])
    start = time.perf_counter()
    done = 0
    while done < 2 or time.perf_counter() - start < seconds:
        result = runner.command(trace=False)
        done += 1
        if result is None:
            continue
        setups.append(result["setup_s"])
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
    series = {"setup_s": ("s", setups), "wall_s": ("s", walls), "peak_rss_mb": ("MB", rss)}
    for name, (unit, values) in series.items():
        if values:
            print(describe(name, unit, values))
    return {name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in series.items() if values}


def run_traced(runner: Runner, seconds: int):
    plain_walls, traced = [], []
    start = time.perf_counter()
    # past `seconds`, keep going until one pair succeeds or three pairs failed
    while time.perf_counter() - start < seconds or (not traced and runner.attempted < 6):
        plain = runner.command(trace=False)
        result = runner.command(trace=True)
        if plain is None or result is None:
            continue
        plain_walls.append(plain["wall_s"])
        traced.append(result)
    if not traced:
        return {}
    units = layers.metric_units()
    metrics = {}
    for name in traced[0]["layers"]:
        # counts repeat exactly; median_low keeps them whole numbers
        median = statistics.median if units[name] == "s" else statistics.median_low
        metrics[name] = {"value": median(r["layers"][name] for r in traced),
                         "unit": units[name]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    cli_self = statistics.median(r["layers"]["cli.self_s"] for r in traced)
    root = statistics.median(r["traced_root_s"] for r in traced)
    for name, value in (("trace.wall_s", traced_wall),
                        ("trace.overhead_s", traced_wall - statistics.median(plain_walls)),
                        ("trace.coverage", (root - cli_self) / traced_wall)):
        metrics[name] = {"value": value, "unit": units[name]}
    print(f"traced {len(traced)} commands, {traced[-1]['spans']} spans in the last; "
          f"untraced wall median {statistics.median(plain_walls):.6g} s, "
          f"traced {traced_wall:.6g} s")
    shares = {k: v["value"] for k, v in metrics.items()
              if k.startswith("layer.") and v["value"] > 0}
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{name}: {value:.4g} s ({100.0 * value / traced_wall:.1f}% of traced wall)")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = find_source_tree()
    workload = WORKLOADS[args.workload]
    out = BENCH.parent / ".perfbench"
    workdir = out / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if workload.fixture == RECOVERED_CONFIG:
        write_recovered_config(src, out / RECOVERED_CONFIG)

    runner = Runner(workload, args.seed, src, workdir)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("command: dualgeo " + " ".join(workload.argv(args.seed, workdir)))
    if args.trace:
        metrics = run_traced(runner, args.seconds)
    else:
        metrics = run_plain(runner, args.seconds)
    for failure in runner.failures:
        print(f"FAILED: {failure}")
    failed = len(runner.failures)
    print(f"failed_ops: {failed} of {runner.attempted} processes attempted")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
