"""The benchmark's workloads: the dualgeo command each one runs, the inputs it
draws from the seed, and the gate every command's output must pass.

Every workload is one CLI invocation, so a run is a closed loop with one
client: the next command starts only after the previous one has exited.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The theorem-1 and Weyl claims `dualgeo verify sw2` reports, with the side of
# its tolerance each must land on.  Negative controls (the ids containing
# "negative_control") and the uniqueness claims must rise ABOVE their tolerance.
SW2_CLAIMS = {
    **{f"t1.{claim}.{sign}": "below"
       for claim in ("alpha_match", "compatibility", "dual_projective",
                     "ricci_symmetry", "trajectories")
       for sign in ("plus", "minus")},
    "t1.uniqueness.plus": "above",
    "t1.uniqueness.minus": "above",
    "t1.negative_control.perturbed_b": "above",
    "weyl.total_symmetry": "below",
    "weyl.negative_control.levi_civita": "above",
}

DIGAMMA_CLAIMS = {
    "rd.codazzi_b": "below",
    "rd.codazzi_f": "below",
    "rd.constant_zeta_coincidence": "below",
    "rd.difference_identity": "below",
    "rd.fixture_zeta": "below",
    "rd.negative_control.nonconstant_zeta": "above",
}

RECOVERED_CONFIG = "sw2-recovered.json"


def trace_start(seed: int) -> tuple[list[float], list[float]]:
    """Seeded start position and velocity for the sw2 trace workloads.

    Starts lie in [1.2, 1.6]^2 and head into the quadrant towards the
    singular axes at speed 0.08-0.12.  In that region both the +T curve and
    its faster +B companion stay inside the box [0.5, 3]^2 for 5000 steps of
    1e-3 (nearest approach 0.92 over seeds 0-15), so every run integrates and
    compares the same number of samples.  Heading away from the axes instead
    lets the +B curve leave the box after 3800-4800 steps.
    """
    rng = random.Random(seed)
    x0 = [rng.uniform(1.2, 1.6), rng.uniform(1.2, 1.6)]
    angle = math.radians(rng.uniform(150.0, 300.0))
    speed = rng.uniform(0.08, 0.12)
    return x0, [speed * math.cos(angle), speed * math.sin(angle)]


def _vector(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


@dataclass
class Outcome:
    problems: list[str]
    digest: str


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    why: str
    fixture: str
    options: tuple[str, ...]
    claims: dict

    def fixture_source(self, workdir: Path) -> str:
        return self.fixture

    def argv(self, seed: int, workdir: Path) -> list[str]:
        return ["verify", self.fixture, *self.options, "--seed", str(seed),
                "--out", str(workdir / "report.json")]

    def check(self, seed: int, workdir: Path, exit_code, stdout: str, stderr: str
              ) -> Outcome:
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        path = workdir / "report.json"
        if not path.exists():
            return Outcome(problems + ["no report written"], "")
        raw = path.read_bytes()
        try:
            bundle = json.loads(raw)
        except json.JSONDecodeError as exc:
            return Outcome(problems + [f"report is not JSON: {exc}"], _digest(raw))
        if bundle.get("verdict") != "pass":
            problems.append(f"verdict {bundle.get('verdict')!r}")
        if bundle.get("inputs", {}).get("seed") != seed:
            problems.append("report does not record the seed passed in")
        seen = {}
        for report in bundle.get("reports", []):
            for claim in report.get("claims", []):
                seen[claim["id"]] = claim
        if set(seen) != set(self.claims):
            problems.append(f"claims {sorted(set(seen) ^ set(self.claims))} "
                            "missing or unexpected")
        for claim_id, want in self.claims.items():
            claim = seen.get(claim_id)
            if claim is None:
                continue
            residual = float(claim["max_residual"])
            tolerance = float(claim["tolerance"])
            landed = residual < tolerance if want == "below" else residual > tolerance
            if claim["direction"] != want or not landed or claim["verdict"] != "pass":
                problems.append(f"{claim_id}: residual {residual:.3e} not {want} "
                                f"{tolerance:.1e} (reported {claim['verdict']})")
            if claim["negative_control"] != ("negative_control" in claim_id):
                problems.append(f"{claim_id}: negative-control flag is wrong")
        return Outcome(problems, _digest(raw))


@dataclass(frozen=True)
class TraceWorkload:
    name: str
    why: str
    fixture: str          # built-in name, or RECOVERED_CONFIG
    steps: int

    def fixture_source(self, workdir: Path) -> str:
        if self.fixture == RECOVERED_CONFIG:
            return str(workdir.parent / RECOVERED_CONFIG)
        return self.fixture

    def argv(self, seed: int, workdir: Path) -> list[str]:
        x0, w0 = trace_start(seed)
        return ["trace", self.fixture_source(workdir), "--conn", "+T", "--compare", "+B",
                "--format", "both", f"--x0={_vector(x0)}", f"--w0={_vector(w0)}",
                "--h", "1e-3", "--steps", str(self.steps),
                "--out", str(workdir / "trajectory")]

    def check(self, seed: int, workdir: Path, exit_code, stdout: str, stderr: str
              ) -> Outcome:
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if "halted early" in stderr:
            problems.append("integration halted early")
        csv_path = workdir / "trajectory.csv"
        json_path = workdir / "trajectory.json"
        if not (csv_path.exists() and json_path.exists()):
            return Outcome(problems + ["trajectory export missing"], "")
        csv_raw, json_raw = csv_path.read_bytes(), json_path.read_bytes()
        digest = _digest(stdout.encode(), csv_raw, json_raw)
        try:
            result = json.loads(stdout)
            meta = json.loads(json_raw)["metadata"]
        except (json.JSONDecodeError, KeyError) as exc:
            return Outcome(problems + [f"unreadable output: {exc}"], digest)
        if result.get("coincide") is not True:
            problems.append("curves do not coincide")
        tol = float(result.get("tolerance", "nan"))
        for key in ("hausdorff_a_to_b", "hausdorff_b_to_a"):
            if not float(result.get(key, "inf")) < tol:
                problems.append(f"{key} {result.get(key)} not below {tol}")
        if result.get("connections") != ["+T", "+B"]:
            problems.append(f"compared {result.get('connections')}")
        if meta.get("exit_reason") != "completed":
            problems.append(f"exit reason {meta.get('exit_reason')!r}")
        if meta.get("samples") != self.steps + 1:
            problems.append(f"{meta.get('samples')} samples, want {self.steps + 1}")
        if csv_raw.count(b"\n") != self.steps + 2:
            problems.append("CSV export has the wrong number of rows")
        return Outcome(problems, digest)


WORKLOADS = {w.name: w for w in (
    VerifyWorkload(
        "verify-sw2",
        "headline fixture: closed-form T on a flat metric; cost is the "
        "expression tree walk in every RK4 stage plus curve comparison",
        "sw2", (), SW2_CLAIMS),
    VerifyWorkload(
        "verify-sphere3-digamma",
        "only 3-D non-constant metric and only digamma suite: metric jets, "
        "inverse and Christoffel symbols on a 9^3 grid",
        "sphere3-trivial", ("--theorem", "digamma", "--grid", "9"),
        DIGAMMA_CLAIMS),
    TraceWorkload(
        "trace-sw2-recovered",
        "sw2 without closed-form T: every RK4 stage runs a pointwise SVD "
        "least-squares structure solve",
        RECOVERED_CONFIG, 1500),
    TraceWorkload(
        "trace-long",
        "one 5000-step sw2 trajectory pair; the quadratic curve comparison "
        "dominates time and peak memory",
        "sw2", 5000),
)}
