"""Dual-geodesic integration and unparametrized curve comparison.

A dual-geodesic of a torsion-free connection keeps the covelocity 1-form
``p = g(xdot, .)`` parallel up to scale.  The integrated first-order system is

    xdot^i = g^{ij} p_j
    pdot_i = Gamma^k_{ji} xdot^j p_k + q(tau) p_i

with ``q identically 0`` for the affine parametrization.  The stepper is the
classical fixed-step fourth-order one-step method: no adaptivity, so repeated
runs are reproducible bit for bit.  Integration halts early (flagged, not an
error) when the state leaves the fixture's box, drifts within a margin of a
declared singular locus, or stops being finite.

Curves are compared as unparametrized point sets with a discrete one-sided
Hausdorff distance restricted to the overlapping arc, overlap being defined by
nearest-endpoint projection.  That makes the comparison insensitive to the
reparametrizations that dual-projective shifts induce.  An overlap that holds
no sample measures as an infinite distance, so it never passes.

The nearest-segment search is exact and pruned.  Segments are grouped into
chunks of SEGMENT_CHUNK with a bounding box each; a chunk whose box lies
farther from a block of queries than an upper bound on their nearest
distances, plus a rounding slack, is skipped.  For curves of m samples that
do not double back on themselves a query keeps a few chunks, so a comparison
costs O(m^2 / SEGMENT_CHUNK) box tests and O(m * SEGMENT_CHUNK) segment
distances instead of m^2 segment distances.  Every kept segment goes through
the same per-pair arithmetic in ascending order, and a skipped one could only
compute a strictly larger distance, so distances and arc coordinates equal
the dense scan's bit for bit.  In the worst case, every segment about equally
near (a query at the centre of a circle), nothing is skipped: time is the
dense O(m^2), and memory stays O(QUERY_BLOCK * m) because queries run in
blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .connections import AffineConnection
from .expressions import EvalDomainError
from .geometry import Metric, SingularMetricError

SINGULAR_HALT_MARGIN = 1e-3
# queries per block of the curve comparison: its temporaries hold at most
# block x segments x n doubles, so memory grows linearly in curve length
QUERY_BLOCK = 64
# consecutive segments that share one bounding box in the comparison's pruning
SEGMENT_CHUNK = 32
# pruning margin in distance, relative to the largest coordinate magnitude;
# it exceeds the rounding error of the box bounds and of the per-pair
# distances (a few hundred ulps of that magnitude for n <= 10) by far
PRUNE_SLACK = 1e-9


@dataclass
class Trajectory:
    tau: np.ndarray       # (m,), strictly increasing
    x: np.ndarray         # (m, n)
    p: np.ndarray         # (m, n) covelocity components
    connection_tag: str
    step: float
    method: str = "rk4"
    exit_reason: str = "completed"  # completed | domain_exit | singular_margin | nonfinite

    def __post_init__(self):
        if len(self.tau) == 0:
            raise ValueError("empty trajectory")
        if np.any(np.diff(self.tau) <= 0):
            raise ValueError("trajectory parameter must be strictly increasing")

    def write_csv(self, path) -> None:
        n = self.x.shape[1]
        header = "tau," + ",".join(f"x{i+1}" for i in range(n)) + "," + ",".join(
            f"p{i+1}" for i in range(n))
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in range(len(self.tau)):
                vals = [self.tau[row], *self.x[row], *self.p[row]]
                fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")

    def to_json_dict(self) -> dict:
        n = self.x.shape[1]
        return {
            "metadata": {
                "method": self.method,
                "step": f"{self.step:.17g}",
                "connection": self.connection_tag,
                "exit_reason": self.exit_reason,
                "samples": int(len(self.tau)),
                "dimension": int(n),
            },
            "tau": [f"{v:.17g}" for v in self.tau],
            "x": [[f"{v:.17g}" for v in row] for row in self.x],
            "p": [[f"{v:.17g}" for v in row] for row in self.p],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def read_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = (data.shape[1] - 1) // 2
    return data[:, 0], data[:, 1:1 + n], data[:, 1 + n:]


def _inside(x: np.ndarray, box, singular_loci) -> str | None:
    if not np.all(np.isfinite(x)):
        return "nonfinite"
    if box is not None:
        for i, (lo, hi) in enumerate(box):
            if not (lo <= x[i] <= hi):
                return "domain_exit"
    for axis, value in singular_loci or ():
        if abs(x[axis] - value) < SINGULAR_HALT_MARGIN:
            return "singular_margin"
    return None


def integrate_dual_geodesic(conn: AffineConnection, g: Metric, x0, w0,
                            steps: int, h: float,
                            q: Callable[[float], float] | None = None,
                            box=None, singular_loci=None) -> Trajectory:
    """Integrate from position x0 with initial velocity w0 (a tangent vector).

    The initial covelocity is ``p(0) = g(x0) w0``.  ``q`` reparametrizes: any
    choice traces the same point set as ``q = 0`` at a different speed.
    """
    x = np.asarray(x0, dtype=float).copy()
    w = np.asarray(w0, dtype=float)
    if not np.any(w):
        raise ValueError("initial velocity must be nonzero")
    p = g.value(x) @ w

    def rhs(tau: float, x: np.ndarray, p: np.ndarray):
        xdot = g.inverse(x) @ p
        gamma = conn.coefficients(x)
        pdot = np.einsum("kji,j,k->i", gamma, xdot, p)
        if q is not None:
            pdot = pdot + q(tau) * p
        return xdot, pdot

    taus = [0.0]
    xs = [x.copy()]
    ps = [p.copy()]
    exit_reason = "completed"
    tau = 0.0
    for _ in range(steps):
        try:
            k1x, k1p = rhs(tau, x, p)
            k2x, k2p = rhs(tau + 0.5 * h, x + 0.5 * h * k1x, p + 0.5 * h * k1p)
            k3x, k3p = rhs(tau + 0.5 * h, x + 0.5 * h * k2x, p + 0.5 * h * k2p)
            k4x, k4p = rhs(tau + h, x + h * k3x, p + h * k3p)
        except (EvalDomainError, SingularMetricError, np.linalg.LinAlgError):
            exit_reason = "domain_exit"
            break
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        tau += h
        flag = _inside(x, box, singular_loci)
        if flag is not None:
            exit_reason = flag
            break
        taus.append(tau)
        xs.append(x.copy())
        ps.append(p.copy())
    return Trajectory(np.array(taus), np.array(xs), np.array(ps),
                      conn.tag, h, exit_reason=exit_reason)


# --- polyline comparison -------------------------------------------------------


def _arc_coordinates(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths of a polyline and the arc coordinate of each vertex."""
    seg_len = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    return seg_len, np.concatenate([[0.0], np.cumsum(seg_len)])


def _polyline_distances(queries: np.ndarray, poly: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Distances and nearest-point arc coordinates, vectorized over queries.

    For each block of QUERY_BLOCK queries, a chunk of SEGMENT_CHUNK segments
    is skipped when its bounding box lies farther from every query than that
    query's smallest farthest-corner distance plus the rounding slack.  The
    kept segments go through the dense per-pair formula in ascending order,
    which the module docstring shows gives the dense scan's results exactly.
    """
    queries = np.atleast_2d(queries)
    if len(poly) == 1:
        d = np.linalg.norm(queries - poly[0], axis=1)
        return d, np.zeros(len(queries))
    a = poly[:-1]
    ab = poly[1:] - poly[:-1]
    seg_len, arc_starts = _arc_coordinates(poly)
    len2 = np.einsum("mi,mi->m", ab, ab)
    safe_len2 = np.where(len2 == 0.0, 1.0, len2)
    starts = np.arange(0, len(ab), SEGMENT_CHUNK)
    box_lo = np.minimum.reduceat(np.minimum(a, poly[1:]), starts)
    box_hi = np.maximum.reduceat(np.maximum(a, poly[1:]), starts)
    scale = max(np.max(np.abs(poly)), np.max(np.abs(queries), initial=0.0))
    # the rounding bound needs squared coordinates clear of underflow and
    # overflow; outside that range, and for NaN, every chunk is kept
    slack = PRUNE_SLACK * scale if 1e-100 <= scale <= 1e100 else np.inf
    dists = np.empty(len(queries))
    arcs = np.empty(len(queries))
    for lo in range(0, len(queries), QUERY_BLOCK):
        block = slice(lo, lo + QUERY_BLOCK)
        q = queries[block, None, :]
        below, above = box_lo - q, q - box_hi
        gap = np.maximum(np.maximum(below, above), 0.0)
        far = np.maximum(-below, -above)
        lower = np.einsum("qki,qki->qk", gap, gap)
        upper = np.min(np.einsum("qki,qki->qk", far, far), axis=1)
        reach = (np.sqrt(upper) + slack) ** 2
        kept = ~np.all(lower > reach[:, None], axis=0)
        seg = np.flatnonzero(np.repeat(kept, SEGMENT_CHUNK)[:len(ab)])
        dif = q - a[None, seg, :]
        s = np.clip(np.einsum("qmi,mi->qm", dif, ab[seg]) / safe_len2[seg], 0.0, 1.0)
        s = np.where(len2[seg] == 0.0, 0.0, s)
        closest = dif - s[:, :, None] * ab[None, seg, :]
        d2 = np.einsum("qmi,qmi->qm", closest, closest)
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(best))
        hit = seg[best]
        arcs[block] = arc_starts[hit] + s[rows, best] * seg_len[hit]
        dists[block] = np.sqrt(d2[rows, best])
    return dists, arcs


@dataclass
class CurveComparison:
    coincide: bool
    dist_a_to_b: float
    dist_b_to_a: float
    tol: float


def curves_coincide(a: Trajectory, b: Trajectory, tol: float = 1e-6) -> CurveComparison:
    """Discrete one-sided Hausdorff distances on the overlapping arc.

    The overlap of each curve is bracketed by projecting the other curve's
    endpoints onto it; samples outside that bracket (the part of a longer arc
    the other curve never reaches) do not count against coincidence.  A
    bracket that holds no sample gives an infinite distance.
    """
    pa, pb = a.x, b.x

    def one_sided(src: np.ndarray, dst: np.ndarray) -> float:
        _, arcs = _arc_coordinates(src)
        _, ends = _polyline_distances(np.array([dst[0], dst[-1]]), src)
        lo, hi = min(ends), max(ends)
        mask = (arcs >= lo - 1e-12) & (arcs <= hi + 1e-12)
        if not np.any(mask):
            return np.inf
        d, _ = _polyline_distances(src[mask], dst)
        return float(np.max(d))

    dab = one_sided(pa, pb)
    dba = one_sided(pb, pa)
    return CurveComparison(dab < tol and dba < tol, dab, dba, tol)


def reparametrization_check(conn: AffineConnection, g: Metric, x0, w0,
                            q: Callable[[float], float], steps: int, h: float,
                            tol: float = 1e-6, box=None, singular_loci=None
                            ) -> CurveComparison:
    """Integrate once with the given q and once affinely; same point set expected."""
    affine = integrate_dual_geodesic(conn, g, x0, w0, steps, h,
                                     box=box, singular_loci=singular_loci)
    scaled = integrate_dual_geodesic(conn, g, x0, w0, steps, h, q=q,
                                     box=box, singular_loci=singular_loci)
    return curves_coincide(affine, scaled, tol)
