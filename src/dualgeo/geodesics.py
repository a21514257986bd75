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

Many starts advance together as the rows of one (m, 2, n) state, whose row
r holds the position ``s[r, 0]`` and the covelocity ``s[r, 1]``, and each row
carries its own connection: one connection for all of them, or a
:class:`~dualgeo.connections.ConnectionTable` whose row r follows
``conns[r]`` (a verification suite puts all of its trajectory claims, both
connections of both signs, in one table).  Each RK4 stage evaluates the
metric once and the coefficients of every running row in one call of the
function bound once per running set; the right-hand side writes xdot and pdot
into one array, so every RK4 combination is one array operation on the whole
state, and each step stores one sample of it.  After each step one test of
the whole state against the box (for the position) and against the float
range (for the covelocity), plus the singular margin, tells whether any row
halts.  Only then are the failing rows triaged, in the order nonfinite (the
position or the covelocity), box, singular margin, so a row gets the exit
reason a lone run would; halted rows keep the samples taken so far and drop
out of the state, so every kept sample is finite.  If a stage raises a
domain error (an EvalDomainError, SingularMetricError, RankDeficiencyError
or LinAlgError), that step is redone one row at a time, each under its own
connection: the rows that raise exit with ``domain_exit``, the others go on.
Every operation rounds each row as it would round a single point, so each
row equals its single-start run under its own connection bit for bit.

A lone running row (a start integrated alone, or the last row of a stack) and
each row of a redone step go through one RK4 step generated as straight-line
float code instead, since a numpy call on a few numbers costs about a
microsecond, more than the arithmetic.  Its x and p are Python floats, and it
inlines the connection's point template (``connections.template_source``):
each stage reads g^-1 and the flat lists the template needs (a constant
metric's once per bound step) and computes each Gamma entry as a local
expression; a connection without a template reads its ``point``.  Each float
operation rounds as the stack's numpy call rounds that row: the RK4
combinations, xdot summed over j as :func:`~dualgeo.geometry.matvec` sums it,
pdot_i summed from +0 with k outer and j inner as the einsum sums it, and the
q term.  After each step one chain of comparisons tests the state as the
stack's clamped test does; only a failing row goes through the halt triage.
So the number of running rows picks the path, and neither path changes a
bit.  A lone row stores its float samples STORE_BLOCK at a time; the exports
format and write EXPORT_BLOCK samples at a time, so their memory does not grow.

Curves are compared as unparametrized point sets, by arc position.  Two
dual-geodesics from one start are one curve run one way, so a sample at arc s
lies near arc s' = s + offset of the other (the arc on one curve of the
other's first sample, less the converse: 0 for a common start).  It counts if
s' lies on the other curve, and it is measured to that curve's segments whose
arc meets [s' - w, s' + w]; with fewer than MIN_OVERLAP of a curve's samples
counted, the distance is infinite.  The window bounds the drift of the two arc
coordinates apart: a chord of length D at curvature kappa falls short of its
arc by kappa^2 D^3 / 24, and a normal distance d stretches arc by a factor of
at most 1 + kappa d, so w = WINDOW_DRIFT s + WINDOW_REACH D (D the longest
segment of either curve) holds the drift while kappa D <= 0.15 and
kappa d <= 6e-5.  A window only removes candidates, so it never lowers a
distance, and a sample whose nearest segment is an inner edge of its window
(not an end of the curve) makes that direction's distance infinite: a curve
that doubles back, or a failed bound, never passes.  This approximates Alt &
Godau's order-respecting distance (1995) in O(m (WINDOW_REACH + WINDOW_DRIFT
m)) pairs for m samples, in O(QUERY_BLOCK * window) memory.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connections import AffineConnection, ConnectionTable, template_source
from .expressions import EvalDomainError
from .geometry import Metric, SingularMetricError, matvec
from .structure import RankDeficiencyError

SINGULAR_HALT_MARGIN = 1e-3
# queries per block of the curve comparison: its temporaries hold at most
# block x window x n doubles, however many queries there are
QUERY_BLOCK = 64
# least share of a curve's samples whose shifted arc must lie on the other curve
MIN_OVERLAP = 0.5
# the arc window of a sample at arc s is WINDOW_DRIFT * s plus WINDOW_REACH of
# the longest segment of either curve (the module docstring derives both)
WINDOW_DRIFT = 1e-3
WINDOW_REACH = 8
# samples per block of the trajectory exports, whose memory is O(block), not O(m)
EXPORT_BLOCK = 256
# samples a lone row keeps as floats before it stores them in the state array
STORE_BLOCK = 256


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
        with open(path, "w") as fh:
            fh.write("tau," + ",".join(f"x{i+1}" for i in range(n)) + "," + ",".join(
                f"p{i+1}" for i in range(n)) + "\n")
            _write_rows(fh, ",".join(["{:.17g}"] * (2 * n + 1)) + "\n", "",
                        self.tau[:, None], self.x, self.p)

    def write_json(self, path) -> None:
        """``json.dump(..., indent=2)`` of the metadata and samples, plus a newline."""
        meta = {"method": self.method, "step": f"{self.step:.17g}",
                "connection": self.connection_tag, "exit_reason": self.exit_reason,
                "samples": len(self.tau), "dimension": self.x.shape[1]}
        row = "\n    [" + ",".join(['\n      "{:.17g}"'] * self.x.shape[1]) + "\n    ]"
        with open(path, "w") as fh:
            fh.write('{\n  "metadata": ' + json.dumps(meta, indent=2).replace("\n", "\n  "))
            for name, template, values in (("tau", '\n    "{:.17g}"', self.tau[:, None]),
                                           ("x", row, self.x), ("p", row, self.p)):
                fh.write(f',\n  "{name}": [')
                _write_rows(fh, template, ",", values)
                fh.write("\n  ]")
            fh.write("\n}\n")


def _write_rows(fh, template: str, sep: str, *cols: np.ndarray) -> None:
    """Write ``template.format(*row)``, joined by sep, per row of the columns side by side."""
    for k in range(0, len(cols[0]), EXPORT_BLOCK):
        rows = np.concatenate([c[k:k + EXPORT_BLOCK] for c in cols], axis=1).tolist()
        fh.write((sep if k else "") + sep.join(template.format(*row) for row in rows))


_DOMAIN_ERRORS = (EvalDomainError, SingularMetricError, RankDeficiencyError,
                  np.linalg.LinAlgError)
_BIG = np.finfo(float).max


def _rk4_step(rhs, tau: float, h: float, s: np.ndarray) -> np.ndarray:
    """One classical RK4 step of every row of an (m, 2, n) state s;
    ``rhs(tau, s, out)`` writes the derivative of s into out."""
    k1, k2, k3, k4 = k = np.empty((4,) + s.shape)
    rhs(tau, s, k1)
    rhs(tau + 0.5 * h, s + 0.5 * h * k1, k2)
    rhs(tau + 0.5 * h, s + 0.5 * h * k2, k3)
    rhs(tau + h, s + h * k3, k4)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.cache
def _lone_rk4(n: int, with_q: bool, sign: int | None, trace, constant: bool) -> Callable:
    """``make(flat, tp, point, q)``, whose ``step(tau, h, s)`` is one RK4 step
    of a row's state ``s = [x_1..x_n, p_1..p_n]`` for a connection whose
    template has this shape.  ``make`` runs the template's once-lines; stage m
    its per-point lines at its ``x``, then xdot ``a{m}_i`` as
    :func:`~dualgeo.geometry.matvec` sums it and pdot ``b{m}_i`` from +0 over
    k, then j, of ``(Gamma^k_{ji} xdot^j) p_k``, as the stack's einsum does;
    each combination rounds as :func:`_rk4_step` rounds it."""
    nn, ix = n * n, range(n)
    once, body, entries = template_source(n, sign, trace, constant)
    lines = [", ".join([f"x1_{i}" for i in ix] + [f"p1_{i}" for i in ix]) + ", = s",
             "half = 0.5 * h"]
    for m, (time, shift) in enumerate((("tau", ""), ("tau + half", "half"),
                                       ("tau + half", "half"), ("tau + h", "h")), 1):
        if shift:
            lines += [f"{v}{m}_{i} = {v}1_{i} + {shift} * {d}{m - 1}_{i}"
                      for v, d in (("x", "a"), ("p", "b")) for i in ix]
        lines += ["x = [" + ", ".join(f"x{m}_{i}" for i in ix) + "]"] + body
        lines += [f"a{m}_{i} = " + " + ".join(f"gi{i * n + j} * p{m}_{j}" for j in ix)
                  for i in ix]
        lines += [f"b{m}_{i} = 0.0 + " + " + ".join(
            f"{entries[k * nn + j * n + i]} * a{m}_{j} * p{m}_{k}" for k in ix for j in ix)
            for i in ix]
        if with_q:
            lines += [f"qt = float(q({time}))"]
            lines += [f"b{m}_{i} = b{m}_{i} + qt * p{m}_{i}" for i in ix]
    lines += ["sixth = h / 6.0", "return [" + ", ".join(
        f"{v}1_{i} + sixth * ({d}1_{i} + 2.0 * {d}2_{i} + 2.0 * {d}3_{i} + {d}4_{i})"
        for v, d in (("x", "a"), ("p", "b")) for i in ix) + "]"]
    exec("def make(flat, tp, point, q):\n" + "".join(f"    {line}\n" for line in once)
         + "    def step(tau, h, s):\n        " + "\n        ".join(lines)
         + "\n    return step", namespace := {})
    return namespace["make"]


def _lone_step(conn: AffineConnection, g: Metric, q) -> Callable:
    """The generated RK4 step of a lone row under conn, bound to its template."""
    sign, trace, tensor = conn.template or (None, None, None)
    return _lone_rk4(g.n, q is not None, sign, trace, g.constant)(g.flat, tensor, conn.point, q)


def integrate_dual_geodesics(conn: AffineConnection | ConnectionTable, g: Metric,
                             x0s, w0s, steps: int, h: float,
                             q: Callable[[float], float] | None = None,
                             box=None, singular_loci=None) -> list[Trajectory]:
    """Integrate every start (x0s[r], w0s[r]) as one row of an (m, 2, n) state.

    ``conn`` is one connection for every row, or a :class:`ConnectionTable`
    whose row r follows ``conn.conns[r]``.  Returns one trajectory per start,
    each equal bit for bit to integrating that start alone under its row's
    connection.  ``steps`` must be at least 0 and ``h`` positive and finite.
    Other arguments are as for :func:`integrate_dual_geodesic`.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps!r}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    x = np.array(x0s, dtype=float)
    w = np.array(w0s, dtype=float)
    if x.ndim != 2 or w.shape != x.shape:
        raise ValueError(f"starts must be two (m, n) arrays of one shape, got "
                         f"{x.shape} and {w.shape}")
    if not np.all(np.any(w, axis=1)):
        raise ValueError("initial velocity must be nonzero")
    m, n = x.shape
    s = np.stack([x, matvec(g.value(x), w)], axis=1)
    table = conn if isinstance(conn, ConnectionTable) else ConnectionTable.uniform(conn, m)
    if len(table.conns) != m:
        raise ValueError(f"{len(table.conns)} connections for {m} starts")

    def field(rows: np.ndarray):
        """The right-hand side of the running rows, bound once per set."""
        coefficients = table.bind(rows)

        def rhs(tau: float, s: np.ndarray, out: np.ndarray) -> None:
            x, p = s[:, 0], s[:, 1]
            xdot, pdot = out[:, 0], out[:, 1]
            matvec(g.inverse(x), p, out=xdot)
            np.einsum("...kji,...j,...k->...i", coefficients(x), xdot, p, out=pdot)
            if q is not None:
                pdot += q(tau) * p
        return rhs

    lo, hi = (np.full(n, -np.inf), np.full(n, np.inf)) if box is None else np.array(
        box, dtype=float).T
    # a state passes the clamped test iff its position is finite and in the
    # box and its covelocity is finite, so one test finds every row to halt
    lo_fast = np.stack([np.maximum(lo, -_BIG), np.full(n, -_BIG)])
    hi_fast = np.stack([np.minimum(hi, _BIG), np.full(n, _BIG)])
    # rounding is monotone, so a locus whose margin the box keeps clear can
    # never halt a row inside the box, and its test is left out
    loci = [(axis, value) for axis, value in singular_loci or ()
            if not (lo[axis] > value and lo[axis] - value >= SINGULAR_HALT_MARGIN
                    or value > hi[axis] and value - hi[axis] >= SINGULAR_HALT_MARGIN)]
    axes = np.array([axis for axis, _ in loci], dtype=int)
    values = np.array([value for _, value in loci], dtype=float)
    box_bounds = list(zip(lo.tolist(), hi.tolist()))

    def halt(state: list) -> str | None:
        """The exit reason of a row's flat state [x, p], tested in the order
        nonfinite, box, singular margin, or None if the row goes on."""
        if not all(map(math.isfinite, state)):
            return "nonfinite"
        if not all(a <= v <= b for v, (a, b) in zip(state, box_bounds)):
            return "domain_exit"
        if any(abs(state[axis] - value) < SINGULAR_HALT_MARGIN for axis, value in loci):
            return "singular_margin"
        return None

    taus = np.empty(steps + 1)
    states = np.empty((steps + 1, m, 2, n))
    taus[0], states[0] = 0.0, s
    samples = [steps + 1] * m   # until a row exits
    exits = ["completed"] * m
    rows = np.arange(m)         # the rows still running, in order
    tau = 0.0
    rhs = None                  # bound on the first step of each running set
    step = 0
    while len(rows) > 1 and step < steps:
        step += 1
        if rhs is None:
            rhs = field(rows)
        try:
            s = _rk4_step(rhs, tau, h, s)
        except _DOMAIN_ERRORS:
            # redo the step one row at a time, each under its own connection;
            # the rows that raise exit
            done = []
            for r, row in enumerate(rows):
                try:
                    done.append((r, _lone_step(table.conns[row], g, q)(
                        tau, h, s[r].ravel().tolist())))
                except _DOMAIN_ERRORS:
                    exits[row], samples[row] = "domain_exit", step
            if not done:
                break
            rows = rows[[r for r, _ in done]]
            s = np.array([sr for _, sr in done]).reshape(-1, 2, n)
            rhs = None
        tau += h
        taus[step] = tau
        inside = (s >= lo_fast) & (s <= hi_fast)
        near = (np.abs(s[:, 0].take(axes, axis=1) - values) < SINGULAR_HALT_MARGIN
                if len(axes) else None)
        # the whole state passes, or the rows that fail are triaged as a lone
        # row is, so a row gets a lone run's exit reason
        if not inside.all() or near is not None and near.any():
            go = inside.all(axis=(1, 2))
            if near is not None:
                go &= ~near.any(axis=1)
            for r in np.flatnonzero(~go):
                exits[rows[r]], samples[rows[r]] = halt(s[r].ravel().tolist()), step
            rows, s, rhs = rows[go], s[go], None
        if len(rows) == m:
            states[step] = s
        elif len(rows):
            states[step, rows] = s
    if len(rows) == 1 and step < steps:
        # the last running row steps on floats, with the same halt triage
        row, first = rows[0], step + 1
        advance = _lone_step(table.conns[row], g, q)
        # the clamped test and the kept loci as one chain of comparisons
        exec("def passes(s):\n    return " + " and ".join([f"{a!r} <= s[{i}] <= {b!r}" for i, (
            a, b) in enumerate(zip(lo_fast.ravel().tolist(), hi_fast.ravel().tolist()))] + [
            f"{SINGULAR_HALT_MARGIN!r} <= abs(s[{a}] - {v!r})"
            for a, v in zip(axes.tolist(), values.tolist())]), namespace := {})
        passes = namespace["passes"]
        state, kept = s[0].ravel().tolist(), []
        for step in range(first, steps + 1):
            try:
                state = advance(tau, h, state)
            except _DOMAIN_ERRORS:
                exits[row], samples[row] = "domain_exit", step
                break
            tau += h
            taus[step] = tau
            if not passes(state):
                exits[row], samples[row] = halt(state), step
                break
            kept.append(state)
            if len(kept) == STORE_BLOCK:
                states[first:step + 1, row] = np.reshape(kept, (-1, 2, n))
                first, kept = step + 1, []
        states[first:first + len(kept), row] = np.reshape(kept, (-1, 2, n))
    return [Trajectory(taus[:k].copy(), states[:k, r, 0].copy(), states[:k, r, 1].copy(),
                       table.conns[r].tag, h, exit_reason=exits[r])
            for r, k in enumerate(samples)]


def integrate_dual_geodesic(conn: AffineConnection, g: Metric, x0, w0,
                            steps: int, h: float,
                            q: Callable[[float], float] | None = None,
                            box=None, singular_loci=None) -> Trajectory:
    """Integrate from position x0 with initial velocity w0 (a tangent vector).

    The initial covelocity is ``p(0) = g(x0) w0``.  ``q`` reparametrizes: any
    choice traces the same point set as ``q = 0`` at a different speed.
    """
    return integrate_dual_geodesics(conn, g, [x0], [w0], steps, h, q=q, box=box,
                                    singular_loci=singular_loci)[0]


# --- polyline comparison -------------------------------------------------------


class _Polyline:
    """A curve's vertices, segments and arc coordinates, with their len and shape."""

    def __init__(self, points: np.ndarray):
        self.points, self.shape = points, points.shape
        self.a, self.ab = points[:-1], points[1:] - points[:-1]
        self.seg_len = np.linalg.norm(self.ab, axis=1)
        self.arcs = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.len2 = np.einsum("mi,mi->m", self.ab, self.ab)

    def __len__(self) -> int:
        return len(self.points)


def _segment_d2(dif: np.ndarray, ab: np.ndarray, len2: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance and nearest-point parameter of query-segment pairs,
    from each pair's query offset, segment vector and squared length: the
    dense scan's per-pair formula over any stack of pairs."""
    s = np.einsum("...i,...i->...", dif, ab) / np.where(len2 == 0.0, 1.0, len2)
    s = np.where(len2 == 0.0, 0.0, np.clip(s, 0.0, 1.0))
    closest = dif - s[..., None] * ab
    return np.einsum("...i,...i->...", closest, closest), s


def _window_distances(queries: np.ndarray, lo: np.ndarray, hi: np.ndarray, poly: _Polyline
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance and arc coordinate of each query's nearest point on the segments
    of ``poly`` whose arc meets ``[lo[k], hi[k]]`` (ties go to the lowest), and
    whether its segment is an inner edge of that window (not an end of poly)."""
    if len(poly) == 1:
        zeros = np.zeros(len(queries))
        return np.linalg.norm(queries - poly.points[0], axis=1), zeros, zeros.astype(bool)
    first = np.searchsorted(poly.arcs[1:], lo)
    last = np.searchsorted(poly.arcs[:-1], hi, "right") - 1
    hit = np.empty(len(queries), dtype=np.intp)
    d2, s = np.empty(len(queries)), np.empty(len(queries))
    for k in range(0, len(queries), QUERY_BLOCK):
        block = slice(k, k + QUERY_BLOCK)
        start, stop = first[block], last[block]
        # each row runs over its own window's segments, padded with its last
        seg = np.minimum(start[:, None] + np.arange(np.max(stop - start) + 1), stop[:, None])
        d2_seg, s_seg = _segment_d2(queries[block, None] - poly.a[seg], poly.ab[seg],
                                    poly.len2[seg])
        best = np.argmin(d2_seg, axis=1)
        rows = np.arange(len(seg))
        hit[block], d2[block], s[block] = seg[rows, best], d2_seg[rows, best], s_seg[rows, best]
    edge = (hit == first) & (first > 0) | (hit == last) & (last < len(poly) - 2)
    return np.sqrt(d2), poly.arcs[hit] + s * poly.seg_len[hit], edge


def _polyline_distances(queries: np.ndarray, poly: np.ndarray | _Polyline
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Distances and nearest-point arc coordinates of the queries on ``poly``, a
    vertex array or its :class:`_Polyline`, over every segment."""
    queries = np.atleast_2d(queries)
    poly = poly if isinstance(poly, _Polyline) else _Polyline(poly)
    every = np.full(len(queries), np.inf)
    return _window_distances(queries, -every, every, poly)[:2]


@dataclass
class CurveComparison:
    coincide: bool
    dist_a_to_b: float
    dist_b_to_a: float
    tol: float
    short: str | None = None   # why the curves are no evidence, when they are not


def curves_coincide(a: Trajectory, b: Trajectory, tol: float = 1e-6,
                    steps: int | None = None) -> CurveComparison:
    """One-sided distances by arc position, as the module docstring says.

    Given the ``steps`` both integrations were asked for, each curve must keep
    at least half of the ``steps + 1`` samples: curves that stopped earlier can
    coincide without showing anything, so both distances are infinite and
    ``short`` says why.
    """
    if steps is not None and 2 * min(len(a.tau), len(b.tau)) < steps + 1:
        return CurveComparison(False, np.inf, np.inf, tol, (
            f"kept {len(a.tau)} and {len(b.tau)} of {steps + 1} samples (exit "
            f"reasons {a.exit_reason}, {b.exit_reason}); fewer than half"))
    pa, pb = _Polyline(a.x), _Polyline(b.x)
    offset = (_polyline_distances(pb.points[:1], pa)[1][0]
              - _polyline_distances(pa.points[:1], pb)[1][0])
    reach = WINDOW_REACH * np.max(np.concatenate([pa.seg_len, pb.seg_len]), initial=0.0)

    def one_sided(src: _Polyline, dst: _Polyline, shift: float) -> float:
        arc = src.arcs + shift
        on = (arc >= 0.0) & (arc <= dst.arcs[-1])
        if np.count_nonzero(on) < MIN_OVERLAP * len(src):
            return np.inf
        w = WINDOW_DRIFT * src.arcs[on] + reach
        d, _, edge = _window_distances(src.points[on], arc[on] - w, arc[on] + w, dst)
        return np.inf if edge.any() else float(np.max(d))

    dab, dba = one_sided(pa, pb, -offset), one_sided(pb, pa, offset)
    return CurveComparison(dab < tol and dba < tol, dab, dba, tol)
