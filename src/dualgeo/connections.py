"""Affine-connection algebra: difference tensors, dual-projective equivalence,
semi-compatibility, Ricci symmetry.

A connection is its coefficient function ``x -> Gamma[k, i, j]`` plus the base
metric.  Coefficient functions take a point or a ``(..., n)`` stack of points
and return ``(..., n, n, n)``, so an integrator can evaluate many states in
one call.  All verdict-producing tests are grid-evidence: they evaluate pointwise
residuals on the sample points they are given and report the maximum, so a
"true" verdict always comes with the residual and the points that produced it.
The points are one ``(N, n)`` array, evaluated in blocks of
:data:`~dualgeo.geometry.GRID_BLOCK` rows: each block is one stacked
evaluation of the coefficients, Jacobians and metric data, its residuals are
one ``...``-einsum, and each test is one :func:`~dualgeo.geometry.grid_maxima`
pass, so memory is bounded by the block; a test that recovers a 1-form
reduces its mismatch from an expected one in the same pass.  Block maxima
fold with ``np.maximum``, so a NaN residual anywhere is the result and fails
the verdict; NaN is no torsion defect, so it is not rejected as torsion.
:func:`antisymmetrized_gradient` and :func:`ricci_asymmetry` are the
per-block residuals of the compatibility and Ricci-symmetry checks, so a
suite can reduce them in its own single pass over the grid.

Every connection other than Levi-Civita is ``Gamma_LC - sign * A`` for a
difference tensor A symmetric in its covariant pair, and
:func:`difference_connection` is the one place that assembles it (and its
Jacobian, when A has an analytic one).  Derivatives are analytic or absent,
and present only where a suite differentiates: LC, ±D and the ±T of a
nondegenerate fixture carry a Jacobian.  A connection built without one (±B,
a semi-degenerate fixture's ±T, dagger, ±F, a 1-form shift) raises when asked
for one, and so for its Ricci tensor.  It does not check that A is
symmetric: a fixture's declared tensors are checked once, on the validation
grid, when the fixture loads.

A :class:`ConnectionTable` gives each row of a stacked state its own
connection, bound once per running set, so one integrator call can advance
trajectories of several connections together (``Fixture.connection_table``).

Torsion-freeness is a hard precondition of the dual-projective criterion (with
torsion the criterion has easy counterexamples), so the tests check it in
their pass and raise instead of returning a misleading verdict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import Metric, grid_max, grid_maxima, matvec

TORSION_TOL = 1e-10


class ConnectionError_(ValueError):
    pass


class TorsionError(ConnectionError_):
    pass


@functools.cache
def template_source(n: int, sign: int | None, trace, constant: bool) -> tuple:
    """The float code at the point ``x`` of a template's shape ``(sign, trace)``
    (:class:`AffineConnection`; sign None for a connection without one): the
    lines run once (a constant metric's reads) and per point (the other reads:
    g^-1, Gamma_LC, g and ``tp(x)`` into ``gi0..``, ``c0..``, ``g0..``,
    ``t0..``; B's trace term), and each Gamma entry's expression in ravel
    order, rounded as ``combine(christoffel, A)`` and
    ``Fixture._with_trace_term`` round it."""
    nn, ix, size = n * n, range(n), n ** 3
    reads = [", ".join(f"{name}{e}" for e in range(count)) + f", = flat({part!r}, "
             + ("None)" if constant else "x)") for name, part, count in
             [("gi", "inverse", nn), ("c", "christoffel", size), ("g", "value", nn)]
             [:1 if sign is None else 2 if trace is None else 3]]
    once, lines = (reads, []) if constant else ([], reads)
    if sign is None:
        return once, lines + ["G = point(x)"], [f"G[{e}]" for e in range(size)]
    a = [f"t{e}" for e in range(size)]
    lines += [", ".join(a) + ", = tp(x)"] * bool(sign)
    if trace is not None:
        lines += [f"r{j} = 0.0 + " + " + ".join(f"t{k * (nn + n) + j}" for k in ix)
                  for j in ix] + [f"k{i} = ({trace[0]!r}) * (" + " + ".join(
                      f"gi{i * n + j} * r{j}" for j in ix) + ")" for i in ix]
        a = [f"(t{e} + ({trace[1]!r}) * (0.0 + g{e % nn} * k{e // nn}))" for e in range(size)]
    op = " - " if sign == 1 else " + "
    return once, lines, [f"(c{e}{op}{t})" if sign else f"c{e}" for e, t in enumerate(a)]


@functools.cache
def _template_point(n: int, sign: int, trace, constant: bool) -> Callable:
    """``make(flat, tp)``, whose ``point(x)`` is a template's flat list."""
    once, lines, entries = template_source(n, sign, trace, constant)
    exec("def make(flat, tp):\n" + "".join(f"    {line}\n" for line in once)
         + "    def point(x):\n" + "".join(f"        {line}\n" for line in lines)
         + f"        return [{', '.join(entries)}]\n    return point", namespace := {})
    return namespace["make"]


class AffineConnection:
    """Coefficient-function-backed connection on the chart of ``metric``.

    ``coefficients(x)`` returns ``Gamma[k, i, j]``; for points of shape
    ``(..., n)`` it returns ``(..., n, n, n)``.  ``point(x)`` returns them at
    one point as a flat list of floats, equal to
    ``coefficients(x).ravel().tolist()`` bit for bit: that list, or generated
    from the connection's point template ``(sign, trace, tensor)``, the one
    source of its float code (:func:`template_source`).  It gives Gamma_LC
    alone for sign 0, else Gamma_LC - sign * A for A the flat list
    ``tensor(x)``, or with ``trace = (t, b)`` for A = B = T + b g (x) t g^-1 tr T
    of T = ``tensor(x)``.
    ``jacobian(x)`` returns ``dGamma[a, k, i, j] = d_a Gamma^k_{ij}`` from the
    analytic ``jac_fn``; a connection built without one raises
    ConnectionError_ naming its tag.
    """

    def __init__(self, metric: Metric, coeff_fn: Callable[[np.ndarray], np.ndarray],
                 tag: str = "custom",
                 jac_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                 template: tuple | None = None):
        self.metric = metric
        self._coeff_fn = coeff_fn
        self._jac_fn = jac_fn
        self.tag = tag
        self.template = template
        self.point = (lambda x: self.coefficients(x).ravel().tolist()) if template is None else (
            _template_point(metric.n, *template[:2], metric.constant)(metric.flat, template[2]))

    def coefficients(self, x) -> np.ndarray:
        return self._coeff_fn(np.asarray(x, dtype=float))

    def jacobian(self, x) -> np.ndarray:
        if self._jac_fn is None:
            raise ConnectionError_(f"connection {self.tag!r} has no analytic Jacobian")
        return self._jac_fn(np.asarray(x, dtype=float))

    def torsion_defect(self, x) -> float:
        """max |Gamma^k_{ij} - Gamma^k_{ji}| at a point, or over a stack."""
        gamma = self.coefficients(x)
        return float(np.max(np.abs(gamma - np.einsum("...kji->...kij", gamma))))

    def ricci(self, x) -> np.ndarray:
        """Ricci tensor of this connection (not assumed symmetric).

        Ric_{kj} = d_i Gamma^i_{jk} - d_j Gamma^i_{ik}
                   + Gamma^i_{im} Gamma^m_{jk} - Gamma^i_{jm} Gamma^m_{ik}
        """
        gamma = self.coefficients(x)
        dgamma = self.jacobian(x)
        return (np.einsum("...iijk->...kj", dgamma) - np.einsum("...jiik->...kj", dgamma)
                + np.einsum("...iim,...mjk->...kj", gamma, gamma)
                - np.einsum("...ijm,...mik->...kj", gamma, gamma))


class ConnectionTable:
    """The connections of the rows of a stacked state: row r follows
    ``conns[r]``.

    ``bind(rows)`` returns the coefficient function of the two or more
    running rows whose indices ``rows`` holds, building the set's per-row
    data once; a lone row inlines ``conns[r]``'s template.  Each row must
    round exactly as its own connection rounds it alone, so that any subset
    of rows may be evaluated together.
    """

    def __init__(self, conns: Sequence[AffineConnection],
                 bind: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]):
        self.conns = list(conns)
        self.bind = bind

    @staticmethod
    def uniform(conn: AffineConnection, m: int) -> "ConnectionTable":
        """Every one of m rows follows conn."""
        return ConnectionTable([conn] * m, lambda rows: conn.coefficients)


def levi_civita(g: Metric) -> AffineConnection:
    return AffineConnection(g, g.christoffel, "LC", g.christoffel_jacobian, (0, None, None))


def difference_connection(g: Metric, sign: int,
                          tensor_fn: Callable[[np.ndarray], np.ndarray], tag: str,
                          tensor_jac_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                          tensor_point_fn: Callable[[list], list] | None = None,
                          trace: tuple[float, float] | None = None) -> AffineConnection:
    """Connection ``Gamma_LC - sign * A`` with ``A = tensor_fn(x)``, for sign
    +1 or -1.

    Its Jacobian is ``dGamma_LC - sign * dA`` when ``tensor_jac_fn`` gives dA;
    without one the connection has no Jacobian.  Both are formed as
    ``Gamma - A`` or ``Gamma + A``, which round as ``Gamma - sign * A`` does
    (``-1 * A`` is ``-A`` and subtracting ``-A`` adds A); so does its point
    template, given ``tensor_point_fn`` (A's flat list, or with ``trace`` the T
    of B's), in float arithmetic.  A is trusted to be symmetric in its
    covariant pair; nothing here checks it.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, not {sign!r}")
    combine = np.subtract if sign == 1 else np.add

    def coeff(x):
        return combine(g.christoffel(x), tensor_fn(x))

    jac = None
    if tensor_jac_fn is not None:
        def jac(x):
            return combine(g.christoffel_jacobian(x), tensor_jac_fn(x))
    return AffineConnection(g, coeff, tag, jac, None if tensor_point_fn is None else (
        sign, trace, tensor_point_fn))


def shift_by_one_form(conn: AffineConnection, g: Metric, beta_fn,
                      tag: str = "shifted") -> AffineConnection:
    """The dual-projectively equivalent connection Gamma + beta^sharp (x) g,
    which has no Jacobian."""

    def coeff(x):
        beta_sharp = matvec(g.inverse(x), np.asarray(beta_fn(x), dtype=float))
        return conn.coefficients(x) + np.einsum("...k,...ij->...kij", beta_sharp,
                                                g.value(x))

    return AffineConnection(g, coeff, tag)


def difference_tensor(conn_a: AffineConnection, conn_b: AffineConnection, x) -> np.ndarray:
    """Componentwise Gamma_a - Gamma_b at a point or over a stack; D[..., k, i, j]."""
    if conn_a.metric.n != conn_b.metric.n:
        raise ConnectionError_("connections live on charts of different dimension")
    return conn_a.coefficients(x) - conn_b.coefficients(x)


def _torsion_free_maxima(conns: Sequence[AffineConnection], residuals, points) -> list[float]:
    """``grid_maxima([residuals], points)``, with each connection's torsion
    defect reduced in the same pass; the first one above TORSION_TOL raises
    TorsionError."""
    maxima = grid_maxima([*(conn.torsion_defect for conn in conns), residuals], points)
    for conn, worst in zip(conns, maxima):
        if worst > TORSION_TOL:
            raise TorsionError(
                f"connection {conn.tag!r} has torsion (defect {worst:.3e}); "
                "the dual-projective criterion needs torsion-free input")
    return maxima[len(conns):]


def _mismatch(form: np.ndarray, expected, block) -> tuple:
    """``(form - expected(block),)``, or ``()`` without an expected 1-form."""
    return () if expected is None else (form - np.asarray(expected(block), dtype=float),)


@dataclass
class DualProjectiveResult:
    equivalent: bool
    max_residual: float
    tol: float
    alpha_mismatch: float | None = None  # max |alpha - expected alpha|


def dual_projective_test(conn_a: AffineConnection, conn_b: AffineConnection,
                         g: Metric, points, tol: float = 1e-9, expected_alpha=None
                         ) -> DualProjectiveResult:
    """Test Gamma_a = Gamma_b + alpha^sharp (x) g for a single 1-form alpha.

    The candidate is the unique trace fit ``alpha^k = (1/n) D^k_{ij} g^{ij}``;
    the verdict is true iff ``D^k_{ij} - alpha^k g_{ij}`` stays below ``tol``
    on every sample point.  With an ``expected_alpha`` callable, which
    receives a block of points, the maximal ``|alpha - expected|`` of alpha
    lowered with g is reported as well.
    """
    def residuals(block):
        d = difference_tensor(conn_a, conn_b, block)
        gmat = g.value(block)
        alpha_up = np.einsum("...kij,...ij->...k", d, g.inverse(block)) / g.n
        return (d - np.einsum("...k,...ij->...kij", alpha_up, gmat),
                *_mismatch(matvec(gmat, alpha_up), expected_alpha, block))

    worst, *mismatch = _torsion_free_maxima((conn_a, conn_b), residuals, points)
    return DualProjectiveResult(worst < tol, worst, tol, *mismatch)


@dataclass
class SemiCompatibilityResult:
    semi_compatible: bool
    max_residual: float
    tol: float
    beta_mismatch: float | None = None  # max |alpha - expected beta|


def metric_gradient(conn: AffineConnection, h: Metric, x) -> np.ndarray:
    """(nabla'_i h)_{jk} as C[..., i, j, k]."""
    gamma = conn.coefficients(x)
    hmat, dh, _ = h.jets(x)
    corr = np.einsum("...mij,...mk->...ijk", gamma, hmat)
    return dh - corr - np.einsum("...ikj->...ijk", corr)


def antisymmetrized_gradient(conn: AffineConnection, h: Metric, x) -> np.ndarray:
    """(nabla'_i h)_{jk} - (nabla'_j h)_{ik}; zero iff (conn, h) is compatible.

    The per-block residual of :func:`compatibility_residual`."""
    grad_h = metric_gradient(conn, h, x)
    return grad_h - np.einsum("...jik->...ijk", grad_h)


def semi_compatibility_test(conn: AffineConnection, h: Metric, points,
                            tol: float = 1e-9, expected_beta=None
                            ) -> SemiCompatibilityResult:
    """Test nabla'_X h(Y,Z) - nabla'_Y h(X,Z) = alpha(Y) h(X,Z) - alpha(X) h(Y,Z).

    The candidate comes from contracting the defining identity with h^{ik},
    which isolates (n-1) alpha_j; no least squares is needed.  With an
    ``expected_beta`` callable, which receives a block of points, the maximal
    ``|alpha - beta|`` over the grid is reported as well.
    """
    n = h.n
    if n < 2:
        raise ConnectionError_("semi-compatibility needs n >= 2")

    def residuals(block):
        a = antisymmetrized_gradient(conn, h, block)
        hmat = h.value(block)
        alpha = np.einsum("...ik,...ijk->...j", h.inverse(block), a) / (n - 1)
        model = (np.einsum("...j,...ik->...ijk", alpha, hmat)
                 - np.einsum("...i,...jk->...ijk", alpha, hmat))
        return a - model, *_mismatch(alpha, expected_beta, block)

    worst, *mismatch = _torsion_free_maxima((conn,), residuals, points)
    return SemiCompatibilityResult(worst < tol, worst, tol, *mismatch)


def compatibility_residual(conn: AffineConnection, h: Metric, points) -> float:
    """Maximal antisymmetrized nabla' h; zero iff (conn, h) is compatible."""
    return grid_max(lambda block: antisymmetrized_gradient(conn, h, block), points)


def ricci_asymmetry(conn: AffineConnection, x) -> np.ndarray:
    """Ric_{ij} - Ric_{ji} of the connection's own curvature; the per-block
    residual of :func:`connection_ricci_symmetry_check`."""
    ric = conn.ricci(x)
    return ric - np.swapaxes(ric, -1, -2)


def connection_ricci_symmetry_check(conn: AffineConnection, points) -> float:
    """max |Ric_{ij} - Ric_{ji}| of the connection's own curvature over the grid."""
    return grid_max(lambda block: ricci_asymmetry(conn, block), points)
