"""Metric-dependent calculus on a coordinate chart.

The chart is fixed; everything is a dense numpy computation at a point or
over a stack of points.  The metric's jets, inverse, Christoffel symbols,
their Jacobians and curvature, the fields' values, jets and derivatives,
:func:`hessian` and :func:`covariant_derivative` take a point of shape
``(n,)`` or a stack of shape ``(..., n)`` and return arrays with the same
leading axes.  A field hands the whole stack to one call of its compiled
program, which alone decides how the rows run (:mod:`dualgeo.jets`), and the
tensor algebra is one ``...``-einsum over the stack, which rounds every row
as the single-point call does.

Christoffel symbols are stored as ``Gamma[k, i, j]`` = Gamma^k_{ij}, curvature
as ``R[l, k, i, j]`` = R^l_{kij} (so ``Ric_{kj} = R[i, k, i, j]``), and
covariant derivatives prepend the derivative index.  Curvature is assembled
from analytic second derivatives of the metric components (jet arithmetic).
The package computes no finite differences; they live in the test suite, as
the independent oracle.

A sample grid is one ``(N, n)`` array (:func:`grid_points`).  Grid checks
evaluate it in blocks of ``GRID_BLOCK`` rows (:func:`grid_blocks`), so memory
is bounded by the block, and reduce it with one loop, :func:`grid_maxima`,
which runs several residual functions on each block before it forms the next
(:func:`grid_max` is its one-function case).  A NaN residual gives NaN and so
fails its check instead of vanishing.

Expression-backed fields (:class:`ScalarField`, :class:`TensorField` and
:class:`Metric`) compile their component trees once, on first use, into one
straight-line program (:func:`dualgeo.jets.compile`).  One call of it returns
the value or jet of every component, and equal component trees share one
output.

Everything is observably pure in (field, point), so grid sweeps may run in
parallel workers as long as reductions keep a fixed order.  The internal state
is each field's compiled program, which is built at most once per worker and
never changes after, and :class:`Metric`'s one record of the most recent
point or stack, which every caller of that stack shares (the integrator's
right-hand side, the connection table, the structure solver, a grid pass's
residual functions), so none passes metric data on.  A new stack replaces
the record, a ``(key, parts)`` pair, as a whole, and a part is written
through the requester's own reference to its pair, so concurrent readers see
either the old or the new record, never a mix, and a part never lands under
another stack's key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .expressions import Expression, is_constant, parse
from .jets import Program, compile, flat_index


class GeometryError(ValueError):
    pass


class SingularMetricError(GeometryError):
    pass


def matvec(a: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ v`` over stacks of n x n matrices and n-vectors (both numpy
    arrays, n >= 2, as on every chart), written into ``out`` when given.

    Entry i is ``a[i, 0] * v[0] + a[i, 1] * v[1] + ...`` summed left to
    right, in one elementwise product and one add per further column, so
    every row of a stack rounds as float arithmetic in that order does.
    ``matmul`` hands a small product to BLAS, whose summation order and use
    of fused multiply-add depend on the kernel the CPU selects.
    """
    terms = a * v[..., None, :]
    out = np.add(terms[..., 0], terms[..., 1], out=out)
    for j in range(2, a.shape[-1]):
        out += terms[..., j]
    return out


CONDITION_BOUND = 1e8  # the largest metric condition number an inverse accepts


@dataclass(frozen=True)
class ScalarField:
    """Expression-backed scalar field on an n-dimensional chart."""

    expr: Expression
    n: int

    @staticmethod
    def from_source(source: str, n: int, constants=None) -> "ScalarField":
        return ScalarField(parse(source, n, constants=constants), n)

    @cached_property
    def _program(self) -> Program:
        return compile([self.expr])

    def value(self, x):
        """The value at a point, or stacked over the leading axes of x."""
        if np.ndim(x) < 2:
            return self._program.values(x)[0]
        pts = np.asarray(x, dtype=float)
        return self._program.values(pts.reshape(-1, self.n))[:, 0].reshape(pts.shape[:-1])

    def derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(d_a V, d_a d_b V) at a point, or stacked over the leading axes of x."""
        grads, hesses = self._program.jet_arrays(x)[1:]
        return grads[..., 0, :], hesses[..., 0, :, :]

    def gradient(self, x) -> np.ndarray:
        """d_a of the field at a point, or stacked over the leading axes of x."""
        return self.derivatives(x)[0]


class Metric:
    """Symmetric (0,2) expression field with inverse and curvature helpers.

    The jets, inverse, inverse Jacobian, Christoffel symbols and their
    Jacobian of the most recent point or stack are the parts of one record,
    each computed on its first request there and stored read-only.  A
    constant metric fills its origin's record when built, so a singular one
    fails there, and broadcasts those parts over any stack as read-only
    views, keyed on the stack's lead shape alone.
    """

    def __init__(self, comps: Sequence[Sequence[Expression]]):
        n = len(comps)
        if any(len(row) != n for row in comps):
            raise GeometryError("metric component matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if comps[i][j] != comps[j][i]:
                    raise GeometryError(
                        f"metric components ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "are not structurally symmetric")
        self.n = n
        self.comps = [[comps[i][j] for j in range(n)] for i in range(n)]
        self._pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self._program: Program | None = None
        self._origin: dict | None = None
        self._record: tuple = (None, {})
        self.constant = all(is_constant(comps[i][j]) for i in range(n) for j in range(n))
        if self.constant:
            # every part is position-independent: these two requests fill all five
            x0 = np.zeros(n)
            self.christoffel(x0)
            self.christoffel_jacobian(x0)
            self._origin = self._record[1]
            self._record = ((), self._origin)
            self._flats = {name: getattr(self, name)(x0).ravel().tolist()
                           for name in ("value", "inverse", "christoffel")}

    @staticmethod
    def from_sources(rows: Sequence[Sequence[str]], constants=None) -> "Metric":
        n = len(rows)
        comps = [[parse(rows[i][j], n, constants=constants) for j in range(n)]
                 for i in range(n)]
        return Metric(comps)

    # --- pointwise evaluation ------------------------------------------------

    def _eval_jets(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, dg, d2g) with dg[a,i,j] = d_a g_ij and d2g[a,b,i,j], over the
        leading axes of x."""
        if self._program is None:
            self._program = compile([self.comps[i][j] for i, j in self._pairs])
            self._jet_index = self._jet_positions()
        flat = self._program.jet_flat(x)
        return tuple(flat.take(index, axis=-1) for index in self._jet_index)

    def _jet_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where g[i,j], dg[a,i,j] and d2g[a,b,i,j] sit in the flat jet array
        of the program over the pairs i <= j."""
        n, count = self.n, len(self._pairs)
        pair = np.empty((n, n), dtype=int)
        for p, (i, j) in enumerate(self._pairs):
            pair[i, j] = pair[j, i] = p
        a = np.arange(n)
        return (flat_index(count, n, 0, pair),
                flat_index(count, n, 1, pair[None], a[:, None, None]),
                flat_index(count, n, 2, pair[None, None], a[:, None, None, None],
                           a[None, :, None, None]))

    def _part(self, name: str, x, compute):
        """The part ``name`` of the record of the point or stack x, from
        ``compute(points)`` on its first request there."""
        origin = self._origin
        if origin is None:
            pts = np.asarray(x, dtype=float)
            key = (pts.shape, pts.tobytes())
        else:
            key = (x.shape if isinstance(x, np.ndarray) else np.shape(x))[:-1]
        record = self._record
        if record[0] != key:
            record = self._record = (key, {})
        parts = record[1]   # written through this reference, never through self
        part = parts.get(name)
        if part is None:
            if origin is None:
                part = compute(pts)
                for a in part if isinstance(part, tuple) else (part,):
                    if isinstance(a, np.ndarray):
                        a.flags.writeable = False
            else:
                part = origin[name]
                part = (tuple(np.broadcast_to(a, key + a.shape) for a in part)
                        if isinstance(part, tuple) else np.broadcast_to(part, key + part.shape))
            parts[name] = part
        return part

    def jets(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._part("jets", x, self._eval_jets)

    def value(self, x) -> np.ndarray:
        return self.jets(x)[0]

    def flat(self, name: str, x) -> list:
        """Part ``name`` ("value", "inverse" or "christoffel") at one point as a
        flat list of floats, which callers only read; kept beside its array."""
        if self._origin is not None:   # a constant metric's, made when built
            return self._flats[name]
        return self._part(name + "-flat", x,
                          lambda pts: getattr(self, name)(pts).ravel().tolist())

    def _checked_inverse(self, x) -> np.ndarray:
        """g^-1, once g's condition max|lambda| / min|lambda| (NaN if not finite) is in bound."""
        g = self.value(x)
        finite = np.isfinite(g).all(axis=(-2, -1))
        lam = np.abs(np.linalg.eigvalsh(np.where(finite[..., None, None], g, 1.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(finite, lam.max(axis=-1) / lam.min(axis=-1), np.nan)
        bad = ~(cond <= CONDITION_BOUND)
        if bad.any():
            first = int(np.argmax(bad.ravel()))
            raise SingularMetricError(
                f"metric condition number {cond.ravel()[first]:.3e} exceeds bound "
                f"{CONDITION_BOUND:.1e} at "
                f"{np.asarray(x, dtype=float).reshape(-1, self.n)[first]}")
        return np.linalg.inv(g)

    def inverse(self, x) -> np.ndarray:
        return self._part("inverse", x, self._checked_inverse)

    def inverse_jacobian(self, x) -> np.ndarray:
        """dginv[a,i,j] = d_a g^{ij} = -(g^{-1} (d_a g) g^{-1})^{ij}."""
        def compute(pts):
            ginv = self.inverse(pts)
            return -np.einsum("...ip,...apq,...qj->...aij", ginv, self.jets(pts)[1], ginv)
        return self._part("inverse_jacobian", x, compute)

    # --- connection and curvature -------------------------------------------

    def christoffel(self, x) -> np.ndarray:
        """Gamma[k,i,j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
        def compute(pts):
            dg = self.jets(pts)[1]
            bracket = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
                       - dg)
            return 0.5 * np.einsum("...kl,...lij->...kij", self.inverse(pts), bracket)
        return self._part("christoffel", x, compute)

    def christoffel_jacobian(self, x) -> np.ndarray:
        """dGamma[a,k,i,j] = d_a Gamma^k_{ij}, from analytic d2g."""
        def compute(pts):
            _, dg, d2g = self.jets(pts)
            bracket = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
                       - dg)
            dbracket = (np.einsum("...aijl->...alij", d2g)
                        + np.einsum("...ajil->...alij", d2g) - d2g)
            return 0.5 * (np.einsum("...akl,...lij->...akij", self.inverse_jacobian(pts),
                                    bracket)
                          + np.einsum("...kl,...alij->...akij", self.inverse(pts), dbracket))
        return self._part("christoffel_jacobian", x, compute)

    def riemann(self, x) -> np.ndarray:
        """R[l,k,i,j] = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{im}Gamma^m_{jk} - Gamma^l_{jm}Gamma^m_{ik}."""
        gamma = self.christoffel(x)
        dgamma = self.christoffel_jacobian(x)
        return (np.einsum("...iljk->...lkij", dgamma) - np.einsum("...jlik->...lkij", dgamma)
                + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
                - np.einsum("...ljm,...mik->...lkij", gamma, gamma))

    def ricci(self, x) -> np.ndarray:
        return np.einsum("...ikij->...kj", self.riemann(x))


GRID_BLOCK = 64  # rows of the grid a grid check evaluates at once


def grid_points(box: Sequence[tuple[float, float]], per_axis: int = 5,
                margin: float = 0.0) -> np.ndarray:
    """Uniform sample grid inside a box, shrunk by an absolute margin per axis,
    as one ``(per_axis**n, n)`` array in C order of the axes.

    Raises ValueError when the margin leaves no interior on some axis
    (2 * margin >= hi - lo), since the shrunk axis would then run backwards
    out of the box.
    """
    for lo, hi in box:
        if 2.0 * margin >= hi - lo:
            raise ValueError(f"margin {margin!r} leaves no interior in the axis "
                             f"[{lo!r}, {hi!r}]")
    axes = [np.linspace(lo + margin, hi - margin, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def grid_blocks(points):
    """Consecutive slices of at most ``GRID_BLOCK`` rows of an ``(N, n)``
    array of points."""
    points = np.asarray(points, dtype=float)
    for start in range(0, len(points), GRID_BLOCK):
        yield points[start:start + GRID_BLOCK]


def grid_maxima(fns, points) -> list[float]:
    """max |fn(block)| over a grid for each fn of ``fns``, in one pass: every
    fn gets the same ``GRID_BLOCK``-row block of the ``(N, n)`` points before
    the next block is formed, so the metric data of a block, the parts of
    :class:`Metric`'s record, is computed once for all of them.  A fn may
    return a tuple of arrays computed from one evaluation; each array gets
    its own maximum, in order.  Block maxima fold with ``np.maximum`` in grid
    order, so a NaN residual gives NaN and fails every threshold test; an
    empty grid raises ValueError."""
    found = [[np.max(np.abs(a)) for out in (fn(block) for fn in fns)
              for a in (out if isinstance(out, tuple) else (out,))]
             for block in grid_blocks(points)]
    return [float(m) for m in np.maximum.reduce(np.array(found), axis=0)]


def grid_max(fn, points) -> float:
    """:func:`grid_maxima` of the one function ``fn``."""
    return grid_maxima([fn], points)[0]


# --- scalar-field calculus ---------------------------------------------------


def hessian(g: Metric, V: ScalarField, x) -> np.ndarray:
    """(nabla^2 V)_{ij} = d_i d_j V - Gamma^k_{ij} d_k V."""
    grad, hess = V.derivatives(x)
    return hess - np.einsum("...kij,...k->...ij", g.christoffel(x), grad)


@dataclass(frozen=True)
class TensorField:
    """Expression-backed tensor field: an object array of expressions."""

    comps: np.ndarray  # dtype=object array of Expression
    variance: tuple[str, ...]
    n: int

    @staticmethod
    def from_sources(rows, variance: tuple[str, ...], n: int, constants=None) -> "TensorField":
        shape = np.shape(rows)
        arr = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            src = rows
            for k in idx:
                src = src[k]
            arr[idx] = parse(src, n, constants=constants)
        return TensorField(arr, variance, n)

    @cached_property
    def _program(self) -> Program:
        return compile(self.comps.ravel())

    def value(self, x) -> np.ndarray:
        """Components at a point, shaped like ``comps``, or stacked over the
        leading axes of x (one :meth:`Program.values
        <dualgeo.jets.Program.values>` call on the stack, which runs it as
        array code from ``jets.ARRAY_ROWS`` rows)."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return np.array(self.point(pts)).reshape(self.comps.shape)
        out = self._program.values(pts.reshape(-1, self.n))
        return out.reshape(pts.shape[:-1] + self.comps.shape)

    @cached_property
    def point(self) -> Callable[[Sequence[float]], list]:
        """The compiled float function: the flat components at one point."""
        return self._program.point

    def jets(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(values, partials) with partials[a, ...] = d_a components, at a
        point or stacked over the leading axes of x."""
        values, grads, _ = self._program.jet_arrays(x)
        lead = values.shape[:-1]
        return (values.reshape(lead + self.comps.shape),
                grads.swapaxes(-1, -2).reshape(lead + (self.n,) + self.comps.shape))


def covariant_derivative(g: Metric, fld: TensorField, x) -> np.ndarray:
    """Levi-Civita derivative components of ``fld`` for the metric g; the new
    covariant slot comes first, followed by the slots of ``fld`` in its order
    and variance.
    """
    gamma = g.christoffel(x)
    vals, partials = fld.jets(x)
    out = partials.copy()
    lead = np.ndim(x) - 1
    rest = "pqrstuvw"[:len(fld.variance) - 1]
    for slot, var in enumerate(fld.variance):
        # contract Gamma with the tensor on this slot
        moved = np.moveaxis(vals, lead + slot, lead)
        if var == "up":
            corr = np.einsum(f"...kam,...m{rest}->...ak{rest}", gamma, moved)
        else:
            corr = -np.einsum(f"...mak,...m{rest}->...ak{rest}", gamma, moved)
        out += np.moveaxis(corr, lead + 1, lead + slot + 1)
    return out
