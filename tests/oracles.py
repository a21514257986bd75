"""Independent oracles used to pin expected values.

Everything here deliberately avoids the library's own code paths: a plain
recursive walk over expression trees for values, the same walk over jets with
numpy-array Taylor arithmetic (the rules the compiled jet programs unroll, in
the same float operations and order), finite differences of those values, the
Laplace-Beltrami operator in divergence form (beside the g-trace of the
library's covariant Hessian that it checks), the loop-built assembly of the
structure solver's linear system, a brute-force recovery that parametrizes
the full unconstrained tensor with symmetry and trace conditions appended as
extra equations, a dense nearest-segment scan over every query-segment pair
at once, the connection family written out tag by tag on a fixture's
structure data, the grid checks evaluated one point at a time, the digamma
suite's residuals reduced one claim per pass over the grid, and the
trajectory exports written whole: one ``json.dump`` of every sample, and the
CSV row by row.  Expected values asserted in the tests were computed with
these oracles (or by hand) before being frozen.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from dualgeo import conventions as conv
from dualgeo.expressions import (
    Add, Call, Const, Div, EvalDomainError, Mul, Neg, Num, Pow, Sub, Var,
    to_source,
)
from dualgeo.fixtures import CONNECTION_TAGS, FixtureError
from dualgeo.geometry import ScalarField, grid_max, hessian
from dualgeo.jets import eval_jet2
from dualgeo.structure import build_Z_and_digamma, decompose, sym_product_metric_form

# finite-difference steps are scale * (1 + |x_i|) per axis: cbrt(eps) for a
# first difference; stencils that divide by h^2 take the fourth root instead,
# since at cbrt(eps) their roundoff term eps/h^2 alone exceeds 1e-6 relative
FD_SCALE = float(np.cbrt(np.finfo(float).eps))       # ~6.06e-6
FD_SCALE_2ND = float(np.finfo(float).eps ** 0.25)    # ~1.22e-4


class _DomainViolation(Exception):
    pass


# a float operation that overflows (``**``, ``exp``) or meets a math domain
# error (``sin(inf)``) fails its subexpression with these messages
_OVERFLOW = "result out of float range"
_MATH_DOMAIN = "argument outside the function's float domain"


def _float_call(func, v):
    if func == "sqrt":
        if v <= 0.0:
            raise _DomainViolation("sqrt of a non-positive value")
        return math.sqrt(v)
    if func == "log":
        if v <= 0.0:
            raise _DomainViolation("log of a non-positive value")
        return math.log(v)
    if func == "tan" and math.cos(v) == 0.0:
        raise _DomainViolation("tan at a pole")
    return getattr(math, func)(v)


def _float_pow(base, e):
    if e.is_integer():
        if base == 0.0 and e < 0:
            raise _DomainViolation("division by zero")
        return base ** int(e)
    if base <= 0.0:
        raise _DomainViolation("real exponent needs a positive base")
    return base**e


def _walk(node, env):
    try:
        if isinstance(node, (Num, Const)):
            return node.value
        if isinstance(node, Var):
            return env[node.index]
        if isinstance(node, Neg):
            return -_walk(node.arg, env)
        if isinstance(node, Add):
            return _walk(node.lhs, env) + _walk(node.rhs, env)
        if isinstance(node, Sub):
            return _walk(node.lhs, env) - _walk(node.rhs, env)
        if isinstance(node, Mul):
            return _walk(node.lhs, env) * _walk(node.rhs, env)
        if isinstance(node, Div):
            lhs = _walk(node.lhs, env)
            rhs = _walk(node.rhs, env)
            if rhs == 0.0:
                raise _DomainViolation("division by zero")
            return lhs / rhs
        if isinstance(node, Pow):
            return _float_pow(_walk(node.base, env), _walk(node.exponent, env))
        if isinstance(node, Call):
            return _float_call(node.func, _walk(node.arg, env))
    except _DomainViolation as exc:
        raise EvalDomainError(str(exc), to_source(node)) from None
    except EvalDomainError:
        raise
    except OverflowError:
        raise EvalDomainError(_OVERFLOW, to_source(node)) from None
    except ValueError:
        raise EvalDomainError(_MATH_DOMAIN, to_source(node)) from None
    raise TypeError(f"not an expression node: {node!r}")


def eval_value(expr, x):
    """Reference float evaluation: a plain recursive walk over the tree, the
    same float operations, math calls and domain checks in post-order."""
    return float(_walk(expr, [float(v) for v in x]))


# --- reference jets ------------------------------------------------------------

# a jet to an integer power k takes k - 1 products; the reference refuses
# more than this many, so that tests can skip such trees instead of hanging
MAX_JET_POWER = 64


class PowerTooLarge(Exception):
    pass


def _symouter(u, v):
    return np.outer(u, v) + np.outer(v, u)


def _sym3(h, u):
    # h symmetric: h_ij u_k + h_jk u_i + h_ki u_j
    a = h[:, :, None] * u[None, None, :]
    return a + np.transpose(a, (2, 0, 1)) + np.transpose(a, (1, 2, 0))


@dataclass
class Jet:
    """Value, gradient, Hessian and, at order 3, the third-derivative array,
    with the Leibniz and chain rules as numpy array arithmetic."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    @staticmethod
    def constant(v, n, order=2):
        return Jet(float(v), np.zeros(n), np.zeros((n, n)),
                   np.zeros((n, n, n)) if order == 3 else None)

    @staticmethod
    def variable(v, index, n, order=2):
        jet = Jet.constant(v, n, order)
        jet.grad[index] = 1.0
        return jet

    @property
    def order(self):
        return 2 if self.third is None else 3

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(float(other), self.grad.shape[0], self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value, self.grad + o.grad, self.hess + o.hess,
                   None if self.third is None else self.third + o.third)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.grad, -self.hess,
                   None if self.third is None else -self.third)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value, self.grad - o.grad, self.hess - o.hess,
                   None if self.third is None else self.third - o.third)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        third = None
        if self.third is not None:
            third = (self.third * o.value + _sym3(self.hess, o.grad)
                     + _sym3(o.hess, self.grad) + self.value * o.third)
        return Jet(
            self.value * o.value,
            self.grad * o.value + self.value * o.grad,
            self.hess * o.value + _symouter(self.grad, o.grad) + self.value * o.hess,
            third,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def _compose(self, f0, f1, f2, f3):
        """Chain rule through a scalar function with derivatives f0..f3
        (f3 is only computed, and only used, at order 3)."""
        g, h = self.grad, self.hess
        third = None
        if self.third is not None:
            third = (f1 * self.third + f2 * _sym3(h, g)
                     + f3 * g[:, None, None] * g[None, :, None] * g[None, None, :])
        return Jet(f0, f1 * g, f1 * h + f2 * np.outer(g, g), third)

    def _reciprocal(self):
        if self.value == 0.0:
            raise _DomainViolation("division by zero")
        u = self.value
        return self._compose(1.0 / u, -1.0 / u**2, 2.0 / u**3,
                             -6.0 / u**4 if self.third is not None else None)

    def _int_pow(self, k):
        if k > MAX_JET_POWER:
            raise PowerTooLarge(k)
        if k == 0:
            return Jet.constant(1.0, self.grad.shape[0], self.order)
        if k < 0:
            return self._int_pow(-k)._reciprocal()
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __pow__(self, other):
        if isinstance(other, Jet):
            if (np.any(other.grad) or np.any(other.hess)
                    or (other.third is not None and np.any(other.third))):
                return _jet_exp(_jet_log(self) * other)
            other = other.value
        e = float(other)
        if e.is_integer():
            return self._int_pow(int(e))
        if self.value <= 0.0:
            raise _DomainViolation("real exponent needs a positive base")
        u = self.value
        return self._compose(u**e, e * u ** (e - 1.0), e * (e - 1.0) * u ** (e - 2.0),
                             e * (e - 1.0) * (e - 2.0) * u ** (e - 3.0)
                             if self.third is not None else None)

    def __rpow__(self, other):
        return self._coerce(other).__pow__(self)


def _jet_sqrt(x):
    if x.value <= 0.0:
        raise _DomainViolation("sqrt of a non-positive value")
    u = x.value
    r = math.sqrt(u)
    return x._compose(r, 0.5 / r, -0.25 / (r * u),
                      0.375 / (r * u * u) if x.third is not None else None)


def _jet_exp(x):
    e = math.exp(x.value)
    return x._compose(e, e, e, e)


def _jet_log(x):
    if x.value <= 0.0:
        raise _DomainViolation("log of a non-positive value")
    u = x.value
    return x._compose(math.log(u), 1.0 / u, -1.0 / u**2,
                      2.0 / u**3 if x.third is not None else None)


def _jet_sin(x):
    s, c = math.sin(x.value), math.cos(x.value)
    return x._compose(s, c, -s, -c)


def _jet_cos(x):
    s, c = math.sin(x.value), math.cos(x.value)
    return x._compose(c, -s, -c, s)


def _jet_tan(x):
    c = math.cos(x.value)
    if c == 0.0:
        raise _DomainViolation("tan at a pole")
    t = math.tan(x.value)
    sec2 = 1.0 + t * t
    return x._compose(t, sec2, 2.0 * t * sec2,
                      sec2 * (4.0 * t * t + 2.0 * sec2) if x.third is not None else None)


_JET_FUNCTIONS = {"sqrt": _jet_sqrt, "exp": _jet_exp, "log": _jet_log,
                  "sin": _jet_sin, "cos": _jet_cos, "tan": _jet_tan}


def _jet_walk(node, env, n, order):
    """Subtrees without coordinates stay floats; a float meeting a jet acts
    as a constant jet through the jet's (reflected) operators."""
    try:
        if isinstance(node, (Num, Const)):
            return node.value
        if isinstance(node, Var):
            return Jet.variable(env[node.index], node.index, n, order)
        if isinstance(node, Neg):
            return -_jet_walk(node.arg, env, n, order)
        if isinstance(node, Call):
            arg = _jet_walk(node.arg, env, n, order)
            if isinstance(arg, Jet):
                return _JET_FUNCTIONS[node.func](arg)
            return _float_call(node.func, arg)
        lhs_node, rhs_node = ((node.base, node.exponent) if isinstance(node, Pow)
                              else (node.lhs, node.rhs))
        lhs = _jet_walk(lhs_node, env, n, order)
        rhs = _jet_walk(rhs_node, env, n, order)
        if isinstance(node, Pow) and not isinstance(lhs, Jet) and not isinstance(rhs, Jet):
            return _float_pow(lhs, rhs)
        if isinstance(node, Add):
            return lhs + rhs
        if isinstance(node, Sub):
            return lhs - rhs
        if isinstance(node, Mul):
            return lhs * rhs
        if isinstance(node, Div):
            if not isinstance(rhs, Jet) and rhs == 0.0:
                raise _DomainViolation("division by zero")
            return lhs / rhs
        if isinstance(node, Pow):
            base = lhs if isinstance(lhs, Jet) else rhs._coerce(lhs)
            return base ** rhs
    except _DomainViolation as exc:
        raise EvalDomainError(str(exc), to_source(node)) from None
    except ZeroDivisionError:
        # only a rule coefficient c / u**k (or c / (r*u*u)) can divide by zero
        raise EvalDomainError("derivative coefficient divides by a power that "
                              "underflows to zero", to_source(node)) from None
    except EvalDomainError:
        raise
    except OverflowError:
        raise EvalDomainError(_OVERFLOW, to_source(node)) from None
    except ValueError:
        raise EvalDomainError(_MATH_DOMAIN, to_source(node)) from None
    raise TypeError(f"not an expression node: {node!r}")


def eval_jet(expr, x, order=2):
    """Reference jet of the given order: a recursive walk over the tree with
    the numpy-array jet arithmetic above."""
    env = [float(v) for v in x]
    with np.errstate(all="ignore"):
        out = _jet_walk(expr, env, len(env), order)
    return out if isinstance(out, Jet) else Jet.constant(out, len(env), order)


def _fd_steps(x, h, scale):
    """The fixed step h on every axis, or scale * (1 + |x_i|) when h is None."""
    return [h if h is not None else scale * (1.0 + abs(v)) for v in x]


def fd_derivative(fn, x, h=None):
    """Central differences ``d_a fn`` at x as ``out[a]``."""
    x = np.asarray(x, dtype=float)
    rows = []
    for a, ha in enumerate(_fd_steps(x, h, FD_SCALE)):
        up, dn = x.copy(), x.copy()
        up[a] += ha
        dn[a] -= ha
        rows.append((np.asarray(fn(up)) - np.asarray(fn(dn))) / (2.0 * ha))
    return np.array(rows)


def fd_gradient(expr, x, h=None):
    return fd_derivative(lambda p: eval_value(expr, p), x, h)


def fd_hessian(expr, x, h=None):
    x = np.asarray(x, dtype=float)
    n = len(x)
    steps = _fd_steps(x, h, FD_SCALE_2ND)
    out = np.zeros((n, n))
    f0 = eval_value(expr, x)
    for i in range(n):
        hi = steps[i]
        for j in range(i, n):
            hj = steps[j]
            if i == j:
                up, dn = x.copy(), x.copy()
                up[i] += hi
                dn[i] -= hi
                out[i, i] = (eval_value(expr, up) - 2.0 * f0 + eval_value(expr, dn)) / hi**2
            else:
                pp, pm, mp, mm = x.copy(), x.copy(), x.copy(), x.copy()
                pp[[i, j]] += [hi, hj]
                pm[i] += hi
                pm[j] -= hj
                mp[i] -= hi
                mp[j] += hj
                mm[[i, j]] -= [hi, hj]
                out[i, j] = out[j, i] = (eval_value(expr, pp) - eval_value(expr, pm)
                                         - eval_value(expr, mp)
                                         + eval_value(expr, mm)) / (4.0 * hi * hj)
    return out


def fd_third(expr, x):
    """Third derivatives: central differences of the reference Hessian, with
    the three cyclic index orders averaged."""
    third = fd_derivative(lambda p: eval_jet(expr, p).hess, x)
    return (third + np.transpose(third, (1, 2, 0)) + np.transpose(third, (2, 0, 1))) / 3.0


def fd_christoffel(metric, x, h=1e-6):
    """Christoffel symbols from centered differences of metric values only."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    dg = fd_derivative(metric.value, x, h)
    ginv = np.linalg.inv(metric.value(x))
    out = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(n))
    return out


def fd_ricci(metric, x, h=1e-4):
    """Ricci from centered differences of the (analytic) Christoffel symbols."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    gamma = metric.christoffel(x)
    dgamma = fd_derivative(metric.christoffel, x, h)
    ric = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            val = 0.0
            for i in range(n):
                val += dgamma[i, i, j, k] - dgamma[j, i, i, k]
                for m in range(n):
                    val += gamma[i, i, m] * gamma[m, j, k] - gamma[i, j, m] * gamma[m, i, k]
            ric[k, j] = val
    return ric


def laplacian(g, V, x):
    """Laplace-Beltrami operator as the g-trace of the library's covariant Hessian."""
    return float(np.einsum("ij,ij->", g.inverse(x), hessian(g, V, x)))


def laplacian_divergence_form(g, V, x):
    """Independent Laplace-Beltrami path: (1/sqrt|g|) d_i (sqrt|g| g^{ij} d_j V)."""
    gmat, dg, _ = g.jets(x)
    ginv = g.inverse(x)
    jet = eval_jet2(V.expr, x)
    sqrtdet = np.sqrt(np.linalg.det(gmat))
    dginv = g.inverse_jacobian(x)
    # d_a sqrt(det g) = 1/2 sqrt(det g) tr(g^{-1} d_a g)
    dsqrt = 0.5 * sqrtdet * np.einsum("ij,aji->a", ginv, dg)
    flux_div = (np.einsum("i,ij,j->", dsqrt, ginv, jet.grad)
                + sqrtdet * np.einsum("iij,j->", dginv, jet.grad)
                + sqrtdet * np.einsum("ij,ij->", ginv, jet.hess))
    return float(flux_div / sqrtdet)


# --- dense reference for the structure solver -----------------------------------
# The recovery system as one Kronecker-structured matrix A = grads (x) I_P: the
# unknowns c[k*P + p] = T[k, i_p, j_p] run over the P pairs i_p <= j_p in
# row-major order, the rows over (potential a, pair p).  The g-trace
# constraint is G c = 0, solved inside an SVD nullspace basis of G.


def loop_matrix(grads, pairs, n):
    P = len(pairs)
    m = grads.shape[0]
    A = np.zeros((m * P, n * P))
    for a in range(m):
        for p in range(P):
            row = a * P + p
            for k in range(n):
                A[row, k * P + p] = grads[a, k]
    return A


def loop_trace_constraint(ginv, pairs, n):
    P = len(pairs)
    G = np.zeros((n, n * P))
    for k in range(n):
        for p, (i, j) in enumerate(pairs):
            G[k, k * P + p] = ginv[i, j] * (1.0 if i == j else 2.0)
    return G


def reference_family_jets(family, x, order):
    """(grads, hessians[, thirds]) of every potential from the reference jets,
    stacked."""
    jets = [eval_jet(V.expr, x, order) for V in family.potentials]
    out = [np.array([jet.grad for jet in jets]), np.array([jet.hess for jet in jets])]
    if order == 3:
        out.append(np.array([jet.third for jet in jets]))
    return out


def dense_recovery(metric, family, x, trace_free):
    """(X, residual, dX) from the dense constrained system: X = T when
    ``trace_free`` (rhs nabla^2 V - (1/n) g Laplacian V, constraint G c = 0),
    else X = D (rhs nabla^2 V, no constraint).  dX[m] solves the same system
    with differentiated data, one axis at a time; the constraint becomes
    G c' = -dG c."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    iu, ju = np.triu_indices(n)
    pairs = list(zip(iu, ju))
    gmat, dgmat, _ = metric.jets(x)
    ginv, dginv = metric.inverse(x), metric.inverse_jacobian(x)
    gamma, dgamma = metric.christoffel(x), metric.christoffel_jacobian(x)
    grads, hesses, thirds = reference_family_jets(family, x, 3)
    rhs = hesses - np.einsum("kij,ak->aij", gamma, grads)
    drhs = (thirds - np.einsum("mkij,ak->amij", dgamma, grads)
            - np.einsum("kij,amk->amij", gamma, hesses))
    if trace_free:
        lap = np.einsum("ij,aij->a", ginv, rhs)
        dlap = np.einsum("mij,aij->am", dginv, rhs) + np.einsum("ij,amij->am", ginv, drhs)
        drhs = drhs - (np.einsum("mij,a->amij", dgmat, lap)
                       + np.einsum("ij,am->amij", gmat, dlap)) / n
        rhs = rhs - np.einsum("ij,a->aij", gmat, lap) / n
        G = loop_trace_constraint(ginv, pairs, n)
        _, sing, vt = np.linalg.svd(G)
        Z = vt[int(np.sum(sing > 1e-10 * sing[0])):].T
    else:
        Z = np.eye(n * len(pairs))

    def unpacked(c):
        T = np.zeros((n, n, n))
        T[:, iu, ju] = T[:, ju, iu] = c.reshape(n, -1)
        return T

    A = loop_matrix(grads, pairs, n)
    b = rhs[:, iu, ju].ravel()
    y, _, _, _ = np.linalg.lstsq(A @ Z, b, rcond=1e-10)
    c = Z @ y
    dX = np.zeros((n, n, n, n))
    for m in range(n):
        fit = drhs[:, m, iu, ju].ravel() - loop_matrix(hesses[:, m, :], pairs, n) @ c
        c0 = np.zeros_like(c)
        if trace_free:
            c0 = np.linalg.pinv(G, rcond=1e-10) @ (-loop_trace_constraint(dginv[m], pairs, n) @ c)
        y, _, _, _ = np.linalg.lstsq(A @ Z, fit - A @ c0, rcond=1e-10)
        dX[m] = unpacked(c0 + Z @ y)
    return unpacked(c), float(np.max(np.abs(A @ c - b))), dX


def brute_force_structure_tensor(metric, family, x):
    """Recover T[k,i,j] with no basis reduction: all n^3 components unknown,
    pair symmetry and g-tracelessness appended as equations of the stacked
    least-squares system."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    ginv = np.linalg.inv(metric.value(x))
    gamma = metric.christoffel(x)
    rows, rhs = [], []

    def col(k, i, j):
        return (k * n + i) * n + j

    for V in family.potentials:
        jet = eval_jet2(V.expr, x)
        hess_cov = jet.hess - np.einsum("kij,k->ij", gamma, jet.grad)
        lap = float(np.einsum("ij,ij->", ginv, hess_cov))
        target = hess_cov - metric.value(x) * lap / n
        for i in range(n):
            for j in range(n):
                row = np.zeros(n**3)
                for k in range(n):
                    row[col(k, i, j)] = jet.grad[k]
                rows.append(row)
                rhs.append(target[i, j])
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(n**3)
                row[col(k, i, j)] = 1.0
                row[col(k, j, i)] = -1.0
                rows.append(row)
                rhs.append(0.0)
        row = np.zeros(n**3)
        for i in range(n):
            for j in range(n):
                row[col(k, i, j)] = ginv[i, j]
        rows.append(row)
        rhs.append(0.0)
    A = np.array(rows)
    b = np.array(rhs)
    c, _, _, _ = np.linalg.lstsq(A, b, rcond=1e-10)
    residual = float(np.max(np.abs(A @ c - b)))
    return c.reshape(n, n, n), residual


def brute_force_s(metric, family, x):
    """Per-point linear solve of Laplacian(V) = s(dV) over the family."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    ginv = np.linalg.inv(metric.value(x))
    gamma = metric.christoffel(x)
    rows, rhs = [], []
    for V in family.potentials:
        jet = eval_jet2(V.expr, x)
        hess_cov = jet.hess - np.einsum("kij,k->ij", gamma, jet.grad)
        rows.append(jet.grad)
        rhs.append(float(np.einsum("ij,ij->", ginv, hess_cov)))
    A, b = np.array(rows), np.array(rhs)
    s, _, _, _ = np.linalg.lstsq(A, b, rcond=1e-10)
    return s, float(np.max(np.abs(A @ s - b)))


def dense_polyline_distances(queries, poly):
    """Distance from each query to a polyline and the arc coordinate of the
    nearest point, from every query-segment pair at once.  Ties go to the
    first segment; a single-vertex polyline is that point at arc 0."""
    queries = np.atleast_2d(queries)
    if len(poly) == 1:
        return np.linalg.norm(queries - poly[0], axis=1), np.zeros(len(queries))
    a = poly[:-1]
    ab = poly[1:] - poly[:-1]
    seg_len = np.linalg.norm(ab, axis=1)
    len2 = np.einsum("mi,mi->m", ab, ab)
    safe_len2 = np.where(len2 == 0.0, 1.0, len2)
    dif = queries[:, None, :] - a[None, :, :]
    s = np.clip(np.einsum("qmi,mi->qm", dif, ab) / safe_len2, 0.0, 1.0)
    s = np.where(len2 == 0.0, 0.0, s)
    closest = dif - s[:, :, None] * ab[None, :, :]
    d2 = np.einsum("qmi,qmi->qm", closest, closest)
    best = np.argmin(d2, axis=1)
    rows = np.arange(len(queries))
    arc_starts = np.concatenate([[0.0], np.cumsum(seg_len)])
    return np.sqrt(d2[rows, best]), arc_starts[best] + s[rows, best] * seg_len[best]


def window_polyline_distances(queries, lo, hi, poly):
    """Distance and nearest-point arc coordinate of each query over only the
    segments whose arc meets [lo[k], hi[k]], one query at a time by the
    per-pair formula of :func:`dense_polyline_distances`, and whether the
    nearest is the window's first or last segment but not the polyline's."""
    queries = np.atleast_2d(queries)
    if len(poly) == 1:
        d, arcs = dense_polyline_distances(queries, poly)
        return d, arcs, np.zeros(len(queries), dtype=bool)
    ab = poly[1:] - poly[:-1]
    seg_len = np.linalg.norm(ab, axis=1)
    len2 = np.einsum("mi,mi->m", ab, ab)
    arc_starts = np.concatenate([[0.0], np.cumsum(seg_len)])
    d, arcs, edge = [], [], []
    for q, a, b in zip(queries, lo, hi):
        window = np.flatnonzero((arc_starts[:-1] <= b) & (arc_starts[1:] >= a))
        dif = q - poly[window]
        safe_len2 = np.where(len2[window] == 0.0, 1.0, len2[window])
        s = np.clip(np.einsum("mi,mi->m", dif, ab[window]) / safe_len2, 0.0, 1.0)
        s = np.where(len2[window] == 0.0, 0.0, s)
        closest = dif - s[:, None] * ab[window]
        d2 = np.einsum("mi,mi->m", closest, closest)
        best = np.argmin(d2)
        j = window[best]
        d.append(np.sqrt(d2[best]))
        arcs.append(arc_starts[j] + s[best] * seg_len[j])
        edge.append(j == window[0] > 0 or j == window[-1] < len(ab) - 1)
    return np.array(d), np.array(arcs), np.array(edge, dtype=bool)


def reference_json(traj) -> str:
    """A trajectory's JSON export as one ``json.dump(..., indent=2)`` of the
    whole document, every sample a 17-digit string, plus a newline."""
    doc = {
        "metadata": {
            "method": traj.method,
            "step": f"{traj.step:.17g}",
            "connection": traj.connection_tag,
            "exit_reason": traj.exit_reason,
            "samples": int(len(traj.tau)),
            "dimension": int(traj.x.shape[1]),
        },
        "tau": [f"{v:.17g}" for v in traj.tau],
        "x": [[f"{v:.17g}" for v in row] for row in traj.x],
        "p": [[f"{v:.17g}" for v in row] for row in traj.p],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_csv(traj) -> str:
    """A trajectory's CSV export, written one row at a time."""
    n = traj.x.shape[1]
    lines = ["tau," + ",".join(f"x{i+1}" for i in range(n)) + ","
             + ",".join(f"p{i+1}" for i in range(n))]
    for row in range(len(traj.tau)):
        vals = [traj.tau[row], *traj.x[row], *traj.p[row]]
        lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


# --- the connection family, tag by tag -------------------------------------------
# One formula per tag, each with its own operation order: the Levi-Civita
# symbols minus sign * T, B = T + ((n+2)/n) g (x) t^sharp, D; the dagger
# companion (Gamma - D) plus the trace shift; F = B plus the metric-dzeta
# product.  Only the connections a suite differentiates have a Jacobian: LC,
# dGamma - sign * dT for the T of a nondegenerate fixture and dGamma - sign *
# dD; B, a semi-degenerate fixture's extracted T, dagger and F have none.


def tags_without_jacobian(fixture):
    """The tags of the connections ``fixture`` builds without a Jacobian,
    whose jacobian() and ricci() raise."""
    extracted = ("+T", "-T") if fixture.is_semidegenerate else ()
    return ("+B", "-B", *extracted, "dagger", "+F", "-F")


def buildable_tags(fixture):
    """The tags of CONNECTION_TAGS whose connection the fixture builds, in
    that order: every tag for which ``fixture.connection`` raises no
    FixtureError."""
    buildable = []
    for tag in CONNECTION_TAGS:
        try:
            fixture.connection(tag)
        except FixtureError:
            continue
        buildable.append(tag)
    return buildable


def reference_b_tensor(T, gmat, ginv, n):
    """B = T + b * g (x) t^sharp from the values of T, g and g^-1 at a point
    or over a stack, in einsum form.  g^-1 tau sums over j from left to
    right, as float arithmetic does: matmul leaves the order, and the use of
    fused multiply-add, to the BLAS kernel the CPU selects."""
    tau = np.einsum("...iij->...j", T)
    raised = ginv[..., 0] * tau[..., :1]
    for j in range(1, n):
        raised = raised + ginv[..., j] * tau[..., j:j + 1]
    t_up = conv.t_coefficient(n) * raised
    return T + conv.b_coefficient(n) * np.einsum("...ij,...k->...kij", gmat, t_up)


def reference_coefficients(fixture, tag, x, zeta=None):
    """Gamma[k, i, j] of connection ``tag`` at a point or a (..., n) stack."""
    g = fixture.metric
    n = fixture.n
    gamma = g.christoffel(x)
    if tag == "LC":
        return gamma
    if tag == "dagger":
        return (gamma - fixture.prolongation_tensor(x)) + conv.DAGGER_TRACE_SIGN * np.einsum(
            "...k,...ij->...kij", fixture.s_vector(x), g.value(x)) / n
    sign = +1.0 if tag[0] == "+" else -1.0
    if tag[1:] == "T":
        return gamma - sign * fixture.structure_tensor(x)
    if tag[1:] == "D":
        return gamma - sign * fixture.prolongation_tensor(x)
    gmat = g.value(x)
    A = reference_b_tensor(fixture.structure_tensor(x), gmat, g.inverse(x), n)
    if tag[1:] == "F":
        zfield = zeta if zeta is not None else fixture.zeta
        A = A + np.einsum("...kl,...ijl->...kij", g.inverse(x),
                          sym_product_metric_form(gmat, zfield.gradient(x))) / (2.0 * (n - 2))
    return gamma - sign * A


def reference_jacobian(fixture, tag, x):
    """dGamma[a, k, i, j] of connection ``tag`` at one point; the tags of
    tags_without_jacobian(fixture) have none."""
    g = fixture.metric
    if tag == "LC":
        return g.christoffel_jacobian(x)
    sign = +1.0 if tag[0] == "+" else -1.0
    if tag[1:] == "D":
        return g.christoffel_jacobian(x) - sign * fixture.prolongation_jacobian(x)
    return g.christoffel_jacobian(x) - sign * fixture.structure_tensor_jacobian(x)


# The grid checks one point at a time: the loops the package's blocked checks
# replaced, with the single-point operation order of each formula.  Every
# blocked check must round each row exactly as these do.


def pointwise_dual_projective(conn_a, conn_b, g, points):
    """(max residual, alpha lowered with g, one row per point)."""
    worst, alphas = 0.0, []
    for x in points:
        d = conn_a.coefficients(x) - conn_b.coefficients(x)
        gmat = g.value(x)
        ginv = g.inverse(x)
        alpha_up = np.einsum("kij,ij->k", d, ginv) / g.n
        resid = d - np.einsum("k,ij->kij", alpha_up, gmat)
        worst = max(worst, float(np.max(np.abs(resid))))
        alphas.append(gmat @ alpha_up)
    return worst, np.array(alphas)


def _pointwise_metric_gradient(conn, h, x):
    gamma = conn.coefficients(x)
    hmat, dh, _ = h.jets(x)
    corr = np.einsum("mij,mk->ijk", gamma, hmat)
    return dh - corr - np.einsum("ikj->ijk", corr)


def _pointwise_antisymmetrized_gradient(conn, h, x):
    grad_h = _pointwise_metric_gradient(conn, h, x)
    return grad_h - np.einsum("jik->ijk", grad_h)


def pointwise_semi_compatibility(conn, h, points, expected_beta=None):
    """(max residual, alpha rows, max ||alpha - beta|| or None)."""
    n = h.n
    worst = worst_beta = 0.0
    alphas = []
    for x in points:
        a = _pointwise_antisymmetrized_gradient(conn, h, x)
        hmat = h.value(x)
        alpha = np.einsum("ik,ijk->j", h.inverse(x), a) / (n - 1)
        model = (np.einsum("j,ik->ijk", alpha, hmat)
                 - np.einsum("i,jk->ijk", alpha, hmat))
        worst = max(worst, float(np.max(np.abs(a - model))))
        alphas.append(alpha)
        if expected_beta is not None:
            beta = np.asarray(expected_beta(x), dtype=float)
            worst_beta = max(worst_beta, float(np.max(np.abs(alpha - beta))))
    return worst, np.array(alphas), (worst_beta if expected_beta is not None else None)


def pointwise_compatibility(conn, h, points):
    return max(float(np.max(np.abs(_pointwise_antisymmetrized_gradient(conn, h, x))))
               for x in points)


def pointwise_ricci_symmetry(conn, points):
    worst = 0.0
    for x in points:
        gamma = conn.coefficients(x)
        dgamma = conn.jacobian(x)
        ric = (np.einsum("iijk->kj", dgamma) - np.einsum("jiik->kj", dgamma)
               + np.einsum("iim,mjk->kj", gamma, gamma)
               - np.einsum("ijm,mik->kj", gamma, gamma))
        worst = max(worst, float(np.max(np.abs(ric - ric.T))))
    return worst


def _pointwise_obstruction(g, D, s_cov, x):
    """(N, t, gmat) at one point, with the single-point build_N formula."""
    n = g.n
    gmat = g.value(x)
    t_cov = conv.t_coefficient(n) * (np.einsum("iij->j", D) - s_cov / n)
    Dn = conv.N_DIFFERENCE_ORIENTATION * np.einsum("kl,lij->ijk", gmat, D)
    gd = np.einsum("ab,c->abc", gmat, (n + 2) * t_cov - s_cov)
    hook = (2.0 * Dn - np.einsum("acb->abc", Dn) - np.einsum("bca->abc", Dn)) / 3.0
    trace_part = (2.0 * gd - np.einsum("acb->abc", gd) - np.einsum("bca->abc", gd)) / (
        3.0 * (n - 1))
    return hook + trace_part, t_cov, gmat


def pointwise_classification_norm(g, prolongation_fn, s_cov_fn, points):
    return max(float(np.max(np.abs(
        _pointwise_obstruction(g, prolongation_fn(x), s_cov_fn(x), x)[0])))
        for x in points)


def pointwise_extracted_T(fixture, x):
    g = fixture.metric
    return fixture.prolongation_tensor(x) - np.einsum("ij,k->kij", g.value(x),
                                                      fixture.s_vector(x)) / g.n


def pointwise_beta_condition(g, conn_d, D_fn, s_cov_fn, points):
    n = g.n
    worst = 0.0
    for x in points:
        lhs = _pointwise_antisymmetrized_gradient(conn_d, g, x)
        s_cov = s_cov_fn(x)
        N, t_cov, gmat = _pointwise_obstruction(g, D_fn(x), s_cov, x)
        phi = (s_cov - (n + 2) * t_cov) / n
        rhs = (np.einsum("jki->ijk", N) - np.einsum("ikj->ijk", N)
               + np.einsum("i,jk->ijk", phi, gmat)
               - np.einsum("j,ik->ijk", phi, gmat))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _pointwise_inverse_jacobian(g, x):
    ginv = g.inverse(x)
    return -np.einsum("ip,apq,qj->aij", ginv, g.jets(x)[1], ginv)


def pointwise_killing(g, K, points):
    worst = 0.0
    for x in points:
        # covariant derivative of the covariant 2-tensor K, slot by slot
        gamma = g.christoffel(x)
        vals, nk = K.jets(x)
        nk = nk.copy()
        for slot in range(2):
            corr = -np.einsum("mak,m...->ak...", gamma, np.moveaxis(vals, slot, 0))
            nk += np.moveaxis(corr, 1, slot + 1)
        sym = (nk + np.einsum("jki->ijk", nk) + np.einsum("kij->ijk", nk)) / 3.0
        worst = max(worst, float(np.max(np.abs(sym))))
    return worst


def pointwise_bertrand_darboux(g, K, V, points):
    worst = 0.0
    for x in points:
        ginv = g.inverse(x)
        dginv = _pointwise_inverse_jacobian(g, x)
        kvals, dk = K.jets(x)
        jet = eval_jet2(V.expr, x)
        k_mixed = np.einsum("mk,kj->mj", ginv, kvals)
        dk_mixed = (np.einsum("amk,kj->amj", dginv, kvals)
                    + np.einsum("mk,akj->amj", ginv, dk))
        domega = (np.einsum("imj,m->ij", dk_mixed, jet.grad)
                  + np.einsum("mj,im->ij", k_mixed, jet.hess))
        worst = max(worst, float(np.max(np.abs(domega - domega.T))))
    return worst


def pointwise_poisson(g, V, K, W, points, momenta):
    worst = 0.0
    for x in points:
        ginv = g.inverse(x)
        dginv = _pointwise_inverse_jacobian(g, x)
        kvals, dk = K.jets(x)
        k_up = np.einsum("ia,jb,ab->ij", ginv, ginv, kvals)
        dk_up = (np.einsum("mia,jb,ab->mij", dginv, ginv, kvals)
                 + np.einsum("ia,mjb,ab->mij", ginv, dginv, kvals)
                 + np.einsum("ia,jb,mab->mij", ginv, ginv, dk))
        dV = eval_jet2(V.expr, x).grad
        dW = eval_jet2(W.expr, x).grad
        for p in momenta:
            p = np.asarray(p, dtype=float)
            dH_dx = np.einsum("mij,i,j->m", dginv, p, p) + dV
            dH_dp = 2.0 * ginv @ p
            dF_dx = np.einsum("mij,i,j->m", dk_up, p, p) + dW
            dF_dp = 2.0 * k_up @ p
            worst = max(worst, abs(float(dH_dx @ dF_dp - dH_dp @ dF_dx)))
    return worst


def digamma_residuals_claim_by_claim(fixture, per_axis):
    """The digamma suite's residuals by claim id, plus its fixture-zeta note
    value under ``"zeta_residual"``, each reduced by its own ``grid_max``
    pass over the grid, with the suite's test zetas (``x1`` and ``5``)."""
    g, n = fixture.metric, fixture.n
    grid = fixture.grid(per_axis)
    zeta_linear = ScalarField.from_source("x1", n)
    conn_b = {s: fixture.connection(f"{s}B") for s in "+-"}
    conn_f = {s: fixture.connection(f"{s}F", zeta=zeta_linear) for s in "+-"}

    def gap(conn_a, conn_c):
        return grid_max(lambda x: conn_a.coefficients(x) - conn_c.coefficients(x), grid)

    def codazzi(conn):
        def defect(x):
            gamma = conn.coefficients(x)
            hmat, dh, _ = g.jets(x)
            corr = np.einsum("...mij,...mk->...ijk", gamma, hmat)
            grad = dh - corr - np.einsum("...ikj->...ijk", corr)
            return grad - np.einsum("...jik->...ijk", grad)

        return grid_max(defect, grid)

    def identity(x):
        gmat = g.value(x)
        target = sym_product_metric_form(gmat, zeta_linear.gradient(x)) / (2.0 * (n - 2))
        return np.stack([np.einsum("...kl,...lij->...ijk", gmat,
                                   conn_f[s].coefficients(x) - conn_b[s].coefficients(x))
                         - orient * target for s, orient in (("-", +1.0), ("+", -1.0))])

    out = {
        "rd.difference_identity": grid_max(identity, grid),
        "rd.codazzi_f": codazzi(conn_f["+"]),
        "rd.codazzi_b": codazzi(conn_b["+"]),
        "rd.constant_zeta_coincidence": gap(
            fixture.connection("+F", zeta=ScalarField.from_source("5", n)), conn_b["+"]),
        "rd.negative_control.nonconstant_zeta": gap(conn_f["+"], conn_b["+"]),
    }
    if fixture.zeta is not None:
        out["rd.fixture_zeta"] = gap(fixture.connection("+F"), conn_b["+"])
        out["zeta_residual"] = grid_max(lambda x: build_Z_and_digamma(
            g, fixture.structure_tensor(x), fixture.zeta, x).zeta_residual, grid)
    return out


def weyl_residuals_claim_by_claim(fixture, per_axis):
    """The Weyl suite's residuals by claim id, plus the t scale that gates its
    Levi-Civita control under ``"t_scale"``, each reduced by its own
    ``grid_max`` pass over the grid."""
    g = fixture.metric
    grid = fixture.grid(per_axis)
    bcoef = conv.b_coefficient(fixture.n)

    def total_symmetry_defect(conn):
        def asymmetry(x):
            hmat, dh, _ = g.jets(x)
            corr = np.einsum("...mij,...mk->...ijk", conn.coefficients(x), hmat)
            w = (dh - corr - np.einsum("...ikj->...ijk", corr)
                 - bcoef * np.einsum("...i,...jk->...ijk", fixture.t_covector(x), g.value(x)))
            return np.stack([w - np.einsum(f"...{perm}->...ijk", w)
                             for perm in ("ikj", "jik", "jki", "kij", "kji")])

        return grid_max(asymmetry, grid)

    out = {"weyl.total_symmetry": total_symmetry_defect(fixture.connection("+T")),
           "t_scale": grid_max(fixture.t_covector, grid)}
    if not out["t_scale"] <= 1e-6:
        out["weyl.negative_control.levi_civita"] = total_symmetry_defect(
            fixture.connection("LC"))
    return out


def theorem1_grid_residuals_claim_by_claim(fixture, per_axis, seed, trajectory_count):
    """The residuals of theorem 1's uniqueness and Ricci claims by claim id,
    plus its remainder-defect note values under ``"s_sym"`` and ``"s_tr"``,
    each reduced by its own pass over the grid (the shifted connections and
    the starts drawn from ``seed`` in the suite's order)."""
    from dualgeo.connections import (
        compatibility_residual, connection_ricci_symmetry_check, shift_by_one_form,
    )
    from dualgeo.theorems import _seeded_initial_conditions

    rng = np.random.default_rng(seed)
    g, n = fixture.metric, fixture.n
    grid = fixture.grid(per_axis)

    def remainder(x):
        return decompose(fixture.structure_tensor(x), g.value(x), g.inverse(x))

    out = {"s_sym": grid_max(lambda x: remainder(x).symmetry_defect, grid),
           "s_tr": grid_max(lambda x: remainder(x).trace_defect, grid)}
    for pm, lbl in (("+", "plus"), ("-", "minus")):
        conn_t = fixture.connection(pm + "T")
        _seeded_initial_conditions(fixture, rng, trajectory_count)
        worst_best = np.inf
        for _ in range(5):
            beta = rng.normal(size=n)
            beta *= (0.5 + rng.random()) / np.linalg.norm(beta)
            shifted = shift_by_one_form(conn_t, g, lambda _x, _b=beta: _b)
            worst_best = min(worst_best, compatibility_residual(shifted, g, grid))
        out[f"t1.uniqueness.{lbl}"] = worst_best
        out[f"t1.ricci_symmetry.{lbl}"] = connection_ricci_symmetry_check(conn_t, grid)
    return out
