"""Independent oracles used to pin expected values.

Everything here deliberately avoids the library's own code paths: a plain
recursive walk over expression trees for values, finite differences of those
values, a brute-force recovery that
parametrizes the full unconstrained tensor with symmetry and trace conditions
appended as extra equations, and a dense nearest-segment scan over every
query-segment pair at once.  Expected values asserted in the tests were
computed with these oracles (or by hand) before being frozen.
"""

import math

import numpy as np

from dualgeo.expressions import (
    Add, Call, Const, Div, EvalDomainError, Mul, Neg, Num, Pow, Sub, Var,
    to_source,
)

FD_H = 1e-5       # first differences
FD_H2 = 1e-4      # stencils dividing by h^2


class _DomainViolation(Exception):
    pass


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
    raise TypeError(f"not an expression node: {node!r}")


def eval_value(expr, x):
    """Reference float evaluation: a plain recursive walk over the tree, the
    same float operations, math calls and domain checks in post-order."""
    return float(_walk(expr, [float(v) for v in x]))


def fd_gradient(expr, x, h=FD_H):
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (eval_value(expr, up) - eval_value(expr, dn)) / (2 * h)
    return out


def fd_hessian(expr, x, h=FD_H2):
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros((n, n))
    f0 = eval_value(expr, x)
    for i in range(n):
        for j in range(n):
            if i == j:
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                out[i, i] = (eval_value(expr, up) - 2 * f0 + eval_value(expr, dn)) / h**2
            else:
                pp, pm, mp, mm = x.copy(), x.copy(), x.copy(), x.copy()
                pp[[i, j]] += h
                pm[i] += h
                pm[j] -= h
                mp[i] -= h
                mp[j] += h
                mm[[i, j]] -= h
                out[i, j] = (eval_value(expr, pp) - eval_value(expr, pm)
                             - eval_value(expr, mp) + eval_value(expr, mm)) / (4 * h**2)
    return out


def fd_christoffel(metric, x, h=1e-6):
    """Christoffel symbols from centered differences of metric values only."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    dg = np.zeros((n, n, n))
    for a in range(n):
        up, dn = x.copy(), x.copy()
        up[a] += h
        dn[a] -= h
        dg[a] = (metric.value(up) - metric.value(dn)) / (2 * h)
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
    dgamma = np.zeros((n, n, n, n))
    for a in range(n):
        up, dn = x.copy(), x.copy()
        up[a] += h
        dn[a] -= h
        dgamma[a] = (metric.christoffel(up) - metric.christoffel(dn)) / (2 * h)
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
        jet = V.jet2(x)
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
        jet = V.jet2(x)
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
