"""Truncated-Taylor (jet) arithmetic and compiled expression evaluation.

A :class:`Jet` carries the value, gradient and Hessian of a scalar at a point,
and at order 3 its third-derivative array.  Arithmetic propagates the Leibniz
and chain rules (the Taylor arithmetic of Griewank & Walther, *Evaluating
Derivatives*), so evaluating an expression on seeded jets yields derivatives
exact to roundoff.  Hessians are exactly symmetric by construction: every
second-order term is assembled from symmetric building blocks (``u (x) v +
v (x) u`` and scalar multiples of symmetric matrices), which commutativity of
IEEE addition and multiplication keeps bitwise symmetric.

:func:`compile` turns a list of trees into straight-line Python code once.
Each distinct subtree is one assignment, in the post-order of a walk over the
tree, with its domain check (division by zero, sqrt or log of a non-positive
value, tan at a pole, a real power of a non-positive base) right before it, so
values, overflow errors and :class:`EvalDomainError` messages are those of the
walk.  On jets, subtrees without coordinates stay floats.  Tree literals and
subexpression texts live in the code's namespace, never in its source text.

Central finite differences are kept alongside as the independent cross-check
(and as the fallback third-derivative path).  First-difference stencils use
the usual optimal step ``cbrt(eps) * (1 + |x_i|)``; stencils that divide by
h^2 (direct Hessian entries) use the fourth-root step instead, since at
cbrt(eps) their roundoff term eps/h^2 alone already exceeds 1e-6 relative.
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import (
    FUNCTIONS, Add, Call, Const, Div, EvalDomainError, Expression, Mul, Neg,
    Num, Pow, Sub, Var, to_source,
)

FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))        # ~6.06e-6
FD_STEP_SCALE_2ND = float(np.finfo(float).eps ** 0.25)     # ~1.22e-4

_DIVISION_BY_ZERO = "division by zero"
_POSITIVE_BASE = "real exponent needs a positive base"
_NON_POSITIVE = {"sqrt": "sqrt of a non-positive value",
                 "log": "log of a non-positive value"}
_POLE = "tan at a pole"


class _DomainViolation(Exception):
    """Internal: raised by jet/scalar primitives, annotated by compiled code."""


def _symouter(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.outer(u, v) + np.outer(v, u)


def _sym3(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    # h symmetric: h_ij u_k + h_jk u_i + h_ki u_j
    a = h[:, :, None] * u[None, None, :]
    return a + np.transpose(a, (2, 0, 1)) + np.transpose(a, (1, 2, 0))


@dataclass
class Jet:
    """Value, gradient, Hessian and, at order 3, the symmetric third-derivative
    array of a scalar at a point (``third`` is None at order 2)."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    @staticmethod
    def constant(v: float, n: int, order: int = 2) -> "Jet":
        return Jet(float(v), np.zeros(n), np.zeros((n, n)),
                   np.zeros((n, n, n)) if order == 3 else None)

    @staticmethod
    def variable(v: float, index: int, n: int, order: int = 2) -> "Jet":
        jet = Jet.constant(v, n, order)
        jet.grad[index] = 1.0
        return jet

    @property
    def order(self) -> int:
        return 2 if self.third is None else 3

    def _coerce(self, other) -> "Jet":
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

    def _compose(self, f0: float, f1: float, f2: float, f3: float | None) -> "Jet":
        """Chain rule through a scalar function with derivatives f0..f3
        (f3 is only computed, and only used, at order 3)."""
        g, h = self.grad, self.hess
        third = None
        if self.third is not None:
            third = (f1 * self.third + f2 * _sym3(h, g)
                     + f3 * g[:, None, None] * g[None, :, None] * g[None, None, :])
        return Jet(f0, f1 * g, f1 * h + f2 * np.outer(g, g), third)

    def _reciprocal(self) -> "Jet":
        if self.value == 0.0:
            raise _DomainViolation(_DIVISION_BY_ZERO)
        u = self.value
        return self._compose(1.0 / u, -1.0 / u**2, 2.0 / u**3,
                             -6.0 / u**4 if self.third is not None else None)

    def _int_pow(self, k: int) -> "Jet":
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
            raise _DomainViolation(_POSITIVE_BASE)
        u = self.value
        return self._compose(u**e, e * u ** (e - 1.0), e * (e - 1.0) * u ** (e - 2.0),
                             e * (e - 1.0) * (e - 2.0) * u ** (e - 3.0)
                             if self.third is not None else None)

    def __rpow__(self, other):
        return self._coerce(other).__pow__(self)


def _jet_sqrt(x: Jet) -> Jet:
    if x.value <= 0.0:
        raise _DomainViolation(_NON_POSITIVE["sqrt"])
    u = x.value
    r = math.sqrt(u)
    return x._compose(r, 0.5 / r, -0.25 / (r * u),
                      0.375 / (r * u * u) if x.third is not None else None)


def _jet_exp(x: Jet) -> Jet:
    e = math.exp(x.value)
    return x._compose(e, e, e, e)


def _jet_log(x: Jet) -> Jet:
    if x.value <= 0.0:
        raise _DomainViolation(_NON_POSITIVE["log"])
    u = x.value
    return x._compose(math.log(u), 1.0 / u, -1.0 / u**2,
                      2.0 / u**3 if x.third is not None else None)


def _jet_sin(x: Jet) -> Jet:
    s, c = math.sin(x.value), math.cos(x.value)
    return x._compose(s, c, -s, -c)


def _jet_cos(x: Jet) -> Jet:
    s, c = math.sin(x.value), math.cos(x.value)
    return x._compose(c, -s, -c, s)


def _jet_tan(x: Jet) -> Jet:
    c = math.cos(x.value)
    if c == 0.0:
        raise _DomainViolation(_POLE)
    t = math.tan(x.value)
    sec2 = 1.0 + t * t
    return x._compose(t, sec2, 2.0 * t * sec2,
                      sec2 * (4.0 * t * t + 2.0 * sec2) if x.third is not None else None)


def _float_pow(base: float, e: float) -> float:
    if e.is_integer():
        if base == 0.0 and e < 0:
            raise _DomainViolation(_DIVISION_BY_ZERO)
        return base ** int(e)
    if base <= 0.0:
        raise _DomainViolation(_POSITIVE_BASE)
    return base**e


# --- Compiler ---------------------------------------------------------------

# what generated code may name besides its locals and bound literals
_NAMESPACE = {
    "_float": float, "_var": Jet.variable, "_const": Jet.constant,
    "_Domain": EvalDomainError, "_Violation": _DomainViolation,
    "_float_pow": _float_pow, "_cos": math.cos,
    **{f"_float_{f}": getattr(math, f) for f in FUNCTIONS},
    **{f"_jet_{f}": globals()[f"_jet_{f}"] for f in FUNCTIONS},
}
_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


class _Writer:
    """Emits the straight-line body of one compiled function."""

    def __init__(self, jets: bool):
        self.jets = jets
        self.lines: list[str] = []
        self.namespace = dict(_NAMESPACE)
        self.memo: dict[tuple, tuple[str, bool]] = {}

    def bind(self, value) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def guard(self, condition: str, message: str, node: Expression) -> None:
        """A float domain check, right before the operation it guards."""
        self.lines += [f"if {condition}:", f"    raise _Domain({self.bind(message)}, "
                       f"{self.bind(to_source(node))})"]

    def checked(self, statement: str, node: Expression) -> None:
        """An operation whose domain violation is reported as node's."""
        self.lines += ["try:", f"    {statement}", "except _Violation as exc:",
                       f"    raise _Domain(str(exc), {self.bind(to_source(node))}) from None"]

    def visit(self, node: Expression) -> tuple[str, bool]:
        """Emit node unless an equal subtree already was; return the name that
        holds its value and whether that value is a jet."""
        if isinstance(node, (Num, Const)):
            args, key = (), (type(node), getattr(node, "name", None), repr(node.value))
        elif isinstance(node, Var):
            args, key = (), (Var, node.name, node.index)
        elif isinstance(node, (Neg, Call)):
            args = (self.visit(node.arg),)
            key = (type(node), getattr(node, "func", None), *args)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            args = (self.visit(node.lhs), self.visit(node.rhs))
            key = (type(node), *args)
        elif isinstance(node, Pow):
            args = (self.visit(node.base), self.visit(node.exponent))
            key = (Pow, *args)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self.assign(node, args)
        return hit

    def assign(self, node: Expression, args) -> tuple[str, bool]:
        if isinstance(node, (Num, Const)):
            return self.bind(node.value), False
        out = f"t{len(self.memo)}"
        if isinstance(node, Var):
            i = int(node.index)
            self.lines.append(f"{out} = _var(x[{i}], {i}, n, order)" if self.jets
                              else f"{out} = _float(x[{i}])")
            return out, self.jets
        names = [name for name, _ in args]
        jet = any(is_jet for _, is_jet in args)
        if isinstance(node, Neg):
            self.lines.append(f"{out} = -{names[0]}")
        elif isinstance(node, Div) and args[1][1]:
            self.checked(f"{out} = {names[0]} / {names[1]}", node)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            if isinstance(node, Div):
                self.guard(f"{names[1]} == 0.0", _DIVISION_BY_ZERO, node)
            self.lines.append(f"{out} = {names[0]} {_OPERATORS[type(node)]} {names[1]}")
        elif isinstance(node, Pow):
            base, exponent = names
            if not jet:
                self.checked(f"{out} = _float_pow({base}, {exponent})", node)
            else:
                if not args[0][1]:
                    base = f"{exponent}._coerce({base})"
                self.checked(f"{out} = {base} ** {exponent}", node)
        elif node.func not in FUNCTIONS:
            raise ValueError(f"unknown function {node.func!r}")
        elif jet:
            self.checked(f"{out} = _jet_{node.func}({names[0]})", node)
        else:
            if node.func in _NON_POSITIVE:
                self.guard(f"{names[0]} <= 0.0", _NON_POSITIVE[node.func], node)
            elif node.func == "tan":
                self.guard(f"_cos({names[0]}) == 0.0", _POLE, node)
            self.lines.append(f"{out} = _float_{node.func}({names[0]})")
        return out, jet


def _generate(exprs: Sequence[Expression], jets: bool):
    writer = _Writer(jets)
    outs = []
    for expr in exprs:
        name, is_jet = writer.visit(expr)
        outs.append(f"_const({name}, n, order)" if jets and not is_jet else name)
    signature = "x, n, order" if jets else "x"
    source = "\n".join([f"def _compiled({signature}):",
                        *("    " + line for line in writer.lines),
                        f"    return [{', '.join(outs)}]"])
    exec(builtins.compile(source, "<dualgeo.jets.compile>", "exec"), writer.namespace)
    return writer.namespace["_compiled"]


class Program:
    """A list of trees compiled to straight-line code; see :func:`compile`.

    The float and the jet function are each generated on first use.
    """

    def __init__(self, exprs: Sequence[Expression]):
        self.exprs = tuple(exprs)
        self._values = None
        self._jets = None

    def values(self, point) -> list[float]:
        """The value of every tree at the point, in order."""
        if self._values is None:
            self._values = _generate(self.exprs, jets=False)
        return self._values(point)

    def jets(self, point, order: int = 2) -> list[Jet]:
        """The jet of the given order (2 or 3) of every tree at the point."""
        if order not in (2, 3):
            raise ValueError(f"jet order must be 2 or 3, not {order!r}")
        if self._jets is None:
            self._jets = _generate(self.exprs, jets=True)
        pt = np.asarray(point, dtype=float)
        return self._jets(pt, pt.shape[0], order)


def compile(exprs: Sequence[Expression]) -> Program:
    """Compile trees into one program that evaluates each distinct subtree once."""
    return Program(exprs)


_CACHE_SIZE = 256
_cache: dict[int, tuple[Expression, Program]] = {}


def _cached_program(expr: Expression) -> Program:
    # keyed by identity: hashing a tree walks all of it; the entry keeps the
    # tree alive, so its id cannot be reused while it is cached
    hit = _cache.get(id(expr))
    if hit is not None:
        return hit[1]
    if len(_cache) >= _CACHE_SIZE:
        del _cache[next(iter(_cache))]
    program = compile([expr])
    _cache[id(expr)] = (expr, program)
    return program


def eval_value(expr: Expression, point) -> float:
    """Plain float evaluation."""
    return float(_cached_program(expr).values(point)[0])


def eval_jet2(expr: Expression, point) -> Jet:
    """Value, gradient, Hessian at a point, exact to roundoff."""
    return _cached_program(expr).jets(point, 2)[0]


def eval_jet3(expr: Expression, point) -> Jet:
    """Derivatives through order three via third-order jets."""
    return _cached_program(expr).jets(point, 3)[0]


def eval_order3(expr: Expression, point) -> np.ndarray:
    """Third-derivative array, canonicalized to exact index symmetry."""
    third = eval_jet3(expr, point).third
    n = third.shape[0]
    out = np.empty_like(third)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                v = third[i, j, k]
                out[i, j, k] = out[i, k, j] = out[j, i, k] = v
                out[j, k, i] = out[k, i, j] = out[k, j, i] = v
    return out


# --- Finite-difference oracles ----------------------------------------------


def fd_step(x: float) -> float:
    return FD_STEP_SCALE * (1.0 + abs(x))


def fd_step_2nd(x: float) -> float:
    return FD_STEP_SCALE_2ND * (1.0 + abs(x))


def fd_gradient(expr: Expression, point) -> np.ndarray:
    pt = np.asarray(point, dtype=float)
    n = pt.shape[0]
    grad = np.zeros(n)
    for i in range(n):
        h = fd_step(pt[i])
        up, dn = pt.copy(), pt.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (eval_value(expr, up) - eval_value(expr, dn)) / (2.0 * h)
    return grad


def fd_hessian(expr: Expression, point) -> np.ndarray:
    pt = np.asarray(point, dtype=float)
    n = pt.shape[0]
    hess = np.zeros((n, n))
    f0 = eval_value(expr, pt)
    for i in range(n):
        hi = fd_step_2nd(pt[i])
        for j in range(i, n):
            if i == j:
                up, dn = pt.copy(), pt.copy()
                up[i] += hi
                dn[i] -= hi
                hess[i, i] = (eval_value(expr, up) - 2.0 * f0 + eval_value(expr, dn)) / hi**2
            else:
                hj = fd_step_2nd(pt[j])
                pp, pm, mp, mm = pt.copy(), pt.copy(), pt.copy(), pt.copy()
                pp[[i, j]] += [hi, hj]
                pm[i] += hi
                pm[j] -= hj
                mp[i] -= hi
                mp[j] += hj
                mm[[i, j]] -= [hi, hj]
                val = (eval_value(expr, pp) - eval_value(expr, pm)
                       - eval_value(expr, mp) + eval_value(expr, mm)) / (4.0 * hi * hj)
                hess[i, j] = hess[j, i] = val
    return hess


def fd_order3(expr: Expression, point) -> np.ndarray:
    """Central differences of the exact Hessian; fallback for eval_order3."""
    pt = np.asarray(point, dtype=float)
    n = pt.shape[0]
    third = np.zeros((n, n, n))
    for a in range(n):
        h = fd_step(pt[a])
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        third[a] = (eval_jet2(expr, up).hess - eval_jet2(expr, dn).hess) / (2.0 * h)
    # symmetrize: derivative index commutes with Hessian indices analytically
    return (third + np.transpose(third, (1, 2, 0)) + np.transpose(third, (2, 0, 1))) / 3.0
