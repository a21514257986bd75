"""Compiled expression evaluation: values and truncated-Taylor jets.

:func:`compile` turns a list of trees into straight-line Python code once.
Each distinct subtree is one assignment, in the post-order of a walk over the
tree, with its domain check (division by zero, sqrt or log of a non-positive
value, tan at a pole, a real power of a non-positive base) right before it, so
values and :class:`EvalDomainError` messages are those of the walk.  A float
operation that overflows (``**``, ``exp``) or meets a math domain error
(``sin(inf)``) raises :class:`EvalDomainError` naming its subexpression too.
Tree literals and subexpression texts live in the code's namespace, never in
its source text.

The values have a second, array function, generated on the first stack of
``ARRAY_ROWS`` or more points: its locals that depend on the coordinates are
rows of m points.  ``+ - * /``, negation, comparisons and ``sqrt`` run as
numpy ufuncs, which round each element correctly, as the float operations
do; ``**`` and every other ``math`` call are mapped element by element
through the float operation.  So each row is the float function's result bit
for bit.  A domain check tests the whole row.  Any exception in the array
function evaluates the stack again row by row through the float function,
so a failing stack raises what the per-row loop raises at its first failing
row, with that row's point added to the message.
:meth:`Program.values` picks the function by row count; below
``ARRAY_ROWS`` rows the per-row float function costs less.

The jet code is unrolled the same way.  A jet of order 2 is a value, a
gradient and a Hessian; order 3 adds the third-derivative array.  They follow
the Leibniz and chain rules (the Taylor arithmetic of Griewank & Walther,
*Evaluating Derivatives*), so derivatives are exact to roundoff.  Each
component of a subtree's jet is its own float local: the value, ``grad_i``,
``hess_ij`` for i <= j, and at order 3 every one of the n^3 entries of
``third``.  Subtrees without coordinates stay floats.  The arrays are built
once per call, at return, where ``hess_ji`` repeats ``hess_ij``.
:meth:`Program.jet_flat` and :meth:`Program.jet_arrays` run a ``(..., n)``
stack through the jet function row by row into one array, so the first
failing row raises, naming its point: the one place a stack of jets is split
into rows.

Bit identity with plain jet arithmetic.  Every component is the float
expression the array arithmetic of a jet class would evaluate for that entry,
with the same operands in the same order: ``(a*b).hess_ij = (a.hess_ij*b.v +
(a.grad_i*b.grad_j + b.grad_i*a.grad_j)) + a.v*b.hess_ij``, a function f
composed with a jet gives ``f1*hess_ij + f2*(grad_i*grad_j)``, and so on.  A
constant operand is a jet with zero derivatives, and its ``x*0.0`` and
``x + 0.0`` terms stay in the code, since they decide signed zeros, infinities
and NaNs.  The only folds are exact ones: an operation whose operands are all
known when the code is generated (tree literals, and the 0s and 1s of seeded
coordinates and of constants) is done then, and ``1.0*x``, ``x + -0.0`` and
``x - 0.0`` become ``x``.  Within one block of code, equal expressions share
one local, ``x*0.0`` and ``0.0*x`` share one (with a single possible NaN
operand, the product is the same bits either way round), and a jet's
reciprocal is computed once for every division by it.  Element-wise float
operations never raise, so only the scalar coefficients of a rule
(``1/u**2``, ``u**e``, ``exp(u)``, ...) can, and they are computed in the
rule's order; a coefficient whose divisor underflows to zero raises
:class:`EvalDomainError` naming the subexpression.  Hessians are exactly
symmetric, since every second-order term is built from ``u_i v_j + v_i u_j``
or ``u_i u_j``; a third derivative is a sum like ``h_ij u_k + h_jk u_i +
h_ki u_j`` whose order of addition differs between index permutations, so no
entry is mirrored.  An integer exponent k is k - 1 products (unrolled when k
is known and small, a loop otherwise; beyond ``MAX_INTEGER_EXPONENT`` the code
raises :class:`EvalDomainError` at the power) and a negative one takes the
reciprocal after; a jet-valued exponent goes through ``exp(log(base) * exponent)`` unless all of its
derivatives are zero at the point, in which case its value is used as a
number.  The reference jet arithmetic these programs must equal bit for bit,
numpy arrays and operator overloading, and the finite-difference stencils
that cross-check both, are in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

import builtins
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import (
    FUNCTIONS, MAX_INTEGER_EXPONENT, Add, Call, Const, Div, EvalDomainError, Expression,
    Mul, Neg, Num, Pow, Sub, Var, to_source,
)

_DIVISION_BY_ZERO = "division by zero"
_POSITIVE_BASE = "real exponent needs a positive base"
_NON_POSITIVE = {"sqrt": "sqrt of a non-positive value",
                 "log": "log of a non-positive value"}
_POLE = "tan at a pole"
_EXPONENT_BOUND = f"integer exponent beyond {MAX_INTEGER_EXPONENT} in absolute value"
_UNDERFLOW = "derivative coefficient divides by a power that underflows to zero"
_OVERFLOW = "result out of float range"
_MATH_DOMAIN = "argument outside the function's float domain"
# integer powers of a jet up to this exponent are unrolled products
_UNROLLED_POWER = 16


class _DomainViolation(Exception):
    """Internal: raised by float primitives, annotated by compiled code."""


# what a float operation of the generated code may raise
_FLOAT_FAILURES = (_DomainViolation, ArithmeticError, ValueError)


def _named(exc: Exception, subexpression: str) -> EvalDomainError:
    """The EvalDomainError naming subexpression for a float failure in it."""
    if isinstance(exc, ZeroDivisionError):
        message = _UNDERFLOW
    elif isinstance(exc, OverflowError):
        message = _OVERFLOW
    elif isinstance(exc, _DomainViolation):
        message = str(exc)
    else:
        message = _MATH_DOMAIN
    return EvalDomainError(message, subexpression)


@dataclass
class Jet:
    """Value, gradient, Hessian and, at order 3, the third-derivative array of
    a scalar at a point (``third`` is None at order 2)."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    @property
    def order(self) -> int:
        return 2 if self.third is None else 3


def _float_pow(base: float, e: float) -> float:
    if e.is_integer():
        if base == 0.0 and e < 0:
            raise _DomainViolation(_DIVISION_BY_ZERO)
        return base ** int(e)
    if base <= 0.0:
        raise _DomainViolation(_POSITIVE_BASE)
    return base**e


def _by_row(fn, points) -> list:
    """fn at each row of an (m, n) stack, in order, the row as a list of
    Python floats.  The first row whose code raises EvalDomainError raises it
    with the row's point added, as in
    ``division by zero in subexpression '1.0/x1' at [0. 1.]``."""
    out = []
    for pt in points.tolist():
        try:
            out.append(fn(pt))
        except EvalDomainError as exc:
            exc.args = (f"{exc} at {np.array(pt)}",)
            raise
    return out


# --- Compiler ---------------------------------------------------------------

# what generated code may name besides its locals and bound literals
_NAMESPACE = {
    "_float": float, "_Domain": EvalDomainError, "_Failures": _FLOAT_FAILURES,
    "_named": _named, "_float_pow": _float_pow, "_cos": math.cos,
    "_array": np.array, "_empty": np.empty, "_map": map, "_repeat": itertools.repeat,
    "_np_sqrt": np.sqrt,
    **{f"_float_{f}": getattr(math, f) for f in FUNCTIONS},
}
_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _is_negative_zero(c) -> bool:
    return isinstance(c, float) and c == 0.0 and math.copysign(1.0, c) < 0.0


class _Sym:
    """A jet while its code is generated.

    Each component is the source text of a float (a local's name, or a
    parenthesized expression) or a float known at generation time.  ``h``
    holds the entries i <= j; ``t`` is None at order 2.
    """

    __slots__ = ("v", "g", "h", "t")

    def __init__(self, v, g: list, h: dict, t: dict | None):
        self.v, self.g, self.h, self.t = v, g, h, t

    def hess(self, i: int, j: int):
        return self.h[(i, j) if i <= j else (j, i)]

    def components(self) -> list:
        return [self.v, *self.g, *self.h.values(),
                *(self.t.values() if self.t is not None else ())]

    def derivatives(self) -> list:
        return self.components()[1:]


class _Writer:
    """Emits the straight-line body of one compiled function.

    With ``n`` set it emits jet code of the given order for n coordinates.
    With ``array`` set it emits the array function of the values, whose
    locals that depend on the coordinates are rows of m points.
    """

    def __init__(self, n: int | None = None, order: int = 2, array: bool = False):
        self.n = n
        self.order = order
        self.array = array
        self.rows: set[str] = set()   # the locals that are rows, in array code
        self.pairs = [] if n is None else [(i, j) for i in range(n) for j in range(i, n)]
        self.triples = [] if n is None else list(itertools.product(range(n), repeat=3))
        # local-name suffixes of a jet's components, in _Sym.components order
        self.suffixes = [] if n is None else (
            [""] + [f"_g{i}" for i in range(n)] + ["_h{}_{}".format(*p) for p in self.pairs]
            + (["_c{}_{}_{}".format(*p) for p in self.triples] if order == 3 else []))
        self.lines: list[str] = []
        self.depth = 1
        self.namespace = dict(_NAMESPACE)
        self.memo: dict[tuple, tuple] = {}
        self.count = 0
        self.literals: dict[str, float] = {}   # bound tree literals' values
        # values reused later in the same block: a jet's reciprocal (by the
        # jet's id), a local times a signed zero (by name and sign) and the
        # local holding an expression (by its text)
        self.reused: dict = {}

    # --- emission -------------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    @contextmanager
    def block(self, header: str):
        """Emit header, then what the with-body emits indented below it;
        nothing computed in the body is reused outside it, or the reverse."""
        self.emit(header)
        self.depth += 1
        outside, self.reused = self.reused, {}
        yield
        self.reused = outside
        self.depth -= 1

    def bind(self, value) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def fresh(self, stem: str = "j") -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def fail(self, message: str, node: Expression) -> None:
        self.emit(f"raise _Domain({self.bind(message)}, {self.bind(to_source(node))})")

    def raise_if(self, condition: str, message: str, node: Expression) -> None:
        """A float domain check, right before the operation it guards; a
        condition already checked in the same block held false, so it is
        left out."""
        if ("check", condition) in self.reused:
            return
        self.reused["check", condition] = True
        with self.block(f"if {condition}:"):
            self.fail(message, node)

    def checked(self, statement: str, node: Expression) -> None:
        """An operation whose domain violation, float overflow, math domain
        error, or division by a divisor that underflowed to zero, is reported
        as node's (see :func:`_named`).  Array code needs no handler: any
        failure there re-runs the stack row by row."""
        if self.array:
            self.emit(statement)
            return
        self.emit("try:")
        self.emit(f"    {statement}")
        self.emit("except _Failures as exc:")
        self.emit(f"    raise _named(exc, {self.bind(to_source(node))}) from None")

    def scalar(self, expression: str, node: Expression | None = None) -> str:
        """A float local holding expression, evaluated here; with ``node``,
        a failure of its float operations raises node's domain error."""
        name = self.fresh("s")
        if node is None:
            self.emit(f"{name} = {expression}")
        else:
            self.checked(f"{name} = {expression}", node)
        return name

    # --- components -------------------------------------------------------------

    def text(self, c) -> str:
        if isinstance(c, str):
            return c
        if math.isfinite(c):
            return f"({c!r})" if math.copysign(1.0, c) < 0.0 else repr(c)
        return self.bind(c)

    def known(self, c) -> float | None:
        """The value of a component known at generation time, else None."""
        return c if isinstance(c, float) else self.literals.get(c)

    def mul(self, a, b):
        ka, kb = self.known(a), self.known(b)
        if ka is not None and kb is not None:
            return ka * kb
        if ka == 1.0:
            return b
        if kb == 1.0:
            return a
        # with one factor zero at most one is a NaN, so x*0.0 and 0.0*x are
        # the same bits: one local serves both
        for name, zero in ((a, kb), (b, ka)):
            if zero == 0.0 and not name.startswith("("):
                key = (name, math.copysign(1.0, zero))
                if key not in self.reused:
                    self.reused[key] = self.scalar(f"{name} * {self.text(zero)}")
                return self.reused[key]
        return f"({self.text(a)} * {self.text(b)})"

    def add(self, a, b):
        ka, kb = self.known(a), self.known(b)
        if ka is not None and kb is not None:
            return ka + kb
        if _is_negative_zero(ka):
            return b
        if _is_negative_zero(kb):
            return a
        return f"({self.text(a)} + {self.text(b)})"

    def sub(self, a, b):
        ka, kb = self.known(a), self.known(b)
        if ka is not None and kb is not None:
            return ka - kb
        if kb == 0.0 and not _is_negative_zero(kb):
            return a
        return f"({self.text(a)} - {self.text(b)})"

    def neg(self, a):
        k = self.known(a)
        return -k if k is not None else f"(-{a})"

    def rebuild(self, components: list) -> _Sym:
        """The jet with these components, in _Sym.components order."""
        n, end = self.n, 1 + self.n + len(self.pairs)
        return _Sym(components[0], components[1:1 + n],
                    dict(zip(self.pairs, components[1 + n:end])),
                    dict(zip(self.triples, components[end:])) if self.order == 3 else None)

    def settle(self, x: _Sym) -> _Sym:
        """Assign every compound component of x to a local, shared by equal
        expressions in the same block (they are the same bits)."""
        prefix = self.fresh()
        components = []
        for c, suffix in zip(x.components(), self.suffixes):
            if isinstance(c, str) and c.startswith("("):
                if c not in self.reused:
                    self.emit(f"{prefix}{suffix} = {c}")
                    self.reused[c] = prefix + suffix
                c = self.reused[c]
            components.append(c)
        return self.rebuild(components)

    def named(self) -> _Sym:
        """A jet whose components are fresh, not yet assigned locals."""
        prefix = self.fresh()
        return self.rebuild([prefix + suffix for suffix in self.suffixes])

    def store(self, target: _Sym, x: _Sym) -> None:
        """Assign x's components to target's locals, all in one statement."""
        self.emit(", ".join(target.components()) + " = "
                  + ", ".join(self.text(c) for c in x.components()))

    # --- jet rules ------------------------------------------------------------------

    def constant(self, c) -> _Sym:
        return self.rebuild([c] + [0.0] * (len(self.suffixes) - 1))

    def variable(self, name: str, index: int) -> _Sym:
        jet = self.constant(name)
        jet.g = [1.0 if i == index else 0.0 for i in range(self.n)]
        return jet

    def elementwise(self, op, *jets: _Sym) -> _Sym:
        return self.settle(self.rebuild(
            [op(*c) for c in zip(*(jet.components() for jet in jets))]))

    def sym3(self, h: _Sym, u: list, i: int, j: int, k: int):
        """Entry ijk of h_ij u_k + h_jk u_i + h_ki u_j (h: a jet's Hessian)."""
        return self.add(self.add(self.mul(h.hess(i, j), u[k]),
                                 self.mul(h.hess(j, k), u[i])),
                        self.mul(h.hess(k, i), u[j]))

    def product(self, a: _Sym, b: _Sym) -> _Sym:
        """The unsettled components of a * b, a the left operand."""
        mul, add = self.mul, self.add
        third = None
        if a.t is not None:
            third = {(i, j, k): add(add(add(mul(a.t[i, j, k], b.v), self.sym3(a, b.g, i, j, k)),
                                        self.sym3(b, a.g, i, j, k)),
                                    mul(a.v, b.t[i, j, k]))
                     for i, j, k in self.triples}
        return _Sym(
            mul(a.v, b.v),
            [add(mul(x, b.v), mul(a.v, y)) for x, y in zip(a.g, b.g)],
            {(i, j): add(add(mul(a.h[i, j], b.v),
                             add(mul(a.g[i], b.g[j]), mul(b.g[i], a.g[j]))),
                         mul(a.v, b.h[i, j]))
             for i, j in self.pairs},
            third)

    def times(self, a: _Sym, b: _Sym) -> _Sym:
        return self.settle(self.product(a, b))

    def compose(self, x: _Sym, f0, f1, f2, f3) -> _Sym:
        """The chain rule through a scalar function with derivatives f0..f3
        (names of float locals; f3 is None at order 2)."""
        mul, add, g = self.mul, self.add, x.g
        third = None
        if x.t is not None:
            third = {(i, j, k): add(add(mul(f1, x.t[i, j, k]), mul(f2, self.sym3(x, g, i, j, k))),
                                    mul(mul(mul(f3, g[i]), g[j]), g[k]))
                     for i, j, k in self.triples}
        return self.settle(_Sym(
            f0, [mul(f1, c) for c in g],
            {(i, j): add(mul(f1, x.h[i, j]), mul(f2, mul(g[i], g[j]))) for i, j in self.pairs},
            third))

    def reciprocal(self, x: _Sym, node: Expression) -> _Sym:
        hit = self.reused.get(("reciprocal", id(x)))
        if hit is not None:
            return hit[1]
        u = self.text(x.v)
        self.raise_if(f"{u} == 0.0", _DIVISION_BY_ZERO, node)
        result = self.compose(x, self.scalar(f"1.0 / {u}"), self.scalar(f"-1.0 / {u}**2", node),
                              self.scalar(f"2.0 / {u}**3", node),
                              self.scalar(f"-6.0 / {u}**4", node) if x.t is not None else None)
        # the entry keeps x alive, so its id stays unique
        self.reused["reciprocal", id(x)] = (x, result)
        return result

    def function(self, func: str, x: _Sym, node: Expression) -> _Sym:
        u = self.text(x.v)
        order3 = x.t is not None
        if func in _NON_POSITIVE:
            self.raise_if(f"{u} <= 0.0", _NON_POSITIVE[func], node)
        if func == "sqrt":
            r = self.scalar(f"_float_sqrt({u})", node)
            return self.compose(x, r, self.scalar(f"0.5 / {r}"),
                                self.scalar(f"-0.25 / ({r} * {u})", node),
                                self.scalar(f"0.375 / ({r} * {u} * {u})", node)
                                if order3 else None)
        if func == "exp":
            e = self.scalar(f"_float_exp({u})", node)
            return self.compose(x, e, e, e, e)
        if func == "log":
            return self.compose(x, self.scalar(f"_float_log({u})", node),
                                self.scalar(f"1.0 / {u}"),
                                self.scalar(f"-1.0 / {u}**2", node),
                                self.scalar(f"2.0 / {u}**3", node) if order3 else None)
        if func in ("sin", "cos"):
            s = self.scalar(f"_float_sin({u})", node)
            c = self.scalar(f"_float_cos({u})", node)
            if func == "sin":
                return self.compose(x, s, c, self.scalar(f"-{s}"),
                                    self.scalar(f"-{c}") if order3 else None)
            return self.compose(x, c, self.scalar(f"-{s}"), self.scalar(f"-{c}"), s)
        if func == "tan":
            c = self.scalar(f"_cos({u})", node)
            self.raise_if(f"{c} == 0.0", _POLE, node)
            t = self.scalar(f"_float_tan({u})", node)
            sec2 = self.scalar(f"1.0 + {t} * {t}")
            return self.compose(x, t, sec2, self.scalar(f"2.0 * {t} * {sec2}"),
                                self.scalar(f"{sec2} * (4.0 * {t} * {t} + 2.0 * {sec2})")
                                if order3 else None)
        raise ValueError(f"unknown function {func!r}")

    def integer_power(self, x: _Sym, k: int, node: Expression) -> _Sym:
        if abs(k) > MAX_INTEGER_EXPONENT:
            self.fail(_EXPONENT_BOUND, node)
            return x   # never reached at run time
        if k == 0:
            return self.constant(1.0)
        if k < 0:
            return self.reciprocal(self.integer_power(x, -k, node), node)
        if k > _UNROLLED_POWER:
            return self.power_loop(x, str(k - 1))
        result = x
        for _ in range(k - 1):
            result = self.times(result, x)
        return result

    def power_loop(self, x: _Sym, count: str) -> _Sym:
        """x times itself count times (count: source of a non-negative int)."""
        acc = self.named()
        self.store(acc, x)
        with self.block(f"for _ in range({count}):"):
            self.store(acc, self.product(acc, x))
        return acc

    def real_power(self, x: _Sym, e: str, node: Expression) -> _Sym:
        u = self.text(x.v)
        self.raise_if(f"{u} <= 0.0", _POSITIVE_BASE, node)
        return self.compose(
            x, self.scalar(f"{u}**{e}", node), self.scalar(f"{e} * {u} ** ({e} - 1.0)", node),
            self.scalar(f"{e} * ({e} - 1.0) * {u} ** ({e} - 2.0)", node),
            self.scalar(f"{e} * ({e} - 1.0) * ({e} - 2.0) * {u} ** ({e} - 3.0)", node)
            if x.t is not None else None)

    def number_power(self, x: _Sym, e, known: float | None, node: Expression) -> _Sym:
        """x to the float e (a local, or a known float), whose value is
        ``known`` when it is known at generation time."""
        if isinstance(e, float):
            known = e
        if known is not None:
            if known.is_integer():
                return self.integer_power(x, int(known), node)
            return self.real_power(x, self.text(e), node)
        # the value is only known at run time: branch on it there
        out = self.named()
        k = self.fresh("s")
        with self.block(f"if {e}.is_integer():"):
            self.emit(f"{k} = int({e})")
            with self.block(f"if {k} == 0:"):
                self.store(out, self.constant(1.0))
            with self.block("else:"):
                self.raise_if(f"abs({k}) > {MAX_INTEGER_EXPONENT}", _EXPONENT_BOUND, node)
                acc = self.power_loop(x, f"abs({k}) - 1")
                with self.block(f"if {k} < 0:"):
                    self.store(out, self.reciprocal(acc, node))
                with self.block("else:"):
                    self.store(out, acc)
        with self.block("else:"):
            self.store(out, self.real_power(x, e, node))
        return out

    def power(self, base: _Sym, exponent, known: float | None, node: Expression) -> _Sym:
        """base ** exponent: a jet to a float local's value or to a jet."""
        if not isinstance(exponent, _Sym):
            return self.number_power(base, exponent, known, node)
        flags = [c for c in exponent.derivatives() if not isinstance(c, float)]
        if any(isinstance(c, float) and c != 0.0 for c in exponent.derivatives()):
            return self.exp_log(base, exponent, node)
        if not flags:
            return self.number_power(base, exponent.v, None, node)
        out = self.named()
        with self.block(f"if {' or '.join(f'{c} != 0.0' for c in flags)}:"):
            self.store(out, self.exp_log(base, exponent, node))
        with self.block("else:"):
            self.store(out, self.number_power(base, exponent.v, None, node))
        return out

    def exp_log(self, base: _Sym, exponent: _Sym, node: Expression) -> _Sym:
        return self.function("exp", self.times(self.function("log", base, node), exponent),
                             node)

    # --- trees ------------------------------------------------------------------

    def visit(self, node: Expression):
        """Emit node unless an equal subtree already was; return the name of
        the float local that holds its value, or its jet."""
        if isinstance(node, (Num, Const)):
            args, key = (), (type(node), getattr(node, "name", None), repr(node.value))
        elif isinstance(node, Var):
            args, key = (), (Var, node.name, node.index)
        elif isinstance(node, (Neg, Call)):
            args = (self.visit(node.arg),)
            key = (type(node), getattr(node, "func", None), *map(id, args))
        elif isinstance(node, (Add, Sub, Mul, Div)):
            args = (self.visit(node.lhs), self.visit(node.rhs))
            key = (type(node), *map(id, args))
        elif isinstance(node, Pow):
            args = (self.visit(node.base), self.visit(node.exponent))
            key = (Pow, *map(id, args))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        hit = self.memo.get(key)
        if hit is None:
            # the entry keeps args alive, so their ids stay unique
            hit = self.memo[key] = (self.assign(node, args), args)
        return hit[0]

    def assign(self, node: Expression, args):
        if isinstance(node, (Num, Const)):
            name = self.bind(node.value)
            if isinstance(node.value, float):
                self.literals[name] = node.value
            return name
        if isinstance(node, Var):
            i = int(node.index)
            out = self.fresh("t")
            if self.array:
                self.emit(f"{out} = x[{i}]")
                self.rows.add(out)
            else:
                self.emit(f"{out} = _float(x[{i}])")
            return out if self.n is None else self.variable(out, i)
        if any(isinstance(arg, _Sym) for arg in args):
            return self.assign_jet(node, args)
        out = self.fresh("t")
        names = args
        if any(name in self.rows for name in names):
            self.rows.add(out)
        if isinstance(node, Neg):
            self.emit(f"{out} = -{names[0]}")
        elif isinstance(node, (Add, Sub, Mul, Div)):
            if isinstance(node, Div):
                self.raise_if(self.anywhere(f"{names[1]} == 0.0", names[1]),
                              _DIVISION_BY_ZERO, node)
            self.emit(f"{out} = {names[0]} {_OPERATORS[type(node)]} {names[1]}")
        elif isinstance(node, Pow):
            self.checked(f"{out} = {self.call('_float_pow', *names)}", node)
        elif node.func not in FUNCTIONS:
            raise ValueError(f"unknown function {node.func!r}")
        else:
            u = names[0]
            if node.func in _NON_POSITIVE:
                self.raise_if(self.anywhere(f"{u} <= 0.0", u), _NON_POSITIVE[node.func], node)
            elif node.func == "tan":
                c = self.fresh("s")
                self.checked(f"{c} = {self.call('_cos', u)}", node)
                self.raise_if(self.anywhere(f"{c} == 0.0", u), _POLE, node)
            if node.func == "sqrt" and u in self.rows:
                self.emit(f"{out} = _np_sqrt({u})")
            else:
                self.checked(f"{out} = {self.call('_float_' + node.func, u)}", node)
        return out

    def anywhere(self, condition: str, operand: str) -> str:
        """condition on operand as a test of the whole row when it is one."""
        return f"({condition}).any()" if operand in self.rows else condition

    def call(self, fn: str, *names: str) -> str:
        """The float function fn of the operands; over rows, fn mapped
        element by element, a float operand the same in every row."""
        if not any(name in self.rows for name in names):
            return f"{fn}({', '.join(names)})"
        columns = ", ".join(f"{name}.tolist()" if name in self.rows else f"_repeat({name})"
                            for name in names)
        return f"_array(list(_map({fn}, {columns})))"

    def assign_jet(self, node: Expression, args) -> _Sym:
        """A node with at least one jet operand, by the rules of jet
        arithmetic; a float operand acts as a constant jet, and an operator
        with a float left operand runs as the jet's reflected operator."""
        if isinstance(node, Neg):
            return self.elementwise(self.neg, args[0])
        if isinstance(node, Call):
            return self.function(node.func, args[0], node)
        lhs, rhs = args
        if isinstance(node, Pow):
            known = None
            if not isinstance(rhs, _Sym):
                known = self.known(rhs)
                if known is None:
                    known = _constant_value(node.exponent)
            return self.power(lhs if isinstance(lhs, _Sym) else self.constant(lhs), rhs,
                              known, node)
        if isinstance(node, (Add, Mul)):
            jet, other = (lhs, rhs) if isinstance(lhs, _Sym) else (rhs, lhs)
            if not isinstance(other, _Sym):
                other = self.constant(other)
            if isinstance(node, Add):
                return self.elementwise(self.add, jet, other)
            return self.times(jet, other)
        if not isinstance(lhs, _Sym):
            lhs = self.constant(lhs)
        if isinstance(node, Sub):
            return self.elementwise(self.sub, lhs, rhs if isinstance(rhs, _Sym)
                                    else self.constant(rhs))
        if not isinstance(rhs, _Sym):
            rhs = self.constant(rhs)
        return self.times(lhs, self.reciprocal(rhs, node))

    # --- outputs ----------------------------------------------------------------

    def jet_outputs(self, outs) -> list[str]:
        """Every output's components, laid out as :func:`flat_index` says:
        all values, then all gradients, all Hessians (both triangles) and
        all third arrays."""
        jets = [out if isinstance(out, _Sym) else self.constant(out) for out in outs]
        texts = [jet.v for jet in jets]
        texts += [c for jet in jets for c in jet.g]
        texts += [jet.hess(i, j) for jet in jets for i in range(self.n) for j in range(self.n)]
        if self.order == 3:
            texts += [jet.t[p] for jet in jets for p in self.triples]
        return [self.text(c) for c in texts]


def _constant_value(node: Expression) -> float | None:
    """A coordinate-free subtree's value, or None when evaluating it raises
    (then the code raises before it needs the value)."""
    try:
        return _generate([node])(())[0]
    except Exception:
        return None


def _generate(exprs: Sequence[Expression], n: int | None = None, order: int = 2,
              array: bool = False):
    """The float function of exprs, with n set their jet function, or with
    ``array`` set their array function: it takes the (n, m) transpose of m
    points and returns the (m, len(exprs)) array of values."""
    writer = _Writer(n, order, array)
    outs = [writer.visit(expr) for expr in exprs]
    if array:
        returns = ["    _out = _empty((len(x[0]), %d))" % len(outs),
                   *(f"    _out[:, {j}] = {out}" for j, out in enumerate(outs)),
                   "    return _out"]
    else:
        texts = outs if n is None else writer.jet_outputs(outs)
        returns = [f"    return [{', '.join(texts)}]"]
    source = "\n".join(["def _compiled(x):", *writer.lines, *returns])
    exec(builtins.compile(source, "<dualgeo.jets.compile>", "exec"), writer.namespace)
    return writer.namespace["_compiled"]


def flat_index(m: int, n: int, rank: int, tree, *axes):
    """Position in :meth:`Program.jet_flat` of entry ``axes`` of the part of
    the given rank (0 value, 1 gradient, 2 Hessian, 3 third array) of tree
    number ``tree`` out of m; ``tree`` and ``axes`` may be broadcasting numpy
    index arrays."""
    index = tree
    for axis in axes:
        index = index * n + axis
    return m * sum(n**r for r in range(rank)) + index


def _layout(m: int, n: int, order: int) -> list[tuple[int, int, tuple]]:
    """(start, stop, shape) of the stacked values, gradients, Hessians and, at
    order 3, third arrays of m trees in the flat array of their jets."""
    return [(flat_index(m, n, rank, 0), flat_index(m, n, rank + 1, 0), (m,) + (n,) * rank)
            for rank in range(order + 1)]


# stacks of at least this many points run through the array function.  On the
# built-ins' T, D and s fields the array function costs less than the per-row
# float function from 10 to 16 rows on (2.3x as much at 4 rows, 0.5x at 24)
ARRAY_ROWS = 12


class Program:
    """A list of trees compiled to straight-line code; see :func:`compile`.

    The float function is generated on first use, the array function on the
    first stack of ``ARRAY_ROWS`` points, and the jet function of an order on
    the first call at that order.
    """

    def __init__(self, exprs: Sequence[Expression]):
        self.exprs = tuple(exprs)
        self._values = None
        self._rows = None
        self._jets: dict[tuple[int, int], tuple] = {}

    def values(self, point):
        """The value of every tree at the point, in order; at each row of an
        (m, n) stack, as an (m, len(exprs)) array.

        A stack of ``ARRAY_ROWS`` or more points goes through the array
        function.  If that raises, the stack is evaluated again row by row
        through the float function, whose first failing row raises, naming
        its point.
        """
        if (point.ndim if isinstance(point, np.ndarray) else np.ndim(point)) < 2:
            return self.point(point)
        points = np.asarray(point, dtype=float)
        if len(points) >= ARRAY_ROWS:
            if self._rows is None:
                self._rows = _generate(self.exprs, array=True)
            try:
                with np.errstate(all="ignore"):
                    return self._rows(points.T)
            except _FLOAT_FAILURES:
                pass
        return np.array(_by_row(self.point, points),
                        dtype=float).reshape(len(points), len(self.exprs))

    def point(self, point) -> list:
        """:meth:`values` at one point, a sequence of n floats, unchecked."""
        if self._values is None:
            self._values = _generate(self.exprs)
        return self._values(point)

    def _flat(self, point, order: int) -> tuple[np.ndarray, list]:
        """:meth:`jet_flat` of the point or stack, and its layout."""
        stack = np.ndim(point) > 1
        if stack:
            point = np.asarray(point, dtype=float)
        n = point.shape[-1] if stack else len(point)
        hit = self._jets.get((n, order))
        if hit is None:
            if order not in (2, 3):
                raise ValueError(f"jet order must be 2 or 3, not {order!r}")
            hit = self._jets[n, order] = (_generate(self.exprs, n, order),
                                          _layout(len(self.exprs), n, order))
        fn, layout = hit
        if not stack:
            return np.array(fn(point)), layout
        rows = _by_row(fn, point.reshape(-1, n))
        return np.array(rows, dtype=float).reshape(point.shape[:-1] + (layout[-1][1],)), layout

    def jet_flat(self, point, order: int = 2) -> np.ndarray:
        """Every tree's jet components in one array: all values, then all
        gradients, all Hessians and, at order 3, all third arrays, tree after
        tree, each in C order (see :func:`flat_index`); over a ``(..., n)``
        stack, along the last axis of each point's row."""
        return self._flat(point, order)[0]

    def jet_arrays(self, point, order: int = 2) -> list[np.ndarray]:
        """(values, grads, hessians[, thirds]) of every tree, stacked along a
        tree axis that follows the leading axes of a stack."""
        flat, layout = self._flat(point, order)
        lead = flat.shape[:-1]
        return [flat[..., start:stop].reshape(lead + shape) for start, stop, shape in layout]

    def jets(self, point, order: int = 2) -> list[Jet]:
        """The jet of the given order (2 or 3) of every tree at the point."""
        values, grads, hesses, *thirds = self.jet_arrays(point, order)
        thirds = thirds[0] if thirds else [None] * len(grads)
        return [Jet(value, *parts)
                for value, *parts in zip(values.tolist(), grads, hesses, thirds)]


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

