"""Built-in validated example systems and user-defined fixture loading.

A fixture bundles a metric, a potential family (or, for tensor-level synthetic
fixtures, closed-form prolongation data), the declared safe box and singular
loci, optional Killing data, and an expected-results block.  Built-ins are
expressed through the same JSON-shaped config dicts that :func:`load` accepts
from disk, so the loading path is exercised on every construction.

Closed-form structure data, when a fixture carries it, is never trusted:
validation cross-checks it against the pointwise least-squares recovery on the
sample grid and fails the fixture on disagreement.  Validation is one stacked
pass over that 3^n grid: one metric inverse, one solver call per field,
feeding both the residual check and the closed-form comparison, and one
evaluation of each declared field; the solver's rank check is the only rank
check.  A stacked call that raises is one failure of its check (a singular
metric, a rank-deficient family or an expression error names its first
failing point), and the checks that need its values are skipped.  Fixtures
without closed forms recover every field from the family, at a point or over
a stack of points in one solver call.  A declared T or D must also be
symmetric in its covariant pair on that grid: every induced connection is
Gamma_LC minus a tensor built from it, evaluated with no torsion check of its
own.

Config schema: ``fixture.schema.json`` beside this module, read once into
:data:`SCHEMA`.  :func:`check_config` is the only check of a config's types
and shapes, and :func:`from_config` runs it before it builds anything; what
depends on values or on the dimension (n x n metric and Killing tensors,
n x n x n structure tensors, n domain axes, finite bounds and margin, loci
outside the box, parsable expressions, a spot's point of shape (n,)) is
checked in code.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import conventions as conv
from .connections import (
    TORSION_TOL, AffineConnection, ConnectionTable, difference_connection, levi_civita,
)
from .expressions import ParseError
from .geometry import (
    Metric, ScalarField, TensorField, central_difference, grid_points, matvec,
)
from .structure import (
    PotentialFamily, StructureSolver, bertrand_darboux_check, killing_check,
    poisson_check, sym_product_metric_form, t_from_prolongation,
)

CONNECTION_TAGS = ("LC", "+T", "-T", "+B", "-B", "+D", "-D", "dagger", "+F", "-F")
CLOSED_FORM_CHECKS = {"T": "structure-closed-form", "D": "prolongation-closed-form",
                      "s": "s-closed-form"}
SCHEMA = json.loads(Path(__file__).with_name("fixture.schema.json").read_text())
# largest chart dimension a config may declare; the schema says why
MAX_DIMENSION = SCHEMA["properties"]["dimension"]["maximum"]


class FixtureError(ValueError):
    pass


class UnknownFixtureError(FixtureError):
    pass


class FixtureValidationError(FixtureError):
    def __init__(self, name: str, failures: list[dict]):
        lines = "; ".join(f"{f['check']}: {f['message']}" for f in failures[:4])
        super().__init__(f"fixture {name!r} failed validation: {lines}")
        self.failures = failures


@dataclass
class KillingData:
    K: TensorField
    W: ScalarField | None = None
    V: ScalarField | None = None  # potential whose integral the pair (K, W) closes


class Fixture:
    """A validated example system on a fixed chart."""

    def __init__(self, name: str, kind: str, metric: Metric,
                 family: PotentialFamily | None, box, singular_loci,
                 singular_margin: float = 0.0,
                 zeta: ScalarField | None = None,
                 killing: Sequence[KillingData] = (),
                 structure_T: TensorField | None = None,
                 structure_D: TensorField | None = None,
                 structure_s: TensorField | None = None,
                 expected: dict | None = None):
        self.name = name
        self.kind = kind
        self.metric = metric
        self.family = family
        self.box = [tuple(map(float, b)) for b in box]
        self.singular_loci = [(int(a), float(v)) for a, v in singular_loci]
        self.singular_margin = float(singular_margin)
        self.zeta = zeta
        self.killing = list(killing)
        self.structure_T = structure_T
        self.structure_D = structure_D
        self.structure_s = structure_s
        self.expected = expected or {}
        self.solver = StructureSolver(metric, family) if family is not None else None

    # --- basic data ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.metric.n

    def grid(self, per_axis: int = 5) -> np.ndarray:
        return grid_points(self.box, per_axis, self.singular_margin)

    @property
    def is_semidegenerate(self) -> bool:
        return self.kind == "semidegenerate"

    # --- structure fields -----------------------------------------------------

    def structure_tensor(self, x) -> np.ndarray:
        """T[k,i,j]; for semi-degenerate fixtures the extracted D - (1/n) g (x) s_sharp.

        Like every structure accessor here, it also takes a (..., n) stack of
        points and returns the stacked values.
        """
        if self.kind == "nondegenerate":
            if self.structure_T is not None:
                return self.structure_T.value(x)
            return self.solver.structure_tensor(x)[0]
        return self._extracted_t(self.prolongation_tensor(x), self.metric.value(x),
                                 self.s_vector(x))

    def _extracted_t(self, D: np.ndarray, gmat: np.ndarray, s_up: np.ndarray) -> np.ndarray:
        """D - (1/n) g (x) s_sharp from the fields' values."""
        return D - np.einsum("...ij,...k->...kij", gmat, s_up) / self.n

    def structure_tensor_jacobian(self, x) -> np.ndarray:
        if self.kind == "nondegenerate":
            if self.structure_T is not None:
                return self.structure_T.jets(x)[1]
            return self.solver.structure_tensor_jacobian(x)
        dD = self.prolongation_jacobian(x)
        gmat, dgmat, _ = self.metric.jets(x)
        s_up = self.s_vector(x)
        ds_up = self.s_vector_jacobian(x)
        return dD - (np.einsum("...aij,...k->...akij", dgmat, s_up)
                     + np.einsum("...ij,...ak->...akij", gmat, ds_up)) / self.n

    def prolongation_tensor(self, x) -> np.ndarray:
        if self.structure_D is not None:
            return self.structure_D.value(x)
        if self.solver is None:
            raise FixtureError(f"fixture {self.name!r} has no prolongation data")
        return self.solver.prolongation_tensor(x)[0]

    def prolongation_jacobian(self, x) -> np.ndarray:
        if self.structure_D is not None:
            return self.structure_D.jets(x)[1]
        return self.solver.prolongation_jacobian(x)

    def s_vector(self, x) -> np.ndarray:
        """Contravariant semi-degeneracy vector (declared or recovered)."""
        if self.structure_s is not None:
            return self.structure_s.value(x)
        if self.solver is None:
            raise FixtureError(f"fixture {self.name!r} has no semi-degeneracy data")
        return self.solver.s_vector(x)[0]

    def s_vector_jacobian(self, x) -> np.ndarray:
        if self.structure_s is not None:
            return self.structure_s.jets(x)[1]
        return central_difference(lambda pt: self.solver.s_vector(pt)[0], x)

    def s_covector(self, x) -> np.ndarray:
        return matvec(self.metric.value(x), self.s_vector(x))

    def t_covector(self, x) -> np.ndarray:
        if self.kind == "nondegenerate":
            T = self.structure_tensor(x)
            return conv.t_coefficient(self.n) * np.einsum("...iij->...j", T)
        D = self.prolongation_tensor(x)
        return t_from_prolongation(D, self.s_covector(x), self.n)

    # --- the connection family -------------------------------------------------

    def b_tensor(self, x) -> np.ndarray:
        """B = T + ((n+2)/n) g (x) t^sharp; tau of the (possibly extracted)
        structure tensor gives t for both fixture kinds, so T is evaluated once."""
        g = self.metric
        return self._with_trace_term(self.structure_tensor(x), g.value(x), g.inverse(x))

    def _with_trace_term(self, T: np.ndarray, gmat: np.ndarray, ginv: np.ndarray
                         ) -> np.ndarray:
        """B from the values of T, g and g^-1."""
        t_up = conv.t_coefficient(self.n) * matvec(ginv, np.einsum("...iij->...j", T))
        return T + conv.b_coefficient(self.n) * np.einsum("...ij,...k->...kij", gmat, t_up)

    def _b_jacobian(self, x) -> np.ndarray:
        g = self.metric
        dT = self.structure_tensor_jacobian(x)
        gmat, dgmat, _ = g.jets(x)
        ginv = g.inverse(x)
        tau = np.einsum("...iij->...j", self.structure_tensor(x))
        dtau = np.einsum("...aiij->...aj", dT)
        coef = conv.t_coefficient(self.n) * conv.b_coefficient(self.n)
        t_up = matvec(coef * ginv, tau)
        dt_up = coef * (np.einsum("...akm,...m->...ak", g.inverse_jacobian(x), tau)
                        + np.einsum("...km,...am->...ak", ginv, dtau))
        return dT + (np.einsum("...aij,...k->...akij", dgmat, t_up)
                     + np.einsum("...ij,...ak->...akij", gmat, dt_up))

    def _dagger_tensor(self, x) -> np.ndarray:
        """D minus the trace shift that makes the dagger companion."""
        return self.prolongation_tensor(x) - conv.DAGGER_TRACE_SIGN * np.einsum(
            "...k,...ij->...kij", self.s_vector(x), self.metric.value(x)) / self.n

    def _f_tensor(self, x, zeta: ScalarField) -> np.ndarray:
        """B plus the symmetrized metric-dzeta product, weight 1/(2(n-2))."""
        g = self.metric
        return self.b_tensor(x) + np.einsum(
            "...kl,...ijl->...kij", g.inverse(x),
            sym_product_metric_form(g.value(x), zeta.gradient(x))) / (2.0 * (self.n - 2))

    def _unavailable(self, tag: str, zeta: ScalarField | None = None) -> str | None:
        """Why the fixture has no connection ``tag``, or None when it has one."""
        name = tag.lstrip("+-")
        if tag not in CONNECTION_TAGS:
            return f"unknown connection tag {tag!r}; known: {', '.join(CONNECTION_TAGS)}"
        if name in ("D", "dagger") and not self.is_semidegenerate:
            return (f"fixture {self.name!r} is {self.kind}; the {name} connection "
                    "exists for semi-degenerate fixtures only")
        if name == "F" and self.n < 3:
            return "the F-connections need dimension n >= 3"
        if name == "F" and zeta is None and self.zeta is None:
            return f"fixture {self.name!r} carries no zeta"
        return None

    def connection(self, tag: str, zeta: ScalarField | None = None) -> AffineConnection:
        """Named member of the fixture's connection family.

        Every member but LC is ``Gamma_LC - sign * A`` for the difference
        tensor A named by the tag (``dagger`` has sign +1).  T and B carry
        analytic Jacobians; D, dagger and F are differentiated numerically.
        ``zeta`` overrides the fixture's own zeta for the F-connections (used
        by the remark suite to inject test functions).
        """
        reason = self._unavailable(tag, zeta)
        if reason is not None:
            raise FixtureError(reason)
        if tag == "LC":
            return levi_civita(self.metric)
        zfield = zeta if zeta is not None else self.zeta
        tensor_fn, tensor_jac_fn = {
            "T": (self.structure_tensor, self.structure_tensor_jacobian),
            "B": (self.b_tensor, self._b_jacobian),
            "D": (self.prolongation_tensor, None),
            "dagger": (self._dagger_tensor, None),
            "F": (lambda x: self._f_tensor(x, zfield), None),
        }[tag.lstrip("+-")]
        sign = -1 if tag[0] == "-" else +1
        return difference_connection(self.metric, sign, tensor_fn, tag, tensor_jac_fn)

    def connection_table(self, tags: Sequence[str]) -> ConnectionTable:
        """Row r of a stacked state follows connection ``tags[r]``: one of
        ``±T`` and ``±B`` on a nondegenerate fixture, ``±D`` and ``±T`` on a
        semi-degenerate one.

        A call evaluates Gamma_LC once over the running rows and each
        structure field once over the rows that need it: T over every row of
        a nondegenerate fixture, the B rows adding their trace term to that
        T; D over every row of a semi-degenerate one, and s over its T rows.
        Row r then gets ``Gamma_LC - sign_r * A_r``, rounded as
        ``connection(tags[r])`` rounds it alone.
        """
        fields = ("T", "B") if self.kind == "nondegenerate" else ("D", "T")
        for tag in tags:
            if tag[:1] not in "+-" or tag[1:] not in fields:
                raise FixtureError(f"a connection table of fixture {self.name!r} takes "
                                   f"the tags +/-{' and +/-'.join(fields)}, not {tag!r}")
        names = np.array([tag[1:] for tag in tags])
        signs = np.array([-1.0 if tag[0] == "-" else 1.0 for tag in tags])
        g = self.metric

        def coefficients(x, rows):
            kind = names[rows]
            if self.kind == "nondegenerate":
                A = self.structure_tensor(x).copy()
                b = np.flatnonzero(kind == "B")
                if len(b):
                    A[b] = self._with_trace_term(A[b], g.value(x)[b], g.inverse(x)[b])
            else:
                A = self.prolongation_tensor(x).copy()
                t = np.flatnonzero(kind == "T")
                if len(t):
                    A[t] = self._extracted_t(A[t], g.value(x)[t], self.s_vector(x[t]))
            return g.christoffel(x) - signs[rows][:, None, None, None] * A

        return ConnectionTable([self.connection(tag) for tag in tags], coefficients)


# --- builtin registry -----------------------------------------------------------


def _zero_block(n: int) -> list:
    return np.full((n, n, n), "0", dtype=object).tolist()


def _ho2_config() -> dict:
    T = _zero_block(2)
    return {
        "name": "ho2",
        "dimension": 2,
        "metric": [["1", "0"], ["0", "1"]],
        "potentials": ["x1^2 + x2^2", "x1", "x2", "1"],
        "kind": "nondegenerate",
        "domain": [[-2.0, 2.0], [-2.0, 2.0]],
        "singular_loci": [],
        "singular_margin": 0.0,
        "structure": {"T": T},
        "killing": [{
            "components": [["1", "0"], ["0", "0"]],
            "scalar": "x1^2",
            "potential": "x1^2 + x2^2",
        }],
        "expected": {"spots": [
            {"point": [0.5, -1.0], "tensor": "T", "index": [1, 1, 1],
             "value": 0.0, "tol": 1e-10},
        ]},
    }


def _sw2_config() -> dict:
    T = _zero_block(2)
    T[0][0][0] = "-3/(2*x1)"
    T[0][1][1] = "3/(2*x1)"
    T[1][0][0] = "3/(2*x2)"
    T[1][1][1] = "-3/(2*x2)"
    return {
        "name": "sw2",
        "dimension": 2,
        "metric": [["1", "0"], ["0", "1"]],
        "potentials": ["x1^2 + x2^2", "1/x1^2", "1/x2^2", "1"],
        "kind": "nondegenerate",
        "domain": [[0.5, 3.0], [0.5, 3.0]],
        "singular_loci": [{"axis": 1, "value": 0.0}, {"axis": 2, "value": 0.0}],
        "singular_margin": 0.0,
        "structure": {"T": T},
        "killing": [{
            "components": [["1", "0"], ["0", "0"]],
            "scalar": "x1^2 + 1/x1^2",
            "potential": "x1^2 + x2^2 + 1/x1^2 + 1/x2^2",
        }],
        "expected": {"spots": [
            {"point": [1.0, 2.0], "tensor": "T", "index": [1, 1, 1], "value": -1.5, "tol": 1e-9},
            {"point": [1.0, 2.0], "tensor": "T", "index": [1, 2, 2], "value": 1.5, "tol": 1e-9},
            {"point": [1.0, 2.0], "tensor": "T", "index": [2, 1, 1], "value": 0.75, "tol": 1e-9},
            {"point": [1.0, 2.0], "tensor": "T", "index": [2, 2, 2], "value": -0.75, "tol": 1e-9},
            {"point": [1.0, 2.0], "tensor": "t", "index": [1], "value": -0.75, "tol": 1e-9},
            {"point": [1.0, 2.0], "tensor": "t", "index": [2], "value": -0.375, "tol": 1e-9},
        ]},
    }


def _sw2_weak_config() -> dict:
    D = _zero_block(2)
    D[0][0][0] = "-3/x1"
    D[1][1][1] = "-3/x2"
    return {
        "name": "sw2-weak",
        "dimension": 2,
        "metric": [["1", "0"], ["0", "1"]],
        "potentials": ["1/x1^2", "1/x2^2", "1"],
        "kind": "semidegenerate",
        "domain": [[0.5, 3.0], [0.5, 3.0]],
        "singular_loci": [{"axis": 1, "value": 0.0}, {"axis": 2, "value": 0.0}],
        "singular_margin": 0.0,
        "structure": {"D": D, "s": ["-3/x1", "-3/x2"]},
        "expected": {
            "classification": "WEAK",
            "enlarging": "sw2",
            "spots": [
                {"point": [1.0, 2.0], "tensor": "s", "index": [1], "value": -3.0, "tol": 1e-9},
                {"point": [1.0, 2.0], "tensor": "s", "index": [2], "value": -1.5, "tol": 1e-9},
            ],
        },
    }


def _sw2_strong_config() -> dict:
    # weak prolongation data plus a constant mixed-symmetry injection of
    # magnitude one; the declared s keeps the output-covariant trace of D,
    # which the injection leaves untouched.
    D = _zero_block(2)
    D[0][0][0] = "-3/x1"
    D[0][1][1] = "1"
    D[1][1][1] = "-3/x2"
    return {
        "name": "sw2-strong-synthetic",
        "dimension": 2,
        "metric": [["1", "0"], ["0", "1"]],
        "kind": "semidegenerate",
        "domain": [[0.5, 3.0], [0.5, 3.0]],
        "singular_loci": [{"axis": 1, "value": 0.0}, {"axis": 2, "value": 0.0}],
        "singular_margin": 0.0,
        "structure": {"D": D, "s": ["-3/x1", "-3/x2"]},
        "expected": {"classification": "STRONG"},
    }


def _sphere3_config() -> dict:
    conf = "4/(1 + x1^2 + x2^2 + x3^2)^2"
    stereo = [f"2*x{i}/(1 + x1^2 + x2^2 + x3^2)" for i in (1, 2, 3)]
    height = "(1 - x1^2 - x2^2 - x3^2)/(1 + x1^2 + x2^2 + x3^2)"
    return {
        "name": "sphere3-trivial",
        "dimension": 3,
        "metric": [[conf, "0", "0"], ["0", conf, "0"], ["0", "0", conf]],
        "potentials": ["1", *stereo, height],
        "kind": "nondegenerate",
        "domain": [[-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]],
        "singular_loci": [],
        "singular_margin": 0.0,
        "structure": {"T": _zero_block(3)},
        "zeta": "0",
        "expected": {},
    }


_BUILTIN_CONFIGS = {
    "ho2": _ho2_config,
    "sw2": _sw2_config,
    "sw2-weak": _sw2_weak_config,
    "sw2-strong-synthetic": _sw2_strong_config,
    "sphere3-trivial": _sphere3_config,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_CONFIGS)


def builtin(name: str, validate_on_load: bool = False) -> Fixture:
    if name not in _BUILTIN_CONFIGS:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; built-ins: {', '.join(builtin_names())}")
    return from_config(_BUILTIN_CONFIGS[name](), validate_on_load=validate_on_load)


def builtin_config(name: str) -> dict:
    if name not in _BUILTIN_CONFIGS:
        raise UnknownFixtureError(f"unknown fixture {name!r}")
    return _BUILTIN_CONFIGS[name]()


# --- config loading --------------------------------------------------------------


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON Schema 2020-12: a boolean is not a number, and 2.0 is an integer
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_BOUNDS = (("minimum", operator.lt, "below the minimum"),
           ("maximum", operator.gt, "above the maximum"),
           ("exclusiveMinimum", operator.le, "not above"))


def check_config(value, schema: dict = SCHEMA, path: str = "") -> None:
    """Raise FixtureError naming the JSON path of the first place where
    ``value`` breaks ``schema``.

    Knows the keywords the fixture schema uses: type, enum, minimum, maximum,
    exclusiveMinimum, minItems, maxItems, items, required, properties and
    additionalProperties, each applied to values of its own JSON type.
    """
    def fail(problem: str, where: str = path):
        raise FixtureError(f"invalid fixture config: {where or 'config'}: {problem}")

    kind = schema.get("type")
    if kind is not None and not _IS_TYPE[kind](value):
        fail(f"{value!r} is not {'an' if kind[0] in 'aeiou' else 'a'} {kind}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {', '.join(map(repr, schema['enum']))}")
    if _IS_TYPE["number"](value):
        for key, breaks, words in _BOUNDS:
            if key in schema and breaks(value, schema[key]):
                fail(f"{value!r} is {words} {schema[key]!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} has fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} has more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                check_config(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"required key {key!r} is missing")
        known, other = schema.get("properties", {}), schema.get("additionalProperties", True)
        for key, item in value.items():
            where = f"{path}.{key}" if path else str(key)
            if key in known:
                check_config(item, known[key], where)
            elif other is False:
                fail(f"unknown key; known keys: {', '.join(known)}", where)
            elif isinstance(other, dict):
                check_config(item, other, where)


def _check_shape(entry: str, rows: list, n: int, rank: int) -> None:
    """Raise FixtureError unless ``rows``, lists nested ``rank`` deep as the
    schema has checked, is n x ... x n."""
    level, widths = [rows], []
    for _ in range(rank):
        widths.append("/".join(str(w) for w in sorted({len(x) for x in level})) or "0")
        level = [y for x in level for y in x]
    if widths != [str(n)] * rank:
        raise FixtureError(f"{entry} is {' x '.join(widths)}, but dimension {n} needs "
                           f"{' x '.join([str(n)] * rank)}")


def _tensor_field(entry: str, rows: list, variance: tuple[str, ...], n: int,
                  constants) -> TensorField:
    _check_shape(entry, rows, n, len(variance))
    return _parsed(entry, TensorField.from_sources, rows, variance, n, constants)


def _singular_locus(entry: dict, box) -> tuple[int, float]:
    """The (0-based axis, value) of a declared locus ``x_axis = value``.

    The axis must be one of 1..n, and the value, which :func:`from_config`
    has checked to be finite, outside the closed box: the grid checks
    evaluate the box's edges, and a locus inside would put a pole among the
    evidence.
    """
    axis, value = int(entry["axis"]), float(entry["value"])
    if axis > len(box):
        raise FixtureError(f"singular locus axis {axis!r} is not one of 1..{len(box)}")
    lo, hi = map(float, box[axis - 1])
    if lo <= value <= hi:
        raise FixtureError(f"singular locus x{axis} = {value!r} is not a finite "
                           f"value outside the domain [{lo!r}, {hi!r}]")
    return axis - 1, value


def _parsed(entry: str, build, source, *args):
    """``build(source, *args)``; a ParseError names the config entry and
    quotes its source, which the error's offset points into."""
    try:
        return build(source, *args)
    except ParseError as exc:
        raise FixtureError(f"invalid fixture config: {entry} {source!r}: {exc}") from exc


def from_config(cfg: dict, validate_on_load: bool = True) -> Fixture:
    """Build (and optionally validate) a fixture from a config dict, which
    :func:`check_config` checks against :data:`SCHEMA` first."""
    check_config(cfg)
    try:
        n, box = int(cfg["dimension"]), cfg["domain"]
        _check_shape("metric", cfg["metric"], n, 2)
        if len(box) != n:
            raise FixtureError(f"domain box has {len(box)} axes, expected {n}")
        margin = cfg.get("singular_margin", 0.0)
        constants = cfg.get("constants", {})
        spots = cfg.get("expected", {}).get("spots", [])
        numbers = {
            "singular_margin": margin,
            **{f"domain[{i}][{j}]": v for i, edge in enumerate(box) for j, v in enumerate(edge)},
            **{f"singular_loci[{i}].value": d["value"]
               for i, d in enumerate(cfg.get("singular_loci", []))},
            **{f"constants.{key}": v for key, v in constants.items()},
            **{f"expected.spots[{k}].value": spot["value"] for k, spot in enumerate(spots)},
            **{f"expected.spots[{k}].point[{i}]": c
               for k, spot in enumerate(spots) for i, c in enumerate(spot["point"])}}
        for entry, value in numbers.items():
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise FixtureError(f"invalid fixture config: {entry}: an integer of "
                                   f"{value.bit_length()} bits is beyond float range") from None
            if not finite:
                raise FixtureError(f"invalid fixture config: {entry}: {value!r} is not finite")
        # raises ValueError when the margin leaves no interior on some axis
        grid_points(box, 1, margin)
        loci = [_singular_locus(d, box) for d in cfg.get("singular_loci", [])]
        metric = _parsed("metric", Metric.from_sources, cfg["metric"], constants)
        family = None
        if cfg.get("potentials"):
            family = PotentialFamily(
                tuple(_parsed(f"potentials[{i}]", ScalarField.from_source, s, n, constants)
                      for i, s in enumerate(cfg["potentials"])), cfg["kind"])
        zeta = None
        if "zeta" in cfg:
            zeta = _parsed("zeta", ScalarField.from_source, cfg["zeta"], n, constants)
        killing = []
        for idx, kd in enumerate(cfg.get("killing", [])):
            K = _tensor_field(f"killing[{idx}].components", kd["components"],
                              ("down", "down"), n, constants)
            if any(K.comps[i, j] != K.comps[j, i] for i in range(n) for j in range(i)):
                raise FixtureError("killing tensor components are not structurally symmetric")
            W, V = (_parsed(f"killing[{idx}].{key}", ScalarField.from_source, kd[key], n,
                            constants) if kd.get(key) else None
                    for key in ("scalar", "potential"))
            killing.append(KillingData(K, W, V))
        structure = cfg.get("structure", {})
        structure_T, structure_D, structure_s = (
            _tensor_field(f"structure.{key}", structure[key], variance, n, constants)
            if key in structure else None
            for key, variance in (("T", ("up", "down", "down")), ("D", ("up", "down", "down")),
                                  ("s", ("up",))))
        fixture = Fixture(cfg.get("name", "unnamed"), cfg["kind"], metric, family,
                          box, loci, margin, zeta, killing,
                          structure_T, structure_D, structure_s, cfg.get("expected"))
    except ValueError as exc:
        if isinstance(exc, FixtureError):
            raise
        raise FixtureError(f"invalid fixture config: {exc}") from exc
    except ArithmeticError as exc:   # an integer beyond float range
        raise FixtureError(f"invalid fixture config: {type(exc).__name__} {exc}") from exc
    if validate_on_load:
        failures = validate(fixture)
        if failures:
            raise FixtureValidationError(fixture.name, failures)
    return fixture


def load(path, validate_on_load: bool = True) -> Fixture:
    """Load a fixture from a JSON config file; see :data:`SCHEMA`."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FixtureError(
                f"config {path} is not valid JSON: {exc.msg} "
                f"(line {exc.lineno}, column {exc.colno})") from exc
        except ValueError as exc:   # e.g. an integer literal of too many digits
            raise FixtureError(f"config {path} cannot be read: {exc}") from exc
    return from_config(cfg, validate_on_load=validate_on_load)


# --- validation -------------------------------------------------------------------


VALIDATION_GRID = 3   # points per axis of the grid validation checks
POISSON_SEED = 20250808   # seed of the random momenta of the Poisson-bracket check


def validate(fixture: Fixture) -> list[dict]:
    """Run every structural and numerical check; return a failure report.

    Total by design: every failure lands in the report (check name, point,
    residual) instead of raising, except for unrecoverable evaluation errors,
    which are themselves converted to report entries.
    """
    failures: list[dict] = []

    def fail(check: str, message: str, point=None, residual=None):
        entry = {"check": check, "message": message}
        if point is not None:
            entry["point"] = [float(v) for v in np.asarray(point)]
        if residual is not None:
            # strict JSON has no NaN or inf: those read "nan", "inf" as in reports
            residual = float(residual)
            entry["residual"] = residual if np.isfinite(residual) else f"{residual:.17g}"
        failures.append(entry)

    grid = fixture.grid(VALIDATION_GRID)
    g = fixture.metric
    n = fixture.n

    # family arity
    if fixture.family is not None:
        want = n + 2 if fixture.kind == "nondegenerate" else n + 1
        if fixture.family.size != want:
            fail("family-size",
                 f"{fixture.kind} family should have {want} potentials, "
                 f"found {fixture.family.size}")
    elif fixture.structure_D is None:
        fail("family-missing", "fixture declares no potentials and no tensor data")

    # conditioning, recovery and closed forms: one stacked call each over the
    # grid.  A call that raises is one failure, and the checks that need its
    # values are skipped; the rest fail once per failing point, in grid order.
    per_point = []   # (check, message, residual at each grid point)
    try:
        g.inverse(grid)
    except Exception as exc:
        fail("metric-conditioning", str(exc))
    else:
        if fixture.family is not None:
            semi = fixture.is_semidegenerate
            solver = fixture.solver
            solve = {"T": solver.structure_tensor, "D": solver.prolongation_tensor,
                     "s": solver.s_vector}
            closed_forms = {"T": fixture.structure_T, "D": fixture.structure_D,
                            "s": fixture.structure_s if semi else None}
            recovered = ("D", "s") if semi else ("T",)
            try:
                solved = {label: solve[label](grid) for label in (
                    *recovered, *(label for label, field in closed_forms.items()
                                  if field is not None and label not in recovered))}
            except Exception as exc:
                fail("recovery", str(exc))
            else:
                per_point.append((
                    "recovery-residual", "fit residual exceeds 1e-8; system is not "
                    "second-order superintegrable as declared",
                    np.max([solved[label][1] for label in recovered], axis=0)))
                for label, field in closed_forms.items():
                    if field is None:
                        continue
                    try:
                        closed = field.value(grid)
                    except Exception as exc:
                        fail("structure-closed-form", f"declared {label}: {exc}")
                        continue
                    diff = np.max(np.abs(closed - solved[label][0]),
                                  axis=tuple(range(1, closed.ndim)))
                    per_point.append((CLOSED_FORM_CHECKS[label],
                                      f"declared {label} disagrees with recovery", diff))
    for i, c in sorted((i, c) for c, (_, _, residual) in enumerate(per_point)
                       for i in np.flatnonzero(~(residual <= 1e-8))):
        check, message, residual = per_point[c]
        fail(check, message, grid[i], residual[i])

    # declared T and D must be symmetric in their covariant pair: the induced
    # connections Gamma_LC -/+ A are evaluated without a torsion check
    for label, declared in (("T", fixture.structure_T), ("D", fixture.structure_D)):
        if declared is None:
            continue
        try:
            A = declared.value(grid)
        except Exception as exc:
            fail("structure-symmetry", f"declared {label}: {exc}")
            continue
        asym = np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-3, -2, -1))
        worst = int(np.argmax(asym))
        if not asym[worst] <= TORSION_TOL:
            fail("structure-symmetry",
                 f"declared {label} is not symmetric in its covariant pair "
                 "(the connection would have torsion)", grid[worst], asym[worst])

    # Killing data
    rng = np.random.default_rng(POISSON_SEED)
    momenta = [rng.normal(size=n) for _ in range(4)]
    for idx, kd in enumerate(fixture.killing):
        try:
            kres = killing_check(g, kd.K, grid)
            if not kres <= 1e-8:
                fail("killing", f"Killing residual for entry {idx}", residual=kres)
            targets = [kd.V] if kd.V is not None else []
            if fixture.family is not None:
                targets.extend(fixture.family.potentials)
            for V in targets:
                bd = bertrand_darboux_check(g, kd.K, V, grid)
                if not bd <= 1e-8:
                    fail("bertrand-darboux",
                         f"compatibility residual for entry {idx}", residual=bd)
                    break
            if kd.W is not None and kd.V is not None:
                pres = poisson_check(g, kd.V, kd.K, kd.W, grid, momenta)
                if not pres <= 1e-8:
                    fail("poisson", f"bracket residual for entry {idx}", residual=pres)
        except Exception as exc:
            fail("killing", f"entry {idx}: {exc}")

    # expected-results block; check_config has checked its types and keys
    expected = fixture.expected
    evaluate = {"T": fixture.structure_tensor, "D": fixture.prolongation_tensor,
                "s": fixture.s_vector, "t": fixture.t_covector}
    for k, spot in enumerate(expected.get("spots", [])):
        x = np.asarray(spot["point"], dtype=float)
        if x.shape != (n,):
            fail("expected-spot", f"spots[{k}] is malformed: point has shape {x.shape}, "
                 f"not ({n},)")
            continue
        tensor, index = spot["tensor"], tuple(int(i) - 1 for i in spot["index"])
        try:
            value = float(evaluate[tensor](x)[index])
        except Exception as exc:
            fail("expected-spot", str(exc), x)
            continue
        err = abs(value - spot["value"])
        if not err <= spot["tol"]:
            fail("expected-spot",
                 f"{tensor}{list(spot['index'])} = {value!r}, "
                 f"expected {spot['value']!r}", x, err)

    if "classification" in expected:
        from .structure import classify
        try:
            cls = classify(g, fixture.prolongation_tensor, fixture.s_covector, grid)
            if cls.verdict != expected["classification"]:
                fail("classification",
                     f"classified {cls.verdict}, expected {expected['classification']}",
                     residual=cls.max_n_norm)
        except Exception as exc:
            fail("classification", str(exc))

    return failures
