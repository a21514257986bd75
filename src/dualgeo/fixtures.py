"""Built-in validated example systems and user-defined fixture loading.

A fixture bundles a metric, a potential family (or, for tensor-level synthetic
fixtures, closed-form prolongation data), the declared safe box and singular
loci, optional Killing data, and an expected-results block.  Built-ins are
expressed through the same JSON-shaped config dicts that :func:`load` accepts
from disk, so the loading path is exercised on every construction.

Closed-form structure data, when a fixture carries it, is never trusted:
validation cross-checks it against the pointwise least-squares recovery on the
sample grid and fails the fixture on disagreement.  Fixtures without closed
forms recover everything per point.

Config schema: docs/fixture.schema.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import conventions as conv
from .connections import AffineConnection, levi_civita
from .expressions import ParseError
from .geometry import Metric, ScalarField, TensorField, grid_points, matvec, stack_rows
from .structure import (
    PotentialFamily, StructureSolver, bertrand_darboux_check, decompose,
    killing_check, poisson_check, t_from_prolongation,
)

CONNECTION_TAGS = ("LC", "+T", "-T", "+B", "-B", "+D", "-D", "dagger", "+F", "-F")


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
                 expected: dict | None = None,
                 config: dict | None = None):
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
        self.config = config
        self.solver = StructureSolver(metric, family) if family is not None else None
        self._conn_cache: dict[str, AffineConnection] = {}

    # --- basic data ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.metric.n

    def grid(self, per_axis: int = 5) -> list[np.ndarray]:
        return grid_points(self.box, per_axis, self.singular_margin)

    @property
    def is_semidegenerate(self) -> bool:
        return self.kind == "semidegenerate"

    # --- structure fields -----------------------------------------------------

    def _solved(self, solve, x) -> np.ndarray:
        """A recovered field at a point, or at each point of a (..., n) stack."""
        if np.ndim(x) == 1:
            return solve(x)[0]
        return stack_rows(lambda pt: (solve(pt)[0],), x)[0]

    def structure_tensor(self, x) -> np.ndarray:
        """T[k,i,j]; for semi-degenerate fixtures the extracted D - (1/n) g (x) s_sharp.

        Like every structure accessor here, it also takes a (..., n) stack of
        points and returns the stacked values.
        """
        if self.kind == "nondegenerate":
            if self.structure_T is not None:
                return self.structure_T.value(x).components
            return self._solved(self.solver.structure_tensor, x)
        D = self.prolongation_tensor(x)
        gmat = self.metric.value(x)
        s_up = self.s_vector(x)
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
        return dD - (np.einsum("aij,k->akij", dgmat, s_up)
                     + np.einsum("ij,ak->akij", gmat, ds_up)) / self.n

    def prolongation_tensor(self, x) -> np.ndarray:
        if self.structure_D is not None:
            return self.structure_D.value(x).components
        if self.solver is None:
            raise FixtureError(f"fixture {self.name!r} has no prolongation data")
        return self._solved(self.solver.prolongation_tensor, x)

    def prolongation_jacobian(self, x) -> np.ndarray:
        if self.structure_D is not None:
            return self.structure_D.jets(x)[1]
        return self.solver.prolongation_jacobian(x)

    def s_vector(self, x) -> np.ndarray:
        """Contravariant semi-degeneracy vector (declared or recovered)."""
        if self.structure_s is not None:
            return self.structure_s.value(x).components
        if self.solver is None:
            raise FixtureError(f"fixture {self.name!r} has no semi-degeneracy data")
        return self._solved(self.solver.s_vector, x)

    def s_vector_jacobian(self, x) -> np.ndarray:
        if self.structure_s is not None:
            return self.structure_s.jets(x)[1]
        from .jets import FD_STEP_SCALE
        x = np.asarray(x, dtype=float)
        n = self.n
        out = np.zeros((n, n))
        for a in range(n):
            h = FD_STEP_SCALE * (1.0 + abs(x[a]))
            up, dn = x.copy(), x.copy()
            up[a] += h
            dn[a] -= h
            out[a] = (self.solver.s_vector(up)[0] - self.solver.s_vector(dn)[0]) / (2.0 * h)
        return out

    def s_covector(self, x) -> np.ndarray:
        return self.metric.value(x) @ self.s_vector(x)

    def t_covector(self, x) -> np.ndarray:
        if self.kind == "nondegenerate":
            T = self.structure_tensor(x)
            return conv.t_coefficient(self.n) * np.einsum("iij->j", T)
        D = self.prolongation_tensor(x)
        return t_from_prolongation(D, self.s_covector(x), self.n)

    def structure_bundle(self, x) -> dict:
        """JSON-ready snapshot of the structure data at a point.

        Includes the measured (never asserted) symmetry and trace defects of
        the decomposition remainder S.
        """
        from .structure import build_B, build_N

        x = np.asarray(x, dtype=float)
        gmat = self.metric.value(x)
        ginv = self.metric.inverse(x)
        T = self.structure_tensor(x)
        dec = decompose(T, gmat, ginv)
        Bc, _ = build_B(T, gmat, ginv, dec.t)

        def arr(a):
            return np.asarray(a).tolist()

        bundle = {
            "fixture": self.name,
            "point": arr(x),
            "structure_tensor": arr(T),
            "tau": arr(dec.tau),
            "t": arr(dec.t),
            "S_remainder": arr(dec.S),
            "S_symmetry_defect": float(dec.symmetry_defect),
            "S_trace_defect": float(dec.trace_defect),
            "B": arr(Bc),
        }
        if self.is_semidegenerate:
            D = self.prolongation_tensor(x)
            s_cov = self.s_covector(x)
            t_cov = self.t_covector(x)
            bundle.update({
                "prolongation_tensor": arr(D),
                "s": arr(s_cov),
                "d_form": arr((self.n + 2) * t_cov - s_cov),
                "N": arr(build_N(D, gmat, s_cov, t_cov)),
            })
        return bundle

    # --- the connection family -------------------------------------------------

    def available_connections(self) -> list[str]:
        tags = ["LC", "+T", "-T", "+B", "-B"]
        if self.is_semidegenerate:
            tags += ["+D", "-D", "dagger"]
        if self.zeta is not None and self.n >= 3:
            tags += ["+F", "-F"]
        return tags

    def connection(self, tag: str, zeta: ScalarField | None = None) -> AffineConnection:
        """Named member of the fixture's connection family.

        ``zeta`` overrides the fixture's own zeta for the F-connections (used
        by the remark suite to inject test functions).
        """
        cache_key = tag if zeta is None else None
        if cache_key is not None and cache_key in self._conn_cache:
            return self._conn_cache[cache_key]
        g = self.metric
        n = self.n
        if tag == "LC":
            conn = levi_civita(g)
        elif tag in ("+T", "-T", "+B", "-B"):
            sign = +1.0 if tag[0] == "+" else -1.0
            t_coef, b_coef = conv.t_coefficient(n), conv.b_coefficient(n)

            def tensor(x, _with_b=(tag[1] == "B")):
                T = self.structure_tensor(x)
                if not _with_b:
                    return T
                # tau of the (possibly extracted) structure tensor gives t for
                # both fixture kinds, so T is evaluated exactly once
                t_up = t_coef * matvec(g.inverse(x), np.einsum("...iij->...j", T))
                return T + b_coef * np.einsum("...ij,...k->...kij", g.value(x), t_up)

            def coeff(x, _sign=sign):
                return g.christoffel(x) - _sign * tensor(x)

            jac = self._analytic_jacobian(tag)
            conn = AffineConnection(g, coeff, tag, jac_fn=jac)
        elif tag in ("+D", "-D"):
            if not self.is_semidegenerate:
                raise FixtureError(
                    f"fixture {self.name!r} is {self.kind}; the prolongation "
                    "connections exist for semi-degenerate fixtures only")
            sign = +1.0 if tag[0] == "+" else -1.0

            def coeff(x, _sign=sign):
                return g.christoffel(x) - _sign * self.prolongation_tensor(x)

            conn = AffineConnection(g, coeff, tag)
        elif tag == "dagger":
            if not self.is_semidegenerate:
                raise FixtureError(
                    f"fixture {self.name!r} is {self.kind}; the dagger connection "
                    "exists for semi-degenerate fixtures only")

            def coeff(x):
                gamma = g.christoffel(x) - self.prolongation_tensor(x)
                return gamma + conv.DAGGER_TRACE_SIGN * np.einsum(
                    "...k,...ij->...kij", self.s_vector(x), g.value(x)) / n

            conn = AffineConnection(g, coeff, "dagger")
        elif tag in ("+F", "-F"):
            if n < 3:
                raise FixtureError("the F-connections need dimension n >= 3")
            zfield = zeta if zeta is not None else self.zeta
            if zfield is None:
                raise FixtureError(f"fixture {self.name!r} carries no zeta")
            sign = +1.0 if tag[0] == "+" else -1.0

            def coeff(x, _sign=sign, _z=zfield):
                from .structure import sym_product_metric_form
                gmat = g.value(x)
                ginv = g.inverse(x)
                T = self.structure_tensor(x)
                t_up = conv.t_coefficient(n) * matvec(ginv,
                                                      np.einsum("...iij->...j", T))
                F = (T + conv.b_coefficient(n) * np.einsum("...ij,...k->...kij",
                                                           gmat, t_up)
                     + np.einsum("...kl,...ijl->...kij", ginv,
                                 sym_product_metric_form(gmat, _z.gradient(x)))
                     / (2.0 * (n - 2)))
                return g.christoffel(x) - _sign * F

            conn = AffineConnection(g, coeff, tag)
        else:
            raise FixtureError(f"unknown connection tag {tag!r}; "
                               f"known: {', '.join(CONNECTION_TAGS)}")
        if cache_key is not None:
            self._conn_cache[cache_key] = conn
        return conn

    def _analytic_jacobian(self, tag: str):
        """Analytic coefficient jacobians for the T/B connections."""
        g = self.metric
        n = self.n
        sign = +1.0 if tag[0] == "+" else -1.0
        with_b = tag[1] == "B"

        def jac(x):
            dT = self.structure_tensor_jacobian(x)
            out = g.christoffel_jacobian(x) - sign * dT
            if with_b:
                gmat, dgmat, _ = g.jets(x)
                ginv = g.inverse(x)
                dginv = g.inverse_jacobian(x)
                T = self.structure_tensor(x)
                tau = np.einsum("iij->j", T)
                dtau = np.einsum("aiij->aj", dT)
                coef = conv.t_coefficient(n) * conv.b_coefficient(n)
                t_up = coef * ginv @ tau
                dt_up = coef * (np.einsum("akm,m->ak", dginv, tau) + np.einsum(
                    "km,am->ak", ginv, dtau))
                out -= sign * (np.einsum("aij,k->akij", dgmat, t_up)
                               + np.einsum("ij,ak->akij", gmat, dt_up))
            return out

        return jac


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


def from_config(cfg: dict, validate_on_load: bool = True, name: str | None = None
                ) -> Fixture:
    """Build (and optionally validate) a fixture from a config dict."""
    try:
        n = int(cfg["dimension"])
        fixture_name = name or cfg.get("name", "unnamed")
        constants = cfg.get("constants", {})
        metric = Metric.from_sources(cfg["metric"], constants=constants)
        kind = cfg["kind"]
        if kind not in ("nondegenerate", "semidegenerate"):
            raise FixtureError(f"unknown kind {kind!r}")
        family = None
        if "potentials" in cfg and cfg["potentials"]:
            family = PotentialFamily(
                tuple(ScalarField.from_source(s, n, constants) for s in cfg["potentials"]),
                kind)
        box = cfg["domain"]
        if len(box) != n:
            raise FixtureError(f"domain box has {len(box)} axes, expected {n}")
        loci = [(int(d["axis"]) - 1, float(d["value"]))
                for d in cfg.get("singular_loci", [])]
        zeta = None
        if "zeta" in cfg and cfg["zeta"] is not None:
            zeta = ScalarField.from_source(cfg["zeta"], n, constants)
        killing = []
        for kd in cfg.get("killing", []):
            K = TensorField.from_sources(kd["components"], ("down", "down"), n, constants)
            kvals = K.comps
            for i in range(n):
                for j in range(i + 1, n):
                    if kvals[i, j] != kvals[j, i]:
                        raise FixtureError(
                            "killing tensor components are not structurally symmetric")
            W = (ScalarField.from_source(kd["scalar"], n, constants)
                 if kd.get("scalar") else None)
            V = (ScalarField.from_source(kd["potential"], n, constants)
                 if kd.get("potential") else None)
            killing.append(KillingData(K, W, V))
        # raises ValueError when the margin leaves no interior on some axis
        grid_points(box, 1, cfg.get("singular_margin", 0.0))
        structure = cfg.get("structure", {})
        structure_T = (TensorField.from_sources(structure["T"], ("up", "down", "down"),
                                                n, constants)
                       if "T" in structure else None)
        structure_D = (TensorField.from_sources(structure["D"], ("up", "down", "down"),
                                                n, constants)
                       if "D" in structure else None)
        structure_s = (TensorField.from_sources(structure["s"], ("up",), n, constants)
                       if "s" in structure else None)
        fixture = Fixture(fixture_name, kind, metric, family, box, loci,
                          cfg.get("singular_margin", 0.0), zeta, killing,
                          structure_T, structure_D, structure_s,
                          cfg.get("expected"), config=cfg)
    except (KeyError, ParseError, ValueError) as exc:
        if isinstance(exc, FixtureError):
            raise
        raise FixtureError(f"invalid fixture config: {exc}") from exc
    if validate_on_load:
        failures = validate(fixture)
        if failures:
            raise FixtureValidationError(fixture.name, failures)
    return fixture


def load(path, validate_on_load: bool = True) -> Fixture:
    """Load a fixture from a JSON config file; see docs/fixture.schema.json."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FixtureError(
                f"config {path} is not valid JSON: {exc.msg} "
                f"(line {exc.lineno}, column {exc.colno})") from exc
    return from_config(cfg, validate_on_load=validate_on_load)


# --- validation -------------------------------------------------------------------


def validate(fixture: Fixture, per_axis: int = 3, seed: int = 20250808) -> list[dict]:
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
            entry["residual"] = float(residual)
        failures.append(entry)

    grid = fixture.grid(per_axis)
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

    for x in grid:
        # metric condition number
        try:
            g.inverse(x)
        except Exception as exc:
            fail("metric-conditioning", str(exc), x)
            continue
        if fixture.family is not None:
            rank = fixture.family.gradient_rank(x)
            if rank < n:
                fail("family-span",
                     f"potential gradients span only {rank} of {n} directions", x)
                continue
            try:
                if fixture.kind == "nondegenerate":
                    _, residual = fixture.solver.structure_tensor(x)
                else:
                    _, residual = fixture.solver.prolongation_tensor(x)
                    _, s_res = fixture.solver.s_vector(x)
                    residual = max(residual, s_res)
            except Exception as exc:
                fail("recovery", str(exc), x)
                continue
            if residual > 1e-8:
                fail("recovery-residual",
                     "fit residual exceeds 1e-8; system is not second-order "
                     "superintegrable as declared", x, residual)
        # closed-form structure data against recovery
        if fixture.family is not None:
            try:
                if fixture.structure_T is not None:
                    closed = fixture.structure_T.value(x).components
                    recovered, _ = fixture.solver.structure_tensor(x)
                    diff = float(np.max(np.abs(closed - recovered)))
                    if diff > 1e-8:
                        fail("structure-closed-form",
                             "declared T disagrees with recovery", x, diff)
                if fixture.structure_D is not None:
                    closed = fixture.structure_D.value(x).components
                    recovered, _ = fixture.solver.prolongation_tensor(x)
                    diff = float(np.max(np.abs(closed - recovered)))
                    if diff > 1e-8:
                        fail("prolongation-closed-form",
                             "declared D disagrees with recovery", x, diff)
                if fixture.structure_s is not None and fixture.kind == "semidegenerate":
                    closed = fixture.structure_s.value(x).components
                    recovered, _ = fixture.solver.s_vector(x)
                    diff = float(np.max(np.abs(closed - recovered)))
                    if diff > 1e-8:
                        fail("s-closed-form",
                             "declared s disagrees with recovery", x, diff)
            except Exception as exc:
                fail("structure-closed-form", str(exc), x)

    # Killing data
    rng = np.random.default_rng(seed)
    momenta = [rng.normal(size=n) for _ in range(4)]
    for idx, kd in enumerate(fixture.killing):
        try:
            kres = killing_check(g, kd.K, grid)
            if kres > 1e-8:
                fail("killing", f"Killing residual for entry {idx}", residual=kres)
            targets = [kd.V] if kd.V is not None else []
            if fixture.family is not None:
                targets.extend(fixture.family.potentials)
            for V in targets:
                bd = bertrand_darboux_check(g, kd.K, V, grid)
                if bd > 1e-8:
                    fail("bertrand-darboux",
                         f"compatibility residual for entry {idx}", residual=bd)
                    break
            if kd.W is not None and kd.V is not None:
                pres = poisson_check(g, kd.V, kd.K, kd.W, grid, momenta)
                if pres > 1e-8:
                    fail("poisson", f"bracket residual for entry {idx}", residual=pres)
        except Exception as exc:
            fail("killing", f"entry {idx}: {exc}")

    # expected-results block
    for spot in fixture.expected.get("spots", []):
        x = np.asarray(spot["point"], dtype=float)
        tensor = spot["tensor"]
        index = tuple(int(i) - 1 for i in spot["index"])
        try:
            if tensor == "T":
                value = fixture.structure_tensor(x)[index]
            elif tensor == "D":
                value = fixture.prolongation_tensor(x)[index]
            elif tensor == "s":
                value = fixture.s_vector(x)[index]
            elif tensor == "t":
                value = fixture.t_covector(x)[index]
            else:
                fail("expected-spot", f"unknown tensor {tensor!r}")
                continue
        except Exception as exc:
            fail("expected-spot", str(exc), x)
            continue
        err = abs(value - float(spot["value"]))
        if err > float(spot["tol"]):
            fail("expected-spot",
                 f"{tensor}{list(spot['index'])} = {value!r}, "
                 f"expected {spot['value']!r}", x, err)

    if "classification" in fixture.expected:
        from .structure import classify
        try:
            cls = classify(g, fixture.prolongation_tensor, fixture.s_covector, grid)
            if cls.verdict != fixture.expected["classification"]:
                fail("classification",
                     f"classified {cls.verdict}, expected "
                     f"{fixture.expected['classification']}",
                     residual=cls.max_n_norm)
        except Exception as exc:
            fail("classification", str(exc))

    return failures
