"""Orchestrated verification suites producing machine-readable reports.

Each suite turns one family of claims into a :class:`VerificationReport`:
per-claim maximal residual, tolerance, direction (a claim may require the
residual to stay BELOW a tolerance, or, for negative controls and
must-fail claims, to rise ABOVE one), and verdict.  A suite passes only if
every claim lands on its expected side, so an all-green run on deliberately
broken input fails loudly instead of silently.

Verdicts are grid evidence, never proofs: every report records the grid, the
seed, and the environment, and identical run configurations reproduce the
report byte for byte (no timestamps).

A suite adds each claim once, at its place in the report, through
:meth:`VerificationReport.add`.  The residual is a number, a :class:`GridRow`
(per-block functions, and how their grid maxima combine) or a
:class:`CurveRow` (two connection tags, and seeded starts drawn at the
claim's place, so every draw keeps its order).  One runner,
:func:`_run_claims`, then sets every pending residual: one
:func:`~dualgeo.geometry.grid_maxima` pass runs every grid row on a block of
``GRID_BLOCK`` points before it forms the next, so each block's metric jets,
inverse and Christoffel symbols are computed once for all of them; then one
integrator call advances every start of every curve row under both of its
connections, as the rows of one state over ``Fixture.connection_table``
(theorem 1: +T, +B, -T, -B times 10 starts; theorem 2: +D, +T, -D, -T), each
row equal to its single-connection run bit for bit.  The dual-projective and
semi-compatibility tests (one pass each, which also compares the recovered
1-form with the expected one), claims that depend on a classification
verdict, Weyl's Levi-Civita control (run only where t does not vanish) and
theorem 2's two checks are plain computed rows.
"""

from __future__ import annotations

import itertools
import json
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import conventions as conv
from .connections import (
    AffineConnection, antisymmetrized_gradient, connection_ricci_symmetry_check,
    difference_tensor, dual_projective_test, metric_gradient, ricci_asymmetry,
    semi_compatibility_test, shift_by_one_form,
)
from .fixtures import Fixture, builtin
from .geodesics import curves_coincide, integrate_dual_geodesics
from .geometry import ScalarField, grid_max, grid_maxima
from .structure import (
    beta_condition_residual, build_Z_and_digamma, classify, decompose,
    sym_product_metric_form,
)

TOL_ALGEBRAIC = 1e-9
TOL_CURVATURE = 1e-6
TOL_TRAJECTORY = 1e-6


class SuiteNotApplicable(ValueError):
    pass


@dataclass
class Claim:
    claim_id: str
    statement: str
    residual: float
    tolerance: float
    direction: str = "below"        # "below": pass iff residual < tolerance;
                                    # "above": pass iff residual > tolerance
    negative_control: bool = False

    @property
    def ok(self) -> bool:
        if self.direction == "below":
            return self.residual < self.tolerance
        return self.residual > self.tolerance

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "statement": self.statement,
            "max_residual": f"{self.residual:.17g}",
            "tolerance": f"{self.tolerance:.17g}",
            "direction": self.direction,
            "negative_control": self.negative_control,
            "verdict": "pass" if self.ok else "fail",
        }


class GridRow:
    """A residual to come: ``combine`` of the grid maxima of the per-block
    functions ``fns``, each returning one array."""

    def __init__(self, *fns, combine=np.max):
        self.fns, self.combine = fns, combine


@dataclass(frozen=True)
class CurveRow:
    """A residual to come: the largest curve distance, over ``starts``,
    between the dual-geodesics of the connections tagged ``tag_a`` and
    ``tag_b``."""
    tag_a: str
    tag_b: str
    starts: list


@dataclass
class VerificationReport:
    fixture: str
    suite: str
    grid_spec: dict
    seed: int
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    # (claim, row) of every claim whose residual :func:`_run_claims` sets
    pending: list[tuple[Claim, GridRow | CurveRow]] = field(default_factory=list, repr=False)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def add(self, claim_id: str, statement: str, residual: float | GridRow | CurveRow,
            tolerance: float, direction: str = "below",
            negative_control: bool = False) -> Claim:
        """Add a claim; a :class:`GridRow` or :class:`CurveRow` residual stays
        NaN, a failing value, until :func:`_run_claims` sets it."""
        row = residual if isinstance(residual, (GridRow, CurveRow)) else None
        claim = Claim(claim_id, statement, np.nan if row is not None else float(residual),
                      float(tolerance), direction, negative_control)
        if row is not None:
            self.pending.append((claim, row))
        self.claims.append(claim)
        return claim

    def to_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "suite": self.suite,
            "grid": self.grid_spec,
            "seed": self.seed,
            "inputs": self.inputs,
            "claims": [c.to_dict() for c in sorted(self.claims, key=lambda c: c.claim_id)],
            "verdict": "pass" if self.all_ok else "fail",
            "notes": self.notes,
            "environment": environment_stamp(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def environment_stamp() -> dict:
    return {
        "package": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.system().lower(),
    }


def _grid_spec(fixture: Fixture, per_axis: int) -> dict:
    return {
        "box": [[f"{lo:.17g}", f"{hi:.17g}"] for lo, hi in fixture.box],
        "points_per_axis": per_axis,
        "margin": f"{fixture.singular_margin:.17g}",
    }


def _seeded_initial_conditions(fixture: Fixture, rng: np.random.Generator,
                               count: int, speed: float = 0.35):
    """Starting data drawn from the middle third of the box, moderate speed.

    Moderate speeds keep the sample spacing of accelerating companions fine
    enough that the piecewise-linear comparison stays well inside tolerance.
    """
    n = fixture.n
    out = []
    for _ in range(count):
        x0 = np.array([lo + (hi - lo) * (1.0 / 3.0 + rng.random() / 3.0)
                       for lo, hi in fixture.box])
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        out.append((x0, speed * direction))
    return out


def _run_claims(report: VerificationReport, fixture: Fixture, grid, *measures,
                steps: int = 0, h: float = 0.0) -> list[float]:
    """Set every pending residual of ``report``; return the grid maxima of
    the per-block ``measures`` (values a suite reports or gates on, never
    asserts), found in the same pass as the grid rows.

    A curve row's start counts as evidence only if both curves keep at least
    half of the ``steps + 1`` samples asked for (:func:`curves_coincide`'s
    rule); otherwise the residual is infinite and a note names the start and
    both exit reasons.
    """
    grids = [(claim, row) for claim, row in report.pending if isinstance(row, GridRow)]
    curves = [(claim, row) for claim, row in report.pending if isinstance(row, CurveRow)]
    report.pending.clear()
    fns = [fn for _, row in grids for fn in row.fns] + list(measures)
    maxima = iter(grid_maxima(fns, grid) if fns else [])
    for claim, row in grids:
        claim.residual = float(row.combine([next(maxima) for _ in row.fns]))
    measured = list(maxima)
    if not curves:
        return measured
    rows = [(tag, start) for _, row in curves for tag in (row.tag_a, row.tag_b)
            for start in row.starts]
    out = iter(integrate_dual_geodesics(
        fixture.connection_table([tag for tag, _ in rows]), fixture.metric,
        [x0 for _, (x0, _) in rows], [w0 for _, (_, w0) in rows], steps, h,
        box=fixture.box, singular_loci=fixture.singular_loci))
    for claim, row in curves:
        curves_a = list(itertools.islice(out, len(row.starts)))
        curves_b = list(itertools.islice(out, len(row.starts)))
        worst = 0.0
        for start, (ta, tb) in enumerate(zip(curves_a, curves_b)):
            cmp = curves_coincide(ta, tb, TOL_TRAJECTORY, steps)
            if cmp.short is not None:
                report.notes.append(
                    f"{claim.claim_id}: start {start} {cmp.short}, so the residual is inf")
            worst = np.maximum(worst, np.maximum(cmp.dist_a_to_b, cmp.dist_b_to_a))
        claim.residual = float(worst)
    return measured


def _coefficient_gap(conn_a: AffineConnection, conn_b: AffineConnection):
    """The per-block residual Gamma_a - Gamma_b."""
    return lambda block: difference_tensor(conn_a, conn_b, block)


def verify_theorem1(fixture: Fixture, per_axis: int = 5, seed: int = 20250808,
                    tol_algebraic: float = TOL_ALGEBRAIC,
                    tol_curvature: float = TOL_CURVATURE,
                    trajectory_count: int = 10, trajectory_steps: int = 800,
                    trajectory_step_size: float = 1e-3) -> VerificationReport:
    """Induced vs symmetrized connection: shared dual-geodesics and the unique
    metric-compatible member of the dual-projective class."""
    if fixture.kind != "nondegenerate":
        raise SuiteNotApplicable(
            f"theorem-1 suite needs a nondegenerate fixture, got {fixture.kind!r}")
    report = VerificationReport(fixture.name, "theorem1", _grid_spec(fixture, per_axis),
                                seed)
    rng = np.random.default_rng(seed)
    g = fixture.metric
    grid = fixture.grid(per_axis)
    n = fixture.n
    bcoef = conv.b_coefficient(n)

    for sign, pm, lbl in ((+1, "+", "plus"), (-1, "-", "minus")):
        conn_t = fixture.connection(pm + "T")
        conn_b = fixture.connection(pm + "B")

        dp = dual_projective_test(
            conn_t, conn_b, g, grid, tol_algebraic,
            expected_alpha=lambda block: sign * bcoef * fixture.t_covector(block))
        report.add(
            f"t1.dual_projective.{lbl}",
            "the induced and symmetrized connections differ by a pure metric "
            "multiple of one vector field (dual-projective criterion)",
            dp.max_residual, tol_algebraic)
        report.add(
            f"t1.alpha_match.{lbl}",
            "the recovered equivalence 1-form equals +/-((n+2)/n) t",
            dp.alpha_mismatch, tol_algebraic)

        report.add(
            f"t1.trajectories.{lbl}",
            "dual-geodesics from seeded starts coincide as point sets",
            CurveRow(pm + "T", pm + "B",
                     _seeded_initial_conditions(fixture, rng, trajectory_count)),
            TOL_TRAJECTORY)

        sc = semi_compatibility_test(conn_b, g, grid, tol_algebraic,
                                     expected_beta=lambda block: 0.0)
        report.add(
            f"t1.compatibility.{lbl}",
            "the symmetrized connection is metric-compatible "
            "(antisymmetrized metric derivative vanishes, recovered 1-form is zero)",
            np.maximum(sc.max_residual, sc.beta_mismatch), tol_algebraic)

        shifted_residuals = []
        for _ in range(5):
            beta = rng.normal(size=n)
            beta *= (0.5 + rng.random()) / np.linalg.norm(beta)
            shifted = shift_by_one_form(conn_t, g, lambda _x, _b=beta: _b,
                                        tag=f"{lbl}-shifted")
            shifted_residuals.append(
                lambda block, _c=shifted: antisymmetrized_gradient(_c, g, block))
        report.add(
            f"t1.uniqueness.{lbl}",
            "every seeded 1-form shift of the induced connection other than the "
            "symmetrized one breaks metric compatibility",
            GridRow(*shifted_residuals, combine=np.min), 1e-3, direction="above")
        report.add(
            f"t1.ricci_symmetry.{lbl}",
            "the induced connection is Ricci-symmetric (checked through its own "
            "curvature, extra differentiation included)",
            GridRow(lambda block, _c=conn_t: ricci_asymmetry(_c, block)), tol_curvature)

    # negative control: a perturbed symmetrized tensor must break the criterion
    conn_t = fixture.connection("+T")
    conn_b = fixture.connection("+B")

    def perturbed_coeff(x):
        gamma = conn_b.coefficients(x)
        bump = np.zeros_like(gamma)
        bump[..., 0, 0, 0] = 0.05
        bump[..., 0, 1, 1] = -0.05
        return gamma + bump

    broken = AffineConnection(g, perturbed_coeff, "B-perturbed")
    dp_broken = dual_projective_test(conn_t, broken, g, grid, tol_algebraic)
    report.add(
        "t1.negative_control.perturbed_b",
        "a perturbed symmetrized connection must fail the dual-projective criterion",
        dp_broken.max_residual, 1e-3, direction="above", negative_control=True)

    # measured, never asserted: symmetry/trace defects of the decomposition
    # remainder S (nonzero on concrete fixtures under the frozen conventions)
    def remainder(block):
        parts = decompose(fixture.structure_tensor(block), g.value(block), g.inverse(block))
        return parts.symmetry_defect, parts.trace_defect

    s_sym, s_tr = _run_claims(report, fixture, grid, remainder, steps=trajectory_steps,
                              h=trajectory_step_size)
    # ahead of the runner's notes on short curves
    report.notes.insert(0, f"decomposition remainder S: max symmetry defect {s_sym:.3e}, "
                           f"max trace defect {s_tr:.3e} over the grid (reported, not asserted)")
    return report


def verify_theorem2(fixture: Fixture, per_axis: int = 5, seed: int = 20250808,
                    tol_algebraic: float = TOL_ALGEBRAIC,
                    tol_curvature: float = TOL_CURVATURE,
                    trajectory_count: int = 10, trajectory_steps: int = 800,
                    trajectory_step_size: float = 1e-3) -> VerificationReport:
    """Semi-degenerate systems: classification by the mixed-symmetry
    obstruction, the dagger companion, and semi-compatibility via the trace
    1-forms."""
    if not fixture.is_semidegenerate:
        raise SuiteNotApplicable(
            f"theorem-2 suite needs a semi-degenerate fixture, got {fixture.kind!r}")
    report = VerificationReport(fixture.name, "theorem2", _grid_spec(fixture, per_axis),
                                seed)
    report.notes.append(
        "projective flatness of the prolongation connection is UNCHECKED: "
        "no test pins it down, so no claim asserts it")
    rng = np.random.default_rng(seed)
    g = fixture.metric
    grid = fixture.grid(per_axis)
    n = fixture.n

    expected_cls = fixture.expected.get("classification")
    cls = classify(g, fixture.prolongation_tensor, fixture.s_covector, grid)
    if expected_cls == "WEAK" or (expected_cls is None and cls.verdict == "WEAK"):
        report.add("t2.classification",
                   "the mixed-symmetry obstruction vanishes on the grid (WEAK)",
                   cls.max_n_norm, 1e-8)
    else:
        report.add("t2.classification",
                   "the mixed-symmetry obstruction does not vanish (STRONG)",
                   cls.max_n_norm, 0.1, direction="above")
    weak = cls.verdict == "WEAK"

    if weak:
        report.add(
            "t2.dagger_equals_induced",
            "the trace-shifted companion equals the induced connection of the "
            "extracted structure tensor, coefficientwise",
            grid_max(_coefficient_gap(fixture.connection("dagger"), fixture.connection("+T")),
                     grid),
            1e-10)

    for sign, pm, lbl in ((+1, "+", "plus"), (-1, "-", "minus")):
        conn_d = fixture.connection(pm + "D")
        conn_t = fixture.connection(pm + "T")

        dp = dual_projective_test(
            conn_d, conn_t, g, grid, tol_algebraic,
            expected_alpha=lambda block: -sign * fixture.s_covector(block) / n)
        report.add(
            f"t2.dual_projective.{lbl}",
            "the prolongation connection and the extracted induced connection "
            "differ by a metric multiple of one vector field",
            dp.max_residual, tol_algebraic)
        report.add(
            f"t2.alpha_match.{lbl}",
            "the recovered equivalence 1-form equals -/+ s/n",
            dp.alpha_mismatch, tol_algebraic)

        report.add(
            f"t2.trajectories.{lbl}",
            "dual-geodesics of the two connections coincide as point sets",
            CurveRow(pm + "D", pm + "T",
                     _seeded_initial_conditions(fixture, rng, trajectory_count)),
            TOL_TRAJECTORY)

        sc = semi_compatibility_test(
            conn_d, g, grid, tol_algebraic, expected_beta=lambda block: sign * (
                fixture.s_covector(block) - (n + 2) * fixture.t_covector(block)) / n)
        value = np.maximum(sc.max_residual, sc.beta_mismatch)
        if weak:
            report.add(
                f"t2.semi_compatibility.{lbl}",
                "the prolongation connection is semi-compatible with the metric "
                "via beta = +/-(s - (n+2) t)/n",
                value, tol_algebraic)
        else:
            report.add(
                f"t2.semi_compatibility.{lbl}",
                "semi-compatibility via the beta formula must fail on a strong system",
                value, 1e-2, direction="above")

    report.add(
        "t2.beta_condition",
        "antisymmetrized metric derivative of the prolongation connection matches "
        "the obstruction/trace identity (checked through independent code paths)",
        beta_condition_residual(g, fixture.connection("+D"),
                                fixture.prolongation_tensor, fixture.s_covector, grid),
        1e-8)

    report.add(
        "t2.ricci_symmetry",
        "the prolongation connection is Ricci-symmetric (checked, not assumed)",
        connection_ricci_symmetry_check(fixture.connection("+D"), grid),
        tol_curvature)

    enlarging = fixture.expected.get("enlarging")
    if weak and enlarging:
        big = builtin(enlarging)
        pts = np.array([[lo + (hi - lo) * rng.random() for lo, hi in fixture.box]
                        for _ in range(10)])
        err = float(np.max(np.abs(fixture.structure_tensor(pts) - big.structure_tensor(pts))))
        report.add(
            "t2.extraction_cross_check",
            "the extracted structure tensor matches the independent recovery from "
            "the enlarging potential family at seeded points",
            err, 1e-8)

    # negative control: perturbing the prolongation tensor must flip the regime
    strong_expected = not weak

    def flipped_d(x):
        D = fixture.prolongation_tensor(x).copy()
        D[..., 0, 1, 1] += -1.0 if strong_expected else 1.0
        return D

    flipped_cls = classify(g, flipped_d, fixture.s_covector, grid)
    if strong_expected:
        report.add(
            "t2.negative_control.stripped_d",
            "removing the mixed-symmetry injection from the prolongation tensor "
            "must restore the vanishing obstruction of the weak regime",
            flipped_cls.max_n_norm, 1e-8, negative_control=True)
    else:
        report.add(
            "t2.negative_control.perturbed_d",
            "a synthetic mixed-symmetry perturbation of the prolongation tensor "
            "must move the obstruction norm out of the weak regime",
            flipped_cls.max_n_norm, 0.1, direction="above", negative_control=True)
    _run_claims(report, fixture, grid, steps=trajectory_steps, h=trajectory_step_size)
    return report


def verify_weyl_symmetry(fixture: Fixture, per_axis: int = 5,
                         seed: int = 20250808) -> VerificationReport:
    """Total symmetry of nabla^{T} g - ((n+2)/n) t (x) g."""
    if fixture.kind != "nondegenerate":
        raise SuiteNotApplicable(
            f"weyl suite needs a nondegenerate fixture, got {fixture.kind!r}")
    report = VerificationReport(fixture.name, "weyl", _grid_spec(fixture, per_axis), seed)
    g = fixture.metric
    grid = fixture.grid(per_axis)
    n = fixture.n
    bcoef = conv.b_coefficient(n)
    conn_t = fixture.connection("+T")
    conn_lc = fixture.connection("LC")

    def total_symmetry_defect(conn):
        def asymmetry(block):
            w = metric_gradient(conn, g, block) - bcoef * np.einsum(
                "...i,...jk->...ijk", fixture.t_covector(block), g.value(block))
            perms = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
            return np.stack([w - np.transpose(w, (0, *(1 + p for p in perm))) for perm in perms])

        return asymmetry

    report.add(
        "weyl.total_symmetry",
        "the t-corrected metric derivative of the induced connection is a totally "
        "symmetric cubic form",
        GridRow(total_symmetry_defect(conn_t)), 1e-8)

    # the Levi-Civita defect takes its own pass, and only where t does not vanish
    (t_scale,) = _run_claims(report, fixture, grid, fixture.t_covector)
    if not t_scale <= 1e-6:
        report.add(
            "weyl.negative_control.levi_civita",
            "with the Levi-Civita connection in place of the induced one the "
            "corrected form must lose total symmetry",
            grid_max(total_symmetry_defect(conn_lc), grid), 1e-3, direction="above",
            negative_control=True)
    else:
        report.notes.append(
            "trace 1-form vanishes on this fixture; Levi-Civita negative control "
            "is not discriminating and was skipped")
    return report


def verify_remark_digamma(fixture: Fixture, per_axis: int = 3,
                          seed: int = 20250808) -> VerificationReport:
    """Codazzi completion vs symmetrized connection: difference identity,
    Codazzi property of both, coincidence exactly for locally constant zeta."""
    if fixture.n < 3:
        raise SuiteNotApplicable("the remark suite needs dimension n >= 3")
    if fixture.kind != "nondegenerate":
        raise SuiteNotApplicable("the remark suite needs a nondegenerate fixture")
    report = VerificationReport(fixture.name, "digamma", _grid_spec(fixture, per_axis),
                                seed)
    g = fixture.metric
    grid = fixture.grid(per_axis)
    n = fixture.n
    zeta_linear = ScalarField.from_source("x1", n)
    zeta_const = ScalarField.from_source("5", n)

    conn_b = {s: fixture.connection(f"{s}B") for s in "+-"}
    conn_f = {s: fixture.connection(f"{s}F", zeta=zeta_linear) for s in "+-"}

    # difference identity, both sign variants (the minus variants carry the
    # displayed sign; the plus variants the opposite, by the sign flip built
    # into the induced-connection convention)
    def identity_gap(block):
        gmat = g.value(block)
        target = sym_product_metric_form(gmat, zeta_linear.gradient(block)) / (
            2.0 * (n - 2))
        return np.stack([np.einsum("...kl,...lij->...ijk", gmat,
                                   difference_tensor(conn_f[s], conn_b[s], block))
                         - orient * target for s, orient in (("-", +1.0), ("+", -1.0))])

    report.add(
        "rd.difference_identity",
        "the flatted connection difference equals the symmetrized metric-dzeta "
        "product with weight 1/(2(n-2))",
        GridRow(identity_gap), 1e-9)

    for name, conn in (("codazzi_f", conn_f["+"]), ("codazzi_b", conn_b["+"])):
        report.add(
            f"rd.{name}",
            "the connection is metric-compatible (Codazzi: antisymmetrized metric "
            "derivative vanishes)",
            GridRow(lambda block, _c=conn: antisymmetrized_gradient(_c, g, block)), 1e-9)

    report.add(
        "rd.constant_zeta_coincidence",
        "with locally constant zeta the completion connection coincides with the "
        "symmetrized connection coefficientwise",
        GridRow(_coefficient_gap(fixture.connection("+F", zeta=zeta_const), conn_b["+"])),
        1e-12)

    report.add(
        "rd.negative_control.nonconstant_zeta",
        "with non-constant zeta the two connections must differ",
        GridRow(_coefficient_gap(conn_f["+"], conn_b["+"])), 1e-6, direction="above",
        negative_control=True)

    zeta_residual = []
    if fixture.zeta is not None:
        report.add(
            "rd.fixture_zeta",
            "with the fixture's own zeta (trivial here) the connections coincide",
            GridRow(_coefficient_gap(fixture.connection("+F"), conn_b["+"])), 1e-12)
        zeta_residual.append(lambda block: build_Z_and_digamma(
            g, fixture.structure_tensor(block), fixture.zeta, block).zeta_residual)
    for zres in _run_claims(report, fixture, grid, *zeta_residual):
        report.notes.append(
            f"defining-equation residual of the fixture's zeta: {zres:.3e} "
            "(reported; the injected test zeta is not required to satisfy it)")
    return report


SUITES = {
    "1": verify_theorem1,
    "2": verify_theorem2,
    "weyl": verify_weyl_symmetry,
    "digamma": verify_remark_digamma,
}


def applicable_suites(fixture: Fixture) -> list[str]:
    names = []
    if fixture.kind == "nondegenerate":
        names.append("1")
    if fixture.is_semidegenerate:
        names.append("2")
    if fixture.kind == "nondegenerate":
        names.append("weyl")
    if fixture.kind == "nondegenerate" and fixture.n >= 3:
        names.append("digamma")
    return names
