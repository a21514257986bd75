"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line
per criterion on the terminal.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import numpy as np
import pytest

from dualgeo.connections import (
    compatibility_residual, dual_projective_test, metric_gradient,
    semi_compatibility_test, shift_by_one_form,
)
from dualgeo.geodesics import curves_coincide, integrate_dual_geodesic
from dualgeo.geometry import TensorField, covariant_derivative
from dualgeo.jets import eval_jet2
from dualgeo.structure import beta_condition_residual, classify, sym_product_metric_form
from dualgeo.geometry import ScalarField
from dualgeo.expressions import parse
from dualgeo.fixtures import builtin

from test_jets import CORPUS
from oracles import brute_force_structure_tensor, fd_gradient, fd_hessian

SEED = 20250808


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_dual_projective_algebraic(sw2):
    grid = sw2.grid(5)
    worst_res, worst_alpha = 0.0, 0.0
    for sign, t_tag, b_tag in ((+1, "+T", "+B"), (-1, "-T", "-B")):
        # expected alpha: ((n+2)/n) t with n = 2
        res = dual_projective_test(sw2.connection(t_tag), sw2.connection(b_tag),
                                   sw2.metric, grid, tol=1e-9,
                                   expected_alpha=lambda x: sign * 2.0 * sw2.t_covector(x))
        worst_res = max(worst_res, res.max_residual)
        worst_alpha = max(worst_alpha, res.alpha_mismatch)
        assert res.equivalent
    report("criterion 1 (shared dual-geodesics, algebraic)",
           worst_res < 1e-9 and worst_alpha < 1e-9,
           f"max residual {worst_res:.2e}, alpha mismatch {worst_alpha:.2e} "
           "(both sign variants, 5x5 grid)")


def test_criterion_2_dual_geodesic_pairs(sw2):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        x0 = 1.0 + rng.random(2)
        angle = 2.0 * np.pi * rng.random()
        w0 = 0.35 * np.array([np.cos(angle), np.sin(angle)])
        a = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, x0, w0,
                                    2000, 1e-3, box=sw2.box,
                                    singular_loci=sw2.singular_loci)
        b = integrate_dual_geodesic(sw2.connection("+B"), sw2.metric, x0, w0,
                                    2000, 1e-3, box=sw2.box,
                                    singular_loci=sw2.singular_loci)
        cmp = curves_coincide(a, b, tol=1e-6)
        worst = max(worst, cmp.dist_a_to_b, cmp.dist_b_to_a)
        assert cmp.coincide
    report("criterion 2 (shared dual-geodesics, geometric)",
           worst < 1e-6,
           f"10 seeded pairs, h=1e-3, 2000 steps, worst Hausdorff {worst:.2e}")


def test_criterion_3_unique_compatible_connection(sw2):
    grid = sw2.grid(5)
    res = semi_compatibility_test(sw2.connection("+B"), sw2.metric, grid, tol=1e-9,
                                  expected_beta=lambda x: 0.0)
    alpha_norm = res.beta_mismatch
    ok_compat = res.max_residual < 1e-9 and alpha_norm < 1e-9

    rng = np.random.default_rng(SEED)
    min_broken = np.inf
    for _ in range(5):
        beta = rng.normal(size=2)
        beta *= (0.5 + rng.random()) / np.linalg.norm(beta)
        shifted = shift_by_one_form(sw2.connection("+T"), sw2.metric,
                                    lambda x, _b=beta: _b)
        min_broken = min(min_broken, compatibility_residual(shifted, sw2.metric, grid))
    report("criterion 3 (unique compatible member)",
           ok_compat and min_broken > 1e-3,
           f"compatible residual {max(res.max_residual, alpha_norm):.2e}; "
           f"5 perturbed candidates all break compatibility (min {min_broken:.2e})")


def test_criterion_4_weak_fixture(sw2_weak):
    grid = sw2_weak.grid(5)
    cls = classify(sw2_weak.metric, sw2_weak.prolongation_tensor,
                   sw2_weak.s_covector, grid, tol=1e-8)
    ok = cls.verdict == "WEAK" and cls.max_n_norm < 1e-8

    dagger = sw2_weak.connection("dagger")
    conn_t = sw2_weak.connection("+T")
    dag_err = max(float(np.max(np.abs(dagger.coefficients(x) - conn_t.coefficients(x))))
                  for x in grid)
    ok = ok and dag_err < 1e-10

    # the connection difference is T - D = -(1/n) g (x) s^sharp, so the
    # equivalence 1-form is -(1/n) s
    dp = dual_projective_test(sw2_weak.connection("+D"), conn_t, sw2_weak.metric,
                              grid, tol=1e-9,
                              expected_alpha=lambda x: -0.5 * sw2_weak.s_covector(x))
    alpha_err = dp.alpha_mismatch
    ok = ok and dp.equivalent and alpha_err < 1e-9

    def beta(x):
        return (sw2_weak.s_covector(x) - 4.0 * sw2_weak.t_covector(x)) / 2.0

    sc = semi_compatibility_test(sw2_weak.connection("+D"), sw2_weak.metric, grid,
                                 tol=1e-9, expected_beta=beta)
    ok = ok and sc.semi_compatible and sc.beta_mismatch < 1e-9
    report("criterion 4 (weak semi-degenerate fixture)", ok,
           f"WEAK with max obstruction {cls.max_n_norm:.2e}; dagger vs induced "
           f"{dag_err:.2e}; alpha mismatch {alpha_err:.2e}; semi-compat residual "
           f"{max(sc.max_residual, sc.beta_mismatch):.2e}")


def test_criterion_5_strong_fixture(sw2_strong):
    grid = sw2_strong.grid(5)
    cls = classify(sw2_strong.metric, sw2_strong.prolongation_tensor,
                   sw2_strong.s_covector, grid, tol=1e-8)

    def beta(x):
        return (sw2_strong.s_covector(x) - 4.0 * sw2_strong.t_covector(x)) / 2.0

    sc = semi_compatibility_test(sw2_strong.connection("+D"), sw2_strong.metric,
                                 grid, tol=1e-9, expected_beta=beta)
    violation = max(sc.max_residual, sc.beta_mismatch)
    report("criterion 5 (strong synthetic fixture)",
           cls.verdict == "STRONG" and violation > 1e-2,
           f"STRONG with max obstruction {cls.max_n_norm:.2e}; beta-form "
           f"semi-compatibility violation {violation:.2e}")


def test_criterion_6_beta_condition_identity(sw2_weak, sw2_strong):
    worst = 0.0
    for fx in (sw2_weak, sw2_strong):
        worst = max(worst, beta_condition_residual(
            fx.metric, fx.connection("+D"), fx.prolongation_tensor,
            fx.s_covector, fx.grid(5)))
    report("criterion 6 (metric-derivative identity)", worst < 1e-8,
           f"left/right agreement on both semi-degenerate fixtures: {worst:.2e}")


def test_criterion_7_recovery_oracle_equivalence(sw2):
    worst = 0.0
    for x in sw2.grid(5):
        T = sw2.solver.structure_tensor(x)
        T_oracle, res = brute_force_structure_tensor(sw2.metric, sw2.family, x)
        assert res < 1e-9
        worst = max(worst, float(np.max(np.abs(T - T_oracle))))
    T = sw2.structure_tensor(np.array([1.0, 2.0]))
    t = sw2.t_covector(np.array([1.0, 2.0]))
    spots_ok = (abs(T[0, 0, 0] + 1.5) < 1e-9 and abs(T[1, 0, 0] - 0.75) < 1e-9
                and np.max(np.abs(t - [-0.75, -0.375])) < 1e-9)
    report("criterion 7 (recovery oracle equivalence)",
           worst < 1e-9 and spots_ok,
           f"library vs brute-force oracle at 25 grid points: {worst:.2e}; "
           "spot values at (1,2) match")


def test_criterion_8_total_symmetry_check(sw2):
    grid = sw2.grid(5)

    def defect(conn):
        worst = 0.0
        for x in grid:
            grad_g = metric_gradient(conn, sw2.metric, x)
            w = grad_g - 2.0 * np.einsum("i,jk->ijk", sw2.t_covector(x),
                                         sw2.metric.value(x))
            for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                worst = max(worst, float(np.max(np.abs(w - np.transpose(w, perm)))))
        return worst

    good = defect(sw2.connection("+T"))
    control = defect(sw2.connection("LC"))
    report("criterion 8 (cubic-form total symmetry)",
           good < 1e-8 and control > 1e-3,
           f"induced-connection defect {good:.2e}; Levi-Civita control {control:.2e}")


def test_criterion_9_codazzi_completion(sphere3):
    grid = sphere3.grid(3)
    n = 3
    zeta_linear = ScalarField.from_source("x1", n)
    f_minus = sphere3.connection("-F", zeta=zeta_linear)
    b_minus = sphere3.connection("-B")
    f_plus = sphere3.connection("+F", zeta=zeta_linear)
    b_plus = sphere3.connection("+B")
    worst = 0.0
    for x in grid:
        gmat = sphere3.metric.value(x)
        target = sym_product_metric_form(gmat, zeta_linear.gradient(x)) / (2.0 * (n - 2))
        d = np.einsum("kl,lij->ijk", gmat,
                      f_minus.coefficients(x) - b_minus.coefficients(x))
        worst = max(worst, float(np.max(np.abs(d - target))))
        d = np.einsum("kl,lij->ijk", gmat,
                      f_plus.coefficients(x) - b_plus.coefficients(x))
        worst = max(worst, float(np.max(np.abs(d + target))))

    zeta_const = ScalarField.from_source("5", n)
    f_const = sphere3.connection("+F", zeta=zeta_const)
    coincide = max(float(np.max(np.abs(f_const.coefficients(x) - b_plus.coefficients(x))))
                   for x in grid)
    report("criterion 9 (completion vs symmetrized connection)",
           worst < 1e-9 and coincide < 1e-12,
           f"difference identity residual {worst:.2e} (zeta = x1); constant-zeta "
           f"coefficient agreement {coincide:.2e}")


def test_criterion_10_numerics_hygiene(sw2):
    # (a) integrator convergence order
    conn = sw2.connection("+T")
    kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
    h = 0.05

    def endpoint(step):
        traj = integrate_dual_geodesic(conn, sw2.metric, [1.0, 2.0], [0.4, 0.3],
                                       int(round(1.0 / step)), step, **kw)
        return traj.x[-1]

    ref = endpoint(h / 16)
    ratio = (np.linalg.norm(endpoint(h) - ref)
             / np.linalg.norm(endpoint(h / 2) - ref))
    ok_ratio = 12.0 < ratio < 20.0

    # (b) jet derivatives vs finite differences on the expression corpus
    rng = np.random.default_rng(SEED)
    worst_fd = 0.0
    for source, (lo, hi) in CORPUS:
        expr = parse(source, 2)
        for _ in range(20):
            x = lo + (hi - lo) * rng.random(2)
            jet = eval_jet2(expr, x)
            scale = max(1.0, np.max(np.abs(jet.grad)), np.max(np.abs(jet.hess)))
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(jet.grad - fd_gradient(expr, x)))) / scale,
                float(np.max(np.abs(jet.hess - fd_hessian(expr, x)))) / scale)
    ok_fd = worst_fd < 1e-6

    # (c) metricity under the Levi-Civita connection on every fixture
    worst_metricity = 0.0
    for name in ("ho2", "sw2", "sw2-weak", "sw2-strong-synthetic", "sphere3-trivial"):
        fx = builtin(name)
        g = fx.metric
        comps = np.array([[g.comps[i][j] for j in range(g.n)] for i in range(g.n)],
                         dtype=object)
        fld = TensorField(comps, ("down", "down"), g.n)
        for x in fx.grid(5):
            worst_metricity = max(worst_metricity, float(np.max(np.abs(
                covariant_derivative(g, fld, x)))))
    ok_metricity = worst_metricity < 1e-9

    report("criterion 10 (numerics hygiene)",
           ok_ratio and ok_fd and ok_metricity,
           f"step-halving error ratio {ratio:.1f} in [12,20]; jet-vs-FD relative "
           f"error {worst_fd:.2e}; metricity {worst_metricity:.2e} on all fixtures")
