import re

import numpy as np
import pytest

from dualgeo.geometry import Metric, ScalarField, TensorField
from dualgeo.structure import (
    PotentialFamily, RankDeficiencyError, StructureSolver, bertrand_darboux_check,
    beta_condition_residual, build_N, build_Z_and_digamma, classify,
    decompose, killing_check, lower_output, poisson_check, t_from_prolongation,
)
from dualgeo.fixtures import (
    VALIDATION_GRID, FixtureError, builtin_config, from_config, validate,
)
from oracles import brute_force_s, brute_force_structure_tensor, dense_recovery, fd_derivative


def family(sources, kind, n=2):
    return PotentialFamily(tuple(ScalarField.from_source(s, n) for s in sources), kind)


SW_SOURCES = ["x1^2 + x2^2", "1/x1^2", "1/x2^2", "1"]
HO_SOURCES = ["x1^2 + x2^2", "x1", "x2", "1"]
WEAK_SOURCES = ["1/x1^2", "1/x2^2", "1"]


# --- structure-tensor recovery ---------------------------------------------------


def test_harmonic_oscillator_recovers_zero(euclid2, rng):
    fam = family(HO_SOURCES, "nondegenerate")
    for _ in range(5):
        x = 0.5 + rng.random(2)
        solver = StructureSolver(euclid2, fam)
        T = solver.structure_tensor(x)
        assert solver.fit_residual(x, {"T": T}) < 1e-12
        assert np.max(np.abs(T)) < 1e-10


def test_affine_family_recovers_zero(euclid2):
    fam = family(["x1", "x2", "x1 + 2*x2", "1"], "nondegenerate")
    T = StructureSolver(euclid2, fam).structure_tensor((0.4, 0.9))
    assert np.max(np.abs(T)) < 1e-12


def test_sw_spot_values(euclid2):
    fam = family(SW_SOURCES, "nondegenerate")
    solver = StructureSolver(euclid2, fam)
    T = solver.structure_tensor((1.0, 2.0))
    assert solver.fit_residual((1.0, 2.0), {"T": T}) < 1e-12
    # hand-derived closed form: T^1_11 = -3/(2 x1), T^2_11 = 3/(2 x2), ...
    assert np.isclose(T[0, 0, 0], -1.5, atol=1e-12)
    assert np.isclose(T[0, 1, 1], 1.5, atol=1e-12)
    assert np.isclose(T[1, 0, 0], 0.75, atol=1e-12)
    assert np.isclose(T[1, 1, 1], -0.75, atol=1e-12)
    assert abs(T[0, 0, 1]) < 1e-13 and abs(T[1, 0, 1]) < 1e-13


def test_recovery_matches_brute_force_oracle(euclid2, sw2, rng):
    fam = family(SW_SOURCES, "nondegenerate")
    solver = StructureSolver(euclid2, fam)
    for x in sw2.grid(5):
        T = solver.structure_tensor(x)
        T_oracle, res_oracle = brute_force_structure_tensor(euclid2, fam, x)
        assert res_oracle < 1e-9
        assert np.max(np.abs(T - T_oracle)) < 1e-9


def test_recovery_brute_force_oracle_sphere3(sphere3, rng):
    for _ in range(3):
        x = -0.4 + 0.8 * rng.random(3)
        T = sphere3.solver.structure_tensor(x)
        T_oracle, _ = brute_force_structure_tensor(sphere3.metric, sphere3.family, x)
        assert sphere3.solver.fit_residual(x, {"T": T}) < 1e-9
        assert np.max(np.abs(T)) < 1e-9
        assert np.max(np.abs(T - T_oracle)) < 1e-8


def test_recovery_invariant_under_basis_change(euclid2, rng):
    fam = family(SW_SOURCES, "nondegenerate")
    x = np.array([1.3, 0.8])
    T_ref = StructureSolver(euclid2, fam).structure_tensor(x)
    base = [ScalarField.from_source(s, 2) for s in SW_SOURCES]
    for _ in range(3):
        M = rng.normal(size=(4, 4))
        while abs(np.linalg.det(M)) < 0.3:
            M = rng.normal(size=(4, 4))

        mixed = []
        for row in M:
            terms = " + ".join(f"({float(c)!r})*({s})" for c, s in zip(row, SW_SOURCES))
            mixed.append(ScalarField.from_source(terms, 2))
        fam_mixed = PotentialFamily(tuple(mixed), "nondegenerate")
        solver = StructureSolver(euclid2, fam_mixed)
        T_mix = solver.structure_tensor(x)
        assert solver.fit_residual(x, {"T": T_mix}) < 1e-9
        assert np.max(np.abs(T_mix - T_ref)) < 1e-9


def test_trace_identity_on_grid(sw2):
    ginv = np.eye(2)
    for x in sw2.grid(5):
        T = sw2.structure_tensor(x)
        assert np.max(np.abs(np.einsum("ij,kij->k", ginv, T))) < 1e-9


@pytest.mark.parametrize("method", ["structure_tensor", "structure_tensor_jacobian",
                                    "prolongation_tensor", "prolongation_jacobian", "s_vector"])
def test_rank_deficiency_raises(euclid2, method):
    fam = family(["1", "2", "x1", "3"], "nondegenerate")
    with pytest.raises(RankDeficiencyError):
        getattr(StructureSolver(euclid2, fam), method)((0.5, 0.5))
    # in a stack the error names the failing row's point: this family has
    # rank 1 on x1 = 0 and rank 2 elsewhere
    solve = getattr(StructureSolver(euclid2, family(
        ["x1^2 + x2^2", "x1^2", "x2^2", "1"], "nondegenerate")), method)
    solve((0.5, 0.5))
    label = {"structure": "structure-tensor", "prolongation": "prolongation-tensor",
             "s": "semi-degeneracy"}[method.split("_")[0]]
    with pytest.raises(RankDeficiencyError,
                       match=re.escape(f"{label} recovery is rank-deficient at [0.  0.5]")):
        solve(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_bad_family_residual_raises():
    # quartic potential is not in any second-order prolongation of this family;
    # the residual is far above validation's 1e-8 recovery threshold everywhere
    fx = from_config(_inconsistent_config(), validate_on_load=False)
    assert_recovery_residual_fails_everywhere(fx)


def assert_recovery_residual_fails_everywhere(fx):
    failures = validate(fx)
    assert [f["check"] for f in failures] == ["recovery-residual"] * VALIDATION_GRID**fx.n
    assert [f["point"] for f in failures] == fx.grid(VALIDATION_GRID).tolist()
    assert min(f["residual"] for f in failures) > 0.05


def test_structure_jacobian_matches_closed_form(euclid2):
    fam = family(SW_SOURCES, "nondegenerate")
    solver = StructureSolver(euclid2, fam)
    x = np.array([1.2, 0.9])
    dT = solver.structure_tensor_jacobian(x)
    # T^1_11 = -3/(2 x1): d/dx1 = 3/(2 x1^2); T^2_11 = 3/(2 x2): d/dx2 = -3/(2 x2^2)
    assert np.isclose(dT[0, 0, 0, 0], 1.5 / x[0] ** 2, atol=1e-9)
    assert np.isclose(dT[1, 1, 0, 0], -1.5 / x[1] ** 2, atol=1e-9)
    assert abs(dT[1, 0, 0, 0]) < 1e-9


def test_structure_jacobian_curved_metric_fd(sphere3):
    # analytic jacobian of the recovery vs central differences of the recovery
    solver = sphere3.solver
    x = np.array([0.15, -0.2, 0.1])
    dT = solver.structure_tensor_jacobian(x)
    h = 1e-5
    for a in range(3):
        up, dn = x.copy(), x.copy()
        up[a] += h
        dn[a] -= h
        fd = (solver.structure_tensor(up) - solver.structure_tensor(dn)) / (2 * h)
        assert np.max(np.abs(dT[a] - fd)) < 1e-6


# --- decomposition ---------------------------------------------------------------


def test_decompose_zero(euclid2):
    dec = decompose(np.zeros((2, 2, 2)), np.eye(2), np.eye(2))
    assert np.max(np.abs(dec.S)) == 0.0 and np.max(np.abs(dec.t)) == 0.0


def test_decompose_sw(sw2):
    x = np.array([1.0, 2.0])
    T = sw2.structure_tensor(x)
    dec = decompose(T, np.eye(2), np.eye(2))
    assert np.allclose(dec.tau, [-1.5, -0.75], atol=1e-12)
    assert np.allclose(dec.t, [-0.75, -0.375], atol=1e-12)
    # reconstruction is exact by definition of the remainder
    t_terms = sum(np.moveaxis(np.einsum("i,jk->ijk", dec.t, np.eye(2)), 0, k)
                  for k in range(3))
    Tc = np.einsum("kl,lij->ijk", np.eye(2), T)
    assert np.max(np.abs(Tc - dec.S - t_terms)) < 1e-15
    # the remainder is NOT totally symmetric here; the defect is reported
    assert dec.symmetry_defect > 1.0


def test_build_B_values_and_symmetry(sw2):
    x = np.array([1.0, 2.0])
    Bh = sw2.b_tensor(x)
    Bc = lower_output(Bh, np.eye(2))
    assert np.isclose(Bh[0, 0, 0], -3.0, atol=1e-12)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.max(np.abs(Bc - np.transpose(Bc, perm))) < 1e-12


def test_b_minus_t_identity(sw2):
    # (B - T)(X,Y,Z) = ((n+2)/n) t(Z) g(X,Y) exactly
    for x in sw2.grid(3):
        T = sw2.structure_tensor(x)
        dec = decompose(T, np.eye(2), np.eye(2))
        Bc = lower_output(sw2.b_tensor(x), np.eye(2))
        Tc = np.einsum("kl,lij->ijk", np.eye(2), T)
        assert np.max(np.abs((Bc - Tc) - 2.0 * np.einsum("ij,k->ijk", np.eye(2),
                                                         dec.t))) < 1e-14


# --- semi-degenerate path ---------------------------------------------------------


def test_recover_s_weak_family(euclid2):
    fam = family(WEAK_SOURCES, "semidegenerate")
    solver = StructureSolver(euclid2, fam)
    s = solver.s_vector((1.0, 2.0))
    assert solver.fit_residual((1.0, 2.0), {"s": s}) < 1e-12
    assert np.allclose(s, [-3.0, -1.5], atol=1e-12)
    s_oracle, _ = brute_force_s(euclid2, fam, (1.0, 2.0))
    assert np.allclose(s, s_oracle, atol=1e-12)


def test_recover_s_harmonic_polynomials(euclid2):
    fam = family(["x1", "x2", "1"], "semidegenerate")
    solver = StructureSolver(euclid2, fam)
    s = solver.s_vector((0.7, 0.4))
    assert solver.fit_residual((0.7, 0.4), {"s": s}) < 1e-13
    assert np.max(np.abs(s)) < 1e-13


def test_recover_s_inconsistent_family():
    # no s fits Laplacian(V) = s(dV) for the oscillator and both inverse squares
    fx = from_config({**_inconsistent_config(), "kind": "semidegenerate",
                      "potentials": ["x1^2 + x2^2", "1/x1^2", "1/x2^2"]},
                     validate_on_load=False)
    assert_recovery_residual_fails_everywhere(fx)
    # s's residual fails alone too, not only through D's
    grid = fx.grid(VALIDATION_GRID)
    assert np.min(fx.solver.fit_residual(grid, {"s": fx.s_vector(grid)})) > 0.05


def test_prolongation_recovery_weak(euclid2):
    fam = family(WEAK_SOURCES, "semidegenerate")
    solver = StructureSolver(euclid2, fam)
    D = solver.prolongation_tensor((1.0, 2.0))
    assert solver.fit_residual((1.0, 2.0), {"D": D}) < 1e-12
    assert np.isclose(D[0, 0, 0], -3.0) and np.isclose(D[1, 1, 1], -1.5)
    assert np.max(np.abs(D[0, 1, 1])) < 1e-13
    # pair trace of D equals s
    s = solver.s_vector((1.0, 2.0))
    assert np.allclose(np.einsum("ij,kij->k", np.eye(2), D), s, atol=1e-12)


def test_t_from_prolongation(sw2_weak):
    x = np.array([1.0, 2.0])
    D = sw2_weak.prolongation_tensor(x)
    t = t_from_prolongation(D, sw2_weak.s_covector(x), 2)
    assert np.allclose(t, [-0.75, -0.375], atol=1e-12)


def test_build_N_trivial_cases():
    g = np.eye(2)
    # totally symmetric D with vanishing d-form gives N = 0
    D = np.zeros((2, 2, 2))
    D[0, 0, 0] = 2.0
    D[1, 1, 1] = -1.0
    s = np.einsum("ij,kij->k", np.eye(2), D)
    t = t_from_prolongation(D, s, 2)
    assert np.max(np.abs((2 + 2) * t - s)) < 1e-14  # d = 0 for this D
    assert np.max(np.abs(build_N(D, g, s, t))) < 1e-14


def test_build_N_detects_mixed_symmetry(sw2_strong):
    x = np.array([1.0, 2.0])
    D = sw2_strong.prolongation_tensor(x)
    N = build_N(D, np.eye(2), sw2_strong.s_covector(x), sw2_strong.t_covector(x))
    assert np.max(np.abs(N)) > 0.1


def test_classify_weak_and_extraction(sw2_weak, sw2, rng):
    grid = sw2_weak.grid(4)
    cls = classify(sw2_weak.metric, sw2_weak.prolongation_tensor,
                   sw2_weak.s_covector, grid)
    assert cls.verdict == "WEAK"
    assert cls.max_n_norm < 1e-8
    # cross-path consistency: extraction equals the enlarging-family recovery
    for _ in range(10):
        x = 0.6 + 2.0 * rng.random(2)
        assert np.max(np.abs(sw2_weak.structure_tensor(x) - sw2.structure_tensor(x))) < 1e-8


def test_classify_strong(sw2_strong):
    grid = sw2_strong.grid(4)
    cls = classify(sw2_strong.metric, sw2_strong.prolongation_tensor,
                   sw2_strong.s_covector, grid)
    assert cls.verdict == "STRONG"


def test_classify_trivial_zero():
    g = Metric.from_sources([["1", "0"], ["0", "1"]])
    cls = classify(g, lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2)),
                   lambda x: np.zeros(np.shape(x)), [np.zeros(2)])
    assert cls.verdict == "WEAK"


def test_beta_condition_identity(sw2_weak, sw2_strong):
    for fx in (sw2_weak, sw2_strong):
        res = beta_condition_residual(fx.metric, fx.connection("+D"),
                                      fx.prolongation_tensor, fx.s_covector,
                                      fx.grid(4))
        assert res < 1e-8, fx.name


# --- Z and the Codazzi completion ---------------------------------------------


def test_z_flat_3d_trivial():
    g = Metric.from_sources([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zeta = ScalarField.from_source("0", 3)
    data = build_Z_and_digamma(g, np.zeros((3, 3, 3)), zeta, np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(data.Z)) < 1e-12
    assert data.zeta_residual < 1e-12


def test_z_round_sphere_is_minus_ricci(sphere3):
    x = np.array([0.1, -0.15, 0.2])
    zeta = ScalarField.from_source("0", 3)
    data = build_Z_and_digamma(sphere3.metric, sphere3.structure_tensor(x), zeta, x)
    ric = sphere3.metric.ricci(x)
    assert np.max(np.abs(data.Z + ric)) < 1e-9
    assert np.max(np.abs(data.Z_tracefree)) < 1e-9   # Einstein: trace-free part vanishes
    assert data.zeta_residual < 1e-9


def test_z_requires_three_dimensions(euclid2):
    zeta = ScalarField.from_source("0", 2)
    with pytest.raises(Exception, match="n >= 3"):
        build_Z_and_digamma(euclid2, np.zeros((2, 2, 2)), zeta, np.zeros(2))


def test_digamma_reduces_to_b_for_constant_zeta(sphere3):
    x = np.array([0.2, 0.1, -0.1])
    zeta = ScalarField.from_source("7", 3)
    assert np.max(np.abs(sphere3._f_tensor(x, zeta) - sphere3.b_tensor(x))) < 1e-12


# --- fixture validation checks ----------------------------------------------------


def test_killing_check_metric_itself(sphere2):
    comps = np.array([[sphere2.comps[i][j] for j in range(2)] for i in range(2)],
                     dtype=object)
    K = TensorField(comps, ("down", "down"), 2)
    pts = [np.array([0.9, 0.3]), np.array([1.3, 0.8])]
    assert killing_check(sphere2, K, pts) < 1e-12


def test_killing_check_broken(euclid2):
    K = TensorField.from_sources([["x2^2", "0"], ["0", "0"]], ("down", "down"), 2)
    assert killing_check(euclid2, K, [np.array([0.5, 1.0])]) > 1e-2


def test_bertrand_darboux_sw(euclid2, sw2):
    K = TensorField.from_sources([["1", "0"], ["0", "0"]], ("down", "down"), 2)
    pts = sw2.grid(3)
    for src in SW_SOURCES:
        V = ScalarField.from_source(src, 2)
        assert bertrand_darboux_check(euclid2, K, V, pts) < 1e-12


def test_bertrand_darboux_violated(euclid2):
    K = TensorField.from_sources([["1", "0"], ["0", "0"]], ("down", "down"), 2)
    V = ScalarField.from_source("x1*x2", 2)  # mixed partial does not vanish
    assert bertrand_darboux_check(euclid2, K, V, [np.array([1.0, 1.0])]) > 0.5


def test_poisson_check_f_equals_h(euclid2, rng):
    # V = 0 and F = H: the bracket vanishes identically
    K = TensorField.from_sources([["1", "0"], ["0", "1"]], ("down", "down"), 2)
    zero = ScalarField.from_source("0", 2)
    momenta = [rng.normal(size=2) for _ in range(5)]
    assert poisson_check(euclid2, zero, K, zero,
                         [np.array([0.7, 0.3])], momenta) < 1e-14


def test_poisson_check_sw_integral(euclid2, rng):
    K = TensorField.from_sources([["1", "0"], ["0", "0"]], ("down", "down"), 2)
    V = ScalarField.from_source("x1^2 + x2^2 + 1/x1^2 + 1/x2^2", 2)
    W = ScalarField.from_source("x1^2 + 1/x1^2", 2)
    momenta = [rng.normal(size=2) for _ in range(5)]
    pts = [np.array([1.0, 2.0]), np.array([0.8, 1.4])]
    assert poisson_check(euclid2, V, K, W, pts, momenta) < 1e-12
    # wrong scalar part breaks the bracket
    W_bad = ScalarField.from_source("x2^2", 2)
    assert poisson_check(euclid2, V, K, W_bad, pts, momenta) > 1e-2


# --- the decoupled solve against the dense constrained system -------------------


def _without_structure(name):
    cfg = builtin_config(name)
    del cfg["structure"]
    return cfg


def _sw_config(n):
    """n-D Smorodinsky-Winternitz family on flat space, no closed forms."""
    return {"dimension": n,
            "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
            "potentials": [" + ".join(f"x{i}^2" for i in range(1, n + 1))]
                          + [f"1/x{i}^2" for i in range(1, n + 1)] + ["1"],
            "kind": "nondegenerate", "domain": [[0.5, 3.0]] * n}


def _kc2_config():
    r = "sqrt(x1^2 + x2^2)"
    return {"dimension": 2, "metric": [["1", "0"], ["0", "1"]],
            "potentials": [f"1/{r}", f"sqrt({r} + x1)/{r}", f"sqrt({r} - x1)/{r}", "1"],
            "kind": "nondegenerate", "domain": [[0.5, 3.0], [0.5, 3.0]]}


def _polar_sw_config():
    """2-D SW in polar coordinates: the metric, so g^{-1}, depends on x."""
    return {"dimension": 2, "metric": [["1", "0"], ["0", "x1^2"]],
            "potentials": ["x1^2", "1/(x1^2*cos(x2)^2)", "1/(x1^2*sin(x2)^2)", "1"],
            "kind": "nondegenerate", "domain": [[1.0, 2.0], [0.3, 1.2]]}


def _polar_sw_weak_config():
    """sw2-weak's family in polar coordinates: a semi-degenerate family on a
    chart whose metric depends on x."""
    return {**_polar_sw_config(), "kind": "semidegenerate",
            "potentials": ["1/(x1^2*cos(x2)^2)", "1/(x1^2*sin(x2)^2)", "1"]}


def _inconsistent_config():
    """No T fits the quartic potential: a least-squares fit with residual of order 1."""
    return {"dimension": 2, "metric": [["1", "0"], ["0", "1"]],
            "potentials": ["x1^4", "1/x1^2", "1/x2^2", "1"],
            "kind": "nondegenerate", "domain": [[0.5, 3.0], [0.5, 3.0]]}


REFERENCE_CASES = {
    "sw2-recovered": lambda: _without_structure("sw2"),
    "ho2": lambda: builtin_config("ho2"),
    "sphere3-trivial": lambda: builtin_config("sphere3-trivial"),
    "sw2-weak": lambda: builtin_config("sw2-weak"),
    "kc2": _kc2_config,
    **{f"sw{n}": (lambda n=n: _sw_config(n)) for n in range(3, 7)},
    "sw2-polar": _polar_sw_config,
    "sw2-quartic": _inconsistent_config,
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_recovery_equals_dense_reference(name):
    fx = from_config(REFERENCE_CASES[name](), validate_on_load=False)
    solver = fx.solver
    lo, hi = np.array(fx.box).T
    for x in lo + (hi - lo) * np.random.default_rng(7).random((3, fx.n)):
        for trace_free, solve, jacobian in (
                (True, solver.structure_tensor, solver.structure_tensor_jacobian),
                (False, solver.prolongation_tensor, solver.prolongation_jacobian)):
            X = solve(x)
            res = solver.fit_residual(x, {"T" if trace_free else "D": X})
            X_ref, res_ref, dX_ref = dense_recovery(fx.metric, fx.family, x, trace_free)
            dX = jacobian(x)
            for got, want in ((X, X_ref), (res, res_ref), (dX, dX_ref)):
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (x, trace_free)
        # T is g-trace-free through its right-hand side alone, and so is dT
        T, dT = solver.structure_tensor(x), solver.structure_tensor_jacobian(x)
        ginv = fx.metric.inverse(x)
        trace = np.einsum("ij,kij->k", ginv, T)
        dtrace = (np.einsum("aij,kij->ak", fx.metric.inverse_jacobian(x), T)
                  + np.einsum("ij,akij->ak", ginv, dT))
        for got, tensor in ((trace, T), (dtrace, dT)):
            assert np.max(np.abs(got)) <= 1e-12 * max(1.0, np.max(np.abs(tensor))), x


STACK_CASES = {
    "sw2": lambda: _without_structure("sw2"),
    "sw2-weak": lambda: _without_structure("sw2-weak"),
    "sphere3-trivial": lambda: _without_structure("sphere3-trivial"),
    "kc2": _kc2_config,
}


@pytest.mark.parametrize("name", list(STACK_CASES))
def test_solver_on_stacks_equals_single_points(name):
    # every row of a stacked recovery, residuals too, is its single-point call
    fx = from_config(STACK_CASES[name](), validate_on_load=False)
    solver = fx.solver
    lo, hi = np.array(fx.box).T
    block = lo + (hi - lo) * np.random.default_rng(11).random((2, 3, fx.n))

    def residual(x):
        return solver.fit_residual(x, {"T": solver.structure_tensor(x),
                                       "D": solver.prolongation_tensor(x),
                                       "s": solver.s_vector(x)})

    for solve in (solver.structure_tensor, solver.structure_tensor_jacobian,
                  solver.prolongation_tensor, solver.prolongation_jacobian, solver.s_vector,
                  residual):
        for points in (fx.grid(3), block):
            batch = solve(points)
            single = np.array([solve(x) for x in points.reshape(-1, fx.n)])
            assert batch.shape == points.shape[:-1] + single.shape[1:], solve
            assert batch.tobytes() == single.tobytes(), solve


@pytest.mark.parametrize("config", [lambda: _without_structure("sw2-weak"),
                                    _polar_sw_weak_config], ids=["sw2-weak", "polar"])
def test_d_jacobian_matches_central_differences(config):
    # D of a semi-degenerate family fits with a residual at roundoff, so the
    # differentiated system gives its derivative, which +D's Ricci tensor
    # needs; measured gap 3.9e-9 at |dD| = 12 (sw2-weak) and 2.9e-8 at
    # |dD| = 38 (polar).  The T such a fixture extracts has no Jacobian.
    fx = from_config(config())
    grid = fx.grid(4)
    dD = fx.prolongation_jacobian(grid)
    fd = np.array([fd_derivative(fx.solver.prolongation_tensor, x) for x in grid])
    scale = np.max(np.abs(dD))
    assert scale > 1.0
    assert np.max(np.abs(dD - fd)) < 1e-8 * scale
    with pytest.raises(FixtureError, match="is semidegenerate; only the T of a "
                                           "nondegenerate fixture has a Jacobian"):
        fx.structure_tensor_jacobian(grid)


def test_structure_jacobian_polar_sw():
    # g^{-1} depends on x, so the trace constraint of dT is inhomogeneous
    fx = from_config(_polar_sw_config())
    grid = fx.grid(4)
    dT = fx.structure_tensor_jacobian(grid)
    fd = np.array([fd_derivative(fx.structure_tensor, x) for x in grid])
    assert np.max(np.abs(dT)) > 1.0
    assert np.max(np.abs(dT - fd)) < 1e-6
