import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgeo.connections import (
    AffineConnection, ConnectionError_, TorsionError, compatibility_residual,
    connection_ricci_symmetry_check, difference_connection, difference_tensor,
    dual_projective_test, levi_civita, semi_compatibility_test, shift_by_one_form,
)
from dualgeo.fixtures import builtin, builtin_names, from_config
from dualgeo.geometry import Metric, ScalarField
from oracles import (
    buildable_tags, reference_coefficients, reference_jacobian, tags_without_jacobian,
)


@pytest.fixture(scope="module")
def sw2_grid(sw2):
    return sw2.grid(4)


def test_difference_connection_zero_is_levi_civita(sphere2):
    conn = difference_connection(sphere2, +1, lambda x: np.zeros((2, 2, 2)), "zero")
    x = (0.8, 0.3)
    assert np.allclose(conn.coefficients(x), sphere2.christoffel(x))


def test_difference_connection_constant_tensor(euclid2):
    A = np.zeros((2, 2, 2))
    A[0, 0, 1] = A[0, 1, 0] = 0.7
    plus = difference_connection(euclid2, +1, lambda x: A, "plusA")
    minus = difference_connection(euclid2, -1, lambda x: A, "minusA")
    # the plus connection subtracts the tensor
    assert np.allclose(plus.coefficients((0.1, 0.2)), -A)
    assert np.allclose(minus.coefficients((0.1, 0.2)), +A)
    # Gamma - A and Gamma + A are Gamma - sign * A only for sign +1 and -1
    for sign in (0, 2, -0.5, float("nan")):
        with pytest.raises(ValueError, match="sign must be"):
            difference_connection(euclid2, sign, lambda x: A, "bad")


def test_difference_connection_rounds_as_gamma_minus_sign_times_a(sphere2):
    A = np.array([[[0.7, -0.0], [-0.0, 1e-300]], [[-0.0, 0.0], [0.0, -3.1]]])
    for x in [(0.8, 0.3), np.array([[0.8, 0.3], [2.0, -0.0], [1.1, 2.0]])]:
        gamma = sphere2.christoffel(x)
        for sign in (+1, -1):
            conn = difference_connection(sphere2, sign, lambda x: A, "A")
            assert conn.coefficients(x).tobytes() == (gamma - sign * A).tobytes()


def test_difference_connection_sw_value(sw2):
    conn = sw2.connection("+T")
    assert np.isclose(conn.coefficients((1.0, 2.0))[0, 0, 0], 1.5)


def test_difference_tensor_self_is_zero(sw2):
    conn = sw2.connection("+T")
    assert np.max(np.abs(difference_tensor(conn, conn, (1.0, 2.0)))) == 0.0


def test_difference_tensor_t_vs_b(sw2):
    d = difference_tensor(sw2.connection("+T"), sw2.connection("+B"), (1.0, 2.0))
    t_sharp = np.array([-0.75, -0.375])
    expected = 2.0 * np.einsum("k,ij->kij", t_sharp, np.eye(2))
    assert np.max(np.abs(d - expected)) < 1e-12


def test_difference_tensor_d_vs_dagger(sw2_weak):
    # dagger = (+D)-connection + (1/n) s^sharp (x) g, so the difference is the
    # negated trace shift
    d = difference_tensor(sw2_weak.connection("+D"), sw2_weak.connection("dagger"),
                          (1.0, 2.0))
    s_sharp = np.array([-3.0, -1.5])
    assert np.max(np.abs(d + 0.5 * np.einsum("k,ij->kij", s_sharp, np.eye(2)))) < 1e-12


def test_dual_projective_identical(sw2, sw2_grid):
    conn = sw2.connection("+T")
    res = dual_projective_test(conn, conn, sw2.metric, sw2_grid,
                               expected_alpha=lambda x: 0.0)
    assert res.equivalent
    assert res.max_residual == 0.0
    assert res.alpha_mismatch == 0.0


def test_dual_projective_t_vs_b(sw2, sw2_grid):
    res = dual_projective_test(sw2.connection("+T"), sw2.connection("+B"),
                               sw2.metric, sw2_grid)
    assert res.equivalent
    single = dual_projective_test(sw2.connection("+T"), sw2.connection("+B"),
                                  sw2.metric, [np.array([1.0, 2.0])],
                                  expected_alpha=lambda x: np.array([-1.5, -0.75]))
    assert single.alpha_mismatch <= 1e-12


def test_dual_projective_negative_example(euclid2):
    # output-asymmetric perturbation: candidate alpha = (1/2, 0), residual 1/2
    D = np.zeros((2, 2, 2))
    D[0, 0, 0] = 1.0
    base = levi_civita(euclid2)
    pert = AffineConnection(euclid2, lambda x: D, "pert")
    res = dual_projective_test(pert, base, euclid2, [np.zeros(2)],
                               expected_alpha=lambda x: np.array([0.5, 0.0]))
    assert not res.equivalent
    assert np.isclose(res.max_residual, 0.5)
    assert res.alpha_mismatch <= 1e-8


def test_dual_projective_requires_torsion_free(euclid2):
    G = np.zeros((2, 2, 2))
    G[0, 0, 1] = 1.0
    torsional = AffineConnection(euclid2, lambda x: G, "torsional")
    with pytest.raises(TorsionError):
        dual_projective_test(torsional, levi_civita(euclid2), euclid2, [np.zeros(2)])


@given(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.sampled_from(["euclid", "conformal"]))
@settings(max_examples=60, deadline=None)
def test_one_form_shift_always_passes(alpha_vals, which):
    # forward direction of the criterion, property-tested with random alpha
    g = (Metric.from_sources([["1", "0"], ["0", "1"]]) if which == "euclid"
         else Metric.from_sources([["exp(2*x1)", "0"], ["0", "exp(2*x1)"]]))
    alpha = np.array(alpha_vals)
    base = levi_civita(g)
    shifted = shift_by_one_form(base, g, lambda x: alpha)
    pts = [np.array([0.1, 0.2]), np.array([-0.4, 0.6])]
    res = dual_projective_test(shifted, base, g, pts, expected_alpha=lambda x: alpha)
    assert res.equivalent
    assert res.alpha_mismatch < 1e-9


def test_dual_projective_transitive_on_family(sw2, sw2_weak):
    """reflexive + symmetric + transitive across the fixture families."""
    conns = {t: sw2.connection(t) for t in ("LC", "+T", "-T", "+B", "-B")}
    conns_w = {t: sw2_weak.connection(t) for t in ("+D", "-D", "dagger", "+T")}
    grid = sw2.grid(3)

    def eq(a, b, fam):
        return dual_projective_test(fam[a], fam[b], sw2.metric, grid).equivalent

    tags = list(conns)
    table = {(a, b): eq(a, b, conns) for a in tags for b in tags}
    for a in tags:
        assert table[(a, a)]
        for b in tags:
            assert table[(a, b)] == table[(b, a)]
            for c in tags:
                if table[(a, b)] and table[(b, c)]:
                    assert table[(a, c)], (a, b, c)
    # expected classes on sw2: {+T,+B}, {-T,-B}, {LC}
    assert table[("+T", "+B")] and table[("-T", "-B")]
    assert not table[("+T", "LC")] and not table[("+T", "-T")]
    # weak fixture: {+D, dagger, +T} together
    wtags = list(conns_w)
    wtable = {(a, b): eq(a, b, conns_w) for a in wtags for b in wtags}
    assert wtable[("+D", "dagger")] and wtable[("+D", "+T")] and wtable[("dagger", "+T")]
    assert not wtable[("+D", "-D")]


def test_semi_compatibility_levi_civita(sphere2):
    pts = [np.array([0.9, 0.1]), np.array([1.2, 0.5])]
    res = semi_compatibility_test(levi_civita(sphere2), sphere2, pts,
                                  expected_beta=lambda x: 0.0)
    assert res.semi_compatible
    assert res.max_residual < 1e-12
    assert res.beta_mismatch < 1e-12


def test_semi_compatibility_b_connection(sw2, sw2_grid):
    res = semi_compatibility_test(sw2.connection("+B"), sw2.metric, sw2_grid,
                                  expected_beta=lambda x: 0.0)
    assert res.semi_compatible
    assert res.beta_mismatch < 1e-12


def test_semi_compatibility_weak_fixture(sw2_weak):
    grid = sw2_weak.grid(4)
    n = 2

    def beta(x):
        return (sw2_weak.s_covector(x) - (n + 2) * sw2_weak.t_covector(x)) / n

    res = semi_compatibility_test(sw2_weak.connection("+D"), sw2_weak.metric, grid,
                                  expected_beta=beta)
    assert res.semi_compatible
    assert res.beta_mismatch < 1e-12
    # beta vanishes identically here: s = (n+2) t on this fixture
    assert max(np.max(np.abs(beta(x))) for x in grid) < 1e-12


def test_semi_compatibility_trace_shift_alpha(euclid2):
    # nabla - g (x) w is semi-compatible via alpha = w (hand computation)
    w = np.array([0.8, -0.3])

    def coeff(x):
        return -np.einsum("k,ij->kij", w, np.eye(2))

    conn = AffineConnection(euclid2, coeff, "trace-shift")
    res = semi_compatibility_test(conn, euclid2, [np.zeros(2)], expected_beta=lambda x: w)
    assert res.semi_compatible
    assert res.beta_mismatch <= 1e-8


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_semi_compatibility_extraction_exact_on_model_inputs(a1, a2):
    # the contraction-based alpha extraction is exact whenever the
    # antisymmetrized derivative genuinely has the alpha-wedge-metric form
    g = Metric.from_sources([["2", "0"], ["0", "1 + x1^2"]])
    alpha = np.array([a1, a2])

    def coeff(x):
        alpha_sharp = np.einsum("...km,m->...k", g.inverse(x), alpha)
        return g.christoffel(x) - np.einsum("...k,...ij->...kij", alpha_sharp, g.value(x))

    conn = AffineConnection(g, coeff, "model")
    pts = [np.array([0.2, 0.5]), np.array([-0.7, 0.1])]
    res = semi_compatibility_test(conn, g, pts, expected_beta=lambda x: alpha)
    assert res.semi_compatible
    assert res.beta_mismatch < 1e-10


def test_compatibility_residual_shifted(sw2, sw2_grid):
    shifted = shift_by_one_form(sw2.connection("+T"), sw2.metric,
                                lambda x: np.array([0.4, 0.1]))
    assert compatibility_residual(shifted, sw2.metric, sw2_grid) > 1e-2


def test_ricci_symmetry_levi_civita(sphere2):
    pts = [np.array([0.8, 0.2]), np.array([1.1, 0.6])]
    assert connection_ricci_symmetry_check(levi_civita(sphere2), pts) < 1e-8


def test_ricci_symmetry_induced(sw2):
    grid = sw2.grid(3)
    assert connection_ricci_symmetry_check(sw2.connection("+T"), grid) < 1e-6
    assert connection_ricci_symmetry_check(sw2.connection("-T"), grid) < 1e-6


def test_ricci_symmetry_broken_by_nonclosed_trace(euclid2):
    # difference tensor with a non-closed trace one-form w = (x2, 0)
    def coeff(x):
        w = np.stack([x[..., 1], np.zeros_like(x[..., 1])], axis=-1)
        eye = np.eye(2)
        return 0.5 * (np.einsum("ki,...j->...kij", eye, w)
                      + np.einsum("kj,...i->...kij", eye, w))

    # dGamma[a, k, i, j] = (delta^k_i d_a w_j + delta^k_j d_a w_i) / 2, where
    # only d_2 w_1 = 1
    dw = np.array([[0.0, 0.0], [1.0, 0.0]])
    dgamma = 0.5 * (np.einsum("ki,aj->akij", np.eye(2), dw)
                    + np.einsum("kj,ai->akij", np.eye(2), dw))

    def jac(x):
        return np.broadcast_to(dgamma, x.shape[:-1] + dgamma.shape)

    conn = AffineConnection(euclid2, coeff, "nonclosed", jac_fn=jac)
    pts = [np.array([0.3, 0.7]), np.array([-0.2, 0.4])]
    assert connection_ricci_symmetry_check(conn, pts) > 1e-3


def test_a_connection_without_a_jacobian_raises_naming_its_tag(sw2, sw2_weak, sphere3):
    # the package has no finite-difference fallback: dagger, F, a 1-form shift
    # and a connection built from coefficients alone (theorem 1's perturbed
    # control) have no derivative, and so no Ricci tensor
    x2, x3 = sw2.grid(3)[4], sphere3.grid(3)[4]
    cases = [(sw2_weak.connection("dagger"), x2), (sphere3.connection("+F"), x3),
             (sphere3.connection("-F"), x3),
             (shift_by_one_form(sw2.connection("+T"), sw2.metric,
                                lambda _x: np.array([0.4, 0.1]), tag="plus-shifted"), x2),
             (AffineConnection(sw2.metric, sw2.connection("+B").coefficients,
                               "B-perturbed"), x2)]
    for conn, x in cases:
        for derived in (conn.jacobian, conn.ricci):
            with pytest.raises(ConnectionError_, match=f"connection '{re.escape(conn.tag)}' "
                                                       "has no analytic Jacobian"):
                derived(x)
        assert np.isfinite(conn.coefficients(x)).all()


def _stack_fixture(name):
    """A built-in, or with the suffix -recovered the built-in without its
    structure block, so every structure field is recovered."""
    from dualgeo.fixtures import builtin_config, from_config
    if not name.endswith("-recovered"):
        return builtin(name)
    cfg = builtin_config(name.removesuffix("-recovered"))
    del cfg["structure"]
    return from_config(cfg, validate_on_load=False)


STACK_FIXTURES = ["ho2", "sw2", "sw2-weak", "sw2-strong-synthetic", "sphere3-trivial",
                  "sw2-recovered", "sw2-weak-recovered", "sphere3-trivial-recovered"]


@pytest.mark.parametrize("name", STACK_FIXTURES)
def test_coefficients_on_stacked_points_equal_single_points(name):
    fixture = _stack_fixture(name)
    points = np.stack(fixture.grid(3))
    for tag in buildable_tags(fixture):
        conn = fixture.connection(tag)
        single = np.stack([conn.coefficients(x) for x in points])
        batch = conn.coefficients(points)
        assert batch.shape == single.shape, tag
        assert batch.tobytes() == single.tobytes(), tag
        # a (1, n) stack is a batch too
        assert conn.coefficients(points[:1]).shape == (1,) + single.shape[1:]


@pytest.mark.parametrize("name", builtin_names() + ["sw2-recovered", "sw2-weak-recovered"])
def test_point_path_equals_the_coefficients_at_each_point(name):
    # the flat list a lone integrator row reads, against the array path, on
    # every connection the fixture builds; NaNs compare by class only
    fixture = _stack_fixture(name)
    for tag in buildable_tags(fixture):
        conn = fixture.connection(tag)
        for x in fixture.grid(5):
            got, want = np.array(conn.point(x.tolist())), conn.coefficients(x).ravel()
            assert (np.where(np.isnan(got), np.nan, got).tobytes()
                    == np.where(np.isnan(want), np.nan, want).tobytes()), (tag, x)


@pytest.mark.parametrize("name", STACK_FIXTURES)
def test_jacobians_on_stacked_points_equal_single_points(name):
    # analytic Jacobians row by row; B, an extracted T, dagger and F have none
    fixture = _stack_fixture(name)
    points = fixture.grid(3)
    zeta = ScalarField.from_source("x1*x2 + x3^2", 3) if fixture.n == 3 else None
    for tag in buildable_tags(fixture):
        conn = fixture.connection(tag, zeta=zeta if tag[1:] == "F" else None)
        if tag in tags_without_jacobian(fixture):
            with pytest.raises(ConnectionError_, match=re.escape(repr(tag))):
                conn.jacobian(points)
            continue
        single = np.stack([conn.jacobian(x) for x in points])
        batch = conn.jacobian(points)
        assert batch.shape == single.shape, tag
        assert batch.tobytes() == single.tobytes(), tag


# --- the connection table against the per-tag reference formulas -----------------

# curved metrics with non-zero structure data and no potentials (loaded without
# validation): every tag of the table on a non-constant metric
_CURVED_D = [[[f"{k + 1}*x{i + 1}*x{j + 1} + x{k + 1}/(1 + x{(i + j) % 3 + 1})"
               for j in range(3)] for i in range(3)] for k in range(3)]
CURVED = {
    "curved-t": {
        "name": "curved-t", "dimension": 2,
        "metric": [["2 + x2", "x1/4"], ["x1/4", "1 + x1^2"]],
        "kind": "nondegenerate", "domain": [[0.5, 1.5], [0.5, 1.5]],
        "structure": {"T": [[["x1*x2", "x2^2/3"], ["x2^2/3", "1/(1 + x2)"]],
                            [["sin(x1)", "x1 - x2"], ["x1 - x2", "x1^2*x2"]]]},
        "zeta": "x1 + x2",    # carried, but F needs n >= 3
    },
    "curved-d": {
        "name": "curved-d", "dimension": 3,
        "metric": [["1 + x1^2", "0", "x2/5"], ["0", "2 + x3", "0"],
                   ["x2/5", "0", "1 + x2^2"]],
        "kind": "semidegenerate", "domain": [[0.5, 1.5]] * 3,
        "structure": {"D": _CURVED_D, "s": ["x2", "x1*x3", "1/x1"]},
        "zeta": "x1*x2 + x3^2",
    },
}
BUILTINS = ["ho2", "sw2", "sw2-weak", "sw2-strong-synthetic", "sphere3-trivial"]


def _table_fixture(name):
    if name in CURVED:
        return from_config(CURVED[name], validate_on_load=False)
    return _stack_fixture(name)


def _table_cases(fixture):
    """(tag, injected zeta) pairs: every available tag, plus +-F with a
    non-constant zeta on a 3-D nondegenerate fixture."""
    cases = [(tag, None) for tag in buildable_tags(fixture)]
    if fixture.n >= 3 and fixture.kind == "nondegenerate":
        zeta = ScalarField.from_source("x1*x2 + x3^2", fixture.n)
        cases += [("+F", zeta), ("-F", zeta)]
    return cases


def _assert_jacobian(fixture, conn, tag, x, equal):
    """conn's Jacobian at x equals the reference formula's by ``equal``, or,
    for the tags without one (B, an extracted T, dagger and F), raises."""
    if tag in tags_without_jacobian(fixture):
        with pytest.raises(ConnectionError_, match=re.escape(repr(tag))):
            conn.jacobian(x)
    else:
        assert equal(conn.jacobian(x), reference_jacobian(fixture, tag, x)), (tag, x)


@pytest.mark.parametrize("name", BUILTINS + ["sw2-recovered"])
def test_connection_table_equals_reference_formulas_bytes(name):
    fixture = _table_fixture(name)
    points = fixture.grid(3)
    stack = np.stack(points)
    for tag, zeta in _table_cases(fixture):
        conn = fixture.connection(tag, zeta=zeta)
        assert (conn.coefficients(stack).tobytes()
                == reference_coefficients(fixture, tag, stack, zeta).tobytes()), tag
        for x in points:
            assert (conn.coefficients(x).tobytes()
                    == reference_coefficients(fixture, tag, x, zeta).tobytes()), (tag, x)
            _assert_jacobian(fixture, conn, tag, x, lambda a, b: a.tobytes() == b.tobytes())


@pytest.mark.parametrize("name", sorted(CURVED))
def test_connection_table_matches_reference_formulas_on_curved_metrics(name):
    # B = T + b g (x) t subtracted as one tensor, and dagger as Gamma - (D - shift),
    # round differently from the reference's two subtractions; measured drift
    # is at most 2e-16 relative in coefficients and in the Jacobians of T and D
    fixture = _table_fixture(name)
    points = fixture.grid(3)
    stack = np.stack(points)

    def close(a, b, rel):
        return np.max(np.abs(a - b)) <= rel * max(1.0, np.max(np.abs(b)))

    for tag, zeta in _table_cases(fixture):
        conn = fixture.connection(tag, zeta=zeta)
        assert close(conn.coefficients(stack),
                     reference_coefficients(fixture, tag, stack, zeta), 1e-15), tag
        for x in points:
            assert close(conn.coefficients(x),
                         reference_coefficients(fixture, tag, x, zeta), 1e-15), tag
            _assert_jacobian(fixture, conn, tag, x, lambda a, b: close(a, b, 1e-15))
