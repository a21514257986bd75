import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dualgeo.expressions import (
    FUNCTIONS, MAX_INTEGER_EXPONENT, Add, Call, Const, Div, EvalDomainError, Mul, Neg, Num,
    Pow, Sub, Var, parse, to_source,
)
from dualgeo import jets
from dualgeo.fixtures import builtin, builtin_names
from dualgeo.jets import eval_jet2, eval_jet3, eval_value
from oracles import (
    Jet as ReferenceJet, PowerTooLarge, eval_jet as reference_jet, eval_value as reference_value,
    fd_gradient, fd_hessian, fd_third,
)

# expression corpus exercising every operator and function; paired with safe
# boxes so random points stay inside all domains
CORPUS = [
    ("x1^2 + x2^2", (0.2, 2.0)),
    ("1/x1^2", (0.3, 2.0)),
    ("1/x2^2", (0.3, 2.0)),
    ("sin(x1)*cos(x1)", (0.1, 1.4)),
    ("tan(x1/4)", (0.1, 1.2)),
    ("exp(-x1^2/2) * log(x2 + 1)", (0.2, 1.5)),
    ("sqrt(x1^2 + x2^2)", (0.3, 2.0)),
    ("x1^0.5 * x2^1.5", (0.4, 2.0)),
    ("x1^3 - 3*x1*x2 + x2^3", (0.2, 1.8)),
    ("(x1 + x2)/(x1*x2)", (0.4, 2.0)),
    ("2^x1", (0.2, 1.5)),
    ("x1^x2", (0.5, 1.8)),
    ("-x1^-2 + x2", (0.4, 1.7)),
    ("exp(sin(x1) + cos(x2))", (0.1, 1.5)),
    ("log(1 + x1^2)", (0.2, 2.0)),
    ("sqrt(x1)/sqrt(x2)", (0.4, 2.0)),
    ("x1/(1 + x2^2)^2", (0.2, 1.9)),
    ("sin(x1*x2)", (0.2, 1.4)),
    ("1/(x1 + x2)^3", (0.4, 1.6)),
    ("(1 - x1^2)*(1 + x2)^-1", (0.2, 0.9)),
]


def test_trivial_examples():
    jet = eval_jet2(parse("x1^2 + x2^2", 2), (1.0, 2.0))
    assert jet.value == 5.0
    assert np.allclose(jet.grad, [2.0, 4.0])
    assert np.allclose(jet.hess, np.diag([2.0, 2.0]))

    jet = eval_jet2(parse("1/x1^2", 1), (1.0,))
    assert jet.value == 1.0
    assert np.isclose(jet.grad[0], -2.0)
    assert np.isclose(jet.hess[0, 0], 6.0)

    jet = eval_jet2(parse("sin(x1)*cos(x1)", 1), (0.0,))
    assert jet.value == 0.0
    assert np.isclose(jet.grad[0], 1.0)


def test_derived_example_against_central_differences():
    # frozen from the finite-difference oracle with step 1e-5
    expr = parse("1/x2^2", 2)
    jet = eval_jet2(expr, (1.0, 2.0))
    assert np.allclose(jet.grad, [0.0, -0.25], atol=1e-6)
    assert np.allclose(jet.hess, np.diag([0.0, 0.375]), atol=1e-6)
    assert np.max(np.abs(jet.grad - fd_gradient(expr, (1.0, 2.0), h=1e-5))) < 1e-6
    assert np.max(np.abs(jet.hess - fd_hessian(expr, (1.0, 2.0), h=1e-5))) < 1e-6


def test_constant_has_zero_derivatives():
    jet = eval_jet2(parse("3", 2), (0.7, -1.3))
    assert jet.value == 3.0
    assert not np.any(jet.grad) and not np.any(jet.hess)


def test_third_derivatives():
    assert np.isclose(eval_jet3(parse("x1^3", 1), (2.0,)).third[0, 0, 0], 6.0)
    assert np.isclose(eval_jet3(parse("1/x1^2", 1), (1.0,)).third[0, 0, 0], -24.0)
    third = eval_jet3(parse("x1^2 + 3*x1*x2 - x2^2", 2), (0.4, 1.2)).third
    assert np.max(np.abs(third)) == 0.0


def test_corpus_jets_match_finite_differences(rng):
    for source, (lo, hi) in CORPUS:
        expr = parse(source, 2)
        for _ in range(20):
            x = lo + (hi - lo) * rng.random(2)
            jet = eval_jet2(expr, x)
            scale = max(1.0, np.max(np.abs(jet.grad)), np.max(np.abs(jet.hess)))
            assert np.max(np.abs(jet.grad - fd_gradient(expr, x))) / scale < 1e-6, source
            assert np.max(np.abs(jet.hess - fd_hessian(expr, x))) / scale < 1e-6, source


def test_corpus_third_derivatives_match_fallback(rng):
    for source, (lo, hi) in CORPUS[:10]:
        expr = parse(source, 2)
        x = lo + (hi - lo) * rng.random(2)
        exact = eval_jet3(expr, x).third
        approx = fd_third(expr, x)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(exact - approx)) / scale < 1e-5, source


def test_hessian_exact_symmetry(rng):
    for source, (lo, hi) in CORPUS:
        expr = parse(source, 2)
        x = lo + (hi - lo) * rng.random(2)
        hess = eval_jet2(expr, x).hess
        assert np.array_equal(hess, hess.T), source


def test_order3_symmetric_to_roundoff(rng):
    # entries are summed in index-dependent orders (no entry is mirrored), so
    # the index permutations agree to roundoff, not bit for bit
    expr = parse("exp(sin(x1) + cos(x2))*x1^2/x2", 2)
    x = np.array([0.7, 1.3])
    third = eval_jet3(expr, x).third
    scale = np.max(np.abs(third))
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert np.max(np.abs(third - np.transpose(third, perm))) <= 1e-14 * scale


def test_jet3_consistent_with_jet2(rng):
    # one jet class: order 3 adds the third array and leaves the rest bit-equal
    for source, (lo, hi) in CORPUS + [("x1^x2 + tan(x1*x2/4)", (0.5, 1.2))]:
        expr = parse(source, 2)
        x = lo + (hi - lo) * rng.random(2)
        j2, j3 = eval_jet2(expr, x), eval_jet3(expr, x)
        assert j2.third is None and j3.third.shape == (2, 2, 2)
        assert j2.value == j3.value, source
        assert np.array_equal(j2.grad, j3.grad), source
        assert np.array_equal(j2.hess, j3.hess), source


def test_evaluation_is_deterministic():
    expr = parse("sin(x1)*exp(x2) - x1^3/x2", 2)
    a = eval_jet2(expr, (0.9, 1.7))
    b = eval_jet2(expr, (0.9, 1.7))
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad) and np.array_equal(a.hess, b.hess)


@pytest.mark.parametrize("source,point,fragment", [
    ("1/x1", (0.0,), "1.0/x1"),
    ("log(x1 - 2)", (1.0,), "log(x1 - 2.0)"),
    ("sqrt(-x1)", (1.0,), "sqrt(-x1)"),
    ("x1^0.5", (-1.0,), "x1^0.5"),
])
def test_domain_violations_name_the_subexpression(source, point, fragment):
    with pytest.raises(EvalDomainError) as err:
        eval_jet2(parse(source, 1), point)
    assert fragment in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_value(parse(source, 1), point)


@pytest.mark.parametrize("source,point,order", [
    ("x1/1e-200", (1.0,), 2),       # -1/u**2 underflows u**2
    ("x1/1e-90", (1.0,), 3),        # -6/u**4 underflows u**4 at order 3 only
    ("x1^-2", (1e-100,), 2),        # the reciprocal rule of an integer power
    ("log(x1)", (1e-200,), 2),
    ("sqrt(x1)", (1e-200,), 3),     # 0.375/(r*u*u)
])
def test_underflowing_coefficient_raises_domain_error(source, point, order):
    tree = parse(source, 1)
    evaluate = {2: eval_jet2, 3: eval_jet3}[order]
    with pytest.raises(EvalDomainError) as err:
        evaluate(tree, point)
    assert err.value.subexpression == to_source(tree)
    assert _jet_outcome(lambda: [evaluate(tree, point)]) == \
        _jet_outcome(lambda: [reference_jet(tree, point, order)])


def test_coefficients_that_do_not_underflow_keep_their_bits():
    for source, point in (("x1/1e-90", (1.0,)), ("log(x1)", (1e-100,)),
                          ("sqrt(x1)", (1e-200,)), ("1/x1", (1e-77,))):
        tree = parse(source, 1)
        assert _jet_outcome(lambda: [eval_jet2(tree, point)]) == \
            _jet_outcome(lambda: [reference_jet(tree, point, 2)]), source


def test_integer_exponent_is_bounded_in_jets(monkeypatch):
    import time

    import oracles
    bound = MAX_INTEGER_EXPONENT
    # trees built directly, and a run-time exponent, get past the parser
    for tree, x in ((Pow(Var("x1", 0), Num(1e9)), (1.0,)),
                    (Pow(Var("x1", 0), Neg(Num(float(bound + 1)))), (1.0,)),
                    (parse("x1^(x2 - x2 + 1e9)", 2), (1.0, 0.5))):
        for evaluate in (eval_jet2, eval_jet3):
            start = time.perf_counter()
            with pytest.raises(EvalDomainError, match="integer exponent beyond"):
                evaluate(tree, x)
            assert time.perf_counter() - start < 1.0
    # exponents within the bound keep the bits of k - 1 reference products
    monkeypatch.setattr(oracles, "MAX_JET_POWER", bound)
    for source in (f"x1^{bound}", f"x1^-{bound}", "x1^17", f"x1^(x2 - x2 + {bound})"):
        tree = parse(source, 2)
        for order in (2, 3):
            assert _jet_outcome(lambda: jets.compile([tree]).jets((1.0001, 0.3), order)) == \
                _jet_outcome(lambda: [reference_jet(tree, (1.0001, 0.3), order)]), source


def test_integer_exponent_allows_negative_base():
    assert eval_value(parse("x1^3", 1), (-2.0,)) == -8.0
    jet = eval_jet2(parse("x1^-2", 1), (-2.0,))
    assert np.isclose(jet.value, 0.25)
    with pytest.raises(EvalDomainError):
        eval_value(parse("x1^2.5", 1), (-2.0,))


@given(st.floats(min_value=0.2, max_value=2.0), st.floats(min_value=0.2, max_value=2.0))
@settings(max_examples=120, deadline=None)
def test_product_rule_property(a, b):
    # Leibniz: jet(f*g) = jet(f)*jet(g) componentwise for independent factors
    f = parse("sin(x1) + x1^2", 2)
    g = parse("exp(x2)/x2", 2)
    fg = parse("(sin(x1) + x1^2)*(exp(x2)/x2)", 2)
    x = (a, b)
    jf, jg, jfg = eval_jet2(f, x), eval_jet2(g, x), eval_jet2(fg, x)
    # the product of the two jets by the reference arithmetic
    prod = (ReferenceJet(jf.value, jf.grad, jf.hess)
            * ReferenceJet(jg.value, jg.grad, jg.hess))
    scale = max(1.0, abs(jfg.value))
    assert abs(prod.value - jfg.value) / scale < 1e-12
    assert np.max(np.abs(prod.grad - jfg.grad)) / scale < 1e-11
    assert np.max(np.abs(prod.hess - jfg.hess)) / scale < 1e-10


# --- compiled evaluation against the reference walker -------------------------


def _outcome(evaluate):
    """Bit patterns of the values, or the type and message of the exception."""
    try:
        return [struct.pack("<d", v) for v in evaluate()]
    except Exception as exc:
        return type(exc), str(exc)


def _reference_values(trees, x):
    return [reference_value(tree, x) for tree in trees]


_float = st.one_of(st.floats(min_value=-4.0, max_value=4.0),
                   st.sampled_from([0.0, 1.0, 2.0, -2.0, 0.5, 3.0, 1e155, 1e200]))
_any_leaf = st.one_of(
    _float.map(Num),
    _float.map(lambda v: Const("c", v)),
    st.sampled_from([Var("x1", 0), Var("x2", 1)]),
)


def _any_combine(children):
    binary = st.sampled_from([Add, Sub, Mul, Div, Pow])
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda fa: Call(*fa)),
        st.tuples(binary, children, children).map(lambda t: t[0](t[1], t[2])),
        st.tuples(children, _float).map(lambda ab: Pow(ab[0], Num(ab[1]))),
        st.tuples(children, _float).map(lambda ab: Pow(ab[0], Neg(Num(ab[1])))),
    )


_any_tree = st.recursive(_any_leaf, _any_combine, max_leaves=16)


@given(st.lists(_any_tree, min_size=1, max_size=4), st.tuples(_float, _float))
@settings(max_examples=400, deadline=None)
def test_compiled_values_equal_reference_walker(trees, x):
    # one program over several trees shares their common subtrees; values,
    # domain errors and overflow errors match a walk over each tree in turn
    assert _outcome(lambda: jets.compile(trees).values(x)) == \
        _outcome(lambda: _reference_values(trees, x))
    assert _outcome(lambda: [eval_value(trees[0], x)]) == \
        _outcome(lambda: [reference_value(trees[0], x)])


@pytest.mark.parametrize("source,point,error", [
    ("1/x1", (0.0,), EvalDomainError),
    ("x1^-2", (0.0,), EvalDomainError),
    ("x1^0.5", (-1.0,), EvalDomainError),
    ("sqrt(x1)*log(x1)", (0.0,), EvalDomainError),
    ("x1 + log(x1 - 1)", (1.0,), EvalDomainError),
    ("exp(x1)", (1000.0,), EvalDomainError),
    ("x1^2", (1e200,), EvalDomainError),
    ("x1^2.5", (1e200,), EvalDomainError),
    ("sin(x1)", (float("inf"),), EvalDomainError),
])
def test_compiled_failures_equal_reference_walker(source, point, error):
    tree = parse(source, 1)
    with pytest.raises(error):
        reference_value(tree, point)
    assert _outcome(lambda: jets.compile([tree]).values(point)) == \
        _outcome(lambda: [reference_value(tree, point)])


@pytest.mark.parametrize("source,point", [
    ("exp(x1)", (1000.0,)),
    ("x1^2.5", (1e200,)),
    ("2^x1", (2000.0,)),
    ("sin(x1)", (float("inf"),)),
    ("cos(x1)", (float("-inf"),)),
    ("tan(x1)", (float("inf"),)),
    ("x1 + 1/(1 + x1^x1)", (200.0,)),
])
def test_float_errors_name_their_subexpression_in_every_kind_of_code(source, point):
    # an OverflowError or a math ValueError is an EvalDomainError naming the
    # subexpression, in the value code, the array code and the jet code alike
    tree = parse(source, 1)
    program = jets.compile([tree])
    want = _outcome(lambda: [reference_value(tree, point)])
    assert want[0] is EvalDomainError and "in subexpression '" in want[1]
    assert _outcome(lambda: program.values(point)) == want
    # a stack whose last row fails runs again row by row after the array
    # code, and the error names the row's point
    stack = np.array([(0.5,)] * jets.ARRAY_ROWS + [point])
    assert _outcome(lambda: program.values(stack).ravel()) == (
        want[0], f"{want[1]} at {stack[-1]}")
    for order in (2, 3):
        got = _jet_outcome(lambda: program.jets(point, order))
        assert got[0] is EvalDomainError and "in subexpression '" in got[1]
        assert got == _jet_outcome(lambda: [reference_jet(tree, point, order)])


# --- the array function against the float function ----------------------------


def _array_outcome(trees, points):
    """Bit patterns of the array function's values at every row, row after
    row, or the type and message of its exception."""
    array = jets._generate(trees, array=True)
    with np.errstate(all="ignore"):
        return _outcome(lambda: array(np.asarray(points, dtype=float).T).ravel())


def _rows_outcome(program, points):
    """The float function's outcome at each row in turn, as one list; a
    stack's error adds the first failing row's point to its message."""
    return _named_row_outcome(lambda pt: program.values(pt), points)


def _named_row_outcome(evaluate, points):
    """``_outcome`` of evaluate at each row in turn, as one list, with the
    point of the first failing row added to the error's message."""
    values = []
    for pt in np.asarray(points, dtype=float):
        got = _outcome(lambda: evaluate(pt))
        if not isinstance(got, list):
            return got[0], f"{got[1]} at {pt}"
        values += got
    return values


@given(st.lists(_any_tree, min_size=1, max_size=4),
       st.lists(st.tuples(_float, _float), min_size=1, max_size=3 * jets.ARRAY_ROWS))
@settings(max_examples=300, deadline=None)
def test_array_values_equal_float_values(trees, rows):
    program = jets.compile(trees)
    want = _rows_outcome(program, rows)
    # the stack goes through the array function from ARRAY_ROWS rows on, and
    # row by row after it raised: values, error types and messages all match
    assert _outcome(lambda: program.values(np.array(rows)).ravel()) == want
    got = _array_outcome(trees, rows)
    if isinstance(want, list):
        assert got == want
    else:   # a row whose float code raises makes the array function raise
        assert not isinstance(got, list)


@pytest.mark.parametrize("source,box", CORPUS)
def test_corpus_array_values_equal_float_values(source, box, rng):
    expr = parse(source, 2)
    program = jets.compile([expr])
    lo, hi = box
    inside = lo + (hi - lo) * rng.random((20, 2))
    assert _array_outcome([expr], inside) == _rows_outcome(program, inside)
    # the whole plane around the box, domain errors included
    plane = np.concatenate([inside, 4.0 * rng.random((20, 2)) - 2.0,
                            [(0.0, 0.0), (-1.0, 0.5), (1.0, -0.0)]])
    want = _named_row_outcome(lambda x: [reference_value(expr, x)], plane)
    assert _outcome(lambda: program.values(plane).ravel()) == want


@pytest.mark.parametrize("name", builtin_names())
def test_fixture_component_array_values_equal_float_values(name):
    fx = builtin(name)
    trees, _, tensors = _fixture_trees(fx)
    grid = fx.grid(5)
    assert _array_outcome(trees, grid) == _rows_outcome(jets.compile(trees), grid)
    for field in tensors:
        stacked = field.value(grid)
        alone = np.array([field.value(x) for x in grid])
        assert stacked.shape == alone.shape and stacked.tobytes() == alone.tobytes()


def test_stacks_choose_the_function_by_row_count(monkeypatch):
    program = jets.compile([parse("x1*x2 + 1/x1", 2)])
    points = np.linspace(0.5, 2.0, 2 * jets.ARRAY_ROWS).reshape(-1, 2)
    calls = []
    program.values((1.0, 1.0))
    float_function = program._values
    monkeypatch.setattr(program, "_values", lambda pt: calls.append(1) or float_function(pt))
    program.values(points[:jets.ARRAY_ROWS - 1])
    assert len(calls) == jets.ARRAY_ROWS - 1 and program._rows is None
    program.values(points[:jets.ARRAY_ROWS])
    assert len(calls) == jets.ARRAY_ROWS - 1 and program._rows is not None


def _fixture_trees(fx):
    trees = [comp for row in fx.metric.comps for comp in row]
    scalars = list(fx.family.potentials) if fx.family is not None else []
    scalars += [fx.zeta] if fx.zeta is not None else []
    tensors = list(fx.declared.values())
    for kd in fx.killing:
        tensors.append(kd.K)
        scalars += [field for field in (kd.W, kd.V) if field is not None]
    trees += [field.expr for field in scalars]
    for field in tensors:
        trees += list(field.comps.ravel())
    return trees, scalars, tensors


@pytest.mark.parametrize("name", builtin_names())
def test_fixture_components_equal_reference_walker(name):
    fx = builtin(name)
    trees, scalars, tensors = _fixture_trees(fx)
    program = jets.compile(trees)
    for x in fx.grid(3):
        assert _outcome(lambda: program.values(x)) == \
            _outcome(lambda: _reference_values(trees, x))
        for field in scalars:
            assert _outcome(lambda: [field.value(x)]) == \
                _outcome(lambda: [reference_value(field.expr, x)])
        for field in tensors:
            assert _outcome(lambda: field.value(x).ravel()) == \
                _outcome(lambda: _reference_values(field.comps.ravel(), x))


def _sympy_tree(node, symbols):
    import sympy
    if isinstance(node, (Num, Const)):
        return sympy.Rational(node.value)
    if isinstance(node, Var):
        return symbols[node.index]
    if isinstance(node, Neg):
        return -_sympy_tree(node.arg, symbols)
    if isinstance(node, Call):
        return getattr(sympy, node.func)(_sympy_tree(node.arg, symbols))
    if isinstance(node, Pow):
        return _sympy_tree(node.base, symbols) ** _sympy_tree(node.exponent, symbols)
    lhs, rhs = _sympy_tree(node.lhs, symbols), _sympy_tree(node.rhs, symbols)
    if isinstance(node, Add):
        return lhs + rhs
    if isinstance(node, Sub):
        return lhs - rhs
    if isinstance(node, Mul):
        return lhs * rhs
    return lhs / rhs


def test_corpus_derivatives_match_sympy(rng):
    import sympy
    symbols = sympy.symbols("x1 x2")
    for source, (lo, hi) in CORPUS:
        expr = parse(source, 2)
        f = _sympy_tree(expr, symbols)
        grad = sympy.derive_by_array(f, symbols)
        hess = sympy.derive_by_array(grad, symbols)
        third = sympy.derive_by_array(hess, symbols)
        exact = sympy.lambdify(symbols, [grad.tolist(), hess.tolist(), third.tolist()],
                               modules="math")
        for _ in range(5):
            x = lo + (hi - lo) * rng.random(2)
            jet = eval_jet3(expr, x)
            for got, want in zip((jet.grad, jet.hess, jet.third), exact(*x)):
                want = np.array(want, dtype=float)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) / scale < 1e-12, source


# --- compiled jets against the reference jet arithmetic -------------------------


def _nan_class_bits(a) -> bytes:
    """Bit pattern of a float or an array with every NaN made the one quiet
    NaN: IEEE 754 leaves a NaN result's sign and payload unspecified.  With
    two NaN operands numpy's array add keeps the left one's, and CPython's
    float add keeps the right one's until the interpreter specializes the
    instruction and the left one's after, so the same line of float code
    can give either.  Every other entry keeps its bits."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _jet_outcome(evaluate):
    """Bit patterns of every jet's value, gradient, Hessian and third array,
    NaNs compared by class only, or the type and message of the exception."""
    try:
        return [(_nan_class_bits(jet.value), _nan_class_bits(jet.grad),
                 _nan_class_bits(jet.hess),
                 None if jet.third is None else _nan_class_bits(jet.third))
                for jet in evaluate()]
    except Exception as exc:
        return type(exc), str(exc)


def _reference_jets(trees, x, order):
    return [reference_jet(tree, x, order) for tree in trees]


@given(st.lists(_any_tree, min_size=1, max_size=4), st.tuples(_float, _float))
@example([parse("0*(-x1^3)", 2)], (1e155, 0.0))   # NaN + NaN of opposite signs
@settings(max_examples=400, deadline=None)
def test_compiled_jets_equal_reference_jets(trees, x):
    for order in (2, 3):
        want = _jet_outcome(lambda: _reference_jets(trees, x, order))
        # an integer power above MAX_JET_POWER products is not evaluated
        assume(want[0] is not PowerTooLarge)
        assert _jet_outcome(lambda: jets.compile(trees).jets(x, order)) == want
    evaluate = {2: eval_jet2, 3: eval_jet3}
    for order in (2, 3):
        assert _jet_outcome(lambda: [evaluate[order](trees[0], x)]) == \
            _jet_outcome(lambda: [reference_jet(trees[0], x, order)])


@pytest.mark.parametrize("source,box", CORPUS)
def test_corpus_jets_equal_reference_jets(source, box, rng):
    # the whole plane around the box, so domain errors are compared too
    expr = parse(source, 2)
    lo, hi = box
    points = [lo + (hi - lo) * rng.random(2) for _ in range(20)]
    points += [4.0 * rng.random(2) - 2.0 for _ in range(20)]
    points += [(0.0, 0.0), (-1.0, 0.5), (1.0, -0.0)]
    for x in points:
        for order in (2, 3):
            assert _jet_outcome(lambda: jets.compile([expr]).jets(x, order)) == \
                _jet_outcome(lambda: [reference_jet(expr, x, order)]), (source, x)


@pytest.mark.parametrize("name", builtin_names())
def test_fixture_component_jets_equal_reference_jets(name):
    fx = builtin(name)
    trees, _, _ = _fixture_trees(fx)
    program = jets.compile(trees)
    for x in fx.grid(3):
        for order in (2, 3):
            assert _jet_outcome(lambda: program.jets(x, order)) == \
                _jet_outcome(lambda: _reference_jets(trees, x, order))


@pytest.mark.parametrize("source", [
    "x1^(x2 - x2)", "x1^(0*x2)", "x1^(x2 - x2 + 3)", "x1^(x2 - x2 - 2)",
    "x1^(x2 - x2 + 0.5)", "2^(x2 - x2 + 3)", "x1^(x2^3)", "x1^(x2^2)", "(x1 - x1)^(x2 - x2 - 1)",
])
def test_jet_exponent_with_vanishing_derivatives(source):
    # a jet exponent whose derivatives are all zero at the point is used as a
    # number: x1^(x2^3) at x2 = 0 has a zero gradient and Hessian but not a
    # zero third array, so orders 2 and 3 take different paths
    expr = parse(source, 2)
    for x in [(1.3, 0.0), (0.7, -0.0), (-1.5, 0.0), (1.3, 0.4), (0.0, 0.0)]:
        for order in (2, 3):
            assert _jet_outcome(lambda: jets.compile([expr]).jets(x, order)) == \
                _jet_outcome(lambda: [reference_jet(expr, x, order)]), (source, x, order)


def test_order3_code_is_generated_on_first_order3_call():
    program = jets.compile([parse("sin(x1)*x2^3", 2)])
    program.jets((0.3, 0.7), 2)
    assert list(program._jets) == [(2, 2)]
    program.jets((0.3, 0.7), 3)
    assert sorted(program._jets) == [(2, 2), (2, 3)]


@pytest.mark.parametrize("order", [2, 3])
def test_jet_functions_on_stacks_equal_rows(order):
    program = jets.compile([parse(s, 2) for s in ("x1^2*sin(x2)", "sqrt(x1)/x2",
                                                 "exp(x1*x2) - 3", "2")])
    rows = np.random.default_rng(3).uniform(0.5, 2.0, (6, 2))
    for points in (rows, rows.reshape(2, 3, 2)):
        flat = program.jet_flat(points, order)
        want = np.array([program.jet_flat(x, order) for x in rows])
        assert flat.shape == points.shape[:-1] + want.shape[1:]
        assert flat.tobytes() == want.tobytes()
        for k, part in enumerate(program.jet_arrays(points, order)):
            want = np.array([program.jet_arrays(x, order)[k] for x in rows])
            assert part.shape == points.shape[:-1] + want.shape[1:]
            assert part.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [2, 3])
def test_jet_stack_raises_what_its_first_failing_row_raises(order):
    # the second row divides by zero, the third takes sqrt of a negative value
    program = jets.compile([parse("sqrt(x1)", 2), parse("1/x2", 2)])
    points = np.array([[1.0, 1.0], [1.0, 0.0], [-1.0, 1.0]])
    with pytest.raises(EvalDomainError) as per_row:
        for x in points:
            program.jet_flat(x, order)
    assert str(per_row.value) == "division by zero in subexpression '1.0/x2'"
    for evaluate in (program.jet_flat, program.jet_arrays):
        for stack in (points, points.reshape(1, 3, 2)):
            with pytest.raises(EvalDomainError) as stacked:
                evaluate(stack, order)
            # the stack's error adds the failing row's point
            assert str(stacked.value) == (
                "division by zero in subexpression '1.0/x2' at [1. 0.]")
            assert stacked.value.subexpression == "1.0/x2"
