"""Random fixture configs: loading one never fails in an undocumented way.

``fixtures.from_config`` (with validation, as the CLI loads a config file)
must return a :class:`Fixture`, raise :class:`FixtureError` (validation
failures included), or raise :class:`EvalDomainError` naming the offending
subexpression.  Anything else, say a ``ZeroDivisionError``, an
``OverflowError``, a numpy ``LinAlgError`` or a hang, is a bug.  The search is
derandomized, so the suite stays deterministic.
"""

import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dualgeo.expressions import EvalDomainError
from dualgeo.fixtures import Fixture, FixtureError, builtin_config, from_config

_NUMBERS = ["0", "1", "2", "3", "0.5", "-1", "1e-200", "1e-90", "1e200", "1e308",
            "1e999"]
_EXPONENTS = ["2", "3", "-1", "-2", "0", "0.5", "17", "1000", "1e9", "x2"]


def _sources(n):
    leaf = st.sampled_from(_NUMBERS + [f"x{i + 1}" for i in range(n)])

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(children, st.sampled_from(_EXPONENTS)).map(
                lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["sqrt", "log", "exp", "sin", "tan"]), children).map(
                lambda t: f"{t[0]}({t[1]})"),
            children.map(lambda c: f"-{c}"),
        )

    return st.recursive(leaf, extend, max_leaves=6)


_BOUND = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 1e300,
                          float("inf"), float("nan")])
_AXIS = st.one_of(st.sampled_from([[-3.0, -1.0], [0.5, 3.0], [-1.0, 2.0], [1.0, 2.0]]),
                  st.tuples(_BOUND, _BOUND).map(list))


@st.composite
def configs(draw):
    n = draw(st.sampled_from([2, 2, 3]))
    source = _sources(n)
    metric = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            metric[i][j] = metric[j][i] = draw(st.one_of(
                st.just("1" if i == j else "0"), source))
    if draw(st.integers(0, 4)) == 0:    # now and then a structurally asymmetric metric
        metric[0][n - 1] = draw(source)
    kind = draw(st.sampled_from(["nondegenerate", "semidegenerate", "degenerate"]))
    cfg = {
        "name": "fuzz",
        "dimension": n,
        "metric": metric,
        "kind": kind,
        "potentials": draw(st.lists(source, max_size=n + 2)),
        "domain": [draw(_AXIS) for _ in range(n)],
        "singular_margin": draw(st.sampled_from([0.0, 0.1, 10.0])),
    }
    if draw(st.booleans()):
        key = "T" if kind == "nondegenerate" else "D"
        cfg["structure"] = {key: [[[draw(st.one_of(st.just("0"), source))
                                    for _ in range(n)] for _ in range(n)]
                                  for _ in range(n)]}
    if draw(st.integers(0, 9)) == 0:
        cfg["domain"] = cfg["domain"][1:]
    return cfg


def _load(cfg):
    try:
        return from_config(cfg)
    except FixtureError as exc:
        return exc
    except EvalDomainError as exc:
        assert exc.subexpression, exc
        return exc


@given(configs())
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_configs_load_or_fail_in_a_documented_way(cfg):
    start = time.perf_counter()
    outcome = _load(cfg)
    assert isinstance(outcome, (Fixture, FixtureError, EvalDomainError))
    assert time.perf_counter() - start < 2.0, cfg


@st.composite
def mutated_builtin_configs(draw):
    """sw2's or sw2-weak's config with one entry replaced by a random source
    (or its domain by a random box), so loading gets past the early checks."""
    name = draw(st.sampled_from(["sw2", "sw2-weak"]))
    cfg = builtin_config(name)
    source = draw(_sources(2))
    where = draw(st.sampled_from(["metric", "potential", "structure", "domain"]))
    if where == "metric":
        cfg["metric"][1][1] = source
    elif where == "potential":
        cfg["potentials"][0] = source
    elif where == "structure":
        cfg["structure"]["T" if name == "sw2" else "D"][0][1][1] = source
    else:
        cfg["domain"] = [draw(_AXIS), draw(_AXIS)]
    return cfg


def _sw2_with(where, source):
    cfg = builtin_config("sw2")
    if where == "metric":
        cfg["metric"][1][1] = source
    else:
        cfg["potentials"][0] = source
    return cfg


@given(mutated_builtin_configs())
# found by this search: an OverflowError from a constant metric evaluated at
# construction, and from a potential's gradient during validation
@example(_sw2_with("metric", "(1e200)^2"))
@example(_sw2_with("potential", "(1e200)^2"))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mutated_builtin_configs_load_or_fail_in_a_documented_way(cfg):
    assert isinstance(_load(cfg), (Fixture, FixtureError, EvalDomainError))


@pytest.mark.parametrize("where", ["metric", "potential"])
def test_overflow_found_by_the_search_names_its_subexpression(where):
    # the two examples above: a constant metric that overflows when the
    # fixture is built, and a potential whose gradient overflows in validation
    with pytest.raises(FixtureError) as err:
        from_config(_sw2_with(where, "(1e200)^2"))
    assert "result out of float range in subexpression '1e+200^2.0'" in str(err.value)
