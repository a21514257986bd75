"""Random fixture configs: loading one never fails in an undocumented way.

``fixtures.from_config`` (with validation, as the CLI loads a config file)
must return a :class:`Fixture`, raise :class:`FixtureError` (validation
failures included), or raise :class:`EvalDomainError` naming the offending
subexpression.  Anything else, say a ``ZeroDivisionError``, an
``OverflowError``, a numpy ``LinAlgError`` or a hang, is a bug.  The search is
derandomized, so the suite stays deterministic.

Every config the search draws, ill-typed ones included, must also get the
same accept or reject from ``fixtures.check_config`` as from ``jsonschema``
against the packaged schema, and a config the schema rejects must fail to
load.
"""

import copy
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dualgeo.expressions import EvalDomainError
from dualgeo.fixtures import (
    SCHEMA, Fixture, FixtureError, builtin_config, builtin_names, check_config, from_config,
)

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
        # any of T, D and s under any kind: loading refuses those the kind never reads
        entry = st.one_of(st.just("0"), source)
        cfg["structure"] = {key: [draw(entry) for _ in range(n)] if key == "s" else
                            [[[draw(entry) for _ in range(n)] for _ in range(n)]
                             for _ in range(n)]
                            for key in draw(st.lists(st.sampled_from(["T", "D", "s"]),
                                                     min_size=1, unique=True))}
    if draw(st.integers(0, 9)) == 0:
        cfg["domain"] = cfg["domain"][1:]
    return cfg


def _schema_accepts(cfg) -> bool:
    """check_config's verdict on cfg, asserted equal to jsonschema's."""
    import jsonschema
    try:
        check_config(cfg)
        accepted = True
    except FixtureError:
        accepted = False
    assert accepted == jsonschema.Draft202012Validator(SCHEMA).is_valid(cfg), cfg
    return accepted


def _load(cfg):
    if not _schema_accepts(cfg):
        with pytest.raises(FixtureError):
            from_config(cfg)
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


# --- ill-typed configs and the schema checker -------------------------------------

_JSON_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, 7, -1, 2.0, 1.5, -0.45, 1e300, float("nan"), float("inf"),
    "", "x1", "T", "nondegenerate", [], [5], ["x1"], [[0.5, 3.0]], [1.0, 2.0], {},
    {"axis": 1, "value": 0.0}, {"k": 1}])
# misspelled or misplaced keys, and known keys in the wrong object
_KEYS = st.sampled_from(["spot", "singular_locus", "axis", "tol", "T", "name", "zeta", "k"])


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def ill_typed_configs(draw):
    """A built-in config with one node replaced by a JSON value of any type,
    one key deleted, or one key added."""
    cfg = builtin_config(draw(st.sampled_from(builtin_names())))
    path = draw(st.sampled_from(list(_paths(cfg))))
    value = copy.deepcopy(draw(_JSON_VALUES))
    if not path:
        return value
    *parents, last = path
    parent = cfg
    for key in parents:
        parent = parent[key]
    how = draw(st.sampled_from(["replace", "delete", "add"]))
    if how == "replace" or not isinstance(parent, dict):
        parent[last] = value
    elif how == "delete":
        del parent[last]
    else:
        parent[draw(_KEYS)] = value
    return cfg


@given(ill_typed_configs())
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ill_typed_configs_agree_with_jsonschema_and_fail_in_a_documented_way(cfg):
    assert isinstance(_load(cfg), (Fixture, FixtureError, EvalDomainError))


# keyword -> (schema, an instance it accepts, one it rejects)
KEYWORD_CASES = [
    ("type", {"type": "integer"}, 2.0, True),
    ("type", {"type": "number"}, 0.5, False),
    ("type", {"type": "string"}, "x1", 1),
    ("type", {"type": "array"}, [], {}),
    ("type", {"type": "object"}, {}, []),
    ("enum", {"enum": ["T", "D"]}, "D", "t"),
    ("minimum", {"minimum": 0}, 0, -1e-300),
    ("maximum", {"maximum": 6}, 6.0, 7),
    ("exclusiveMinimum", {"exclusiveMinimum": 0}, 1e-300, 0),
    ("minItems", {"minItems": 2}, [1, 2], [1]),
    ("maxItems", {"maxItems": 2}, [1, 2], [1, 2, 3]),
    ("items", {"items": {"type": "string"}}, ["a"], ["a", 5]),
    ("required", {"required": ["axis"]}, {"axis": 1}, {"value": 1}),
    ("properties", {"properties": {"axis": {"type": "integer"}}}, {"axis": 1}, {"axis": 1.5}),
    ("additionalProperties", {"properties": {"a": {}}, "additionalProperties": False},
     {"a": 1}, {"b": 1}),
    ("additionalProperties", {"additionalProperties": {"type": "number"}}, {"k": 2},
     {"k": "a"}),
]
ANNOTATIONS = {"$schema", "title", "description"}


@pytest.mark.parametrize("keyword, schema, good, bad", KEYWORD_CASES,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(KEYWORD_CASES)])
def test_checker_keywords_agree_with_jsonschema(keyword, schema, good, bad):
    import jsonschema
    assert keyword in schema
    check_config(good, schema)
    with pytest.raises(FixtureError):
        check_config(bad, schema)
    validator = jsonschema.Draft202012Validator(schema)
    assert validator.is_valid(good) and not validator.is_valid(bad)


def test_every_keyword_of_the_schema_is_one_the_checker_handles():
    # a keyword the checker does not know would be silently ignored
    keywords, types = set(), set()

    def walk(schema):
        keywords.update(schema)
        types.add(schema.get("type"))
        for sub in schema.get("properties", {}).values():
            walk(sub)
        for key in ("items", "additionalProperties"):
            if isinstance(schema.get(key), dict):
                walk(schema[key])

    walk(SCHEMA)
    handled = {case[0] for case in KEYWORD_CASES}
    assert keywords - ANNOTATIONS <= handled, keywords - ANNOTATIONS - handled
    tested = {case[1]["type"] for case in KEYWORD_CASES if case[0] == "type"}
    assert types - {None} <= tested, types - {None} - tested
