"""The input front door: the compiled shape checks against the recursive
reference they replaced, and the YAML node walk against PyYAML on trees and
its refusal of every other document."""

import math
import pickle
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attestsim import policy, scenario, schema
from attestsim.cli import main
from attestsim.crypto import sha256
from attestsim.policy import PolicyParseError, SoftwareList, parse_policy, render_policy
from attestsim.scenario import ScenarioError
from attestsim.schema import Required, read_yaml

from test_policy import fixture_policy_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def reference_check_shape(value, shape, where: str, error) -> None:
    """The recursive interpreter that ``check_shape`` compiles away."""
    if isinstance(shape, set):
        if value not in list(shape):
            raise error(f"{where}: {value!r} is not one of {sorted(shape)}")
    elif isinstance(shape, list):
        reference_check_shape(value, list, where, error)
        for i, item in enumerate(value):
            reference_check_shape(item, shape[0], f"{where}[{i}]", error)
    elif isinstance(shape, dict):
        reference_check_shape(value, dict, where, error)
        for key, item in value.items():
            if str in shape:
                reference_check_shape(key, str, f"{where} key", error)
            elif key not in shape:
                raise error(f"{where}: unknown key {key!r}")
            reference_check_shape(item, shape.get(str, shape.get(key)), f"{where}.{key}",
                                  error)
        for key in shape:
            if isinstance(key, Required) and key not in value:
                raise error(f"{where}: missing {key!r}")
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            expected = " or ".join(schema._NAMES[k] for k in kinds)
            raise error(f"{where}: expected {expected}, not "
                        f"{schema._NAMES.get(type(value), type(value).__name__)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{where}: expected a finite number, not {value}")


# --------------------------------------------------------------------------
# compiled shapes
# --------------------------------------------------------------------------

LEAVES = (True, 1, 1.5, math.nan, math.inf, "x", None, [], {})


def _mutations(node):
    """Change ``node`` in place one way at a time, yielding while changed:
    each value below it set to each of ``LEAVES``, an unknown key added to
    each mapping and each key dropped in turn."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        for leaf in LEAVES:
            node[key] = leaf
            yield
        node[key] = child
        yield from _mutations(child)
    if isinstance(node, dict):
        node["unknown-key"] = 1
        yield
        del node["unknown-key"]
        for key, _ in items:
            del node[key]
            yield
            node.clear()
            node.update(items)


def _outcome(check, doc, error):
    try:
        check(doc)
    except error as exc:
        return str(exc)
    return None


def _sweep(doc, check, error, monkeypatch, module, within=None):
    """Every message ``check`` gives on the mutations of ``within`` (by
    default the whole ``doc``), under the compiled checks and the reference;
    the two must agree on each."""
    messages = []
    for _ in _mutations(doc if within is None else within):
        compiled = _outcome(check, doc, error)
        with monkeypatch.context() as patch:
            patch.setattr(module, "check_shape", reference_check_shape)
            reference = _outcome(check, doc, error)
        assert compiled == reference
        messages.append(compiled)
    return messages


def _docstring_scenario():
    block = scenario.__doc__.split("::\n", 1)[1].split("\n\n", 1)[0]
    return yaml.safe_load(textwrap.dedent(block))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_compiled_checks_equal_the_reference_on_the_shipped_scenarios(name, monkeypatch):
    doc = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    messages = _sweep(doc, scenario.validate, ScenarioError, monkeypatch, scenario)
    assert None in messages and len(set(messages)) > 20


def test_compiled_checks_equal_the_reference_on_a_long_script(monkeypatch):
    doc = _docstring_scenario()
    steps = doc["script"]
    doc["script"] = [dict(steps[i % len(steps)]) for i in range(1000)]
    messages = []
    for index in (0, 9, 10, 99, 100, 500, 998, 999):
        messages += _sweep(doc, scenario.validate, ScenarioError, monkeypatch, scenario,
                           within=doc["script"][index])
    assert "scenario.script[500].at: expected integer or number, not boolean" in messages
    assert any(m and m.startswith("scenario.script[999]: missing") for m in messages)


def test_compiled_checks_equal_the_reference_on_the_fixture_policy(monkeypatch):
    doc = yaml.safe_load(fixture_policy_text())

    def parse(doc):
        parse_policy(yaml.safe_dump(doc))

    messages = _sweep(doc, parse, PolicyParseError, monkeypatch, policy)
    assert "whitelist.pcrs[2].id: expected integer, not boolean" in messages
    assert "location[0]: missing 'host'" in messages


SHAPE = {Required("a"): [int], "b": {str: (str, type(None))}, "c": {"v", "w", "x", "y", "z"}}


@pytest.mark.parametrize("value", [
    {"a": [1]}, {"a": [1, "x"]}, {"a": [True]}, {"a": [1], "b": {1: "x"}},
    {"a": [1], "b": {"k": 2}}, {"a": [1], "b": {"k": None}}, {"a": [1], "c": "q"},
    {"a": [1], "c": ["x"]}, {"b": {}}, {"a": [1], "d": 1}, [1], None,
])
def test_compiled_checks_equal_the_reference_on_keys_and_literals(value):
    def outcome(check):
        try:
            check(value, SHAPE, "doc", ValueError)
        except ValueError as exc:
            return str(exc)
        return None

    assert outcome(schema.check_shape) == outcome(reference_check_shape)


def test_a_shape_is_compiled_once():
    for _ in range(3):
        schema.check_shape({"a": [1]}, SHAPE, "doc", ValueError)
    assert schema._COMPILED[id(SHAPE)][0] is SHAPE
    with pytest.raises(ValueError, match=r"^doc\.b key: expected string, not integer$"):
        schema.check_shape({"a": [1], "b": {1: "x"}}, SHAPE, "doc", ValueError)


# --------------------------------------------------------------------------
# the YAML walk
# --------------------------------------------------------------------------


def _big_policy():
    base = parse_policy(fixture_policy_text())
    hashes = tuple((sha256(b"file-%d" % i), f"/usr/bin/tool-{i}") for i in range(2000))
    return render_policy(policy.Policy(base.tpm_ca_chain, base.static, base.dynamics,
                                       base.runtime_cert, (SoftwareList("fleet", hashes),),
                                       base.location))


CORPUS = {
    **{f"scenario-{p.stem}": p.read_text() for p in sorted(SCENARIOS.glob("*.yaml"))},
    "fixture-policy": fixture_policy_text(),
    "policy-2000": _big_policy(),
    "value-key": "=: 1\n",
    "value-scalar": "a: =\n",
    "merge": "base: &b {x: 1, y: 2}\nderived:\n  <<: *b\n  y: 3\n",
    "merge-list": "a: &a {b: 1}\nc: {<<: [*a, {d: 2}], e: 3}\n",
    "merge-of-a-scalar": "a: {b: !!int x, <<: 5}\n",
    "alias-collection": "a: &x [1, {b: 2}]\nb: *x\n",
    "alias-scalar": "- &s x\n- *s\n- &n 3\n- *n\n",
    "alias-recursive": "&a [*a]\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "set": "!!set {a, b}\n",
    "omap": "!!omap [a: 1, b: 2]\n",
    "custom-scalar": "a: !custom x\n",
    "custom-collection": "a: !custom [1]\n",
    "explicit-str": "a: !!str 1\n",
    "str-tag-on-a-sequence": "a: !!str [1]\n",
    "seq-tag-on-a-scalar": "a: !!seq x\n",
    "seq-tag-on-a-scalar-before-a-bad-int": "[!!seq x, !!int y]\n",
    "map-tag-on-a-sequence": "a: !!map [x]\n",
    "timestamps": "a: 2001-12-14t21:59:43.10-05:00\nb: 2002-12-14\n",
    "numbers": "hex: 0x1f\nsexagesimal: 1:30\nfloat: 1.5e3\nnan: .nan\ninf: -.inf\n",
    "scalar-keys": "null: a\n1: b\ntrue: c\n1.5: d\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
    # breadth first names b; depth first would name a, and a stack c
    "first-bad-scalar-breadth-first": "- [[!!int a]]\n- [!!int b]\n- [[!!int c]]\n",
    "bad-int": "a: [1, !!int x]\n",
    "nested": "[" * schema.MAX_DEPTH + "0" + "]" * schema.MAX_DEPTH,
    "empty": "",
    "comment-only": "# nothing\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "utf-16": "a: [1, x, {b: ü}]\n".encode("utf-16"),
}


# the corpus split by the tree rule: read_yaml refuses exactly these
NOT_TREES = (
    "alias-collection", "alias-recursive", "alias-scalar", "custom-collection",
    "map-tag-on-a-sequence", "merge", "merge-list", "merge-of-a-scalar", "omap",
    "scalar-keys", "seq-tag-on-a-scalar", "seq-tag-on-a-scalar-before-a-bad-int", "set",
    "str-tag-on-a-sequence", "value-key",
)
TREES = (
    "bad-int", "binary", "comment-only", "custom-scalar", "duplicate-keys", "empty",
    "explicit-str", "first-bad-scalar-breadth-first", "fixture-policy", "nested", "numbers",
    "policy-2000", "scenario-honest", "scenario-reboot-attack", "scenario-runtime-relay",
    "scenario-tampered-kernel", "scenario-wrong-machine-unseal", "timestamps",
    "two-documents", "utf-16", "value-scalar",
)
LOADERS = sorted({yaml.SafeLoader, schema.YAML_LOADER}, key=lambda cls: cls.__name__)


def test_the_corpus_is_split_into_trees_and_the_rest():
    assert sorted(TREES + NOT_TREES) == sorted(CORPUS)


def _loaded(load, text):
    """What loading ``text`` gives: the value, pickled so that types, shared
    objects and cycles count, or the error's type and first line."""
    try:
        return "value", pickle.dumps(load(text))
    except Exception as exc:  # noqa: BLE001 - any error must match, whatever its type
        return type(exc), str(exc).splitlines()[:1]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_the_walk_equals_pyyaml(name, loader, monkeypatch):
    """On a tree, ``read_yaml`` gives what ``yaml.load`` gives, value or
    error; every other document it refuses as invalid YAML."""
    monkeypatch.setattr(schema, "YAML_LOADER", loader)
    text = CORPUS[name]
    if name in NOT_TREES:
        with pytest.raises(yaml.YAMLError, match="; only a tree is read"):
            read_yaml(text)
    else:
        assert _loaded(read_yaml, text) == _loaded(lambda t: yaml.load(t, Loader=loader), text)


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=24)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=JSON_TREES)
def test_a_dumped_tree_reads_back_equal(loader, doc):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schema, "YAML_LOADER", loader)
        assert read_yaml(yaml.safe_dump(doc)) == doc


def _collections(node):
    """``(container, key)`` of each collection below ``node``, in the order
    ``yaml.safe_dump`` writes them (a mapping's keys sorted)."""
    for key, child in sorted(node.items()) if isinstance(node, dict) else enumerate(node):
        if isinstance(child, (list, dict)):
            yield node, key
            yield from _collections(child)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=st.lists(JSON_TREES, min_size=2, max_size=4), data=st.data())
def test_a_tree_with_one_subtree_aliased_is_refused(loader, doc, data):
    """One later collection replaced by the same object as an earlier one,
    which ``yaml.safe_dump`` writes as an alias to that one's anchor."""
    slots = list(_collections(doc))
    assume(len(slots) >= 2)
    first = data.draw(st.integers(0, len(slots) - 2))
    later = data.draw(st.integers(first + 1, len(slots) - 1))
    anchored, replaced = slots[first], slots[later]
    replaced[0][replaced[1]] = anchored[0][anchored[1]]
    text = yaml.safe_dump(doc)
    assert "*id" in text
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schema, "YAML_LOADER", loader)
        with pytest.raises(yaml.YAMLError, match="a node reached twice through an alias"):
            read_yaml(text)


# --------------------------------------------------------------------------
# documents that an alias would multiply
# --------------------------------------------------------------------------


def _aliased_policy(lists=3000, hashes=3000):
    """The fixture policy with ``lists`` software lists, each aliasing the
    first one's whitelist of ``hashes`` entries."""
    head = fixture_policy_text(location=False).split("  software:\n")[0]
    whitelist = "".join(f"        {sha256(b'%d' % i).hex()}: /b/{i}\n" for i in range(hashes))
    others = "".join(f"    - {{name: s{i}, whitelist: *w}}\n" for i in range(1, lists))
    return f"{head}  software:\n    - name: s0\n      whitelist: &w\n{whitelist}{others}"


def _aliased_scenario(links=3000, width=30_000):
    """The honest scenario with ``links`` network links, each aliasing the
    first one's ``between`` list of ``width`` data centres."""
    between = ", ".join(f"d{i}" for i in range(width))
    return ((SCENARIOS / "honest.yaml").read_text()
            + f"network:\n  links:\n    - between: &b [{between}]\n"
            + "    - between: *b\n" * (links - 1))


def test_an_aliased_policy_is_refused_before_its_shape_is_checked(monkeypatch):
    text = _aliased_policy()
    assert len(text) < schema.MAX_DOCUMENT_CHARS

    def never(*args):
        raise AssertionError("shape checked")

    monkeypatch.setattr(policy, "check_shape", never)
    with pytest.raises(PolicyParseError, match="a node reached twice through an alias"):
        parse_policy(text)


def test_an_aliased_policy_is_a_bad_request():
    _, fleet, _ = scenario.execute_scenario(scenario.load_scenario(
        str(SCENARIOS / "honest.yaml")), 0)
    response = fleet.apis["m0"].handle("POST", "/policy", _aliased_policy())
    assert response.status == 400
    assert "a node reached twice through an alias" in response.body["error"]


def test_an_aliased_scenario_exits_three(tmp_path, capsys):
    document = tmp_path / "aliased.yaml"
    document.write_text(_aliased_scenario())
    assert len(document.read_text()) < schema.MAX_DOCUMENT_CHARS
    assert main(["run", str(document)]) == 3
    assert capsys.readouterr().err.startswith(
        "attestsim: error: scenario is not valid yaml: found a node reached twice")
