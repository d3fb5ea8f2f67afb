import itertools
import re
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btpolicy import bt, sim
from btpolicy.bt import BehaviorTree, NodeKind, TreeNode
from btpolicy.domain import (DOMAIN_SHAPE, FIXTURES_SHAPE, GOALSET_SHAPE, SCENARIO_SHAPE,
                             WorldState, literal_holds, load_domain, load_yaml, make_state,
                             parse_domain, rows_matching)
from btpolicy.errors import (ArityMismatch, BtError, DomainMismatch, NoAchiever,
                             SchemaError, UnboundSlot, UnknownPredicate, UnknownSkill)
from btpolicy.grammar import parse_literal
from btpolicy.planner import GoalSpec, _groundings, expand_condition, init_tree
from btpolicy.sim import Scenario, bundled_data_path, check_tree_domain, execute
from btpolicy.terms import ANY_OBJECT, GroundAction, Literal, ObjectRef, Quantity
from oracles import (negation, reference_apply_effects, reference_effect_delta,
                     reference_expand_condition, reference_groundings, reference_holds,
                     reference_ranking, reference_rows_matching)


def lit(text):
    return parse_literal(text)


def one_leaf_tree(payload: Literal | GroundAction) -> BehaviorTree:
    tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    tree.root.children.append(tree.new_condition(payload) if isinstance(payload, Literal)
                              else tree.new_action(payload))
    return tree


def execute_untickable(domain, payload, monkeypatch):
    """``execute`` a one-leaf tree whose first tick fails the test.

    Evaluation trusts its inputs, so a bad leaf must be stopped by the tree
    gate before anything is ticked."""
    def no_tick(*args, **kwargs):
        raise AssertionError("the tree was ticked")

    monkeypatch.setattr(sim, "tick", no_tick)
    scenario = Scenario(id="gate", domain=domain,
                        initial=make_state(domain, []), instruction="")
    return execute(one_leaf_tree(payload), scenario)


class TestHolds:
    def test_positive_membership(self, cube_domain):
        state = make_state(cube_domain, ["on(red_cube, table)"])
        assert cube_domain.holds(state, lit("on(red_cube, table)"))
        assert not cube_domain.holds(state, lit("on(red_cube, blue_cube)"))

    def test_negation_by_absence(self, cube_domain):
        state = make_state(cube_domain, [])
        assert cube_domain.holds(state, lit("~grasped(red_cube)"))

    def test_vacuous_universal_wildcard(self, cube_domain):
        state = make_state(cube_domain, [])
        assert cube_domain.holds(state, lit("~on(any_object, blue_cube)"))

    def test_blocked_cube_breaks_universal(self, cube_domain):
        state = make_state(cube_domain, ["on(red_cube, blue_cube)"])
        assert not cube_domain.holds(state, lit("~on(any_object, blue_cube)"))

    def test_positive_wildcard_is_existential(self, cube_domain):
        state = make_state(cube_domain, ["grasped(red_cube)"])
        assert cube_domain.holds(state, lit("grasped(any_object)"))

    def test_unknown_predicate(self, cube_domain, monkeypatch):
        with pytest.raises(DomainMismatch) as err:
            execute_untickable(cube_domain, lit("levitating(red_cube)"), monkeypatch)
        assert isinstance(err.value.__cause__, UnknownPredicate)
        assert "levitating(red_cube) (node 1)" in str(err.value)

    def test_arity_mismatch(self, cube_domain, monkeypatch):
        with pytest.raises(DomainMismatch) as err:
            execute_untickable(cube_domain, lit("on(red_cube)"), monkeypatch)
        assert isinstance(err.value.__cause__, ArityMismatch)

    def test_unbound_slot_rejected(self, cube_domain, monkeypatch):
        with pytest.raises(DomainMismatch) as err:
            execute_untickable(cube_domain, lit("grasped($obj)"), monkeypatch)
        assert isinstance(err.value.__cause__, UnboundSlot)

    def test_hidden_invisible_by_default(self, cafe_domain):
        state = make_state(cafe_domain, [], ["Locked(Cupboard)"])
        assert not cube_holds(cafe_domain, state, "Locked(Cupboard)")
        assert cafe_domain.holds(state, lit("Locked(Cupboard)"),
                                 include_hidden=True)


def cube_holds(domain, state, text):
    return domain.holds(state, lit(text))


_CUBE_LITS = ["on(red_cube, blue_cube)", "on(blue_cube, table)",
              "grasped(red_cube)", "grasped(blue_cube)", "upright(red_cup)"]


@given(st.sets(st.sampled_from(_CUBE_LITS)), st.sampled_from(_CUBE_LITS))
@settings(max_examples=200, deadline=None)
def test_closed_world_xor(true_set, probe):
    domain = load_domain_cached()
    state = make_state(domain, sorted(true_set))
    positive = domain.holds(state, lit(probe))
    negative = domain.holds(state, negation(lit(probe)))
    assert positive != negative


@given(st.sets(st.sampled_from(_CUBE_LITS)),
       st.sampled_from(["on(any_object, blue_cube)", "grasped(any_object)",
                        "on(any_object, any_object)"]))
@settings(max_examples=200, deadline=None)
def test_wildcard_duality(true_set, probe):
    domain = load_domain_cached()
    state = make_state(domain, sorted(true_set))
    assert domain.holds(state, negation(lit(probe))) == \
        (not domain.holds(state, lit(probe)))


_domain_cache = {}


def load_domain_cached():
    if "cube" not in _domain_cache:
        from btpolicy.sim import bundled_data_path
        _domain_cache["cube"] = load_domain(
            bundled_data_path("domains", "cube_tabletop.yaml"))
    return _domain_cache["cube"]


class TestApplyEffects:
    def test_grasp_adds_and_wildcard_deletes(self, cube_domain):
        state = make_state(cube_domain, ["on(blue_cube, table)"])
        action = GroundAction.from_mapping("grasp", {"obj": "blue_cube"})
        after = cube_domain.apply_effects(state, action)
        assert cube_domain.holds(after, lit("grasped(blue_cube)"))
        assert cube_domain.holds(after, lit("~on(blue_cube, any_object)"))

    def test_place_after_grasp(self, cube_domain):
        state = make_state(cube_domain, ["grasped(blue_cube)"])
        action = GroundAction.from_mapping(
            "place", {"obj": "blue_cube", "dst": "green_cube"})
        after = cube_domain.apply_effects(state, action)
        assert cube_domain.holds(after, lit("on(blue_cube, green_cube)"))
        assert cube_domain.holds(after, lit("~grasped(blue_cube)"))

    def test_no_duplicates_under_repeat(self, cube_domain):
        state = make_state(cube_domain, ["grasped(blue_cube)"])
        action = GroundAction.from_mapping("turn_over", {"obj": "red_cup"})
        once = cube_domain.apply_effects(state, action)
        twice = cube_domain.apply_effects(once, action)
        assert once.true == twice.true

    def test_effect_free_action_is_identity(self):
        domain = parse_domain({
            "schema": "domain/v1", "name": "noop",
            "predicates": [{"name": "p", "arity": 0}],
            "objects": [{"name": "thing", "category": "stuff"}],
            "skills": [{"name": "wait", "params": [], "effects": []}],
        })
        state = make_state(domain, ["p"])
        assert domain.apply_effects(state, GroundAction("wait")).true == state.true

    def test_unbound_object_slot_raises(self, cube_domain, monkeypatch):
        with pytest.raises(DomainMismatch) as err:
            execute_untickable(cube_domain, GroundAction("grasp"), monkeypatch)
        assert "slot 'obj'" in str(err.value)

    def test_hidden_untouched_by_visible_effects(self, cafe_domain):
        state = make_state(cafe_domain, ["Grasped(Plate)"], ["Locked(Cupboard)"])
        after = cafe_domain.apply_effects(
            state, GroundAction.from_mapping("PutIn", {"obj": "Plate", "cont": "Cupboard"}))
        assert after.hidden == state.hidden

    def test_hidden_side_channel(self, cafe_domain):
        state = make_state(cafe_domain, [], ["Locked(Cupboard)"])
        after = cafe_domain.apply_hidden_effects(
            state, GroundAction.from_mapping("Unlock", {"obj": "Cupboard"}))
        assert after.hidden == frozenset()


class TestAchievers:
    def test_direct_positive_effect(self, cube_domain):
        found = cube_domain.achievers(lit("on(blue_cube, green_cube)"))
        assert [(s.name, b) for s, b in found] == \
            [("place", {"obj": "blue_cube", "dst": "green_cube"})]

    def test_wildcard_negative_target(self, cube_domain):
        # clearing a cube's top is achieved by grasping whatever sits there
        found = cube_domain.achievers(lit("~on(any_object, blue_cube)"))
        assert [(s.name, b) for s, b in found] == [("grasp", {})]

    def test_no_achiever_is_empty(self, cube_domain):
        assert cube_domain.achievers(lit("on(blue_cube, table) & "
                                         if False else "upright(blue_cube)")) \
            == [(cube_domain.skills["turn_over"], {"obj": "blue_cube"})]
        # a literal no skill adds
        assert cube_domain.achievers(lit("~upright(red_cup)")) == []

    def test_declaration_order(self, cafe_domain):
        found = cafe_domain.achievers(lit("~Grasped(any_object)"))
        assert [s.name for s, _ in found] == ["PutDown", "PutIn"]


@pytest.mark.parametrize("name", ["cube_tabletop", "cafe", "household", "blocks_strict"])
def test_domain_memos_answer_as_a_fresh_domain(name):
    """Asked twice, ``achievers`` hands back its first answer, equal to
    what a domain that never answered gives; ``objects_in`` gives, for
    the full registry and a part of it, the scan of the objects by
    category; and wildcard ``holds`` agrees with enumeration in two
    states that share the memo's row tests."""
    path = bundled_data_path("domains", f"{name}.yaml")
    domain, fresh = load_domain(path), load_domain(path)
    names = sorted(domain.objects) + [ANY_OBJECT]
    literals = [Literal(pred.name, args, negated)
                for pred in domain.predicates.values()
                for args in itertools.product(names, repeat=pred.arity)
                for negated in (False, True)]
    for literal in literals:
        first = domain.achievers(literal)
        assert domain.achievers(literal) is first
        assert first == fresh.achievers(literal)
    objects = list(domain.objects.values())
    for registry in (objects, objects[::2]):
        state = WorldState(tuple(registry))
        for kind in sorted({o.category for o in objects} | set(domain.groups)):
            scanned = [o.name for cat in domain.categories_of(kind)
                       for o in sorted(registry, key=lambda o: o.name) if o.category == cat]
            assert list(domain.objects_in(kind, state.registry)) == scanned
    full = WorldState(tuple(objects))
    facts = frozenset(lit for lit in literals if not lit.negated
                      and ANY_OBJECT not in lit.args)
    for state in (full, WorldState(full.objects, frozenset(sorted(facts, key=str)[::3]))):
        for literal in literals:
            if ANY_OBJECT in literal.args:
                assert domain.holds(state, literal) == reference_holds(domain, state, literal)


class TestDomainLoading:
    def test_bundled_domains_load(self, cube_domain, cafe_domain,
                                   household_domain, blocks_domain):
        assert cube_domain.name == "cube_tabletop"
        assert cafe_domain.predicates["Active"].description.startswith(
            "The appliance is on.")

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(SchemaError):
            parse_domain({
                "schema": "domain/v1", "name": "dup",
                "predicates": [{"name": "p", "arity": 0},
                               {"name": "p", "arity": 1}],
            })

    def test_an_object_listed_twice_is_rejected(self, cube_domain):
        with pytest.raises(SchemaError, match="object 'red_cube' is listed twice"):
            make_state(cube_domain, [], objects=["red_cube", "table", "red_cube"])

    def test_undeclared_slot_in_effect_rejected(self):
        with pytest.raises(SchemaError):
            parse_domain({
                "schema": "domain/v1", "name": "bad",
                "predicates": [{"name": "p", "arity": 1}],
                "objects": [{"name": "x", "category": "c"}],
                "skills": [{"name": "s", "params": [],
                            "effects": ["p($ghost)"]}],
            })

    def test_undeclared_placeholder_in_precondition_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_domain({
                "schema": "domain/v1", "name": "bad",
                "predicates": [{"name": "p", "arity": 1}],
                "objects": [{"name": "x", "category": "c"}],
                "skills": [{"name": "s", "params": [{"name": "obj", "category": "c"}],
                            "preconditions": ["~p(@ghost)"]}],
            })
        assert "skill s" in str(err.value) and "unbound slot @ghost" in str(err.value)

    def test_either_sigil_names_an_object_slot_in_skill_templates(self):
        skill = {"name": "s", "params": [{"name": "obj", "category": "c"}],
                 "preconditions": ["~p(@obj)"], "effects": ["p(@obj)"]}
        domain = parse_domain({
            "schema": "domain/v1", "name": "sigils",
            "predicates": [{"name": "p", "arity": 1}],
            "objects": [{"name": "x", "category": "c"}], "skills": [skill]})
        achiever, binding = domain.achievers(lit("p(x)"))[0]
        action = GroundAction.from_mapping(achiever.name, binding)
        assert binding == {"obj": "x"}
        assert domain.ground_preconditions(action) == (lit("~p(x)"),)

    def test_positive_wildcard_effect_rejected(self):
        with pytest.raises(SchemaError):
            parse_domain({
                "schema": "domain/v1", "name": "bad",
                "predicates": [{"name": "p", "arity": 1}],
                "objects": [{"name": "x", "category": "c"}],
                "skills": [{"name": "s", "params": [],
                            "effects": ["p(any_object)"]}],
            })

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError):
            parse_domain({"schema": "domain/v0", "name": "x"})

    def test_scenario_object_subset(self, cube_domain):
        state = make_state(cube_domain, [], objects=["blue_cube", "table"])
        assert state.object_names == ("blue_cube", "table")

    def test_a_wildcard_state_fact_is_a_schema_error_naming_it(self, cube_domain):
        """A fact is ground: a wildcard in it, visible or hidden, would be a
        row no literal could ever match."""
        for visible, hidden, named in (
                (["on(red_cube, table)", "on(any_object, table)"], [], "on(any_object, table)"),
                ([], ["grasped(any_object)"], "grasped(any_object)")):
            with pytest.raises(SchemaError, match=re.escape(
                    f"state literal {named!r} may not use any_object")):
                make_state(cube_domain, visible, hidden)

    def test_a_wildcard_initial_fact_fails_the_scenario_load(self, tmp_path):
        data = yaml.safe_load(bundled_data_path(
            "scenarios", "precond_01_blocked_cube.yaml").read_text())
        data["domain"] = str(bundled_data_path("domains", "cube_tabletop.yaml"))
        data["initial"]["visible"].append("on(any_object, green_cube)")
        path = tmp_path / "wildcard_fact.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(SchemaError) as err:
            sim.load_scenario(path)
        assert "'on(any_object, green_cube)' may not use any_object" in str(err.value)
        assert err.value.file == str(path)

    def test_an_unknown_skill_is_named_as_a_skill(self, cube_domain):
        with pytest.raises(UnknownSkill, match="^unknown skill 'fly'$"):
            cube_domain.skill("fly")


# --- the YAML loader -------------------------------------------------------------
#
# PyYAML's pure-Python safe loader is the reference. ``load_yaml`` uses
# libyaml's where PyYAML was built with it; the ``pure`` runs put it on the
# reference loader, so the fallback path stays tested too.

@pytest.fixture(params=["default", "pure"])
def yaml_loader(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr("btpolicy.domain._YAML_LOADER", yaml.SafeLoader)
    return request.param


def test_load_yaml_uses_libyaml_where_pyyaml_has_it():
    from btpolicy import domain
    assert domain._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__
                                   else yaml.SafeLoader)


def _same_data(a, b) -> bool:
    """Equal values of the same types, and mappings with the same key order,
    at every depth."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (len(a) == len(b)
                and all(_same_data(k, j) for k, j in zip(a, b))
                and all(_same_data(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_data, a, b))
    return a == b


def test_every_bundled_file_loads_as_the_reference_loader_reads_it(yaml_loader):
    paths = sorted(bundled_data_path().rglob("*.yaml"))
    assert len(paths) > 20
    for path in paths:
        reference = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert _same_data(load_yaml(path, "test"), reference), path


@pytest.mark.parametrize("text", [
    "schema: goalbench/v1\ndomain: [unclosed\n",
    "schema: scenario/v1\nobjects:\n\t- red_cube\n",
    "schema: scenario/v1\n---\nschema: scenario/v1\n",
    "schema: scenario/v1\nid: x\ndomain: *nowhere\n",
    "schema: scenario/v1\nid: !!python/object:os.system {}\n",
], ids=["unclosed_flow_sequence", "tab_indent", "two_documents", "undefined_alias",
        "python_object_tag"])
def test_malformed_yaml_fails_as_the_reference_loader_fails(tmp_path, yaml_loader, text):
    """The same error class at the same line, as a SchemaError naming the
    file; only the wording comes from the parser that read it."""
    with pytest.raises(yaml.YAMLError) as reference:
        yaml.load(text, Loader=yaml.SafeLoader)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        load_yaml(path, "test")
    assert type(err.value.__cause__) is reference.type
    assert err.value.file == str(path)
    assert err.value.line == reference.value.problem_mark.line + 1
    assert str(err.value).startswith("invalid YAML: ")


def _table_keys(shape):
    """Every key name a shape table names, at any depth."""
    if isinstance(shape, (list, tuple)):
        for option in shape:
            yield from _table_keys(option)
    elif isinstance(shape, dict):
        for key, sub in shape.items():
            if key is not str:
                yield key.rstrip("?")
            yield from _table_keys(sub)


@pytest.mark.parametrize("heading, shape", [
    ("## Domain files", DOMAIN_SHAPE), ("## Scenario files", SCENARIO_SHAPE),
    ("## Scripted fixtures", FIXTURES_SHAPE), ("## Goal benchmark files", GOALSET_SHAPE)])
def test_every_table_key_is_in_its_section_of_the_format_docs(heading, shape):
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    assert heading in text
    section = text.split(heading, 1)[1].split("\n## ", 1)[0]
    missing = sorted({key for key in _table_keys(shape)
                      if not re.search(rf"\b{re.escape(key)}\b", section)})
    assert missing == []


def test_literal_str_forms():
    assert str(Literal("on", ("a", "b"))) == "on(a, b)"
    assert str(Literal("on", ("a", "b"), True)) == "~on(a, b)"
    assert str(Literal("ready")) == "ready"


# --- indexed evaluation against the plain references ---------------------------

_INDEX_DOMAIN = parse_domain({
    "schema": "domain/v1", "name": "index_props",
    "predicates": [{"name": "ready", "arity": 0}, {"name": "tag", "arity": 1},
                   {"name": "rel", "arity": 2}, {"name": "tri", "arity": 3}],
    "objects": [{"name": n, "category": "thing"} for n in ("a", "b", "c", "d")]
    + [{"name": "e", "category": "tool"}],
    "skills": [
        {"name": "link", "params": [{"name": "x"}, {"name": "y", "category": "thing"}],
         "effects": ["~rel($x, any_object)", "rel($x, $y)"],
         "hidden_effects": ["tag($y)", "~ready"]},
        {"name": "wipe", "params": [{"name": "x"}],
         "effects": ["~rel(any_object, any_object)",
                     "~tri($x, any_object, any_object)", "tag($x)"]},
        {"name": "drop", "params": [{"name": "x"}],
         "effects": ["~tag($x)", "~tri(any_object, $x, any_object)", "~ready"],
         "hidden_effects": ["rel($x, $x)", "~tag(a)"]},
        {"name": "stack", "params": [{"name": "x"}, {"name": "y"}],
         "effects": ["~tag(any_object)", "tri($x, $y, $x)", "ready"]},
    ],
})
# "stray" is in no registry: facts may still name it, wildcards never match it.
# "e" is a tool, which link's y excludes; only the grounding tests register it.
_INDEX_NAMES = ("a", "b", "c", "d", "stray")


@st.composite
def index_literals(draw, *, ground: bool = False):
    name = draw(st.sampled_from(sorted(_INDEX_DOMAIN.predicates)))
    arity = _INDEX_DOMAIN.predicates[name].arity
    pool = _INDEX_NAMES if ground else _INDEX_NAMES + ("any_object",) * 3
    args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
    return Literal(name, args, False if ground else draw(st.booleans()))


@st.composite
def index_states(draw):
    registry = draw(st.lists(st.sampled_from(_INDEX_NAMES[:4]), unique=True))
    facts = st.frozensets(index_literals(ground=True), max_size=12)
    return WorldState(tuple(ObjectRef(n, "thing") for n in registry),
                      draw(facts), draw(facts))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BtError as e:
        return type(e)


@given(index_states(), index_literals(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_indexed_holds_matches_enumeration(state, probe, include_hidden):
    assert _INDEX_DOMAIN.holds(state, probe, include_hidden=include_hidden) == \
        reference_holds(_INDEX_DOMAIN, state, probe, include_hidden=include_hidden)


@given(index_states(),
       st.sampled_from(sorted(_INDEX_DOMAIN.predicates) + ["levitating"]),
       st.lists(st.sampled_from(_INDEX_NAMES + ("any_object", "$x", "@y")), max_size=3),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_indexed_holds_raises_like_enumeration(state, name, args, negated):
    """The tree gate rejects a one-condition tree exactly when the
    enumerating reference raises (unknown predicate, wrong arity, unbound
    slot) or an argument is neither a domain object nor the wildcard."""
    probe = Literal(name, tuple(args), negated)
    reference = _outcome(reference_holds, _INDEX_DOMAIN, state, probe)
    expected = isinstance(reference, type) or any(
        arg not in _INDEX_DOMAIN.objects and arg != ANY_OBJECT for arg in args)
    gate = _outcome(check_tree_domain, one_leaf_tree(probe), _INDEX_DOMAIN)
    assert gate in (None, DomainMismatch)
    assert (gate is DomainMismatch) == expected


@given(index_states(), st.sampled_from(sorted(_INDEX_DOMAIN.skills)),
       st.sampled_from(_INDEX_NAMES), st.sampled_from(_INDEX_NAMES),
       st.lists(index_literals(), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_indexed_apply_effects_matches_scan(state, skill, x, y, probes):
    params = [s.name for s in _INDEX_DOMAIN.skill(skill).params]
    action = GroundAction.from_mapping(skill, dict(zip(params, (x, y))))
    _INDEX_DOMAIN.holds(state, probes[0])          # build the parent's index first
    after = _INDEX_DOMAIN.apply_effects(state, action)
    expected = reference_apply_effects(_INDEX_DOMAIN, state, action)
    assert (after.true, after.hidden) == (expected.true, expected.hidden)
    for probe in probes:
        assert _INDEX_DOMAIN.holds(after, probe) == \
            reference_holds(_INDEX_DOMAIN, expected, probe)


# few names, so that rows often match; "stray" is in neither registry
_ROW_NAMES = ("a", "b", "stray")


@given(st.lists(st.lists(st.sampled_from(_ROW_NAMES), max_size=3).map(tuple), max_size=10),
       st.lists(st.sampled_from(_ROW_NAMES + (ANY_OBJECT,) * 2), max_size=3).map(tuple),
       st.sampled_from([None, frozenset("ab"), frozenset("a")]))
@example([("a", "b"), ("a",), ("stray", "b"), ("a", "b", "a"), ("b", "b")],
         (ANY_OBJECT, "b"), frozenset("ab"))
@example([("a", "stray", "a"), ("a", "a", "a"), ("stray", "stray", "stray")],
         (ANY_OBJECT, ANY_OBJECT, ANY_OBJECT), frozenset("ab"))
@example([(), ("a",), ()], (), None)
@settings(max_examples=500, deadline=None)
def test_rows_matching_equals_the_generator(rows, pattern, allowed):
    """The list equals the generator's rows, in order: patterns of arity 0
    to 3 with 0 to 3 wildcards, rows of mixed arity, wildcards ranging over
    every name or over a registry, and a name outside it (stray). A
    wildcard literal holds on the rows exactly when the list is non-empty."""
    expected = list(reference_rows_matching(pattern, rows, allowed))
    assert rows_matching(pattern, rows, allowed) == expected
    if allowed is not None and ANY_OBJECT in pattern:
        assert literal_holds(Literal("p", pattern), rows, allowed) == bool(expected)


@given(index_states())
@settings(max_examples=100, deadline=None)
def test_effect_delta_equals_the_per_call_loop(state):
    """For every skill and binding of the index domain, whose deletes
    include double wildcards and arity-3 wildcard deletes, the delta read
    from the grounding's effect split equals the per-call loop's."""
    for skill in _INDEX_DOMAIN.skills.values():
        for values in itertools.product(_INDEX_NAMES, repeat=len(skill.params)):
            action = GroundAction.from_mapping(
                skill.name, dict(zip((s.name for s in skill.params), values)))
            assert _INDEX_DOMAIN.effect_delta(state, action) == \
                reference_effect_delta(_INDEX_DOMAIN, state, action)


def _index_action(skill, x, y):
    params = [s.name for s in _INDEX_DOMAIN.skill(skill).params]
    return GroundAction.from_mapping(skill, dict(zip(params, (x, y))))


@given(index_states(), st.data())
@settings(max_examples=400, deadline=None)
def test_derived_index_equals_fresh_index(state, data):
    """Each state of a random chain of changes, and each state it was
    derived from, indexes its facts as a state built from scratch does,
    and both agree with a plain scan of the facts."""
    facts = st.sets(index_literals(ground=True), max_size=4)
    chain = [state]
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        if data.draw(st.booleans(), label="index parent first"):
            state.rows("rel", include_hidden=data.draw(st.booleans()))
        present = st.sets(st.sampled_from(sorted(state.true, key=str))) \
            if state.true else st.just(set())
        op = data.draw(st.sampled_from(
            ["apply", "apply_hidden", "change", "empty", "hidden", "visible"]))
        if op in ("apply", "apply_hidden"):
            action = _index_action(data.draw(st.sampled_from(sorted(_INDEX_DOMAIN.skills))),
                                   data.draw(st.sampled_from(_INDEX_NAMES)),
                                   data.draw(st.sampled_from(_INDEX_NAMES)))
            apply = _INDEX_DOMAIN.apply_effects if op == "apply" \
                else _INDEX_DOMAIN.apply_hidden_effects
            state = apply(state, action)
        elif op == "change":    # deletes of absent facts included
            state = state.with_changes(add=data.draw(facts),
                                       remove=data.draw(facts) | data.draw(present))
        elif op == "empty":
            pred = data.draw(st.sampled_from(sorted(_INDEX_DOMAIN.predicates)))
            state = state.with_changes(remove={f for f in state.true if f.predicate == pred})
        elif op == "hidden":    # hidden facts overlapping visible ones
            state = state.with_hidden_changes(add=data.draw(facts) | data.draw(present),
                                              remove=data.draw(facts))
        else:
            state = state.visible_only()
        chain.append(state)
    for derived in chain:
        fresh = WorldState(derived.objects, derived.true, derived.hidden)
        for pred in _INDEX_DOMAIN.predicates:
            visible = {f.args for f in derived.true if f.predicate == pred}
            everything = {f.args for f in derived.true | derived.hidden if f.predicate == pred}
            assert derived.rows(pred) == fresh.rows(pred) == visible
            assert derived.rows(pred, include_hidden=True) == \
                fresh.rows(pred, include_hidden=True) == everything
        assert derived._index == fresh._index
        assert derived._index_with_hidden == fresh._index_with_hidden
        assert derived.registry == fresh.registry


@given(index_states(), st.sampled_from(sorted(_INDEX_DOMAIN.skills)),
       st.sampled_from(_INDEX_NAMES), st.sampled_from(_INDEX_NAMES),
       st.lists(index_literals(), min_size=1, max_size=4))
@example(  # link deletes rel(a, any_object), then adds rel(a, b) back
    WorldState(tuple(ObjectRef(n, "thing") for n in "ab"),
               frozenset({Literal("rel", ("a", "b"))})),
    "link", "a", "b", [Literal("rel", ("a", "b"))])
@settings(max_examples=400, deadline=None)
def test_holds_after_delta_matches_applied_state(state, skill, x, y, probes):
    """A literal judged on the rows an action's effects touch (or, when it
    touches none of the literal's predicate, on the state before) holds
    exactly when it holds on the state the action leads to."""
    action = _index_action(skill, x, y)
    after = state.changed_rows(*_INDEX_DOMAIN.effect_delta(state, action))
    applied = _INDEX_DOMAIN.apply_effects(state, action)
    for probe in probes:
        rows = after.get(probe.predicate)
        got = _INDEX_DOMAIN.holds(state, probe) if rows is None \
            else literal_holds(probe, rows, state.registry)
        assert got == reference_holds(_INDEX_DOMAIN, applied, probe)


@given(index_states(), st.lists(index_literals(), min_size=1, max_size=5))
@example(  # wipe(x=c) deletes no tri fact: the goal stays false, c is no achiever
    WorldState(tuple(ObjectRef(n, "thing") for n in "abc"),
               frozenset({Literal("tri", ("a", "b", "a"))})),
    [Literal("tri", (ANY_OBJECT, "b", ANY_OBJECT), True)])
@example(  # witnesses rel(a, c), rel(b, c) disagree at link's $x: only wipe is left
    WorldState(tuple(ObjectRef(n, "thing") for n in "abc"),
               frozenset({Literal("rel", ("a", "c")), Literal("rel", ("b", "c"))})),
    [Literal("rel", (ANY_OBJECT, "c"), True)])
@example(  # rel(stray, c) is no witness, so link(a, b) still achieves the goal
    WorldState(tuple(ObjectRef(n, "thing") for n in "abc"),
               frozenset({Literal("rel", ("a", "c")), Literal("rel", ("stray", "c"))})),
    [Literal("rel", (ANY_OBJECT, "c"), True)])
@example(  # link(a, b) removes and re-adds rel(a, b), which the tree relies on: it stays clean
    WorldState(tuple(ObjectRef(n, "thing") for n in "abc"),
               frozenset({Literal("rel", ("a", "b")), Literal("rel", ("a", "c"))})),
    [Literal("rel", ("a", "b")), Literal("rel", ("a", "c"), True)])
@example(  # drop(x=a) and every stack remove tag(a), the last row of the relied-on tag(any_object)
    WorldState(tuple(ObjectRef(n, "thing") for n in "abc"),
               frozenset({Literal("tag", ("a",))})),
    [Literal("tag", (ANY_OBJECT,)), Literal("tag", ("a",), True)])
@example(  # wipe(x=a) adds tag(a), the row of the relied-on ~tag(a): only wipe(x=b) is clean
    WorldState(tuple(ObjectRef(n, "thing") for n in "ab"),
               frozenset({Literal("rel", ("a", "b"))})),
    [Literal("tag", ("a",), True), Literal("rel", (ANY_OBJECT, ANY_OBJECT), True)])
@settings(max_examples=300, deadline=None)
def test_expand_condition_matches_applied_scoring(state, goals):
    """Expanding each failing goal in turn puts one branch under its
    Fallback, for the first achiever of the reference ranking that scores
    every candidate on a fully applied state (no skill here has
    preconditions, so no candidate is a dead end)."""
    trees = [init_tree(GoalSpec(tuple(goals))) for _ in range(2)]
    for cond_id, goal in enumerate(goals, start=1):
        if _INDEX_DOMAIN.holds(state, goal):
            continue
        ranking = reference_ranking(trees[0], trees[0].find(cond_id), _INDEX_DOMAIN, state)
        raised = []
        for expand, tree in zip((expand_condition, reference_expand_condition), trees):
            outcome = _outcome(expand, tree, tree.find(cond_id), _INDEX_DOMAIN, state)
            # the planner returns the Fallback it put in the goal's place
            made = tree if expand is reference_expand_condition \
                else tree.root.children[cond_id - 1]
            raised.append(None if outcome is made else outcome)
        assert raised[0] == raised[1] == (None if ranking else NoAchiever)
        assert bt.serialize(trees[0]) == bt.serialize(trees[1])
        if ranking:
            condition, branch = trees[0].root.children[cond_id - 1].children
            assert condition.literal == goal
            assert [n.action for n in branch.children] == ranking[:1]


# --- groundings against the recursion ---------------------------------------------

def _check_groundings(domain, state, skill, partial) -> list[GroundAction]:
    got = list(_groundings(domain, state, skill, partial))
    assert got == list(reference_groundings(domain, state, skill, partial))
    return got


def test_groundings_equal_the_recursion_on_bundled_domains(all_scenarios, seed7_towers):
    """Every skill of each bundled domain, with all its objects registered,
    and of each bundled scenario's and a seed-7 tower's start state, grounds
    to the recursion's list from no binding and from every partial binding
    ``Domain.achievers`` gives for the literals those groundings add or
    delete and for their negations."""
    domains = [load_domain(path)
               for path in sorted(bundled_data_path("domains").glob("*.yaml"))]
    worlds = [(domain, make_state(domain, [])) for domain in domains] + \
        [(scenario.domain, scenario.initial) for scenario in all_scenarios + seed7_towers[:1]]
    sizes = Counter()
    for domain, state in worlds:
        targets = set()
        for skill in domain.skills.values():
            for action in _check_groundings(domain, state, skill, {}):
                for effect in skill.grounded(action).effects:
                    targets.update((effect, negation(effect)))
        partials = {(skill.name, tuple(sorted(partial.items()))): (skill, partial)
                    for target in targets for skill, partial in domain.achievers(target)}
        for skill, partial in partials.values():
            sizes[bool(_check_groundings(domain, state, skill, partial))] += 1
    assert {domain.name for domain, _ in worlds} == {domain.name for domain in domains}
    assert sizes[True] > 0 and sizes[False] > 0


@given(st.lists(st.sampled_from(("a", "b", "c", "d", "e")), unique=True),
       st.sampled_from(sorted(_INDEX_DOMAIN.skills)),
       st.dictionaries(st.sampled_from(("x", "y")),
                       st.sampled_from(_INDEX_NAMES + ("e",)), max_size=2))
@example(["a", "b", "e"], "link", {"y": "e"})        # a tool where link's y wants a thing
@example(["a", "b"], "link", {"x": "stray"})         # a value outside the registry
@example(["a", "b", "c"], "link", {"x": "a", "y": "a"})  # one object in two slots
@example(["e", "c", "a"], "link", {})                # e is no candidate for y
@settings(max_examples=300, deadline=None)
def test_groundings_equal_the_recursion_on_partials(registry, skill, partial):
    """Partial bindings over the index domain, registries that may hold the
    tool e, and values outside the registry, of a category the slot
    excludes or repeated, ground to the recursion's list, in its order."""
    template = _INDEX_DOMAIN.skill(skill)
    partial = {slot: value for slot, value in partial.items()
               if slot in {s.name for s in template.object_slots}}
    state = WorldState(tuple(_INDEX_DOMAIN.object(name) for name in registry), frozenset())
    got = _check_groundings(_INDEX_DOMAIN, state, template, partial)
    values = list(partial.values())
    if len(set(values)) < len(values) or not set(values) <= set(registry) \
            or (skill == "link" and partial.get("y") == "e"):
        assert got == []
    assert all(action.get("y") != "e" for action in got if skill == "link")


def test_index_is_not_part_of_the_value(cube_domain, blocked_cube_state):
    fresh = WorldState(blocked_cube_state.objects, blocked_cube_state.true,
                       blocked_cube_state.hidden)
    assert cube_domain.holds(blocked_cube_state, lit("on(any_object, blue_cube)"))
    assert blocked_cube_state == fresh
    assert hash(blocked_cube_state) == hash(fresh)
    assert repr(blocked_cube_state) == repr(fresh)


def test_concurrent_queries_on_fresh_states(cube_domain):
    """Threads racing to build one state's index, and to fill a fresh
    domain's grounded-effects memos, all see the right answers; numeric
    slot values, different in every thread, add no memo entries."""
    probes = [lit(t) for t in ("on(any_object, blue_cube)", "~on(any_object, any_object)",
                               "on(red_cube, blue_cube)", "~grasped(any_object)")]
    base = make_state(cube_domain, ["on(red_cube, blue_cube)", "on(blue_cube, table)"])
    states = [WorldState(base.objects, base.true, base.hidden) for _ in range(200)]
    expected = [reference_holds(cube_domain, base, p) for p in probes]
    household = load_domain(bundled_data_path("domains", "household.yaml"))
    home = make_state(household, ["on(egg, table)", "in(sand, bucket)"])
    bindings = [("grasp", {"obj": "egg"}, "force"), ("grasp", {"obj": "plate"}, "force"),
                ("put", {"obj": "egg", "dst": "tray"}, "speed"),
                ("put_in", {"obj": "plate", "cont": "crib"}, "speed")]
    actions = [GroundAction.from_mapping(skill, objects) for skill, objects, _ in bindings]
    expected_effects = [reference_apply_effects(household, home, a).true for a in actions]
    expected_pre = [tuple(t.substitute(dict(a.binding))
                          for t in household.skill(a.skill).preconditions) for a in actions]
    wrong: list = []

    def worker(n):
        numeric = [a.with_slot(slot, Quantity(float(n), "N" if slot == "force" else "m/s"))
                   for a, (_, _, slot) in zip(actions, bindings)]
        for state in states:
            answers = [cube_domain.holds(state, p) for p in probes]
            if answers != expected:
                wrong.append(answers)
            home_copy = WorldState(home.objects, home.true, home.hidden)
            for action, effects, pre in zip(numeric, expected_effects, expected_pre):
                if household.apply_effects(home_copy, action).true != effects or \
                        household.ground_preconditions(action) != pre:
                    wrong.append(action)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    memo_sizes = {skill.name: len(skill._grounded_memo)
                  for skill in household.skills.values() if skill.name in ("grasp", "put", "put_in")}
    assert memo_sizes == {"grasp": 2, "put": 1, "put_in": 1}
