import pytest
import yaml

from btpolicy import grammar
from btpolicy.backends import RequestMeta, ScriptedBackend
from btpolicy.cli import _load_goalset
from btpolicy.domain import load_domain, make_state
from btpolicy.errors import DomainMismatch, SchemaError, TickBudgetExceeded
from btpolicy.grammar import parse_literal
from btpolicy.llm import Role
from btpolicy.planner import GoalSpec, plan
from btpolicy.resolver import resolve_until_success
from btpolicy.sim import (FailureEvent, bundled_data_path, execute, load_scenario,
                          load_scenarios)
from btpolicy.terms import GroundAction
from oracles import ReferenceFaultRule, ground_actions


def lit(text):
    return parse_literal(text)


def plan_for(scenario):
    goals = GoalSpec(tuple(
        parse_literal(t.strip())
        for t in scenario.oracle_goals.split("&")))
    return plan(goals, scenario.domain, scenario.initial)


class TestExecute:
    def test_clean_run_success_no_events(self, all_scenarios):
        scenario = next(s for s in all_scenarios if s.id == "param_pillow_speed")
        tree = plan_for(scenario)
        trace = execute(tree, scenario)
        assert trace.outcome == "success"
        assert trace.events == []

    def test_fault_fires_with_message(self, golden_scenario):
        tree = plan_for(golden_scenario)
        trace = execute(tree, golden_scenario)
        assert trace.outcome == "failure"
        event = trace.events[0]
        assert event.error_message == "No collision free path found"
        assert event.action.skill == "grasp"
        assert event.phase == "planning"
        assert event.world_snapshot.hidden == frozenset()

    def test_torque_fault_uses_hidden_guard(self, all_scenarios):
        scenario = next(s for s in all_scenarios
                        if s.id == "precond_05_locked_cupboard")
        tree = plan_for(scenario)
        trace = execute(tree, scenario)
        assert trace.events[0].error_message == "Torque limit exceeded"

    def test_postcondition_audit_message(self, all_scenarios):
        scenario = next(s for s in all_scenarios
                        if s.id == "precond_10_mopless_sweep")
        tree = plan_for(scenario)
        trace = execute(tree, scenario)
        assert trace.events[0].error_message == \
            "Postcondition IsClean_Floor not met after Sweep action completion"
        # suppressed effects: the floor is not clean afterwards
        assert not scenario.domain.holds(
            trace.final_state, lit("IsClean(Floor)"), include_hidden=True)

    def test_fault_clears_after_fix(self, golden_scenario):
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        trace = execute(result.tree, golden_scenario)
        assert trace.outcome == "success"
        assert trace.events == []

    def test_execution_deterministic_byte_identical(self, golden_scenario):
        tree = plan_for(golden_scenario)
        first = execute(tree, golden_scenario)
        second = execute(tree, golden_scenario)
        assert first.to_jsonl() == second.to_jsonl()

    def test_effect_integrity_replay(self, golden_scenario):
        from btpolicy.grammar import parse_action
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        trace = execute(result.tree, golden_scenario)
        domain = golden_scenario.domain
        state = golden_scenario.initial
        for record in trace.ticks:
            if record.fired_action and record.fired_status == "running":
                action = parse_action(record.fired_action)
                state = domain.apply_effects(state, action)
                state = domain.apply_hidden_effects(state, action)
            assert tuple(state.sorted_literals()) == record.state_after

    def test_one_action_per_tick(self, golden_scenario):
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        trace = execute(result.tree, golden_scenario)
        fired = [r for r in trace.ticks if r.fired_action]
        assert len(fired) == len(trace.ticks) - 1  # final tick fires nothing

    def test_domain_mismatch_detected(self, golden_scenario, cafe_domain):
        from btpolicy.sim import Scenario
        tree = plan_for(golden_scenario)
        other = Scenario(id="x", domain=cafe_domain,
                         initial=make_state(cafe_domain, []),
                         instruction="", oracle_goals="IsClean(Floor)")
        with pytest.raises(DomainMismatch):
            execute(tree, other)

    def test_stuck_policy_raises_budget_error(self, cube_domain):
        # a tree that grasps and places the same cube forever
        from btpolicy.bt import BehaviorTree, NodeKind, TreeNode
        from btpolicy.terms import GroundAction
        from btpolicy.sim import Scenario
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children = [
            tree.new_action(GroundAction.from_mapping("grasp", {"obj": "red_cube"})),
            tree.new_condition(lit("on(red_cube, red_cube)")),
        ]
        scenario = Scenario(
            id="loop", domain=cube_domain,
            initial=make_state(cube_domain, ["on(red_cube, table)"]),
            instruction="", oracle_goals="grasped(red_cube)")
        with pytest.raises(TickBudgetExceeded,
                           match="stopped making progress after 2 ticks") as err:
            execute(tree, scenario)
        partial = err.value.trace
        assert partial.outcome == "running" and len(partial.ticks) == 2
        assert partial.to_jsonl().endswith('{"outcome": "running"}\n')


class TestScenarioLoading:
    def test_bundled_library_is_complete(self, all_scenarios):
        assert len(all_scenarios) == 17
        assert sum(1 for s in all_scenarios if s.id.startswith("precond_")) == 10
        assert sum(1 for s in all_scenarios if s.id.startswith("param_")) == 6
        assert sum(1 for s in all_scenarios if s.id == "cube_stack_golden") == 1

    def test_ids_sorted(self, all_scenarios):
        ids = [s.id for s in all_scenarios]
        assert ids == sorted(ids)

    def test_empty_directory_is_empty_list(self, tmp_path):
        assert load_scenarios(tmp_path) == []

    @staticmethod
    def _portable_source(scenario_id="precond_01_blocked_cube"):
        source = (bundled_data_path("scenarios") / f"{scenario_id}.yaml").read_text()
        return source.replace("../domains/", f"{bundled_data_path('domains')}/")

    def test_missing_oracle_answer_for_rule(self, tmp_path):
        broken = self._portable_source().replace(
            "    blocked_grasp: \"~on(any_object, @obj)\"\n", "")
        (tmp_path / "broken.yaml").write_text(broken)
        with pytest.raises(SchemaError) as err:
            load_scenario(tmp_path / "broken.yaml")
        assert "blocked_grasp" in str(err.value)

    def test_unknown_skill_in_rule(self, tmp_path):
        broken = self._portable_source().replace("skill: grasp", "skill: teleport")
        (tmp_path / "broken.yaml").write_text(broken)
        with pytest.raises(SchemaError):
            load_scenario(tmp_path / "broken.yaml")

    def test_rule_placeholder_must_name_an_object_slot(self, tmp_path):
        broken = self._portable_source().replace(
            'guard: ["on(any_object, @obj)"]', 'guard: ["on(any_object, @ghost)"]')
        assert "@ghost" in broken
        (tmp_path / "broken.yaml").write_text(broken)
        with pytest.raises(SchemaError) as err:
            load_scenario(tmp_path / "broken.yaml")
        assert "blocked_grasp" in str(err.value) and "@ghost" in str(err.value)

    _ANSWER = 'blocked_grasp: "~on(any_object, @obj)"'

    @pytest.mark.parametrize("scenario_id, line, broken, named", [
        ("precond_02_two_blockers", _ANSWER, 'blocked_grasp: "~on(any_object, @obj"',
         ("rule 'blocked_grasp' oracle answer", "expected")),
        ("precond_02_two_blockers", _ANSWER, 'blocked_grasp: "~onn(any_object, @obj)"',
         ("rule 'blocked_grasp' oracle answer", "unknown predicate 'onn'")),
        ("precond_02_two_blockers", _ANSWER, 'blocked_grasp: "~on(any_object, @ghost)"',
         ("rule 'blocked_grasp' oracle answer", "unbound slot @ghost")),
        ("precond_02_two_blockers", 'goals: "on(blue_cube, green_cube)"',
         'goals: "on(blue_cube, gren_cube)"', ("oracle goals", "'gren_cube'")),
        ("param_egg_hammer_force", "open_params: [force]", "open_params: [forse]",
         ("open_params", "'forse'")),
    ], ids=["answer_syntax", "answer_unknown_predicate", "answer_undeclared_slot",
            "oracle_goal_typo", "open_params_typo"])
    def test_oracle_literals_and_open_params_are_checked_at_load(
            self, tmp_path, scenario_id, line, broken, named):
        """An oracle answer or goal that could never serve, or an
        ``open_params`` name no skill declares, is a schema error at load
        naming the file and the rule or key, not a run of rejected rounds
        or silently bound defaults."""
        source = self._portable_source(scenario_id)
        assert line in source
        path = tmp_path / "broken.yaml"
        path.write_text(source.replace(line, broken))
        with pytest.raises(SchemaError) as err:
            load_scenario(path)
        assert err.value.file == str(path)
        assert all(part in str(err.value) for part in named), str(err.value)

    def test_oracle_answers_are_read_once_at_load(self, monkeypatch):
        scenario = load_scenario(
            bundled_data_path("scenarios", "precond_02_two_blockers.yaml"))

        def refuse(*args, **kwargs):
            raise AssertionError("a literal was parsed after load")

        for name in ("parse_literal", "parse_literal_conjunction", "parse_value",
                     "parse_action"):
            monkeypatch.setattr(grammar, name, refuse)
        failures = {
            "blocked_grasp": GroundAction.from_mapping("grasp", {"obj": "blue_cube"}),
            "blocked_place": GroundAction.from_mapping(
                "place", {"obj": "blue_cube", "dst": "green_cube"}),
        }
        answers = {
            rule_id: scenario.oracle_response(RequestMeta(
                Role.FAILURE_RESOLUTION, scenario.id, event=FailureEvent(
                    "planning", 1, action, "No collision free path found",
                    scenario.initial, rule_id)))
            for rule_id, action in failures.items()}
        assert answers == {"blocked_grasp": "ANSWER: ~on(any_object, blue_cube)",
                           "blocked_place": "ANSWER: ~on(any_object, green_cube)"}

    @pytest.mark.parametrize("scenario_id, rule, where, broken, named", [
        ("precond_06_unknown_banana", "not_in_dictionary", "obj: Banana",
         "obj: Bananna", "'Bananna'"),
        ("precond_06_unknown_banana", "not_in_dictionary", "obj: Banana",
         "obj: Plate", "'Plate'"),                   # a domain object, not in the scene
        ("precond_06_unknown_banana", "not_in_dictionary", "obj: Banana",
         "thing: Banana", "'thing'"),
        ("precond_02_two_blockers", "blocked_place", "dst: {category: cube}",
         "dst: {category: cubes}", "'cubes'"),
    ], ids=["unknown_object", "object_outside_scene", "unknown_slot", "unknown_category"])
    def test_rule_where_must_name_a_slot_an_object_and_a_category(
            self, tmp_path, scenario_id, rule, where, broken, named):
        """A ``where`` that could never match is a schema error naming the
        rule, not a rule that silently never fires."""
        source = self._portable_source(scenario_id)
        assert where in source
        (tmp_path / "broken.yaml").write_text(source.replace(where, broken))
        with pytest.raises(SchemaError) as err:
            load_scenario(tmp_path / "broken.yaml")
        assert rule in str(err.value) and named in str(err.value)

    def test_yaml_syntax_error_carries_line(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("schema: scenario/v1\nid: [unclosed\n")
        with pytest.raises(SchemaError) as err:
            load_scenario(tmp_path / "bad.yaml")
        assert err.value.file is not None

    def test_visible_state_must_be_positive(self, tmp_path):
        broken = self._portable_source().replace(
            '- "on(red_cube, blue_cube)"', '- "~on(red_cube, blue_cube)"')
        (tmp_path / "broken.yaml").write_text(broken)
        with pytest.raises(SchemaError):
            load_scenario(tmp_path / "broken.yaml")

    _OBJECTS = "objects: [blue_cube, green_cube, red_cube, table]"

    @pytest.mark.parametrize("line, broken, message", [
        (_OBJECTS, "objects: [blue_cube, green_cube, red_cube, table, red_cube]",
         "objects: object 'red_cube' is listed twice"),
        (_OBJECTS, "objects: [blue_cube, green_cube, red_cube, table, purple_cube]",
         "objects: unknown object 'purple_cube'"),
        ('- "on(green_cube, table)"', '- "on(green_cube, purple_cube)"',
         "bad initial state: unknown object 'purple_cube'"),
        ("hidden: []", 'hidden: ["~on(red_cube, table)"]',
         "bad initial state: state literal '~on(red_cube, table)' must be positive"),
    ], ids=["objects_repeated", "objects_unknown", "visible_unknown_object",
            "hidden_negated"])
    def test_an_error_names_the_objects_list_or_the_initial_state(
            self, tmp_path, line, broken, message):
        """The ``objects`` list is the scene's registry, not part of the
        initial state, and its errors say so."""
        source = self._portable_source()
        assert line in source
        path = tmp_path / "broken.yaml"
        path.write_text(source.replace(line, broken))
        with pytest.raises(SchemaError) as err:
            load_scenario(path)
        assert str(err.value) == f"{message} [{path}]"

    def test_scenario_objects_restrict_registry(self, golden_scenario):
        assert golden_scenario.initial.object_names == \
            ("blue_cube", "green_cube", "red_cube", "table")


_LOADERS = {
    "domain": ("domains/cube_tabletop.yaml", load_domain),
    "household domain": ("domains/household.yaml", load_domain),
    "scenario": ("scenarios/precond_01_blocked_cube.yaml", load_scenario),
    "goal set": ("benchmarks/cafe_goals.yaml", _load_goalset),
    "fixtures": ("fixtures/scripted.yaml", ScriptedBackend.from_file),
}

# (format, keys leading to the value replaced, the value, the key path named)
_MISSHAPEN = [
    ("domain", ("predicates", 0, "arity"), "two", "predicates[0].arity"),
    ("domain", ("predicates",), {"on": 2}, "predicates"),
    ("domain", ("objects", 0, "name"), 5, "objects[0].name"),
    ("domain", ("groups",), ["support"], "groups"),
    ("domain", ("groups", "support"), [], "groups.support"),
    ("domain", ("skills", 0, "params", 0), "obj", "skills[0].params[0]"),
    ("domain", ("skills", 0, "params", 0, "kind"), "vector", "skills[0].params[0].kind"),
    ("domain", ("skills", 0, "preconditions"), "~grasped(any_object)",
     "skills[0].preconditions"),
    ("domain", ("prompt",), ["ANSWER: on(a, b)"], "prompt"),
    ("household domain", ("skills", 0, "params", 1, "default"), "fast m/s",
     "skills[0].params[1].default"),
    ("household domain", ("skills", 0, "params", 1, "default"), "2 m/s",
     "skills[0].params[1].default"),
    ("household domain", ("skills", 3, "params", 1, "default"), "hammer",
     "skills[3].params[1].default"),
    ("household domain", ("skills", 0, "params", 0, "default"), "plate",
     "skills[0].params[0].default"),
    ("scenario", ("domain",), 5, "domain"),
    ("scenario", ("instruction",), ["a", "b"], "instruction"),
    ("scenario", ("objects",), "blue_cube", "objects"),
    ("scenario", ("initial",), ["on(red_cube, blue_cube)"], "initial"),
    ("scenario", ("initial", "visible"), "on(red_cube, blue_cube)", "initial.visible"),
    ("scenario", ("open_params",), "force", "open_params"),
    ("scenario", ("fault_rules", 0, "where"), ["obj"], "fault_rules[0].where"),
    ("scenario", ("fault_rules", 0, "guard"), "on(any_object, @obj)",
     "fault_rules[0].guard"),
    ("scenario", ("fault_rules", 0, "phase"), "explode", "fault_rules[0].phase"),
    ("scenario", ("oracle",), ["on(blue_cube, green_cube)"], "oracle"),
    ("scenario", ("expected",), ["success"], "expected"),
    ("scenario", ("expected", "rounds"), "one", "expected.rounds"),
    ("goal set", ("scene", "visible"), "On(Water, Bar)", "scene.visible"),
    ("goal set", ("scene", "objects"), "Water", "scene.objects"),
    ("goal set", ("instructions", 0, "goal"), ["On(Water, Bar)"], "instructions[0].goal"),
    ("fixtures", ("cube_stack_golden/goal",), {"a": 1}, "cube_stack_golden/goal"),
    ("fixtures", ("cube_stack_golden/goal",), 5, "cube_stack_golden/goal"),
]


@pytest.mark.parametrize("kind, keys, value, named", _MISSHAPEN,
                         ids=[f"{kind}:{named}={value!r}"
                              for kind, _, value, named in _MISSHAPEN])
def test_misshapen_file_is_a_schema_error_naming_the_file_and_key(tmp_path, kind, keys,
                                                                  value, named):
    """A bundled file with one value of the wrong shape is rejected before
    any of it is used, naming the file and the key path."""
    source, load = _LOADERS[kind]
    original = bundled_data_path(source)
    data = yaml.safe_load(original.read_text())
    if kind in ("scenario", "goal set"):
        data["domain"] = str((original.parent / data["domain"]).resolve())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "misshapen.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(SchemaError) as err:
        load(path)
    assert err.value.file == str(path)
    assert str(err.value).startswith(f"{named}: ")


def test_sibling_branch_recovers_fault_within_run(cube_domain, tmp_path):
    # the first branch's action faults; its sibling achieves the condition,
    # so the run continues to success with the event kept as audit only
    from btpolicy.bt import BehaviorTree, NodeKind, TreeNode
    from btpolicy.sim import FaultRule, Scenario
    from btpolicy.terms import GroundAction

    tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    fb = tree.new_node(NodeKind.FALLBACK, children=[
        tree.new_condition(lit("on(red_cube, table)")),
        tree.new_node(NodeKind.SEQUENCE, children=[
            tree.new_action(GroundAction.from_mapping(
                "place", {"obj": "red_cube", "dst": "blue_cube"}))]),
        tree.new_node(NodeKind.SEQUENCE, children=[
            tree.new_action(GroundAction.from_mapping(
                "place", {"obj": "red_cube", "dst": "table"}))]),
    ])
    tree.root.children.append(fb)

    rule = FaultRule("bad_spot", "place", where=(("dst", frozenset({"blue_cube"})),),
                     message="No collision free path found")
    scenario = Scenario(
        id="recovering", domain=cube_domain,
        initial=make_state(cube_domain, ["grasped(red_cube)"]),
        instruction="", fault_rules=(rule,),
        oracle_goals="on(red_cube, table)",
        oracle_preconditions={"bad_spot": (lit("~on(any_object, @dst)"),)})

    trace = execute(tree, scenario)
    assert trace.outcome == "success"
    assert len(trace.events) == 1
    assert trace.events[0].error_message == "No collision free path found"
    assert trace.pending_event is None


def test_fault_rules_fire_as_the_two_field_reference(seed7_pool_files):
    """Each fault rule, its ``where`` resolved at load, fires exactly where
    the rule as its file states it does: every rule of the bundled
    scenarios and the seed-7 towers, against every ground action of its
    skill, from the initial world."""
    paths = sorted(bundled_data_path("scenarios").glob("*.yaml")) + seed7_pool_files
    cache: dict = {}
    outcomes = set()
    rules = 0
    for path in paths:
        scenario = load_scenario(path, domain_cache=cache)
        domain, state = scenario.domain, scenario.initial
        entries = yaml.safe_load(path.read_text()).get("fault_rules") or ()
        assert len(entries) == len(scenario.fault_rules)
        actions = ground_actions(domain, state)
        for rule, entry in zip(scenario.fault_rules, entries):
            rules += 1
            reference = ReferenceFaultRule.from_entry(entry)
            for action in actions:
                if action.skill == rule.skill:
                    fires = rule.fires(domain, state, action)
                    assert fires == reference.fires(domain, state, action), \
                        (path.name, rule.id, str(action))
                    outcomes.add(fires)
    assert rules >= 17 + 64
    assert outcomes == {True, False}
