import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpolicy import bt, resolver
from btpolicy.backends import ScriptedBackend
from btpolicy.bt import NodeKind, iter_preorder
from btpolicy.domain import load_domain
from btpolicy.errors import BackendUnavailable
from btpolicy.grammar import parse_literal
from btpolicy.planner import GoalSpec, plan
from btpolicy.resolver import (Outcome, ResolveConfig, find_param_request, ground,
                               lift, records_to_jsonl, resolve,
                               resolve_until_success, tree_fingerprint)
from btpolicy import sim
from btpolicy.sim import FailureEvent, bundled_data_path, execute, load_scenario
from btpolicy.terms import ANY_OBJECT, GroundAction, Literal, Quantity


def lit(text):
    return parse_literal(text)


def scenario_by_id(all_scenarios, sid):
    return next(s for s in all_scenarios if s.id == sid)


def action_leaves(tree):
    return [n for n, _ in iter_preorder(tree.root) if n.kind is NodeKind.ACTION]


def condition_heads(tree):
    return [n for n, _ in iter_preorder(tree.root) if n.kind is NodeKind.CONDITION]


class CountingBackend:
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def complete(self, prompt, meta):
        self.calls += 1
        return self.inner.complete(prompt, meta)


class TestResolve:
    def test_golden_resolution_produces_both_subtrees(self, golden_scenario):
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        assert result.outcome is Outcome.SUCCESS
        heads = {str(n.payload) for n in condition_heads(result.tree)}
        assert "~on(any_object, blue_cube)" in heads  # blocker removal
        actions = {str(n.payload) for n in action_leaves(result.tree)}
        assert "grasp(obj=red_cube)" in actions       # removal branch
        assert any(a.startswith("place(") and "obj=red_cube" in a
                   for a in actions)                  # free-hand branch

    def test_inserted_literal_is_leftmost_precondition(self, golden_scenario):
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        record = result.records[0]
        inserted = record.inserted[0]
        target_action = record.event.action
        tree = result.tree
        leaf = next(n for n in action_leaves(tree)
                    if n.action == target_action)
        parent, _ = tree.parent_of(leaf.id)
        from btpolicy.planner import _head_literal
        assert str(_head_literal(parent.children[0])) == str(inserted)

    def test_already_true_suggestion_inserts_without_expansion(
            self, golden_scenario):
        goals = GoalSpec((lit("on(blue_cube, green_cube)"),))
        tree = plan(goals, golden_scenario.domain, golden_scenario.initial)
        grasp = next(n for n in action_leaves(tree)
                     if n.action.skill == "grasp")
        backend = ScriptedBackend({
            f"{golden_scenario.id}/failure": ["ANSWER: on(green_cube, table)"]})
        from btpolicy.sim import FailureEvent
        event = FailureEvent("execution", grasp.id, grasp.action,
                             "No collision free path found",
                             golden_scenario.initial.visible_only(),
                             "blocked_grasp")
        before_count = tree.node_count()
        tree, record = resolve(tree, event, golden_scenario.domain, backend,
                               goals=goals, key=golden_scenario.id)
        assert not record.rejected
        assert tree.node_count() == before_count + 1  # just the new leaf

    def test_duplicate_suggestion_rejected(self, golden_scenario):
        backend = ScriptedBackend({
            f"{golden_scenario.id}/goal": ["ANSWER: on(blue_cube, green_cube)"],
            f"{golden_scenario.id}/failure": ["ANSWER: ~grasped(any_object)"],
        })
        result = resolve_until_success(golden_scenario, backend)
        assert result.outcome is Outcome.EXHAUSTED
        assert all(r.rejected for r in result.records)
        assert len(result.records) == ResolveConfig().max_resolution_rounds

    def test_garbage_rounds_recorded_until_exhaustion(self, golden_scenario):
        backend = ScriptedBackend({
            f"{golden_scenario.id}/goal": ["ANSWER: on(blue_cube, green_cube)"],
            f"{golden_scenario.id}/failure": ["!!! not parseable at all"],
        })
        config = ResolveConfig(max_resolution_rounds=3)
        result = resolve_until_success(golden_scenario, backend, config)
        assert result.outcome is Outcome.EXHAUSTED
        assert len(result.records) == 3
        assert all(r.error and "FormatError" in r.error for r in result.records)

    @pytest.mark.parametrize("answer", ["wrench", "5 kg"])
    def test_rejected_parameter_rounds_recorded_until_exhaustion(self, all_scenarios,
                                                                 answer):
        """An answer outside the slot's vocabulary or type binds nothing:
        each round is a rejected record, and the skills' grounding memos
        gain no entry for the answer."""
        scenario = scenario_by_id(all_scenarios, "param_sand_tool")
        backend = ScriptedBackend({
            f"{scenario.id}/goal": ["ANSWER: in(sand, bucket)"],
            f"{scenario.id}/parameter": [f"ANSWER: {answer}"],
        })
        memos = [scenario.domain.skill(name)._grounded_memo for name in ("scoop", "dump")]
        plan(GoalSpec((lit("in(sand, bucket)"),)), scenario.domain, scenario.initial)
        sizes = [len(memo) for memo in memos]
        config = ResolveConfig(max_resolution_rounds=3)
        result = resolve_until_success(scenario, backend, config)
        assert result.outcome is Outcome.EXHAUSTED
        assert len(result.records) == 3
        for record in result.records:
            assert (record.kind, record.rejected, record.inserted) == ("parameter", True, ())
            assert "FormatError" in record.error
        assert all(not n.action.is_bound("tool") for n in action_leaves(result.tree))
        assert [len(memo) for memo in memos] == sizes

    def test_backend_unavailable_propagates(self, golden_scenario):
        class DeadBackend:
            def complete(self, prompt, meta):
                raise BackendUnavailable("no backend")

        with pytest.raises(BackendUnavailable):
            resolve_until_success(golden_scenario, DeadBackend())

    def test_no_fault_scenario_needs_zero_rounds(self, all_scenarios):
        scenario = scenario_by_id(all_scenarios, "param_pillow_speed")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        assert result.outcome is Outcome.SUCCESS
        precondition_rounds = [r for r in result.records
                               if r.kind == "precondition"]
        assert precondition_rounds == []

    def test_round_monotonicity_node_counts(self, all_scenarios):
        scenario = scenario_by_id(all_scenarios, "precond_02_two_blockers")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        assert result.outcome is Outcome.SUCCESS
        assert len(result.records) == 2
        fingerprints = [(r.tree_before, r.tree_after) for r in result.records]
        assert all(before != after for before, after in fingerprints)

    def test_bounded_backend_calls(self, all_scenarios):
        for sid in ("cube_stack_golden", "precond_02_two_blockers",
                    "param_egg_hammer_force"):
            scenario = scenario_by_id(all_scenarios, sid)
            backend = CountingBackend(scenario.oracle_backend())
            result = resolve_until_success(scenario, backend)
            assert result.outcome is Outcome.SUCCESS
            assert backend.calls == len(result.records) + 1

    def test_records_jsonl_round_trips(self, golden_scenario):
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        lines = records_to_jsonl(result.records).strip().splitlines()
        assert len(lines) == len(result.records)
        parsed = json.loads(lines[0])
        assert parsed["kind"] == "precondition"
        assert parsed["message"] == "No collision free path found"


class TestParameterResolution:
    def test_sand_tool_propagates_to_all_handlers(self, all_scenarios):
        scenario = scenario_by_id(all_scenarios, "param_sand_tool")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        assert result.outcome is Outcome.SUCCESS
        tool_actions = [n.action for n in action_leaves(result.tree)
                        if n.action.skill in ("scoop", "dump")]
        assert tool_actions and all(a.get("tool") == "shovel"
                                    for a in tool_actions)

    def test_plate_tool_covers_scrub_and_rinse(self, all_scenarios):
        scenario = scenario_by_id(all_scenarios, "param_plate_tool")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        skills = {n.action.skill: n.action.get("tool")
                  for n in action_leaves(result.tree)
                  if n.action.skill in ("scrub", "rinse")}
        assert skills == {"scrub": "sponge", "rinse": "sponge"}

    def test_egg_and_hammer_forces_stay_separate(self, all_scenarios):
        from btpolicy.terms import Quantity
        scenario = scenario_by_id(all_scenarios, "param_egg_hammer_force")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        forces = {n.action.get("obj"): n.action.get("force")
                  for n in action_leaves(result.tree)
                  if n.action.skill == "grasp"}
        assert forces == {"egg": Quantity(5.3, "N"),
                          "hammer": Quantity(37.2, "N")}

    def test_non_open_slots_get_defaults(self, all_scenarios):
        from btpolicy.terms import Quantity
        scenario = scenario_by_id(all_scenarios, "param_egg_hammer_force")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        speeds = {n.action.get("speed") for n in action_leaves(result.tree)
                  if n.action.skill == "put"}
        assert speeds == {Quantity(0.5, "m/s")}

    def test_no_open_requests_after_resolution(self, all_scenarios):
        scenario = scenario_by_id(all_scenarios, "param_sand_tool")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        assert find_param_request(result.tree, scenario.domain,
                                  scenario.open_params) is None

    def test_single_action_tree_single_binding(self, all_scenarios):
        scenario = scenario_by_id(all_scenarios, "param_baby_speed")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        record = next(r for r in result.records if r.kind == "parameter")
        assert len(record.inserted) == 1

    def test_scripted_fixture_values_bind(self, all_scenarios):
        from btpolicy.terms import Quantity
        backend = ScriptedBackend.from_file(
            bundled_data_path("fixtures", "scripted.yaml"))
        scenario = scenario_by_id(all_scenarios, "param_baby_speed")
        result = resolve_until_success(scenario, backend)
        assert result.outcome is Outcome.SUCCESS
        speeds = [n.action.get("speed") for n in action_leaves(result.tree)
                  if n.action.skill == "put_in"]
        assert speeds == [Quantity(0.1, "m/s")]


class TestPermanence:
    def test_final_trees_replay_without_resolution(self, all_scenarios):
        for scenario in all_scenarios:
            result = resolve_until_success(scenario, scenario.oracle_backend())
            assert result.outcome is Outcome.SUCCESS, scenario.id
            replay = execute(result.tree, scenario)
            assert replay.outcome == "success", scenario.id
            assert replay.events == [], scenario.id


def test_node_count_never_decreases_across_rounds(all_scenarios):
    scenario = scenario_by_id(all_scenarios, "precond_02_two_blockers")
    counts = []

    class Watching:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, prompt, meta):
            return self.inner.complete(prompt, meta)

    result = resolve_until_success(scenario, Watching(scenario.oracle_backend()))
    assert result.outcome is Outcome.SUCCESS
    # fingerprints change monotonically; the final tree dominates the
    # initial plan in node count and every round only added structure
    from btpolicy.planner import GoalSpec, plan
    initial = plan(result.goals, scenario.domain, scenario.initial)
    assert result.tree.node_count() > initial.node_count()


def test_unknown_object_suggestion_becomes_locate_branch(all_scenarios):
    # the "not in the dictionary" fault resolves into a locate action
    # guarding the grasp
    scenario = scenario_by_id(all_scenarios, "precond_06_unknown_banana")
    result = resolve_until_success(scenario, scenario.oracle_backend())
    assert result.outcome is Outcome.SUCCESS
    heads = {str(n.payload) for n in condition_heads(result.tree)}
    assert "PositionKnown(Banana)" in heads
    actions = {str(n.payload) for n in action_leaves(result.tree)}
    assert "Locate(obj=Banana)" in actions


def test_resolution_reasoning_lands_in_audit_log(golden_scenario):
    backend = ScriptedBackend.from_file(
        bundled_data_path("fixtures", "scripted.yaml"))
    result = resolve_until_success(golden_scenario, backend)
    assert result.outcome is Outcome.SUCCESS
    record = result.records[0]
    assert record.exchange.reasoning is not None
    assert "collision" in record.exchange.reasoning
    logged = json.loads(records_to_jsonl(result.records).splitlines()[0])
    assert "collision" in logged["reasoning"]


def blocked_tray_scenario(tmp_path):
    """A household scenario whose repair adds actions with open slots, after
    defaults were already bound."""
    domain_path = bundled_data_path("domains", "household.yaml")
    scenario_path = tmp_path / "blocked_tray.yaml"
    scenario_path.write_text(f"""\
schema: scenario/v1
id: blocked_tray
domain: {domain_path}
instruction: "Bring the egg to the tray"
objects: [egg, hammer, tray, table]
initial:
  visible:
    - "on(egg, table)"
    - "on(hammer, tray)"
  hidden: []
open_params: [force]
fault_rules:
  - id: tray_occupied
    skill: put
    where: {{dst: tray}}
    guard: ["on(any_object, @dst)"]
    message: "No collision free path found"
oracle:
  goals: "on(egg, tray)"
  preconditions:
    tray_occupied: "~on(any_object, @dst)"
  params:
    - {{slot: force, object: egg, value: "5.3 N"}}
    - {{slot: force, object: hammer, value: "37.2 N"}}
expected:
  outcome: success
""")
    return load_scenario(scenario_path)


def test_repair_introduced_actions_also_get_parameters(tmp_path):
    # a blocked destination forces a repair whose new actions carry the
    # open force slot; the pipeline must resolve those too
    scenario = blocked_tray_scenario(tmp_path)
    result = resolve_until_success(scenario, scenario.oracle_backend())
    assert result.outcome is Outcome.SUCCESS
    forces = {n.action.get("obj"): n.action.get("force")
              for n in action_leaves(result.tree)
              if n.action.skill == "grasp"}
    # the hammer grasp only exists because of the repair, yet it is bound
    assert forces == {"egg": Quantity(5.3, "N"),
                      "hammer": Quantity(37.2, "N")}
    replay = execute(result.tree, scenario)
    assert replay.outcome == "success"


class TestFingerprint:
    def golden_tree(self):
        return bt.parse(bundled_data_path("goldens", "cube_stack_after.json").read_text())

    def test_survives_serialize_parse_round_trip(self):
        tree = self.golden_tree()
        assert tree_fingerprint(bt.parse(bt.serialize(tree))) == tree_fingerprint(tree)

    def test_changes_on_sibling_reorder(self):
        tree = self.golden_tree()
        before = tree_fingerprint(tree)
        children = next(n.children for n, _ in iter_preorder(tree.root)
                        if len(n.children) > 1)
        tree.move_left(children[1].id)
        assert tree_fingerprint(tree) != before

    def test_changes_on_payload_rebinding(self):
        tree = self.golden_tree()
        before = tree_fingerprint(tree)
        leaf = action_leaves(tree)[0]
        tree.rebind(leaf.id, leaf.action.with_slot("speed", Quantity(0.1, "m/s")))
        assert tree_fingerprint(tree) != before


def test_resolver_runs_only_trees_that_pass_the_gate(monkeypatch, all_scenarios):
    """The resolver runs its trees without the domain gate; every tree it
    hands to the ungated run would have passed it, and it never gates."""
    gate = sim.check_tree_domain
    gated: list[str] = []
    monkeypatch.setattr(sim, "check_tree_domain",
                        lambda tree, domain: gated.append(domain.name))
    for scenario in all_scenarios:
        runs = 0

        def spy(tree, scenario_, *args, **kwargs):
            nonlocal runs
            runs += 1
            gate(tree, scenario_.domain)  # raises DomainMismatch on a bad leaf
            return sim.run_trusted(tree, scenario_, *args, **kwargs)

        monkeypatch.setattr(resolver, "run_trusted", spy)
        result = resolve_until_success(scenario, scenario.oracle_backend())
        assert result.outcome.value == scenario.expected_outcome, scenario.id
        assert runs == len(result.traces), scenario.id
    assert len(all_scenarios) == 17
    assert gated == []


# --- one walk per change ------------------------------------------------------

def watched_run(monkeypatch, scenario, backend=None):
    """Resolve a scenario, counting the program's fingerprints, index
    builds and walks of parameter fills, and fingerprinting the tree
    afresh on entry to every resolution step."""
    counts = {"fingerprint": 0, "build": 0, "param_walk": 0}
    on_entry: list[str] = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def fresh_on_entry(fn):
        def wrapped(tree, *args, **kwargs):
            on_entry.append(tree_fingerprint(tree))
            return fn(tree, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(resolver, "tree_fingerprint",
                        counting("fingerprint", tree_fingerprint))
    monkeypatch.setattr(bt.BehaviorTree, "_build",
                        counting("build", bt.BehaviorTree._build))
    monkeypatch.setattr(resolver, "iter_preorder",
                        counting("param_walk", resolver.iter_preorder))
    monkeypatch.setattr(resolver, "resolve", fresh_on_entry(resolver.resolve))
    monkeypatch.setattr(resolver, "resolve_parameter",
                        fresh_on_entry(resolver.resolve_parameter))
    result = resolve_until_success(scenario, backend or scenario.oracle_backend())
    monkeypatch.undo()
    return result, counts, on_entry


def test_fingerprints_and_index_once_per_change(monkeypatch, all_scenarios,
                                                seed7_towers, tmp_path):
    """Each record's tree_before is the tree as the step found it; a step
    that applies its answer fingerprints on entry and on exit, a step whose
    suggestions were all duplicates once; one index build per request."""
    for scenario in all_scenarios + seed7_towers + [blocked_tray_scenario(tmp_path)]:
        result, counts, on_entry = watched_run(monkeypatch, scenario)
        assert result.outcome is Outcome.SUCCESS, scenario.id
        assert result.records, scenario.id
        assert [r.tree_before for r in result.records] == on_entry, scenario.id
        assert counts["fingerprint"] == \
            sum(1 if r.rejected else 2 for r in result.records), scenario.id
        assert counts["build"] <= 1, scenario.id
        # cube_tabletop and lab_bench skills take objects only: no walk
        value_slots = any(slot.kind != "object" for skill in scenario.domain.skills.values()
                          for slot in skill.params)
        assert (counts["param_walk"] > 0) == value_slots, scenario.id


def test_rejected_rounds_fingerprint_once(monkeypatch, golden_scenario):
    backend = ScriptedBackend({
        f"{golden_scenario.id}/goal": ["ANSWER: on(blue_cube, green_cube)"],
        f"{golden_scenario.id}/failure": ["ANSWER: ~grasped(any_object)"],
    })
    result, counts, on_entry = watched_run(monkeypatch, golden_scenario, backend)
    assert result.outcome is Outcome.EXHAUSTED
    assert [r.tree_before for r in result.records] == on_entry
    assert all(r.tree_after == r.tree_before for r in result.records)
    assert all(r.rejected and r.exchange is not None for r in result.records)
    assert counts["fingerprint"] == len(result.records) == 8


def plan_opening_a_slot(goals, domain, state, config=None, *, tree=None):
    """``plan``, and when it grows a given tree (``param_sand_tool``'s
    consolidation), a second ``scoop`` after the first, its ``tool`` open."""
    planned = plan(goals, domain, state, config, tree=tree)
    if tree is not None:
        leaf = next(n for n in action_leaves(tree) if n.action.skill == "scoop")
        extra = tree.new_action(GroundAction.from_mapping("scoop", {"material": "sand"}))
        tree.replace(leaf.id, tree.new_node(NodeKind.SEQUENCE, children=[leaf, extra]))
    return planned


def test_consolidation_edit_refreshes_the_fingerprint(monkeypatch, all_scenarios):
    """No bundled run opens a slot in its consolidation plan, so one is
    opened here: the parameter record after it fingerprints the tree afresh."""
    scenario = scenario_by_id(all_scenarios, "param_sand_tool")  # binds no default
    monkeypatch.setattr(resolver, "plan", plan_opening_a_slot)
    result, counts, on_entry = watched_run(monkeypatch, scenario)
    assert [r.kind for r in result.records] == ["parameter"] * 2
    assert [r.tree_before for r in result.records] == on_entry
    assert result.records[1].tree_before != result.records[0].tree_after


# --- one round budget --------------------------------------------------------

def test_one_budget_covers_both_kinds_of_round(tmp_path):
    """``blocked_tray`` takes a parameter, a precondition and a parameter
    round: every budget short of three stops with exactly that many of its
    records, and three is enough."""
    scenario = blocked_tray_scenario(tmp_path)
    full = resolve_until_success(scenario, scenario.oracle_backend())
    assert full.outcome is Outcome.SUCCESS
    assert [r.kind for r in full.records] == ["parameter", "precondition", "parameter"]
    lines = records_to_jsonl(full.records).splitlines(keepends=True)
    for budget in range(3):
        result = resolve_until_success(scenario, scenario.oracle_backend(),
                                       ResolveConfig(max_resolution_rounds=budget))
        assert result.outcome is Outcome.EXHAUSTED, budget
        assert records_to_jsonl(result.records) == "".join(lines[:budget]), budget
    result = resolve_until_success(scenario, scenario.oracle_backend(),
                                   ResolveConfig(max_resolution_rounds=3))
    assert result.outcome is Outcome.SUCCESS
    assert records_to_jsonl(result.records) == "".join(lines)


def test_the_budget_covers_the_consolidation_fill(monkeypatch, all_scenarios):
    """A slot that consolidation opens takes a round of the same budget."""
    scenario = scenario_by_id(all_scenarios, "param_sand_tool")
    monkeypatch.setattr(resolver, "plan", plan_opening_a_slot)
    result = resolve_until_success(scenario, scenario.oracle_backend(),
                                   ResolveConfig(max_resolution_rounds=1))
    assert result.outcome is Outcome.EXHAUSTED
    assert [r.kind for r in result.records] == ["parameter"]
    assert len(result.traces) == 1
    result = resolve_until_success(scenario, scenario.oracle_backend(),
                                   ResolveConfig(max_resolution_rounds=2))
    assert result.outcome is Outcome.SUCCESS
    assert [r.kind for r in result.records] == ["parameter"] * 2


def test_rounds_are_numbered_from_one_without_gaps(all_scenarios, seed7_towers):
    for scenario in all_scenarios + seed7_towers:
        records = resolve_until_success(scenario, scenario.oracle_backend()).records
        assert [r.round for r in records] == list(range(1, len(records) + 1)), scenario.id


# --- the per-run answer cache -------------------------------------------------

BLOCKED = "No collision free path found"


LIFT_DOMAINS = {name: load_domain(bundled_data_path("domains", f"{name}.yaml"))
                for name in ("cube_tabletop", "household")}


@st.composite
def answers_at_actions(draw, domain):
    """A ground action of some skill and literals over its slot values,
    other objects and ``any_object``, as a backend answer would be."""
    skill = domain.skills[draw(st.sampled_from(sorted(domain.skills)))]
    names = sorted(domain.objects)
    binding = {slot.name: draw(st.sampled_from(names)) for slot in skill.object_slots}
    binding.update((slot.name, slot.default) for slot in skill.params
                   if slot.kind != "object" and slot.default is not None)
    action = GroundAction.from_mapping(skill.name, binding)
    symbols = st.sampled_from(names + [ANY_OBJECT])
    literals = []
    for _ in range(draw(st.integers(1, 3))):
        predicate = domain.predicates[draw(st.sampled_from(sorted(domain.predicates)))]
        args = tuple(draw(symbols) for _ in range(predicate.arity))
        literals.append(Literal(predicate.name, args, draw(st.booleans())))
    return action, literals


@pytest.mark.parametrize("domain_name", sorted(LIFT_DOMAINS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lifted_answer_grounds_back_at_its_action(domain_name, data):
    domain = LIFT_DOMAINS[domain_name]
    action, literals = data.draw(answers_at_actions(domain))
    lifted = lift(literals, action, domain)
    assert ground(lifted, action) == literals
    bound = {action.get(slot.name) for slot in domain.skill(action.skill).object_slots}
    for original, general in zip(literals, lifted):
        assert (general.predicate, general.negated) == (original.predicate, original.negated)
        for arg, lifted_arg in zip(original.args, general.args):
            if arg in bound:
                assert lifted_arg.startswith("$") and action.get(lifted_arg[1:]) == arg
            else:  # any_object and objects the action does not bind
                assert lifted_arg == arg


def stacked_blockers_scenario(tmp_path):
    """Blue under red under yellow: grasping blue, then red, fails with the
    same message, a failure of the same kind twice."""
    scenario_path = tmp_path / "stacked_blockers.yaml"
    scenario_path.write_text(f"""\
schema: scenario/v1
id: stacked_blockers
domain: {bundled_data_path("domains", "cube_tabletop.yaml")}
instruction: "Put the blue cube on the green cube"
objects: [blue_cube, green_cube, red_cube, yellow_cube, table]
initial:
  visible:
    - "on(yellow_cube, red_cube)"
    - "on(red_cube, blue_cube)"
    - "on(blue_cube, table)"
    - "on(green_cube, table)"
  hidden: []
fault_rules:
  - id: blocked_grasp
    skill: grasp
    phase: planning
    guard: ["on(any_object, @obj)"]
    message: "{BLOCKED}"
oracle:
  goals: "on(blue_cube, green_cube)"
  preconditions:
    blocked_grasp: "~on(any_object, @obj)"
expected:
  outcome: success
""")
    return load_scenario(scenario_path)


class TestAnswerCache:
    def test_same_kind_of_failure_reuses_the_answer(self, tmp_path):
        scenario = stacked_blockers_scenario(tmp_path)
        backend = CountingBackend(scenario.oracle_backend())
        result = resolve_until_success(scenario, backend)
        assert result.outcome is Outcome.SUCCESS
        first, second = result.records
        assert [str(x) for x in second.inserted] == ["~on(any_object, red_cube)"]
        assert (second.reused_from, second.exchange) == (first.round, None)
        assert first.reused_from is None and first.exchange is not None
        assert backend.calls == 2  # the goal and the first failure
        logged = [json.loads(line) for line in records_to_jsonl(result.records).splitlines()]
        assert "reused_from" not in logged[0]
        assert logged[1]["reused_from"] == 1 and "reasoning" not in logged[1]
        assert execute(result.tree, scenario).outcome == "success"

    def test_no_answer_outlives_its_run(self, tmp_path):
        scenario = stacked_blockers_scenario(tmp_path)
        backend = CountingBackend(scenario.oracle_backend())
        for _ in range(2):
            before = backend.calls
            result = resolve_until_success(scenario, backend)
            assert backend.calls - before == 2
            assert result.records[0].reused_from is None

    def test_cached_answer_already_guarding_asks_the_backend(self, tmp_path):
        """The first answer holds and changes nothing, so the same action
        fails again: the cached answer already guards it, the backend is
        asked once more, and its answer replaces the cached one."""
        scenario = stacked_blockers_scenario(tmp_path)
        backend = CountingBackend(ScriptedBackend({
            f"{scenario.id}/goal": ["ANSWER: on(blue_cube, green_cube)"],
            f"{scenario.id}/failure": ["ANSWER: on(blue_cube, table)",
                                       "ANSWER: ~on(any_object, blue_cube)"]}))
        result = resolve_until_success(scenario, backend)
        assert result.outcome is Outcome.SUCCESS
        assert [(str(r.event.action), [str(x) for x in r.inserted], r.reused_from)
                for r in result.records] == [
            ("grasp(obj=blue_cube)", ["on(blue_cube, table)"], None),
            ("grasp(obj=blue_cube)", ["~on(any_object, blue_cube)"], None),
            ("grasp(obj=red_cube)", ["~on(any_object, red_cube)"], 2),
        ]
        assert backend.calls == 3  # the goal and one call for each of the first two rounds
        assert all(not r.rejected for r in result.records)

    def test_answer_for_a_cube_destination_is_not_reused_for_the_table(self, golden_scenario):
        """``place(x, cube)`` and ``place(x, table)`` fail with one message
        but bind a ``dst`` of another category: two kinds of failure."""
        domain = golden_scenario.domain
        result = resolve_until_success(golden_scenario, golden_scenario.oracle_backend())
        tree = result.tree
        places = {str(n.action): n for n in action_leaves(tree) if n.action.skill == "place"}
        to_cube = places["place(dst=green_cube, obj=blue_cube)"]
        to_table = places["place(dst=table, obj=red_cube)"]
        backend = CountingBackend(ScriptedBackend({
            f"{golden_scenario.id}/failure": ["ANSWER: ~on(any_object, green_cube)",
                                              "ANSWER: on(green_cube, table)"]}))
        world = golden_scenario.initial.visible_only()
        answers: dict = {}
        records = []
        for round_index, leaf in enumerate((to_cube, to_table), 1):
            event = FailureEvent("planning", leaf.id, leaf.action, BLOCKED, world, "")
            tree, record = resolve(tree, event, domain, backend, goals=result.goals,
                                   key=golden_scenario.id, round_index=round_index,
                                   answers=answers)
            records.append(record)
        assert backend.calls == 2
        assert [r.reused_from for r in records] == [None, None]
        assert [[str(x) for x in r.inserted] for r in records] == [
            ["~on(any_object, green_cube)"], ["on(green_cube, table)"]]
        heads = {str(n.payload) for n in condition_heads(tree)}
        assert "~on(any_object, table)" not in heads

    def test_blocked_tray_tree_is_unchanged(self, tmp_path):
        """No leaf that did not fail gains a guard: ``put(hammer, table)``
        stays unguarded, where lifting ``tray`` to every ``surface`` would
        ask for a clear table. The fingerprint is the tree resolved before
        answers were cached."""
        scenario = blocked_tray_scenario(tmp_path)
        result = resolve_until_success(scenario, scenario.oracle_backend())
        assert result.outcome is Outcome.SUCCESS
        assert tree_fingerprint(result.tree) == "db31bfeddbd4"
        heads = {str(n.payload) for n in condition_heads(result.tree)}
        assert "~on(any_object, table)" not in heads

    def test_every_reused_round_grounds_an_earlier_answer(self, seed7_towers):
        reused_rounds = 0
        for scenario in seed7_towers:
            backend = CountingBackend(scenario.oracle_backend())
            result = resolve_until_success(scenario, backend)
            assert result.outcome is Outcome.SUCCESS, scenario.id
            by_round = {r.round: r for r in result.records}
            reused = [r for r in result.records if r.reused_from is not None]
            for record in reused:
                source = by_round[record.reused_from]
                assert record.exchange is None and not record.rejected, scenario.id
                assert source.reused_from is None and source.exchange is not None
                assert source.round < record.round, scenario.id
                assert (source.event.action.skill, source.event.error_message) == \
                    (record.event.action.skill, record.event.error_message), scenario.id
            assert backend.calls == 1 + len(result.records) - len(reused), scenario.id
            reused_rounds += len(reused)
        assert reused_rounds
