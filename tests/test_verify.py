import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpolicy import bt, verify
from btpolicy.bt import BehaviorTree, NodeKind, TreeNode, iter_preorder
from btpolicy.domain import load_domain, make_state, parse_domain
from btpolicy.errors import DomainMismatch
from btpolicy.grammar import parse_literal
from btpolicy.planner import GoalSpec, PlanConfig, plan
from btpolicy.resolver import resolve_until_success
from btpolicy.sim import bundled_data_path, check_tree_domain
from btpolicy.terms import GroundAction, Literal, Quantity
from btpolicy.verify import CHECKS, LIVELOCK_OBJECT_LIMIT, reachable_states, verify_tree

from oracles import (pairwise_duplicate_violations, reference_bounded_livelock,
                     reference_reachable_states, reference_run_to_terminal,
                     reference_verify_tree)


def lit(text):
    return parse_literal(text)


def goal(*texts):
    return GoalSpec(tuple(lit(t) for t in texts))


def flipflop_domain():
    """Two skills that undo each other, so ticking can livelock."""
    return parse_domain({
        "schema": "domain/v1", "name": "flipflop",
        "predicates": [{"name": "up", "arity": 1},
                       {"name": "goal_met", "arity": 0}],
        "objects": [{"name": "flag", "category": "thing"}],
        "skills": [
            {"name": "raise_flag", "params": [], "effects": ["up(flag)"]},
            {"name": "lower_flag", "params": [], "effects": ["~up(flag)"]},
        ],
    })


def flipflop_tree():
    """Lower the flag when it is up, raise it when it is down: from every
    state, ticking undoes its last tick."""
    tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    tree.root.children.append(tree.new_node(NodeKind.FALLBACK, children=[
        tree.new_condition(lit("goal_met")),
        tree.new_node(NodeKind.SEQUENCE, children=[
            tree.new_condition(lit("up(flag)")),
            tree.new_action(GroundAction("lower_flag"))]),
        tree.new_node(NodeKind.SEQUENCE, children=[
            tree.new_condition(lit("~up(flag)")),
            tree.new_action(GroundAction("raise_flag"))]),
    ]))
    return tree


class TestChecksOnGoodTrees:
    def test_golden_tree_passes(self, golden_scenario):
        result = resolve_until_success(golden_scenario,
                                       golden_scenario.oracle_backend())
        report = verify_tree(result.tree, golden_scenario.domain,
                             result.goals, initial_state=golden_scenario.initial)
        assert report.passed, report.to_text()

    def test_every_pipeline_tree_passes(self, all_scenarios):
        for scenario in all_scenarios:
            result = resolve_until_success(scenario, scenario.oracle_backend())
            goals = result.goals
            report = verify_tree(result.tree, scenario.domain, goals,
                                 initial_state=scenario.initial)
            assert report.passed, f"{scenario.id}\n{report.to_text()}"


class TestViolations:
    def test_orphaned_goal_detected(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        report = verify_tree(tree, cube_domain, goal("on(blue_cube, green_cube)"))
        assert any(v.check == "goal_coverage" for v in report.violations)

    def test_unknown_skill_detected(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        tree.root.children.append(tree.new_action(GroundAction("levitate")))
        report = verify_tree(tree, cube_domain, goal("grasped(red_cube)"))
        assert any(v.check == "action_bindings" for v in report.violations)

    def test_livelock_check_gates_the_tree(self, cube_domain, blocked_cube_state):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        tree.root.children.append(tree.new_action(GroundAction("levitate")))
        with pytest.raises(DomainMismatch):
            verify_tree(tree, cube_domain, goal("grasped(red_cube)"),
                        initial_state=blocked_cube_state)

    def test_unbound_object_slot_is_a_binding_finding_only(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        tree.root.children.append(tree.new_action(
            GroundAction.from_mapping("place", {"dst": "green_cube"})))
        report = verify_tree(tree, cube_domain, goal("grasped(red_cube)"))
        assert [v.check for v in report.violations] == ["action_bindings"]

    def test_categorical_value_outside_choices_detected(self, household_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_action(GroundAction.from_mapping(
            "scoop", {"material": "sand", "tool": "wrench"})))
        tree.root.children.append(tree.new_condition(lit("scooped(sand)")))
        report = verify_tree(tree, household_domain, goal("scooped(sand)"))
        assert [str(v) for v in report.violations] == [
            "action_bindings (node 1): categorical slot 'tool' carries 'wrench', "
            "not one of shovel, spoon, tongs, gripper"]
        tree.rebind(1, tree.find(1).action.with_slot("tool", "shovel"))
        assert verify_tree(tree, household_domain, goal("scooped(sand)")).passed

    def test_missing_declared_precondition_detected(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("on(blue_cube, green_cube)")))
        tree.root.children.append(tree.new_action(
            GroundAction.from_mapping("place", {"obj": "blue_cube",
                                                "dst": "green_cube"})))
        report = verify_tree(tree, cube_domain, goal("on(blue_cube, green_cube)"))
        assert any(v.check == "precondition_rows" for v in report.violations)

    def test_identical_fallback_children_detected(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        report = verify_tree(tree, cube_domain, goal("grasped(red_cube)"))
        assert any(v.check == "distinct_fallback_children"
                   for v in report.violations)

    def test_livelock_detected_on_mutually_undoing_actions(self):
        domain = flipflop_domain()
        state = make_state(domain, [])
        report = verify_tree(flipflop_tree(), domain, goal("goal_met"),
                             initial_state=state)
        assert any(v.check == "bounded_livelock" for v in report.violations)

    def test_patched_small_world_policy_passes_every_check(self, cafe_domain,
                                                           all_scenarios):
        """A 4-object world is within LIVELOCK_OBJECT_LIMIT, so the livelock
        check runs too, and the patched policy passes it."""
        scenario = next(s for s in all_scenarios
                        if s.id == "precond_05_locked_cupboard")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        report = verify_tree(result.tree, cafe_domain, result.goals,
                             initial_state=scenario.initial)
        assert report.checks == CHECKS
        assert report.passed

    def test_report_lists_only_the_checks_that_ran(self, all_scenarios):
        """The livelock check runs only from an initial world of at most
        LIVELOCK_OBJECT_LIMIT objects, and only then does the report name it."""
        for scenario_id, with_state, ran in [("cube_stack_golden", False, False),
                                             ("cube_stack_golden", True, True),
                                             ("precond_02_two_blockers", True, False)]:
            scenario = next(s for s in all_scenarios if s.id == scenario_id)
            result = resolve_until_success(scenario, scenario.oracle_backend())
            report = verify_tree(result.tree, scenario.domain, result.goals,
                                 initial_state=scenario.initial if with_state else None)
            assert report.checks == (CHECKS if ran else CHECKS[:-1])
            assert report.to_text().splitlines()[0] == \
                f"checks run: {', '.join(report.checks)}"
            assert ("bounded_livelock" in report.to_text()) is ran

    def test_report_text_lists_violations(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        report = verify_tree(tree, cube_domain, goal("on(blue_cube, green_cube)"))
        text = report.to_text()
        assert "fail" in text and "goal_coverage" in text


class TestConditionLiterals:
    def test_leaves_outside_the_domain_are_findings(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        for text in ("flying(red_cube)", "grasped(red_cube)", "on(ghost, table)",
                     "on(red_cube)", "flying(red_cube)"):
            tree.root.children.append(tree.new_condition(lit(text)))
        report = verify_tree(tree, cube_domain, goal("grasped(red_cube)"))
        found = [(v.check, v.node_id) for v in report.violations]
        assert found == [("condition_literals", 1), ("condition_literals", 3),
                         ("condition_literals", 4), ("condition_literals", 5)]
        assert "unknown predicate 'flying'" in report.violations[0].message
        assert "condition_literals" in report.to_text()

    def test_findings_come_in_check_order(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("flying(red_cube)")))
        tree.root.children.append(tree.new_action(GroundAction("levitate")))
        report = verify_tree(tree, cube_domain, goal("grasped(red_cube)"))
        assert [v.check for v in report.violations] == \
            ["action_bindings", "condition_literals", "goal_coverage"]


# --- duplicate Fallback children by structural key ------------------------------

_LEAVES = [
    (NodeKind.CONDITION, lit("p")),
    (NodeKind.CONDITION, lit("~on(a, b)")),
    (NodeKind.ACTION, GroundAction("p")),
    # distinct values, equal str: tree_equal (and so the check) calls them equal
    (NodeKind.ACTION, GroundAction.from_mapping("push", {"force": Quantity(5.0, "N")})),
    (NodeKind.ACTION, GroundAction.from_mapping("push", {"force": "5.0 N"})),
]


@st.composite
def shapes(draw, depth=0):
    """A nested shape: a leaf index, or (kind, children). Children are drawn
    from a small pool, so equal siblings (three or more too) are common."""
    if depth and (depth >= 4 or draw(st.integers(0, 2)) == 0):
        return draw(st.integers(0, len(_LEAVES) - 1))
    pool = draw(st.lists(shapes(depth + 1), min_size=1, max_size=3))
    children = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    kind = NodeKind.FALLBACK if depth == 0 else \
        draw(st.sampled_from([NodeKind.FALLBACK, NodeKind.SEQUENCE]))
    return kind, children


def build(shape) -> BehaviorTree:
    tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)

    def node(shape) -> TreeNode:
        if isinstance(shape, int):
            kind, payload = _LEAVES[shape]
            return tree.new_node(kind, payload=payload)
        return tree.new_node(shape[0], children=[node(c) for c in shape[1]])

    tree.root.children = [node(c) for c in shape[1]]
    return tree


def duplicate_findings(tree):
    report = verify_tree(tree, flipflop_domain(), goal("goal_met"))
    return [v for v in report.violations if v.check == "distinct_fallback_children"]


@given(shapes())
@settings(max_examples=200, deadline=None)
def test_keyed_duplicate_check_matches_pairwise(shape):
    tree = build(shape)
    assert duplicate_findings(tree) == pairwise_duplicate_violations(tree)


def test_keyed_duplicate_check_on_deep_and_repeated_duplicates():
    deep = (NodeKind.SEQUENCE, [(NodeKind.FALLBACK, [(NodeKind.SEQUENCE, [0, 3]),
                                                     (NodeKind.SEQUENCE, [0, 4]), 1])])
    tree = build((NodeKind.FALLBACK, [deep, 2, deep, 2, deep, 1]))
    found = duplicate_findings(tree)
    assert found == pairwise_duplicate_violations(tree)
    inner = [n for n, _ in iter_preorder(tree.root)
             if n.kind is NodeKind.FALLBACK and n is not tree.root]
    assert [v.node_id for v in found] == [0, 0, 0, *(n.id for n in inner)]


def test_duplicate_check_makes_no_pairwise_comparison(monkeypatch, cube_domain):
    tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)
    for i in range(200):
        tree.root.children.append(tree.new_node(NodeKind.SEQUENCE, children=[
            tree.new_condition(lit(f"on(cube_{i % 150}, table)")),
            tree.new_action(GroundAction.from_mapping("grasp", {"obj": "red_cube"}))]))
    calls = []
    node_equal = bt._node_equal
    monkeypatch.setattr(bt, "_node_equal", lambda *a: calls.append(a) or node_equal(*a))
    report = verify_tree(tree, cube_domain, goal("grasped(red_cube)"))
    assert calls == []
    found = [v for v in report.violations if v.check == "distinct_fallback_children"]
    assert len(found) == 50
    monkeypatch.undo()
    assert found == pairwise_duplicate_violations(tree)


# --- the single pass against the walk per check it replaced ----------------------

_DOMAINS = {name: load_domain(bundled_data_path("domains", f"{name}.yaml"))
            for name in ("cube_tabletop", "household")}
#: small registries, so that the livelock check runs
_WORLDS = {
    "cube_tabletop": make_state(_DOMAINS["cube_tabletop"],
                                ["on(red_cube, blue_cube)", "on(blue_cube, table)"],
                                objects=["blue_cube", "red_cube", "table"]),
    "household": make_state(_DOMAINS["household"], ["on(plate, table)"],
                            objects=["sand", "bucket", "plate", "table"]),
}
_NAMES = {name: [o.name for o in state.objects] for name, state in _WORLDS.items()}


@st.composite
def literals(draw, name, defects=True):
    """A literal over the small world's objects, or one that does not fit
    the domain: unknown predicate, wrong arity, unknown object, an unbound
    ``$slot``; the wildcard fits."""
    domain = _DOMAINS[name]
    predicate = draw(st.sampled_from(sorted(domain.predicates)))
    args = [draw(st.sampled_from(_NAMES[name]))
            for _ in range(domain.predicates[predicate].arity)]
    defect = draw(st.sampled_from(["none"] * 6 + ["predicate", "arity", "object",
                                                  "slot", "wildcard"])) \
        if defects else "none"
    if defect == "predicate":
        predicate = "levitating"
    elif defect == "arity":
        args.append("table")
    elif args and defect in ("object", "slot", "wildcard"):
        args[-1] = {"object": "ghost", "slot": "$obj", "wildcard": "any_object"}[defect]
    return Literal(predicate, tuple(args), draw(st.booleans()))


@st.composite
def actions(draw, name):
    """An action, often well bound; else with an unknown skill, an
    undeclared slot, or a slot unbound or bound to an unknown, inadmissible
    or ill-typed value."""
    domain = _DOMAINS[name]
    skill_name = draw(st.sampled_from(sorted(domain.skills) + ["levitate"]))
    skill = domain.skills.get(skill_name)
    binding: dict = {}
    for slot in skill.params if skill else ():
        defect = draw(st.sampled_from(["none"] * 5 + ["unbound", "unknown", "odd"]))
        if defect == "unbound":
            continue
        if slot.kind == "object":
            admissible = [n for n in _NAMES[name]
                          if domain.objects[n].category in domain.categories_of(slot.category)]
            if defect == "unknown":
                binding[slot.name] = "ghost"
            elif defect == "odd" or not admissible:   # inadmissible, or a number
                binding[slot.name] = draw(st.sampled_from(
                    [n for n in _NAMES[name] if n not in admissible] + [Quantity(1.0, "N")]))
            else:
                binding[slot.name] = draw(st.sampled_from(admissible))
        elif slot.kind == "numeric":
            binding[slot.name] = {"none": Quantity(2.0, slot.unit), "unknown": "fast",
                                  "odd": Quantity(2.0, "kg")}[defect]
        else:
            binding[slot.name] = {"none": draw(st.sampled_from(slot.choices)),
                                  "unknown": "wrench", "odd": Quantity(1.0, "N")}[defect]
    if draw(st.integers(0, 9)) == 0:
        binding["ghost_slot"] = "table"
    return GroundAction.from_mapping(skill_name, binding)


@st.composite
def subtrees(draw, name, depth=0):
    """A nested shape: ("condition", lit) | ("action", action) |
    (kind, [children]). Guarded actions sit last in a Sequence after their
    declared preconditions, some dropped or wrapped in a Fallback; bare
    actions may sit under a Fallback or at the root; Fallback children are
    drawn from a small pool, so equal siblings are common."""
    choice = draw(st.integers(0, 5)) if depth < 3 else 0
    if choice == 0:
        return ("condition", draw(literals(name)))
    if choice == 1:
        return ("action", draw(actions(name)))
    if choice == 2:
        action = draw(actions(name))
        skill = _DOMAINS[name].skills.get(action.skill)
        heads = list(_DOMAINS[name].ground_preconditions(action)) if skill else []
        if heads and draw(st.booleans()):
            del heads[draw(st.integers(0, len(heads) - 1))]
        rows = [(NodeKind.FALLBACK, [("condition", lit), draw(subtrees(name, depth + 1))])
                if draw(st.booleans()) else ("condition", lit) for lit in heads]
        return (NodeKind.SEQUENCE, [*rows, ("action", action)])
    pool = draw(st.lists(subtrees(name, depth + 1), min_size=1, max_size=3))
    children = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return (NodeKind.FALLBACK if choice < 5 else NodeKind.SEQUENCE, children)


def tree_of(shape) -> BehaviorTree:
    tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=0)

    def node(shape) -> TreeNode:
        kind, body = shape
        if kind == "condition":
            return tree.new_condition(body)
        if kind == "action":
            return tree.new_action(body)
        return tree.new_node(kind, children=[node(child) for child in body])

    tree.root = node(shape)
    return tree


@given(st.sampled_from(sorted(_DOMAINS)), st.data())
@settings(max_examples=300, deadline=None)
def test_single_pass_matches_a_walk_per_check(name, data):
    """Reports equal the reference's, with and without the livelock check;
    with it, verify raises exactly the DomainMismatch the gate raises."""
    domain, world = _DOMAINS[name], _WORLDS[name]
    tree = tree_of(data.draw(subtrees(name)))
    goals = GoalSpec(tuple(data.draw(st.lists(literals(name, defects=False),
                                              min_size=1, max_size=2))))
    report = verify_tree(tree, domain, goals)
    expected = reference_verify_tree(tree, domain, goals)
    assert report.to_text() == expected.to_text()
    assert report.violations == expected.violations
    try:
        check_tree_domain(tree, domain)
    except DomainMismatch as gate:
        with pytest.raises(DomainMismatch) as err:
            verify_tree(tree, domain, goals, initial_state=world)
        assert str(err.value) == str(gate)
        assert type(err.value.__cause__) is type(gate.__cause__)
    else:
        assert verify_tree(tree, domain, goals, initial_state=world).to_text() == \
            reference_verify_tree(tree, domain, goals, initial_state=world).to_text()


def test_verify_makes_no_index_lookups(monkeypatch, all_scenarios):
    """On a freshly parsed tree, verification finds each action's Sequence
    from its own walk: it never asks the tree's index, so never builds it."""
    scenario = next(s for s in all_scenarios if s.id == "cube_stack_golden")
    result = resolve_until_success(scenario, scenario.oracle_backend())
    tree = bt.parse(bt.serialize(result.tree))
    lookups = []
    monkeypatch.setattr(BehaviorTree, "_build",
                        lambda self: lookups.append("_build"))
    monkeypatch.setattr(BehaviorTree, "parent_of",
                        lambda self, node_id: lookups.append("parent_of"))
    monkeypatch.setattr(BehaviorTree, "find", lambda self, node_id: lookups.append("find"))
    report = verify_tree(tree, scenario.domain, result.goals,
                         initial_state=scenario.initial)
    assert report.passed, report.to_text()
    assert any(n.kind is NodeKind.ACTION for n, _ in iter_preorder(tree.root))
    assert lookups == []


# --- reachability search --------------------------------------------------------

def test_reachable_states_match_per_state_enumeration(monkeypatch, all_scenarios):
    cases = [(s.domain, s.initial) for s in all_scenarios
             if len(s.initial.objects) <= LIVELOCK_OBJECT_LIMIT]
    domain = flipflop_domain()
    cases.append((domain, make_state(domain, [])))
    assert len(cases) == 16
    enumerations = []
    ground_all = verify._all_ground_actions
    monkeypatch.setattr(verify, "_all_ground_actions",
                        lambda *a: enumerations.append(a) or ground_all(*a))
    for domain, initial in cases:
        enumerations.clear()
        assert reachable_states(domain, initial) == \
            reference_reachable_states(domain, initial)
        assert len(enumerations) == 1


def test_reachable_states_stop_at_the_limit(golden_scenario):
    domain, initial = golden_scenario.domain, golden_scenario.initial
    every = reference_reachable_states(domain, initial)
    for limit in (1, 2, 7, len(every) - 1, len(every), len(every) + 1):
        assert reachable_states(domain, initial, limit) == every[:limit]


def test_truncated_livelock_search_is_a_finding(monkeypatch, golden_scenario):
    result = resolve_until_success(golden_scenario, golden_scenario.oracle_backend())
    count = len(reachable_states(golden_scenario.domain, golden_scenario.initial))

    def livelock_findings(limit):
        monkeypatch.setattr(verify, "REACHABLE_STATE_LIMIT", limit)
        report = verify_tree(result.tree, golden_scenario.domain, result.goals,
                             initial_state=golden_scenario.initial)
        return [v.message for v in report.violations if v.check == "bounded_livelock"]

    assert livelock_findings(count) == []
    assert livelock_findings(count - 1) == [
        f"more than {count - 1} states are reachable; ticking was checked "
        f"from the first {count - 1} only"]


# --- the livelock check against a walk from every state --------------------------

def findings_of(check, tree, domain, initial):
    found = []
    check(tree, domain, initial, found)
    return found


@pytest.fixture(scope="module")
def livelock_cases(all_scenarios):
    """(name, tree, domain, initial): the planned and the patched tree of
    each bundled scenario small enough for the livelock check, and the
    flip-flop livelock."""
    cases = []
    for scenario in all_scenarios:
        if len(scenario.initial.objects) > LIVELOCK_OBJECT_LIMIT:
            continue
        result = resolve_until_success(scenario, scenario.oracle_backend())
        planned = plan(result.goals, scenario.domain, scenario.initial, PlanConfig())
        for tree in (planned, result.tree):
            cases.append((scenario.id, tree, scenario.domain, scenario.initial))
    domain = flipflop_domain()
    cases.append(("flipflop", flipflop_tree(), domain, make_state(domain, [])))
    return cases


def test_livelock_check_matches_a_walk_from_every_state(livelock_cases):
    assert len(livelock_cases) == 2 * 15 + 1
    for name, tree, domain, initial in livelock_cases:
        assert findings_of(verify._check_bounded_livelock, tree, domain, initial) == \
            findings_of(reference_bounded_livelock, tree, domain, initial), name
    assert findings_of(verify._check_bounded_livelock, *livelock_cases[-1][1:])


@pytest.mark.parametrize("name", ["cube_stack_golden", "flipflop"])
def test_livelock_check_at_every_tick_limit(monkeypatch, livelock_cases, name):
    """From a limit of one tick up to one past the longest walk, the
    findings equal the reference's: a walk that ends at a known state
    counts its ticks to the end, and one that runs out of ticks marks only
    its start."""
    _, tree, domain, initial = [case for case in livelock_cases if case[0] == name][-1]
    longest = max(len(reference_run_to_terminal(tree, domain, state)[1])
                  for state in reference_reachable_states(domain, initial))
    by_limit = []
    for limit in range(1, longest + 2):
        monkeypatch.setattr(verify, "LIVELOCK_TICK_LIMIT", limit)
        found = findings_of(verify._check_bounded_livelock, tree, domain, initial)
        assert found == findings_of(reference_bounded_livelock, tree, domain, initial)
        by_limit.append(len(found))
    assert by_limit[0] > 0
    if name == "cube_stack_golden":
        assert longest > 2 and by_limit[-2] == by_limit[-1] == 0


def test_livelock_check_ticks_each_state_once(monkeypatch, livelock_cases):
    """Each state is ticked once, however many walks pass through it; a
    walk from every state ticks 113 times on the golden policy."""
    _, tree, domain, initial = [case for case in livelock_cases
                                if case[0] == "cube_stack_golden"][-1]
    walks = [reference_run_to_terminal(tree, domain, state)[1]
             for state in reference_reachable_states(domain, initial)]
    visited = set().union(*walks)
    ticks = []
    real_tick = verify.tick
    monkeypatch.setattr(verify, "tick",
                        lambda *args, **kwargs: ticks.append(1) or real_tick(*args, **kwargs))
    assert findings_of(verify._check_bounded_livelock, tree, domain, initial) == []
    assert len(ticks) <= len(visited) == 54
    assert sum(map(len, walks)) == 113
