import pytest

from btpolicy.bt import BehaviorTree, NodeKind, TreeNode
from btpolicy.domain import make_state, parse_domain
from btpolicy.errors import DomainMismatch
from btpolicy.grammar import parse_literal
from btpolicy.planner import GoalSpec
from btpolicy.resolver import resolve_until_success
from btpolicy.terms import GroundAction
from btpolicy.verify import verify_tree


def lit(text):
    return parse_literal(text)


def goal(*texts):
    return GoalSpec(tuple(lit(t) for t in texts))


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
        domain = parse_domain({
            "schema": "domain/v1", "name": "flipflop",
            "predicates": [{"name": "up", "arity": 1},
                           {"name": "goal_met", "arity": 0}],
            "objects": [{"name": "flag", "category": "thing"}],
            "skills": [
                {"name": "raise_flag", "params": [], "effects": ["up(flag)"]},
                {"name": "lower_flag", "params": [], "effects": ["~up(flag)"]},
            ],
        })
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        fallback = tree.new_node(NodeKind.FALLBACK, children=[
            tree.new_condition(lit("goal_met")),
            tree.new_node(NodeKind.SEQUENCE, children=[
                tree.new_condition(lit("up(flag)")),
                tree.new_action(GroundAction("lower_flag"))]),
            tree.new_node(NodeKind.SEQUENCE, children=[
                tree.new_condition(lit("~up(flag)")),
                tree.new_action(GroundAction("raise_flag"))]),
        ])
        tree.root.children.append(fallback)
        state = make_state(domain, [])
        report = verify_tree(tree, domain, goal("goal_met"),
                             initial_state=state)
        assert any(v.check == "bounded_livelock" for v in report.violations)

    def test_large_domains_skip_state_enumeration(self, cafe_domain, all_scenarios):
        scenario = next(s for s in all_scenarios
                        if s.id == "precond_05_locked_cupboard")
        result = resolve_until_success(scenario, scenario.oracle_backend())
        report = verify_tree(result.tree, cafe_domain, result.goals,
                             initial_state=scenario.initial)
        assert report.passed

    def test_report_text_lists_violations(self, cube_domain):
        tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
        tree.root.children.append(tree.new_condition(lit("grasped(red_cube)")))
        report = verify_tree(tree, cube_domain, goal("on(blue_cube, green_cube)"))
        text = report.to_text()
        assert "fail" in text and "goal_coverage" in text
