"""Structural policy checks.

These are decidable sanity checks over a finished tree: vocabulary and
binding consistency, goal coverage, precondition rows, duplicate fallback
branches, and (for small domains) a bounded exhaustive check that repeated
ticking from every reachable state terminates in Success or Failure rather
than livelocking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TreeNode,
                 iter_preorder, tick, tree_equal)
from .domain import Domain, WorldState
from .planner import GoalSpec, _groundings, guarding_literals
from .sim import check_tree_domain
from .terms import GroundAction, Quantity

CHECKS = (
    "action_bindings",
    "goal_coverage",
    "precondition_rows",
    "distinct_fallback_children",
    "bounded_livelock",
)

#: bounded_livelock only runs at or below this object-registry size
LIVELOCK_OBJECT_LIMIT = 4


@dataclass
class Violation:
    check: str
    node_id: int | None
    message: str

    def __str__(self) -> str:
        where = f" (node {self.node_id})" if self.node_id is not None else ""
        return f"{self.check}{where}: {self.message}"


@dataclass
class VerificationReport:
    checks: tuple[str, ...]
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"checks run: {', '.join(self.checks)}"]
        if self.passed:
            lines.append("verdict: pass")
        else:
            lines.append(f"verdict: fail ({len(self.violations)} violation(s))")
            lines.extend(f"- {v}" for v in self.violations)
        return "\n".join(lines) + "\n"


def verify_tree(tree: BehaviorTree, domain: Domain, goals: GoalSpec, *,
                initial_state: WorldState | None = None,
                max_sim_ticks: int = 500) -> VerificationReport:
    """Run every check; findings land in the report. Only the livelock
    check ticks the tree, so only then does a tree whose leaves do not fit
    the domain raise DomainMismatch instead."""
    report = VerificationReport(CHECKS)
    _check_action_bindings(tree, domain, report)
    _check_goal_coverage(tree, goals, report)
    _check_precondition_rows(tree, domain, report)
    _check_distinct_fallback_children(tree, report)
    if initial_state is not None and len(initial_state.objects) <= LIVELOCK_OBJECT_LIMIT:
        check_tree_domain(tree, domain)
        _check_bounded_livelock(tree, domain, initial_state, max_sim_ticks, report)
    return report


def _check_action_bindings(tree: BehaviorTree, domain: Domain,
                           report: VerificationReport) -> None:
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.ACTION:
            continue
        action = node.action
        if action.skill not in domain.skills:
            report.violations.append(Violation(
                "action_bindings", node.id, f"unknown skill {action.skill!r}"))
            continue
        skill = domain.skills[action.skill]
        declared = {s.name for s in skill.params}
        for slot_name, value in action.binding:
            if slot_name not in declared:
                report.violations.append(Violation(
                    "action_bindings", node.id,
                    f"{action.skill} has no slot {slot_name!r}"))
        for slot in skill.params:
            value = action.get(slot.name)
            if slot.kind == "object":
                if value is None:
                    report.violations.append(Violation(
                        "action_bindings", node.id,
                        f"object slot {slot.name!r} of {action.skill} is unbound"))
                elif not isinstance(value, str) or value not in domain.objects:
                    report.violations.append(Violation(
                        "action_bindings", node.id,
                        f"slot {slot.name!r} bound to unknown object {value!r}"))
                elif slot.category and domain.objects[value].category \
                        not in domain.categories_of(slot.category):
                    report.violations.append(Violation(
                        "action_bindings", node.id,
                        f"object {value!r} is not admissible for slot {slot.name!r}"))
            elif slot.kind == "numeric" and value is not None:
                if not isinstance(value, Quantity) or value.unit != (slot.unit or ""):
                    report.violations.append(Violation(
                        "action_bindings", node.id,
                        f"numeric slot {slot.name!r} carries {value!r}, "
                        f"expected unit {slot.unit!r}"))
            elif slot.kind == "categorical" and value is not None:
                if not isinstance(value, str):
                    report.violations.append(Violation(
                        "action_bindings", node.id,
                        f"categorical slot {slot.name!r} carries {value!r}"))


def _check_goal_coverage(tree: BehaviorTree, goals: GoalSpec,
                         report: VerificationReport) -> None:
    present = {str(node.literal) for node, _ in iter_preorder(tree.root)
               if node.kind is NodeKind.CONDITION}
    for conjunct in goals.conjuncts:
        if str(conjunct) not in present:
            report.violations.append(Violation(
                "goal_coverage", None,
                f"goal {conjunct} has no condition leaf in the tree"))


def _check_precondition_rows(tree: BehaviorTree, domain: Domain,
                             report: VerificationReport) -> None:
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.ACTION or node.action.skill not in domain.skills:
            continue
        skill = domain.skills[node.action.skill]
        if any(not isinstance(node.action.get(s.name), str) for s in skill.object_slots):
            continue  # binding problems are action_bindings findings
        required = domain.ground_preconditions(node.action)
        if not required:
            continue
        guarding = guarding_literals(tree, node.id)
        if guarding is None:
            report.violations.append(Violation(
                "precondition_rows", node.id,
                f"{node.action} declares preconditions but sits outside a Sequence"))
            continue
        for lit in required:
            if lit not in guarding:
                report.violations.append(Violation(
                    "precondition_rows", node.id,
                    f"{node.action} lacks declared precondition {lit}"))


def _check_distinct_fallback_children(tree: BehaviorTree,
                                      report: VerificationReport) -> None:
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.FALLBACK:
            continue
        for i, first in enumerate(node.children):
            for second in node.children[i + 1:]:
                if tree_equal(first, second, ignore_ids=True):
                    report.violations.append(Violation(
                        "distinct_fallback_children", node.id,
                        f"fallback has two identical children (like node {first.id})"))
                    break


def reachable_states(domain: Domain, initial: WorldState,
                     limit: int = 5000) -> list[WorldState]:
    """Visible states reachable via applicable ground actions (BFS)."""
    start = initial.visible_only()
    seen = {start.true}
    order = [start]
    queue = deque([start])
    while queue and len(order) < limit:
        state = queue.popleft()
        for action in _all_ground_actions(domain, state):
            if not all(domain.holds(state, lit)
                       for lit in domain.ground_preconditions(action)):
                continue
            nxt = domain.apply_effects(state, action)
            if nxt.true not in seen:
                seen.add(nxt.true)
                order.append(nxt)
                queue.append(nxt)
    return order


def _all_ground_actions(domain: Domain, state: WorldState) -> list[GroundAction]:
    actions = []
    for skill in domain.skills.values():
        actions.extend(_groundings(domain, state, skill, {}))
    return actions


def _check_bounded_livelock(tree: BehaviorTree, domain: Domain,
                            initial: WorldState, max_sim_ticks: int,
                            report: VerificationReport) -> None:
    for state in reachable_states(domain, initial):
        outcome = _run_to_terminal(tree, domain, state, max_sim_ticks)
        if outcome is None:
            report.violations.append(Violation(
                "bounded_livelock", None,
                f"ticking livelocks from state {{{', '.join(state.sorted_literals())}}}"))


def _run_to_terminal(tree: BehaviorTree, domain: Domain, start: WorldState,
                     max_ticks: int) -> NodeStatus | None:
    """Tick with plain effect application until Success/Failure; None = livelock."""
    state = start

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal state
        state = domain.apply_effects(state, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(state, lit), step_action)
    seen = {state.true}
    for _ in range(max_ticks):
        status, _trace = tick(tree, ctx, record_trace=False)
        if status in (NodeStatus.SUCCESS, NodeStatus.FAILURE):
            return status
        if state.true in seen:
            return None
        seen.add(state.true)
    return None
