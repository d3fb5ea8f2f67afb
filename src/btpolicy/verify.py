"""Structural policy checks.

These are decidable sanity checks over a finished tree: vocabulary and
binding consistency, goal coverage, precondition rows, duplicate fallback
branches, and (for small domains) a bounded exhaustive check that repeated
ticking from every reachable state terminates in Success or Failure rather
than livelocking.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TreeNode,
                 iter_preorder, tick)
from .domain import Domain, WorldState
from .errors import BtError
from .planner import GoalSpec, _groundings, guarding_literals
from .sim import check_tree_domain
from .terms import GroundAction, Quantity

CHECKS = (
    "action_bindings",
    "condition_literals",
    "goal_coverage",
    "precondition_rows",
    "distinct_fallback_children",
    "bounded_livelock",
)

#: bounded_livelock only runs at or below this object-registry size
LIVELOCK_OBJECT_LIMIT = 4

#: bounded_livelock checks at most this many reachable states; a larger
#: state space is itself a finding
REACHABLE_STATE_LIMIT = 5000


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
    """Run every check; findings land in the report. Condition leaves that
    do not fit the domain are ``condition_literals`` findings. Only the
    livelock check ticks the tree, so only then does a tree whose leaves do
    not fit the domain raise DomainMismatch instead."""
    report = VerificationReport(CHECKS)
    _check_action_bindings(tree, domain, report)
    _check_conditions(tree, domain, goals, report)
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


def _check_conditions(tree: BehaviorTree, domain: Domain, goals: GoalSpec,
                      report: VerificationReport) -> None:
    """condition_literals, then goal_coverage, from one walk over the
    condition leaves."""
    present = set()
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.CONDITION:
            continue
        lit = node.literal
        present.add(str(lit))
        try:
            domain.check_literal(lit)
        except BtError as e:
            report.violations.append(Violation(
                "condition_literals", node.id,
                f"{lit} does not fit domain {domain.name}: {e}"))
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
    """Flag each Fallback child that has an equal later sibling.

    Every node gets a structural key, bottom-up: its kind, ``str`` of its
    payload and its children's keys, interned to a small int so that no
    hash recurses. Two subtrees get equal keys exactly when ``tree_equal``
    (ids ignored) holds for them, so duplicates are found by counting keys.
    Findings come in preorder of the Fallbacks, then in child order."""
    interned: dict[tuple, int] = {}
    findings: list[list[Violation]] = []

    def key(node: TreeNode) -> int:
        slot = len(findings)
        if node.kind is NodeKind.FALLBACK:
            findings.append([])
        child_keys = tuple([key(child) for child in node.children])
        if node.kind is NodeKind.FALLBACK and len(set(child_keys)) < len(child_keys):
            later = Counter(child_keys)
            for child, child_key in zip(node.children, child_keys):
                later[child_key] -= 1
                if later[child_key]:
                    findings[slot].append(Violation(
                        "distinct_fallback_children", node.id,
                        f"fallback has two identical children (like node {child.id})"))
        payload = None if node.payload is None else str(node.payload)
        return interned.setdefault((node.kind, payload, child_keys), len(interned))

    key(tree.root)
    for found in findings:
        report.violations.extend(found)


def reachable_states(domain: Domain, initial: WorldState,
                     limit: int = REACHABLE_STATE_LIMIT) -> list[WorldState]:
    """Visible states reachable via applicable ground actions, in BFS
    order, at most ``limit`` of them.

    Actions never change the object registry, so the ground actions are
    enumerated once, from the start state, and a successor is built only
    when its fact set is new."""
    start = initial.visible_only()
    steps = [(action, domain.ground_preconditions(action))
             for action in _all_ground_actions(domain, start)]
    seen = {start.true}
    order = [start]
    queue = deque(order)
    while queue:
        state = queue.popleft()
        for action, required in steps:
            if not all(domain.holds(state, lit) for lit in required):
                continue
            add, remove = domain.effect_delta(state, action)
            true = (state.true - remove) | add
            if true in seen:
                continue
            if len(order) >= limit:
                return order
            seen.add(true)
            nxt = domain.apply_effects(state, action)
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
    states = reachable_states(domain, initial, REACHABLE_STATE_LIMIT + 1)
    if len(states) > REACHABLE_STATE_LIMIT:
        del states[REACHABLE_STATE_LIMIT:]
        report.violations.append(Violation(
            "bounded_livelock", None,
            f"more than {REACHABLE_STATE_LIMIT} states are reachable; "
            f"ticking was checked from the first {REACHABLE_STATE_LIMIT} only"))
    for state in states:
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
