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

from .bt import (_ACTION, _CONDITION, _SEQUENCE, BehaviorTree, NodeStatus, TickContext,
                 TreeNode, run_ticks, tick)
from .domain import Domain, WorldState
from .errors import DomainMismatch, TickBudgetExceeded
from .planner import GoalSpec, _groundings, _head_literal
from .sim import leaf_mismatch
from .terms import GroundAction, Literal, Quantity

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

#: bounded_livelock ticks the tree at most this often from each state
LIVELOCK_TICK_LIMIT = 500

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
                initial_state: WorldState | None = None) -> VerificationReport:
    """Run every check that applies; the report lists the checks that ran,
    and their findings in ``CHECKS`` order, in preorder within a check.

    One walk (``_check_structure``) makes every check but the livelock
    check and asks ``sim.leaf_mismatch`` of each leaf: a condition leaf
    that does not fit the domain is a ``condition_literals`` finding. Only
    the livelock check ticks the tree, so only then does the first leaf
    that does not fit raise its DomainMismatch, the one ``execute`` raises."""
    found: dict[str, list[Violation]] = {check: [] for check in CHECKS}
    present, mismatch = _check_structure(tree.root, domain, found)
    for conjunct in goals.conjuncts:
        if str(conjunct) not in present:
            found["goal_coverage"].append(Violation(
                "goal_coverage", None,
                f"goal {conjunct} has no condition leaf in the tree"))
    checks = CHECKS[:-1]  # bounded_livelock, last, runs only in small worlds
    if initial_state is not None and len(initial_state.objects) <= LIVELOCK_OBJECT_LIMIT:
        if mismatch is not None:
            raise mismatch
        _check_bounded_livelock(tree, domain, initial_state, found["bounded_livelock"])
        checks = CHECKS
    return VerificationReport(checks, [v for check in checks for v in found[check]])


def _check_structure(root: TreeNode, domain: Domain, found: dict[str, list[Violation]],
                     ) -> tuple[set[str], DomainMismatch | None]:
    """Add the findings of the per-node checks to ``found``; return the
    condition texts present and the first leaf that does not fit.

    Each Sequence's head literals are computed once and handed to its
    children (``heads``, None outside a Sequence) for precondition rows.
    Duplicate Fallback children are found by counting structural keys: each
    node's key is interned, bottom up, from its kind, ``str`` of its payload
    and its children's keys, so that no hash recurses. Equal keys mean
    exactly ``tree_equal`` with ids ignored."""
    duplicates = found["distinct_fallback_children"]
    interned: dict[tuple, int] = {}
    present: set[str] = set()
    first: DomainMismatch | None = None

    def visit(node: TreeNode, heads: list[Literal] | None) -> int:
        nonlocal first
        kind = node.kind
        if kind is _CONDITION or kind is _ACTION:
            text = str(node.payload)
            mismatch = leaf_mismatch(node, domain)
            first = first or mismatch
            if kind is _ACTION:
                _check_action(node, heads, domain, found)
            else:
                present.add(text)
                if mismatch is not None:
                    found["condition_literals"].append(Violation(
                        "condition_literals", node.id,
                        f"{text} does not fit domain {domain.name}: {mismatch.__cause__}"))
            # a leaf's key starts with a str, a control node's with a bool
            return interned.setdefault((text, kind is _CONDITION), len(interned))

        is_fallback = kind is not _SEQUENCE
        slot = len(duplicates)  # this Fallback's findings precede its descendants'
        heads = None if is_fallback else \
            [lit for lit in map(_head_literal, node.children) if lit is not None]
        child_keys = tuple([visit(child, heads) for child in node.children])
        if is_fallback and len(set(child_keys)) < len(child_keys):
            later, here = Counter(child_keys), []
            for child, child_key in zip(node.children, child_keys):
                later[child_key] -= 1
                if later[child_key]:
                    here.append(Violation(
                        "distinct_fallback_children", node.id,
                        f"fallback has two identical children (like node {child.id})"))
            duplicates[slot:slot] = here
        return interned.setdefault((is_fallback, child_keys), len(interned))

    visit(root, None)
    return present, first


def _check_action(node: TreeNode, heads: list[Literal] | None, domain: Domain,
                  found: dict[str, list[Violation]]) -> None:
    """Add an action leaf's action_bindings and precondition_rows findings."""
    action = node.action

    def add(check: str, message: str) -> None:
        found[check].append(Violation(check, node.id, message))

    skill = domain.skills.get(action.skill)
    if skill is None:
        add("action_bindings", f"unknown skill {action.skill!r}")
        return
    declared = {slot.name for slot in skill.params}
    for name, _ in action.binding:
        if name not in declared:
            add("action_bindings", f"{action.skill} has no slot {name!r}")
    objects_bound = True
    for slot in skill.params:
        value = action.get(slot.name)
        if slot.kind == "object":
            objects_bound = objects_bound and isinstance(value, str)
            if value is None:
                add("action_bindings", f"object slot {slot.name!r} of {action.skill} is unbound")
            elif not isinstance(value, str) or value not in domain.objects:
                add("action_bindings", f"slot {slot.name!r} bound to unknown object {value!r}")
            elif slot.category and domain.objects[value].category \
                    not in domain.categories_of(slot.category):
                add("action_bindings",
                    f"object {value!r} is not admissible for slot {slot.name!r}")
        elif value is None:
            continue
        elif slot.kind == "numeric":
            if not isinstance(value, Quantity) or value.unit != (slot.unit or ""):
                add("action_bindings", f"numeric slot {slot.name!r} carries {value!r}, "
                                       f"expected unit {slot.unit!r}")
        elif not isinstance(value, str):
            add("action_bindings", f"categorical slot {slot.name!r} carries {value!r}")
        elif slot.choices and value not in slot.choices:
            add("action_bindings", f"categorical slot {slot.name!r} carries {value!r}, "
                                   f"not one of {', '.join(slot.choices)}")

    required = domain.ground_preconditions(action) if objects_bound else ()
    if required and heads is None:
        add("precondition_rows", f"{action} declares preconditions but sits outside a Sequence")
        return
    for lit in required:
        if lit not in heads:
            add("precondition_rows", f"{action} lacks declared precondition {lit}")


def reachable_states(domain: Domain, initial: WorldState,
                     limit: int = REACHABLE_STATE_LIMIT) -> list[WorldState]:
    """Visible states reachable via applicable ground actions, in BFS
    order, at most ``limit`` of them.

    Actions never change the object registry, so the ground actions are
    enumerated once, from the start state, and a successor is built, from
    the effect delta already in hand, only when its fact set is new."""
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
            nxt = state.with_changes(add, remove)
            order.append(nxt)
            queue.append(nxt)
    return order


def _all_ground_actions(domain: Domain, state: WorldState) -> list[GroundAction]:
    actions = []
    for skill in domain.skills.values():
        actions.extend(_groundings(domain, state, skill, {}))
    return actions


def _check_bounded_livelock(tree: BehaviorTree, domain: Domain,
                            initial: WorldState, found: list[Violation]) -> None:
    states = reachable_states(domain, initial, REACHABLE_STATE_LIMIT + 1)
    if len(states) > REACHABLE_STATE_LIMIT:
        del states[REACHABLE_STATE_LIMIT:]
        found.append(Violation(
            "bounded_livelock", None,
            f"more than {REACHABLE_STATE_LIMIT} states are reachable; "
            f"ticking was checked from the first {REACHABLE_STATE_LIMIT} only"))
    for state in states:
        outcome = _run_to_terminal(tree, domain, state)
        if outcome is None:
            found.append(Violation(
                "bounded_livelock", None,
                f"ticking livelocks from state {{{', '.join(state.sorted_literals())}}}"))


def _run_to_terminal(tree: BehaviorTree, domain: Domain,
                     start: WorldState) -> NodeStatus | None:
    """Tick with plain effect application until Success/Failure; None = livelock."""
    state = start

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal state
        state = domain.apply_effects(state, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(state, lit), step_action)
    try:
        for _ in run_ticks(lambda: state.true, LIVELOCK_TICK_LIMIT):
            status, _trace = tick(tree, ctx, record_trace=False)
            if status is not NodeStatus.RUNNING:
                return status
    except TickBudgetExceeded:
        return None
