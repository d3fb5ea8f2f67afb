"""Structural policy checks.

These are decidable sanity checks over a finished tree: vocabulary and
binding consistency, goal coverage, precondition rows, duplicate fallback
branches, and (for small domains) a bounded exhaustive check that repeated
ticking from every reachable state terminates in Success or Failure rather
than livelocking.

The exhaustive check does each reachable state's work once: the search
evaluates each distinct ground precondition at most once per state, and
the ticking keeps each state's outcome for the rest of the check, so a
walk that reaches a state already walked from stops there. Nothing is
kept past one ``verify_tree`` call.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from .bt import (_ACTION, _CONDITION, _SEQUENCE, BehaviorTree, NodeStatus, TickContext,
                 TreeNode, run_ticks, tick)
from .domain import Domain, WorldState, literal_holds
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
    enumerated, and each one's grounding read, once, from the start state.
    In each state a distinct ground precondition is evaluated at most once,
    by ``literal_holds`` on the rows of the state's index; an action whose
    preconditions hold gives its effect delta, and a successor is built
    from the fact set the seen check computed, only when that set is new."""
    start = initial.visible_only()
    registry = start.registry
    numbers: dict[Literal, int] = {}   # each distinct precondition's place in ``truth``
    steps = []
    for action in _all_ground_actions(domain, start):
        grounded = domain.skill(action.skill).grounded(action)
        steps.append((grounded, [numbers.setdefault(lit, len(numbers))
                                 for lit in grounded.preconditions]))
    literals = list(numbers)
    seen = {start.true}
    order = [start]
    queue = deque(order)
    while queue:
        state = queue.popleft()
        truth: list[bool | None] = [None] * len(literals)
        for grounded, required in steps:
            for at in required:
                holds = truth[at]
                if holds is None:
                    lit = literals[at]
                    holds = truth[at] = literal_holds(lit, state.rows(lit.predicate), registry)
                if not holds:
                    break
            else:
                add, remove = grounded.delta(state)
                true = (state.true - remove) | add
                if true in seen:
                    continue
                if len(order) >= limit:
                    return order
                seen.add(true)
                nxt = state.with_changes(add, remove, true=true)
                order.append(nxt)
                queue.append(nxt)
    return order


def _all_ground_actions(domain: Domain, state: WorldState) -> list[GroundAction]:
    actions = []
    for skill in domain.skills.values():
        actions.extend(_groundings(domain, state, skill, {}))
    return actions


#: what ticking from a state comes to: the terminal status and the ticks
#: taken to reach it, the last one included, or None when ticking from the
#: state repeats a state or takes more than LIVELOCK_TICK_LIMIT ticks
_Outcome = tuple[NodeStatus, int] | None


def _check_bounded_livelock(tree: BehaviorTree, domain: Domain,
                            initial: WorldState, found: list[Violation]) -> None:
    """A finding for each reachable state from which ticking, with plain
    effect application, reaches no Success or Failure within
    LIVELOCK_TICK_LIMIT ticks, in the order of ``reachable_states``.

    A tick is memoryless: its status and the state it leaves depend only
    on the visible facts it starts from. So ``outcomes``, owned by this
    check and dropped when it returns, keeps each state's outcome by its
    facts, and a walk from a start state (``_walk``) leaves at the first
    state whose outcome is known: each state is ticked once, however many
    walks pass through it."""
    states = reachable_states(domain, initial, REACHABLE_STATE_LIMIT + 1)
    if len(states) > REACHABLE_STATE_LIMIT:
        del states[REACHABLE_STATE_LIMIT:]
        found.append(Violation(
            "bounded_livelock", None,
            f"more than {REACHABLE_STATE_LIMIT} states are reachable; "
            f"ticking was checked from the first {REACHABLE_STATE_LIMIT} only"))
    outcomes: dict[frozenset[Literal], _Outcome] = {}
    for state in states:
        outcome = _walk(tree, domain, state, outcomes)
        if outcome is None or outcome[1] > LIVELOCK_TICK_LIMIT:
            found.append(Violation(
                "bounded_livelock", None,
                f"ticking livelocks from state {{{', '.join(state.sorted_literals())}}}"))


def _walk(tree: BehaviorTree, domain: Domain, start: WorldState,
          outcomes: dict[frozenset[Literal], _Outcome]) -> _Outcome:
    """Tick from ``start`` under ``run_ticks`` until Success, Failure or a
    state whose outcome ``outcomes`` holds; enter the outcome of each state
    ticked on the way, counting ticks back from the end, and return the
    start's.

    A repeated state makes every state on the walk livelock. A walk that
    uses up its LIVELOCK_TICK_LIMIT ticks marks only its start: a later
    state on it may still end within the limit."""
    state = start
    path: list[frozenset[Literal]] = []   # the facts of each state ticked, in order

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal state
        state = domain.apply_effects(state, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(state, lit), step_action)
    try:
        for _ in run_ticks(lambda: state.true, LIVELOCK_TICK_LIMIT):
            if state.true in outcomes:
                end = outcomes[state.true]
                break
            path.append(state.true)
            status, _trace = tick(tree, ctx, record_trace=False)
            if status is not NodeStatus.RUNNING:
                end = (status, 0)
                break
    except TickBudgetExceeded:
        if len(path) == LIVELOCK_TICK_LIMIT:   # out of ticks, or a repeat at the last one
            outcomes[start.true] = None
            return None
        end = None
    for ticks, true in enumerate(reversed(path), 1):
        outcomes[true] = None if end is None else (end[0], end[1] + ticks)
    return outcomes[start.true]
