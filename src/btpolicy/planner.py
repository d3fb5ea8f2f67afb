"""Reactive backchaining planner.

Failed condition leaves are expanded into Fallbacks over achieving-action
subtrees until ticking the tree against a simulated world reaches the goal.
Each simulated tick advances at most one action (the fired action returns
Running for that tick and its effects land immediately), so condition
re-evaluation between actions mirrors reactive execution.

Grounding of achiever bindings enumerates the world's object registry
(category declaration order, then name), skips bindings that reuse one
object for two slots, and keeps only groundings that actually achieve the
target literal from the expansion-time state. Candidates that would knock
out a condition the tree currently relies on are displaced by clean ones,
or kept least-destructive-first when nothing clean exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TickTrace,
                 TreeNode, insert_preconditions, iter_preorder, tick)
from .domain import Domain, SkillTemplate, WorldState
from .errors import (EvaluationError, InvalidTarget, NoAchiever,
                     PlanBudgetExceeded, UnknownPredicate, Unsolvable)
from .terms import GroundAction, Literal

__all__ = ["GoalSpec", "PlanConfig", "init_tree", "expand_condition", "plan",
           "insert_preconditions", "guarding_literals"]


@dataclass(frozen=True)
class GoalSpec:
    """An ordered conjunction of goal literals."""

    conjuncts: tuple[Literal, ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise ValueError("goal needs at least one conjunct")

    def __str__(self) -> str:
        return " & ".join(str(c) for c in self.conjuncts)


@dataclass(frozen=True)
class PlanConfig:
    max_expansions: int = 64
    max_conflict_reorders: int = 16
    max_sim_ticks: int = 10_000

    def __post_init__(self):
        if min(self.max_expansions, self.max_conflict_reorders, self.max_sim_ticks) <= 0:
            raise ValueError("plan budgets must be positive")


def init_tree(goals: GoalSpec) -> BehaviorTree:
    """Root Sequence whose children are the goal condition leaves, in order."""
    root = TreeNode(0, NodeKind.SEQUENCE)
    tree = BehaviorTree(root, next_id=1)
    root.children.extend(tree.new_condition(lit) for lit in goals.conjuncts)
    return tree


def goals_of(tree: BehaviorTree) -> GoalSpec:
    """Recover the goal conjunction from a planner-shaped tree."""
    conjuncts = []
    for child in tree.root.children:
        lit = _head_literal(child)
        if lit is None:
            raise InvalidTarget("tree root child carries no goal condition")
        conjuncts.append(lit)
    return GoalSpec(tuple(conjuncts))


def is_expanded(tree: BehaviorTree, node: TreeNode) -> bool:
    """A condition that already heads an expansion Fallback."""
    info = tree.parent_of(node.id)
    if info is None:
        return False
    parent, idx = info
    return parent.kind is NodeKind.FALLBACK and idx == 0 and len(parent.children) > 1


def guarding_literals(tree: BehaviorTree, action_id: int) -> list[Literal] | None:
    """Head literals of the subtrees in the action's enclosing Sequence;
    None when the action does not sit in a Sequence."""
    info = tree.parent_of(action_id)
    if info is None or info[0].kind is not NodeKind.SEQUENCE:
        return None
    return [lit for lit in map(_head_literal, info[0].children) if lit is not None]


def _head_literal(node: TreeNode) -> Literal | None:
    """The condition a subtree is responsible for, if it has one."""
    if node.kind is NodeKind.CONDITION:
        return node.literal
    if node.kind is NodeKind.FALLBACK and node.children:
        first = node.children[0]
        if first.kind is NodeKind.CONDITION:
            return first.literal
    return None


def _tree_condition_literals(tree: BehaviorTree) -> list[Literal]:
    """Distinct condition-leaf literals, in first-appearance order."""
    seen: set[str] = set()
    out: list[Literal] = []
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.CONDITION and str(node.literal) not in seen:
            seen.add(str(node.literal))
            out.append(node.literal)
    return out


def _groundings(domain: Domain, state: WorldState, skill: SkillTemplate,
                partial: dict[str, str]) -> Iterator[GroundAction]:
    """All completions of a partial object binding, deterministically ordered.

    Values fixed by unification must still be admissible for their slots;
    a binding that puts an object in a slot whose category excludes it
    yields nothing."""
    for slot in skill.object_slots:
        value = partial.get(slot.name)
        if value is None:
            continue
        if value not in state.registry:
            return
        if slot.category and domain.objects[value].category \
                not in domain.categories_of(slot.category):
            return
    free = [s for s in skill.object_slots if s.name not in partial]
    pools = [domain.objects_in(s.category, state.objects) if s.category
             else sorted(state.object_names) for s in free]

    def rec(i: int, binding: dict[str, str]) -> Iterator[GroundAction]:
        if i == len(free):
            yield GroundAction.from_mapping(skill.name, dict(binding))
            return
        for name in pools[i]:
            if name in binding.values():
                continue  # one object per slot
            binding[free[i].name] = name
            yield from rec(i + 1, binding)
            del binding[free[i].name]

    values = list(partial.values())
    if len(set(values)) != len(values):
        return
    yield from rec(0, dict(partial))


def expand_condition(tree: BehaviorTree, cond_id: int, domain: Domain,
                     state: WorldState) -> BehaviorTree:
    """Replace a failed condition leaf with a Fallback over achiever subtrees.

    The original condition stays as the Fallback's first child so a
    satisfied condition short-circuits. Each achiever contributes one
    Sequence of its ground precondition leaves followed by the action leaf.
    """
    node = tree.find(cond_id)
    if node.kind is not NodeKind.CONDITION:
        raise InvalidTarget(f"node {cond_id} is {node.kind.value}, not a condition")
    if is_expanded(tree, node):
        raise InvalidTarget(f"condition {cond_id} was already expanded")
    target = node.literal
    if domain.holds(state, target):
        raise InvalidTarget(f"condition {target} holds; expanding it is invalid")

    achievers = domain.achievers(target)
    if not achievers:
        raise NoAchiever(target)

    # Rank candidates by how many condition literals the tree currently
    # relies on (true at the expansion state) their effects would knock out.
    # Clean candidates displace dirty ones entirely; when only dirty ones
    # exist (clearing a block inevitably fills the hand) keep them, least
    # destructive first. Ties follow skill declaration, then binding order.
    relied_on = [lit for lit in _tree_condition_literals(tree)
                 if domain.holds(state, lit)]
    candidates: list[tuple[int, int, GroundAction]] = []
    seen: set[GroundAction] = set()
    for index, (skill, partial) in enumerate(achievers):
        for action in _groundings(domain, state, skill, partial):
            if action in seen:
                continue
            seen.add(action)
            after = domain.apply_effects(state, action)
            if not domain.holds(after, target):
                continue
            broken = sum(1 for lit in relied_on if not domain.holds(after, lit))
            candidates.append((broken, index, action))
    if not candidates:
        raise NoAchiever(target)
    if any(broken == 0 for broken, _, _ in candidates):
        candidates = [c for c in candidates if c[0] == 0]
    else:
        candidates.sort(key=lambda c: (c[0], c[1]))
    actions = [action for _, _, action in candidates]

    fallback = tree.new_node(NodeKind.FALLBACK, children=[node])
    for action in actions:
        leaves: list[TreeNode] = [tree.new_condition(lit)
                                  for lit in domain.ground_preconditions(action)]
        leaves.append(tree.new_action(action))
        fallback.children.append(tree.new_node(NodeKind.SEQUENCE, children=leaves))
    tree.replace(cond_id, fallback)
    return tree


# --- simulation --------------------------------------------------------------

@dataclass
class _SimResult:
    status: str  # "success" | "failure" | "conflict" | "stalled"
    state: WorldState
    trace: TickTrace | None = None
    conflict: tuple[int, int] | None = None  # (action node id, condition node id)
    ticks: int = 0


def _condition_eval(domain: Domain, get_state):
    def eval_condition(lit: Literal) -> bool:
        try:
            return domain.holds(get_state(), lit)
        except UnknownPredicate as e:
            raise EvaluationError(str(e)) from e
    return eval_condition


def _simulate(tree: BehaviorTree, state: WorldState, domain: Domain,
              max_ticks: int) -> _SimResult:
    """Tick until success, failure, conflict, or a state cycle.

    Actions fire at most once per tick (Running propagation unwinds the
    tick), apply their visible effects immediately, and complete by the next
    tick. A conflict is a fired action whose effects flip a condition that
    succeeded earlier in the same tick, scoped to a shared Sequence."""
    seen: set[frozenset[Literal]] = {state.true}
    current = state
    fired: TreeNode | None = None

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal current, fired
        try:
            current = domain.apply_effects(current, leaf.action)
        except UnknownPredicate as e:
            raise EvaluationError(str(e)) from e
        fired = leaf
        return NodeStatus.RUNNING

    ctx = TickContext(_condition_eval(domain, lambda: current), step_action)

    for tick_i in range(max_ticks):
        fired = None
        before = current
        status, trace = tick(tree, ctx)
        assert trace is not None
        if fired is not None:
            conflict = _detect_conflict(tree, trace, fired, domain, before, current)
            if conflict is not None:
                return _SimResult("conflict", current, trace, conflict, tick_i + 1)
        if status is NodeStatus.SUCCESS:
            return _SimResult("success", current, trace, ticks=tick_i + 1)
        if status is NodeStatus.FAILURE:
            return _SimResult("failure", current, trace, ticks=tick_i + 1)
        if current.true in seen:
            return _SimResult("stalled", current, trace, ticks=tick_i + 1)
        seen.add(current.true)
    return _SimResult("stalled", current, ticks=max_ticks)


def _detect_conflict(tree: BehaviorTree, trace: TickTrace, fired: TreeNode,
                     domain: Domain, before: WorldState,
                     after: WorldState) -> tuple[int, int] | None:
    """Find a condition left of the fired action that the action falsified."""
    for entry in trace.entries:
        if entry.node_id == fired.id:
            break
        if entry.kind is not NodeKind.CONDITION or entry.status is not NodeStatus.SUCCESS:
            continue
        cond = tree.find(entry.node_id)
        if domain.holds(before, cond.literal) and not domain.holds(after, cond.literal):
            if _sequence_scoped(tree, fired.id, cond.id):
                return fired.id, cond.id
    return None


def _sequence_scoped(tree: BehaviorTree, action_id: int, cond_id: int) -> bool:
    lca, a_idx, c_idx = _lowest_common_ancestor(tree, action_id, cond_id)
    if lca.kind is not NodeKind.SEQUENCE or c_idx >= a_idx:
        return False
    # An action consuming one of its own preconditions (grasp using up the
    # free hand) is normal; conflicts are between sibling subtrees.
    return lca.children[a_idx].id != action_id


def _lowest_common_ancestor(tree: BehaviorTree, a_id: int,
                            b_id: int) -> tuple[TreeNode, int, int]:
    for (node, a_idx), (_, b_idx) in zip(tree.ancestry(a_id), tree.ancestry(b_id)):
        if a_idx != b_idx:
            return node, a_idx, b_idx
    raise InvalidTarget(f"nodes {a_id} and {b_id} lie on one path from the root")


def _reorder_for_conflict(tree: BehaviorTree, action_id: int, cond_id: int) -> None:
    """Move the offending subtree one position left inside the shared Sequence."""
    lca, a_idx, _ = _lowest_common_ancestor(tree, action_id, cond_id)
    assert lca.kind is NodeKind.SEQUENCE and a_idx > 0
    lca.children[a_idx - 1], lca.children[a_idx] = \
        lca.children[a_idx], lca.children[a_idx - 1]


def _pick_expansion_target(tree: BehaviorTree, trace: TickTrace) -> TreeNode | None:
    """Deepest (then leftmost) failed condition not yet expanded."""
    best: TreeNode | None = None
    best_depth = -1
    for entry in trace.entries:
        if entry.kind is not NodeKind.CONDITION or entry.status is not NodeStatus.FAILURE:
            continue
        if entry.depth <= best_depth:
            continue
        node = tree.find(entry.node_id)
        if is_expanded(tree, node):
            continue
        best, best_depth = node, entry.depth
    return best


def plan(goals: GoalSpec, domain: Domain, state: WorldState,
         config: PlanConfig | None = None, *,
         tree: BehaviorTree | None = None) -> BehaviorTree:
    """Grow a tree until its simulated execution achieves every goal conjunct.

    Planning sees only the visible part of the state. On a failed simulated
    tick the deepest failed unexpanded condition is expanded; a detected
    conflict moves the offending subtree left; success returns the tree.
    Raises Unsolvable when a needed literal has no achiever and
    PlanBudgetExceeded (with the partial tree attached) when budgets run out.
    """
    config = config or PlanConfig()
    for lit in goals.conjuncts:
        domain.check_literal(lit, objects=state.object_names)
    if tree is None:
        tree = init_tree(goals)
    start = state.visible_only()

    expansions = 0
    reorders = 0
    while True:
        result = _simulate(tree, start, domain, config.max_sim_ticks)
        if result.status == "success":
            missing = [c for c in goals.conjuncts if not domain.holds(result.state, c)]
            if missing:
                raise PlanBudgetExceeded(
                    f"simulation succeeded without goal {missing[0]}", tree)
            return tree
        if result.status == "conflict":
            if reorders >= config.max_conflict_reorders:
                raise PlanBudgetExceeded("conflict reorder budget exhausted", tree)
            action_id, cond_id = result.conflict  # type: ignore[misc]
            _reorder_for_conflict(tree, action_id, cond_id)
            reorders += 1
            continue
        if result.status == "stalled":
            raise PlanBudgetExceeded("simulation made no progress", tree)
        # failure: expand
        assert result.trace is not None
        target = _pick_expansion_target(tree, result.trace)
        if target is None:
            raise PlanBudgetExceeded("nothing left to expand", tree)
        if expansions >= config.max_expansions:
            raise PlanBudgetExceeded("expansion budget exhausted", tree)
        try:
            expand_condition(tree, target.id, domain, result.state)
        except NoAchiever as e:
            raise Unsolvable(e.literal) from e
        expansions += 1
