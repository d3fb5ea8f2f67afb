"""Reactive backchaining planner.

Each failed condition leaf is expanded into ``Fallback(condition,
Sequence(preconditions..., action))`` for one achieving action, until
ticking the tree against a simulated world reaches the goal. Each simulated
tick advances at most one action (the fired action returns Running for that
tick and its effects land immediately), so condition re-evaluation between
actions mirrors reactive execution.

Grounding of achiever bindings enumerates the world's object registry
(category declaration order, then name), skips bindings that reuse one
object for two slots, and keeps only groundings that actually achieve the
target literal from the expansion-time state. A negated target first binds
slots from its witnesses, the registry-ranged rows that make its positive
form true: an achiever must delete all of them, so when a skill has one
delete template on the target's predicate, each of that template's slots
takes the value every witness has at its position, and the skill is
skipped when the witnesses disagree there. Skills with several such
templates, and positive targets, are enumerated in full.

Ranking: the achiever is the first candidate that knocks out no condition
the tree currently relies on, or the first that knocks out fewest when
nothing clean exists; scoring stops at the first clean one. Dead-end rule:
a candidate counts only if each of its ground preconditions holds at the
expansion state or has an achiever, checked only for the candidate about
to be picked. No remainder: the other candidates are dropped, and a
chosen branch that fails at execution goes to the resolver.

A candidate is judged from its effect delta, the (add, remove) fact sets
of ``Domain.effect_delta`` read delete-then-add, without copying any rows
(``_achieves`` and ``_Reliance``). The tree's condition literals come from
the counts the tree keeps (``BehaviorTree.condition_literals``).

Conflict checks, the subtree a conflict moves and expansion targets are
read from the tick trace alone: the fired action is the trace's last entry,
and its ancestors the last earlier entries at each smaller depth. Neither a
simulated tick nor ``plan`` looks a node up; a conflict moves the subtree
the trace names with ``BehaviorTree.move_left``, which keeps the tree's
index current. A simulation stops by ``bt.run_ticks``, the stop rule every
tick loop shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TickTrace,
                 TraceEntry, TreeNode, run_ticks, tick)
from .domain import Domain, SkillTemplate, WorldState, literal_holds, rows_matching
from .errors import (InvalidTarget, NoAchiever, PlanBudgetExceeded, TickBudgetExceeded,
                     Unsolvable)
from .terms import ANY_OBJECT, GroundAction, Literal, is_slot

__all__ = ["GoalSpec", "PlanConfig", "init_tree", "expand_condition", "plan",
           "guarding_literals"]


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


def _witness_binding(skill: SkillTemplate, predicate: str, partial: dict[str, str],
                     witnesses: list[tuple[str, ...]]) -> dict[str, str] | None:
    """``partial`` extended by the slots a negated target's witnesses fix.

    An achiever of a negated target must delete every witness row. When the
    skill has one delete template on the target's predicate, each slot argument
    in it must equal that position of every witness, so the slot is bound
    here; None when the witnesses disagree there or contradict ``partial``.
    Skills with several delete templates keep ``partial`` unchanged."""
    deletes = [t for t in skill.effects if t.negated and t.predicate == predicate]
    if len(deletes) != 1:
        return partial
    binding = dict(partial)
    for i, arg in enumerate(deletes[0].args):
        if is_slot(arg):
            values = {row[i] for row in witnesses}
            if len(values) != 1:
                return None
            value = values.pop()
            if binding.setdefault(arg[1:], value) != value:
                return None
    return binding


def _achieves(target: Literal, add: Collection[Literal], remove: Collection[Literal],
              witnesses: list[tuple[str, ...]] | None, registry: frozenset[str]) -> bool:
    """Whether ``target``, false before, holds once the delta is applied
    (delete, then add). A positive target needs an added row that matches
    it; a negated one needs every witness, the rows that falsify it,
    removed, and no added row that matches it."""
    rows = [fact.args for fact in add if fact.predicate == target.predicate]
    added = bool(rows_matching(target.args, rows, registry))
    if witnesses is None:
        return added
    removed = {fact.args for fact in remove if fact.predicate == target.predicate}
    return not added and removed.issuperset(witnesses)


class _Reliance:
    """The condition literals a tree relies on (true in ``state``), kept so
    that an effect delta is judged by the rows it adds and removes: a
    positive ground literal breaks when its row is removed and not added
    back, a negated literal when an added row matches it (within the
    registry at its wildcards). A positive wildcard is judged on its
    predicate's rows after the delta, only when a row of that predicate is
    removed."""

    def __init__(self, literals: Iterable[Literal], state: WorldState):
        self.state = state
        self.present: set[Literal] = set()
        # predicate -> wildcard positions -> the negated literals' argument rows
        self.none_of: dict[str, dict[tuple[int, ...], set[tuple[str, ...]]]] = {}
        self.some_of: dict[str, list[Literal]] = {}
        for lit in literals:
            if lit.negated:
                positions = tuple(i for i, arg in enumerate(lit.args) if arg == ANY_OBJECT)
                self.none_of.setdefault(lit.predicate, {}) \
                    .setdefault(positions, set()).add(lit.args)
            elif ANY_OBJECT in lit.args:
                self.some_of.setdefault(lit.predicate, []).append(lit)
            else:
                self.present.add(lit)

    def broken(self, add: Collection[Literal], remove: Collection[Literal]) -> int:
        """How many of the literals the delta makes false."""
        count = 0
        for fact in remove:
            if fact in self.present and fact not in add:
                count += 1
        registry = self.state.registry
        matched: set[tuple[str, tuple[str, ...]]] = set()
        for fact in add:
            for positions, patterns in self.none_of.get(fact.predicate, {}).items():
                if all(fact.args[i] in registry for i in positions):
                    pattern = tuple(ANY_OBJECT if i in positions else arg
                                    for i, arg in enumerate(fact.args))
                    if pattern in patterns:
                        matched.add((fact.predicate, pattern))
        count += len(matched)
        for predicate, lits in self.some_of.items():
            if any(fact.predicate == predicate for fact in remove):
                after = self.state.changed_rows(add, remove)[predicate]
                count += sum(1 for lit in lits if not literal_holds(lit, after, registry))
        return count


def _scored_achievers(domain: Domain, state: WorldState, target: Literal,
                      reliance: _Reliance) -> Iterator[tuple[int, GroundAction]]:
    """(broken, action) for each distinct grounding that achieves ``target``
    from ``state``, in skill declaration then binding order, where
    ``broken`` counts the relied-on literals its effects knock out."""
    registry = state.registry
    witnesses = rows_matching(target.args, state.rows(target.predicate), registry) \
        if target.negated else None
    seen: set[GroundAction] = set()
    for skill, partial in domain.achievers(target):
        if witnesses is not None:
            partial = _witness_binding(skill, target.predicate, partial, witnesses)
            if partial is None:
                continue
        for action in _groundings(domain, state, skill, partial):
            if action in seen:
                continue
            seen.add(action)
            add, remove = domain.effect_delta(state, action)
            if _achieves(target, add, remove, witnesses, registry):
                yield reliance.broken(add, remove), action


def _dead_end(domain: Domain, state: WorldState, action: GroundAction) -> Literal | None:
    """A ground precondition of ``action`` that is false in ``state`` and
    that no skill achieves, if it has one."""
    for lit in domain.ground_preconditions(action):
        if not domain.holds(state, lit) and not domain.achievers(lit):
            return lit
    return None


def expand_condition(tree: BehaviorTree, node: TreeNode, domain: Domain,
                     state: WorldState) -> BehaviorTree:
    """Replace a failed condition leaf with ``Fallback(condition,
    Sequence(preconditions..., action))`` for the best-ranked achiever.

    The original condition stays as the Fallback's first child so a
    satisfied condition short-circuits. The ranking and the dead-end rule
    are the module docstring's; "relied on" means true at ``state``, and a
    dirty candidate (clearing a block inevitably fills the hand) wins only
    when nothing clean counts. Raises NoAchiever when no candidate counts,
    naming the first dead-end precondition met, or the target when no
    grounding achieves it.

    ``node`` is a condition leaf of ``tree`` that heads no expansion yet,
    such as the one ``plan`` reads from the tick trace; it is not looked up.
    """
    target = node.literal
    if domain.holds(state, target):
        raise InvalidTarget(f"condition {target} holds; expanding it is invalid")

    reliance = _Reliance((lit for lit in tree.condition_literals()
                          if domain.holds(state, lit)), state)
    best: tuple[int, GroundAction] | None = None
    dead_end: Literal | None = None
    for broken, action in _scored_achievers(domain, state, target, reliance):
        if best is not None and broken >= best[0]:
            continue
        missing = _dead_end(domain, state, action)
        if missing is not None:
            dead_end = dead_end or missing
            continue
        best = broken, action
        if broken == 0:
            break
    if best is None:
        raise NoAchiever(dead_end or target)

    action = best[1]
    fallback = tree.new_node(NodeKind.FALLBACK, children=[node])
    leaves = [tree.new_condition(lit) for lit in domain.ground_preconditions(action)]
    leaves.append(tree.new_action(action))
    fallback.children.append(tree.new_node(NodeKind.SEQUENCE, children=leaves))
    tree.replace(node.id, fallback)
    return tree


# --- simulation --------------------------------------------------------------

@dataclass
class _SimResult:
    status: NodeStatus  # of the last tick; Running only with a conflict
    state: WorldState
    trace: TickTrace
    conflict: TreeNode | None = None  # the subtree a conflict moves left


def _simulate(tree: BehaviorTree, state: WorldState, domain: Domain,
              max_ticks: int) -> _SimResult:
    """Tick until Success, Failure or a conflict; ``bt.run_ticks``, keyed
    by the visible facts, raises TickBudgetExceeded on a state cycle or an
    exhausted budget.

    Actions fire at most once per tick (Running propagation unwinds the
    tick), apply their visible effects immediately, and complete by the next
    tick. A conflict is a fired action whose effects flip a condition that
    succeeded earlier in the same tick, scoped to a shared Sequence."""
    current = state

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal current
        current = domain.apply_effects(current, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(current, lit), step_action)
    for _ in run_ticks(lambda: current.true, max_ticks):
        status, trace = tick(tree, ctx)
        assert trace is not None
        if status is not NodeStatus.RUNNING:
            return _SimResult(status, current, trace)
        conflict = _detect_conflict(trace, domain, current)
        if conflict is not None:
            return _SimResult(status, current, trace, conflict)


def _detect_conflict(trace: TickTrace, domain: Domain,
                     after: WorldState) -> TreeNode | None:
    """The subtree to move left when the fired action falsified a condition
    left of it, else None.

    The fired action is the trace's last entry. A condition that succeeded
    earlier in this tick held in the state the action fired from, so only
    ``after`` needs checking, and only for a condition whose lowest common
    ancestor with the action is a Sequence other than the action's own
    parent: an action consuming one of its own preconditions (grasp using
    up the free hand) is normal; conflicts are between sibling subtrees.
    That ancestor is the deepest of the action's ancestors that comes
    before the condition in the trace, and the subtree returned is its
    child on the action's path, the next ancestor."""
    entries = trace.entries
    ancestors = _ancestors(entries)
    # a condition between ancestor k and ancestor k + 1 has ancestor k as
    # its lowest common ancestor with the action, which rules out the parent
    for start, end in zip(ancestors, ancestors[1:]):
        if entries[start].kind is not NodeKind.SEQUENCE:
            continue
        for entry in entries[start + 1:end]:
            if entry.status is NodeStatus.SUCCESS and entry.kind is NodeKind.CONDITION \
                    and not domain.holds(after, entry.node.literal):
                return entries[end].node
    return None


def _ancestors(entries: list[TraceEntry]) -> list[int]:
    """Trace indexes of the last entry's ancestors, root first: for each
    smaller depth, the last entry before it at that depth."""
    depth = entries[-1].depth
    found = [0] * depth
    for i in range(len(entries) - 2, -1, -1):
        if entries[i].depth < depth:
            depth -= 1
            found[depth] = i
            if depth == 0:
                break
    return found


def _pick_expansion_target(trace: TickTrace) -> TreeNode | None:
    """Deepest (then leftmost) failed condition.

    It heads no expansion: a failed expanded condition passes the tick to
    its Fallback's branches, the Sequences expansion built, whose leaves sit
    one level deeper and either fail or fire an action, and a simulated
    action returns Running, which ends the tick."""
    best: TreeNode | None = None
    best_depth = -1
    for entry in trace.entries:
        if entry.kind is NodeKind.CONDITION and entry.status is NodeStatus.FAILURE \
                and entry.depth > best_depth:
            best, best_depth = entry.node, entry.depth
    return best


def plan(goals: GoalSpec, domain: Domain, state: WorldState,
         config: PlanConfig | None = None, *,
         tree: BehaviorTree | None = None) -> BehaviorTree:
    """Grow a tree until its simulated execution achieves every goal conjunct.

    Planning sees only the visible part of the state. On a failed simulated
    tick the deepest failed unexpanded condition is expanded; a detected
    conflict moves the offending subtree left; success returns the tree.
    Raises Unsolvable when a needed literal has no achiever and
    PlanBudgetExceeded (with the partial tree attached) when budgets run out
    or a simulation stops making progress, with the stop rule's reason.

    The goals are checked against the domain and the state's registry. A
    ``tree`` to grow is trusted as given: the resolver builds it from checked
    goals, domain templates and parsed answers, and runs it ungated. Trees
    from elsewhere pass the gate, ``sim.leaf_mismatch`` on every leaf, first.
    """
    config = config or PlanConfig()
    for lit in goals.conjuncts:
        domain.check_literal(lit, objects=state.registry)
    if tree is None:
        tree = init_tree(goals)
    start = state.visible_only()

    expansions = 0
    reorders = 0
    while True:
        try:
            result = _simulate(tree, start, domain, config.max_sim_ticks)
        except TickBudgetExceeded as e:
            raise PlanBudgetExceeded(str(e), tree) from e
        if result.status is NodeStatus.SUCCESS:
            missing = [c for c in goals.conjuncts if not domain.holds(result.state, c)]
            if missing:
                raise PlanBudgetExceeded(
                    f"simulation succeeded without goal {missing[0]}", tree)
            return tree
        if result.conflict is not None:
            if reorders >= config.max_conflict_reorders:
                raise PlanBudgetExceeded("conflict reorder budget exhausted", tree)
            tree.move_left(result.conflict.id)
            reorders += 1
            continue
        # failure: expand
        target = _pick_expansion_target(result.trace)
        if target is None:
            raise PlanBudgetExceeded("nothing left to expand", tree)
        if expansions >= config.max_expansions:
            raise PlanBudgetExceeded("expansion budget exhausted", tree)
        try:
            expand_condition(tree, target, domain, result.state)
        except NoAchiever as e:
            raise Unsolvable(e.literal) from e
        expansions += 1
