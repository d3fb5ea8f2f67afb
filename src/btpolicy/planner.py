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
nothing clean exists; scoring stops at the first clean one. A condition
every candidate knocks out is not counted: the target's complement and,
for a negated target, each witness as a positive ground fact. Every
candidate makes the target true on its predicate's rows, so each breaks
all of these; leaving them out lowers every count by the same number,
which keeps the choice and lets the scan stop at the floor, the first
candidate no later one can beat. Dead-end rule: a candidate counts only
if each of its ground preconditions holds at the expansion state or has
an achiever, checked only for the candidate about to be picked. No
remainder: the other candidates are dropped, and a chosen branch that
fails at execution goes to the resolver.

A candidate is judged on the rows its effect delta touches:
``WorldState.changed_rows`` of ``Domain.effect_delta`` gives, for each
predicate the delta adds or removes, that predicate's rows after the
action (delete, then add); no successor state is built. The target is
achieved when ``literal_holds`` finds it true on its predicate's rows
there, and a relied-on literal breaks when ``literal_holds`` finds it
false on its predicate's rows there; a literal of an untouched predicate
keeps its truth. The tree's condition literals come from the counts the
tree keeps (``BehaviorTree.condition_literals``).

Conflict checks, the subtree a conflict moves and expansion targets are
read from the tick trace alone, three parallel lists of the visited nodes,
their statuses and their depths: the fired action is the trace's last
node, and its ancestors the last earlier nodes at each smaller depth.
Neither a simulated tick nor ``plan`` looks a node up; a conflict moves the
subtree the trace names with ``BehaviorTree.move_left``, which keeps the
tree's index current. A simulation stops by ``bt.run_ticks``, the stop rule
every tick loop shares.

Tick rule: ``plan`` runs one tick loop, and a failed tick is expanded and
run again in place, at the same tick index, from the same state, so tick
numbers, state keys and the stop rule's messages are those of one
uninterrupted simulation from tick 0. That is exact: the expansion
replaces only the failed leaf, by ``Fallback(leaf, ...)``, so an earlier
tick in which the leaf succeeded or was not visited returns the same
status after firing the same action, and its conflict check finds the
same nothing, the new Fallback being on no fired action's path. When the
leaf failed in an earlier tick (the earlier ticks' traces tell; it takes a
hand-built tree, such as a Fallback whose later child fires after the
leaf's branch fails), and after every conflict move, the simulation starts
again at tick 0.

The failed tick is not run from the root again: ``bt.tick_spliced`` ticks
only the new Fallback, in the failed leaf's place, and reads the rest of
the tick from its trace. That is exact too. The tick failed, so no action
fired in it and every node saw the one state it started from: the nodes
before the leaf are visited as before, and the leaf fails again inside
its Fallback. If the Fallback's branch fails as well, the Fallback fails
as the leaf did, nothing changed the state, and the nodes after it are
visited as before; if the branch fires its action, the Running status
makes the leaf's ancestors Running and ends the tick there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TickTrace,
                 TreeNode, ancestor_indexes, run_ticks, tick, tick_spliced)
from .domain import Domain, SkillTemplate, WorldState, literal_holds, rows_matching
from .errors import (InvalidTarget, NoAchiever, PlanBudgetExceeded, TickBudgetExceeded,
                     Unsolvable)
from .terms import GroundAction, Literal, is_slot

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
    """All completions of a partial object binding, deterministically
    ordered: the product of each object slot's pool, dropping combinations
    that use one object twice.

    A free slot's pool is the registry's admissible names
    (``Domain.objects_in``), or all its names sorted when the slot has no
    category. A slot ``partial`` fixes takes only its value, and nothing
    when the value is outside the registry or of a category the slot
    excludes."""
    registry = state.registry
    pools = []
    for slot in skill.object_slots:
        value = partial.get(slot.name)
        if value is None:
            pools.append(domain.objects_in(slot.category, registry) if slot.category
                         else sorted(state.object_names))
        elif value in registry and (not slot.category or domain.objects[value].category
                                    in domain.categories_of(slot.category)):
            pools.append((value,))
        else:
            pools.append(())
    names = [slot.name for slot in skill.object_slots]
    for combo in product(*pools):
        if len(set(combo)) == len(combo):
            yield GroundAction(skill.name, tuple(zip(names, combo)))


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


def _scored_achievers(domain: Domain, state: WorldState, target: Literal,
                      relied: dict[str, list[Literal]],
                      witnesses: list[tuple[str, ...]] | None
                      ) -> Iterator[tuple[int, GroundAction]]:
    """(broken, action) for each distinct grounding that achieves ``target``
    from ``state``, in skill declaration then binding order, where
    ``broken`` counts the ``relied`` literals, grouped by predicate, its
    effects knock out; both are read from ``changed_rows`` (module
    docstring). ``witnesses`` are the rows that make a negated target's
    positive form true, None for a positive target."""
    registry = state.registry
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
            after = state.changed_rows(*domain.effect_delta(state, action))
            if target.predicate in after \
                    and literal_holds(target, after[target.predicate], registry):
                yield sum(1 for predicate, rows in after.items()
                          for lit in relied.get(predicate, ())
                          if not literal_holds(lit, rows, registry)), action


def _dead_end(domain: Domain, state: WorldState, action: GroundAction) -> Literal | None:
    """A ground precondition of ``action`` that is false in ``state`` and
    that no skill achieves, if it has one."""
    for lit in domain.ground_preconditions(action):
        if not domain.holds(state, lit) and not domain.achievers(lit):
            return lit
    return None


def expand_condition(tree: BehaviorTree, node: TreeNode, domain: Domain,
                     state: WorldState) -> TreeNode:
    """Replace a failed condition leaf with ``Fallback(condition,
    Sequence(preconditions..., action))`` for the best-ranked achiever, and
    return that Fallback.

    The original condition stays as the Fallback's first child so a
    satisfied condition short-circuits. The ranking and the dead-end rule
    are the module docstring's; "relied on" means true at ``state``, and a
    dirty candidate (clearing a block inevitably fills the hand) wins only
    when nothing clean counts. The literals every achiever makes false, the
    target's complement and a negated target's witnesses as ground facts,
    are left out of the count: they would add the same number to every
    candidate's. Raises NoAchiever when no candidate counts, naming the
    first dead-end precondition met, or the target when no grounding
    achieves it.

    ``node`` is a condition leaf of ``tree`` that heads no expansion yet,
    such as the one ``plan`` reads from the tick trace; it is not looked up.
    """
    target = node.literal
    if domain.holds(state, target):
        raise InvalidTarget(f"condition {target} holds; expanding it is invalid")

    # the rows that make a negated target's positive form true
    witnesses = rows_matching(target.args, state.rows(target.predicate), state.registry) \
        if target.negated else None
    relied: dict[str, list[Literal]] = {}
    for lit in tree.condition_literals():
        # every candidate breaks the target's complement and a negated
        # target's witnesses as ground facts: they are not counted
        if lit.predicate == target.predicate and lit.negated != target.negated \
                and (lit.args == target.args or lit.args in (witnesses or ())):
            continue
        if domain.holds(state, lit):
            relied.setdefault(lit.predicate, []).append(lit)
    best: tuple[int, GroundAction] | None = None
    dead_end: Literal | None = None
    for broken, action in _scored_achievers(domain, state, target, relied, witnesses):
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
    return fallback


# --- simulation --------------------------------------------------------------

def _detect_conflict(trace: TickTrace, domain: Domain,
                     after: WorldState) -> TreeNode | None:
    """The subtree to move left when the fired action falsified a condition
    left of it, else None.

    The fired action is the trace's last node. A condition that succeeded
    earlier in this tick held in the state the action fired from, so only
    ``after`` needs checking, and only for a condition whose lowest common
    ancestor with the action is a Sequence other than the action's own
    parent: an action consuming one of its own preconditions (grasp using
    up the free hand) is normal; conflicts are between sibling subtrees.
    That ancestor is the deepest of the action's ancestors that comes
    before the condition in the trace, and the subtree returned is its
    child on the action's path, the next ancestor."""
    nodes, statuses = trace.nodes, trace.statuses
    ancestors = ancestor_indexes(trace.depths, len(nodes) - 1)
    # a condition between ancestor k and ancestor k + 1 has ancestor k as
    # its lowest common ancestor with the action, which rules out the parent
    for start, end in zip(ancestors, ancestors[1:]):
        if nodes[start].kind is not NodeKind.SEQUENCE:
            continue
        for i in range(start + 1, end):
            node = nodes[i]
            if statuses[i] is NodeStatus.SUCCESS and node.kind is NodeKind.CONDITION \
                    and not domain.holds(after, node.payload):
                return nodes[end]
    return None


def _pick_expansion_target(trace: TickTrace) -> int | None:
    """Trace index of the deepest (then leftmost) failed condition.

    It heads no expansion: a failed expanded condition passes the tick to
    its Fallback's branches, the Sequences expansion built, whose leaves sit
    one level deeper and either fail or fire an action, and a simulated
    action returns Running, which ends the tick."""
    best: int | None = None
    best_depth = -1
    for i, (node, status, depth) in enumerate(zip(trace.nodes, trace.statuses,
                                                  trace.depths)):
        if status is NodeStatus.FAILURE and node.kind is NodeKind.CONDITION \
                and depth > best_depth:
            best, best_depth = i, depth
    return best


def _failed_in(node: TreeNode, traces: list[TickTrace]) -> bool:
    """Whether ``node`` failed in any of the ticks."""
    for trace in traces:
        for visited, status in zip(trace.nodes, trace.statuses):
            if visited is node and status is NodeStatus.FAILURE:
                return True
    return False


def plan(goals: GoalSpec, domain: Domain, state: WorldState,
         config: PlanConfig | None = None, *,
         tree: BehaviorTree | None = None) -> BehaviorTree:
    """Grow a tree until its simulated execution achieves every goal conjunct.

    Planning sees only the visible part of the state. Simulated actions fire
    at most once per tick (Running propagation unwinds the tick), apply
    their visible effects immediately, and complete by the next tick. While
    a simulated tick fails, the deepest failed unexpanded condition is
    expanded and the same tick is run again (the module docstring's tick
    rule); a conflict, a fired action whose effects flip a condition that
    succeeded earlier in the same tick, scoped to a shared Sequence, moves
    the offending subtree left and restarts the simulation at tick 0;
    success returns the tree. ``bt.run_ticks``, keyed by the visible facts,
    stops a simulation that repeats a state or runs out of ticks.
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
    start = current = state.visible_only()

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal current
        current = domain.apply_effects(current, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(current, lit), step_action)
    expansions = 0
    reorders = 0
    try:
        while True:  # one simulation from tick 0 per pass
            current, traces = start, []  # traces: the ticks before this one
            for _ in run_ticks(lambda: current.true, config.max_sim_ticks):
                status, trace = tick(tree, ctx)
                while status is NodeStatus.FAILURE:
                    at = _pick_expansion_target(trace)
                    if at is None:
                        raise PlanBudgetExceeded("nothing left to expand", tree)
                    if expansions >= config.max_expansions:
                        raise PlanBudgetExceeded("expansion budget exhausted", tree)
                    target = trace.nodes[at]
                    try:
                        fallback = expand_condition(tree, target, domain, current)
                    except NoAchiever as e:
                        raise Unsolvable(e.literal) from e
                    expansions += 1
                    if _failed_in(target, traces):
                        break
                    status, trace = tick_spliced(trace, at, fallback, ctx)
                if status is NodeStatus.FAILURE:  # the expansion changed an earlier tick
                    break
                if status is NodeStatus.SUCCESS:
                    missing = [c for c in goals.conjuncts if not domain.holds(current, c)]
                    if missing:
                        raise PlanBudgetExceeded(
                            f"simulation succeeded without goal {missing[0]}", tree)
                    return tree
                conflict = _detect_conflict(trace, domain, current)
                if conflict is not None:
                    if reorders >= config.max_conflict_reorders:
                        raise PlanBudgetExceeded("conflict reorder budget exhausted", tree)
                    tree.move_left(conflict.id)
                    reorders += 1
                    break
                traces.append(trace)
    except TickBudgetExceeded as e:
        raise PlanBudgetExceeded(str(e), tree) from e
