"""Independent oracles the test suite checks the implementation against.

These deliberately share no code with the package internals: the tick
oracle folds over tuple-trees, the plan oracle is a breadth-first search
over the ground state space, the literal-evaluation references are the
plain enumerate-and-scan forms the indexed world state replaced, and the
tree lookups are the preorder scans the tree's checked index replaced.
"""

from __future__ import annotations

import itertools
from collections import deque

from btpolicy.bt import BehaviorTree, NodeStatus, TreeNode, iter_preorder
from btpolicy.domain import Domain, WorldState
from btpolicy.errors import ArityMismatch, UnboundSlot, UnknownNode
from btpolicy.terms import (ANY_OBJECT, GroundAction, Literal, is_param,
                            is_placeholder, is_wildcard)

# Tuple-tree encoding: ("leaf", NodeStatus) | ("seq"|"fb", (child, ...))


def oracle_status(tree) -> NodeStatus:
    """Brute-force recursive evaluation of a fixed-status tuple-tree."""
    kind, payload = tree
    if kind == "leaf":
        return payload
    if kind == "seq":
        for child in payload:
            status = oracle_status(child)
            if status is not NodeStatus.SUCCESS:
                return status
        return NodeStatus.SUCCESS
    for child in payload:  # fallback
        status = oracle_status(child)
        if status is not NodeStatus.FAILURE:
            return status
    return NodeStatus.FAILURE


def reference_holds(domain: Domain, state: WorldState, lit: Literal, *,
                    include_hidden: bool = False) -> bool:
    """``Domain.holds`` by enumeration: each wildcard slot is tried with
    every name in the state's object registry."""
    pred = domain.predicate(lit.predicate)
    if len(lit.args) != pred.arity:
        raise ArityMismatch(lit.predicate, pred.arity, len(lit.args))
    for arg in lit.args:
        if is_param(arg) or is_placeholder(arg):
            raise UnboundSlot(arg[1:], str(lit))
    facts = state.true | state.hidden if include_hidden else state.true
    positive = lit.positive()
    slots = [i for i, a in enumerate(positive.args) if is_wildcard(a)]
    found = False
    for combo in itertools.product(state.object_names, repeat=len(slots)):
        args = list(positive.args)
        for i, value in zip(slots, combo):
            args[i] = value
        if Literal(positive.predicate, tuple(args)) in facts:
            found = True
            break
    return not found if lit.negated else found


def scan_id_index(tree: BehaviorTree) -> dict[int, tuple[int, ...]]:
    """Map from node id to the child-index path from the root."""
    index: dict[int, tuple[int, ...]] = {}
    for node, path in _iter_paths(tree.root):
        index[node.id] = path
    return index


def scan_find(tree: BehaviorTree, node_id: int) -> TreeNode:
    for node, _ in iter_preorder(tree.root):
        if node.id == node_id:
            return node
    raise UnknownNode(node_id)


def scan_parent_of(tree: BehaviorTree, node_id: int) -> tuple[TreeNode, int] | None:
    """Return (parent, child index) or None for the root."""
    for node, _ in iter_preorder(tree.root):
        for i, child in enumerate(node.children):
            if child.id == node_id:
                return node, i
    if tree.root.id == node_id:
        return None
    raise UnknownNode(node_id)


def _iter_paths(node: TreeNode, path: tuple[int, ...] = ()):
    yield node, path
    for i, child in enumerate(node.children):
        yield from _iter_paths(child, path + (i,))


def reference_apply_effects(domain: Domain, state: WorldState,
                            action: GroundAction) -> WorldState:
    """``Domain.apply_effects`` by scanning every fact for each wildcard
    delete; a wildcard there matches any argument, registered or not."""
    binding = {k: v for k, v in action.binding if isinstance(v, str)}
    grounded = []
    for template in domain.skill(action.skill).effects:
        lit = template.substitute(binding)
        for arg in lit.args:
            if is_param(arg):
                raise UnboundSlot(arg[1:], f"effect {template} of {action.skill}")
        grounded.append(lit)
    remove: set[Literal] = set()
    add: set[Literal] = set()
    for lit in grounded:
        if not lit.negated:
            if lit.has_wildcard:
                raise UnboundSlot(ANY_OBJECT, f"positive effect {lit} of {action.skill}")
            add.add(lit)
            continue
        pos = lit.positive()
        remove.update(f for f in state.true
                      if f.predicate == pos.predicate and len(f.args) == len(pos.args)
                      and all(is_wildcard(p) or p == a for p, a in zip(pos.args, f.args)))
    return WorldState(state.objects, (state.true - remove) | add, state.hidden)


def ground_actions(domain: Domain, state: WorldState) -> list[GroundAction]:
    """Every object-slot grounding, duplicates allowed (more permissive
    than the planner's enumeration on purpose)."""
    actions = []
    names = sorted(state.object_names)
    for skill in domain.skills.values():
        slots = skill.object_slots
        pools = []
        for slot in slots:
            if slot.category:
                allowed = set(domain.categories_of(slot.category))
                pools.append([n for n in names
                              if domain.objects[n].category in allowed])
            else:
                pools.append(list(names))
        for combo in itertools.product(*pools):
            actions.append(GroundAction.from_mapping(
                skill.name, dict(zip((s.name for s in slots), combo))))
    return actions


def applicable(domain: Domain, state: WorldState, action: GroundAction) -> bool:
    return all(domain.holds(state, lit)
               for lit in domain.ground_preconditions(action))


def bfs_plan(domain: Domain, state: WorldState,
             goals: list[Literal], limit: int = 200_000) -> list[GroundAction] | None:
    """Shortest action sequence reaching all goals, or None if unreachable."""
    start = state.visible_only()

    def satisfied(s: WorldState) -> bool:
        return all(domain.holds(s, g) for g in goals)

    if satisfied(start):
        return []
    seen = {start.true}
    queue = deque([(start, [])])
    expanded = 0
    while queue:
        current, path = queue.popleft()
        expanded += 1
        if expanded > limit:
            raise RuntimeError("state space larger than the oracle limit")
        for action in ground_actions(domain, current):
            if not applicable(domain, current, action):
                continue
            nxt = domain.apply_effects(current, action)
            if nxt.true in seen:
                continue
            new_path = path + [action]
            if satisfied(nxt):
                return new_path
            seen.add(nxt.true)
            queue.append((nxt, new_path))
    return None
