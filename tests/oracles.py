"""Independent oracles the test suite checks the implementation against.

These deliberately share no code with the package internals: the tick
oracle folds over tuple-trees, the plan oracle is a breadth-first search
over the ground state space, the literal-evaluation references are the
plain enumerate-and-scan forms the indexed world state replaced, the
row-matching and effect-delta references are the generator and the
per-call loop over each grounded effect that the list comprehension and
the effect split kept with each grounding replaced, the
tree lookups are the preorder scans the tree's index replaced, and
the expansion reference ranks every candidate, each scored on a fully
built successor state against every relied-on literal, where the planner
scores from effect deltas, leaves out the literals every candidate breaks
and stops at the first clean candidate, the
duplicate-branch reference compares every pair of Fallback children with
``tree_equal``, as ``verify`` did before structural keys, the
reachability reference enumerates the ground actions afresh in every
state it expands, the grounding reference is the recursion over the free
slots that ``_groundings`` was before it became one product, and the
verification reference makes each check in a walk of its own and finds
each action's enclosing Sequence by a scan, as
``verify_tree`` did before its single pass, the livelock reference ticks
from every reachable state to a terminal status on its own, as
``_check_bounded_livelock`` did before it kept each state's outcome for
the walks that reach it later, and the conflict check and
expansion-target pick ask the tree's index where each node sits, as the
planner did before it read them from the tick trace, the plan
reference starts every simulation again at tick 0 after each expansion
and ticks each tick in full from the root in a simulation loop of its
own, as ``plan`` did before it expanded a failed tick in place and
spliced the new branch into it, and the fault-rule reference keeps a
rule's targets in two fields and looks each bound object's category up in
the domain at every fired action, as ``FaultRule`` did before ``where``
was resolved at load. ``validate`` (the
structural invariants of an edited tree), ``is_expanded``,
``failing_action`` and ``nested_tree_text`` are helpers that only tests
ask.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterator

from btpolicy.bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TickTrace,
                         TreeNode, iter_preorder, run_ticks, tick, tree_equal)
from btpolicy import verify
from btpolicy.domain import Domain, SkillTemplate, WorldState
from btpolicy.errors import (ArityMismatch, BtError, InvalidTarget, NoAchiever,
                             PlanBudgetExceeded, TickBudgetExceeded, TreeInvalid,
                             UnboundSlot, Unsolvable, UnknownNode)
from btpolicy.grammar import parse_literal
from btpolicy.planner import (GoalSpec, PlanConfig, _detect_conflict,
                              _pick_expansion_target, expand_condition, init_tree)
from btpolicy.sim import check_tree_domain
from btpolicy.terms import (ANY_OBJECT, GroundAction, Literal, Quantity, is_slot,
                            is_wildcard)
from btpolicy.verify import CHECKS, VerificationReport, Violation

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


def trace_status(trace: TickTrace, node_id: int) -> NodeStatus | None:
    """The status a tick recorded for a node; None when it was not visited."""
    for node, status in zip(trace.nodes, trace.statuses):
        if node.id == node_id:
            return status
    return None


def negation(lit: Literal) -> Literal:
    """The literal with its sign flipped."""
    return Literal(lit.predicate, lit.args, not lit.negated)


def reference_holds(domain: Domain, state: WorldState, lit: Literal, *,
                    include_hidden: bool = False) -> bool:
    """``Domain.holds`` by enumeration: each wildcard slot is tried with
    every name in the state's object registry."""
    pred = domain.predicate(lit.predicate)
    if len(lit.args) != pred.arity:
        raise ArityMismatch(lit.predicate, pred.arity, len(lit.args))
    for arg in lit.args:
        if is_slot(arg):
            raise UnboundSlot(arg, str(lit))
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


@dataclass(frozen=True)
class ReferenceFaultRule:
    """``sim.FaultRule`` as a scenario file's rule entry states it: each
    ``where`` slot pairs with one object name (``where``) or a category
    (``where_category``), and the guard is evaluated by ``reference_holds``."""

    skill: str
    where: tuple[tuple[str, str], ...]
    where_category: tuple[tuple[str, str], ...]
    guard: tuple[Literal, ...]

    @classmethod
    def from_entry(cls, entry: dict) -> "ReferenceFaultRule":
        where = (entry.get("where") or {}).items()
        return cls(entry["skill"],
                   tuple((slot, value) for slot, value in where if isinstance(value, str)),
                   tuple((slot, value["category"]) for slot, value in where
                         if not isinstance(value, str)),
                   tuple(parse_literal(text) for text in entry.get("guard") or ()))

    def matches(self, domain: Domain, action: GroundAction) -> bool:
        if action.skill != self.skill:
            return False
        for slot, required in self.where:
            if action.get(slot) != required:
                return False
        for slot, category in self.where_category:
            value = action.get(slot)
            if not isinstance(value, str):
                return False
            obj = domain.objects.get(value)
            if obj is None or obj.category != category:
                return False
        return True

    def fires(self, domain: Domain, state: WorldState, action: GroundAction) -> bool:
        if not self.matches(domain, action):
            return False
        binding = {k: v for k, v in action.binding if isinstance(v, str)}
        return all(reference_holds(domain, state, lit.substitute(binding),
                                   include_hidden=True) for lit in self.guard)


def reference_rows_matching(pattern: tuple[str, ...], rows: Collection[tuple[str, ...]],
                            allowed: frozenset[str] | None = None) -> Iterator[tuple[str, ...]]:
    """``domain.rows_matching`` as a generator that loops over the
    pattern's positions for each row."""
    arity = len(pattern)
    fixed = [(i, arg) for i, arg in enumerate(pattern) if arg != ANY_OBJECT]
    free = [i for i, arg in enumerate(pattern) if arg == ANY_OBJECT]
    for row in rows:
        if len(row) != arity:
            continue
        for i, arg in fixed:
            if row[i] != arg:
                break
        else:
            if allowed is None or all(row[i] in allowed for i in free):
                yield row


def reference_effect_delta(domain: Domain, state: WorldState,
                           action: GroundAction) -> tuple[set[Literal], set[Literal]]:
    """``Domain.effect_delta`` by sorting each grounded effect on every
    call: an addition, a ground delete made positive, or a wildcard delete
    matched against the state's rows."""
    remove: set[Literal] = set()
    add: set[Literal] = set()
    for lit in domain.skill(action.skill).grounded(action).effects:
        if not lit.negated:
            add.add(lit)
        elif ANY_OBJECT in lit.args:
            remove.update(Literal(lit.predicate, args) for args in
                          reference_rows_matching(lit.args, state.rows(lit.predicate)))
        else:
            remove.add(lit.positive())
    return add, remove


def scan_id_index(tree: BehaviorTree) -> dict[int, tuple[int, ...]]:
    """Map from node id to the child-index path from the root."""
    index: dict[int, tuple[int, ...]] = {}
    for node, path in _iter_paths(tree.root):
        index[node.id] = path
    return index



def failing_action(trace: TickTrace) -> int | None:
    """Id of the deepest action leaf that failed this tick, if any.

    Ties on depth resolve to the last such leaf visited, i.e. the one whose
    failure finally propagated. Failed conditions do not count; a tick that
    failed purely on conditions has no failing action.
    """
    best: TreeNode | None = None
    best_depth = -1
    for node, status, depth in zip(trace.nodes, trace.statuses, trace.depths):
        if node.kind is NodeKind.ACTION and status is NodeStatus.FAILURE \
                and depth >= best_depth:
            best, best_depth = node, depth
    return best.id if best else None

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


def scan_lca_child(tree: BehaviorTree, a_id: int, b_id: int) -> TreeNode:
    """The child of the two nodes' lowest common ancestor on ``a_id``'s
    path, from the scanned child-index paths."""
    index = scan_id_index(tree)
    a_path, b_path = index[a_id], index[b_id]
    depth = next(i for i, (a, b) in enumerate(zip(a_path, b_path)) if a != b)
    node = tree.root
    for i in a_path[:depth + 1]:
        node = node.children[i]
    return node


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
            if is_slot(arg):
                raise UnboundSlot(arg, f"effect {template} of {action.skill}")
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


def validate(tree: BehaviorTree) -> None:
    """Check the structural invariants of an edited tree; raise TreeInvalid
    on a violation."""
    seen: set[int] = set()
    for node, _ in iter_preorder(tree.root):
        if node.id in seen:
            raise TreeInvalid(f"duplicate node id {node.id}")
        seen.add(node.id)
        if node.id >= tree._next_id:
            raise TreeInvalid(f"node id {node.id} outside allocator range")
        if node.is_control:
            if not node.children:
                raise TreeInvalid(f"control node {node.id} has no children")
            if node.payload is not None:
                raise TreeInvalid(f"control node {node.id} carries a payload")
        else:
            if node.children:
                raise TreeInvalid(f"leaf node {node.id} has children")
            if node.kind is NodeKind.CONDITION and not isinstance(node.payload, Literal):
                raise TreeInvalid(f"condition node {node.id} lacks a literal payload")
            if node.kind is NodeKind.ACTION and not isinstance(node.payload, GroundAction):
                raise TreeInvalid(f"action node {node.id} lacks an action payload")


def nested_tree_text(depth: int) -> str:
    """``bt/v1`` text of ``depth`` Sequences, each the only child of the
    one above, around one condition leaf; built as a string, since
    ``json.dumps`` cannot recurse that deep either."""
    text = '{"id": %d, "kind": "condition", "payload": "on(red_cube, table)"}' % depth
    for node_id in range(depth - 1, -1, -1):
        text = '{"id": %d, "kind": "sequence", "children": [%s]}' % (node_id, text)
    return '{"schema": "bt/v1", "root": %s}' % text


def is_expanded(tree: BehaviorTree, node: TreeNode) -> bool:
    """A condition that already heads an expansion Fallback."""
    info = tree.parent_of(node.id)
    if info is None:
        return False
    parent, idx = info
    return parent.kind is NodeKind.FALLBACK and idx == 0 and len(parent.children) > 1


def reference_groundings(domain: Domain, state: WorldState, skill: SkillTemplate,
                         partial: dict[str, str]) -> Iterator[GroundAction]:
    """``planner._groundings`` as a recursion over the free slots that
    skips a name already bound, after checking each fixed value on its own."""
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
    pools = [domain.objects_in(s.category, state.registry) if s.category
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


def reference_ranking(tree: BehaviorTree, node: TreeNode, domain: Domain,
                      state: WorldState) -> list[GroundAction]:
    """Every grounding that achieves the node's literal, each scored on the
    state ``Domain.apply_effects`` builds for it: fewest relied-on condition
    literals knocked out first, then skill declaration, then binding order."""
    if node.kind is not NodeKind.CONDITION:
        raise InvalidTarget(f"node {node.id} is {node.kind.value}, not a condition")
    if is_expanded(tree, node):
        raise InvalidTarget(f"condition {node.id} was already expanded")
    target = node.literal
    if domain.holds(state, target):
        raise InvalidTarget(f"condition {target} holds; expanding it is invalid")

    relied_on = [lit for lit in _tree_condition_literals(tree)
                 if domain.holds(state, lit)]
    candidates: list[tuple[int, GroundAction]] = []
    seen: set[GroundAction] = set()
    for skill, partial in domain.achievers(target):
        for action in reference_groundings(domain, state, skill, partial):
            if action in seen:
                continue
            seen.add(action)
            after = domain.apply_effects(state, action)
            if domain.holds(after, target):
                broken = sum(1 for lit in relied_on if not domain.holds(after, lit))
                candidates.append((broken, action))
    candidates.sort(key=lambda c: c[0])  # stable: declaration, then binding order
    return [action for _, action in candidates]


def reference_expand_condition(tree: BehaviorTree, node: TreeNode, domain: Domain,
                               state: WorldState) -> BehaviorTree:
    """``planner.expand_condition`` from the full ranking: the one branch is
    the first ranked achiever whose every ground precondition holds in
    ``state`` or has an achiever."""
    viable = [action for action in reference_ranking(tree, node, domain, state)
              if all(domain.holds(state, lit) or domain.achievers(lit)
                     for lit in domain.ground_preconditions(action))]
    if not viable:
        raise NoAchiever(node.literal)
    action = viable[0]
    fallback = tree.new_node(NodeKind.FALLBACK, children=[node])
    leaves = [tree.new_condition(lit) for lit in domain.ground_preconditions(action)]
    leaves.append(tree.new_action(action))
    fallback.children.append(tree.new_node(NodeKind.SEQUENCE, children=leaves))
    tree.replace(node.id, fallback)
    return tree


def reference_detect_conflict(tree: BehaviorTree, trace: TickTrace, fired: TreeNode,
                              domain: Domain, after: WorldState) -> tuple[int, int] | None:
    """``planner._detect_conflict`` by lookups: each condition that
    succeeded before the fired action is found in the tree, and its lowest
    common ancestor with the action from their two ancestries."""
    for visited, status in zip(trace.nodes, trace.statuses):
        if visited.id == fired.id:
            break
        if visited.kind is not NodeKind.CONDITION or status is not NodeStatus.SUCCESS:
            continue
        cond = tree.find(visited.id)
        if domain.holds(after, cond.literal):
            continue
        for (lca, a_idx), (_, c_idx) in zip(tree.ancestry(fired.id), tree.ancestry(cond.id)):
            if a_idx != c_idx:
                break
        if lca.kind is NodeKind.SEQUENCE and c_idx < a_idx \
                and lca.children[a_idx].id != fired.id:
            return fired.id, cond.id
    return None


def reference_pick_expansion_target(tree: BehaviorTree, trace: TickTrace) -> TreeNode | None:
    """``planner._pick_expansion_target`` by lookups: whether a failed
    condition already heads a Fallback is asked of the tree's index."""
    best: TreeNode | None = None
    best_depth = -1
    for visited, status, depth in zip(trace.nodes, trace.statuses, trace.depths):
        if visited.kind is not NodeKind.CONDITION or status is not NodeStatus.FAILURE:
            continue
        if depth <= best_depth:
            continue
        node = tree.find(visited.id)
        if is_expanded(tree, node):
            continue
        best, best_depth = node, depth
    return best


def _reference_simulate(tree: BehaviorTree, state: WorldState, domain: Domain,
                        max_ticks: int
                        ) -> tuple[NodeStatus, WorldState, TickTrace, TreeNode | None]:
    """Tick from ``state`` until Success, Failure or a conflict, each tick
    in full from the root: the last tick's status, the state it ended in,
    its trace and the subtree a conflict moves left, or None."""
    current = state

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal current
        current = domain.apply_effects(current, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(current, lit), step_action)
    for _ in run_ticks(lambda: current.true, max_ticks):
        status, trace = tick(tree, ctx)
        if status is not NodeStatus.RUNNING:
            return status, current, trace, None
        conflict = _detect_conflict(trace, domain, current)
        if conflict is not None:
            return status, current, trace, conflict


def reference_plan(goals: GoalSpec, domain: Domain, state: WorldState,
                   config: PlanConfig | None = None, *,
                   tree: BehaviorTree | None = None) -> BehaviorTree:
    """``planner.plan`` with every simulation started again at tick 0 from
    the start state, after an expansion as after a conflict move, and every
    tick run in full from the root."""
    config = config or PlanConfig()
    for lit in goals.conjuncts:
        domain.check_literal(lit, objects=state.registry)
    if tree is None:
        tree = init_tree(goals)
    start = state.visible_only()
    expansions = reorders = 0
    while True:
        try:
            status, end, trace, conflict = _reference_simulate(tree, start, domain,
                                                               config.max_sim_ticks)
        except TickBudgetExceeded as e:
            raise PlanBudgetExceeded(str(e), tree) from e
        if status is NodeStatus.SUCCESS:
            missing = [c for c in goals.conjuncts if not domain.holds(end, c)]
            if missing:
                raise PlanBudgetExceeded(
                    f"simulation succeeded without goal {missing[0]}", tree)
            return tree
        if conflict is not None:
            if reorders >= config.max_conflict_reorders:
                raise PlanBudgetExceeded("conflict reorder budget exhausted", tree)
            tree.move_left(conflict.id)
            reorders += 1
            continue
        at = _pick_expansion_target(trace)
        if at is None:
            raise PlanBudgetExceeded("nothing left to expand", tree)
        if expansions >= config.max_expansions:
            raise PlanBudgetExceeded("expansion budget exhausted", tree)
        try:
            expand_condition(tree, trace.nodes[at], domain, end)
        except NoAchiever as e:
            raise Unsolvable(e.literal) from e
        expansions += 1


def _tree_condition_literals(tree: BehaviorTree) -> list[Literal]:
    """Distinct condition-leaf literals, in first-appearance order."""
    seen: set[str] = set()
    out: list[Literal] = []
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.CONDITION and str(node.literal) not in seen:
            seen.add(str(node.literal))
            out.append(node.literal)
    return out


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


def pairwise_duplicate_violations(tree: BehaviorTree) -> list[Violation]:
    """``distinct_fallback_children`` findings: under each Fallback, in
    preorder, one per child that is ``tree_equal`` to a later sibling."""
    found = []
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.FALLBACK:
            continue
        for i, first in enumerate(node.children):
            for second in node.children[i + 1:]:
                if tree_equal(first, second, ignore_ids=True):
                    found.append(Violation(
                        "distinct_fallback_children", node.id,
                        f"fallback has two identical children (like node {first.id})"))
                    break
    return found


def reference_reachable_states(domain: Domain, initial: WorldState) -> list[WorldState]:
    """Every visible state reachable from ``initial``, in BFS order, with
    the ground actions enumerated in each state expanded and every
    successor built before it is looked up."""
    start = initial.visible_only()
    seen = {start.true}
    order = [start]
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for skill in domain.skills.values():
            for action in reference_groundings(domain, state, skill, {}):
                if not applicable(domain, state, action):
                    continue
                nxt = domain.apply_effects(state, action)
                if nxt.true not in seen:
                    seen.add(nxt.true)
                    order.append(nxt)
                    queue.append(nxt)
    return order


def reference_run_to_terminal(tree: BehaviorTree, domain: Domain, start: WorldState,
                              ) -> tuple[NodeStatus | None, list[frozenset[Literal]]]:
    """Tick from ``start``, with plain effect application, under ``run_ticks``
    and ``verify.LIVELOCK_TICK_LIMIT``: the terminal status (None for a
    livelock) and the facts of each state ticked, in order."""
    state = start
    ticked: list[frozenset[Literal]] = []

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal state
        state = domain.apply_effects(state, leaf.action)
        return NodeStatus.RUNNING

    ctx = TickContext(lambda lit: domain.holds(state, lit), step_action)
    try:
        for _ in run_ticks(lambda: state.true, verify.LIVELOCK_TICK_LIMIT):
            ticked.append(state.true)
            status, _trace = tick(tree, ctx, record_trace=False)
            if status is not NodeStatus.RUNNING:
                return status, ticked
    except TickBudgetExceeded:
        return None, ticked


def reference_bounded_livelock(tree: BehaviorTree, domain: Domain, initial: WorldState,
                               found: list[Violation]) -> None:
    """The ``bounded_livelock`` findings, from a walk of its own from each
    state of ``reference_reachable_states`` (the first
    ``verify.REACHABLE_STATE_LIMIT`` of them)."""
    states = reference_reachable_states(domain, initial)
    limit = verify.REACHABLE_STATE_LIMIT
    if len(states) > limit:
        del states[limit:]
        found.append(Violation(
            "bounded_livelock", None,
            f"more than {limit} states are reachable; "
            f"ticking was checked from the first {limit} only"))
    for state in states:
        if reference_run_to_terminal(tree, domain, state)[0] is None:
            found.append(Violation(
                "bounded_livelock", None,
                f"ticking livelocks from state {{{', '.join(state.sorted_literals())}}}"))


def reference_verify_tree(tree: BehaviorTree, domain: Domain, goals: GoalSpec, *,
                          initial_state: WorldState | None = None) -> VerificationReport:
    """``verify.verify_tree`` with one walk per check: action bindings,
    condition literals and goal coverage, precondition rows (each action's
    Sequence found by ``scan_parent_of``) and pairwise duplicate Fallback
    children, then the whole-tree gate ``check_tree_domain`` before the
    livelock reference."""
    livelock = initial_state is not None and \
        len(initial_state.objects) <= verify.LIVELOCK_OBJECT_LIMIT
    report = VerificationReport(CHECKS if livelock else CHECKS[:-1])
    out = report.violations
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.ACTION:
            out.extend(Violation("action_bindings", node.id, message)
                       for message in _reference_binding_problems(node.action, domain))
    present = set()
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.CONDITION:
            present.add(str(node.literal))
            try:
                domain.check_literal(node.literal)
            except BtError as e:
                out.append(Violation("condition_literals", node.id,
                                     f"{node.literal} does not fit domain {domain.name}: {e}"))
    out.extend(Violation("goal_coverage", None,
                         f"goal {conjunct} has no condition leaf in the tree")
               for conjunct in goals.conjuncts if str(conjunct) not in present)
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.ACTION:
            out.extend(_reference_precondition_rows(tree, node, domain))
    out.extend(pairwise_duplicate_violations(tree))
    if livelock:
        check_tree_domain(tree, domain)
        reference_bounded_livelock(tree, domain, initial_state, out)
    return report


def _reference_binding_problems(action: GroundAction, domain: Domain) -> list[str]:
    skill = domain.skills.get(action.skill)
    if skill is None:
        return [f"unknown skill {action.skill!r}"]
    declared = {s.name for s in skill.params}
    found = [f"{action.skill} has no slot {name!r}"
             for name, _ in action.binding if name not in declared]
    for slot in skill.params:
        value = action.get(slot.name)
        if slot.kind == "object":
            if value is None:
                found.append(f"object slot {slot.name!r} of {action.skill} is unbound")
            elif not isinstance(value, str) or value not in domain.objects:
                found.append(f"slot {slot.name!r} bound to unknown object {value!r}")
            elif slot.category and domain.objects[value].category \
                    not in domain.categories_of(slot.category):
                found.append(f"object {value!r} is not admissible for slot {slot.name!r}")
        elif slot.kind == "numeric" and value is not None:
            if not isinstance(value, Quantity) or value.unit != (slot.unit or ""):
                found.append(f"numeric slot {slot.name!r} carries {value!r}, "
                             f"expected unit {slot.unit!r}")
        elif slot.kind == "categorical" and value is not None:
            if not isinstance(value, str):
                found.append(f"categorical slot {slot.name!r} carries {value!r}")
            elif slot.choices and value not in slot.choices:
                found.append(f"categorical slot {slot.name!r} carries {value!r}, "
                             f"not one of {', '.join(slot.choices)}")
    return found


def _reference_precondition_rows(tree: BehaviorTree, node: TreeNode,
                                 domain: Domain) -> list[Violation]:
    action = node.action
    skill = domain.skills.get(action.skill)
    if skill is None or any(not isinstance(action.get(s.name), str)
                            for s in skill.object_slots):
        return []
    required = domain.ground_preconditions(action)
    if not required:
        return []
    info = scan_parent_of(tree, node.id)
    if info is None or info[0].kind is not NodeKind.SEQUENCE:
        return [Violation("precondition_rows", node.id,
                          f"{action} declares preconditions but sits outside a Sequence")]
    guarding = []
    for sibling in info[0].children:
        head = sibling
        if sibling.kind is NodeKind.FALLBACK:
            head = sibling.children[0]
        if head.kind is NodeKind.CONDITION:
            guarding.append(head.literal)
    return [Violation("precondition_rows", node.id,
                      f"{action} lacks declared precondition {lit}")
            for lit in required if lit not in guarding]
