"""Behavior tree representation, tick semantics, and structural editing.

Trees are plain values: control nodes (Sequence, Fallback) over condition and
action leaves. Ticking is memoryless; every tick re-evaluates from the root,
which is what makes the resulting policies reactive. Node ids are integers
assigned monotonically per tree and survive edits, so traces and editing
operations can target nodes stably.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from . import grammar
from .errors import InvalidTarget, ParseError, TreeInvalid, UnknownNode
from .terms import GroundAction, Literal


class NodeStatus(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RUNNING = "running"


class NodeKind(Enum):
    SEQUENCE = "sequence"
    FALLBACK = "fallback"
    CONDITION = "condition"
    ACTION = "action"


_CONTROL_KINDS = (NodeKind.SEQUENCE, NodeKind.FALLBACK)

# Hot-path aliases: tick runs over millions of nodes in the exhaustive
# semantics tests, where repeated enum attribute lookups dominate.
_SUCCESS = NodeStatus.SUCCESS
_FAILURE = NodeStatus.FAILURE
_RUNNING = NodeStatus.RUNNING
_CONDITION = NodeKind.CONDITION
_ACTION = NodeKind.ACTION
_SEQUENCE = NodeKind.SEQUENCE


@dataclass
class TreeNode:
    id: int
    kind: NodeKind
    children: list["TreeNode"] = field(default_factory=list)
    payload: Literal | GroundAction | None = None

    @property
    def is_control(self) -> bool:
        return self.kind in _CONTROL_KINDS

    @property
    def literal(self) -> Literal:
        assert isinstance(self.payload, Literal)
        return self.payload

    @property
    def action(self) -> GroundAction:
        assert isinstance(self.payload, GroundAction)
        return self.payload


@dataclass
class TraceEntry:
    node_id: int
    kind: NodeKind
    status: NodeStatus
    depth: int


@dataclass
class TickTrace:
    """Preorder record of one tick: visited nodes with their final statuses."""

    entries: list[TraceEntry] = field(default_factory=list)

    @property
    def root_status(self) -> NodeStatus:
        return self.entries[0].status

    def status_of(self, node_id: int) -> NodeStatus | None:
        for entry in self.entries:
            if entry.node_id == node_id:
                return entry.status
        return None


@dataclass
class TickContext:
    """Callbacks a tick uses to evaluate leaves.

    ``eval_condition`` maps a condition literal to a boolean; ``step_action``
    advances an action leaf and reports its status. Condition leaves can
    therefore never yield Running.
    """

    eval_condition: Callable[[Literal], bool]
    step_action: Callable[[TreeNode], NodeStatus]


_Entry = tuple[TreeNode, "TreeNode | None", int]
_MISSING: _Entry = (None, None, 0)  # type: ignore[assignment]


class BehaviorTree:
    """A tree plus its id allocator and a checked id -> (node, parent,
    child index) index.

    Every answer is checked against the tree: each recorded parent up to the
    root must still hold its child at the recorded index. A miss rebuilds
    the index once, so edits made directly to ``children`` or ``root`` need
    no invalidation (README, Semantics notes).
    """

    def __init__(self, root: TreeNode, next_id: int | None = None):
        self.root = root
        self._index: dict[int, _Entry] = {}
        if next_id is None:
            next_id = max((n.id for n, _ in iter_preorder(root)), default=-1) + 1
        self._next_id = next_id

    def fresh_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def new_node(self, kind: NodeKind, *, children: list[TreeNode] | None = None,
                 payload: Literal | GroundAction | None = None) -> TreeNode:
        return TreeNode(self.fresh_id(), kind, children or [], payload)

    def new_condition(self, lit: Literal) -> TreeNode:
        return self.new_node(NodeKind.CONDITION, payload=lit)

    def new_action(self, action: GroundAction) -> TreeNode:
        return self.new_node(NodeKind.ACTION, payload=action)

    def _reindex(self) -> dict[int, _Entry]:
        index: dict[int, _Entry] = {}

        def walk(node: TreeNode, parent: TreeNode | None, slot: int) -> None:
            index.setdefault(node.id, (node, parent, slot))
            for i, child in enumerate(node.children):
                walk(child, node, i)

        walk(self.root, None, 0)
        self._index = index  # published whole: readers never see it half built
        return index

    def _locate(self, node_id: int) -> _Entry:
        index = self._index
        entry = node, parent, slot = index.get(node_id, _MISSING)
        while parent is not None and slot < len(parent.children) \
                and parent.children[slot] is node:
            node, parent, slot = index[parent.id]
        if parent is not None or node is not self.root:
            entry = self._reindex().get(node_id)
            if entry is None:
                raise UnknownNode(node_id)
        return entry

    @property
    def id_index(self) -> dict[int, tuple[int, ...]]:
        """Map from node id to the child-index path from the root."""
        return {node_id: tuple(i for _, i in self.ancestry(node_id))
                for node_id in self._reindex()}

    def find(self, node_id: int) -> TreeNode:
        return self._locate(node_id)[0]

    def parent_of(self, node_id: int) -> tuple[TreeNode, int] | None:
        """Return (parent, child index) or None for the root."""
        _, parent, slot = self._locate(node_id)
        return None if parent is None else (parent, slot)

    def ancestry(self, node_id: int) -> list[tuple[TreeNode, int]]:
        """(ancestor, index of the child leading to the node), root first."""
        _, parent, slot = self._locate(node_id)
        steps = []
        while parent is not None:
            steps.append((parent, slot))
            _, parent, slot = self._index[parent.id]
        return steps[::-1]

    def replace(self, node_id: int, new: TreeNode) -> None:
        """Put ``new`` where the node sits (the root included); ``new`` may
        hold the replaced node, which is how wraps are made."""
        _, parent, slot = self._locate(node_id)
        if parent is None:
            self.root = new
        else:
            parent.children[slot] = new

    def validate(self) -> None:
        """Check structural invariants; raise TreeInvalid on violation."""
        seen: set[int] = set()
        for node, _ in iter_preorder(self.root):
            if node.id in seen:
                raise TreeInvalid(f"duplicate node id {node.id}")
            seen.add(node.id)
            if node.id >= self._next_id:
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

    def node_count(self) -> int:
        return sum(1 for _ in iter_preorder(self.root))


def iter_preorder(node: TreeNode, depth: int = 0) -> Iterator[tuple[TreeNode, int]]:
    yield node, depth
    for child in node.children:
        yield from iter_preorder(child, depth + 1)


# --- ticking ---------------------------------------------------------------

def tick(tree: BehaviorTree, ctx: TickContext, *,
         record_trace: bool = True) -> tuple[NodeStatus, TickTrace | None]:
    """Run one tick from the root.

    Sequences tick children left to right and return once all succeed or one
    does not; Fallbacks return once one child does not fail or all fail. A
    Running child propagates immediately. The trace lists visited nodes in
    preorder with each node's status for this tick; pass record_trace=False
    to skip trace construction on hot paths.
    """
    trace = TickTrace() if record_trace else None
    status = _tick_node(tree.root, ctx, trace, 0)
    return status, trace


def _tick_node(node: TreeNode, ctx: TickContext,
               trace: TickTrace | None, depth: int) -> NodeStatus:
    entry = None
    if trace is not None:
        entry = TraceEntry(node.id, node.kind, _RUNNING, depth)
        trace.entries.append(entry)

    kind = node.kind
    if kind is _CONDITION:
        status = _SUCCESS if ctx.eval_condition(node.payload) else _FAILURE
    elif kind is _ACTION:
        status = ctx.step_action(node)
    elif kind is _SEQUENCE:
        status = _SUCCESS
        for child in node.children:
            child_status = _tick_node(child, ctx, trace, depth + 1)
            if child_status is not _SUCCESS:
                status = child_status
                break
    else:  # FALLBACK
        status = _FAILURE
        for child in node.children:
            child_status = _tick_node(child, ctx, trace, depth + 1)
            if child_status is not _FAILURE:
                status = child_status
                break

    if entry is not None:
        entry.status = status
    return status


def failing_action(trace: TickTrace) -> int | None:
    """Id of the deepest action leaf that failed this tick, if any.

    Ties on depth resolve to the last such leaf visited, i.e. the one whose
    failure finally propagated. Failed conditions do not count; a tick that
    failed purely on conditions has no failing action.
    """
    best: TraceEntry | None = None
    for entry in trace.entries:
        if entry.kind is NodeKind.ACTION and entry.status is NodeStatus.FAILURE:
            if best is None or entry.depth >= best.depth:
                best = entry
    return best.node_id if best else None


# --- structural editing ----------------------------------------------------

def insert_preconditions(tree: BehaviorTree, action_id: int,
                         conds: list[Literal]) -> BehaviorTree:
    """Insert condition leaves as the leftmost preconditions of an action.

    The conditions land at the front of the action's enclosing Sequence, in
    the given order, before any existing preconditions. An action sitting
    bare under a Fallback (or at the root) is first wrapped in a singleton
    Sequence so it gains a canonical precondition slot.
    """
    target, parent, _ = tree._locate(action_id)
    if target.kind is not NodeKind.ACTION:
        raise InvalidTarget(f"node {action_id} is {target.kind.value}, not an action")
    if not conds:
        return tree

    if parent is None or parent.kind is not NodeKind.SEQUENCE:
        parent = tree.new_node(NodeKind.SEQUENCE, children=[target])
        tree.replace(action_id, parent)

    parent.children[:0] = [tree.new_condition(lit) for lit in conds]
    return tree


# --- serialization ----------------------------------------------------------

TREE_SCHEMA = "bt/v1"


def serialize(tree: BehaviorTree) -> str:
    """Serialize to the documented JSON tree schema (schema id ``bt/v1``)."""
    return json.dumps({"schema": TREE_SCHEMA, "root": _node_to_obj(tree.root)},
                      indent=2) + "\n"


def _node_to_obj(node: TreeNode) -> dict:
    obj: dict = {"kind": node.kind.value, "id": node.id}
    if node.payload is not None:
        obj["payload"] = str(node.payload)
    if node.is_control:
        obj["children"] = [_node_to_obj(c) for c in node.children]
    return obj


def parse(text: str) -> BehaviorTree:
    """Parse the JSON tree schema back into a tree.

    Round-trips with serialize: structure, payloads, node ordering, and node
    ids are all preserved.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid tree file: {e.msg}", line=e.lineno,
                         column=e.colno, expected="well-formed JSON") from e
    if not isinstance(data, dict) or "root" not in data:
        raise ParseError("tree file must be an object with a 'root' key",
                         expected="{'schema': ..., 'root': ...}")
    if data.get("schema") != TREE_SCHEMA:
        raise ParseError(f"unsupported tree schema {data.get('schema')!r}",
                         expected=TREE_SCHEMA)
    root = _node_from_obj(data["root"], "root")
    tree = BehaviorTree(root)
    tree.validate()
    return tree


def _node_from_obj(obj, where: str) -> TreeNode:
    if not isinstance(obj, dict):
        raise ParseError(f"node at {where} is not an object", expected="a node object")
    try:
        kind = NodeKind(obj["kind"])
    except (KeyError, ValueError):
        raise ParseError(f"node at {where} has bad kind {obj.get('kind')!r}",
                         expected="sequence|fallback|condition|action") from None
    node_id = obj.get("id")
    if not isinstance(node_id, int):
        raise ParseError(f"node at {where} lacks an integer id", expected="'id': int")
    if kind in _CONTROL_KINDS:
        children_obj = obj.get("children")
        if not isinstance(children_obj, list) or not children_obj:
            raise ParseError(f"control node at {where} needs a non-empty children list",
                             expected="'children': [...]")
        children = [_node_from_obj(c, f"{where}.children[{i}]")
                    for i, c in enumerate(children_obj)]
        return TreeNode(node_id, kind, children)
    payload_text = obj.get("payload")
    if not isinstance(payload_text, str):
        raise ParseError(f"leaf at {where} lacks a payload string", expected="'payload': str")
    try:
        if kind is NodeKind.CONDITION:
            payload: Literal | GroundAction = grammar.parse_literal(payload_text)
        else:
            payload = grammar.parse_action(payload_text)
    except ParseError as e:
        raise ParseError(f"bad payload at {where}: {e}") from e
    return TreeNode(node_id, kind, [], payload)


def to_dot(tree: BehaviorTree) -> str:
    """Graphviz export. Conditions carry a '?' suffix, actions '!',
    negation prints as a '~' prefix; sequences are arrows, fallbacks '?'."""
    lines = ["digraph bt {", "  node [fontname=\"sans-serif\"];"]
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.SEQUENCE:
            label, shape = "→", "box"
        elif node.kind is NodeKind.FALLBACK:
            label, shape = "?", "box"
        elif node.kind is NodeKind.CONDITION:
            label, shape = _escape(str(node.payload) + "?"), "ellipse"
        else:
            label, shape = _escape(str(node.payload) + "!"), "box"
        lines.append(f'  n{node.id} [label="{label}", shape={shape}];')
    for node, _ in iter_preorder(tree.root):
        for child in node.children:
            lines.append(f"  n{node.id} -> n{child.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_equal(a: BehaviorTree | TreeNode, b: BehaviorTree | TreeNode, *,
               ignore_ids: bool = True) -> bool:
    """Structural equality: kind, payload, and child order; ids optional."""
    na = a.root if isinstance(a, BehaviorTree) else a
    nb = b.root if isinstance(b, BehaviorTree) else b
    return _node_equal(na, nb, ignore_ids)


def _node_equal(a: TreeNode, b: TreeNode, ignore_ids: bool) -> bool:
    if a.kind is not b.kind or len(a.children) != len(b.children):
        return False
    if not ignore_ids and a.id != b.id:
        return False
    pa = str(a.payload) if a.payload is not None else None
    pb = str(b.payload) if b.payload is not None else None
    if pa != pb:
        return False
    return all(_node_equal(x, y, ignore_ids) for x, y in zip(a.children, b.children))
