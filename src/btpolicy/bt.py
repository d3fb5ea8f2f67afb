"""Behavior tree representation, tick semantics, and structural editing.

Trees are plain values: control nodes (Sequence, Fallback) over condition and
action leaves. Ticking is memoryless; every tick re-evaluates from the root,
which is what makes the resulting policies reactive (``tick_spliced`` gives
the same result for a recorded tick after a one-leaf edit, ticking only the
new node). Node ids are integers
assigned monotonically per tree and survive edits, so traces and editing
operations can target nodes stably.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator

from . import grammar
from .errors import (InvalidTarget, ParseError, TickBudgetExceeded, TreeInvalid,
                     UnknownNode)
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class TickTrace:
    """Preorder record of one tick as three parallel lists: each visited
    node, its final status for the tick and its depth (the root's is 0).
    No object is made per visited node."""

    nodes: list[TreeNode] = field(default_factory=list)
    statuses: list[NodeStatus] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)


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


class BehaviorTree:
    """A tree plus its id allocator and three records of itself: an id ->
    (node, parent, child index) index, a count of the condition leaves per
    literal and each node's compact ``bt/v1`` text.

    One contract covers all three: the tree's own edits (``replace``,
    ``prepend``, ``move_left`` and ``rebind``) keep them current, and a
    direct edit to ``children``, ``root`` or a ``payload`` leaves them
    stale. The index and the counts are built together by one walk on first
    use; the texts are built per node when ``compact`` asks. Each edit ends
    in ``_edited``, the one step that brings all three up to date (README,
    Semantics notes).
    """

    def __init__(self, root: TreeNode, next_id: int | None = None):
        self.root = root
        self._index: dict[int, _Entry] | None = None
        # node id -> compact text; a cached node's descendants are cached too
        self._texts: dict[int, str] = {}
        # condition literal -> number of condition leaves carrying it
        self._literals: dict[Literal, int] | None = None
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

    def _build(self) -> tuple[dict[int, _Entry], dict[Literal, int]]:
        """Index and count the whole tree in one walk. Both are published
        whole, so a reader never sees them half built."""
        index: dict[int, _Entry] = {}
        counts: dict[Literal, int] = {}
        _record((self.root, None, 0), index, counts)
        self._literals, self._index = counts, index
        return index, counts

    def _edited(self, parent: TreeNode | None, removed: TreeNode | None = None,
                added: Iterable[TreeNode] = ()) -> None:
        """The bookkeeping step every edit ends in, once the tree's index is
        built. ``parent`` is the node whose children or payload changed, or
        None for a new root; ``removed`` is the subtree taken out and
        ``added`` the subtrees put in. Forgets and uncounts the removed
        nodes, re-records where ``parent``'s children sit, records and
        counts the added nodes, and drops the texts of ``parent`` and its
        ancestors; the walk stops at the first node without text, whose
        ancestors have none either."""
        index, counts, texts = self._index, self._literals, self._texts
        if removed is not None:
            for node, _ in iter_preorder(removed):
                del index[node.id]
                if node.kind is _CONDITION:
                    count = counts.pop(node.payload) - 1
                    if count:
                        counts[node.payload] = count
        if parent is None:
            index[self.root.id] = (self.root, None, 0)
        else:
            for i, child in enumerate(parent.children):
                index[child.id] = (child, parent, i)
        for node in added:
            _record(index[node.id], index, counts)
        while parent is not None and texts.pop(parent.id, None) is not None:
            parent = index[parent.id][1]

    def condition_literals(self) -> dict[Literal, int]:
        """Each distinct condition-leaf literal with the number of leaves
        that carry it; the tree's own, kept current by its edits, so the
        caller must not change it."""
        counts = self._literals
        return self._build()[1] if counts is None else counts

    def _locate(self, node_id: int) -> _Entry:
        try:
            return (self._index or self._build()[0])[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    @property
    def id_index(self) -> dict[int, tuple[int, ...]]:
        """Map from node id to the child-index path from the root."""
        return {node_id: tuple(i for _, i in self.ancestry(node_id))
                for node_id in self._index or self._build()[0]}

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
        old, parent, slot = self._locate(node_id)
        if parent is None:
            self.root = new
        else:
            parent.children[slot] = new
        self._edited(parent, old, (new,))

    def prepend(self, node_id: int, nodes: list[TreeNode]) -> None:
        """Put ``nodes``, in order, before the children of a control node."""
        parent = self._locate(node_id)[0]
        parent.children[:0] = nodes
        self._edited(parent, added=nodes)

    def move_left(self, node_id: int) -> None:
        """Swap a node with its left sibling."""
        node, parent, slot = self._locate(node_id)
        if parent is None or slot == 0:
            raise InvalidTarget(f"node {node_id} has no left sibling")
        parent.children[slot - 1:slot + 1] = [node, parent.children[slot - 1]]
        self._edited(parent)

    def rebind(self, node_id: int, action: GroundAction) -> None:
        """Give an action leaf a new action, such as one with a slot bound."""
        node = self._locate(node_id)[0]
        if node.kind is not NodeKind.ACTION:
            raise InvalidTarget(f"node {node_id} is {node.kind.value}, not an action")
        node.payload = action
        self._edited(node)

    def compact(self) -> str:
        """The ``root`` value of the ``bt/v1`` form as compact JSON:
        separators ``","`` and ``":"``, keys in ``bt/v1`` order, no
        whitespace. Built from each node's text, so after an edit only the
        edited node's ancestors and the new nodes are formatted again."""
        return _node_text(self.root, self._texts)

    def node_count(self) -> int:
        return sum(1 for _ in iter_preorder(self.root))


def _record(entry: _Entry, index: dict[int, _Entry], counts: dict[Literal, int]) -> None:
    """Record the subtree of ``entry``'s node in ``index``, the node itself
    at ``entry``, and count its condition leaves in ``counts``."""
    stack = [entry]
    while stack:
        entry = node, _, _ = stack.pop()
        index[node.id] = entry
        if node.children:
            stack.extend([(child, node, i) for i, child in enumerate(node.children)])
        elif node.kind is _CONDITION:
            counts[node.payload] = counts.get(node.payload, 0) + 1


def iter_preorder(node: TreeNode) -> Iterator[tuple[TreeNode, int]]:
    """Nodes with their depths (``node`` at 0), in preorder, from one
    explicit stack."""
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if node.children:
            depth += 1
            stack.extend([(child, depth) for child in reversed(node.children)])


# --- ticking ---------------------------------------------------------------

def tick(tree: BehaviorTree, ctx: TickContext, *,
         record_trace: bool = True) -> tuple[NodeStatus, TickTrace | None]:
    """Run one tick from the root.

    Sequences tick children left to right and return once all succeed or one
    does not; Fallbacks return once one child does not fail or all fail. A
    Running child propagates immediately. The trace lists visited nodes in
    preorder with each node's status for this tick; pass record_trace=False
    to skip trace construction on hot paths. An action that returns Running
    is the trace's last node, and a node's ancestors are, for each smaller
    depth, the last node before it at that depth.
    """
    trace = TickTrace() if record_trace else None
    status = _tick_node(tree.root, ctx, trace, 0)
    return status, trace


def run_ticks(progress: Callable[[], Hashable], max_ticks: int) -> Iterator[int]:
    """The one stop rule for a run of ticks: yields tick indexes, and the
    caller ticks once per index and leaves at the first tick that ends in
    Success or Failure. After every other tick, ``progress()`` keys the
    world; raises TickBudgetExceeded when a key repeats (the start's
    included) or after ``max_ticks`` ticks."""
    seen = {progress()}
    for index in range(max_ticks):
        yield index
        key = progress()
        if key in seen:
            raise TickBudgetExceeded(f"stopped making progress after {index + 1} ticks")
        seen.add(key)
    raise TickBudgetExceeded(f"tick budget {max_ticks} exhausted")


def _tick_node(node: TreeNode, ctx: TickContext,
               trace: TickTrace | None, depth: int) -> NodeStatus:
    if trace is not None:
        at = len(trace.nodes)
        trace.nodes.append(node)
        trace.statuses.append(_RUNNING)
        trace.depths.append(depth)

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

    if trace is not None:
        trace.statuses[at] = status
    return status


def tick_spliced(trace: TickTrace, at: int, node: TreeNode,
                 ctx: TickContext) -> tuple[NodeStatus, TickTrace]:
    """The tick ``trace`` records, run again after one edit: ``node``
    now stands where the trace's failed leaf at index ``at`` stood. Only
    ``node`` is ticked, at the leaf's depth, and the rest is read from
    ``trace``, which is left as it was; returns the status and trace a full
    ``tick`` of the edited tree gives.

    The nodes before the leaf are visited as they were. Either ``node``
    fails, as the leaf did, and every node after the leaf is visited as it
    was too; or it is Running, because it fired an action, which leaves
    each of the leaf's ancestors Running and ends the tick there. That is
    exact when ``ctx`` answers as it did in ``trace`` and only a Running
    tick of ``node`` changes what later leaves see, as in the planner's
    simulation, where a fired action returns Running and no other leaf
    changes the state."""
    spliced = TickTrace(trace.nodes[:at], trace.statuses[:at], trace.depths[:at])
    status = _tick_node(node, ctx, spliced, trace.depths[at])
    if status is _FAILURE:
        spliced.nodes += trace.nodes[at + 1:]
        spliced.statuses += trace.statuses[at + 1:]
        spliced.depths += trace.depths[at + 1:]
        return spliced.statuses[0], spliced
    assert status is _RUNNING
    for i in ancestor_indexes(trace.depths, at):
        spliced.statuses[i] = _RUNNING
    return status, spliced


def ancestor_indexes(depths: list[int], at: int) -> list[int]:
    """Trace indexes of the ancestors of the node at index ``at``, root
    first: for each smaller depth, the last index before ``at`` at that
    depth."""
    depth = depths[at]
    found = [0] * depth
    for i in range(at - 1, -1, -1):
        if depths[i] < depth:
            depth -= 1
            found[depth] = i
            if depth == 0:
                break
    return found


# --- structural editing ----------------------------------------------------

def insert_preconditions(tree: BehaviorTree, action_id: int,
                         conds: list[Literal]) -> BehaviorTree:
    """Insert condition leaves as the leftmost preconditions of an action.

    The conditions land at the front of the action's enclosing Sequence, in
    the given order, before any existing preconditions. An action sitting
    bare under a Fallback (or at the root) is instead wrapped in a new
    Sequence of the conditions and the action, its canonical precondition
    slot. Either way the tree makes one edit.
    """
    target = tree.find(action_id)
    if target.kind is not NodeKind.ACTION:
        raise InvalidTarget(f"node {action_id} is {target.kind.value}, not an action")
    if not conds:
        return tree
    where = tree.parent_of(action_id)
    if where is not None and where[0].kind is NodeKind.SEQUENCE:
        tree.prepend(where[0].id, [tree.new_condition(lit) for lit in conds])
    else:
        seq = tree.new_node(NodeKind.SEQUENCE)
        seq.children = [tree.new_condition(lit) for lit in conds] + [target]
        tree.replace(action_id, seq)
    return tree


# --- serialization ----------------------------------------------------------

TREE_SCHEMA = "bt/v1"


def serialize(tree: BehaviorTree) -> str:
    """Serialize to the documented JSON tree schema (schema id ``bt/v1``)."""
    root = json.loads(_node_text(tree.root, {}))  # a fresh cache: the nodes are read
    return json.dumps({"schema": TREE_SCHEMA, "root": root}, indent=2) + "\n"


_TEXT_HEADS = {kind: f'{{"kind":"{kind.value}","id":' for kind in NodeKind}
_json_string = json.encoder.encode_basestring_ascii  # what json.dumps writes


def _node_text(node: TreeNode, texts: dict[int, str]) -> str:
    """The node's compact bt/v1 text: ``kind``, ``id``, then ``payload``
    and ``children`` where present, escaped as ``json.dumps`` escapes,
    cached in ``texts`` by node id."""
    text = texts.get(node.id)
    if text is None:
        text = _TEXT_HEADS[node.kind] + str(node.id)
        if node.payload is not None:
            text += ',"payload":' + _json_string(str(node.payload))
        if node.kind in _CONTROL_KINDS:
            text += ',"children":[' + ",".join(
                [_node_text(child, texts) for child in node.children]) + "]"
        text += "}"
        texts[node.id] = text
    return text


def parse(text: str) -> BehaviorTree:
    """Parse the JSON tree schema back into a tree.

    Round-trips with serialize: structure, payloads, node ordering, and node
    ids are all preserved. Each distinct payload text is parsed once per
    call; leaves with equal text share the (frozen) payload value. The walk
    that builds the nodes raises TreeInvalid on a repeated id, so ids are
    checked without a second walk.
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
    ids: set[int] = set()
    root = _node_from_obj(data["root"], [], {}, ids)
    return BehaviorTree(root, next_id=max(ids) + 1)


def _where(path: list[int]) -> str:
    return "root" + "".join(f".children[{i}]" for i in path)


def _node_from_obj(obj, path: list[int],
                   payloads: dict[tuple[NodeKind, str], Literal | GroundAction],
                   ids: set[int]) -> TreeNode:
    """The node at ``path`` (child indexes from the root, extended in place
    while its children are read); ``payloads`` holds the values parsed so
    far by kind and text, ``ids`` the node ids read so far."""
    if not isinstance(obj, dict):
        raise ParseError(f"node at {_where(path)} is not an object",
                         expected="a node object")
    try:
        kind = NodeKind(obj["kind"])
    except (KeyError, ValueError):
        raise ParseError(f"node at {_where(path)} has bad kind {obj.get('kind')!r}",
                         expected="sequence|fallback|condition|action") from None
    node_id = obj.get("id")
    if not isinstance(node_id, int) or isinstance(node_id, bool):
        raise ParseError(f"node at {_where(path)} lacks an integer id",
                         expected="'id': int")
    if node_id in ids:
        raise TreeInvalid(f"duplicate node id {node_id}")
    ids.add(node_id)
    if kind in _CONTROL_KINDS:
        children_obj = obj.get("children")
        if not isinstance(children_obj, list) or not children_obj:
            raise ParseError(f"control node at {_where(path)} needs a non-empty "
                             "children list", expected="'children': [...]")
        children = []
        for i, child in enumerate(children_obj):
            path.append(i)
            children.append(_node_from_obj(child, path, payloads, ids))
            path.pop()
        return TreeNode(node_id, kind, children)
    payload_text = obj.get("payload")
    if not isinstance(payload_text, str):
        raise ParseError(f"leaf at {_where(path)} lacks a payload string",
                         expected="'payload': str")
    payload = payloads.get((kind, payload_text))
    if payload is None:
        try:
            if kind is NodeKind.CONDITION:
                payload = grammar.parse_literal(payload_text)
            else:
                payload = grammar.parse_action(payload_text)
        except ParseError as e:
            raise ParseError(f"bad payload at {_where(path)}: {e}") from e
        payloads[kind, payload_text] = payload
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
