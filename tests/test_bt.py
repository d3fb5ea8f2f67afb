import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpolicy import bt
from btpolicy.bt import (BehaviorTree, NodeKind, NodeStatus, TickContext,
                         TreeNode, failing_action, insert_preconditions,
                         iter_preorder, tick, tree_equal)
from btpolicy.errors import InvalidTarget, ParseError, TreeInvalid, UnknownNode
from btpolicy.planner import _reorder_for_conflict
from btpolicy.terms import GroundAction, Literal

from oracles import oracle_status, scan_find, scan_id_index, scan_parent_of

S, F, R = NodeStatus.SUCCESS, NodeStatus.FAILURE, NodeStatus.RUNNING

TRUE = Literal("truthy")
FALSE = Literal("falsy")
STATUS_BY_SKILL = {"act_s": S, "act_f": F, "act_r": R}


def cond(tree, value: bool) -> TreeNode:
    return tree.new_condition(TRUE if value else FALSE)


def act(tree, status: NodeStatus) -> TreeNode:
    skill = {S: "act_s", F: "act_f", R: "act_r"}[status]
    return tree.new_action(GroundAction(skill))


def make_tree(builder) -> BehaviorTree:
    tree = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    tree.root.children.extend(builder(tree))
    return tree


def fixed_ctx(visited=None):
    def eval_condition(lit):
        return lit.predicate == "truthy"

    def step_action(leaf):
        if visited is not None:
            visited.append(leaf.id)
        return STATUS_BY_SKILL[leaf.action.skill]

    return TickContext(eval_condition, step_action)


class TestTickSemantics:
    def test_sequence_all_succeed(self):
        tree = make_tree(lambda t: [cond(t, True), cond(t, True)])
        status, trace = tick(tree, fixed_ctx())
        assert status is S
        assert trace.root_status is S

    def test_fallback_all_fail(self):
        tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)
        tree.root.children.extend([cond(tree, False), cond(tree, False)])
        status, _ = tick(tree, fixed_ctx())
        assert status is F

    def test_sequence_short_circuits_before_action(self):
        visited = []
        tree = make_tree(lambda t: [cond(t, False), act(t, S)])
        status, trace = tick(tree, fixed_ctx(visited))
        assert status is F
        assert visited == []
        action_id = tree.root.children[1].id
        assert trace.status_of(action_id) is None

    def test_fallback_short_circuits_on_success(self):
        visited = []
        tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)
        tree.root.children.extend([cond(tree, True), act(tree, S)])
        status, _ = tick(tree, fixed_ctx(visited))
        assert status is S
        assert visited == []

    def test_running_propagates_immediately(self):
        visited = []
        tree = make_tree(lambda t: [cond(t, True), act(t, R), act(t, S)])
        status, _ = tick(tree, fixed_ctx(visited))
        assert status is R
        assert len(visited) == 1

    def test_trace_is_preorder_and_root_first(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        _, trace = tick(tree, fixed_ctx())
        ids = [e.node_id for e in trace.entries]
        preorder = [n.id for n, _ in iter_preorder(tree.root)]
        assert ids == preorder
        assert trace.entries[0].node_id == tree.root.id
        assert [e.depth for e in trace.entries] == [0, 1, 1]

    def test_tick_deterministic(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, F), act(t, S)])
        first = tick(tree, fixed_ctx())
        second = tick(tree, fixed_ctx())
        assert first[0] is second[0]
        assert [(e.node_id, e.status) for e in first[1].entries] == \
               [(e.node_id, e.status) for e in second[1].entries]


@st.composite
def status_trees(draw, depth=3):
    if depth == 1 or draw(st.booleans()):
        return ("leaf", draw(st.sampled_from([S, F, R])))
    kind = draw(st.sampled_from(["seq", "fb"]))
    children = tuple(draw(status_trees(depth=depth - 1))
                     for _ in range(draw(st.integers(1, 3))))
    return (kind, children)


def build_real(tree: BehaviorTree, tuple_tree) -> TreeNode:
    kind, payload = tuple_tree
    if kind == "leaf":
        return act(tree, payload)
    node_kind = NodeKind.SEQUENCE if kind == "seq" else NodeKind.FALLBACK
    node = tree.new_node(node_kind)
    node.children.extend(build_real(tree, c) for c in payload)
    return node


@given(status_trees(depth=4))
@settings(max_examples=300, deadline=None)
def test_tick_agrees_with_recursive_oracle(tuple_tree):
    holder = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    root = build_real(holder, tuple_tree)
    tree = BehaviorTree(root, next_id=holder._next_id)
    status, _ = tick(tree, fixed_ctx())
    assert status is oracle_status(tuple_tree)


class TestFailingAction:
    def test_deepest_failing_action_found(self):
        tree = make_tree(lambda t: [act(t, F)])
        _, trace = tick(tree, fixed_ctx())
        assert failing_action(trace) == tree.root.children[0].id

    def test_fully_successful_tick_has_none(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        _, trace = tick(tree, fixed_ctx())
        assert failing_action(trace) is None

    def test_condition_failures_do_not_count(self):
        tree = make_tree(lambda t: [cond(t, False)])
        _, trace = tick(tree, fixed_ctx())
        assert failing_action(trace) is None

    def test_depth_breaks_ties(self):
        # fallback: first branch fails shallow, second fails deeper
        tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)
        shallow = act(tree, F)
        deep_seq = tree.new_node(NodeKind.SEQUENCE)
        deep = act(tree, F)
        deep_seq.children.append(deep)
        tree.root.children.extend([shallow, deep_seq])
        _, trace = tick(tree, fixed_ctx())
        assert failing_action(trace) == deep.id


class TestInsertPreconditions:
    def lit(self, name):
        return Literal(name, ("x",))

    def test_inserts_leftmost_in_enclosing_sequence(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        action_id = tree.root.children[1].id
        insert_preconditions(tree, action_id, [self.lit("p")])
        payloads = [str(c.payload) for c in tree.root.children]
        assert payloads[0] == "p(x)"
        tree.validate()

    def test_insert_empty_is_identity(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        before = bt.serialize(tree)
        insert_preconditions(tree, tree.root.children[1].id, [])
        assert bt.serialize(tree) == before

    def test_bare_action_under_fallback_gets_wrapped(self):
        tree = BehaviorTree(TreeNode(0, NodeKind.FALLBACK), next_id=1)
        action = act(tree, S)
        tree.root.children.extend([cond(tree, False), action])
        insert_preconditions(tree, action.id, [self.lit("p")])
        wrapper = tree.root.children[1]
        assert wrapper.kind is NodeKind.SEQUENCE
        assert [c.kind for c in wrapper.children] == \
               [NodeKind.CONDITION, NodeKind.ACTION]
        assert wrapper.children[1].id == action.id
        tree.validate()

    def test_preorder_positions_of_two_inserts(self):
        # derived with the preorder walk: new conds, old conds, then action
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        old_cond = tree.root.children[0].id
        action_id = tree.root.children[1].id
        insert_preconditions(tree, action_id, [self.lit("c1"), self.lit("c2")])
        order = {n.id: i for i, (n, _) in enumerate(iter_preorder(tree.root))}
        c1, c2 = tree.root.children[0].id, tree.root.children[1].id
        assert order[c1] < order[c2] < order[old_cond] < order[action_id]

    def test_edit_locality_outside_ids_unchanged(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        sibling = tree.new_node(NodeKind.FALLBACK, children=[cond(tree, True)])
        tree.root.children.append(sibling)
        seq = tree.new_node(NodeKind.SEQUENCE,
                            children=[cond(tree, True), act(tree, S)])
        tree.root.children.append(seq)
        target = seq.children[1].id
        outside_before = {n.id for n, _ in iter_preorder(sibling)}
        insert_preconditions(tree, target, [self.lit("p")])
        outside_after = {n.id for n, _ in iter_preorder(tree.root.children[2])}
        assert outside_before == outside_after

    def test_unknown_node(self):
        tree = make_tree(lambda t: [act(t, S)])
        with pytest.raises(UnknownNode):
            insert_preconditions(tree, 999, [self.lit("p")])

    def test_non_action_target(self):
        tree = make_tree(lambda t: [cond(t, True)])
        with pytest.raises(InvalidTarget):
            insert_preconditions(tree, tree.root.children[0].id, [self.lit("p")])


class TestSerialization:
    def test_single_condition_round_trip(self):
        tree = BehaviorTree(TreeNode(0, NodeKind.CONDITION, [], TRUE), next_id=1)
        parsed = bt.parse(bt.serialize(tree))
        assert tree_equal(parsed, tree, ignore_ids=False)

    def test_round_trip_preserves_preorder_ids(self):
        tree = make_tree(lambda t: [cond(t, True),
                                    t.new_action(GroundAction("act_s", (("obj", "mug"),)))])
        parsed = bt.parse(bt.serialize(tree))
        assert [n.id for n, _ in iter_preorder(parsed.root)] == \
               [n.id for n, _ in iter_preorder(tree.root)]
        assert bt.serialize(parsed) == bt.serialize(tree)

    def test_unclosed_node_is_parse_error_with_position(self):
        broken = bt.serialize(make_tree(lambda t: [cond(t, True)]))[:-10]
        with pytest.raises(ParseError) as err:
            bt.parse(broken)
        assert err.value.line is not None

    def test_bad_kind_rejected(self):
        with pytest.raises(ParseError):
            bt.parse('{"schema": "bt/v1", "root": {"kind": "loop", "id": 0, '
                     '"children": [{"kind": "condition", "id": 1, "payload": "p"}]}}')

    def test_control_needs_children(self):
        with pytest.raises(ParseError):
            bt.parse('{"schema": "bt/v1", "root": {"kind": "sequence", "id": 0, '
                     '"children": []}}')

    def test_to_dot_conventions(self):
        tree = make_tree(lambda t: [
            t.new_condition(Literal("on", ("a", "b"), negated=True)),
            t.new_action(GroundAction("grasp", (("obj", "a"),)))])
        dot = bt.to_dot(tree)
        assert "~on(a, b)?" in dot
        assert "grasp(obj=a)!" in dot
        assert dot.count("->") == 2


class TestValidate:
    def test_duplicate_ids_rejected(self):
        dup = TreeNode(1, NodeKind.CONDITION, [], TRUE)
        root = TreeNode(0, NodeKind.SEQUENCE, [dup, TreeNode(1, NodeKind.CONDITION, [], TRUE)])
        with pytest.raises(TreeInvalid):
            BehaviorTree(root).validate()

    def test_leaf_with_children_rejected(self):
        bad = TreeNode(1, NodeKind.CONDITION, [TreeNode(2, NodeKind.CONDITION, [], TRUE)], TRUE)
        with pytest.raises(TreeInvalid):
            BehaviorTree(TreeNode(0, NodeKind.SEQUENCE, [bad])).validate()

    def test_id_index_matches_structure(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, S)])
        index = tree.id_index
        assert index[tree.root.id] == ()
        assert index[tree.root.children[1].id] == (1,)


def test_golden_policy_file_round_trips_with_identical_ids():
    from btpolicy.sim import bundled_data_path
    text = (bundled_data_path("goldens") / "cube_stack_after.json").read_text()
    parsed = bt.parse(text)
    assert bt.serialize(parsed) == text
    reparsed = bt.parse(bt.serialize(parsed))
    assert [n.id for n, _ in iter_preorder(reparsed.root)] == \
        [n.id for n, _ in iter_preorder(parsed.root)]


def test_insert_preconditions_wraps_root_action():
    tree = BehaviorTree(
        TreeNode(0, NodeKind.ACTION, [], GroundAction("act_s")), next_id=1)
    insert_preconditions(tree, 0, [Literal("ready")])
    assert tree.root.kind is NodeKind.SEQUENCE
    assert [c.kind for c in tree.root.children] == \
        [NodeKind.CONDITION, NodeKind.ACTION]
    tree.validate()


# --- checked id index ---------------------------------------------------------

def golden_tree_text() -> str:
    from btpolicy.sim import bundled_data_path
    return (bundled_data_path("goldens") / "cube_stack_after.json").read_text()


def assert_lookups_match_scans(tree: BehaviorTree, absent: set[int]) -> None:
    """find, parent_of, ancestry and id_index agree with the preorder scans."""
    paths = scan_id_index(tree)
    assert tree.id_index == paths
    for node_id, path in paths.items():
        assert tree.find(node_id) is scan_find(tree, node_id)
        got, want = tree.parent_of(node_id), scan_parent_of(tree, node_id)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] is want[0] and got[1] == want[1]
        node, steps = tree.root, []
        for index in path:
            steps.append((node, index))
            node = node.children[index]
        got_steps = tree.ancestry(node_id)
        assert [i for _, i in got_steps] == [i for _, i in steps]
        assert all(a is b for (a, _), (b, _) in zip(got_steps, steps))
    for node_id in absent - paths.keys():
        with pytest.raises(UnknownNode):
            tree.find(node_id)
        with pytest.raises(UnknownNode):
            tree.parent_of(node_id)


def _pick(items: list, seed: int):
    return items[seed % len(items)] if items else None


def _nodes(node: TreeNode) -> list[TreeNode]:
    return [n for n, _ in iter_preorder(node)]


def _controls(tree: BehaviorTree) -> list[TreeNode]:
    return [n for n in _nodes(tree.root) if n.is_control]


def _wrap(tree: BehaviorTree, seed: int, root_only: bool = False) -> None:
    node = tree.root if root_only else _pick(_nodes(tree.root), seed)
    before = scan_parent_of(tree, node.id)
    kind = NodeKind.SEQUENCE if seed % 2 else NodeKind.FALLBACK
    wrapper = tree.new_node(kind, children=[node])
    tree.replace(node.id, wrapper)
    after = scan_parent_of(tree, wrapper.id)
    if before is None:
        assert after is None and tree.root is wrapper
    else:
        assert after is not None and after[0] is before[0] and after[1] == before[1]
    assert scan_parent_of(tree, node.id) == (wrapper, 0)


def _insert(tree: BehaviorTree, seed: int) -> None:
    actions = [n for n in _nodes(tree.root) if n.kind is NodeKind.ACTION]
    action = _pick(actions, seed)
    if action is None:
        return
    lits = [Literal(f"p{seed % 5}"), Literal(f"q{seed % 3}")][:1 + seed % 2]
    insert_preconditions(tree, action.id, lits)
    parent, index = scan_parent_of(tree, action.id)
    assert parent.kind is NodeKind.SEQUENCE
    assert [c.payload for c in parent.children[:len(lits)]] == lits
    assert parent.children[index] is action


def _swap(tree: BehaviorTree, seed: int) -> None:
    seqs = [n for n in _nodes(tree.root)
            if n.kind is NodeKind.SEQUENCE and len(n.children) > 1]
    seq = _pick(seqs, seed)
    if seq is None:
        return
    a = 1 + seed % (len(seq.children) - 1)
    c = (a + 1 + seed // 7 % (len(seq.children) - 1)) % len(seq.children)
    moved, other = seq.children[a], seq.children[a - 1]
    mover = _pick(_nodes(seq.children[a]), seed // 11)
    guard = _pick(_nodes(seq.children[c]), seed // 13)
    _reorder_for_conflict(tree, mover.id, guard.id)
    assert seq.children[a - 1] is moved and seq.children[a] is other


def _front(tree: BehaviorTree, seed: int) -> None:
    _pick(_controls(tree), seed).children[:0] = [tree.new_condition(Literal("front"))]


def _append(tree: BehaviorTree, seed: int) -> None:
    _pick(_controls(tree), seed).children.append(tree.new_action(GroundAction("act_s")))


def _pop(tree: BehaviorTree, seed: int) -> None:
    wide = [n for n in _controls(tree) if len(n.children) > 1]
    if wide:
        _pick(wide, seed).children.pop()


def _assign_root(tree: BehaviorTree, seed: int) -> None:
    if seed % 2:
        tree.root = tree.new_node(NodeKind.SEQUENCE, children=[tree.root])
    else:
        tree.root = _pick(_controls(tree), seed // 2)


EDITS = {"wrap": _wrap, "root_wrap": lambda t, s: _wrap(t, s, root_only=True),
         "insert": _insert, "swap": _swap, "front": _front, "append": _append,
         "pop": _pop, "assign_root": _assign_root}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(EDITS) + ["check"]),
                          st.integers(0, 10_000)), max_size=30))
def test_index_matches_scans_after_random_edits(edits):
    tree = bt.parse(golden_tree_text())
    seen = set(scan_id_index(tree)) | {-1}
    for name, seed in edits:
        if name == "check":
            assert_lookups_match_scans(tree, seen)
        else:
            EDITS[name](tree, seed)
            seen |= scan_id_index(tree).keys()
        seen.add(max(seen) + 1)
    assert_lookups_match_scans(tree, seen)


def test_concurrent_queries_on_fresh_trees():
    """Threads racing to build one tree's index all see the scans' answers."""
    text = golden_tree_text()
    reference = bt.parse(text)
    expected_paths = scan_id_index(reference)
    expected_parents = {i: (None if p is None else (p[0].id, p[1]))
                        for i in expected_paths
                        for p in [scan_parent_of(reference, i)]}
    trees = [bt.parse(text) for _ in range(200)]
    start = threading.Barrier(8)
    wrong: list = []

    def worker(first: int):
        # threads start at different ids; odd ones build through id_index
        order = list(expected_paths)
        order = order[first:] + order[:first]
        try:
            for tree in trees:
                start.wait(timeout=30)
                if first % 2 and tree.id_index != expected_paths:
                    wrong.append("id_index")
                for node_id in order:
                    info = tree.parent_of(node_id)
                    got = None if info is None else (info[0].id, info[1])
                    if tree.find(node_id).id != node_id or got != expected_parents[node_id]:
                        wrong.append(node_id)
                if tree.id_index != expected_paths:
                    wrong.append("id_index")
        except Exception as e:  # noqa: BLE001 - any raise is a wrong answer
            wrong.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(3 * i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
