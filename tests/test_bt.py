import json
import sys
import threading
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from btpolicy import bt, grammar
from btpolicy.bt import (BehaviorTree, NodeKind, NodeStatus, TickContext,
                         TreeNode, insert_preconditions, iter_preorder, tick,
                         tree_equal)
from btpolicy.errors import (InvalidTarget, ParseError, TickBudgetExceeded, TreeInvalid,
                             UnknownNode)
from btpolicy.terms import GroundAction, Literal

from oracles import (failing_action, oracle_status, scan_find, scan_id_index,
                     scan_lca_child, scan_parent_of, trace_status, validate)

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
        assert trace_status(trace, tree.root.id) is S

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
        assert trace_status(trace, action_id) is None

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
        ids = [node.id for node in trace.nodes]
        preorder = [n.id for n, _ in iter_preorder(tree.root)]
        assert ids == preorder
        assert trace.nodes[0] is tree.root
        assert trace.depths == [0, 1, 1]
        assert trace.statuses == [S, S, S]
        assert trace.nodes == [n for n, _ in iter_preorder(tree.root)]
        assert all(node is scan_find(tree, node.id) for node in trace.nodes)

    def test_tick_deterministic(self):
        tree = make_tree(lambda t: [cond(t, True), act(t, F), act(t, S)])
        first = tick(tree, fixed_ctx())
        second = tick(tree, fixed_ctx())
        assert first[0] is second[0]
        assert [(n.id, s) for n, s in zip(first[1].nodes, first[1].statuses)] == \
               [(n.id, s) for n, s in zip(second[1].nodes, second[1].statuses)]


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


def build_with_conditions(tree: BehaviorTree, tuple_tree) -> TreeNode:
    """``build_real`` with each Success or Failure leaf a condition that
    gives that status; Running leaves stay actions."""
    kind, payload = tuple_tree
    if kind == "leaf":
        return act(tree, payload) if payload is R else cond(tree, payload is S)
    node_kind = NodeKind.SEQUENCE if kind == "seq" else NodeKind.FALLBACK
    node = tree.new_node(node_kind)
    node.children.extend(build_with_conditions(tree, c) for c in payload)
    return node


@given(status_trees(depth=4), st.lists(status_trees(depth=2), min_size=1, max_size=3),
       st.integers(0, 10_000))
@example(("fb", (("seq", (("leaf", S), ("leaf", F))), ("leaf", R))), [("leaf", R)], 0)
@example(("fb", (("leaf", F), ("leaf", S))), [("leaf", F)], 0)
@example(("leaf", F), [("leaf", S)], 0)
@settings(max_examples=300, deadline=None)
def test_a_spliced_tick_equals_a_full_tick_of_the_edited_tree(tuple_tree, branch, seed):
    """A failed condition leaf of a tick's trace is wrapped in
    ``Fallback(leaf, Sequence(...))``, as an expansion does, and only the
    new Fallback is ticked in its place: the status and the three trace
    lists are those of a full tick of the edited tree, whether the
    Fallback ends Running or Failure (the examples: Running, Failure, and
    the root itself replaced). A branch that succeeds is left out: it
    takes an action that returns Success, which no planner action does."""
    holder = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    tree = BehaviorTree(build_with_conditions(holder, tuple_tree), next_id=holder._next_id)
    _, trace = tick(tree, fixed_ctx())
    failed = [i for i, (node, status) in enumerate(zip(trace.nodes, trace.statuses))
              if node.kind is NodeKind.CONDITION and status is F]
    assume(failed and oracle_status(("seq", tuple(branch))) is not S)
    at = failed[seed % len(failed)]
    before = [list(trace.nodes), list(trace.statuses), list(trace.depths)]
    leaf = trace.nodes[at]
    sequence = tree.new_node(NodeKind.SEQUENCE,
                             children=[build_real(tree, c) for c in branch])
    fallback = tree.new_node(NodeKind.FALLBACK, children=[leaf, sequence])
    tree.replace(leaf.id, fallback)

    status, spliced = bt.tick_spliced(trace, at, fallback, fixed_ctx())
    want_status, want = tick(tree, fixed_ctx())
    assert status is want_status
    assert [n.id for n in spliced.nodes] == [n.id for n in want.nodes]
    assert all(a is b for a, b in zip(spliced.nodes, want.nodes))
    assert (spliced.statuses, spliced.depths) == (want.statuses, want.depths)
    assert [trace.nodes, trace.statuses, trace.depths] == before


@given(status_trees(depth=4))
@settings(max_examples=300, deadline=None)
def test_tick_agrees_with_recursive_oracle(tuple_tree):
    holder = BehaviorTree(TreeNode(0, NodeKind.SEQUENCE), next_id=1)
    root = build_real(holder, tuple_tree)
    tree = BehaviorTree(root, next_id=holder._next_id)
    status, _ = tick(tree, fixed_ctx())
    assert status is oracle_status(tuple_tree)


class TestRunTicks:
    """``run_ticks`` yields tick indexes and raises once the progress key
    repeats, the start's included, or the budget runs out."""

    @staticmethod
    def ticks_until_stop(keys, max_ticks):
        keys = iter(keys)
        ticked = []
        with pytest.raises(TickBudgetExceeded) as err:
            for index in bt.run_ticks(lambda: next(keys), max_ticks):
                ticked.append(index)
        return ticked, str(err.value)

    def test_a_repeated_key_stops_the_run(self):
        assert self.ticks_until_stop([0, 1, 2, 1], 10) == \
            ([0, 1, 2], "stopped making progress after 3 ticks")

    def test_the_start_key_counts(self):
        assert self.ticks_until_stop([0, 0], 10) == \
            ([0], "stopped making progress after 1 ticks")

    def test_the_budget_bounds_the_run(self):
        assert self.ticks_until_stop(range(10), 3) == ([0, 1, 2], "tick budget 3 exhausted")


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
        validate(tree)

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
        validate(tree)

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

    def test_bad_node_error_names_its_path(self):
        with pytest.raises(ParseError, match=r"node at root\.children\[1\] lacks an integer id"):
            bt.parse('{"schema": "bt/v1", "root": {"kind": "sequence", "id": 0, '
                     '"children": [{"kind": "condition", "id": 1, "payload": "p"}, '
                     '{"kind": "condition", "payload": "p"}]}}')

    def test_boolean_id_rejected(self):
        # JSON true is a Python int; a tree holding it would not write back as bt/v1
        with pytest.raises(ParseError, match=r"node at root\.children\[0\] lacks an integer id"):
            bt.parse('{"schema": "bt/v1", "root": {"kind": "sequence", "id": 0, '
                     '"children": [{"kind": "condition", "id": true, "payload": "p"}]}}')
        with pytest.raises(ParseError, match=r"node at root lacks an integer id"):
            bt.parse('{"schema": "bt/v1", "root": {"kind": "condition", "id": false, '
                     '"payload": "p"}}')

    def test_slot_bound_twice_names_the_leaf(self):
        text = ('{"schema": "bt/v1", "root": {"kind": "sequence", "id": 0, "children": ['
                '{"kind": "action", "id": 1, "payload": "grasp(obj=a, obj=b)"}]}}')
        with pytest.raises(ParseError) as err:
            bt.parse(text)
        assert str(err.value).startswith("bad payload at root.children[0]: "
                                         "slot 'obj' is bound twice")
        assert "column 14" in str(err.value)

    def test_bad_payload_error_names_its_first_path(self):
        text = ('{"schema": "bt/v1", "root": {"kind": "sequence", "id": 0, "children": ['
                '{"kind": "condition", "id": 1, "payload": "p"}, '
                '{"kind": "condition", "id": 2, "payload": "on(a,,b)"}, '
                '{"kind": "fallback", "id": 3, "children": ['
                '{"kind": "condition", "id": 4, "payload": "on(a,,b)"}]}]}}')
        with pytest.raises(ParseError) as err:
            bt.parse(text)
        assert str(err.value).startswith("bad payload at root.children[1]: ")
        assert "column 6" in str(err.value)

    def test_payloads_parsed_once_per_distinct_text(self, monkeypatch, seed7_towers):
        from btpolicy.resolver import resolve_until_success
        scenario = seed7_towers[0]
        tree = resolve_until_success(scenario, scenario.oracle_backend()).tree
        texts = {(n.kind, str(n.payload)) for n, _ in iter_preorder(tree.root)
                 if not n.is_control}
        calls = []

        def counting(kind, fn):
            def wrapped(text):
                calls.append((kind, text))
                return fn(text)
            return wrapped

        monkeypatch.setattr(grammar, "parse_literal",
                            counting(NodeKind.CONDITION, grammar.parse_literal))
        monkeypatch.setattr(grammar, "parse_action",
                            counting(NodeKind.ACTION, grammar.parse_action))
        parsed = bt.parse(bt.serialize(tree))
        assert tree.node_count() - len(texts) > 40  # leaves repeat their payloads
        assert sorted(calls, key=str) == sorted(texts, key=str)
        assert tree_equal(parsed, tree, ignore_ids=False)
        first: dict = {}
        for node, _ in iter_preorder(parsed.root):
            if not node.is_control:
                assert first.setdefault((node.kind, str(node.payload)),
                                        node.payload) is node.payload

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
            validate(BehaviorTree(root))

    def test_leaf_with_children_rejected(self):
        bad = TreeNode(1, NodeKind.CONDITION, [TreeNode(2, NodeKind.CONDITION, [], TRUE)], TRUE)
        with pytest.raises(TreeInvalid):
            validate(BehaviorTree(TreeNode(0, NodeKind.SEQUENCE, [bad])))

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


def test_parse_rejects_a_repeated_id_and_allocates_past_the_largest(monkeypatch):
    obj = {"schema": "bt/v1", "root": {"kind": "sequence", "id": 3, "children": [
        {"kind": "condition", "id": 7, "payload": "ready"},
        {"kind": "fallback", "id": 1, "children": [
            {"kind": "action", "id": 7, "payload": "act_s()"}]}]}}
    with pytest.raises(TreeInvalid, match="duplicate node id 7"):
        bt.parse(json.dumps(obj))
    obj["root"]["children"][1]["children"][0]["id"] = 12
    walks = []
    monkeypatch.setattr(bt, "iter_preorder", lambda *a: walks.append(a) or iter(()))
    tree = bt.parse(json.dumps(obj))
    assert walks == []  # the nodes are read once, with no walk after
    monkeypatch.undo()
    validate(tree)
    assert tree.fresh_id() == 13
    golden = bt.parse(golden_tree_text())
    assert golden.fresh_id() == max(n.id for n, _ in iter_preorder(golden.root)) + 1


def test_insert_preconditions_wraps_root_action():
    tree = BehaviorTree(
        TreeNode(0, NodeKind.ACTION, [], GroundAction("act_s")), next_id=1)
    insert_preconditions(tree, 0, [Literal("ready")])
    assert tree.root.kind is NodeKind.SEQUENCE
    assert [c.kind for c in tree.root.children] == \
        [NodeKind.CONDITION, NodeKind.ACTION]
    validate(tree)


# --- id index, literal counts and texts ----------------------------------------

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
    tree.move_left(scan_lca_child(tree, mover.id, guard.id).id)
    assert seq.children[a - 1] is moved and seq.children[a] is other


def _move_left(tree: BehaviorTree, seed: int) -> None:
    node = _pick(_nodes(tree.root), seed)
    info = scan_parent_of(tree, node.id)
    if info is None or info[1] == 0:
        with pytest.raises(InvalidTarget):
            tree.move_left(node.id)
        return
    parent, index = info
    left = parent.children[index - 1]
    tree.move_left(node.id)
    assert parent.children[index - 1] is node and parent.children[index] is left


def _rebind(tree: BehaviorTree, seed: int) -> None:
    actions = [n for n in _nodes(tree.root) if n.kind is NodeKind.ACTION]
    action = _pick(actions, seed)
    if action is None:
        return
    tree.rebind(action.id, action.action.with_slot(f"s{seed % 3}", f"v{seed % 5}"))
    assert scan_find(tree, action.id).action.get(f"s{seed % 3}") == f"v{seed % 5}"


def _cut(tree: BehaviorTree, seed: int) -> None:
    """Replace a node by one of its children or by a new leaf, dropping the
    rest of its subtree."""
    node = _pick(_nodes(tree.root), seed)
    if node.children and seed % 2:
        new = _pick(node.children, seed // 2)
    else:
        new = tree.new_condition(Literal(f"cut{seed % 3}"))
    tree.replace(node.id, new)
    assert scan_find(tree, new.id) is new


EDITS = {"wrap": _wrap, "root_wrap": lambda t, s: _wrap(t, s, root_only=True),
         "insert": _insert, "swap": _swap, "move_left": _move_left, "rebind": _rebind,
         "cut": _cut}


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


def node_obj(node: TreeNode) -> dict:
    """The bt/v1 object of ``node``, built from the nodes alone."""
    obj: dict = {"kind": node.kind.value, "id": node.id}
    if node.payload is not None:
        obj["payload"] = str(node.payload)
    if node.is_control:
        obj["children"] = [node_obj(child) for child in node.children]
    return obj


def full_compact(node: TreeNode) -> str:
    """The compact text of ``node`` built afresh by ``json.dumps``, without
    a tree's cache or the package's formatter."""
    return json.dumps(node_obj(node), separators=(",", ":"))


def full_serialize(tree: BehaviorTree) -> str:
    """``bt.serialize`` as ``json.dumps`` writes the nodes' objects."""
    return json.dumps({"schema": bt.TREE_SCHEMA, "root": node_obj(tree.root)},
                      indent=2) + "\n"


def walked_literal_counts(tree: BehaviorTree) -> Counter:
    """Condition leaves per literal, counted afresh."""
    return Counter(n.payload for n, _ in iter_preorder(tree.root)
                   if n.kind is NodeKind.CONDITION)


def watch_builds(tree: BehaviorTree) -> list:
    """Record each later build of ``tree``'s index and counts."""
    builds: list = []
    tree._build = lambda: builds.append(1) or BehaviorTree._build(tree)
    return builds


PROGRAM_EDITS = st.lists(st.tuples(st.sampled_from(sorted(EDITS)), st.integers(0, 10_000),
                                   st.booleans()), max_size=30)


@settings(max_examples=200, deadline=None)
@given(PROGRAM_EDITS)
def test_program_edits_keep_the_index_without_rebuilds(edits):
    """After each of the tree's own edits its index equals a freshly built
    one and every id a replace dropped is unknown; lookups agree with the
    scans and the index was built once."""
    tree = bt.parse(golden_tree_text())
    tree.find(tree.root.id)
    builds = watch_builds(tree)
    for name, seed, _ in edits:
        before = scan_id_index(tree).keys()
        EDITS[name](tree, seed)
        index, _ = BehaviorTree._build(BehaviorTree(tree.root))
        assert tree._index == index
        for node_id in before - index.keys():
            with pytest.raises(UnknownNode):
                tree.find(node_id)
            with pytest.raises(UnknownNode):
                tree.parent_of(node_id)
    assert_lookups_match_scans(tree, set())
    assert builds == []


@settings(max_examples=200, deadline=None)
@given(PROGRAM_EDITS)
def test_program_edits_keep_the_compact_text(edits):
    """After each of the tree's own edits every cached text equals the text
    built afresh, and the index was built once. The compact text is read
    after some edits only, so invalidation meets partly built texts."""
    tree = bt.parse(golden_tree_text())
    assert tree._texts == {}  # parsing builds no text
    tree.find(tree.root.id)
    builds = watch_builds(tree)
    assert tree.compact() == full_compact(tree.root)
    for name, seed, read in edits:
        EDITS[name](tree, seed)
        texts = tree._texts
        assert all(texts[n.id] == full_compact(n) for n in _nodes(tree.root) if n.id in texts)
        if read:
            assert tree.compact() == full_compact(tree.root)
    assert tree.compact() == full_compact(tree.root)
    assert bt.serialize(tree) == full_serialize(tree)
    assert builds == []


@settings(max_examples=200, deadline=None)
@given(st.booleans(), PROGRAM_EDITS)
def test_program_edits_keep_the_condition_literal_counts(build_first, edits):
    """After each of the tree's own edits the literal counts it keeps equal
    a fresh walk's, with no zero counts left, and the tree was counted once.
    The counts are built by a count read or by a lookup."""
    tree = bt.parse(golden_tree_text())
    if build_first:
        assert tree.condition_literals() == walked_literal_counts(tree)
    else:
        tree.find(tree.root.id)
    builds = watch_builds(tree)
    for name, seed, read in edits:
        EDITS[name](tree, seed)
        if read:
            assert tree.condition_literals() == walked_literal_counts(tree)
    counts = tree.condition_literals()
    assert counts == walked_literal_counts(tree) and 0 not in counts.values()
    assert builds == []


def test_replace_counts_the_conditions_it_removes_and_adds():
    """A replace that drops a subtree uncounts its conditions; a wrap keeps
    the wrapped ones."""
    tree = make_tree(lambda t: [cond(t, True), cond(t, True), cond(t, False)])
    assert tree.condition_literals() == {TRUE: 2, FALSE: 1}
    first, _, last = tree.root.children
    tree.replace(last.id, tree.new_node(NodeKind.FALLBACK, children=[last, cond(tree, True)]))
    assert tree.condition_literals() == {TRUE: 3, FALSE: 1}
    tree.replace(tree.root.children[2].id, act(tree, S))
    assert tree.condition_literals() == {TRUE: 2}
    tree.replace(first.id, tree.new_node(NodeKind.SEQUENCE, children=[first]))
    assert tree.condition_literals() == {TRUE: 2} == walked_literal_counts(tree)


def test_compact_text_matches_json_on_escapes():
    """Payload text goes through JSON string escaping, as json.dumps does."""
    tree = make_tree(lambda t: [t.new_action(GroundAction.from_mapping(
        "say", {"text": 'café "x" \\'}))])
    assert tree.compact() == full_compact(tree.root)
    assert r'caf\u00e9 \"x\" \\)' in tree.compact()
    assert bt.serialize(tree) == full_serialize(tree)
    tree.rebind(tree.root.children[0].id, GroundAction.from_mapping("say", {"text": "\t"}))
    assert tree.compact() == full_compact(tree.root)
    assert bt.serialize(tree) == full_serialize(tree)


def test_serialize_reads_the_nodes_not_the_text_cache():
    """A direct payload edit leaves the compact text stale, as the tree's
    contract says; ``serialize`` still writes what the nodes hold."""
    tree = make_tree(lambda t: [cond(t, True), cond(t, False)])
    stale = tree.compact()
    tree.root.children[0].payload = FALSE
    assert tree.compact() == stale
    assert bt.serialize(tree) == full_serialize(tree)
    assert str(TRUE) not in bt.serialize(tree)


def test_concurrent_queries_on_fresh_trees():
    """Threads racing to build one tree's index and counts all see the
    scans' and the walk's answers."""
    text = golden_tree_text()
    reference = bt.parse(text)
    expected_paths = scan_id_index(reference)
    expected_counts = walked_literal_counts(reference)
    expected_parents = {i: (None if p is None else (p[0].id, p[1]))
                        for i in expected_paths
                        for p in [scan_parent_of(reference, i)]}
    trees = [bt.parse(text) for _ in range(200)]
    start = threading.Barrier(8)
    wrong: list = []

    def worker(first: int):
        # threads start at different ids; odd ones build through id_index,
        # some even ones through condition_literals
        order = list(expected_paths)
        order = order[first:] + order[:first]
        try:
            for tree in trees:
                start.wait(timeout=30)
                if first % 2 and tree.id_index != expected_paths:
                    wrong.append("id_index")
                if first % 4 == 0 and tree.condition_literals() != expected_counts:
                    wrong.append("condition_literals")
                for node_id in order:
                    info = tree.parent_of(node_id)
                    got = None if info is None else (info[0].id, info[1])
                    if tree.find(node_id).id != node_id or got != expected_parents[node_id]:
                        wrong.append(node_id)
                if tree.id_index != expected_paths:
                    wrong.append("id_index")
                if tree.condition_literals() != expected_counts:
                    wrong.append("condition_literals")
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
