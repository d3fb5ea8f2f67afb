import pytest

from btpolicy import bt, grammar, planner
from btpolicy.domain import Domain
from btpolicy.sim import bundled_data_path, execute, load_scenario

import layers
from spans import Instrumentation, Tracer, self_times, summarize


def test_self_time_on_a_hand_built_span_tree():
    #  0 root [0, 20]
    #  1   a  [1, 6]        2 a.child [2, 4]
    #  3   b  [5, 9]        overlaps a by 1
    #  4   c  [12, 25]      runs past root's end; only [12, 20] counts
    start = [0.0, 1.0, 2.0, 5.0, 12.0]
    end = [20.0, 6.0, 4.0, 9.0, 25.0]
    parent = [-1, 0, 1, 0, 0]
    selfs = self_times(start, end, parent)
    assert selfs == pytest.approx([20 - (8 + 8), 5 - 2, 2, 4, 13])


def test_self_time_does_not_depend_on_recording_order():
    start = [0.0, 5.0, 1.0]
    end = [10.0, 9.0, 3.0]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([4, 4, 2])


def test_tracer_nests_spans_and_summarizes():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    a = tracer.begin(outer)
    b = tracer.begin(inner)
    tracer.finish(b)
    tracer.finish(a)
    assert list(tracer.parent) == [-1, 0]
    stats = summarize(tracer)
    assert stats["outer"].calls == stats["inner"].calls == 1
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s)


def test_instrumentation_records_callers_and_restores_originals():
    originals = (planner.tick, Domain.holds, bt.BehaviorTree.__dict__["id_index"])
    scenario = load_scenario(bundled_data_path("scenarios", "precond_01_blocked_cube.yaml"))
    goals = planner.GoalSpec(tuple(grammar.parse_literal_conjunction(scenario.oracle_goals)))
    tracer = Tracer()
    instrumentation = Instrumentation(tracer, layers.TARGETS)
    instrumentation.install()
    try:
        tree = planner.plan(goals, scenario.domain, scenario.initial)
        execute(tree, scenario)
    finally:
        instrumentation.uninstall()
    assert (planner.tick, Domain.holds, bt.BehaviorTree.__dict__["id_index"]) == originals
    names = {tracer.names[i] for i in tracer.name_ix}
    assert {"planner.plan", "bt.tick@planner", "domain.holds", "bt.tick@sim"} <= names
    # this test calls execute through its own binding, which stays unwrapped
    assert "sim.execute" not in names
    assert tracer.counts["terms.substitute"] > 0
