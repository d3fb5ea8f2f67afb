import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import btpolicy
from btpolicy import bt
from btpolicy.backends import RemoteBackend
from btpolicy.cli import (EXIT_BACKEND, EXIT_EXHAUSTED, EXIT_FAILURE, EXIT_OK,
                          EXIT_PARSE, EXIT_SCHEMA, EXIT_VIOLATIONS, atomic_write, main)
from btpolicy.errors import PlanBudgetExceeded
from btpolicy.planner import PlanConfig, plan
from btpolicy.resolver import interpret_goals
from btpolicy.sim import bundled_data_path, load_scenario

from oracles import nested_tree_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_plan_writes_tree_dot_and_reasoning(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--scenario", "cube_stack_golden",
            "--backend", "oracle", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "on(blue_cube, green_cube)" in out
        tree = bt.parse((tmp_path / "tree.json").read_text())
        dot = (tmp_path / "tree.dot").read_text()
        assert "grasp(obj=blue_cube)!" in dot
        assert dot == (bundled_data_path("goldens") / "cube_stack_before.dot").read_text()
        assert (tmp_path / "reasoning.txt").exists()
        golden = bt.parse(
            (bundled_data_path("goldens") / "cube_stack_before.json").read_text())
        assert bt.tree_equal(tree, golden)

    def test_plan_artifacts_follow_the_umask(self, tmp_path, capsys):
        """Under umask 022 each artifact is written with mode 0644, as a plain
        ``open`` would write it, and no temporary file is left behind."""
        umask = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, "plan", "--scenario", "cube_stack_golden",
                                 "--backend", "oracle", "--out", str(tmp_path))
        finally:
            os.umask(umask)
        assert code == EXIT_OK
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["reasoning.txt", "tree.dot", "tree.json"]
        assert {(tmp_path / name).stat().st_mode & 0o777 for name in names} == {0o644}

    def test_plan_with_adhoc_domain_and_satisfied_goal(self, tmp_path, capsys):
        domain = bundled_data_path("domains", "cube_tabletop.yaml")
        code, out, _ = run_cli(
            capsys, "plan", "--domain", str(domain),
            "--instruction", "unused", "--state", "on(blue_cube, green_cube)",
            "--backend", "scripted", "--fixtures", str(_fixtures(tmp_path)),
            "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        tree = bt.parse((tmp_path / "out" / "tree.json").read_text())
        assert tree.node_count() == 2  # root plus the single goal condition

    def test_plan_rejects_instruction_with_scenario(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--scenario", "precond_01_blocked_cube",
            "--instruction", "Put the red cube on the table",
            "--backend", "oracle", "--out", str(tmp_path / "out"))
        assert code == EXIT_FAILURE
        assert "--instruction goes with --domain" in err
        assert not (tmp_path / "out").exists()

    def test_plan_tick_budget_stop_keeps_the_partial_tree(self, tmp_path, capsys,
                                                          seed7_tower_files):
        """``plan --out`` on a budget stop writes the tree planned so far,
        the one the error carries, and still exits 1 naming the budget."""
        path = seed7_tower_files[1]
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "plan", "--scenario", str(path),
                                    "--budget-ticks", "5", "--out", str(out))
        assert code == EXIT_FAILURE
        assert err == "error: tick budget 5 exhausted\n"
        assert stdout == ""
        scenario = load_scenario(path)
        goals, _ = interpret_goals(scenario, scenario.oracle_backend())
        with pytest.raises(PlanBudgetExceeded) as stop:
            plan(goals, scenario.domain, scenario.initial, PlanConfig(max_sim_ticks=5))
        partial = stop.value.partial_tree
        assert (out / "tree.json").read_text() == bt.serialize(partial)
        assert (out / "tree.dot").read_text() == bt.to_dot(partial)
        assert (out / "reasoning.txt").exists()

    def test_plan_state_rejects_an_empty_conjunct(self, tmp_path, capsys):
        """``--state`` is read as a literal conjunction, like every other
        one: an empty conjunct is a parse error before the backend is asked
        (the scripted fixtures have no answer for it)."""
        domain = bundled_data_path("domains", "cube_tabletop.yaml")
        plan_args = ("plan", "--domain", str(domain), "--instruction", "x",
                     "--backend", "scripted", "--out", str(tmp_path / "out"))
        code, _, err = run_cli(capsys, *plan_args,
                               "--state", "on(red_cube, table) & & bogus(x)")
        assert code == EXIT_PARSE
        assert "empty conjunct" in err
        for state in ("on(red_cube, table)", ""):
            code, _, err = run_cli(capsys, *plan_args, "--state", state)
            assert code == EXIT_FAILURE
            assert "no scripted response" in err
        assert not (tmp_path / "out").exists()

    def test_plan_state_rejects_a_wildcard_fact(self, tmp_path, capsys):
        """A state fact is ground: ``any_object`` in ``--state`` is a schema
        error naming the literal, before the backend is asked."""
        domain = bundled_data_path("domains", "cube_tabletop.yaml")
        code, _, err = run_cli(capsys, "plan", "--domain", str(domain), "--instruction", "x",
                               "--backend", "scripted", "--out", str(tmp_path / "out"),
                               "--state", "on(red_cube, table) & on(any_object, table)")
        assert code == EXIT_SCHEMA
        assert err == "schema error: state literal 'on(any_object, table)' " \
                      "may not use any_object\n"
        assert not (tmp_path / "out").exists()

    def test_plan_unknown_symbol_exits_parse_code(self, tmp_path, capsys):
        domain = bundled_data_path("domains", "cube_tabletop.yaml")
        fixtures = tmp_path / "garbage.yaml"
        fixtures.write_text('adhoc/goal: ["ANSWER: on(made_up_thing, table)"]\n')
        code, _, err = run_cli(
            capsys, "plan", "--domain", str(domain), "--instruction", "x",
            "--backend", "scripted", "--fixtures", str(fixtures),
            "--out", str(tmp_path / "out"))
        assert code == EXIT_PARSE
        assert "made_up_thing" in err


def _fixtures(tmp_path):
    path = tmp_path / "fixtures.yaml"
    path.write_text('adhoc/goal: ["ANSWER: on(blue_cube, green_cube)"]\n')
    return path


class TestRunCommand:
    def test_run_scenario_success_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "precond_01_blocked_cube",
            "--backend", "oracle", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "run 1: success" in out
        final = bt.parse((tmp_path / "final_tree.json").read_text())
        golden = bt.parse(
            (bundled_data_path("goldens") / "cube_stack_after.json").read_text())
        assert bt.tree_equal(final, golden)
        records = (tmp_path / "records.jsonl").read_text().strip().splitlines()
        assert len(records) == 1
        trace_lines = (tmp_path / "trace.jsonl").read_text().strip().splitlines()
        assert json.loads(trace_lines[-1]) == {"outcome": "success"}

    def test_repeat_gives_identical_outcomes(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "precond_03_upside_down_cup",
            "--backend", "oracle", "--repeat", "10")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("run ")]
        assert len(lines) == 10
        assert {l.split(": ")[1] for l in lines} == {"success"}

    def test_repeat_starts_each_run_with_a_fresh_backend(self, tmp_path, capsys):
        """A scripted backend's answer cursors do not carry into the next
        repeat: both runs get the unparseable first answer and exhaust."""
        fixtures = tmp_path / "fixtures.yaml"
        fixtures.write_text('param_sand_tool/goal: ["ANSWER: in(sand, bucket)"]\n'
                            'param_sand_tool/parameter: ["ANSWER: wrench", '
                            '"ANSWER: shovel"]\n')
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "param_sand_tool", "--backend", "scripted",
            "--fixtures", str(fixtures), "--budget-rounds", "1", "--repeat", "2")
        assert [l for l in out.splitlines() if l.startswith("run ")] == \
            ["run 1: exhausted", "run 2: exhausted"]
        assert code == EXIT_EXHAUSTED

    def test_no_resolve_reports_fault_message(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "precond_05_locked_cupboard",
            "--backend", "oracle", "--no-resolve")
        assert code != EXIT_OK
        assert "Torque limit exceeded" in out

    def test_no_resolve_with_patched_tree_succeeds(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "precond_01_blocked_cube",
            "--backend", "oracle", "--out", str(tmp_path))
        assert code == EXIT_OK
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "precond_01_blocked_cube",
            "--backend", "oracle", "--no-resolve",
            "--tree", str(tmp_path / "final_tree.json"))
        assert code == EXIT_OK
        assert "run 1: success" in out

    def test_tick_budget_bounds_replay(self, tmp_path, capsys):
        """``--budget-ticks`` bounds the ticks a run executes, not only the
        ticks the planner simulates."""
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "cube_stack_golden",
            "--backend", "oracle", "--out", str(tmp_path))
        assert code == EXIT_OK
        replay = ("run", "--scenario", "cube_stack_golden", "--backend", "oracle",
                  "--no-resolve", "--tree", str(tmp_path / "final_tree.json"))
        code, out, err = run_cli(capsys, *replay, "--budget-ticks", "2")
        assert code == EXIT_FAILURE
        assert "tick budget 2 exhausted" in err
        assert "run 1" not in out
        # --out keeps the ticks that ran and the tree that ran them
        stopped = tmp_path / "stopped"
        code, _, err = run_cli(capsys, *replay, "--budget-ticks", "2", "--out", str(stopped))
        assert code == EXIT_FAILURE
        assert "tick budget 2 exhausted" in err
        lines = (stopped / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line).get("tick") for line in lines[:2]] == [0, 1]
        assert json.loads(lines[-1]) == {"outcome": "running"}
        assert (stopped / "final_tree.json").read_text() == \
            (tmp_path / "final_tree.json").read_text()
        assert (stopped / "final_tree.dot").exists()
        assert not (stopped / "records.jsonl").exists()
        code, out, _ = run_cli(capsys, *replay)
        assert code == EXIT_OK
        assert "run 1: success" in out

    def test_plan_tick_budget_is_reported_as_a_budget(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "precond_02_two_blockers",
                                 "--backend", "oracle", "--budget-ticks", "3")
        assert code == EXIT_FAILURE
        assert "tick budget 3 exhausted" in err
        assert "run 1" not in out

    def test_tree_without_no_resolve_is_rejected(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scenario", "precond_01_blocked_cube",
            "--backend", "oracle", "--tree", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "out"))
        assert code == EXIT_FAILURE
        assert "--tree goes with --no-resolve" in err
        assert "run 1" not in out
        assert not (tmp_path / "out").exists()

    def test_unreadable_tree_file_is_reported(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scenario", "precond_01_blocked_cube",
            "--backend", "oracle", "--no-resolve",
            "--tree", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out"))
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: cannot read tree file {tmp_path / 'missing.json'}")
        assert "run 1" not in out
        assert not (tmp_path / "out").exists()

    def test_unknown_scenario_schema_exit(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "no_such_scenario",
                               "--backend", "oracle")
        assert code == EXIT_SCHEMA

    def test_rerun_overwrites_identically(self, tmp_path, capsys):
        for _ in range(2):
            code, _, _ = run_cli(
                capsys, "run", "--scenario", "precond_01_blocked_cube",
                "--backend", "oracle", "--out", str(tmp_path))
            assert code == EXIT_OK
        first = (tmp_path / "final_tree.json").read_text()
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "precond_01_blocked_cube",
            "--backend", "oracle", "--out", str(tmp_path))
        assert (tmp_path / "final_tree.json").read_text() == first


class TestBenchCommand:
    def test_preconds_suite_oracle_perfect(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "preconds", "--backend", "oracle",
            "--repeat", "2")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("precond_")]
        assert len(lines) == 10
        assert all(l.endswith("2/2") for l in lines)

    def test_params_suite_oracle_perfect(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "params", "--backend", "oracle")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("param_")]
        assert len(lines) == 6
        assert all(l.endswith("1/1") for l in lines)

    def test_scenario_suite_counts_only_replayed_successes(self, monkeypatch, capsys):
        from btpolicy.sim import ExecutionTrace
        monkeypatch.setattr("btpolicy.cli.execute",
                            lambda *args, **kwargs: ExecutionTrace(outcome="failure"))
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "params", "--backend", "oracle")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("param_")]
        assert len(lines) == 6
        assert all(l.endswith("0/1") for l in lines)

    def test_goals_suite_oracle_hundred_percent(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "goals", "--backend", "oracle")
        assert code == EXIT_OK
        for difficulty in ("easy", "hard", "medium"):
            assert f"{difficulty}" in out
        assert out.count("100.0%") == 3

    def test_markdown_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "params", "--backend", "oracle",
            "--format", "markdown", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.startswith("| case | result |")
        assert (tmp_path / "report.md").read_text() == out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "preconds", "--backend", "oracle",
            "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 10

    def test_empty_suite_filter_exits_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "preconds", "--backend", "oracle",
            "--scenarios", str(tmp_path))
        assert code == EXIT_OK


class TestVerifyCommand:
    def test_verify_golden_passes(self, capsys):
        golden = bundled_data_path("goldens", "cube_stack_after.json")
        code, out, _ = run_cli(
            capsys, "verify", "--tree", str(golden),
            "--scenario", "cube_stack_golden")
        assert code == EXIT_OK
        assert "verdict: pass" in out

    def test_verify_orphaned_goal_nonzero(self, tmp_path, capsys):
        golden = bundled_data_path("goldens", "cube_stack_before.json")
        code, out, _ = run_cli(
            capsys, "verify", "--tree", str(golden),
            "--scenario", "cube_stack_golden",
            "--goal", "grasped(red_cube)")
        assert code == EXIT_VIOLATIONS
        assert "goal_coverage" in out

    def test_verify_unreadable_tree_file(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe")
        for path, reason in ((tmp_path / "missing.json", "No such file or directory"),
                             (tmp_path, "Is a directory"),
                             (binary, "not UTF-8 text")):
            code, out, err = run_cli(capsys, "verify", "--tree", str(path),
                                     "--scenario", "cube_stack_golden")
            assert code == EXIT_FAILURE
            assert err == f"error: cannot read tree file {path}: {reason}\n"
            assert out == ""

    def test_verify_condition_outside_domain(self, tmp_path, capsys):
        tree = tmp_path / "t.json"
        tree.write_text(json.dumps({"schema": "bt/v1", "root": {
            "kind": "sequence", "id": 0, "children": [
                {"kind": "condition", "id": 1, "payload": "flying(red_cube)"}]}}))
        domain = bundled_data_path("domains", "cube_tabletop.yaml")
        code, out, _ = run_cli(capsys, "verify", "--tree", str(tree),
                               "--domain", str(domain), "--goal", "grasped(red_cube)")
        assert code == EXIT_VIOLATIONS
        assert "- condition_literals (node 1): flying(red_cube) does not fit " \
               "domain cube_tabletop: unknown predicate 'flying'" in out

    def test_verify_goal_outside_domain(self, capsys):
        golden = bundled_data_path("goldens", "cube_stack_after.json")
        domain = bundled_data_path("domains", "cube_tabletop.yaml")
        for where in (("--domain", str(domain)), ("--scenario", "cube_stack_golden")):
            for goal, reason in (("flying(red_cube)", "unknown predicate 'flying'"),
                                 ("grasped(red_cube, table)",
                                  "predicate 'grasped' takes 1 argument(s), got 2"),
                                 ("grasped(purple_cube)", "unknown object 'purple_cube'")):
                code, out, err = run_cli(capsys, "verify", "--tree", str(golden),
                                         *where, "--goal", goal)
                assert code == EXIT_FAILURE
                assert err == (f"error: goal {goal} does not fit domain cube_tabletop: "
                               f"{reason}\n")
                assert out == ""

    def test_verify_categorical_value_outside_choices(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "--scenario", "param_sand_tool",
                             "--backend", "oracle", "--out", str(tmp_path))
        assert code == EXIT_OK
        final = (tmp_path / "final_tree.json").read_text()
        assert "tool=shovel" in final
        tree = tmp_path / "wrench.json"
        tree.write_text(final.replace("tool=shovel", "tool=wrench"))
        code, out, _ = run_cli(capsys, "verify", "--tree", str(tree),
                               "--scenario", "param_sand_tool")
        assert code == EXIT_VIOLATIONS
        assert "categorical slot 'tool' carries 'wrench', not one of shovel, " \
               "spoon, tongs, gripper" in out

    def test_verify_malformed_tree_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", "--tree", str(bad),
                               "--scenario", "cube_stack_golden")
        assert code == EXIT_PARSE


BUDGETED = [("plan", "--scenario", "cube_stack_golden"),
            ("run", "--scenario", "cube_stack_golden"),
            ("bench", "--suite", "preconds"),
            ("bench", "--suite", "params")]


def _assert_flag_rejected(capsys, tmp_path, command, flag, value):
    """A count flag below its floor exits 1 with one ``error:`` line naming
    it, before anything runs or is written."""
    code, out, err = run_cli(capsys, *command, flag, value, "--out", str(tmp_path / "out"))
    assert code == EXIT_FAILURE
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", BUDGETED)
def test_non_positive_budget_ticks_is_rejected(capsys, tmp_path, command, value):
    _assert_flag_rejected(capsys, tmp_path, command, "--budget-ticks", value)


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", BUDGETED)
def test_non_positive_budget_expansions_is_rejected(capsys, tmp_path, command, value):
    _assert_flag_rejected(capsys, tmp_path, command, "--budget-expansions", value)


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", BUDGETED)
def test_non_positive_budget_reorders_is_rejected(capsys, tmp_path, command, value):
    _assert_flag_rejected(capsys, tmp_path, command, "--budget-reorders", value)


@pytest.mark.parametrize("command", BUDGETED)
def test_negative_budget_rounds_is_rejected(capsys, tmp_path, command):
    _assert_flag_rejected(capsys, tmp_path, command, "--budget-rounds", "-1")


def test_zero_budget_rounds_runs_the_tree_unrepaired(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "cube_stack_golden",
                           "--budget-rounds", "0")
    assert code == EXIT_EXHAUSTED
    assert "run 1: exhausted" in out


def test_remote_backend_unavailable_exit(monkeypatch, capsys):
    monkeypatch.delenv("BTPOLICY_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("BTPOLICY_LLM_API_KEY", raising=False)
    code, _, err = run_cli(
        capsys, "run", "--scenario", "precond_01_blocked_cube",
        "--backend", "remote")
    assert code == EXIT_BACKEND


def test_bench_scenario_suite_logs_exchanges(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "bench", "--suite", "params", "--backend", "oracle",
        "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "exchanges.jsonl").read_text().strip().splitlines()
    # one goal interpretation per scenario plus one exchange per round
    assert len(lines) >= 12
    roles = {json.loads(line)["role"] for line in lines}
    assert roles == {"goal", "parameter"}


def test_bench_remote_header_stamps_model(monkeypatch, capsys):
    class FakeResponse:
        status_code = 200
        headers = {}

        def json(self):
            return {"choices": [{"message": {"content": "ANSWER: On(Water, Bar)"}}]}

    monkeypatch.setenv("BTPOLICY_LLM_ENDPOINT", "https://api.example")
    monkeypatch.setenv("BTPOLICY_LLM_API_KEY", "k")
    monkeypatch.setattr(RemoteBackend, "_post", lambda *a, **k: FakeResponse())
    code, out, _ = run_cli(
        capsys, "bench", "--suite", "goals", "--backend", "remote",
        "--model", "test-model")
    assert code == EXIT_OK
    assert out.startswith("# model=test-model time=")


def test_bench_remote_failed_call_scores_only_its_case(monkeypatch, capsys):
    class FakeResponse:
        def __init__(self, status_code):
            self.status_code = status_code
            self.headers = {}

        def json(self):
            return {"choices": [{"message": {"content": "ANSWER: On(Water, Bar)"}}]}

    calls, closed = [], []

    def fake_post(self, url, payload, headers):
        calls.append(self)
        return FakeResponse(500 if len(calls) == 1 else 200)

    monkeypatch.setenv("BTPOLICY_LLM_ENDPOINT", "https://api.example")
    monkeypatch.setenv("BTPOLICY_LLM_API_KEY", "k")
    monkeypatch.setattr(RemoteBackend, "_post", fake_post)
    monkeypatch.setattr(RemoteBackend, "close", lambda self: closed.append(self))
    code, out, _ = run_cli(
        capsys, "bench", "--suite", "goals", "--backend", "remote",
        "--model", "test-model", "--format", "json")
    assert code == EXIT_OK
    goalset = yaml.safe_load(bundled_data_path(
        "benchmarks", "cafe_goals.yaml").read_text())
    # the 500 on the first case did not stop the run: every case was asked,
    # all by one backend, closed once the suite was done
    assert len(calls) == len(goalset["instructions"])
    assert all(backend is calls[0] for backend in calls) and closed == [calls[0]]
    report = json.loads(out.split("\n", 1)[1])
    difficulties = {entry["difficulty"] for entry in goalset["instructions"]}
    assert {row["case"] for row in report} == difficulties


def test_run_closes_each_repeat_remote_backend(monkeypatch, capsys):
    class FakeResponse:
        status_code = 200
        headers = {}

        def json(self):
            return {"choices": [{"message": {"content": "ANSWER: on(blue_cube, green_cube)"}}]}

    posted, closed = [], []

    def fake_post(self, url, payload, headers):
        posted.append(self)
        return FakeResponse()

    monkeypatch.setenv("BTPOLICY_LLM_ENDPOINT", "https://api.example")
    monkeypatch.setenv("BTPOLICY_LLM_API_KEY", "k")
    monkeypatch.setattr(RemoteBackend, "_post", fake_post)
    monkeypatch.setattr(RemoteBackend, "close", lambda self: closed.append(self))
    _, out, _ = run_cli(capsys, "run", "--scenario", "cube_stack_golden", "--backend",
                        "remote", "--no-resolve", "--repeat", "2")
    assert "run 2:" in out
    assert len(posted) == 2 and posted[0] is not posted[1]
    assert closed == posted


def test_bench_remote_endpoint_without_http_scheme_exit(monkeypatch, capsys):
    def boom(*a, **k):
        raise AssertionError("network was touched")

    monkeypatch.setattr(RemoteBackend, "_post", boom)
    monkeypatch.setenv("BTPOLICY_LLM_API_KEY", "k")
    for suite, endpoint in (("goals", "file:///tmp"), ("goals", "api.example"),
                            ("preconds", "file:///tmp")):
        monkeypatch.setenv("BTPOLICY_LLM_ENDPOINT", endpoint)
        code, out, err = run_cli(
            capsys, "bench", "--suite", suite, "--backend", "remote", "--model", "m")
        assert code == EXIT_BACKEND
        assert err == f"backend unavailable: remote backend endpoint {endpoint!r} " \
                      "is not an http(s) URL\n"
        assert out == ""


# --- bad input files ------------------------------------------------------------

_ENTRY = {"id": "e1", "difficulty": "easy",
          "instruction": "Put the water on the bar", "goal": "On(Water, Bar)"}


def _goalset(drop=(), **fields):
    data = {"schema": "goalbench/v1",
            "domain": str(bundled_data_path("domains", "cafe.yaml")),
            "instructions": [_ENTRY]}
    data.update(fields)
    return yaml.safe_dump({k: v for k, v in data.items() if k not in drop})


def _entry_without(key):
    return _goalset(instructions=[{k: v for k, v in _ENTRY.items() if k != key}])


_BAD_GOALSETS = {
    "malformed": "schema: goalbench/v1\ndomain: [unclosed\n",
    "wrong_schema": _goalset(schema="goalbench/v0"),
    "no_domain": _goalset(drop=("domain",)),
    "no_instructions": _goalset(drop=("instructions",)),
    "instructions_not_a_list": _goalset(instructions="easy_01"),
    "entry_without_id": _entry_without("id"),
    "entry_without_difficulty": _entry_without("difficulty"),
    "entry_without_instruction": _entry_without("instruction"),
    "entry_without_goal": _entry_without("goal"),
    "scene_visible_a_string": _goalset(scene={"visible": "On(Water, Bar)"}),
    "scene_unknown_object": _goalset(scene={"visible": ["On(Waterx, Bar)"]}),
    "scene_repeated_object": _goalset(scene={"objects": ["Water", "Bar", "Water"]}),
    "goal_unknown_predicate": _goalset(
        instructions=[{**_ENTRY, "goal": "Onx(Water, Bar)"}]),
}


def test_goal_set_goals_are_checked_before_any_backend_is_asked(tmp_path, monkeypatch,
                                                                capsys):
    """A goal that does not fit the domain or the scene exits 6 naming the
    file and the instruction, and no instruction reaches a backend."""
    asked = []
    monkeypatch.setattr("btpolicy.cli.interpret_goals",
                        lambda scenario, backend: asked.append(scenario.id))
    path = tmp_path / "goals.yaml"
    path.write_text(_goalset(scene={"objects": ["Water", "Bar"]}, instructions=[
        _ENTRY, {**_ENTRY, "id": "e2", "goal": "On(Water, Table1)"}]))
    code, out, err = run_cli(capsys, "bench", "--suite", "goals", "--goalset", str(path))
    assert code == EXIT_SCHEMA
    assert "instruction 'e2'" in err and "'Table1'" in err and str(path) in err
    assert asked == [] and out == ""


def _bad_goalset(name):
    def case(tmp_path):
        path = tmp_path / f"{name}.yaml"
        path.write_text(_BAD_GOALSETS[name])
        return ["bench", "--suite", "goals", "--goalset", str(path)], path
    return case


def _missing_goalset(tmp_path):
    path = tmp_path / "missing.yaml"
    return ["bench", "--suite", "goals", "--goalset", str(path)], path


def _scenario_directory(tmp_path):
    return ["run", "--scenario", str(tmp_path)], tmp_path


def _domain_directory(tmp_path):
    return ["plan", "--domain", str(tmp_path), "--instruction", "x"], tmp_path


def _fixtures_directory(tmp_path):
    return ["run", "--scenario", "cube_stack_golden", "--backend", "scripted",
            "--fixtures", str(tmp_path)], tmp_path


def _scenario_with_domain(domain):
    def case(tmp_path):
        data = yaml.safe_load(bundled_data_path(
            "scenarios", "cube_stack_golden.yaml").read_text())
        data["domain"] = domain
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(data))
        named = (tmp_path / domain).resolve() if isinstance(domain, str) else path
        return ["run", "--scenario", str(path)], named
    return case


def _household_force_default(default):
    def case(tmp_path):
        data = yaml.safe_load(bundled_data_path("domains", "household.yaml").read_text())
        data["skills"][0]["params"][1]["default"] = default
        path = tmp_path / "household.yaml"
        path.write_text(yaml.safe_dump(data))
        return ["plan", "--domain", str(path), "--instruction", "x"], path
    return case


def _scenario_with_wildcard_fact(tmp_path):
    data = yaml.safe_load(bundled_data_path(
        "scenarios", "precond_01_blocked_cube.yaml").read_text())
    data["domain"] = str(bundled_data_path("domains", "cube_tabletop.yaml"))
    data["initial"]["visible"].append("on(any_object, green_cube)")
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    return ["run", "--scenario", str(path)], path


def _scenario_with_a_repeated_object(tmp_path):
    data = yaml.safe_load(bundled_data_path(
        "scenarios", "precond_01_blocked_cube.yaml").read_text())
    data["domain"] = str(bundled_data_path("domains", "cube_tabletop.yaml"))
    data["objects"].append("red_cube")
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    return ["run", "--scenario", str(path)], path


def _fixture_value_a_mapping(tmp_path):
    path = tmp_path / "fixtures.yaml"
    path.write_text(yaml.safe_dump({"cube_stack_golden/goal": {"a": 1}}))
    return ["run", "--scenario", "cube_stack_golden", "--backend", "scripted",
            "--fixtures", str(path)], path


_BAD_INPUTS = [(_bad_goalset(name), EXIT_SCHEMA, name) for name in _BAD_GOALSETS] + [
    (_missing_goalset, EXIT_FAILURE, "missing_goalset"),
    (_scenario_directory, EXIT_FAILURE, "scenario_directory"),
    (_domain_directory, EXIT_FAILURE, "domain_directory"),
    (_fixtures_directory, EXIT_FAILURE, "fixtures_directory"),
    (_scenario_with_domain("nowhere.yaml"), EXIT_FAILURE, "scenario_with_missing_domain"),
    (_scenario_with_domain(5), EXIT_SCHEMA, "scenario_domain_not_a_string"),
    (_scenario_with_wildcard_fact, EXIT_SCHEMA, "scenario_wildcard_fact"),
    (_scenario_with_a_repeated_object, EXIT_SCHEMA, "scenario_repeated_object"),
    (_fixture_value_a_mapping, EXIT_SCHEMA, "fixture_value_a_mapping"),
    (_household_force_default("fast m/s"), EXIT_SCHEMA, "numeric_default_unparsable"),
]


@pytest.mark.parametrize("make_case, exit_code", [row[:2] for row in _BAD_INPUTS],
                         ids=[row[2] for row in _BAD_INPUTS])
def test_bad_input_file_exits_with_its_code_and_names_the_file(tmp_path, make_case,
                                                               exit_code):
    """Run as ``python -m btpolicy``: an unreadable input file exits 1 with
    "cannot read", a malformed one exits 6, and neither ends in a traceback."""
    argv, named = make_case(tmp_path)
    src = Path(btpolicy.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "btpolicy", *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == exit_code, run.stderr
    assert str(named) in run.stderr
    assert "Traceback" not in run.stderr
    if exit_code == EXIT_FAILURE:
        assert run.stderr.startswith("error: cannot read ")
    else:
        assert run.stderr.startswith("schema error: ")


@pytest.mark.parametrize("command", [("verify",), ("run", "--no-resolve")])
def test_deeply_nested_tree_file_exits_with_one_parse_error(tmp_path, command):
    """Run as ``python -m btpolicy``: a tree file nested deeper than the
    JSON decoder recurses is a parse error (exit 3) on one line, with no
    traceback, for both commands that read a tree file."""
    (tmp_path / "deep.json").write_text(nested_tree_text(600))
    src = Path(btpolicy.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "btpolicy", *command, "--tree", "deep.json",
                          "--scenario", "cube_stack_golden"], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_PARSE, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [
        "parse error: invalid tree file: the tree is nested too deeply"]


_TRANSPORT = ("http.client", "ssl", "urllib.request", "email.parser")
_TRANSPORT_PROBE = """
import json, sys
import btpolicy
loaded = lambda: [name for name in sys.argv[1:] if name in sys.modules]
before = loaded()
btpolicy.RemoteBackend(endpoint="http://127.0.0.1:9", api_key="k")
print(json.dumps([before, loaded()]))
"""


def test_the_http_stack_is_imported_with_the_first_remote_backend():
    """A fresh interpreter: ``import btpolicy`` leaves the HTTP stack out,
    and constructing a RemoteBackend, before any request, brings it in."""
    src = Path(btpolicy.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _TRANSPORT_PROBE, *_TRANSPORT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(run.stdout) == [[], list(_TRANSPORT)]


def test_atomic_write_removes_its_file_when_the_move_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("cannot move")

    (tmp_path / "out.txt").write_text("old")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="cannot move"):
        atomic_write(tmp_path / "out.txt", "new")
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]
    assert (tmp_path / "out.txt").read_text() == "old"
