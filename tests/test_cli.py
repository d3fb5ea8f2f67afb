import json

from btpolicy import bt
from btpolicy.cli import (EXIT_BACKEND, EXIT_OK, EXIT_PARSE, EXIT_SCHEMA,
                          EXIT_VIOLATIONS, main)
from btpolicy.sim import bundled_data_path


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

    def test_verify_malformed_tree_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", "--tree", str(bad),
                               "--scenario", "cube_stack_golden")
        assert code == EXIT_PARSE


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
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
    code, out, _ = run_cli(
        capsys, "bench", "--suite", "goals", "--backend", "remote",
        "--model", "test-model")
    assert code == EXIT_OK
    assert out.startswith("# model=test-model time=")
