"""Command-line entry point.

Subcommands: ``plan`` (instruction -> tree artifacts), ``run`` (scenario
pipeline with failure resolution), ``bench`` (suite reports), ``verify``
(structural checks). Artifacts are written atomically; exit codes are
stable per error class so scripts can branch on them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
from pathlib import Path

import yaml

from . import bt, grammar
from .backends import OracleBackend, RemoteBackend, RequestMeta, ScriptedBackend
from .domain import load_domain, make_state
from .errors import (BackendUnavailable, BtError, ParseError, SchemaError,
                     Unsolvable)
from .llm import (LlmExchange, PromptSpec, Role, build_prompt,
                  condition_catalog, parse_goal_response, scene_from_state)
from .planner import GoalSpec, PlanConfig, plan
from .resolver import (Outcome, ResolveConfig, interpret_goals,
                       records_to_jsonl, resolve_until_success)
from .sim import (ExecConfig, Scenario, bundled_data_path, execute,
                  load_scenario, load_scenarios)
from .verify import verify_tree

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VIOLATIONS = 2
EXIT_PARSE = 3
EXIT_UNSOLVABLE = 4
EXIT_EXHAUSTED = 5
EXIT_SCHEMA = 6
EXIT_BACKEND = 7


def atomic_write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _find_scenario(ref: str) -> Scenario:
    path = Path(ref)
    if path.exists():
        return load_scenario(path)
    bundled = bundled_data_path("scenarios", f"{ref}.yaml")
    if bundled.exists():
        return load_scenario(bundled)
    raise SchemaError(f"no scenario named {ref!r} (checked {bundled})")


def _make_backend(args, scenario: Scenario | None = None):
    if args.backend == "oracle":
        if scenario is None:
            raise BackendUnavailable("oracle backend needs a scenario for ground truth")
        return scenario.oracle_backend()
    if args.backend == "scripted":
        fixtures = args.fixtures or str(bundled_data_path("fixtures", "scripted.yaml"))
        return ScriptedBackend.from_file(fixtures)
    return RemoteBackend(model=args.model)


def _resolve_config(args) -> ResolveConfig:
    return ResolveConfig(
        max_resolution_rounds=args.budget_rounds,
        plan=PlanConfig(max_expansions=args.budget_expansions,
                        max_conflict_reorders=args.budget_reorders,
                        max_sim_ticks=args.budget_ticks),
        exec=ExecConfig(max_ticks=args.budget_ticks),
    )


def _write_tree_artifacts(tree, out: Path, stem: str) -> None:
    atomic_write(out / f"{stem}.json", bt.serialize(tree))
    atomic_write(out / f"{stem}.dot", bt.to_dot(tree))


def _exchanges_jsonl(exchanges: list[LlmExchange]) -> str:
    lines = []
    for ex in exchanges:
        lines.append(json.dumps({
            "role": ex.prompt.role.value,
            "prompt": build_prompt(ex.prompt),
            "raw_response": ex.raw_response,
            "parsed": str(ex.parsed) if ex.parsed is not None else None,
            "reasoning": ex.reasoning,
        }, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


# --- plan ---------------------------------------------------------------------

def cmd_plan(args) -> int:
    if args.scenario:
        scenario = _find_scenario(args.scenario)
        domain = scenario.domain
        state = scenario.initial
        instruction = args.instruction or scenario.instruction
    else:
        if not args.domain or not args.instruction:
            print("plan needs --scenario or both --domain and --instruction",
                  file=sys.stderr)
            return EXIT_FAILURE
        domain = load_domain(args.domain)
        literals = [t.strip() for t in (args.state or "").split("&") if t.strip()]
        state = make_state(domain, literals)
        instruction = args.instruction
        scenario = None

    if scenario is not None:
        backend = _make_backend(args, scenario)
        goals, exchange = interpret_goals(scenario, backend)
    else:
        backend = _make_backend(args, None)
        spec = PromptSpec(Role.GOAL_INTERPRETATION, instruction, state.objects,
                          condition_catalog(domain), domain.goal_examples,
                          scene_from_state(domain, state.visible_only()))
        raw = backend.complete(build_prompt(spec),
                               RequestMeta(Role.GOAL_INTERPRETATION, "adhoc"))
        parsed, reasoning = parse_goal_response(raw, domain,
                                                objects=state.object_names)
        goals, exchange = parsed, LlmExchange(spec, raw, parsed, reasoning)

    tree = plan(goals, domain, state,
                PlanConfig(max_expansions=args.budget_expansions,
                           max_conflict_reorders=args.budget_reorders,
                           max_sim_ticks=args.budget_ticks))
    out = Path(args.out)
    _write_tree_artifacts(tree, out, "tree")
    atomic_write(out / "reasoning.txt", (exchange.reasoning or "") + "\n")
    print(f"goals: {goals}")
    print(f"tree: {out / 'tree.json'} ({tree.node_count()} nodes)")
    return EXIT_OK


# --- run ----------------------------------------------------------------------

def cmd_run(args) -> int:
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return EXIT_FAILURE
    scenario = _find_scenario(args.scenario)
    backend = _make_backend(args, scenario)
    config = _resolve_config(args)
    out = Path(args.out) if args.out else None

    outcomes: list[str] = []
    exit_code = EXIT_OK
    for index in range(args.repeat):
        if args.no_resolve:
            outcome, trace, tree = _run_without_resolution(scenario, args, backend, config)
            records_text = ""
        else:
            result = resolve_until_success(scenario, backend, config)
            outcome = result.outcome.value
            tree = result.tree
            trace = result.traces[-1] if result.traces else None
            records_text = records_to_jsonl(result.records)
        outcomes.append(outcome)
        if index == 0 and out is not None:
            _write_tree_artifacts(tree, out, "final_tree")
            if trace is not None:
                atomic_write(out / "trace.jsonl", trace.to_jsonl())
            atomic_write(out / "records.jsonl", records_text)
    for index, outcome in enumerate(outcomes):
        print(f"run {index + 1}: {outcome}")
        if outcome != "success":
            exit_code = {"exhausted": EXIT_EXHAUSTED,
                         "unsolvable": EXIT_UNSOLVABLE}.get(outcome, EXIT_FAILURE)
    return exit_code


def _run_without_resolution(scenario, args, backend, config):
    if args.tree:
        tree = bt.parse(Path(args.tree).read_text())
    else:
        goals, _ = interpret_goals(scenario, backend)
        tree = plan(goals, scenario.domain, scenario.initial, config.plan)
    trace = execute(tree, scenario, config.exec)
    outcome = trace.outcome
    if trace.events:
        for event in trace.events:
            print(f"failure: {event.action} -> {event.error_message}")
    return outcome, trace, tree


# --- bench --------------------------------------------------------------------

def cmd_bench(args) -> int:
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return EXIT_FAILURE
    if args.suite == "goals":
        rows, exchanges = _bench_goals(args)
    elif args.suite == "preconds":
        rows, exchanges = _bench_scenarios(args, prefix="precond_")
    else:
        rows, exchanges = _bench_scenarios(args, prefix="param_")
    report = _format_report(args, rows)
    if args.backend == "remote":
        # live results are machine- and model-dependent: stamp them. The
        # deterministic backends stay stamp-free so reruns byte-match.
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds")
        report = f"# model={args.model} time={stamp}\n{report}"
    print(report, end="")
    if args.out:
        out = Path(args.out)
        name = {"text": "report.txt", "json": "report.json",
                "markdown": "report.md"}[args.format]
        atomic_write(out / name, report)
        if exchanges:
            atomic_write(out / "exchanges.jsonl", _exchanges_jsonl(exchanges))
    return EXIT_OK


def _bench_goals(args):
    bench_path = Path(args.goalset) if args.goalset else \
        bundled_data_path("benchmarks", "cafe_goals.yaml")
    data = yaml.safe_load(bench_path.read_text())
    domain = load_domain((bench_path.parent / data["domain"]).resolve())
    scene = data.get("scene") or {}
    state = make_state(domain, scene.get("visible", ()), (), scene.get("objects"))
    catalog = condition_catalog(domain)
    scene_text = scene_from_state(domain, state.visible_only())

    per_difficulty: dict[str, list[float]] = {}
    exchanges: list[LlmExchange] = []
    for entry in data["instructions"]:
        truth = {str(lit) for lit in
                 grammar.parse_literal_conjunction(entry["goal"])}
        spec = PromptSpec(Role.GOAL_INTERPRETATION, entry["instruction"],
                          state.objects, catalog, domain.goal_examples, scene_text)
        prompt_text = build_prompt(spec)
        successes = 0
        for _ in range(args.repeat):
            if args.backend == "oracle":
                backend = OracleBackend(lambda meta, answer=entry["goal"]:
                                        f"ANSWER: {answer}")
            else:
                backend = _make_backend(args, None)
            try:
                raw = backend.complete(prompt_text,
                                       RequestMeta(Role.GOAL_INTERPRETATION, entry["id"]))
                goals, reasoning = parse_goal_response(raw, domain,
                                                       objects=state.object_names)
                exchanges.append(LlmExchange(spec, raw, goals, reasoning))
                if {str(lit) for lit in goals.conjuncts} == truth:
                    successes += 1
            except BtError:
                pass
        per_difficulty.setdefault(entry["difficulty"], []).append(
            successes / args.repeat)
    rows = [(difficulty, f"{100.0 * sum(scores) / len(scores):.1f}%")
            for difficulty, scores in sorted(per_difficulty.items())]
    return rows, exchanges


def _bench_scenarios(args, prefix: str):
    directory = Path(args.scenarios) if args.scenarios else \
        bundled_data_path("scenarios")
    scenarios = [s for s in load_scenarios(directory) if s.id.startswith(prefix)]
    config = _resolve_config(args)
    rows = []
    exchanges: list[LlmExchange] = []
    for scenario in scenarios:
        successes = 0
        for _ in range(args.repeat):
            backend = _make_backend(args, scenario)
            try:
                result = resolve_until_success(scenario, backend, config)
                # a case counts once its policy also replays from the
                # initial world with faults on and no backend to repair it
                if result.outcome is Outcome.SUCCESS and \
                        execute(result.tree, scenario, config.exec).succeeded:
                    successes += 1
                if result.goal_exchange is not None:
                    exchanges.append(result.goal_exchange)
                exchanges.extend(r.exchange for r in result.records
                                 if r.exchange is not None)
            except BtError:
                pass
        rows.append((scenario.id, f"{successes}/{args.repeat}"))
    return rows, exchanges


def _format_report(args, rows: list[tuple[str, str]]) -> str:
    header = ("case", "result")
    if args.format == "json":
        return json.dumps([{"case": c, "result": r} for c, r in rows],
                          indent=2, sort_keys=True) + "\n"
    if args.format == "markdown":
        lines = [f"| {header[0]} | {header[1]} |", "| --- | --- |"]
        lines += [f"| {c} | {r} |" for c, r in rows]
        return "\n".join(lines) + "\n"
    width = max([len(header[0])] + [len(c) for c, _ in rows]) if rows else 10
    lines = [f"{header[0]:<{width}}  {header[1]}"]
    lines += [f"{c:<{width}}  {r}" for c, r in rows]
    return "\n".join(lines) + "\n"


# --- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
    tree = bt.parse(Path(args.tree).read_text())
    if args.scenario:
        scenario = _find_scenario(args.scenario)
        domain = scenario.domain
        initial = scenario.initial
        goals_text = args.goal or scenario.oracle_goals
    else:
        if not args.domain or not args.goal:
            print("verify needs --scenario or both --domain and --goal",
                  file=sys.stderr)
            return EXIT_FAILURE
        domain = load_domain(args.domain)
        initial = None
        goals_text = args.goal
    goals = GoalSpec(tuple(grammar.parse_literal_conjunction(goals_text)))
    report = verify_tree(tree, domain, goals, initial_state=initial)
    print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btpolicy",
        description="Behavior-tree policies from instructions, with "
                    "failure resolution")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--backend", choices=("oracle", "scripted", "remote"),
                       default="oracle")
        p.add_argument("--model", default="gpt-4")
        p.add_argument("--fixtures", help="scripted backend fixture file")
        p.add_argument("--budget-rounds", type=int, default=8, dest="budget_rounds")
        p.add_argument("--budget-expansions", type=int, default=64,
                       dest="budget_expansions")
        p.add_argument("--budget-reorders", type=int, default=16,
                       dest="budget_reorders")
        p.add_argument("--budget-ticks", type=int, default=10_000,
                       dest="budget_ticks")

    p_plan = sub.add_parser("plan", help="turn an instruction into tree artifacts")
    add_common(p_plan)
    p_plan.add_argument("--scenario", help="scenario id or path supplying the world")
    p_plan.add_argument("--domain", help="domain file (with --instruction)")
    p_plan.add_argument("--instruction")
    p_plan.add_argument("--state", help="initial literals joined by '&'")
    p_plan.add_argument("--out", default="out")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run a scenario through the full pipeline")
    add_common(p_run)
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--repeat", type=int, default=1)
    p_run.add_argument("--no-resolve", action="store_true", dest="no_resolve")
    p_run.add_argument("--tree", help="execute this tree file instead of planning")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    add_common(p_bench)
    p_bench.add_argument("--suite", choices=("goals", "preconds", "params"),
                         required=True)
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--format", choices=("text", "json", "markdown"),
                         default="text")
    p_bench.add_argument("--goalset", help="goal benchmark fixture file")
    p_bench.add_argument("--scenarios", help="scenario directory")
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="structural checks on a tree file")
    p_verify.add_argument("--tree", required=True)
    p_verify.add_argument("--scenario")
    p_verify.add_argument("--domain")
    p_verify.add_argument("--goal", help="goal literals joined by '&'")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Unsolvable as e:
        print(f"unsolvable: {e}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except BackendUnavailable as e:
        print(f"backend unavailable: {e}", file=sys.stderr)
        return EXIT_BACKEND
    except BtError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
