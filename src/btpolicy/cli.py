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
import secrets
import sys
from pathlib import Path

from . import bt, grammar
from .backends import RemoteBackend, ScriptedBackend
from .domain import (GOALSET_SHAPE, check_shape, load_domain, load_yaml, make_state,
                     read_input)
from .errors import (BackendUnavailable, BtError, DomainMismatch, ParseError,
                     PlanBudgetExceeded, SchemaError, TickBudgetExceeded, Unsolvable)
from .llm import LlmExchange, build_prompt
from .planner import GoalSpec, PlanConfig, plan
from .resolver import (Outcome, ResolveConfig, interpret_goals,
                       records_to_jsonl, resolve_until_success)
from .sim import (Scenario, bundled_data_path, execute, load_scenario,
                  load_scenarios)
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
    """Write ``content`` to a new file next to ``path`` and move it there
    with ``os.replace``, so readers see the old file or the whole new one.
    The new file is created with mode 0o666 less the umask, as ``open``
    creates one; it is removed when the write fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{secrets.token_hex(8)}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _close(backend) -> None:
    """Close a remote backend's kept-alive connections; the others hold none."""
    if isinstance(backend, RemoteBackend):
        backend.close()


def _resolve_config(args) -> ResolveConfig:
    return ResolveConfig(
        max_resolution_rounds=args.budget_rounds,
        plan=PlanConfig(max_expansions=args.budget_expansions,
                        max_conflict_reorders=args.budget_reorders,
                        max_sim_ticks=args.budget_ticks),
    )


def _load_tree(path: str) -> bt.BehaviorTree:
    return bt.parse(read_input(path, "tree"))


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
        if args.instruction:
            print("--instruction goes with --domain; a scenario brings its own "
                  "instruction", file=sys.stderr)
            return EXIT_FAILURE
        scenario = _find_scenario(args.scenario)
        backend = _make_backend(args, scenario)
    else:
        if not args.domain or not args.instruction:
            print("plan needs --scenario or both --domain and --instruction",
                  file=sys.stderr)
            return EXIT_FAILURE
        domain = load_domain(args.domain)
        state = (args.state or "").strip()
        literals = grammar.parse_literal_conjunction(state) if state else []
        scenario = Scenario(id="adhoc", domain=domain,
                            initial=make_state(domain, [str(lit) for lit in literals]),
                            instruction=args.instruction)
        backend = _make_backend(args, None)
    try:
        goals, exchange = interpret_goals(scenario, backend)
    finally:
        _close(backend)

    out = Path(args.out)

    def write_artifacts(tree) -> None:
        _write_tree_artifacts(tree, out, "tree")
        atomic_write(out / "reasoning.txt", (exchange.reasoning or "") + "\n")

    try:
        tree = plan(goals, scenario.domain, scenario.initial, _resolve_config(args).plan)
    except PlanBudgetExceeded as e:
        # keep the tree planned so far; the error still exits 1
        write_artifacts(e.partial_tree)
        raise
    write_artifacts(tree)
    print(f"goals: {goals}")
    print(f"tree: {out / 'tree.json'} ({tree.node_count()} nodes)")
    return EXIT_OK


# --- run ----------------------------------------------------------------------

def cmd_run(args) -> int:
    if args.tree and not args.no_resolve:
        print("--tree goes with --no-resolve; the full pipeline plans its own "
              "tree", file=sys.stderr)
        return EXIT_FAILURE
    given_tree = _load_tree(args.tree) if args.tree else None
    scenario = _find_scenario(args.scenario)
    config = _resolve_config(args)
    out = Path(args.out) if args.out else None

    outcomes: list[str] = []
    exit_code = EXIT_OK
    for index in range(args.repeat):
        # a fresh backend per repeat, so no answer cursor carries over
        backend = _make_backend(args, scenario)
        try:
            if args.no_resolve:
                tree = given_tree
                if tree is None:
                    goals, _ = interpret_goals(scenario, backend)
                    tree = plan(goals, scenario.domain, scenario.initial, config.plan)
                trace = execute(tree, scenario, max_ticks=config.plan.max_sim_ticks)
                for event in trace.events:
                    print(f"failure: {event.action} -> {event.error_message}")
                outcome, records_text = trace.outcome, ""
            else:
                result = resolve_until_success(scenario, backend, config)
                outcome = result.outcome.value
                tree = result.tree
                trace = result.traces[-1] if result.traces else None
                records_text = records_to_jsonl(result.records)
        except TickBudgetExceeded as e:
            # keep the ticks that led to the stop; the error still exits 1
            if index == 0 and out is not None:
                if args.no_resolve:
                    _write_tree_artifacts(tree, out, "final_tree")
                atomic_write(out / "trace.jsonl", e.trace.to_jsonl())
            raise
        finally:
            _close(backend)
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


# --- bench --------------------------------------------------------------------

def cmd_bench(args) -> int:
    # One remote backend serves the whole suite: it holds no per-case state,
    # so every case can share its kept-alive connection.
    remote = _make_backend(args) if args.backend == "remote" else None
    if remote is not None:
        # missing credentials or a bad endpoint would fail every case: stop
        # before scoring any. A failed call later scores only its case 0.
        remote.check_config()
    try:
        if args.suite == "goals":
            rows, exchanges = _bench_goals(args, remote)
        elif args.suite == "preconds":
            rows, exchanges = _bench_scenarios(args, remote, prefix="precond_")
        else:
            rows, exchanges = _bench_scenarios(args, remote, prefix="param_")
    finally:
        _close(remote)
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


def _load_goalset(path: Path) -> dict:
    """A ``goalbench/v1`` file, its shape checked."""
    data = load_yaml(path, "goal set")
    check_shape(data, GOALSET_SHAPE, str(path))
    return data


def _bench_goals(args, remote: RemoteBackend | None):
    bench_path = Path(args.goalset) if args.goalset else \
        bundled_data_path("benchmarks", "cafe_goals.yaml")
    data = _load_goalset(bench_path)
    domain = load_domain((bench_path.parent / data["domain"]).resolve())
    scene = data.get("scene") or {}
    try:
        state = make_state(domain, scene.get("visible") or (), (), scene.get("objects"))
    except BtError as e:
        raise SchemaError(f"bad scene: {e}", file=str(bench_path)) from e

    truths = [_goal_truth(entry, domain, state.registry, bench_path)
              for entry in data["instructions"]]
    per_difficulty: dict[str, list[float]] = {}
    exchanges: list[LlmExchange] = []
    for entry, truth in zip(data["instructions"], truths):
        scenario = Scenario(id=entry["id"], domain=domain, initial=state,
                            instruction=entry["instruction"], oracle_goals=entry["goal"])
        successes = 0
        for _ in range(args.repeat):
            backend = remote or _make_backend(args, scenario)
            try:
                goals, exchange = interpret_goals(scenario, backend)
                exchanges.append(exchange)
                if {str(lit) for lit in goals.conjuncts} == truth:
                    successes += 1
            except BtError:
                pass
        per_difficulty.setdefault(entry["difficulty"], []).append(
            successes / args.repeat)
    rows = [(difficulty, f"{100.0 * sum(scores) / len(scores):.1f}%")
            for difficulty, scores in sorted(per_difficulty.items())]
    return rows, exchanges


def _goal_truth(entry: dict, domain, registry: frozenset[str], source: Path) -> set[str]:
    """The goal-set entry's goal literals, each checked against the domain
    and the scene's objects; SchemaError naming the file and the entry."""
    try:
        literals = grammar.parse_literal_conjunction(entry["goal"])
        for lit in literals:
            domain.check_literal(lit, objects=registry)
    except BtError as e:
        raise SchemaError(f"instruction {entry['id']!r}: invalid goal "
                          f"{entry['goal']!r}: {e}", file=str(source)) from e
    return {str(lit) for lit in literals}


def _bench_scenarios(args, remote: RemoteBackend | None, prefix: str):
    directory = Path(args.scenarios) if args.scenarios else \
        bundled_data_path("scenarios")
    scenarios = [s for s in load_scenarios(directory) if s.id.startswith(prefix)]
    config = _resolve_config(args)
    rows = []
    exchanges: list[LlmExchange] = []
    for scenario in scenarios:
        successes = 0
        for _ in range(args.repeat):
            backend = remote or _make_backend(args, scenario)
            try:
                result = resolve_until_success(scenario, backend, config)
                # a case counts once its policy also replays from the
                # initial world with faults on and no backend to repair it
                if result.outcome is Outcome.SUCCESS and \
                        execute(result.tree, scenario,
                                max_ticks=config.plan.max_sim_ticks).succeeded:
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
    tree = _load_tree(args.tree)
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
    for lit in goals.conjuncts:
        try:
            domain.check_literal(lit, objects=initial.registry if initial else None)
        except BtError as e:
            raise DomainMismatch(f"goal {lit} does not fit domain {domain.name}: {e}") from e
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
    p_plan.add_argument("--instruction", help="instruction text (with --domain)")
    p_plan.add_argument("--state", help="initial literals joined by '&'")
    p_plan.add_argument("--out", default="out")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run a scenario through the full pipeline")
    add_common(p_run)
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--repeat", type=int, default=1)
    p_run.add_argument("--no-resolve", action="store_true", dest="no_resolve")
    p_run.add_argument("--tree", help="execute this tree file instead of planning "
                       "(with --no-resolve)")
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


#: the least value of each count flag; zero resolution rounds runs the
#: planned tree without repairing it
_FLAG_FLOORS = {"repeat": 1, "budget_rounds": 0, "budget_expansions": 1,
                "budget_reorders": 1, "budget_ticks": 1}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, least in _FLAG_FLOORS.items():
        if getattr(args, dest, least) < least:
            print(f"error: --{dest.replace('_', '-')} must be at least {least}",
                  file=sys.stderr)
            return EXIT_FAILURE
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
