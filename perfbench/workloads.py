"""The benchmark's workloads: set-up, one request, and its correctness check.

A workload's ``setup`` loads or generates its inputs and does any
precompute; ``items`` is the pool the closed loop draws requests from;
``run`` is the timed request; ``check`` inspects what ``run`` returned and
says whether it is correct (``Served.error`` is ``None``) or why not.

Synthesis workloads (``bundled``, ``tower-scale``, ``remote-stub``) run the
whole pipeline, ``resolve_until_success``, and then a fresh ``execute`` of
the patched tree from the initial world with faults on. ``execute`` never
consults a backend, so a replay that succeeds proves the fix is permanent:
any fault the tree did not handle would stop it with a pending event that
only a backend could resolve. ``deploy`` serves precomputed policies through
``bt.parse``, ``verify_tree`` and ``execute``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# Calls into the program go through module attributes (``sim.execute``), so
# the traced run's wrappers, which re-bind those attributes, see them.
from btpolicy import bt, resolver, sim, verify
from btpolicy.backends import RemoteBackend, RequestMeta
from btpolicy.planner import GoalSpec
from btpolicy.resolver import PipelineResult
from btpolicy.sim import ExecutionTrace, Scenario, bundled_data_path
from btpolicy.verify import VerificationReport

import towergen
from llmstub import StubProcess

TOWER_POOL = 64          # tower-scale scenarios per seed
DEPLOY_TOWERS = 24       # generated policies served by deploy, next to the bundled ones
STUB_DELAY_MS = 2.0      # fixed per-completion delay of the remote-stub stub
STUB_KEY = "bench-key"

_now = time.perf_counter


class SetupError(Exception):
    """Set-up could not produce correct inputs; the run fails without a result."""


class CountingBackend:
    """Delegates to a backend and counts completions and prompt characters."""

    def __init__(self, inner: Any):
        self.inner = inner
        self.calls = 0
        self.prompt_chars = 0

    def complete(self, prompt: str, meta: RequestMeta) -> str:
        self.calls += 1
        self.prompt_chars += len(prompt)
        return self.inner.complete(prompt, meta)


class RecordingBackend:
    """Delegates to a backend and records answers by exact prompt text."""

    def __init__(self, inner: Any, answers: dict[str, str]):
        self.inner = inner
        self.answers = answers

    def complete(self, prompt: str, meta: RequestMeta) -> str:
        answer = self.inner.complete(prompt, meta)
        if self.answers.setdefault(prompt, answer) != answer:
            raise SetupError(f"two different answers recorded for one prompt ({meta.key})")
        return answer


@dataclass
class Served:
    """What one request produced, as the metrics need it."""

    error: str | None
    llm_calls: int = 0
    prompt_chars: int = 0
    policy_nodes: int = 0
    rounds: int = 0
    rejected: int = 0
    replay_ticks: int = 0
    replay_s: float = 0.0


def goals_hold(scenario: Scenario, goals: GoalSpec, trace: ExecutionTrace) -> bool:
    final = trace.final_state
    return final is not None and all(scenario.domain.holds(final, c)
                                     for c in goals.conjuncts)


def load_towers(seed: int, count: int, workdir: Path) -> tuple[towergen.TowerBatch, list[Scenario]]:
    batch = towergen.generate(seed, count, workdir / "towers",
                              bundled_data_path("domains", "cube_tabletop.yaml"))
    cache: dict = {}
    return batch, [sim.load_scenario(p, domain_cache=cache) for p in batch.paths]


def describe_towers(batch: towergen.TowerBatch) -> list[str]:
    return [f"towers: seed {batch.seed}, {len(batch.paths)} scenarios, digest {batch.digest}",
            "tower sizes (cubes/goal conjuncts/blockers/blockers on destinations): "
            + " ".join(str(s) for s in batch.sizes)]


# --- synthesis ----------------------------------------------------------------

@dataclass
class SynthesisRun:
    result: PipelineResult
    backend: CountingBackend
    replay: ExecutionTrace
    replay_s: float


def synthesize(scenario: Scenario, backend: Any) -> SynthesisRun:
    """Instruction to patched policy, then a replay of the policy."""
    counting = CountingBackend(backend)
    result = resolver.resolve_until_success(scenario, counting)
    start = _now()
    replay = sim.execute(result.tree, scenario)
    return SynthesisRun(result, counting, replay, _now() - start)


class Workload:
    name = ""
    wait_per_call_s = 0.0   # fixed wait per backend completion, outside the program

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items: list = []

    def setup(self) -> list[str]:
        """Load or generate the inputs; returns lines describing them."""
        raise NotImplementedError

    def start(self) -> None:
        """Bring up anything the timed loop needs that is not the program's set-up."""

    def close(self) -> None:
        """Stop what ``start`` brought up."""


class Synthesis(Workload):
    """Workloads whose request is ``synthesize``."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.golden: bt.BehaviorTree | None = None

    def backend_for(self, scenario: Scenario) -> Any:
        return scenario.oracle_backend()

    def run(self, scenario: Scenario) -> SynthesisRun:
        return synthesize(scenario, self.backend_for(scenario))

    def checked(self, scenario: Scenario, backend: Any) -> SynthesisRun:
        """A set-up pass over one scenario; any failed check stops the run."""
        out = synthesize(scenario, backend)
        served = self.check(scenario, out)
        if served.error is not None:
            raise SetupError(f"set-up pass: {served.error}")
        return out

    def check(self, scenario: Scenario, out: SynthesisRun) -> Served:
        result = out.result
        served = Served(None, out.backend.calls, out.backend.prompt_chars,
                        result.tree.node_count(), result.rounds,
                        sum(r.rejected for r in result.records),
                        len(out.replay.ticks), out.replay_s)
        problems = []
        if result.outcome.value != scenario.expected_outcome:
            problems.append(f"outcome {result.outcome.value}, expected {scenario.expected_outcome}")
        if scenario.expected_rounds is not None and result.rounds != scenario.expected_rounds:
            problems.append(f"{result.rounds} rounds, expected {scenario.expected_rounds}")
        if scenario.id == "cube_stack_golden" and not bt.tree_equal(result.tree, self.golden):
            problems.append("patched tree differs from the committed golden")
        if scenario.expected_outcome == "success":
            if out.replay.outcome != "success":
                problems.append(f"replay from the initial world ended {out.replay.outcome}")
            elif not goals_hold(scenario, result.goals, out.replay):
                problems.append("replay succeeded without reaching the goal")
        if problems:
            served.error = f"{scenario.id}: " + "; ".join(problems)
        return served

    def load_bundled(self) -> None:
        self.items = sim.load_scenarios(bundled_data_path("scenarios"))
        self.golden = bt.parse(bundled_data_path("goldens", "cube_stack_after.json").read_text())


class Bundled(Synthesis):
    name = "bundled"

    def setup(self) -> list[str]:
        self.load_bundled()
        return [f"bundled: {len(self.items)} scenarios"]


class TowerScale(Synthesis):
    name = "tower-scale"

    def setup(self) -> list[str]:
        batch, self.items = load_towers(self.seed, TOWER_POOL, self.workdir)
        return describe_towers(batch)


class RemoteStub(Synthesis):
    """The bundled requests, answered over HTTP by the loopback stub."""

    name = "remote-stub"
    wait_per_call_s = STUB_DELAY_MS / 1000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.answers: dict[str, str] = {}
        self.stub: StubProcess | None = None
        self.remote: RemoteBackend | None = None

    def setup(self) -> list[str]:
        self.load_bundled()
        answers: dict[str, str] = {}
        for scenario in self.items:
            self.checked(scenario, RecordingBackend(scenario.oracle_backend(), answers))
        self.answers = answers
        return [f"remote-stub: {len(self.items)} scenarios, {len(answers)} recorded answers, "
                f"stub delay {STUB_DELAY_MS} ms per completion"]

    def start(self) -> None:
        self.stub = StubProcess(self.answers, self.workdir, key=STUB_KEY,
                                delay_ms=STUB_DELAY_MS)
        self.remote = RemoteBackend(model="stub", endpoint=self.stub.url,
                                    api_key=STUB_KEY, timeout=30.0)

    def backend_for(self, scenario: Scenario) -> Any:
        return self.remote

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


# --- deploy -------------------------------------------------------------------

@dataclass
class Policy:
    scenario: Scenario
    goals: GoalSpec
    text: str              # bt/v1 JSON of the patched tree
    llm_calls: int         # completions its synthesis took
    prompt_chars: int

    @property
    def id(self) -> str:
        return self.scenario.id


@dataclass
class DeployRun:
    tree: bt.BehaviorTree
    report: VerificationReport
    trace: ExecutionTrace
    exec_s: float


class Deploy(Workload):
    """Serve precomputed policies: parse, verify, execute with faults on."""

    name = "deploy"

    def setup(self) -> list[str]:
        batch, towers = load_towers(self.seed, DEPLOY_TOWERS, self.workdir)
        synthesis = Bundled(self.seed, self.workdir)
        synthesis.load_bundled()
        policies = []
        for scenario in synthesis.items + towers:
            out = synthesis.checked(scenario, scenario.oracle_backend())
            policies.append(Policy(scenario, out.result.goals, bt.serialize(out.result.tree),
                                   out.backend.calls, out.backend.prompt_chars))
        self.items = policies
        return [f"deploy: {len(policies)} precomputed policies "
                f"({len(policies) - len(towers)} bundled, {len(towers)} generated)",
                *describe_towers(batch)]

    def run(self, policy: Policy) -> DeployRun:
        scenario = policy.scenario
        tree = bt.parse(policy.text)
        report = verify.verify_tree(tree, scenario.domain, policy.goals,
                             initial_state=scenario.initial)
        start = _now()
        trace = sim.execute(tree, scenario)
        return DeployRun(tree, report, trace, _now() - start)

    def check(self, policy: Policy, out: DeployRun) -> Served:
        served = Served(None, policy.llm_calls, policy.prompt_chars,
                        out.tree.node_count(), replay_ticks=len(out.trace.ticks),
                        replay_s=out.exec_s)
        problems = [str(v) for v in out.report.violations]
        if out.trace.outcome != "success":
            problems.append(f"execution ended {out.trace.outcome}")
        elif not goals_hold(policy.scenario, policy.goals, out.trace):
            problems.append("execution succeeded without reaching the goal")
        if problems:
            served.error = f"{policy.scenario.id}: " + "; ".join(problems)
        return served


WORKLOADS = {w.name: w for w in (Bundled, TowerScale, Deploy, RemoteStub)}


def serve(workload, item) -> tuple[float, Served]:
    """One request: the timed ``run``, then its check outside the timing.
    Returns the latency in seconds and what was served."""
    start = _now()
    try:
        out = workload.run(item)
        latency = _now() - start
        return latency, workload.check(item, out)
    except Exception as e:  # a raising request is a failed request, not a crash
        return _now() - start, Served(f"{item.id}: {type(e).__name__}: {e}")


def request_order(items: list, seed: int):
    """Endless stream over the pool, each pass in a fresh seeded shuffle."""
    rng = random.Random(f"order:{seed}")
    while True:
        for index in rng.sample(range(len(items)), len(items)):
            yield items[index]
