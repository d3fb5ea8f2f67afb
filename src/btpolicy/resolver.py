"""Failure and parameter resolution.

On an action failure the backend is asked for the missing preconditions;
they are inserted as the action's first preconditions, the planner expands
the now-failing condition leaves, and execution resumes on the patched
policy. Unbound action parameters are resolved the same way before
execution, and a resolved value propagates to every action leaf that shares
the slot in the same object context. Every interaction is captured in a
ResolutionRecord so a run leaves an auditable trail.

All three questions (goals, missing preconditions, a slot value) take one
path, ``_ask``, the only place the package builds a ``PromptSpec``.

``resolve_until_success`` is one loop of rounds under one budget,
``max_resolution_rounds``, shared by both kinds of round. Each pass fills
the first open slot if there is one (a parameter round). Otherwise it binds
the remaining slots' defaults and runs the tree: a failure is resolved (a
precondition round), and the first success is consolidated, by planning
the tree once more from the initial world, after which the run ends
``success`` as soon as no slot is open. So open slots are filled before the
tree runs: at the start, after each repair and after consolidation. A
round's number is its position in the run's records, from 1 with no gaps.
An answer that does not parse makes a rejected record of either kind, and
a precondition no skill achieves ends the run ``unsolvable``.

Each run keeps a cache of accepted precondition answers, owned by
``resolve_until_success`` and empty at the start of every run, so nothing
learned outlives it. The key is what a robot reports: the failing skill,
the error message and the domain category of each object the action binds
(never the fault rule behind the failure, which is simulator ground truth).
An answer is stored once its insertion and re-plan succeed, lifted: an
argument equal to one of the failing action's object-slot values becomes
``$slot``. A later failure with the same key grounds the cached literals at
its own action, drops those already guarding it, and inserts and re-plans
the rest as it would a backend answer, without a prompt or backend call;
its record has no exchange and names the round it reuses (``reused_from``).
When nothing is cached under the key, or all of the cached answer already
guards the action, the backend is asked as usual and an accepted answer
replaces the cached one. Rejected rounds, unparseable answers and re-plans
that raise store nothing. The cache only answers failures: no leaf that has
not failed is guarded ahead of time.

Each record fingerprints the tree as the step found it and as it left it.
The resolver changes a tree only through the tree's own edits (``rebind``
binds a slot), which keep each node's cached compact text current, so a
fingerprint formats only the nodes an edit touched, and fingerprinting an
unchanged tree costs one SHA-256 of its cached text. One generator walks
the action leaves' unbound numeric and categorical slots in preorder (none
when no skill declares one); each pass of the round loop filters it for
the first open slot and the defaults, and a parameter round for the leaves
it binds. A precondition round re-plans towards the run's goals, which the
loop hands it. The trees it runs are grown from checked goals, domain
templates and parsed answers, so it runs them with ``sim.run_trusted``,
without the domain gate of ``sim.execute``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator

from .backends import Backend, RequestMeta
from .bt import BehaviorTree, NodeKind, TreeNode, insert_preconditions, iter_preorder
from .domain import Domain, Slot, WorldState
from .errors import BtError, ParseError, Unsolvable
from .llm import (LlmExchange, ParamValue, PromptSpec, Role, build_prompt,
                  condition_catalog, parse_goal_response, parse_param_response,
                  parse_precondition_response, scene_from_state)
from .planner import GoalSpec, PlanConfig, guarding_literals, plan
from .sim import ExecutionTrace, FailureEvent, Scenario, run_trusted
from .terms import GroundAction, Literal, ground


class Outcome(Enum):
    SUCCESS = "success"
    EXHAUSTED = "exhausted"
    UNSOLVABLE = "unsolvable"
    FAILURE = "failure"            # tree failed with nothing to resolve


@dataclass(frozen=True)
class ResolveConfig:
    max_resolution_rounds: int = 8
    plan: PlanConfig = PlanConfig()


@dataclass(frozen=True)
class ParamRequest:
    """An unbound numeric/categorical slot on a specific action leaf."""

    action_id: int
    slot: Slot
    context_objects: tuple[str, ...]


@dataclass
class ResolutionRecord:
    round: int
    exchange: LlmExchange | None
    inserted: tuple = ()
    tree_before: str = ""
    tree_after: str = ""
    event: FailureEvent | None = None
    request: ParamRequest | None = None
    rejected: bool = False
    error: str | None = None
    reused_from: int | None = None  # round whose cached answer this one grounds

    @property
    def kind(self) -> str:
        """A parameter round carries its request; every other round is a
        precondition round."""
        return "parameter" if self.request is not None else "precondition"

    def to_obj(self) -> dict:
        obj = {
            "kind": self.kind, "round": self.round,
            "tree_before": self.tree_before, "tree_after": self.tree_after,
            "inserted": [str(x.value) if isinstance(x, ParamValue) else str(x)
                         for x in self.inserted],
            "rejected": self.rejected, "error": self.error,
        }
        if self.event is not None:
            obj["action"] = str(self.event.action)
            obj["message"] = self.event.error_message
            obj["phase"] = self.event.phase
        if self.request is not None:
            obj["slot"] = self.request.slot.name
        if self.exchange is not None:
            obj["reasoning"] = self.exchange.reasoning
        if self.reused_from is not None:
            obj["reused_from"] = self.reused_from
        return obj


def records_to_jsonl(records: list[ResolutionRecord]) -> str:
    return "".join(json.dumps(r.to_obj(), sort_keys=True) + "\n" for r in records)


def tree_fingerprint(tree: BehaviorTree) -> str:
    """Short hash of the tree's structure, node ids and payloads.

    Hashes ``BehaviorTree.compact``, the compact JSON of the ``bt/v1`` root
    node: equal for trees that serialize identically. The tree keeps each node's text
    through its own edits, so only what changed since the last fingerprint
    is formatted again."""
    return hashlib.sha256(tree.compact().encode()).hexdigest()[:12]


def _answer_key(domain: Domain, event: FailureEvent) -> tuple:
    """What a robot reports about a failure: the skill, the error message
    and the category of each object the action binds. Never the fault rule
    (``FailureEvent.rule_id``), which is simulator ground truth."""
    action = event.action
    return (action.skill, event.error_message,
            tuple(domain.object(action.get(slot.name)).category
                  for slot in domain.skill(action.skill).object_slots))


def lift(literals: Iterable[Literal], action: GroundAction,
         domain: Domain) -> tuple[Literal, ...]:
    """Each argument equal to one of the action's object-slot values becomes
    that slot (``$slot``, the first slot holding it); others stay.
    ``terms.ground`` at the same action undoes it."""
    slots: dict[str, str] = {}
    for slot in domain.skill(action.skill).object_slots:
        slots.setdefault(action.get(slot.name), "$" + slot.name)
    return tuple(Literal(lit.predicate, tuple(slots.get(a, a) for a in lit.args),
                         lit.negated) for lit in literals)


_EXAMPLES = {Role.GOAL_INTERPRETATION: "goal_examples",
             Role.FAILURE_RESOLUTION: "precondition_examples",
             Role.PARAMETER_RESOLUTION: "parameter_examples"}


def _ask(backend: Backend, meta: RequestMeta, domain: Domain, world: WorldState,
         instruction: str, parse: Callable[[str], tuple[Any, str | None]],
         **detail) -> LlmExchange:
    """Ask the backend one question: the prompt for ``meta.role`` takes its
    objects and scene from the visible ``world``, the catalog from the
    domain, the role's examples and the ``detail`` fields; ``parse`` reads
    the reply (a ParseError propagates)."""
    world = world.visible_only()
    spec = PromptSpec(role=meta.role, instruction=instruction, objects=world.objects,
                      condition_catalog=condition_catalog(domain),
                      examples=getattr(domain, _EXAMPLES[meta.role]),
                      scene_description=scene_from_state(domain, world), **detail)
    raw = backend.complete(build_prompt(spec), meta)
    parsed, reasoning = parse(raw)
    return LlmExchange(spec, raw, parsed=parsed, reasoning=reasoning)


def resolve(tree: BehaviorTree, event: FailureEvent, domain: Domain,
            backend: Backend, config: ResolveConfig | None = None, *,
            goals: GoalSpec, instruction: str = "", key: str = "", round_index: int = 1,
            answers: dict | None = None) -> tuple[BehaviorTree, ResolutionRecord]:
    """One failure-resolution step: ask (or reuse an answer), insert, re-expand
    towards the run's ``goals``.

    ``answers`` is the run's answer cache (module docstring): an answer
    cached under the failure's key is grounded at the failing action and
    used without a backend call, unless all of it already guards the
    action. Suggested literals already guarding the failing action are
    rejected as duplicates; a round whose suggestions are all duplicates
    patches nothing (the record says so) to keep repeated identical advice
    from looping."""
    config = config or ResolveConfig()
    answers = {} if answers is None else answers
    world = event.world_snapshot
    existing = guarding_literals(tree, event.action_id) or []
    cache_key = _answer_key(domain, event)
    source, lifted = answers.get(cache_key, (None, ()))
    fresh = [lit for lit in ground(lifted, event.action) if lit not in existing]
    reused_from = source if fresh else None
    exchange = None
    if not fresh:
        exchange = _ask(backend, RequestMeta(Role.FAILURE_RESOLUTION, key, event=event),
                        domain, world, instruction,
                        lambda raw: parse_precondition_response(
                            raw, domain, objects=world.object_names),
                        error_message=event.error_message, failing_action=event.action)
        fresh = [lit for lit in exchange.parsed if lit not in existing]
    before = tree_fingerprint(tree)
    if not fresh:
        record = ResolutionRecord(round_index, exchange, tree_before=before,
                                  tree_after=before, event=event, rejected=True,
                                  error="all suggested preconditions already present")
        return tree, record

    insert_preconditions(tree, event.action_id, fresh)
    plan(goals, domain, world, config.plan, tree=tree)
    if reused_from is None:
        answers[cache_key] = (round_index, lift(fresh, event.action, domain))
    record = ResolutionRecord(round_index, exchange, inserted=tuple(fresh),
                              tree_before=before, tree_after=tree_fingerprint(tree),
                              event=event, reused_from=reused_from)
    return tree, record


def _unbound_slots(tree: BehaviorTree, domain: Domain) -> Iterator[tuple[TreeNode, Slot]]:
    """Each action leaf's unbound numeric or categorical slots, in preorder.
    Walks nothing when no skill declares such a slot."""
    if all(slot.kind == "object" for skill in domain.skills.values()
           for slot in skill.params):
        return
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.ACTION:
            action = node.action
            for slot in domain.skill(action.skill).params:
                if slot.kind != "object" and not action.is_bound(slot.name):
                    yield node, slot


def _scan_params(tree: BehaviorTree, domain: Domain, open_params: tuple[str, ...],
                 ) -> tuple[ParamRequest | None, list[tuple[TreeNode, Slot]]]:
    """The first (preorder) openly-resolvable unbound slot as a request, and
    every non-open one that has a default."""
    request = None
    defaults: list[tuple[TreeNode, Slot]] = []
    for node, slot in _unbound_slots(tree, domain):
        if slot.name in open_params:
            if request is None:
                request = ParamRequest(node.id, slot, tuple(node.action.symbol_values()))
        elif slot.default is not None:
            defaults.append((node, slot))
    return request, defaults


def _bind_defaults(tree: BehaviorTree, defaults: list[tuple[TreeNode, Slot]]) -> None:
    for node, slot in defaults:
        tree.rebind(node.id, node.action.with_slot(slot.name, slot.default))


def find_param_request(tree: BehaviorTree, domain: Domain,
                       open_params: tuple[str, ...]) -> ParamRequest | None:
    """First action leaf (preorder) with an unbound, openly-resolvable slot.

    No code in ``src/`` calls it (the round loop calls ``_scan_params``);
    it stays because ``perfbench/layers.py`` wraps it."""
    return _scan_params(tree, domain, open_params)[0]


def bind_default_params(tree: BehaviorTree, domain: Domain,
                        open_params: tuple[str, ...]) -> None:
    """Fill non-open unbound slots from their declared defaults.

    No code in ``src/`` calls it (the round loop calls ``_bind_defaults``);
    it stays because ``perfbench/layers.py`` wraps it."""
    _bind_defaults(tree, _scan_params(tree, domain, open_params)[1])


def resolve_parameter(tree: BehaviorTree, request: ParamRequest, domain: Domain,
                      backend: Backend, *, instruction: str = "", key: str = "",
                      world: WorldState, round_index: int = 1,
                      ) -> tuple[BehaviorTree, ResolutionRecord]:
    """Ask once for a slot value, then bind every action leaf sharing the
    slot name in the same object context (shared bound object)."""
    slot = request.slot
    exchange = _ask(backend, RequestMeta(Role.PARAMETER_RESOLUTION, key, param=request),
                    domain, world, instruction, lambda raw: parse_param_response(raw, slot),
                    failing_action=tree.find(request.action_id).action, param_slot=slot)
    value = exchange.parsed
    before = tree_fingerprint(tree)
    context = set(request.context_objects)
    bound = 0
    for node, unbound in _unbound_slots(tree, domain):
        if unbound.name != slot.name or \
                context and not context.intersection(node.action.symbol_values()):
            continue
        tree.rebind(node.id, node.action.with_slot(slot.name, value.value))
        bound += 1
    record = ResolutionRecord(round_index, exchange, inserted=(value,) * bound,
                              tree_before=before, tree_after=tree_fingerprint(tree),
                              request=request)
    return tree, record


@dataclass
class PipelineResult:
    outcome: Outcome
    tree: BehaviorTree
    goals: GoalSpec | None
    goal_exchange: LlmExchange | None
    records: list[ResolutionRecord] = field(default_factory=list)
    traces: list[ExecutionTrace] = field(default_factory=list)

    @property
    def world(self) -> WorldState | None:
        """The world as the last run left it; None before any run."""
        return self.traces[-1].final_state if self.traces else None

    @property
    def rounds(self) -> int:
        return len(self.records)


def interpret_goals(scenario: Scenario, backend: Backend) -> tuple[GoalSpec, LlmExchange]:
    """One backend call turning the instruction into a goal conjunction."""
    domain, world = scenario.domain, scenario.initial
    exchange = _ask(backend, RequestMeta(Role.GOAL_INTERPRETATION, scenario.id),
                    domain, world, scenario.instruction,
                    lambda raw: parse_goal_response(raw, domain, objects=world.object_names))
    return exchange.parsed, exchange


def resolve_until_success(scenario: Scenario, backend: Backend,
                          config: ResolveConfig | None = None) -> PipelineResult:
    """Full pipeline: interpret, plan, then one round loop until the policy
    succeeds or a budget runs out (module docstring).

    The world persists across runs the way a physical scene would; the
    returned tree is the permanently patched policy."""
    config = config or ResolveConfig()
    domain = scenario.domain

    goals, goal_exchange = interpret_goals(scenario, backend)
    tree = plan(goals, domain, scenario.initial, config.plan)
    result = PipelineResult(Outcome.FAILURE, tree, goals, goal_exchange)
    answers: dict = {}
    consolidated = False
    while True:
        request, defaults = _scan_params(tree, domain, scenario.open_params)
        event = None
        if request is None:
            _bind_defaults(tree, defaults)
            if consolidated:
                result.outcome = Outcome.SUCCESS
                return result
            # built from checked parts only, so ungated (module docstring)
            trace = run_trusted(tree, scenario, world=result.world,
                                max_ticks=config.plan.max_sim_ticks)
            result.traces.append(trace)
            if trace.outcome == "success":
                # Consolidate: expand whatever a fresh start would still trip
                # over, so the patched policy replays from the initial world
                # without further resolution. Planning is backend-free, but its
                # new branches may carry open slots, which the next passes fill.
                try:
                    plan(goals, domain, scenario.initial, config.plan, tree=tree)
                except BtError:
                    pass
                consolidated = True
                continue
            event = trace.pending_event
            if event is None:
                result.outcome = Outcome.FAILURE
                return result
        if len(result.records) >= config.max_resolution_rounds:
            result.outcome = Outcome.EXHAUSTED
            return result
        round_index = len(result.records) + 1
        try:
            if request is not None:
                _, record = resolve_parameter(
                    tree, request, domain, backend,
                    instruction=scenario.instruction, key=scenario.id,
                    world=scenario.initial, round_index=round_index)
            else:
                _, record = resolve(tree, event, domain, backend, config, goals=goals,
                                    instruction=scenario.instruction, key=scenario.id,
                                    round_index=round_index, answers=answers)
        except ParseError as e:
            record = ResolutionRecord(round_index, None, event=event, request=request,
                                      rejected=True, error=f"{type(e).__name__}: {e}")
        except Unsolvable:
            result.outcome = Outcome.UNSOLVABLE
            return result
        result.records.append(record)
