"""Failure and parameter resolution.

On an action failure the backend is asked for the missing preconditions;
they are inserted as the action's first preconditions, the planner expands
the now-failing condition leaves, and execution resumes on the patched
policy. Unbound action parameters are resolved the same way before
execution, and a resolved value propagates to every action leaf that shares
the slot in the same object context. Every interaction is captured in a
ResolutionRecord so a run leaves an auditable trail.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from .backends import Backend, RequestMeta
from .bt import BehaviorTree, NodeKind, _node_to_obj, iter_preorder
from .domain import Domain, Slot, WorldState
from .errors import BtError, ParseError, Unsolvable
from .llm import (LlmExchange, ParamValue, PromptSpec, Role, build_prompt,
                  condition_catalog, extract_reasoning, parse_goal_response,
                  parse_param_response, parse_precondition_response,
                  scene_from_state)
from .planner import (GoalSpec, PlanConfig, goals_of, guarding_literals,
                      insert_preconditions, plan)
from .sim import ExecConfig, ExecutionTrace, FailureEvent, Scenario, execute


class Outcome(Enum):
    SUCCESS = "success"
    EXHAUSTED = "exhausted"
    UNSOLVABLE = "unsolvable"
    FAILURE = "failure"            # tree failed with nothing to resolve


@dataclass(frozen=True)
class ResolveConfig:
    max_resolution_rounds: int = 8
    plan: PlanConfig = PlanConfig()
    exec: ExecConfig = ExecConfig()


@dataclass(frozen=True)
class ParamRequest:
    """An unbound numeric/categorical slot on a specific action leaf."""

    action_id: int
    slot: Slot
    context_objects: tuple[str, ...]


@dataclass
class ResolutionRecord:
    kind: str                       # "precondition" | "parameter"
    round: int
    exchange: LlmExchange | None
    inserted: tuple = ()
    tree_before: str = ""
    tree_after: str = ""
    event: FailureEvent | None = None
    request: ParamRequest | None = None
    rejected: bool = False
    error: str | None = None

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
        return obj


def records_to_jsonl(records: list[ResolutionRecord]) -> str:
    return "".join(json.dumps(r.to_obj(), sort_keys=True) + "\n" for r in records)


def tree_fingerprint(tree: BehaviorTree) -> str:
    """Short hash of the tree's structure, node ids and payloads.

    Hashes compact JSON of the ``bt/v1`` node objects: equal for trees that
    serialize identically, and far cheaper than the indented file form."""
    text = json.dumps(_node_to_obj(tree.root), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def resolve(tree: BehaviorTree, event: FailureEvent, domain: Domain,
            backend: Backend, config: ResolveConfig | None = None, *,
            instruction: str = "", key: str = "",
            round_index: int = 1) -> tuple[BehaviorTree, ResolutionRecord]:
    """One failure-resolution step: ask, insert, re-expand.

    Suggested literals already guarding the failing action are rejected as
    duplicates; a round whose suggestions are all duplicates patches nothing
    (the record says so) to keep repeated identical advice from looping."""
    config = config or ResolveConfig()
    world = event.world_snapshot
    spec = PromptSpec(
        role=Role.FAILURE_RESOLUTION,
        instruction=instruction,
        objects=world.objects,
        condition_catalog=condition_catalog(domain),
        examples=domain.precondition_examples,
        scene_description=scene_from_state(domain, world),
        error_message=event.error_message,
        failing_action=event.action,
    )
    raw = backend.complete(build_prompt(spec), RequestMeta(Role.FAILURE_RESOLUTION, key, event=event))
    before = tree_fingerprint(tree)
    literals, reasoning = parse_precondition_response(raw, domain,
                                                      objects=world.object_names)
    exchange = LlmExchange(spec, raw, parsed=literals, reasoning=reasoning)

    existing = guarding_literals(tree, event.action_id) or []
    fresh = [lit for lit in literals if lit not in existing]
    if not fresh:
        record = ResolutionRecord("precondition", round_index, exchange,
                                  tree_before=before, tree_after=before,
                                  event=event, rejected=True,
                                  error="all suggested preconditions already present")
        return tree, record

    insert_preconditions(tree, event.action_id, fresh)
    goals = goals_of(tree)
    plan(goals, domain, world, config.plan, tree=tree)
    record = ResolutionRecord("precondition", round_index, exchange,
                              inserted=tuple(fresh), tree_before=before,
                              tree_after=tree_fingerprint(tree), event=event)
    return tree, record


def find_param_request(tree: BehaviorTree, domain: Domain,
                       open_params: tuple[str, ...]) -> ParamRequest | None:
    """First action leaf (preorder) with an unbound, openly-resolvable slot."""
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.ACTION:
            continue
        skill = domain.skill(node.action.skill)
        for slot in skill.params:
            if slot.kind == "object" or node.action.is_bound(slot.name):
                continue
            if slot.name in open_params:
                return ParamRequest(node.id, slot,
                                    tuple(node.action.symbol_values()))
    return None


def bind_default_params(tree: BehaviorTree, domain: Domain,
                        open_params: tuple[str, ...]) -> None:
    """Fill non-open unbound slots from their declared defaults."""
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.ACTION:
            continue
        skill = domain.skill(node.action.skill)
        for slot in skill.params:
            if (slot.kind != "object" and not node.action.is_bound(slot.name)
                    and slot.name not in open_params and slot.default is not None):
                node.payload = node.action.with_slot(slot.name, slot.default)


def resolve_parameter(tree: BehaviorTree, request: ParamRequest, domain: Domain,
                      backend: Backend, *, instruction: str = "", key: str = "",
                      world: WorldState | None = None,
                      round_index: int = 1) -> tuple[BehaviorTree, ResolutionRecord]:
    """Ask once for a slot value, then bind every action leaf sharing the
    slot name in the same object context (shared bound object)."""
    target = tree.find(request.action_id)
    objects = world.objects if world is not None else ()
    spec = PromptSpec(
        role=Role.PARAMETER_RESOLUTION,
        instruction=instruction,
        objects=objects,
        condition_catalog=condition_catalog(domain),
        examples=domain.parameter_examples,
        scene_description=scene_from_state(domain, world) if world else "",
        failing_action=target.action,
        param_slot=request.slot,
    )
    raw = backend.complete(build_prompt(spec),
                           RequestMeta(Role.PARAMETER_RESOLUTION, key, param=request))
    before = tree_fingerprint(tree)
    value = parse_param_response(raw, request.slot)
    exchange = LlmExchange(spec, raw, parsed=value, reasoning=extract_reasoning(raw))

    context = set(request.context_objects)
    bound = 0
    for node, _ in iter_preorder(tree.root):
        if node.kind is not NodeKind.ACTION:
            continue
        skill = domain.skill(node.action.skill)
        if not any(s.name == request.slot.name and s.kind != "object"
                   for s in skill.params):
            continue
        if node.action.is_bound(request.slot.name):
            continue
        if context and not context.intersection(node.action.symbol_values()):
            continue
        node.payload = node.action.with_slot(request.slot.name, value.value)
        bound += 1
    record = ResolutionRecord("parameter", round_index, exchange,
                              inserted=(value,) * bound, tree_before=before,
                              tree_after=tree_fingerprint(tree), request=request)
    return tree, record


@dataclass
class PipelineResult:
    outcome: Outcome
    tree: BehaviorTree
    goals: GoalSpec | None
    goal_exchange: LlmExchange | None
    records: list[ResolutionRecord] = field(default_factory=list)
    traces: list[ExecutionTrace] = field(default_factory=list)
    world: WorldState | None = None

    @property
    def rounds(self) -> int:
        return len(self.records)


def interpret_goals(scenario: Scenario, backend: Backend) -> tuple[GoalSpec, LlmExchange]:
    """One backend call turning the instruction into a goal conjunction."""
    domain = scenario.domain
    world = scenario.initial
    spec = PromptSpec(
        role=Role.GOAL_INTERPRETATION,
        instruction=scenario.instruction,
        objects=world.objects,
        condition_catalog=condition_catalog(domain),
        examples=domain.goal_examples,
        scene_description=scene_from_state(domain, world.visible_only()),
    )
    raw = backend.complete(build_prompt(spec),
                           RequestMeta(Role.GOAL_INTERPRETATION, scenario.id))
    goals, reasoning = parse_goal_response(raw, domain, objects=world.object_names)
    return goals, LlmExchange(spec, raw, parsed=goals, reasoning=reasoning)


def resolve_until_success(scenario: Scenario, backend: Backend,
                          config: ResolveConfig | None = None) -> PipelineResult:
    """Full pipeline: interpret, plan, resolve parameters, execute, and
    repair on failures until the policy succeeds or budgets run out.

    The world persists across rounds the way a physical scene would; the
    returned tree is the permanently patched policy."""
    config = config or ResolveConfig()
    domain = scenario.domain

    goals, goal_exchange = interpret_goals(scenario, backend)
    tree = plan(goals, domain, scenario.initial, config.plan)
    result = PipelineResult(Outcome.FAILURE, tree, goals, goal_exchange)

    rounds = 0

    def fill_parameters() -> bool:
        """Resolve open slots and default the rest; False when out of rounds.

        Re-run after every repair: re-planning can introduce new actions
        whose open slots also need values."""
        nonlocal rounds
        while True:
            request = find_param_request(tree, domain, scenario.open_params)
            if request is None:
                break
            if rounds >= config.max_resolution_rounds:
                return False
            rounds += 1
            _, record = resolve_parameter(
                tree, request, domain, backend,
                instruction=scenario.instruction, key=scenario.id,
                world=scenario.initial.visible_only(), round_index=rounds)
            result.records.append(record)
        bind_default_params(tree, domain, scenario.open_params)
        return True

    if not fill_parameters():
        result.outcome = Outcome.EXHAUSTED
        return result

    world = scenario.initial
    while True:
        trace = execute(tree, scenario, config.exec, world=world)
        result.traces.append(trace)
        world = trace.final_state or world
        result.world = world
        if trace.outcome == "success":
            # Consolidate: expand whatever a fresh start would still trip
            # over, so the patched policy replays from the initial world
            # without further resolution. Planning is backend-free, but its
            # new branches may carry open slots, so fill once more.
            try:
                plan(goals, domain, scenario.initial, config.plan, tree=tree)
            except BtError:
                pass
            fill_parameters()
            result.outcome = Outcome.SUCCESS
            return result
        if trace.pending_event is None:
            result.outcome = Outcome.FAILURE
            return result
        event = trace.pending_event
        if rounds >= config.max_resolution_rounds:
            result.outcome = Outcome.EXHAUSTED
            return result
        rounds += 1
        try:
            _, record = resolve(tree, event, domain, backend, config,
                                instruction=scenario.instruction,
                                key=scenario.id, round_index=rounds)
            result.records.append(record)
            if not fill_parameters():
                result.outcome = Outcome.EXHAUSTED
                return result
        except ParseError as e:
            result.records.append(ResolutionRecord(
                "precondition", rounds, None, event=event, rejected=True,
                error=f"{type(e).__name__}: {e}"))
        except Unsolvable:
            result.outcome = Outcome.UNSOLVABLE
            return result
