"""Deterministic scenario executor with fault injection.

A scenario bundles a domain reference, an initial world (visible plus
hidden fault state), an instruction, fault rules, and the ground-truth
answers the oracle backend serves. Executing a tree ticks it against the
world: at most one action fires per tick (it returns Running and its
effects land immediately, completing by the next tick), fault rules
intercept firings, and execution stops at the first failure event so the
resolver can step in.

Scenario files are versioned YAML (schema id ``scenario/v1``); see
docs/formats.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import grammar
from .backends import OracleBackend, RequestMeta
from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TreeNode,
                 iter_preorder, tick)
from .domain import Domain, WorldState, load_domain, make_state
from .errors import (DomainMismatch, EvaluationError, ParseError, SchemaError,
                     TickBudgetExceeded, UnknownPredicate, UnknownObject)
from .llm import Role
from .terms import GroundAction, Literal

SCENARIO_SCHEMA = "scenario/v1"


@dataclass(frozen=True)
class FaultRule:
    """Injects a failure while its guard holds.

    The guard is a literal conjunction over the union of visible and hidden
    state; ``@slot`` arguments are filled from the matched action's binding.
    ``clears_when`` literals, when given, make the rule inert once they all
    hold. Mode ``fail`` fails the action outright; ``suppress_effects`` lets
    the action "complete" without its declared effects, which the executor's
    postcondition audit then reports as a failure."""

    id: str
    skill: str
    where: tuple[tuple[str, str], ...] = ()        # slot -> required object
    where_category: tuple[tuple[str, str], ...] = ()  # slot -> required category
    guard: tuple[Literal, ...] = ()
    message: str = ""
    clears_when: tuple[Literal, ...] = ()
    phase: str = "execution"                        # "planning" | "execution"
    mode: str = "fail"                              # "fail" | "suppress_effects"

    def matches(self, domain: Domain, action: GroundAction) -> bool:
        if action.skill != self.skill:
            return False
        for slot, required in self.where:
            if action.get(slot) != required:
                return False
        for slot, category in self.where_category:
            value = action.get(slot)
            if not isinstance(value, str):
                return False
            obj = domain.objects.get(value)
            if obj is None or obj.category != category:
                return False
        return True

    def fires(self, domain: Domain, state: WorldState, action: GroundAction) -> bool:
        if not self.matches(domain, action):
            return False
        binding = {k: v for k, v in action.as_dict().items() if isinstance(v, str)}
        if self.clears_when:
            cleared = all(domain.holds(state, lit.substitute(binding), include_hidden=True)
                          for lit in self.clears_when)
            if cleared:
                return False
        return all(domain.holds(state, lit.substitute(binding), include_hidden=True)
                   for lit in self.guard)


@dataclass(frozen=True)
class OracleParam:
    slot: str
    object: str
    value: str


@dataclass
class Scenario:
    """The unit of testing: world, instruction, faults, and ground truth."""

    id: str
    domain: Domain
    domain_ref: str
    initial: WorldState
    instruction: str
    fault_rules: tuple[FaultRule, ...] = ()
    open_params: tuple[str, ...] = ()
    oracle_goals: str = ""
    oracle_preconditions: dict[str, str] = field(default_factory=dict)
    oracle_params: tuple[OracleParam, ...] = ()
    expected_outcome: str = "success"
    expected_rounds: int | None = None
    description: str = ""
    path: str = ""

    def oracle_response(self, meta: RequestMeta) -> str:
        """Ground-truth answer for a request, in the documented grammar."""
        if meta.role is Role.GOAL_INTERPRETATION:
            return f"ANSWER: {self.oracle_goals}"
        if meta.role is Role.FAILURE_RESOLUTION:
            event = meta.event
            template = self.oracle_preconditions.get(event.rule_id)
            if template is None:
                raise SchemaError(f"scenario {self.id} has no oracle answer "
                                  f"for rule {event.rule_id!r}")
            binding = {k: v for k, v in event.action.as_dict().items()
                       if isinstance(v, str)}
            literals = [lit.substitute(binding)
                        for lit in grammar.parse_literal_conjunction(template)]
            return "ANSWER: " + " & ".join(str(lit) for lit in literals)
        request = meta.param
        for entry in self.oracle_params:
            if entry.slot == request.slot.name and entry.object in request.context_objects:
                return f"ANSWER: {entry.value}"
        raise SchemaError(f"scenario {self.id} has no oracle value for "
                          f"slot {request.slot.name!r}")

    def oracle_backend(self) -> OracleBackend:
        return OracleBackend(self.oracle_response)


@dataclass(frozen=True)
class FailureEvent:
    """An action failure surfaced to the resolver."""

    phase: str
    action_id: int
    action: GroundAction
    error_message: str
    world_snapshot: WorldState     # visible part only
    rule_id: str


@dataclass(frozen=True)
class ExecConfig:
    max_ticks: int = 10_000
    durations: tuple[tuple[str, int], ...] = ()   # skill -> ticks to complete

    def duration_of(self, skill: str) -> int:
        for name, ticks_needed in self.durations:
            if name == skill:
                return ticks_needed
        return 1


@dataclass
class TickRecord:
    index: int
    status: str
    fired_node: int | None = None
    fired_action: str | None = None
    fired_status: str | None = None
    state_after: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        return {"tick": self.index, "status": self.status,
                "fired_node": self.fired_node, "fired_action": self.fired_action,
                "fired_status": self.fired_status,
                "state_after": list(self.state_after)}


@dataclass
class ExecutionTrace:
    ticks: list[TickRecord] = field(default_factory=list)
    events: list[FailureEvent] = field(default_factory=list)
    outcome: str = "running"        # "success" | "failure" | "running"
    final_state: WorldState | None = None
    #: the event that made the final tick fail, if one did; events a sibling
    #: branch recovered from in the same tick stay in ``events`` as audit
    pending_event: FailureEvent | None = None

    @property
    def succeeded(self) -> bool:
        return self.outcome == "success"

    def to_jsonl(self) -> str:
        import json
        lines = [json.dumps(record.to_obj(), sort_keys=True) for record in self.ticks]
        for event in self.events:
            lines.append(json.dumps({
                "event": "failure", "phase": event.phase, "rule": event.rule_id,
                "action": str(event.action), "node": event.action_id,
                "message": event.error_message}, sort_keys=True))
        lines.append(json.dumps({"outcome": self.outcome}, sort_keys=True))
        return "\n".join(lines) + "\n"


def check_tree_domain(tree: BehaviorTree, domain: Domain) -> None:
    """Raise DomainMismatch if a leaf references vocabulary the domain lacks."""
    for node, _ in iter_preorder(tree.root):
        if node.kind is NodeKind.CONDITION:
            if node.literal.predicate not in domain.predicates:
                raise DomainMismatch(f"condition {node.literal} uses a predicate "
                                     f"unknown to domain {domain.name}")
        elif node.kind is NodeKind.ACTION:
            if node.action.skill not in domain.skills:
                raise DomainMismatch(f"action {node.action} uses a skill "
                                     f"unknown to domain {domain.name}")


def execute(tree: BehaviorTree, scenario: Scenario,
            config: ExecConfig | None = None, *,
            world: WorldState | None = None,
            faults: bool = True) -> ExecutionTrace:
    """Run the tree against the scenario world until success, failure, or
    the first failure event. Fully deterministic; raises TickBudgetExceeded
    when the tick budget runs out or the world stops changing."""
    config = config or ExecConfig()
    domain = scenario.domain
    check_tree_domain(tree, domain)
    state = world if world is not None else scenario.initial
    trace = ExecutionTrace()
    elapsed: dict[int, int] = {}

    fired: TreeNode | None = None
    fired_status: NodeStatus | None = None
    tick_events: list[FailureEvent] = []

    def eval_condition(lit: Literal) -> bool:
        try:
            return domain.holds(state, lit, include_hidden=True)
        except UnknownPredicate as e:
            raise EvaluationError(str(e)) from e

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal state, fired, fired_status
        action = leaf.action
        fired = leaf
        rule = next((r for r in scenario.fault_rules
                     if faults and r.fires(domain, state, action)), None)
        if rule is not None and rule.mode == "fail":
            tick_events.append(FailureEvent(rule.phase, leaf.id, action,
                                            rule.message, state.visible_only(),
                                            rule.id))
            fired_status = NodeStatus.FAILURE
            return fired_status
        needed = config.duration_of(action.skill)
        progress = elapsed.get(leaf.id, 0) + 1
        if progress < needed:
            elapsed[leaf.id] = progress
            fired_status = NodeStatus.RUNNING
            return fired_status
        elapsed.pop(leaf.id, None)
        if rule is not None:  # suppress_effects: completion without effects
            tick_events.append(FailureEvent(rule.phase, leaf.id, action,
                                            rule.message, state.visible_only(),
                                            rule.id))
            fired_status = NodeStatus.FAILURE
            return fired_status
        try:
            state = domain.apply_effects(state, action)
            state = domain.apply_hidden_effects(state, action)
        except (UnknownPredicate, UnknownObject) as e:
            raise EvaluationError(str(e)) from e
        fired_status = NodeStatus.RUNNING
        return fired_status

    ctx = TickContext(eval_condition, step_action)
    seen: set[tuple] = set()

    for index in range(config.max_ticks):
        fired = None
        fired_status = None
        tick_events = []
        status, _ = tick(tree, ctx, record_trace=False)
        trace.ticks.append(TickRecord(
            index, status.value,
            fired.id if fired is not None else None,
            str(fired.action) if fired is not None else None,
            fired_status.value if fired_status is not None else None,
            tuple(state.sorted_literals())))
        trace.events.extend(tick_events)
        if status is NodeStatus.SUCCESS:
            trace.outcome = "success"
            trace.final_state = state
            return trace
        if status is NodeStatus.FAILURE:
            trace.outcome = "failure"
            trace.final_state = state
            # the failure that propagated is the one to resolve; earlier
            # events this run were routed around by sibling branches
            trace.pending_event = tick_events[-1] if tick_events else None
            return trace
        key = (state.true, state.hidden, tuple(sorted(elapsed.items())))
        if key in seen:
            raise TickBudgetExceeded(
                f"execution of scenario {scenario.id} stopped making progress "
                f"after {index + 1} ticks")
        seen.add(key)
    raise TickBudgetExceeded(f"tick budget {config.max_ticks} exhausted")


# --- scenario files -----------------------------------------------------------

def load_scenario(path: str | Path, *, domain_cache: dict | None = None) -> Scenario:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        raise SchemaError(f"invalid YAML: {e}", file=str(path),
                          line=mark.line + 1 if mark else None) from e

    def fail(msg: str):
        raise SchemaError(msg, file=str(path))

    if not isinstance(data, dict):
        fail("scenario file must be a mapping")
    if data.get("schema") != SCENARIO_SCHEMA:
        fail(f"unsupported scenario schema {data.get('schema')!r}, "
             f"expected {SCENARIO_SCHEMA}")
    for key in ("id", "domain", "instruction"):
        if not data.get(key):
            fail(f"scenario needs a non-empty {key!r}")

    domain_ref = data["domain"]
    domain_path = (path.parent / domain_ref).resolve()
    if domain_cache is not None and str(domain_path) in domain_cache:
        domain = domain_cache[str(domain_path)]
    else:
        domain = load_domain(domain_path)
        if domain_cache is not None:
            domain_cache[str(domain_path)] = domain

    initial = data.get("initial") or {}
    try:
        state = make_state(domain, initial.get("visible", ()),
                           initial.get("hidden", ()), data.get("objects"))
    except (SchemaError, ParseError) as e:
        fail(f"bad initial state: {e}")
    except Exception as e:
        fail(f"bad initial state: {e}")

    def parse_rule_literals(texts, rule_id: str) -> tuple[Literal, ...]:
        literals = []
        for text in texts or ():
            try:
                lit = grammar.parse_literal(text)
            except ParseError as e:
                fail(f"rule {rule_id!r}: bad literal {text!r}: {e}")
            try:
                domain.check_literal(lit, objects=state.object_names, allow_params=True)
            except Exception as e:
                fail(f"rule {rule_id!r}: invalid literal {text!r}: {e}")
            literals.append(lit)
        return tuple(literals)

    rules = []
    for entry in data.get("fault_rules", ()):
        if not isinstance(entry, dict) or not entry.get("id") or not entry.get("skill"):
            fail(f"bad fault rule entry {entry!r}")
        rule_id = entry["id"]
        if not entry.get("message"):
            fail(f"rule {rule_id!r} needs a non-empty message")
        mode = entry.get("mode", "fail")
        if mode not in ("fail", "suppress_effects"):
            fail(f"rule {rule_id!r}: bad mode {mode!r}")
        phase = entry.get("phase", "execution")
        if phase not in ("planning", "execution"):
            fail(f"rule {rule_id!r}: bad phase {phase!r}")
        if entry["skill"] not in domain.skills:
            fail(f"rule {rule_id!r}: unknown skill {entry['skill']!r}")
        where = []
        where_category = []
        for slot, pattern in (entry.get("where") or {}).items():
            if isinstance(pattern, dict) and "category" in pattern:
                where_category.append((slot, pattern["category"]))
            elif isinstance(pattern, str):
                where.append((slot, pattern))
            else:
                fail(f"rule {rule_id!r}: bad where pattern {pattern!r}")
        rules.append(FaultRule(
            rule_id, entry["skill"], tuple(where), tuple(where_category),
            parse_rule_literals(entry.get("guard"), rule_id),
            entry["message"],
            parse_rule_literals(entry.get("clears_when"), rule_id),
            phase, mode))
    rule_ids = [rule.id for rule in rules]
    if len(set(rule_ids)) != len(rule_ids):
        fail("duplicate fault rule ids")

    oracle = data.get("oracle") or {}
    goals_text = oracle.get("goals", "")
    if not goals_text:
        fail("scenario needs oracle.goals ground truth")
    preconditions = dict(oracle.get("preconditions") or {})
    for rule in rules:
        if rule.id not in preconditions:
            fail(f"oracle answers do not cover fault rule {rule.id!r}")
    for rule_id in preconditions:
        if rule_id not in rule_ids:
            fail(f"oracle precondition for unknown rule {rule_id!r}")
    params = []
    for entry in oracle.get("params", ()):
        if not isinstance(entry, dict) or not all(
                k in entry for k in ("slot", "object", "value")):
            fail(f"bad oracle param entry {entry!r}")
        params.append(OracleParam(entry["slot"], entry["object"], str(entry["value"])))

    expected = data.get("expected") or {}
    outcome = expected.get("outcome", "success")
    if outcome not in ("success", "exhausted", "unsolvable", "failure"):
        fail(f"bad expected outcome {outcome!r}")

    return Scenario(
        id=data["id"], domain=domain, domain_ref=domain_ref, initial=state,
        instruction=data["instruction"], fault_rules=tuple(rules),
        open_params=tuple(data.get("open_params", ())),
        oracle_goals=goals_text, oracle_preconditions=preconditions,
        oracle_params=tuple(params), expected_outcome=outcome,
        expected_rounds=expected.get("rounds"),
        description=data.get("description", ""), path=str(path))


def load_scenarios(directory: str | Path) -> list[Scenario]:
    """Load every scenario file in a directory, sorted by scenario id."""
    directory = Path(directory)
    cache: dict = {}
    scenarios = [load_scenario(p, domain_cache=cache)
                 for p in sorted(directory.glob("*.yaml"))]
    ids = [s.id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise SchemaError(f"duplicate scenario ids in {directory}")
    return sorted(scenarios, key=lambda s: s.id)


def bundled_data_path(*parts: str) -> Path:
    """Path inside the packaged data directory."""
    return Path(__file__).resolve().parent / "data" / Path(*parts)
