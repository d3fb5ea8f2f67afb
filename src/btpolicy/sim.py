"""Deterministic scenario executor with fault injection.

A scenario bundles a domain reference, an initial world (visible plus
hidden fault state), an instruction, fault rules, and the ground-truth
answers the oracle backend serves. Executing a tree ticks it against the
world: at most one action fires per tick and completes in it (it returns
Running and its effects land at once), a fault rule that fires fails the
action instead, with no effects, and execution stops at the first failure
event so the resolver can step in.

Scenario files are versioned YAML (schema id ``scenario/v1``); see
docs/formats.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

from . import grammar
from .backends import OracleBackend, RequestMeta
from .bt import (_ACTION, _CONDITION, BehaviorTree, NodeStatus, TickContext, TreeNode,
                 iter_preorder, run_ticks, tick)
from .domain import (SCENARIO_SHAPE, Domain, WorldState, check_shape, load_domain,
                     load_yaml, make_state)
from .errors import BtError, DomainMismatch, SchemaError, TickBudgetExceeded
from .llm import Role
from .terms import GroundAction, Literal, ground


@dataclass(frozen=True)
class FaultRule:
    """Injects a failure while its guard holds.

    ``where`` pairs object slots with the names each may hold, resolved at
    load from an object name or a ``{category: ...}``. The guard is a
    literal conjunction over the union of visible and hidden state;
    ``$slot``/``@slot`` arguments are filled from the matched action's
    binding. A firing rule fails the action: it returns Failure, its
    effects do not land, and the executor records a FailureEvent."""

    id: str
    skill: str
    where: tuple[tuple[str, frozenset[str]], ...] = ()   # slot -> allowed objects
    guard: tuple[Literal, ...] = ()
    message: str = ""
    phase: str = "execution"                        # "planning" | "execution"

    def fires(self, domain: Domain, state: WorldState, action: GroundAction) -> bool:
        return (action.skill == self.skill
                and all(action.get(slot) in names for slot, names in self.where)
                and all(domain.holds(state, lit, include_hidden=True)
                        for lit in ground(self.guard, action)))


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
    initial: WorldState
    instruction: str
    fault_rules: tuple[FaultRule, ...] = ()
    open_params: tuple[str, ...] = ()
    oracle_goals: str = ""
    #: each fault rule's answer template, read and checked at load
    oracle_preconditions: dict[str, tuple[Literal, ...]] = field(default_factory=dict)
    oracle_params: tuple[OracleParam, ...] = ()
    expected_outcome: str = "success"
    expected_rounds: int | None = None

    def oracle_response(self, meta: RequestMeta) -> str:
        """Ground-truth answer for a request, in the documented grammar. A
        failure's answer is its rule's template, read and checked at load,
        grounded at the failing action and formatted; nothing is parsed."""
        if meta.role is Role.GOAL_INTERPRETATION:
            return f"ANSWER: {self.oracle_goals}"
        if meta.role is Role.FAILURE_RESOLUTION:
            event = meta.event
            templates = self.oracle_preconditions.get(event.rule_id)
            if templates is None:
                raise SchemaError(f"scenario {self.id} has no oracle answer "
                                  f"for rule {event.rule_id!r}")
            return "ANSWER: " + " & ".join(map(str, ground(templates, event.action)))
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


@dataclass
class TickRecord:
    """One executed tick. ``state`` is the world the tick left; its literals
    are sorted and formatted only when ``state_after`` is read."""

    index: int
    status: str
    fired_node: int | None = None
    fired_action: str | None = None
    fired_status: str | None = None
    state: WorldState | None = None

    @property
    def state_after(self) -> tuple[str, ...]:
        return () if self.state is None else tuple(self.state.sorted_literals())

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


def leaf_mismatch(node: TreeNode, domain: Domain) -> DomainMismatch | None:
    """The DomainMismatch naming a leaf that does not fit the domain, else
    None. A condition fits when it passes ``Domain.check_literal`` (whose
    error is the mismatch's ``__cause__``), an action when it names a known
    skill and binds each object slot to a domain object. This function is
    the rule's one home: ``check_tree_domain`` and ``verify_tree`` ask it."""
    if node.kind is _CONDITION:
        try:
            domain.check_literal(node.payload)
        except BtError as e:
            mismatch = DomainMismatch(f"condition {node.payload} (node {node.id}) "
                                      f"does not fit domain {domain.name}: {e}")
            mismatch.__cause__ = e
            return mismatch
    elif node.kind is _ACTION:
        action = node.payload
        skill = domain.skills.get(action.skill)
        if skill is None:
            return DomainMismatch(f"action {action} (node {node.id}) uses a skill "
                                  f"unknown to domain {domain.name}")
        for slot in skill.object_slots:
            if action.get(slot.name) not in domain.objects:
                return DomainMismatch(
                    f"action {action} (node {node.id}) does not bind object "
                    f"slot {slot.name!r} to an object of domain {domain.name}")
    return None


def check_tree_domain(tree: BehaviorTree, domain: Domain) -> None:
    """Raise the ``leaf_mismatch`` of the first leaf, in preorder, that
    does not fit the domain. This is the gate for trees from outside the
    program: ``execute`` passes every tree through it, and ticking trusts a
    tree that passed it. The resolver runs the trees it grows from checked
    parts through ``run_trusted`` without it."""
    for node, _ in iter_preorder(tree.root):
        if (mismatch := leaf_mismatch(node, domain)) is not None:
            raise mismatch


def execute(tree: BehaviorTree, scenario: Scenario, *,
            world: WorldState | None = None,
            max_ticks: int = 10_000) -> ExecutionTrace:
    """Run the tree against the scenario world until success, failure, or
    the first failure event. Fully deterministic; raises DomainMismatch
    before the first tick when a leaf does not fit the scenario's domain,
    and TickBudgetExceeded, carrying the ticks run so far as ``trace``, when
    ``bt.run_ticks`` stops the run, keyed by visible and hidden facts."""
    check_tree_domain(tree, scenario.domain)
    return run_trusted(tree, scenario, world=world, max_ticks=max_ticks)


def run_trusted(tree: BehaviorTree, scenario: Scenario, *,
                world: WorldState | None = None,
                max_ticks: int = 10_000) -> ExecutionTrace:
    """``execute`` without the domain gate, for a tree whose leaves are known
    to fit the scenario's domain; a leaf that does not fails mid-tick."""
    domain = scenario.domain
    state = world if world is not None else scenario.initial
    trace = ExecutionTrace()

    fired: TreeNode | None = None
    fired_status: NodeStatus | None = None
    tick_events: list[FailureEvent] = []

    def eval_condition(lit: Literal) -> bool:
        return domain.holds(state, lit, include_hidden=True)

    def step_action(leaf: TreeNode) -> NodeStatus:
        nonlocal state, fired, fired_status
        action = leaf.action
        fired = leaf
        rule = next((r for r in scenario.fault_rules
                     if r.fires(domain, state, action)), None)
        if rule is not None:
            tick_events.append(FailureEvent(rule.phase, leaf.id, action,
                                            rule.message, state.visible_only(),
                                            rule.id))
            fired_status = NodeStatus.FAILURE
            return fired_status
        state = domain.apply_effects(state, action)
        state = domain.apply_hidden_effects(state, action)
        fired_status = NodeStatus.RUNNING
        return fired_status

    ctx = TickContext(eval_condition, step_action)
    try:
        for index in run_ticks(lambda: (state.true, state.hidden), max_ticks):
            fired = None
            fired_status = None
            tick_events = []
            status, _ = tick(tree, ctx, record_trace=False)
            trace.ticks.append(TickRecord(
                index, status.value,
                fired.id if fired is not None else None,
                str(fired.action) if fired is not None else None,
                fired_status.value if fired_status is not None else None,
                state))
            trace.events.extend(tick_events)
            if status is not NodeStatus.RUNNING:
                trace.outcome = status.value
                trace.final_state = state
                if status is NodeStatus.FAILURE and tick_events:
                    # the failure that propagated is the one to resolve; earlier
                    # events this run were routed around by sibling branches
                    trace.pending_event = tick_events[-1]
                return trace
    except TickBudgetExceeded as e:
        e.trace = trace
        raise


# --- scenario files -----------------------------------------------------------

def load_scenario(path: str | Path, *, domain_cache: dict | None = None) -> Scenario:
    """Load a scenario file, reading each literal once: ``guard`` and
    answer templates with the object slots of their rule's skill, oracle
    goals with none, all against the scenario's objects. Each fault rule's
    ``where`` value becomes the set of names its slot may hold: an object
    of the scenario, or every domain object of a category. ``open_params``
    must name numeric or categorical slots."""
    path = Path(path)
    data = load_yaml(path, "scenario")
    check_shape(data, SCENARIO_SHAPE, str(path))

    def fail(msg: str):
        raise SchemaError(msg, file=str(path))

    domain_path = (path.parent / data["domain"]).resolve()
    if domain_cache is not None and str(domain_path) in domain_cache:
        domain = domain_cache[str(domain_path)]
    else:
        domain = load_domain(domain_path)
        if domain_cache is not None:
            domain_cache[str(domain_path)] = domain

    initial = data.get("initial") or {}
    try:
        state = make_state(domain, initial.get("visible") or (),
                           initial.get("hidden") or (), data.get("objects"))
    except BtError as e:
        fail(f"bad initial state: {e}")

    def object_slots(skill: str) -> set[str]:
        return {s.name for s in domain.skills[skill].object_slots}

    def read_literals(texts, where: str,
                      slots: Collection[str] = ()) -> tuple[Literal, ...]:
        literals = []
        for text in texts or ():
            try:
                lit = grammar.parse_literal(text)
                domain.check_literal(lit, objects=state.registry, slots=slots)
            except BtError as e:
                fail(f"{where}: invalid literal {text.strip()!r}: {e}")
            literals.append(lit)
        return tuple(literals)

    rules = []
    for entry in data.get("fault_rules") or ():
        rule_id = entry["id"]
        if entry["skill"] not in domain.skills:
            fail(f"rule {rule_id!r}: unknown skill {entry['skill']!r}")
        where = []
        slots = object_slots(entry["skill"])
        for slot, pattern in (entry.get("where") or {}).items():
            if slot not in slots:
                fail(f"rule {rule_id!r}: where names {slot!r}, which is no "
                     f"object slot of skill {entry['skill']!r}")
            if isinstance(pattern, str):
                if pattern not in state.registry:
                    fail(f"rule {rule_id!r}: where {slot}: {pattern!r} is no "
                         f"object of the scenario")
                names = frozenset({pattern})
            else:
                names = frozenset(name for name, obj in domain.objects.items()
                                  if obj.category == pattern["category"])
                if not names:
                    fail(f"rule {rule_id!r}: where {slot}: no object of the domain "
                         f"has category {pattern['category']!r}")
            where.append((slot, names))
        rules.append(FaultRule(
            rule_id, entry["skill"], tuple(where),
            read_literals(entry.get("guard"), f"rule {rule_id!r} guard", slots),
            entry["message"], entry.get("phase") or "execution"))
    rule_ids = [rule.id for rule in rules]
    if len(set(rule_ids)) != len(rule_ids):
        fail("duplicate fault rule ids")

    oracle = data["oracle"]
    answers = oracle.get("preconditions") or {}
    for rule in rules:
        if rule.id not in answers:
            fail(f"oracle answers do not cover fault rule {rule.id!r}")
    for rule_id in answers:
        if rule_id not in rule_ids:
            fail(f"oracle precondition for unknown rule {rule_id!r}")
    preconditions = {rule.id: read_literals(answers[rule.id].split("&"),
                                            f"rule {rule.id!r} oracle answer",
                                            object_slots(rule.skill))
                     for rule in rules}
    read_literals(oracle["goals"].split("&"), "oracle goals")
    value_slots = {slot.name for skill in domain.skills.values()
                   for slot in skill.params if slot.kind != "object"}
    for name in data.get("open_params") or ():
        if name not in value_slots:
            fail(f"open_params: {name!r} is no numeric or categorical slot "
                 f"of a skill of domain {domain.name}")
    params = tuple(OracleParam(entry["slot"], entry["object"], str(entry["value"]))
                   for entry in oracle.get("params") or ())
    expected = data.get("expected") or {}

    return Scenario(
        id=data["id"], domain=domain, initial=state,
        instruction=data["instruction"], fault_rules=tuple(rules),
        open_params=tuple(data.get("open_params") or ()),
        oracle_goals=oracle["goals"], oracle_preconditions=preconditions,
        oracle_params=params, expected_outcome=expected.get("outcome") or "success",
        expected_rounds=expected.get("rounds"))


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
