"""Prompt construction and strict response parsing for the three model roles:
goal interpretation, failure resolution, and parameter suggestion.

Prompts are deterministic text with a fixed section order, ask for the
answer line BEFORE any reasoning, and carry no chain-of-thought preamble.
Responses follow a small grammar::

    response  := ANSWER-line rest*
    ANSWER    := 'ANSWER:' conditions | value
    conditions:= literal ('&' literal)*
    REASONING := 'REASONING:' free text to end of response

Anything that deviates raises FormatError (grammar) or UnknownSymbol
(vocabulary); there is no retry loop and parsing never crashes on noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from . import grammar
from .domain import Domain, Slot, WorldState
from .errors import (ArityMismatch, FormatError, ParseError, UnboundSlot,
                     UnknownObject, UnknownPredicate, UnknownSymbol)
from .planner import GoalSpec
from .terms import GroundAction, Literal, ObjectRef, Quantity


class Role(Enum):
    GOAL_INTERPRETATION = "goal"
    FAILURE_RESOLUTION = "failure"
    PARAMETER_RESOLUTION = "parameter"


_ROLE_HEADERS = {
    Role.GOAL_INTERPRETATION: (
        "You translate an instruction for a robot into formal goal conditions.\n"
        "Use only the conditions and objects listed below. If the instruction\n"
        "mentions an object that is not listed, use the most similar listed\n"
        "object. Give the answer immediately; do not explain before answering."
    ),
    Role.FAILURE_RESOLUTION: (
        "A robot action failed. Identify the precondition(s) that must hold\n"
        "for the failing action to succeed, using only the conditions and\n"
        "objects listed below (any_object is allowed as a wildcard argument).\n"
        "If the instruction mentions an object that is not listed, use the\n"
        "most similar listed object. Give the answer immediately; do not\n"
        "explain before answering."
    ),
    Role.PARAMETER_RESOLUTION: (
        "Suggest a value for an unspecified parameter of a robot action,\n"
        "based on the task and scene. Give the answer immediately; do not\n"
        "explain before answering."
    ),
}

_ROLE_FORMATS = {
    Role.GOAL_INTERPRETATION: (
        "First line: 'ANSWER: <condition>' with conditions joined by ' & '.\n"
        "A condition is predicate(argument, ...) and '~' negates it.\n"
        "Optionally add 'REASONING: <text>' on a later line, after the answer."
    ),
    Role.FAILURE_RESOLUTION: (
        "First line: 'ANSWER: <condition>' with one or more conditions joined\n"
        "by ' & '. A condition is predicate(argument, ...); '~' negates it and\n"
        "any_object is a wildcard argument.\n"
        "Optionally add 'REASONING: <text>' on a later line, after the answer."
    ),
    Role.PARAMETER_RESOLUTION: (
        "First line: 'ANSWER: <value>'. For numeric parameters give a number\n"
        "followed by the requested unit; for categorical parameters give one\n"
        "word. Optionally add 'REASONING: <text>' after the answer."
    ),
}


@dataclass(frozen=True)
class PromptSpec:
    """Everything a prompt is built from; building is pure and deterministic."""

    role: Role
    instruction: str
    objects: tuple[ObjectRef, ...]
    condition_catalog: tuple[tuple[str, str], ...]
    examples: tuple[tuple[str, str], ...]
    scene_description: str
    error_message: str | None = None
    failing_action: GroundAction | None = None
    param_slot: Slot | None = None

    def validate(self) -> None:
        if self.role is Role.FAILURE_RESOLUTION:
            if not self.error_message or self.failing_action is None:
                raise ValueError("failure prompts need an error message and a failing action")
        if self.role is Role.PARAMETER_RESOLUTION and self.param_slot is None:
            raise ValueError("parameter prompts need the slot being resolved")
        for name, description in self.condition_catalog:
            if not description:
                raise ValueError(f"catalog entry {name!r} lacks a description")


@dataclass(frozen=True)
class ParamValue:
    """A resolved parameter: quantity with unit, or a categorical symbol."""

    slot: str
    value: Quantity | str


@dataclass
class LlmExchange:
    """One backend interaction: the prompt, the raw reply, what it parsed to."""

    prompt: PromptSpec
    raw_response: str
    parsed: GoalSpec | list[Literal] | ParamValue | None = None
    reasoning: str | None = None


def scene_from_state(domain: Domain, state: WorldState) -> str:
    """Render the visible state as short declarative sentences."""
    sentences = []
    for lit in sorted(state.true, key=str):
        pred = domain.predicates.get(lit.predicate)
        if pred is not None and pred.scene:
            sentences.append(pred.scene.format(*lit.args))
        else:
            sentences.append(f"{lit} holds.")
    return " ".join(sentences) if sentences else "Nothing notable is known about the scene."


def condition_catalog(domain: Domain) -> tuple[tuple[str, str], ...]:
    return tuple((p.name, p.description or p.name) for p in domain.predicates.values())


def build_prompt(spec: PromptSpec) -> str:
    """Assemble the prompt text; identical specs yield identical bytes."""
    spec.validate()
    parts = [_ROLE_HEADERS[spec.role], ""]
    parts.append("Conditions:")
    for name, description in spec.condition_catalog:
        parts.append(f"- {name}: {description}")
    parts.append("")
    parts.append("Objects in the scene:")
    for obj in spec.objects:
        parts.append(f"- {obj.name} ({obj.category})")
    parts.append("")
    parts.append("Scene: " + spec.scene_description)
    if spec.examples:
        parts.append("")
        parts.append("Examples:")
        for given, answer in spec.examples:
            parts.append(f"Input: {given}")
            parts.append(answer)
    parts.append("")
    if spec.role is Role.FAILURE_RESOLUTION:
        parts.append(f"Failing action: {spec.failing_action}")
        parts.append(f"Error message: {spec.error_message}")
        parts.append(f"Task: {spec.instruction}")
    elif spec.role is Role.PARAMETER_RESOLUTION:
        slot = spec.param_slot
        assert slot is not None
        detail = f"unit: {slot.unit}" if slot.kind == "numeric" else \
            ("choices: " + ", ".join(slot.choices) if slot.choices else "one word")
        parts.append(f"Action: {spec.failing_action}")
        parts.append(f"Parameter to suggest: {slot.name} ({detail})")
        parts.append(f"Task: {spec.instruction}")
    else:
        parts.append(f"Instruction: {spec.instruction}")
    parts.append("")
    parts.append("Output format:")
    parts.append(_ROLE_FORMATS[spec.role])
    return "\n".join(parts) + "\n"


# --- response parsing ---------------------------------------------------------

_ANSWER_RE = re.compile(r"^\s*ANSWER\s*:\s*(?P<body>.*)$")
_REASONING_RE = re.compile(r"^\s*REASONING\s*:\s*(?P<body>.*)$")


def split_answer(raw: str) -> tuple[str, str | None]:
    """Extract the ANSWER line body and optional REASONING text."""
    answer: str | None = None
    reasoning_lines: list[str] | None = None
    for line in raw.splitlines():
        if reasoning_lines is not None:
            reasoning_lines.append(line)
            continue
        m = _ANSWER_RE.match(line)
        if m and answer is None:
            answer = m.group("body").strip()
            continue
        m = _REASONING_RE.match(line)
        if m:
            reasoning_lines = [m.group("body")]
    if answer is None:
        raise FormatError("response has no ANSWER line", expected="'ANSWER: ...'")
    if not answer:
        raise FormatError("ANSWER line is empty", expected="at least one condition or value")
    reasoning = "\n".join(reasoning_lines).strip() if reasoning_lines else None
    return answer, reasoning or None


def _parse_condition_answer(raw: str, domain: Domain,
                            objects: tuple[str, ...] | None) -> tuple[list[Literal], str | None]:
    answer, reasoning = split_answer(raw)
    try:
        literals = grammar.parse_literal_conjunction(answer)
    except FormatError:
        raise
    except ParseError as e:
        raise FormatError(f"bad condition syntax: {e}") from e
    for lit in literals:
        try:
            domain.check_literal(lit, objects=objects)
        except UnknownPredicate as e:
            raise UnknownSymbol(e.name, "condition") from e
        except UnknownObject as e:
            raise UnknownSymbol(e.name, "object") from e
        except (ArityMismatch, UnboundSlot) as e:
            raise FormatError(str(e)) from e
    return literals, reasoning


def parse_goal_response(raw: str, domain: Domain, *,
                        objects: tuple[str, ...] | None = None
                        ) -> tuple[GoalSpec, str | None]:
    """Parse a goal-interpretation answer into a validated GoalSpec."""
    literals, reasoning = _parse_condition_answer(raw, domain, objects)
    return GoalSpec(tuple(literals)), reasoning


def parse_precondition_response(raw: str, domain: Domain, *,
                                objects: tuple[str, ...] | None = None
                                ) -> tuple[list[Literal], str | None]:
    """Parse a failure-resolution answer into one or more literals."""
    return _parse_condition_answer(raw, domain, objects)


def parse_param_response(raw: str, slot: Slot) -> tuple[ParamValue, str | None]:
    """Parse a parameter suggestion against the slot's declared type."""
    answer, reasoning = split_answer(raw)
    return ParamValue(slot.name, slot.parse_value(answer)), reasoning
