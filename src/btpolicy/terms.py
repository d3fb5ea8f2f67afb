"""Ground terms: objects, literals, quantities, and ground actions.

These are plain immutable values. Their ``str`` forms are the canonical text
syntax used in domain files, scenario files, tree payloads, and model answers;
``grammar`` provides the inverse parsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

#: Wildcard argument. Existential under a positive literal ("something"),
#: universal under negation ("nothing").
ANY_OBJECT = "any_object"


def is_param(arg: str) -> bool:
    """True for template arguments like ``$obj`` that await a binding."""
    return arg.startswith("$")


def is_placeholder(arg: str) -> bool:
    """True for fault-rule arguments like ``@obj`` bound at match time."""
    return arg.startswith("@")


def is_wildcard(arg: str) -> bool:
    return arg == ANY_OBJECT


@dataclass(frozen=True)
class ObjectRef:
    """A named object in the scene, tagged with its category."""

    name: str
    category: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal:
    """A (possibly negated) predicate instance.

    Arguments are symbols: object names, the ``any_object`` wildcard,
    ``$slot`` template parameters, or ``@slot`` match-time placeholders.
    """

    predicate: str
    args: tuple[str, ...] = ()
    negated: bool = False

    def __str__(self) -> str:
        body = self.predicate
        if self.args:
            body += "(" + ", ".join(self.args) + ")"
        return ("~" + body) if self.negated else body

    @property
    def has_wildcard(self) -> bool:
        return any(is_wildcard(a) for a in self.args)

    def positive(self) -> "Literal":
        return self if not self.negated else Literal(self.predicate, self.args, False)

    def negate(self) -> "Literal":
        return Literal(self.predicate, self.args, not self.negated)

    def substitute(self, binding: Mapping[str, str]) -> "Literal":
        """Replace ``$slot`` and ``@slot`` arguments with their bound values.

        Unbound slots are left in place; ``Domain.check_literal`` and
        ``Domain.holds`` reject them with ``UnboundSlot``.
        """
        new_args = []
        for a in self.args:
            if is_param(a) and a[1:] in binding:
                new_args.append(str(binding[a[1:]]))
            elif is_placeholder(a) and a[1:] in binding:
                new_args.append(str(binding[a[1:]]))
            else:
                new_args.append(a)
        return Literal(self.predicate, tuple(new_args), self.negated)


@dataclass(frozen=True)
class Quantity:
    """A number with a unit, e.g. ``5.3 N`` or ``0.1 m/s``."""

    value: float
    unit: str

    def __str__(self) -> str:
        return f"{self.value!r} {self.unit}"


@dataclass(frozen=True)
class GroundAction:
    """A skill applied to a binding of its slots.

    Object slots are always bound; numeric and categorical slots may stay
    unbound until parameter resolution fills them in. The binding is stored
    sorted by slot name so equal actions compare and print identically.
    """

    skill: str
    binding: tuple[tuple[str, str | Quantity], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "binding", tuple(sorted(self.binding)))

    @classmethod
    def from_mapping(cls, skill: str, binding: Mapping[str, str | Quantity]) -> "GroundAction":
        return cls(skill, tuple(binding.items()))

    def __str__(self) -> str:
        if not self.binding:
            return f"{self.skill}()"
        inner = ", ".join(f"{slot}={value}" for slot, value in self.binding)
        return f"{self.skill}({inner})"

    def get(self, slot: str) -> str | Quantity | None:
        for name, value in self.binding:
            if name == slot:
                return value
        return None

    def is_bound(self, slot: str) -> bool:
        return any(name == slot for name, _ in self.binding)

    def with_slot(self, slot: str, value: str | Quantity) -> "GroundAction":
        kept = tuple((n, v) for n, v in self.binding if n != slot)
        return GroundAction(self.skill, kept + ((slot, value),))

    def as_dict(self) -> dict[str, str | Quantity]:
        return dict(self.binding)

    def symbol_values(self) -> Iterator[str]:
        """All plain-symbol slot values (object names and categorical picks)."""
        for _, value in self.binding:
            if isinstance(value, str):
                yield value
