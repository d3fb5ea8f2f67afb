"""Exception hierarchy shared across the package.

Parsing failures of any text surface (tree files, literals, model responses)
derive from ParseError so callers can handle them uniformly; semantic lookup
failures carry the offending symbol.
"""

from __future__ import annotations


class BtError(Exception):
    """Base class for all package errors."""


class ParseError(BtError):
    """Malformed text input. Carries position info when it is known."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, expected: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        parts = [message]
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            parts.append(f"({loc})")
        if expected:
            parts.append(f"expected {expected}")
        super().__init__(" ".join(parts))


class FormatError(ParseError):
    """A model response violates the documented answer grammar."""


class UnknownSymbol(ParseError):
    """A response names a predicate or object outside the catalog."""

    def __init__(self, name: str, kind: str = "symbol"):
        self.name = name
        self.kind = kind
        super().__init__(f"unknown {kind} {name!r}")


class UnitMismatch(FormatError):
    """A numeric parameter value carries the wrong unit."""


class SchemaError(BtError):
    """A domain or scenario file violates its schema."""

    def __init__(self, message: str, *, file: str | None = None,
                 line: int | None = None):
        self.file = file
        self.line = line
        where = ""
        if file:
            where = f" [{file}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class UnknownPredicate(BtError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown predicate {name!r}")


class ArityMismatch(BtError):
    def __init__(self, predicate: str, expected: int, got: int):
        self.predicate = predicate
        super().__init__(f"predicate {predicate!r} takes {expected} argument(s), got {got}")


class UnknownObject(BtError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown object {name!r}")


class UnknownSkill(BtError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown skill {name!r}")


class UnboundSlot(BtError):
    """A ``$slot`` or ``@slot`` argument, named as written, that no slot
    binds where the literal appears."""

    def __init__(self, arg: str, context: str = ""):
        self.arg = arg
        suffix = f" in {context}" if context else ""
        super().__init__(f"unbound slot {arg}{suffix}")


class UnknownNode(BtError):
    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"no node with id {node_id}")


class InvalidTarget(BtError):
    """An edit targeted a node of the wrong kind."""


class TreeInvalid(BtError):
    """A structural invariant of a behavior tree is violated."""


class NoAchiever(BtError):
    """No skill in the domain can achieve the given literal."""

    def __init__(self, literal):
        self.literal = literal
        super().__init__(f"no skill achieves {literal}")


class Unsolvable(NoAchiever):
    """Planning cannot proceed: a required literal has no achiever."""


class PlanBudgetExceeded(BtError):
    """Planning ran out of expansions, reorders, or simulation ticks."""

    def __init__(self, message: str, partial_tree=None):
        self.partial_tree = partial_tree
        super().__init__(message)


class DomainMismatch(BtError):
    """A tree leaf does not fit the domain it is run or verified against."""


class TickBudgetExceeded(BtError):
    """A run of ticks (simulated, executed or checked for livelock) stopped
    by ``bt.run_ticks``: its budget ran out or its world repeated a state.
    Raised out of execution it carries the ticks run so far as ``trace``,
    an ExecutionTrace whose outcome is "running"; elsewhere None."""

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


class BackendUnavailable(BtError):
    """The completion backend is not usable (missing credentials, down)."""


class RateLimited(BtError):
    def __init__(self, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__("rate limited" + (f", retry after {retry_after}s" if retry_after else ""))


class MissingFixture(BtError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no scripted response for key {key!r}")
