"""Predicate vocabulary, skill database, and closed-world state evaluation.

A Domain declares predicates (with one-line descriptions used verbatim in
prompt catalogs), an object registry with categories, category groups, and
parameterized skills with precondition and effect literal templates. World
states are closed-world sets of true positive literals plus a hidden literal
set that models faults the planner cannot observe.

Domain files are versioned YAML (schema id ``domain/v1``); see
docs/formats.md for the layout.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from operator import itemgetter
from pathlib import Path
from typing import Collection, NamedTuple

import yaml

from . import grammar
from .errors import (ArityMismatch, BtError, FormatError, ParseError, SchemaError,
                     UnboundSlot, UnitMismatch, UnknownObject, UnknownPredicate,
                     UnknownSkill)
from .terms import (ANY_OBJECT, GroundAction, Literal, ObjectRef, Quantity, ground,
                    is_slot, is_wildcard)


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int
    description: str = ""
    #: optional scene sentence with {0}, {1} argument placeholders
    scene: str | None = None


@dataclass(frozen=True)
class Slot:
    """A skill parameter: object-valued, numeric with a unit, or categorical."""

    name: str
    kind: str  # "object" | "numeric" | "categorical"
    category: str | None = None          # object slots: category or group name
    unit: str | None = None              # numeric slots
    choices: tuple[str, ...] = ()        # categorical slots
    default: str | Quantity | None = None

    def parse_value(self, text: str) -> str | Quantity:
        """Parse a value of this numeric or categorical slot: a quantity in
        its unit, or a symbol among its choices. Raises FormatError (or
        UnitMismatch) otherwise."""
        try:
            value = grammar.parse_value(text)
        except ParseError as e:
            raise FormatError(f"bad value syntax: {e}") from e
        if self.kind == "numeric":
            if not isinstance(value, Quantity):
                raise FormatError(f"slot {self.name!r} is numeric, got {text!r}")
            if (self.unit or "") != value.unit:
                raise UnitMismatch(
                    f"slot {self.name!r} expects unit {self.unit!r}, got {value.unit!r}")
            return value
        if isinstance(value, Quantity):
            raise FormatError(f"slot {self.name!r} is categorical, got a number")
        if self.choices and value not in self.choices:
            raise FormatError(f"slot {self.name!r} takes one of {', '.join(self.choices)}, "
                              f"got {value!r}")
        return value


@dataclass(frozen=True)
class SkillTemplate:
    """A parameterized action schema with declared preconditions and effects.

    Effects use delete-then-add semantics; negated effect templates may
    contain the any_object wildcard to delete every matching ground literal.
    hidden_effects are applied only by the executor, never by planning."""

    name: str
    params: tuple[Slot, ...] = ()
    preconditions: tuple[Literal, ...] = ()
    effects: tuple[Literal, ...] = ()
    hidden_effects: tuple[Literal, ...] = ()

    @cached_property
    def object_slots(self) -> tuple[Slot, ...]:
        return tuple(s for s in self.params if s.kind == "object")

    def grounded(self, action: GroundAction) -> _Grounded:
        """The action's preconditions, effects and hidden effects with its
        binding substituted, and its visible effects split once into the
        facts they add, the ground facts they delete (positive) and the
        wildcard delete templates.

        Memoized by the binding's ``str`` values, the only part substitution
        reads, so numeric values never grow the memo: it holds one entry per
        combination of object names and categorical values seen, and a
        binding of strings alone is its own key. The template is immutable,
        so entries never go stale; two threads can at worst compute one
        entry twice."""
        memo = self._grounded_memo
        entry = memo.get(action.binding)
        if entry is not None:
            return entry
        key = tuple((k, v) for k, v in action.binding if isinstance(v, str))
        entry = memo.get(key)
        if entry is None:
            preconditions, effects, hidden = (
                tuple(ground(templates, action)) for templates in
                (self.preconditions, self.effects, self.hidden_effects))
            deletes = [lit for lit in effects if lit.negated]
            entry = memo[key] = _Grounded(
                preconditions, effects, hidden,
                frozenset(lit for lit in effects if not lit.negated),
                frozenset(lit.positive() for lit in deletes if ANY_OBJECT not in lit.args),
                tuple(lit for lit in deletes if ANY_OBJECT in lit.args))
        return entry

    @cached_property
    def _grounded_memo(self) -> dict[tuple[tuple[str, str], ...], _Grounded]:
        return {}


class _Grounded(NamedTuple):
    preconditions: tuple[Literal, ...]
    effects: tuple[Literal, ...]
    hidden_effects: tuple[Literal, ...]
    #: the visible effects, split: facts added, ground facts deleted (made
    #: positive) and wildcard delete templates, matched against each state
    adds: frozenset[Literal]
    deletes: frozenset[Literal]
    wildcard_deletes: tuple[Literal, ...]

    def delta(self, state: WorldState) -> tuple[set[Literal], set[Literal]]:
        """The (add, remove) fact sets of the visible effects in ``state``.

        Only the wildcard deletes are matched against the state, each
        deleting every matching ground literal. Additions win over
        deletions (delete-then-add)."""
        remove = set(self.deletes)
        index = state._index
        for lit in self.wildcard_deletes:
            remove.update(Literal(lit.predicate, args) for args in
                          rows_matching(lit.args, index.get(lit.predicate, ())))
        return set(self.adds), remove


@dataclass(frozen=True)
class WorldState:
    """Closed world: ``true`` holds every true positive ground literal.

    ``hidden`` is per-scenario fault state living beside the visible
    literals; planning never reads it, fault guards may.

    Facts are also indexed by predicate, built on first use and cached on
    the value outside its fields, so equality and hashing ignore it. A
    state derived from one whose index is built inherits a copy of it,
    rebuilt only on the predicates the change touched; the copy is in
    place before the derived state is returned. A state stays a plain
    immutable value; two threads racing on a fresh state at worst build
    the same index twice."""

    objects: tuple[ObjectRef, ...] = ()
    true: frozenset[Literal] = frozenset()
    hidden: frozenset[Literal] = frozenset()

    @property
    def object_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.objects)

    @cached_property
    def registry(self) -> frozenset[str]:
        """Object names as a set, for membership tests."""
        return frozenset(o.name for o in self.objects)

    def rows(self, predicate: str, *,
             include_hidden: bool = False) -> frozenset[tuple[str, ...]]:
        """Argument tuples of the facts on ``predicate``."""
        index = self._index_with_hidden if include_hidden else self._index
        return index.get(predicate, frozenset())

    def changed_rows(self, add: Collection[Literal],
                     remove: Collection[Literal]) -> dict[str, set[tuple[str, ...]]]:
        """Visible rows of each predicate ``add`` or ``remove`` touches, as
        ``with_changes(add, remove)`` would hold them (delete, then add)."""
        index = self._index
        after: dict[str, set[tuple[str, ...]]] = {}
        for lit in remove:
            rows = after.get(lit.predicate)
            if rows is None:
                rows = after[lit.predicate] = set(index.get(lit.predicate, ()))
            rows.discard(lit.args)
        for lit in add:
            rows = after.get(lit.predicate)
            if rows is None:
                rows = after[lit.predicate] = set(index.get(lit.predicate, ()))
            rows.add(lit.args)
        return after

    @cached_property
    def _index(self) -> dict[str, frozenset[tuple[str, ...]]]:
        return {pred: frozenset(args)
                for pred, args in _args_by_predicate(self.true).items()}

    @cached_property
    def _index_with_hidden(self) -> dict[str, frozenset[tuple[str, ...]]]:
        if not self.hidden:
            return self._index
        index = dict(self._index)
        for pred, args in _args_by_predicate(self.hidden).items():
            index[pred] = index.get(pred, frozenset()).union(args)
        return index

    def with_changes(self, add: set[Literal] = frozenset(),
                     remove: set[Literal] = frozenset(), *,
                     true: frozenset[Literal] | None = None) -> "WorldState":
        """The state with ``remove`` deleted, then ``add`` added. ``true``,
        when given, is that result's fact set, already computed."""
        if true is None:
            true = (self.true - remove) | add
        child = WorldState(self.objects, true, self.hidden)
        if "_index" in self.__dict__:
            index = dict(self._index)
            for pred, rows in self.changed_rows(add, remove).items():
                if rows:
                    index[pred] = frozenset(rows)
                else:
                    index.pop(pred, None)
            child.__dict__.update(registry=self.registry, _index=index)
        return child

    def with_hidden_changes(self, add: set[Literal] = frozenset(),
                            remove: set[Literal] = frozenset()) -> "WorldState":
        hidden = (self.hidden - remove) | add
        return self if hidden == self.hidden else self._with_hidden(hidden)

    def visible_only(self) -> "WorldState":
        return self._with_hidden(frozenset()) if self.hidden else self

    def _with_hidden(self, hidden: frozenset[Literal]) -> "WorldState":
        """The same visible facts, and with them the built caches."""
        child = WorldState(self.objects, self.true, hidden)
        child.__dict__.update((name, self.__dict__[name]) for name in ("registry", "_index")
                              if name in self.__dict__)
        return child

    def sorted_literals(self) -> list[str]:
        return sorted(str(lit) for lit in self.true)


def _args_by_predicate(facts: Collection[Literal]) -> dict[str, set[tuple[str, ...]]]:
    rows: dict[str, set[tuple[str, ...]]] = {}
    for fact in facts:
        rows.setdefault(fact.predicate, set()).add(fact.args)
    return rows


#: the getter of no positions: the empty tuple, whatever the row
_NO_POSITIONS = itemgetter(slice(0))


def literal_holds(lit: Literal, rows: Collection[tuple[str, ...]],
                  registry: frozenset[str]) -> bool:
    """Truth of ``lit`` given the rows of its predicate; wildcards range
    over the ``registry`` names only. A ground literal is one membership
    test; a wildcard one is decided at the first matching row."""
    if ANY_OBJECT not in lit.args:
        return (lit.args in rows) != lit.negated
    arity, at_fixed, values = _row_test(lit.args)
    for row in rows:
        if len(row) == arity and at_fixed(row) == values \
                and _wildcards_allowed(lit.args, row, registry):
            return not lit.negated
    return lit.negated


def rows_matching(pattern: tuple[str, ...], rows: Collection[tuple[str, ...]],
                  allowed: frozenset[str] | None = None) -> list[tuple[str, ...]]:
    """The rows equal to ``pattern`` outside its wildcard positions, as a
    list in the order of ``rows``.

    A row of another arity never matches. With ``allowed`` given, a
    wildcard position only matches those names."""
    arity, at_fixed, values = _row_test(pattern)
    return [row for row in rows if len(row) == arity and at_fixed(row) == values
            and (allowed is None or _wildcards_allowed(pattern, row, allowed))]


@cache
def _row_test(pattern: tuple[str, ...]) -> tuple[int, itemgetter, object]:
    """``pattern``'s arity, a getter of the values at its fixed (not
    wildcard) positions, and its own values there. Memoized per pattern,
    an argument tuple and nothing else, so every caller and domain shares
    one memo, entries never go stale and no world state is kept; it holds
    one immutable entry per distinct pattern the process has asked."""
    fixed = []
    for i, arg in enumerate(pattern):      # a loop, cheaper than a comprehension here
        if arg != ANY_OBJECT:
            fixed.append(i)
    at_fixed = itemgetter(*fixed) if fixed else _NO_POSITIONS
    return len(pattern), at_fixed, at_fixed(pattern)


def _wildcards_allowed(pattern: tuple[str, ...], row: tuple[str, ...],
                       allowed: frozenset[str]) -> bool:
    """Whether ``row`` has allowed names at ``pattern``'s wildcard positions."""
    return all(arg in allowed for wild, arg in zip(pattern, row) if wild == ANY_OBJECT)


@dataclass
class Domain:
    """A domain's vocabulary, objects, category groups and skills.

    ``parse_domain`` is the only writer of ``skills``, ``objects`` and
    ``groups``, and fills them before any caller asks the domain anything.
    So the work done once per distinct input and kept here never goes
    stale: the achievers of a literal (``achievers``) and the admissible
    objects of a registry (``objects_in``). Like ``SkillTemplate.grounded``'s
    memo, two threads can at worst compute one entry twice; callers must
    not change what they are handed. Wildcard row tests are memoized by
    ``_row_test`` itself, outside any domain."""

    name: str
    predicates: dict[str, Predicate]
    objects: dict[str, ObjectRef]
    skills: dict[str, SkillTemplate]
    #: category groups, e.g. support -> (surface, cube); enumeration of a
    #: group follows member order, which fixes grounding order
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: per-role prompt examples: (instruction/context, expected answer)
    goal_examples: tuple[tuple[str, str], ...] = ()
    precondition_examples: tuple[tuple[str, str], ...] = ()
    parameter_examples: tuple[tuple[str, str], ...] = ()
    _achievers: dict[Literal, list[tuple[SkillTemplate, dict[str, str]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _objects_in: dict[tuple[str, frozenset[str]], tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- vocabulary ----------------------------------------------------------

    def predicate(self, name: str) -> Predicate:
        try:
            return self.predicates[name]
        except KeyError:
            raise UnknownPredicate(name) from None

    def object(self, name: str) -> ObjectRef:
        try:
            return self.objects[name]
        except KeyError:
            raise UnknownObject(name) from None

    def skill(self, name: str) -> SkillTemplate:
        try:
            return self.skills[name]
        except KeyError:
            raise UnknownSkill(name) from None

    def categories_of(self, group_or_category: str) -> tuple[str, ...]:
        return self.groups.get(group_or_category, (group_or_category,))

    def objects_in(self, group_or_category: str,
                   registry: frozenset[str]) -> tuple[str, ...]:
        """The names in ``registry`` admissible for a slot, by the domain's
        categories, in category-then-name order. Memoized per category and
        registry (class docstring)."""
        key = group_or_category, registry
        names = self._objects_in.get(key)
        if names is None:
            names = self._objects_in[key] = tuple(
                name for cat in self.categories_of(group_or_category)
                for name in sorted(n for n in registry if self.objects[n].category == cat))
        return names

    def check_literal(self, lit: Literal, *, objects: Collection[str] | None = None,
                      slots: Collection[str] = ()) -> None:
        """Validate predicate, arity, and argument symbols: each argument is
        one of ``objects`` (the domain's by default), ``any_object``, or a
        ``$slot``/``@slot`` naming one of ``slots``, the object slots of the
        template's skill (none for a ground literal).

        This is the one literal rule. Literals pass it where they enter:
        skill templates, fault-rule guards, oracle answer templates and
        goals, goal-set goals, parsed answers, planning goals,
        and tree leaves by ``sim.leaf_mismatch`` (the rule of the tree gate
        and of ``verify_tree``). Evaluation trusts them after."""
        pred = self.predicate(lit.predicate)
        if len(lit.args) != pred.arity:
            raise ArityMismatch(lit.predicate, pred.arity, len(lit.args))
        known = self.objects if objects is None else objects
        for arg in lit.args:
            if arg in known or is_wildcard(arg):
                continue
            if not is_slot(arg):
                raise UnknownObject(arg)
            if arg[1:] not in slots:
                raise UnboundSlot(arg, str(lit))

    # -- evaluation ------------------------------------------------------------

    def holds(self, state: WorldState, lit: Literal, *,
              include_hidden: bool = False) -> bool:
        """Closed-world truth of a ground or wildcard literal.

        A positive wildcard literal is existential; a negated one is
        universal (true iff no object satisfies the positive form). The
        state's index is read once and the rows of the literal's predicate
        handed to ``literal_holds``. The literal is trusted to have passed
        ``check_literal``."""
        index = state._index_with_hidden if include_hidden else state._index
        return literal_holds(lit, index.get(lit.predicate, ()), state.registry)

    # -- effects ---------------------------------------------------------------

    def effect_delta(self, state: WorldState,
                     action: GroundAction) -> tuple[set[Literal], set[Literal]]:
        """The (add, remove) fact sets of the action's visible effects, read
        from the grounding's effect split (``_Grounded.delta``)."""
        return self.skill(action.skill).grounded(action).delta(state)

    def apply_effects(self, state: WorldState, action: GroundAction) -> WorldState:
        """Delete-then-add application of the action's visible effects.

        The hidden part of the state is never touched here."""
        add, remove = self.effect_delta(state, action)
        return state.with_changes(add=add, remove=remove)

    def apply_hidden_effects(self, state: WorldState, action: GroundAction) -> WorldState:
        grounded = self.skill(action.skill).grounded(action).hidden_effects
        remove = {lit.positive() for lit in grounded if lit.negated}
        add = {lit for lit in grounded if not lit.negated}
        return state.with_hidden_changes(add=add, remove=remove)

    def ground_preconditions(self, action: GroundAction) -> tuple[Literal, ...]:
        return self.skill(action.skill).grounded(action).preconditions

    # -- backchaining support ----------------------------------------------------

    def achievers(self, lit: Literal) -> list[tuple[SkillTemplate, dict[str, str]]]:
        """Skills with an effect template unifiable with ``lit``.

        Returns (skill, partial binding) pairs in skill declaration order,
        deduplicated, each binding covering the slots the target fixes.
        Object slots left free are grounded later by the planner. Memoized
        per literal (class docstring)."""
        results = self._achievers.get(lit)
        if results is not None:
            return results
        results = []
        for skill in self.skills.values():
            for effect in skill.effects:
                binding = _unify_effect(effect, lit)
                if binding is None:
                    continue
                if not any(s.name == skill.name and b == binding
                           for s, b in results):
                    results.append((skill, binding))
        self._achievers[lit] = results
        return results


def _unify_effect(template: Literal, target: Literal) -> dict[str, str] | None:
    """Match an effect template against a goal/precondition literal.

    The template's wildcard (a delete-all position) absorbs any target
    argument; a target wildcard leaves template slots free. Returns the
    slot binding on success, None on mismatch."""
    if template.predicate != target.predicate or template.negated != target.negated:
        return None
    if len(template.args) != len(target.args):
        return None
    binding: dict[str, str] = {}
    for t_arg, g_arg in zip(template.args, target.args):
        if is_slot(t_arg):
            if is_wildcard(g_arg):
                continue  # slot stays free; grounding will enumerate
            slot = t_arg[1:]
            if binding.get(slot, g_arg) != g_arg:
                return None
            binding[slot] = g_arg
        elif is_wildcard(t_arg):
            continue  # template deletes all instances at this position
        else:
            if not is_wildcard(g_arg) and t_arg != g_arg:
                return None
    return binding


# --- input files ---------------------------------------------------------------

def read_input(path: str | Path, kind: str) -> str:
    """The text of an input file; BtError naming the ``kind`` file and the
    reason when it cannot be read (missing, a directory, not UTF-8)."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) else "not UTF-8 text"
        raise BtError(f"cannot read {kind} file {path}: {reason}") from e


# PyYAML's safe loader, on libyaml where PyYAML was built with it: the same
# data, error classes and error lines as the pure-Python one, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: str | Path, kind: str):
    """The parsed content of a YAML input file (domain, scenario, fixtures,
    goal set); SchemaError naming the file and line when it is not YAML."""
    text = read_input(path, kind)
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        raise SchemaError(f"invalid YAML: {e}", file=str(path),
                          line=mark.line + 1 if mark else None) from e


# --- input file shapes ----------------------------------------------------------
#
# One table per input format. A shape is a type (a value of it; a bool is
# no integer), a frozenset of the allowed strings, [shape] for a list of
# that shape, {str: shape} for a mapping whose values all have that shape,
# a dict of key names to shapes for a mapping with those keys, or a tuple
# of shapes for any one of them. A key ending in "?" is optional; any other
# key, and every value of a {str: shape} mapping, must be present and not
# empty. A null value counts as absent; keys no table names are ignored.

_SCALAR = (str, int, float)
_EXAMPLES = [{"input": str, "answer": str}]

DOMAIN_SHAPE = {
    "schema": frozenset({"domain/v1"}),
    "name": str,
    "predicates?": [{"name": str, "arity": int, "description?": str, "scene?": str}],
    "objects?": [{"name": str, "category": str}],
    "groups?": {str: [str]},
    "skills?": [{
        "name": str,
        "params?": [{"name": str,
                     "kind?": frozenset({"object", "numeric", "categorical"}),
                     "category?": str, "unit?": str, "choices?": [str],
                     "default?": _SCALAR}],
        "preconditions?": [str], "effects?": [str], "hidden_effects?": [str]}],
    "prompt?": {"goal_examples?": _EXAMPLES, "precondition_examples?": _EXAMPLES,
                "parameter_examples?": _EXAMPLES},
}

SCENARIO_SHAPE = {
    "schema": frozenset({"scenario/v1"}),
    "id": str,
    "domain": str,
    "description?": str,
    "instruction": str,
    "objects?": [str],
    "initial?": {"visible?": [str], "hidden?": [str]},
    "open_params?": [str],
    "fault_rules?": [{
        "id": str, "skill": str,
        "where?": {str: (str, {"category": str})},
        "phase?": frozenset({"planning", "execution"}),
        "guard?": [str], "message": str}],
    "oracle": {"goals": str, "preconditions?": {str: str},
               "params?": [{"slot": str, "object": str, "value": _SCALAR}]},
    "expected?": {"outcome?": frozenset({"success", "exhausted", "unsolvable", "failure"}),
                  "rounds?": int},
}

FIXTURES_SHAPE = {str: (str, [str])}

GOALSET_SHAPE = {
    "schema": frozenset({"goalbench/v1"}),
    "domain": str,
    "scene?": {"visible?": [str], "objects?": [str]},
    "instructions": [{"id": str, "difficulty": str, "instruction": str, "goal": str}],
}


def check_shape(value, shape, source: str, path: str = "") -> None:
    """Raise SchemaError naming ``source`` and the key path of the first part
    of ``value`` that does not fit ``shape``; ``path`` is where ``value``
    sits in the file."""
    options = shape if isinstance(shape, tuple) else (shape,)
    for shape in options:
        if isinstance(value, _container(shape)) and not isinstance(value, bool) \
                and (not isinstance(shape, frozenset) or value in shape):
            break
    else:
        expected = " or ".join(map(_describe, options))
        raise SchemaError(f"{path or 'top level'}: expected {expected}, "
                          f"got {reprlib.repr(value)}", file=source)
    if isinstance(shape, list):
        for i, item in enumerate(value):
            check_shape(item, shape[0], source, f"{path}[{i}]")
    elif isinstance(shape, dict):
        entries = [(key, shape[str], True) for key in value] if str in shape else \
            [(key.rstrip("?"), sub, not key.endswith("?")) for key, sub in shape.items()]
        for key, sub, required in entries:
            item, where = value.get(key), f"{path}.{key}" if path else str(key)
            if required and (item is None or item in ("", [], {})):
                raise SchemaError(f"{where}: missing or empty", file=source)
            if item is not None:
                check_shape(item, sub, source, where)


def _container(shape) -> type:
    if isinstance(shape, type):
        return shape
    return str if isinstance(shape, frozenset) else type(shape)


def _describe(shape) -> str:
    if isinstance(shape, frozenset):
        return " or ".join(map(repr, sorted(shape)))
    return {str: "a string", int: "an integer", float: "a number",
            list: "a list", dict: "a mapping"}[_container(shape)]


def load_domain(path: str | Path) -> Domain:
    """Load and validate a versioned domain file."""
    return parse_domain(load_yaml(path, "domain"), source=str(path))


def parse_domain(data, *, source: str = "<memory>") -> Domain:
    check_shape(data, DOMAIN_SHAPE, source)

    def fail(msg: str):
        raise SchemaError(msg, file=source)

    predicates: dict[str, Predicate] = {}
    for entry in data.get("predicates") or ():
        pname = entry["name"]
        if pname in predicates:
            fail(f"duplicate predicate {pname!r}")
        predicates[pname] = Predicate(pname, entry["arity"], entry.get("description") or "",
                                      entry.get("scene"))

    objects: dict[str, ObjectRef] = {}
    for entry in data.get("objects") or ():
        oname = entry["name"]
        if oname in objects:
            fail(f"duplicate object {oname!r}")
        if oname == ANY_OBJECT:
            fail(f"object name {ANY_OBJECT!r} is reserved")
        objects[oname] = ObjectRef(oname, entry["category"])

    groups = {gname: tuple(members) for gname, members in (data.get("groups") or {}).items()}
    dom = Domain(data["name"], predicates, objects, {}, groups)

    def parse_literals(texts, *, where: str, slots: set[str]) -> tuple[Literal, ...]:
        lits = []
        for text in texts or []:
            try:
                lit = grammar.parse_literal(text)
                dom.check_literal(lit, slots=slots)
            except BtError as e:
                fail(f"invalid literal {text!r} in {where}: {e}")
            lits.append(lit)
        return tuple(lits)

    for i, entry in enumerate(data.get("skills") or ()):
        sname = entry["name"]
        if sname in dom.skills:
            fail(f"duplicate skill {sname!r}")
        slots = []
        for j, slot_entry in enumerate(entry.get("params") or ()):
            slot = Slot(slot_entry["name"], slot_entry.get("kind") or "object",
                        category=slot_entry.get("category"),
                        unit=slot_entry.get("unit"),
                        choices=tuple(slot_entry.get("choices") or ()))
            default = slot_entry.get("default")
            if default is not None:
                if slot.kind == "object":
                    fail(f"skills[{i}].params[{j}].default: object slot "
                         f"{slot.name!r} takes no default")
                try:
                    default = slot.parse_value(str(default))
                except FormatError as e:
                    fail(f"skills[{i}].params[{j}].default: {e}")
            slots.append(replace(slot, default=default))
        object_slots = {s.name for s in slots if s.kind == "object"}
        pre, eff, hidden = (parse_literals(entry.get(key), where=f"skill {sname}",
                                           slots=object_slots)
                            for key in ("preconditions", "effects", "hidden_effects"))
        for lit in eff + hidden:
            if not lit.negated and lit.has_wildcard:
                fail(f"skill {sname!r}: positive effect {lit} may not use {ANY_OBJECT}")
        dom.skills[sname] = SkillTemplate(sname, tuple(slots), pre, eff, hidden)

    prompt = data.get("prompt") or {}
    dom.goal_examples, dom.precondition_examples, dom.parameter_examples = (
        tuple((ex["input"], ex["answer"]) for ex in prompt.get(key) or ())
        for key in ("goal_examples", "precondition_examples", "parameter_examples"))
    return dom


def scene_objects(domain: Domain, objects: list[str] | None) -> tuple[ObjectRef, ...]:
    """The object registry of a scene: the named domain objects in order, or
    all of them when ``objects`` is None. An unknown name is UnknownObject,
    a name listed twice a SchemaError."""
    if objects is None:
        return tuple(domain.objects.values())
    registry = tuple(domain.object(name) for name in objects)
    if len(set(objects)) < len(objects):
        repeated = next(name for i, name in enumerate(objects) if name in objects[:i])
        raise SchemaError(f"object {repeated!r} is listed twice")
    return registry


def make_state(domain: Domain, visible: list[str] | tuple[str, ...],
               hidden: list[str] | tuple[str, ...] = (),
               objects: list[str] | None = None) -> WorldState:
    """Build a WorldState from literal strings over ``scene_objects(domain,
    objects)``.

    A state fact is positive and ground: a negated literal or one naming
    ``any_object`` is a SchemaError naming it, as a positive wildcard
    effect is when a domain loads."""
    registry = scene_objects(domain, objects)
    names = tuple(o.name for o in registry)

    def to_set(texts) -> frozenset[Literal]:
        lits = set()
        for text in texts:
            lit = grammar.parse_literal(text)
            if lit.negated:
                raise SchemaError(f"state literal {text!r} must be positive")
            if lit.has_wildcard:
                raise SchemaError(f"state literal {text!r} may not use {ANY_OBJECT}")
            domain.check_literal(lit, objects=names)
            lits.add(lit)
        return frozenset(lits)

    return WorldState(registry, to_set(visible), to_set(hidden))
