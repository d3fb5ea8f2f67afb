"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every ``*_ms`` metric is self time per traced request (span time minus the
time covered by spans of other wrapped functions it called), except the
two marked inclusive: ``resolver.fingerprint_ms`` (``tree_fingerprint``
with the ``bt.serialize`` inside it) and ``backends.complete_ms``. Counts
are per traced request too; ratios say their base.
"""

from __future__ import annotations

from collections import Counter

from spans import SpanStats, Target, Tracer


def _count_wildcards(tracer: Tracer, args: tuple, _result) -> None:
    if args[2].has_wildcard:                 # Domain.holds(self, state, lit)
        tracer.counts["domain.holds.wildcard"] += 1


def _count_prompt_chars(tracer: Tracer, _args: tuple, prompt: str) -> None:
    tracer.counts["llm.prompt_chars"] += len(prompt)


def _count_fault_events(tracer: Tracer, _args: tuple, trace) -> None:
    tracer.counts["sim.fault_events"] += len(trace.events)


def _count_states(tracer: Tracer, _args: tuple, states: list) -> None:
    tracer.counts["verify.states_explored"] += len(states)


TARGETS = [
    Target("btpolicy.resolver:resolve_until_success", "resolver.resolve_until_success"),
    Target("btpolicy.resolver:interpret_goals", "resolver.interpret_goals"),
    Target("btpolicy.resolver:resolve", "resolver.resolve"),
    Target("btpolicy.resolver:resolve_parameter", "resolver.resolve_parameter"),
    Target("btpolicy.resolver:find_param_request", "resolver.find_param_request"),
    Target("btpolicy.resolver:bind_default_params", "resolver.bind_default_params"),
    Target("btpolicy.resolver:tree_fingerprint", "resolver.tree_fingerprint"),
    Target("btpolicy.planner:plan", "planner.plan"),
    Target("btpolicy.planner:expand_condition", "planner.expand_condition"),
    Target("btpolicy.domain:Domain.holds", "domain.holds", on_call=_count_wildcards),
    Target("btpolicy.domain:Domain.apply_effects", "domain.apply_effects"),
    Target("btpolicy.domain:Domain.achievers", "domain.achievers"),
    Target("btpolicy.bt:BehaviorTree.find", "bt.find"),
    Target("btpolicy.bt:BehaviorTree.parent_of", "bt.parent_of"),
    Target("btpolicy.bt:BehaviorTree.id_index", "bt.id_index"),
    Target("btpolicy.bt:tick", "bt.tick"),
    Target("btpolicy.bt:serialize", "bt.serialize"),
    Target("btpolicy.bt:parse", "bt.parse"),
    Target("btpolicy.sim:execute", "sim.execute", on_result=_count_fault_events),
    Target("btpolicy.llm:build_prompt", "llm.build_prompt", on_result=_count_prompt_chars),
    Target("btpolicy.llm:scene_from_state", "llm.scene_from_state"),
    Target("btpolicy.llm:condition_catalog", "llm.condition_catalog"),
    Target("btpolicy.llm:parse_goal_response", "llm.parse_goal_response"),
    Target("btpolicy.llm:parse_precondition_response", "llm.parse_precondition_response"),
    Target("btpolicy.llm:parse_param_response", "llm.parse_param_response"),
    Target("btpolicy.backends:OracleBackend.complete", "backends.complete"),
    Target("btpolicy.backends:RemoteBackend.complete", "backends.complete"),
    Target("btpolicy.backends:RemoteBackend._post", "backends.post"),
    Target("btpolicy.verify:verify_tree", "verify.verify_tree"),
    Target("btpolicy.verify:reachable_states", "verify.reachable_states",
           on_result=_count_states),
    Target("btpolicy.grammar:parse_literal", "grammar.parse_literal"),
    Target("btpolicy.grammar:parse_literal_conjunction", "grammar.parse_literal_conjunction"),
    Target("btpolicy.grammar:parse_value", "grammar.parse_value"),
    Target("btpolicy.grammar:parse_action", "grammar.parse_action"),
    Target("btpolicy.terms:Literal.substitute", "terms.substitute", count_only=True),
]

REQUEST_SPAN = "request"     # the benchmark's own span around each traced request
LLM_PARSERS = ("llm.parse_goal_response", "llm.parse_precondition_response",
               "llm.parse_param_response")


def by_base(stats: dict[str, SpanStats]) -> dict[str, SpanStats]:
    """Merge per-caller spans (``bt.tick@planner``) into their base name."""
    merged: dict[str, SpanStats] = {}
    for name, entry in stats.items():
        into = merged.setdefault(name.split("@")[0], SpanStats())
        into.calls += entry.calls
        into.total_s += entry.total_s
        into.self_s += entry.self_s
    return merged


def layer_metrics(stats: dict[str, SpanStats], counts: Counter, *, requests: int,
                  rounds: int, rejected: int, connections: float, posts_delay_s: float,
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced request. ``connections`` is completion
    connections per request as the stub counted them; ``posts_delay_s`` is
    the stub's fixed delay times the posts it answered."""
    base = by_base(stats)
    empty = SpanStats()

    def get(name: str) -> SpanStats:
        return (stats if "@" in name else base).get(name, empty)

    def calls(*names: str) -> float:
        return sum(get(n).calls for n in names) / requests

    def self_ms(*names: str) -> float:
        return sum(get(n).self_s for n in names) * 1000 / requests

    def total_ms(*names: str) -> float:
        return sum(get(n).total_s for n in names) * 1000 / requests

    resolver_spans = [n for n in base if n.startswith("resolver.")
                      and n != "resolver.tree_fingerprint"]
    grammar_spans = [n for n in base if n.startswith("grammar.")]
    lookups = ("bt.find", "bt.parent_of", "bt.id_index")
    holds_calls = get("domain.holds").calls
    complete_s = get("backends.complete").total_s
    return {
        "resolver.self_ms": (self_ms(*resolver_spans), "ms"),
        "resolver.rounds": (rounds / requests, "count"),
        "resolver.rejected_ratio": (rejected / rounds if rounds else 0.0, "ratio"),
        "resolver.fingerprint_ms": (total_ms("resolver.tree_fingerprint"), "ms"),
        "planner.plan_calls": (calls("planner.plan"), "count"),
        "planner.plan_self_ms": (self_ms("planner.plan"), "ms"),
        "planner.expansions": (calls("planner.expand_condition"), "count"),
        "planner.expand_ms": (self_ms("planner.expand_condition"), "ms"),
        "planner.sim_ticks": (calls("bt.tick@planner"), "count"),
        "domain.holds_calls": (calls("domain.holds"), "count"),
        "domain.holds_ms": (self_ms("domain.holds"), "ms"),
        "domain.holds_wildcard_share": (
            counts["domain.holds.wildcard"] / holds_calls if holds_calls else 0.0, "ratio"),
        "domain.apply_effects_calls": (calls("domain.apply_effects"), "count"),
        "domain.apply_effects_ms": (self_ms("domain.apply_effects"), "ms"),
        "domain.achievers_calls": (calls("domain.achievers"), "count"),
        "bt.lookup_calls": (calls(*lookups), "count"),
        "bt.lookup_ms": (self_ms(*lookups), "ms"),
        "bt.tick_calls": (calls("bt.tick"), "count"),
        "bt.tick_ms": (self_ms("bt.tick"), "ms"),
        "bt.serialize_ms": (self_ms("bt.serialize"), "ms"),
        "bt.parse_ms": (self_ms("bt.parse"), "ms"),
        "sim.execute_calls": (calls("sim.execute"), "count"),
        "sim.execute_self_ms": (self_ms("sim.execute"), "ms"),
        "sim.ticks_per_request": (calls("bt.tick@sim"), "count"),
        "sim.fault_events": (counts["sim.fault_events"] / requests, "count"),
        "llm.build_prompt_ms": (self_ms("llm.build_prompt"), "ms"),
        "llm.scene_ms": (self_ms("llm.scene_from_state"), "ms"),
        "llm.catalog_ms": (self_ms("llm.condition_catalog"), "ms"),
        "llm.parse_ms": (self_ms(*LLM_PARSERS), "ms"),
        "llm.parse_failures": (
            sum(counts[n + ".raised"] for n in LLM_PARSERS) / requests, "count"),
        "llm.prompt_chars": (counts["llm.prompt_chars"] / requests, "chars"),
        "backends.complete_calls": (calls("backends.complete"), "count"),
        "backends.complete_ms": (complete_s * 1000 / requests, "ms"),
        "backends.post_calls": (calls("backends.post"), "count"),
        "backends.connections_opened": (connections, "count"),
        "backends.client_overhead_ms": ((complete_s - posts_delay_s) * 1000 / requests, "ms"),
        "verify.verify_ms": (self_ms("verify.verify_tree"), "ms"),
        "verify.states_explored": (counts["verify.states_explored"] / requests, "count"),
        "grammar.parse_calls": (calls(*grammar_spans), "count"),
        "grammar.parse_ms": (self_ms(*grammar_spans), "ms"),
        "terms.substitute_calls": (counts["terms.substitute"] / requests, "count"),
        "trace.unattributed_ms": (self_ms(REQUEST_SPAN), "ms"),
    }
