import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpolicy.backends import RemoteBackend, RequestMeta, ScriptedBackend
from btpolicy.domain import Slot, make_state
from btpolicy.errors import (BackendUnavailable, FormatError, MissingFixture,
                             ParseError, UnitMismatch, UnknownSymbol)
from btpolicy.grammar import parse_literal
from btpolicy.llm import (ParamValue, PromptSpec, Role, build_prompt,
                          condition_catalog, parse_goal_response,
                          parse_param_response, parse_precondition_response,
                          scene_from_state, split_answer)
from btpolicy.terms import GroundAction, Quantity


def goal_spec(domain, state, instruction="Put the blue cube on the green cube"):
    return PromptSpec(
        role=Role.GOAL_INTERPRETATION,
        instruction=instruction,
        objects=state.objects,
        condition_catalog=condition_catalog(domain),
        examples=domain.goal_examples,
        scene_description=scene_from_state(domain, state),
    )


class TestBuildPrompt:
    def test_contains_every_catalog_description(self, cafe_domain):
        state = make_state(cafe_domain, [])
        text = build_prompt(goal_spec(cafe_domain, state, "Sweep the floor"))
        for predicate in cafe_domain.predicates.values():
            assert predicate.description in text

    def test_contains_every_object_and_scene(self, cube_domain, blocked_cube_state):
        text = build_prompt(goal_spec(cube_domain, blocked_cube_state))
        for name in blocked_cube_state.object_names:
            assert name in text
        assert "<red_cube> is on <blue_cube>." in text

    def test_failure_prompt_carries_error_message(self, cube_domain, blocked_cube_state):
        spec = PromptSpec(
            role=Role.FAILURE_RESOLUTION,
            instruction="Put the blue cube on the green cube",
            objects=blocked_cube_state.objects,
            condition_catalog=condition_catalog(cube_domain),
            examples=cube_domain.precondition_examples,
            scene_description=scene_from_state(cube_domain, blocked_cube_state),
            error_message="No collision free path found",
            failing_action=GroundAction.from_mapping("grasp", {"obj": "blue_cube"}),
        )
        text = build_prompt(spec)
        assert "No collision free path found" in text
        assert "grasp(obj=blue_cube)" in text

    def test_byte_identical_for_identical_specs(self, cube_domain, blocked_cube_state):
        a = build_prompt(goal_spec(cube_domain, blocked_cube_state))
        b = build_prompt(goal_spec(cube_domain, blocked_cube_state))
        assert a == b

    def test_answer_requested_before_reasoning(self, cube_domain, blocked_cube_state):
        text = build_prompt(goal_spec(cube_domain, blocked_cube_state))
        assert text.index("ANSWER") < text.index("REASONING")
        assert "step by step" not in text.lower()

    def test_failure_prompt_requires_context(self, cube_domain, blocked_cube_state):
        spec = PromptSpec(
            role=Role.FAILURE_RESOLUTION,
            instruction="x",
            objects=blocked_cube_state.objects,
            condition_catalog=condition_catalog(cube_domain),
            examples=(),
            scene_description="",
        )
        with pytest.raises(ValueError):
            build_prompt(spec)

    def test_empty_catalog_description_rejected(self, cube_domain, blocked_cube_state):
        spec = PromptSpec(
            role=Role.GOAL_INTERPRETATION, instruction="x",
            objects=blocked_cube_state.objects,
            condition_catalog=(("on", ""),), examples=(),
            scene_description="")
        with pytest.raises(ValueError):
            build_prompt(spec)


class TestParseGoalResponse:
    def test_simple_goal(self, cube_domain):
        goals, reasoning = parse_goal_response(
            "ANSWER: on(blue_cube, green_cube)", cube_domain)
        assert [str(c) for c in goals.conjuncts] == ["on(blue_cube, green_cube)"]
        assert reasoning is None

    def test_single_conjunct_water_goal(self, cafe_domain):
        goals, _ = parse_goal_response("ANSWER: On(Water, Bar2)", cafe_domain)
        assert [str(c) for c in goals.conjuncts] == ["On(Water, Bar2)"]

    def test_reasoning_extracted(self, cube_domain):
        raw = ("ANSWER: grasped(red_cube)\n"
               "REASONING: the instruction asks to pick it up\nand hold it.")
        goals, reasoning = parse_goal_response(raw, cube_domain)
        assert "pick it up" in reasoning and "hold it" in reasoning

    def test_unlisted_object_is_unknown_symbol(self, cafe_domain):
        state = make_state(cafe_domain, [], objects=["Chips", "Table1"])
        with pytest.raises(UnknownSymbol) as err:
            parse_goal_response("ANSWER: On(fries, Table1)", cafe_domain,
                                objects=state.object_names)
        assert err.value.name == "fries"

    def test_unknown_predicate_named(self, cube_domain):
        with pytest.raises(UnknownSymbol) as err:
            parse_goal_response("ANSWER: hovering(blue_cube)", cube_domain)
        assert err.value.name == "hovering"

    def test_missing_answer_line(self, cube_domain):
        with pytest.raises(FormatError):
            parse_goal_response("the goal is on(blue_cube, green_cube)", cube_domain)

    def test_empty_answer(self, cube_domain):
        with pytest.raises(FormatError):
            parse_goal_response("ANSWER:", cube_domain)

    def test_arity_mismatch_is_format_error(self, cube_domain):
        with pytest.raises(FormatError):
            parse_goal_response("ANSWER: on(blue_cube)", cube_domain)


class TestParsePreconditionResponse:
    def test_wildcard_literal(self, cube_domain):
        literals, _ = parse_precondition_response(
            "ANSWER: ~on(any_object, blue_cube)", cube_domain)
        assert [str(l) for l in literals] == ["~on(any_object, blue_cube)"]

    def test_domain_equivalent_positive_phrasing(self, cafe_domain):
        literals, _ = parse_precondition_response(
            "ANSWER: Unlocked(Cupboard)", cafe_domain)
        assert [str(l) for l in literals] == ["Unlocked(Cupboard)"]

    def test_multiple_literals(self, cube_domain):
        literals, _ = parse_precondition_response(
            "ANSWER: ~on(any_object, blue_cube) & ~grasped(any_object)",
            cube_domain)
        assert len(literals) == 2

    def test_empty_answer_rejected(self, cube_domain):
        with pytest.raises(FormatError):
            parse_precondition_response("ANSWER:  ", cube_domain)


class TestParseParamResponse:
    force = Slot("force", "numeric", unit="N")
    tool = Slot("tool", "categorical", choices=("shovel", "spoon"))

    def test_numeric_with_unit(self):
        value, reasoning = parse_param_response("ANSWER: 5.3 N", self.force)
        assert value == ParamValue("force", Quantity(5.3, "N"))
        assert reasoning is None

    def test_categorical_in_vocabulary(self):
        value, reasoning = parse_param_response(
            "ANSWER: shovel\nREASONING: sand needs a scoop", self.tool)
        assert value == ParamValue("tool", "shovel")
        assert reasoning == "sand needs a scoop"

    def test_categorical_out_of_vocab_rejected(self):
        with pytest.raises(FormatError, match="excavator"):
            parse_param_response("ANSWER: excavator", self.tool)

    def test_word_for_numeric_slot(self):
        with pytest.raises(FormatError):
            parse_param_response("ANSWER: fast", self.force)

    def test_wrong_unit(self):
        with pytest.raises(UnitMismatch):
            parse_param_response("ANSWER: 5.3 kg", self.force)


class TestRoundTripAndFuzz:
    def test_grammar_round_trip_thousand_literals(self, cube_domain):
        rng = random.Random(20240611)
        predicates = list(cube_domain.predicates.values())
        names = list(cube_domain.objects) + ["any_object"]
        for _ in range(1000):
            predicate = rng.choice(predicates)
            lit = parse_literal(str(predicate.name)) if predicate.arity == 0 else None
            args = tuple(rng.choice(names) for _ in range(predicate.arity))
            from btpolicy.terms import Literal
            lit = Literal(predicate.name, args, rng.random() < 0.5)
            assert parse_literal(str(lit)) == lit

    def test_fuzz_ten_thousand_noise_cases(self, cube_domain):
        rng = random.Random(987654321)
        alphabet = ("abcdefgh_()~&$@,. \n\tANSWERREASONING:0123456789"
                    "é✓\U0001f916")
        for _ in range(10_000):
            raw = "".join(rng.choice(alphabet)
                          for _ in range(rng.randrange(0, 60)))
            try:
                parse_goal_response(raw, cube_domain)
                parse_precondition_response(raw, cube_domain)
            except ParseError:
                pass

    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_property_arbitrary_unicode(self, noise):
        domain = _cached_cube()
        try:
            parse_goal_response(noise, domain)
        except ParseError:
            pass


_cube_cache = {}


def _cached_cube():
    if not _cube_cache:
        from btpolicy.domain import load_domain
        from btpolicy.sim import bundled_data_path
        _cube_cache["d"] = load_domain(bundled_data_path("domains", "cube_tabletop.yaml"))
    return _cube_cache["d"]


class TestBackends:
    def test_scripted_returns_fixture_verbatim(self):
        backend = ScriptedBackend({"sc1/goal": ["ANSWER: fine"]})
        meta = RequestMeta(Role.GOAL_INTERPRETATION, "sc1")
        assert backend.complete("whatever", meta) == "ANSWER: fine"

    def test_scripted_consumes_in_order_then_repeats(self):
        backend = ScriptedBackend({"sc1/failure": ["first", "second"]})
        meta = RequestMeta(Role.FAILURE_RESOLUTION, "sc1")
        got = [backend.complete("p", meta) for _ in range(4)]
        assert got == ["first", "second", "second", "second"]

    def test_scripted_missing_key(self):
        backend = ScriptedBackend({})
        with pytest.raises(MissingFixture):
            backend.complete("p", RequestMeta(Role.GOAL_INTERPRETATION, "nope"))

    def test_scripted_key_without_responses_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="'k/goal'"):
            ScriptedBackend({"k/goal": []})

    def test_oracle_backend_delegates(self, golden_scenario):
        backend = golden_scenario.oracle_backend()
        meta = RequestMeta(Role.GOAL_INTERPRETATION, golden_scenario.id)
        assert backend.complete("p", meta) == "ANSWER: on(blue_cube, green_cube)"

    def test_remote_without_credentials_fails_before_network(self, monkeypatch):
        monkeypatch.delenv("BTPOLICY_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("BTPOLICY_LLM_API_KEY", raising=False)
        backend = RemoteBackend(model="test-model")

        def boom(*a, **k):
            raise AssertionError("network was touched")

        monkeypatch.setattr(RemoteBackend, "_post", boom)
        with pytest.raises(BackendUnavailable):
            backend.complete("p", RequestMeta(Role.GOAL_INTERPRETATION, "x"))

    @pytest.mark.parametrize("endpoint", ["file:///tmp", "api.example", "ftp://api.example",
                                          "http://", "http://[::1", "http://:80"])
    def test_remote_endpoint_without_http_scheme_fails_before_network(
            self, monkeypatch, endpoint):
        def boom(*a, **k):
            raise AssertionError("network was touched")

        monkeypatch.setattr(RemoteBackend, "_post", boom)
        backend = RemoteBackend(model="m", endpoint=endpoint, api_key="k")
        with pytest.raises(BackendUnavailable) as err:
            backend.complete("p", RequestMeta(Role.GOAL_INTERPRETATION, "x"))
        assert str(err.value) == f"remote backend endpoint {endpoint!r} is not an http(s) URL"

    def test_remote_wire_format(self, monkeypatch):
        captured = {}

        class FakeResponse:
            status_code = 200
            headers = {}

            def json(self):
                return {"choices": [{"message": {"content": "ANSWER: ok"}}]}

        def fake_post(self, url, payload, headers):
            captured["url"] = url
            captured["json"] = payload
            captured["headers"] = headers
            return FakeResponse()

        monkeypatch.setattr(RemoteBackend, "_post", fake_post)
        backend = RemoteBackend(model="test-model", endpoint="https://api.example",
                                api_key="secret")
        raw = backend.complete("hello", RequestMeta(Role.GOAL_INTERPRETATION, "x"))
        assert raw == "ANSWER: ok"
        assert captured["url"] == "https://api.example/chat/completions"
        assert captured["json"]["model"] == "test-model"
        assert captured["json"]["temperature"] == 0.0
        assert captured["json"]["messages"] == [{"role": "user", "content": "hello"}]
        assert captured["headers"]["Authorization"] == "Bearer secret"

    def test_remote_retries_transport_then_gives_up(self, monkeypatch):
        calls = {"n": 0}

        def flaky_post(*a, **k):
            calls["n"] += 1
            raise ConnectionError("down")

        monkeypatch.setattr(RemoteBackend, "_post", flaky_post)
        backend = RemoteBackend(model="m", endpoint="https://api.example",
                                api_key="k", max_retries=2, backoff=0.0)
        with pytest.raises(BackendUnavailable):
            backend.complete("p", RequestMeta(Role.GOAL_INTERPRETATION, "x"))
        assert calls["n"] == 3


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, prompt, meta):
        self.calls += 1
        return self.inner.complete(prompt, meta)


def test_goal_interpretation_is_single_call(golden_scenario):
    from btpolicy.resolver import interpret_goals
    backend = CountingBackend(golden_scenario.oracle_backend())
    goals, exchange = interpret_goals(golden_scenario, backend)
    assert backend.calls == 1
    assert str(goals) == "on(blue_cube, green_cube)"


def test_split_answer_requires_answer_first():
    with pytest.raises(FormatError):
        split_answer("REASONING: thinking\nANSWER: late(answer)")


def test_remote_rate_limited_retries_then_raises(monkeypatch):
    from btpolicy.errors import RateLimited
    calls = {"n": 0}

    class Limited:
        status_code = 429
        headers = {"Retry-After": "7"}

    def post(*a, **k):
        calls["n"] += 1
        return Limited()

    monkeypatch.setattr(RemoteBackend, "_post", post)
    monkeypatch.setattr("time.sleep", lambda seconds: None)
    backend = RemoteBackend(model="m", endpoint="https://api.example",
                            api_key="k", max_retries=1, backoff=0.0)
    with pytest.raises(RateLimited) as err:
        backend.complete("p", RequestMeta(Role.GOAL_INTERPRETATION, "x"))
    assert err.value.retry_after == 7.0
    assert calls["n"] == 2


@pytest.mark.parametrize("retry_after, waited", [
    ("7", [7.0]),            # the server's wait
    ("600", [60.0]),         # capped at the request timeout
    (None, [1.5]),           # no header: the client's own backoff
    ("Wed, 21 Oct 2015 07:28:00 GMT", [1.5]),
    ("-3", [1.5]),
])
def test_remote_rate_limited_waits_retry_after(monkeypatch, retry_after, waited):
    class Limited:
        status_code = 429
        headers = {} if retry_after is None else {"Retry-After": retry_after}

    class Ok:
        status_code = 200
        headers = {}

        def json(self):
            return {"choices": [{"message": {"content": "ANSWER: ok"}}]}

    responses = [Limited(), Ok()]
    sleeps = []
    monkeypatch.setattr(RemoteBackend, "_post", lambda self, *a: responses.pop(0))
    monkeypatch.setattr("time.sleep", sleeps.append)
    backend = RemoteBackend(model="m", endpoint="https://api.example", api_key="k",
                            timeout=60.0, backoff=1.5)
    assert backend.complete("p", RequestMeta(Role.GOAL_INTERPRETATION, "x")) == "ANSWER: ok"
    assert sleeps == waited


def test_scripted_backend_tolerates_concurrent_calls():
    import threading
    backend = ScriptedBackend({"k/goal": ["a", "b", "c"]})
    meta = RequestMeta(Role.GOAL_INTERPRETATION, "k")
    results = []
    lock = threading.Lock()

    def worker():
        value = backend.complete("p", meta)
        with lock:
            results.append(value)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(results) == ["a", "b", "c", "c", "c", "c", "c", "c"]
