import pytest

from btpolicy.backends import RemoteBackend, RequestMeta
from btpolicy.errors import BackendUnavailable
from btpolicy.llm import Role

from llmstub import StubProcess

META = RequestMeta(Role.GOAL_INTERPRETATION, "stub-test")


@pytest.fixture()
def stub(tmp_path):
    with StubProcess({"recorded prompt": "ANSWER: on(a, b)"}, tmp_path,
                     key="k", delay_ms=1) as process:
        yield process
    assert process.proc.poll() is not None


def test_recorded_answer_round_trips(stub):
    backend = RemoteBackend(endpoint=stub.url, api_key="k", max_retries=0)
    assert backend.complete("recorded prompt", META) == "ANSWER: on(a, b)"
    assert stub.stats() == {"connections": 1, "served": 1, "unknown": 0}


def test_unknown_prompt_is_rejected(stub):
    backend = RemoteBackend(endpoint=stub.url, api_key="k", max_retries=0)
    with pytest.raises(BackendUnavailable, match="500"):
        backend.complete("a prompt nobody recorded", META)
    assert stub.stats() == {"connections": 1, "served": 0, "unknown": 1}


def test_wrong_key_is_refused(stub):
    backend = RemoteBackend(endpoint=stub.url, api_key="other", max_retries=0)
    with pytest.raises(BackendUnavailable, match="401"):
        backend.complete("recorded prompt", META)
    assert stub.stats()["served"] == 0
