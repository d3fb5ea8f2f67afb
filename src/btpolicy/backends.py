"""Completion backends behind one contract.

Three implementations: Scripted replays fixture responses keyed by request
id and role; Oracle synthesizes grammar-valid answers from scenario ground
truth; Remote speaks the chat-completion wire format over HTTP(S) with
temperature 0 and bounded retries on transport errors and rate limits,
waiting the server's Retry-After when it gives one. Its transport is the
standard library's: one connection per completion, proxies from the
environment, HTTPS verified against the default CA store, no redirects.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence

from .domain import FIXTURES_SHAPE, check_shape, load_yaml
from .errors import BackendUnavailable, MissingFixture, RateLimited
from .llm import Role

ENDPOINT_ENV = "BTPOLICY_LLM_ENDPOINT"
API_KEY_ENV = "BTPOLICY_LLM_API_KEY"

TEMPERATURE = 0.0   # of every remote request
MAX_IN_FLIGHT = 4   # remote requests one RemoteBackend has on the wire at once


@dataclass
class RequestMeta:
    """Routing information that rides along with a completion request."""

    role: Role
    key: str                       # scenario or instruction id
    event: Any = None              # FailureEvent for failure resolution
    param: Any = None              # ParamRequest for parameter resolution


class Backend(Protocol):
    def complete(self, prompt: str, meta: RequestMeta) -> str: ...


class ScriptedBackend:
    """Deterministic fixture playback.

    Fixtures map ``<key>/<role>`` to a list of responses consumed in call
    order; the last response repeats once the list is exhausted."""

    def __init__(self, fixtures: Mapping[str, Sequence[str]]):
        self.fixtures = {k: list(v) if isinstance(v, (list, tuple)) else [v]
                         for k, v in fixtures.items()}
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        data = load_yaml(path, "fixture")
        check_shape(data, FIXTURES_SHAPE, str(path))
        return cls(data)

    def complete(self, prompt: str, meta: RequestMeta) -> str:
        key = f"{meta.key}/{meta.role.value}"
        if key not in self.fixtures:
            raise MissingFixture(key)
        with self._lock:
            index = self._counts.get(key, 0)
            self._counts[key] = index + 1
        responses = self.fixtures[key]
        return responses[min(index, len(responses) - 1)]


class OracleBackend:
    """Answers synthesized from scenario ground truth; pure and deterministic."""

    def __init__(self, provider: Callable[[RequestMeta], str]):
        self.provider = provider

    def complete(self, prompt: str, meta: RequestMeta) -> str:
        return self.provider(meta)


@dataclass
class RemoteBackend:
    """Chat-completion client. Endpoint and key come from arguments or the
    environment; without them every call fails before touching the network."""

    model: str = "gpt-4"
    endpoint: str | None = None
    api_key: str | None = None
    timeout: float = 60.0
    max_retries: int = 3
    backoff: float = 1.0
    _gate: threading.Semaphore = field(init=False, repr=False)
    _opener: urllib.request.OpenerDirector = field(init=False, repr=False)

    def __post_init__(self):
        self.endpoint = self.endpoint or os.environ.get(ENDPOINT_ENV) or ""
        self.api_key = self.api_key or os.environ.get(API_KEY_ENV) or ""
        self._gate = threading.Semaphore(MAX_IN_FLIGHT)
        # Only these handlers: every status comes back as a response (no
        # error processor), redirects are not followed (the bearer key stays
        # with the endpoint's host), and no scheme but http(s) opens.
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                        urllib.request.HTTPSHandler()):
            self._opener.add_handler(handler)

    def check_config(self) -> None:
        """Raise BackendUnavailable, without touching the network, when no
        call can succeed: credentials are missing or the endpoint is not an
        http(s) URL with a host."""
        if not self.endpoint or not self.api_key:
            raise BackendUnavailable(
                f"remote backend needs {ENDPOINT_ENV} and {API_KEY_ENV}")
        try:
            parts = urllib.parse.urlsplit(self.endpoint)
            usable = parts.scheme in ("http", "https") and bool(parts.hostname)
        except ValueError:      # e.g. an unbalanced IPv6 bracket
            usable = False
        if not usable:
            raise BackendUnavailable(
                f"remote backend endpoint {self.endpoint!r} is not an http(s) URL")

    def complete(self, prompt: str, meta: RequestMeta) -> str:
        self.check_config()
        payload = {
            "model": self.model,
            "temperature": TEMPERATURE,
            "messages": [{"role": "user", "content": prompt}],
        }
        url = self.endpoint.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"}
        last_error: Exception | None = None
        retry_after: float | None = None    # the server's wait from a 429
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(min(retry_after, self.timeout) if retry_after is not None
                           else self.backoff * 2 ** (attempt - 1))
                retry_after = None
            try:
                with self._gate:
                    response = self._post(url, payload, headers)
            except (OSError, http.client.HTTPException) as e:
                last_error = e  # transport error: retry with backoff
                continue
            if response.status_code == 429:
                retry_after = _parse_retry_after(response)
                last_error = RateLimited(retry_after)
                continue
            if response.status_code != 200:
                raise BackendUnavailable(
                    f"completion endpoint returned {response.status_code}")
            try:
                return response.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as e:
                raise BackendUnavailable(f"malformed completion envelope: {e}") from e
        if isinstance(last_error, RateLimited):
            raise last_error
        raise BackendUnavailable(f"transport failed after retries: {last_error}")

    def _post(self, url: str, payload: dict, headers: dict) -> _Response:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST",
            headers={**headers, "Content-Type": "application/json"})
        with self._opener.open(request, timeout=self.timeout) as response:
            return _Response(response.status, response.headers, response.read())


@dataclass(frozen=True)
class _Response:
    """The parts of an HTTP answer that ``complete`` reads."""

    status_code: int
    headers: Mapping[str, str]      # case-insensitive lookup
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body)


def _parse_retry_after(response) -> float | None:
    """Retry-After in seconds; None when absent, a date, or not a finite
    non-negative number."""
    value = response.headers.get("Retry-After")
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None
