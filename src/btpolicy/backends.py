"""Completion backends behind one contract.

Three implementations: Scripted replays fixture responses keyed by request
id and role; Oracle synthesizes grammar-valid answers from scenario ground
truth; Remote speaks the chat-completion wire format over HTTP(S) with
temperature 0 and bounded retries on transport errors and rate limits,
waiting the server's Retry-After when it gives one. Its transport is the
standard library's ``http.client``. A Remote backend keeps up to
``MAX_IN_FLIGHT`` connections alive and reuses them until ``close()``; one
that the server closed while idle is replaced at once, outside the retry
budget. It routes through the proxies of the environment, verifies HTTPS
against the default CA store and follows no redirect. After each request it
sets ``TCP_QUICKACK`` where the platform has it, so a server that writes a
response's headers and body in two writes is not held up by Nagle's
algorithm meeting the client's delayed ACK (about 40 ms per completion).
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import math
import os
import socket
import ssl
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
MAX_IN_FLIGHT = 4   # remote requests one RemoteBackend has on the wire at
                    # once, and connections it keeps alive
# Linux only; the kernel leaves quick-ACK mode on its own, so it is set anew
# after every request write
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


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
    order; the last response repeats once the list is exhausted. An empty
    list is a ValueError naming its key."""

    def __init__(self, fixtures: Mapping[str, Sequence[str]]):
        self.fixtures = {k: list(v) if isinstance(v, (list, tuple)) else [v]
                         for k, v in fixtures.items()}
        for key, responses in self.fixtures.items():
            if not responses:
                raise ValueError(f"fixture {key!r} has no responses")
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
    _proxies: dict[str, str] = field(init=False, repr=False)
    _idle: list[tuple[tuple[str, str], http.client.HTTPConnection]] = field(
        init=False, repr=False)     # kept-alive connections with their origin
    _idle_lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self):
        self.endpoint = self.endpoint or os.environ.get(ENDPOINT_ENV) or ""
        self.api_key = self.api_key or os.environ.get(API_KEY_ENV) or ""
        self._gate = threading.Semaphore(MAX_IN_FLIGHT)
        # read once, as urllib's ProxyHandler reads them: *_proxy and no_proxy
        self._proxies = urllib.request.getproxies()
        self._idle = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the kept-alive connections. The backend stays usable: its
        next completion opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for _, conn in idle:
            conn.close()

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
        parts = urllib.parse.urlsplit(url)
        origin = (parts.scheme, parts.netloc)
        proxy = self._proxy_for(parts)
        headers = {**headers, "Content-Type": "application/json"}
        if proxy is not None and parts.scheme == "http":
            target = url                # an absolute URL, for the proxy to forward
            headers.update(_proxy_authorization(proxy))
        else:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        body = json.dumps(payload).encode()
        conn = self._take(origin)
        reused = conn is not None
        if not reused:
            conn = self._connect(parts, proxy)     # no I/O until the request
        try:
            try:
                response = _exchange(conn, target, body, headers)
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected included. On a reused connection this
                # means the server closed it while it was idle, before any
                # response: send once more on a fresh one.
                if not reused:
                    raise
                conn.close()
                conn = self._connect(parts, proxy)
                response = _exchange(conn, target, body, headers)
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._keep(origin, conn)
        return _Response(response.status, response.headers, data)

    def _proxy_for(self, parts: urllib.parse.SplitResult) -> urllib.parse.SplitResult | None:
        """The proxy for the URL ``parts``, or None to go direct."""
        proxy = self._proxies.get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass_environment(_hostport(parts),
                                                                self._proxies):
            return None
        # a proxy given without a scheme speaks the request's scheme
        return urllib.parse.urlsplit(proxy if "://" in proxy else f"{parts.scheme}://{proxy}")

    def _connect(self, parts: urllib.parse.SplitResult,
                 proxy: urllib.parse.SplitResult | None) -> http.client.HTTPConnection:
        """A new connection for the URL ``parts``: direct, through an http
        proxy, or tunnelled by CONNECT through the proxy of an https URL."""
        if proxy is None:
            where, tls = parts, parts.scheme == "https"
        else:
            where, tls = proxy, proxy.scheme == "https" or parts.scheme == "https"
        if not tls:
            return http.client.HTTPConnection(_hostport(where), timeout=self.timeout)
        conn = http.client.HTTPSConnection(_hostport(where), timeout=self.timeout,
                                           context=self._tls)
        if proxy is not None and parts.scheme == "https":
            conn.set_tunnel(_hostport(parts), headers=_proxy_authorization(proxy))
        return conn

    @functools.cached_property
    def _tls(self) -> ssl.SSLContext:
        return ssl.create_default_context()

    def _take(self, origin: tuple[str, str]) -> http.client.HTTPConnection | None:
        """A kept-alive connection to ``origin``, or None."""
        with self._idle_lock:
            if not self._idle:
                return None
            kept_origin, conn = self._idle.pop()
        if kept_origin == origin:
            return conn
        conn.close()                    # the endpoint changed since it was kept
        return None

    def _keep(self, origin: tuple[str, str], conn: http.client.HTTPConnection) -> None:
        with self._idle_lock:
            if len(self._idle) < MAX_IN_FLIGHT:
                self._idle.append((origin, conn))
                return
        conn.close()


def _exchange(conn: http.client.HTTPConnection, target: str, body: bytes,
              headers: dict) -> http.client.HTTPResponse:
    """Send one POST and read the response's head."""
    conn.request("POST", target, body, headers)
    if _QUICKACK is not None:
        conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    return conn.getresponse()


def _hostport(parts: urllib.parse.SplitResult) -> str:
    """``host[:port]`` of a URL, without its user info."""
    return parts.netloc.rpartition("@")[2]


def _proxy_authorization(proxy: urllib.parse.SplitResult) -> dict[str, str]:
    """Basic credentials from the proxy URL's user info, as ProxyHandler
    sends them; none without both a user and a password."""
    if not proxy.username or not proxy.password:
        return {}
    user_pass = f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password)}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")}


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
