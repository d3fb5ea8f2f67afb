"""RemoteBackend over its real transport, against loopback HTTP servers.

Every server here binds 127.0.0.1 on an ephemeral port; no test leaves the
machine. Proxy variables are cleared first so loopback traffic goes direct
unless a test sets its own proxy.
"""

import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from btpolicy.backends import RemoteBackend, RequestMeta
from btpolicy.errors import BackendUnavailable
from btpolicy.llm import Role

META = RequestMeta(Role.GOAL_INTERPRETATION, "x")
OK_BODY = {"choices": [{"message": {"content": "ANSWER: ok"}}]}


class Handler(BaseHTTPRequestHandler):
    server: "LoopbackServer"

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.server.received.append((self.path, dict(self.headers), body))
        status, headers, reply = (self.server.replies.pop(0) if self.server.replies
                                  else (200, {}, OK_BODY))
        data = json.dumps(reply).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    """Answers each POST with the next queued ``(status, headers, body)``,
    or a completion once the queue is empty, and records what it got."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.replies: list[tuple[int, dict, dict]] = []
        self.received: list[tuple[str, dict, bytes]] = []

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture(autouse=True)
def no_proxy_environment(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def serve():
    servers = []

    def start():
        server = LoopbackServer()
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def test_closed_port_retries_then_unavailable(monkeypatch):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    calls = {"n": 0}
    real_post = RemoteBackend._post

    def post(self, *args):
        calls["n"] += 1
        return real_post(self, *args)

    monkeypatch.setattr(RemoteBackend, "_post", post)
    backend = RemoteBackend(model="m", endpoint=f"http://127.0.0.1:{port}", api_key="k",
                            max_retries=2, backoff=0.0)
    with pytest.raises(BackendUnavailable, match="transport failed after retries"):
        backend.complete("p", META)
    assert calls["n"] == 3


def test_silent_server_times_out_as_unavailable():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()  # the kernel completes the handshake; nobody answers
        backend = RemoteBackend(model="m", endpoint=f"http://127.0.0.1:{sock.getsockname()[1]}",
                                api_key="k", timeout=0.2, max_retries=0)
        with pytest.raises(BackendUnavailable, match="timed out"):
            backend.complete("p", META)


def test_redirect_is_not_followed(serve):
    endpoint, elsewhere = serve(), serve()
    endpoint.replies.append((302, {"Location": elsewhere.url + "/chat/completions"}, {}))
    backend = RemoteBackend(model="m", endpoint=endpoint.url, api_key="secret")
    with pytest.raises(BackendUnavailable, match="returned 302"):
        backend.complete("p", META)
    assert len(endpoint.received) == 1
    assert elsewhere.received == []


def test_rate_limit_then_answer_over_the_wire(serve, monkeypatch):
    server = serve()
    server.replies.append((429, {"Retry-After": "0"}, {"error": "slow down"}))
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    backend = RemoteBackend(model="test-model", endpoint=server.url, api_key="secret",
                            backoff=5.0)
    assert backend.complete("hello", META) == "ANSWER: ok"
    assert sleeps == [0.0]  # the server's Retry-After, not the client's backoff
    assert len(server.received) == 2
    path, headers, body = server.received[-1]
    assert path == "/chat/completions"
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert json.loads(body) == {"model": "test-model", "temperature": 0.0,
                                "messages": [{"role": "user", "content": "hello"}]}


def test_http_proxy_from_environment(serve, monkeypatch):
    proxy = serve()
    monkeypatch.setenv("http_proxy", proxy.url)
    real_getaddrinfo = socket.getaddrinfo

    def loopback_only(host, *args, **kwargs):
        if host != "127.0.0.1":  # a direct connection would resolve api.invalid
            raise socket.gaierror(f"no lookup of {host} in this test")
        return real_getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", loopback_only)
    backend = RemoteBackend(model="m", endpoint="http://api.invalid", api_key="k",
                            max_retries=0)
    assert backend.complete("p", META) == "ANSWER: ok"
    assert [path for path, _, _ in proxy.received] == ["http://api.invalid/chat/completions"]
