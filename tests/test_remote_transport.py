"""RemoteBackend over its real transport, against loopback HTTP servers.

Every server here binds 127.0.0.1 on an ephemeral port; no test leaves the
machine. Proxy variables are cleared first so loopback traffic goes direct
unless a test sets its own proxy. Every backend is closed at the end of its
test, so the file runs clean under ``-W error::ResourceWarning``.
"""

import base64
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from btpolicy.backends import RemoteBackend, RequestMeta
from btpolicy.errors import BackendUnavailable
from btpolicy.llm import Role

META = RequestMeta(Role.GOAL_INTERPRETATION, "x")
OK_BODY = {"choices": [{"message": {"content": "ANSWER: ok"}}]}


class Handler(BaseHTTPRequestHandler):
    """Writes each response's headers and body in two writes, with Nagle's
    algorithm on, as ``perfbench/llmstub.py`` does."""

    protocol_version = "HTTP/1.1"
    server: "LoopbackServer"

    def do_CONNECT(self):
        self.server.received.append((f"CONNECT {self.path}", dict(self.headers), b""))
        self.send_error(502)            # no tunnel: the test reads the request

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
        # close without saying so, as a server does with an idle connection
        self.close_connection = self.close_connection or self.server.hang_up

    def log_message(self, format, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    """Answers each POST with the next queued ``(status, headers, body)``,
    or a completion once the queue is empty, and records what it got and
    how many connections it accepted. With ``hang_up`` set it closes each
    connection after one reply, unannounced, and sets ``hung_up``."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.replies: list[tuple[int, dict, dict]] = []
        self.received: list[tuple[str, dict, bytes]] = []
        self.accepted = 0
        self.hang_up = False
        self.hung_up = threading.Event()

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.hung_up.set()

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


@pytest.fixture
def remote():
    """Makes RemoteBackends and closes them after the test."""
    backends = []

    def make(**kwargs):
        backends.append(RemoteBackend(**kwargs))
        return backends[-1]

    yield make
    for backend in backends:
        backend.close()


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


def test_redirect_is_not_followed(serve, remote):
    endpoint, elsewhere = serve(), serve()
    endpoint.replies.append((302, {"Location": elsewhere.url + "/chat/completions"}, {}))
    backend = remote(model="m", endpoint=endpoint.url, api_key="secret")
    with pytest.raises(BackendUnavailable, match="returned 302"):
        backend.complete("p", META)
    assert len(endpoint.received) == 1
    assert elsewhere.received == []


def test_rate_limit_then_answer_over_the_wire(serve, remote, monkeypatch):
    server = serve()
    server.replies.append((429, {"Retry-After": "0"}, {"error": "slow down"}))
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    backend = remote(model="test-model", endpoint=server.url, api_key="secret",
                     backoff=5.0)
    assert backend.complete("hello", META) == "ANSWER: ok"
    assert sleeps == [0.0]  # the server's Retry-After, not the client's backoff
    assert len(server.received) == 2
    path, headers, body = server.received[-1]
    assert path == "/chat/completions"
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert "Connection" not in headers     # kept alive, for the next completion
    assert json.loads(body) == {"model": "test-model", "temperature": 0.0,
                                "messages": [{"role": "user", "content": "hello"}]}


@pytest.fixture
def loopback_only(monkeypatch):
    """Name lookups fail for every host but 127.0.0.1, so a connection that
    went direct to api.invalid instead of through the proxy fails."""
    real_getaddrinfo = socket.getaddrinfo

    def lookup(host, *args, **kwargs):
        if host != "127.0.0.1":
            raise socket.gaierror(f"no lookup of {host} in this test")
        return real_getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", lookup)


def test_http_proxy_from_environment(serve, remote, monkeypatch, loopback_only):
    proxy = serve()
    monkeypatch.setenv("http_proxy", proxy.url.replace("//", "//user:p%40ss@"))
    backend = remote(model="m", endpoint="http://api.invalid", api_key="k", max_retries=0)
    assert backend.complete("p", META) == "ANSWER: ok"
    assert [path for path, _, _ in proxy.received] == ["http://api.invalid/chat/completions"]
    credentials = base64.b64encode(b"user:p@ss").decode()
    assert proxy.received[0][1]["Proxy-Authorization"] == f"Basic {credentials}"


def test_https_proxy_is_asked_for_a_tunnel(serve, remote, monkeypatch, loopback_only):
    proxy = serve()
    monkeypatch.setenv("https_proxy", proxy.url)
    backend = remote(model="m", endpoint="https://api.invalid", api_key="k", max_retries=0)
    with pytest.raises(BackendUnavailable, match="502"):
        backend.complete("p", META)
    assert [path for path, _, _ in proxy.received] == ["CONNECT api.invalid:443"]


def test_no_proxy_goes_direct(serve, remote, monkeypatch):
    endpoint, proxy = serve(), serve()
    monkeypatch.setenv("http_proxy", proxy.url)
    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    backend = remote(model="m", endpoint=endpoint.url, api_key="k", max_retries=0)
    assert backend.complete("p", META) == "ANSWER: ok"
    assert len(endpoint.received) == 1 and proxy.received == []


def test_completions_share_one_kept_alive_connection(serve, remote):
    server = serve()
    backend = remote(model="m", endpoint=server.url, api_key="k")
    for _ in range(20):
        assert backend.complete("p", META) == "ANSWER: ok"
    assert len(server.received) == 20
    assert server.accepted == 1


def test_server_that_closes_every_connection_still_answers(serve, remote):
    server = serve()
    server.replies.extend([(200, {"Connection": "close"}, OK_BODY)] * 5)
    backend = remote(model="m", endpoint=server.url, api_key="k", max_retries=0)
    for _ in range(5):
        assert backend.complete("p", META) == "ANSWER: ok"
    assert server.accepted == 5


def test_connection_dropped_while_idle_is_replaced(serve, remote, monkeypatch):
    server = serve()
    server.hang_up = True
    backend = remote(model="m", endpoint=server.url, api_key="k")
    assert backend.complete("p", META) == "ANSWER: ok"
    assert server.hung_up.wait(5)           # the kept connection is now dead
    sleeps, posts = [], []
    monkeypatch.setattr("time.sleep", sleeps.append)
    real_post = RemoteBackend._post

    def post(self, *args):
        posts.append(args)
        return real_post(self, *args)

    monkeypatch.setattr(RemoteBackend, "_post", post)
    assert backend.complete("p", META) == "ANSWER: ok"
    assert sleeps == [] and len(posts) == 1
    assert server.accepted == 2 and len(server.received) == 2


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                    reason="the client's guard needs TCP_QUICKACK (Linux)")
def test_headers_and_body_in_two_writes_do_not_stall(serve, remote):
    """Nagle's algorithm holds the body until the client ACKs the headers,
    which a delayed ACK puts off by about 40 ms per completion."""
    server = serve()
    backend = remote(model="m", endpoint=server.url, api_key="k")
    backend.complete("p", META)                 # connect outside the timing
    start = time.perf_counter()
    for _ in range(20):
        backend.complete("p", META)
    assert time.perf_counter() - start < 20 * 0.040 / 2
    assert server.accepted == 1
