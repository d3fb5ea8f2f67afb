"""Loopback chat-completion stub for the ``remote-stub`` workload.

The stub speaks the wire format ``RemoteBackend`` sends (``POST
/chat/completions`` with a messages array and a bearer key) and answers from
a table recorded during set-up, keyed by the exact prompt text, after a
fixed delay. A prompt it has no answer for gets HTTP 500, so a change in
prompt text shows up as failed requests rather than passing silently.

It counts the connections that carried completion traffic and the
completions it served; ``GET /stats`` returns the counters.

``StubProcess`` runs the stub as a child process of the benchmark::

    python3 perfbench/llmstub.py --answers FILE --key KEY --delay-ms 2

prints ``port <n>`` once it listens on an ephemeral loopback port, and
stops when its standard input closes.
"""

from __future__ import annotations

import argparse
import json
import select
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answers: dict[str, str], key: str, delay_s: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.answers = answers
        self.key = key
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.counters = {"connections": 0, "served": 0, "unknown": 0}

    def bump(self, name: str) -> None:
        with self.lock:
            self.counters[name] += 1


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer
    carried_completion = False

    def do_POST(self) -> None:
        if self.path != "/chat/completions":
            self._reply(404, {"error": "not found"})
            return
        if self.headers.get("Authorization") != f"Bearer {self.server.key}":
            self._reply(401, {"error": "bad key"})
            return
        if not self.carried_completion:
            self.carried_completion = True
            self.server.bump("connections")
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            prompt = payload["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._reply(400, {"error": "malformed request"})
            return
        answer = self.server.answers.get(prompt)
        if answer is None:
            self.server.bump("unknown")
            self._reply(500, {"error": "no recorded answer for this prompt"})
            return
        time.sleep(self.server.delay_s)
        self.server.bump("served")
        self._reply(200, {"choices": [{"index": 0, "message": {
            "role": "assistant", "content": answer}}]})

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        with self.server.lock:
            counters = dict(self.server.counters)
        self._reply(200, counters)

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:
        pass


class StubProcess:
    """The stub as a child process; use as a context manager so the child
    is always stopped and reaped."""

    START_TIMEOUT_S = 30.0

    def __init__(self, answers: dict[str, str], workdir: Path, *, key: str,
                 delay_ms: float):
        workdir.mkdir(parents=True, exist_ok=True)
        answers_path = workdir / "stub_answers.json"
        answers_path.write_text(json.dumps(answers))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--answers", str(answers_path),
             "--key", key, "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("port "):
                raise RuntimeError(f"stub did not start (said {line!r})")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.stdin.close()          # the stub shuts down at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "StubProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    parser = argparse.ArgumentParser(description="loopback chat-completion stub")
    parser.add_argument("--answers", type=Path, required=True)
    parser.add_argument("--key", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    server = StubServer(json.loads(args.answers.read_text()), args.key,
                        args.delay_ms / 1000)
    print(f"port {server.server_address[1]}", flush=True)
    # stop when the parent goes away, even if it could not stop us itself
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()),
                     daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
