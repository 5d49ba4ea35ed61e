"""Minimal completions-API stub for scorer tests.

Replays deterministic echo responses: the request's full prompt is split
into tokens that keep their leading whitespace (so a continuation that
starts with a space begins exactly at the prompt/continuation boundary),
and each token gets a reproducible fake log-probability. A ``respond(body)``
given in its place returns a dict sent as JSON, or bytes sent as they are.
Individual requests can be failed through ``fail_when(body)``, to exercise
the retry and partial-failure paths: it returns an HTTP status code to fail
with, True for 500, or a false value to answer normally.

By default the stub speaks HTTP/1.0 and closes each connection after one
response. ``keep_alive=True`` switches to HTTP/1.1 keep-alive, and
``idle_timeout`` (seconds) makes the server close a connection that has sat
idle that long. ``connections`` counts the connections the stub accepted.
Accepted sockets set TCP_NODELAY.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def tokenize(text: str) -> tuple[list[str], list[int]]:
    """Whitespace-prefixed chunks plus their character offsets."""
    tokens = re.findall(r"\s*\S+", text)
    offsets = []
    pos = 0
    for tok in tokens:
        offsets.append(pos)
        pos += len(tok)
    return tokens, offsets


def fake_logprob(token: str) -> float:
    return -0.1 - (sum(token.encode("utf-8")) % 17) / 10.0


def echo_response(body: dict) -> dict:
    """Default behavior: echo the prompt with per-token log-probs."""
    prompt = body["prompt"]
    tokens, offsets = tokenize(prompt)
    logprobs = [None] + [fake_logprob(t) for t in tokens[1:]]
    completion = {"text": "", "logprobs": {
        "tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets,
    }}
    if body.get("max_tokens", 0) > 0:
        completion = {"text": " stub-answer", "logprobs": None}
    return {"choices": [completion]}


def answer_first_label(body: dict) -> dict:
    """Echo for scoring; for answers, the first label that occurs in the prompt."""
    if body.get("max_tokens", 0) == 0:
        return echo_response(body)
    labels = re.findall(r"topic-\d+", body["prompt"])
    return {"choices": [{"text": " " + (labels[0] if labels else "none"), "logprobs": None}]}


class StubScorerServer:
    """Threaded HTTP stub. Use as a context manager; endpoint gives the URL."""

    def __init__(self, respond=None, fail_when=None, keep_alive=False, idle_timeout=None):
        self.respond = respond or echo_response
        self.fail_when = fail_when or (lambda body: False)
        self.requests: list[dict] = []
        self.connections = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            timeout = idle_timeout
            # TCP_NODELAY: a keep-alive reply's head and body are two writes, and
            # without it the body waits on Nagle's algorithm and the delayed ACK
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                body["_path"] = self.path
                body["_auth"] = self.headers.get("Authorization", "")
                with outer._lock:
                    outer.requests.append(body)
                status = outer.fail_when(body)
                if status:
                    fault = b"injected fault"
                    self.send_response(500 if status is True else status)
                    self.send_header("Content-Length", str(len(fault)))  # keep-alive needs it
                    self.end_headers()
                    self.wfile.write(fault)
                    return
                reply = outer.respond(body)
                payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # silence request logging
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubScorerServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
