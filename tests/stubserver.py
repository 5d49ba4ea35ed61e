"""Minimal completions-API stub for scorer tests.

Replays deterministic echo responses: the request's full prompt is split
into tokens that keep their leading whitespace (so a continuation that
starts with a space begins exactly at the prompt/continuation boundary),
and each token gets a reproducible fake log-probability. Individual
requests can be failed through ``fail_when(body)``, to exercise the retry
and partial-failure paths: it returns an HTTP status code to fail with,
True for 500, or a false value to answer normally.
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


class StubScorerServer:
    """Threaded HTTP stub. Use as a context manager; endpoint gives the URL."""

    def __init__(self, respond=None, fail_when=None):
        self.respond = respond or echo_response
        self.fail_when = fail_when or (lambda body: False)
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                body["_path"] = self.path
                body["_auth"] = self.headers.get("Authorization", "")
                with outer._lock:
                    outer.requests.append(body)
                status = outer.fail_when(body)
                if status:
                    self.send_response(500 if status is True else status)
                    self.end_headers()
                    self.wfile.write(b"injected fault")
                    return
                payload = json.dumps(outer.respond(body)).encode("utf-8")
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
