"""Completions-API stub for the http_feedback workload, run as its own process.

    python3 bench/stub.py --seed N

Prints ``{"port": ...}`` on its first stdout line once it accepts
connections, then serves until its stdin closes.

Scoring requests get the echo responses of ``tests/stubserver.py``
(reused, not copied). Completion requests answer with the label that most
of the prompt's examples carry, so accuracy is meaningful.

Unlike the test stub it speaks HTTP/1.1 keep-alive, listens with a backlog
larger than the client's thread count and sets TCP_NODELAY: without
TCP_NODELAY each keep-alive request waits about 40 ms on Nagle's algorithm
and delayed ACKs, and the benchmark would measure that instead of gicl.

Faults are a deterministic function of (seed, prompt), independent of
request order and thread count: 2% of prompts fail with HTTP 503 on their
first request only (transient), and 0.5% fail on every request (permanent).
``GET /_stats`` reports the request count and the prompts that failed
permanently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from stubserver import echo_response  # noqa: E402

LABEL_LINE = re.compile(r"^Category: (\S+)$", re.MULTILINE)
TRANSIENT = 0.02
PERMANENT = 0.005
BACKLOG = 64  # listen queue; larger than any client thread count


def fault_kind(seed: int, prompt: str) -> str:
    """'permanent', 'transient' or '' for one prompt, from a keyed hash."""
    digest = hashlib.sha256(f"{seed}\x00{prompt}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    if u < PERMANENT:
        return "permanent"
    if u < PERMANENT + TRANSIENT:
        return "transient"
    return ""


def answer(body: dict) -> dict:
    if body.get("max_tokens", 0) <= 0:
        return echo_response(body)
    labels = LABEL_LINE.findall(body["prompt"])
    text = " " + Counter(labels).most_common(1)[0][0] if labels else " unknown"
    return {"choices": [{"text": text, "logprobs": None}]}


class StubState:
    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.requests = 0
        self.seen: set[str] = set()
        self.permanent_prompts: set[str] = set()

    def should_fail(self, prompt: str) -> bool:
        kind = fault_kind(self.seed, prompt)
        with self.lock:
            self.requests += 1
            first = prompt not in self.seen
            self.seen.add(prompt)
            if kind == "permanent":
                self.permanent_prompts.add(prompt)
        return kind == "permanent" or (kind == "transient" and first)


def make_server(state: StubState) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _send(self, code: int, payload: bytes, ctype: str = "application/json") -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):  # noqa: N802 - http.server API
            with state.lock:
                stats = {"requests": state.requests,
                         "permanent_prompts": sorted(state.permanent_prompts)}
            self._send(200, json.dumps(stats).encode("utf-8"))

        def do_POST(self):  # noqa: N802 - http.server API
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            if state.should_fail(body["prompt"]):
                self._send(503, b"injected fault", "text/plain")
                return
            self._send(200, json.dumps(answer(body)).encode("utf-8"))

        def log_message(self, *args):  # silence request logging
            pass

    class Server(ThreadingHTTPServer):
        request_queue_size = BACKLOG
        daemon_threads = True

    return Server(("127.0.0.1", 0), Handler)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    server = make_server(StubState(args.seed))
    # the parent closing our stdin ends the stub, so it cannot outlive a crashed parent
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    server.serve_forever()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
