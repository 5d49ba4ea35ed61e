"""HTTP scorer conformance against a local stub completions server."""

import json
import math
import random
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from stubserver import (
    StubScorerServer,
    answer_first_label,
    echo_response,
    fake_logprob,
    tokenize,
)

from gicl import scoring as scoring_mod
from gicl.encoder import init_params
from gicl.graphstore import neighbors, sample_label_fraction, synth_sbm
from gicl.pipeline import run_strategy, sweep
from gicl.prompts import DEFAULT_TEMPLATE
from gicl.scoring import (
    FeedbackCache,
    HttpClient,
    ScorerError,
    ScorerSpec,
    make_client,
    rank_candidates,
    token_logprobs,
)
from gicl.training import TrainConfig, collect_feedback_round


class RawServer:
    """A plain-socket server for replies that http.server cannot write.

    It answers each request with the bytes ``reply(i, body)`` returns for
    the i-th request (from 0) and its JSON body. ``close_after`` closes the
    connection after each reply, and ``trickle`` writes each reply one byte
    per send; otherwise connections stay open until the client closes them.
    ``requests`` holds each raw request; ``connections`` counts the accepted
    connections.
    """

    def __init__(self, reply, close_after=False, trickle=False, host="127.0.0.1"):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.listener = socket.create_server((host, 0), family=family)
        self.listener.settimeout(0.05)  # so the accept loop sees the stop flag
        self.reply, self.close_after, self.trickle = reply, close_after, trickle
        self.requests: list[bytes] = []
        self.connections = 0
        self._open: list[socket.socket] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._accept, daemon=True)]

    @property
    def endpoint(self) -> str:
        host, port = self.listener.getsockname()[:2]
        return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            self._open.append(conn)
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        if self.trickle:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn, conn.makefile("rb") as rfile:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = rfile.readline()
                    if not line:
                        return  # the client closed the connection
                    head += line
                body = rfile.read(int(re.search(rb"Content-Length: (\d+)", head)[1]))
                self.requests.append(head + body)
                data = self.reply(len(self.requests) - 1, json.loads(body))
                try:
                    if self.trickle:
                        for i in range(len(data)):
                            conn.send(data[i:i + 1])
                    else:
                        conn.sendall(data)
                except OSError:  # the client gave up on an oversized reply
                    return
                if self.close_after:
                    return

    def __enter__(self) -> "RawServer":
        self._threads[0].start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for conn in self._open:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wakes a thread waiting for a request
            except OSError:  # already closed
                pass
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        self.listener.close()


def answer(head: str, payload: bytes = b"") -> bytes:
    """A reply: the lines of ``head`` ended by CRLF, a blank line, ``payload``."""
    return "".join(line + "\r\n" for line in head.splitlines()).encode() + b"\r\n" + payload


def echoed(body: dict) -> bytes:
    return json.dumps(echo_response(body)).encode("utf-8")


def replying(obj) -> bytes:
    """A well-formed HTTP/1.1 keep-alive reply whose JSON body is ``obj``."""
    payload = json.dumps(obj).encode("utf-8")
    return answer(f"HTTP/1.1 200 OK\nContent-Length: {len(payload)}", payload)


def sized(body: dict) -> bytes:
    """A well-formed HTTP/1.1 keep-alive reply echoing ``body``."""
    return replying(echo_response(body))


def spec_for(server, **overrides) -> ScorerSpec:
    defaults = dict(kind="http", endpoint=server.endpoint, model="stub-model",
                    timeout=5.0, retries=2, backoff=0.0, max_parallel=1)
    defaults.update(overrides)
    return ScorerSpec(**defaults)


class TestTokenLogprobs:
    def test_extracts_exact_continuation_logprobs(self):
        prompt = "Classify this.\nAnswer:"
        continuation = " topic-1"
        with StubScorerServer() as server:
            got = token_logprobs(spec_for(server), prompt, continuation)
        tokens, offsets = tokenize(prompt + continuation)
        expected = [fake_logprob(t) for t, off in zip(tokens, offsets) if off >= len(prompt)]
        assert got == expected
        assert len(got) == 1  # " topic-1" is one whitespace-prefixed chunk

    def test_multi_token_continuation_length(self):
        prompt = "Q:"
        continuation = " two tokens"
        with StubScorerServer() as server:
            got = token_logprobs(spec_for(server), prompt, continuation)
        assert len(got) == 2

    def test_request_shape_follows_echo_contract(self):
        with StubScorerServer() as server:
            token_logprobs(spec_for(server), "p:", " c")
            body = server.requests[0]
        assert body["_path"] == "/v1/completions"
        assert body["echo"] is True
        assert body["max_tokens"] == 0
        assert body["logprobs"] == 0
        assert body["model"] == "stub-model"
        assert body["prompt"] == "p: c"

    def test_api_key_sent_as_bearer(self, monkeypatch):
        monkeypatch.setenv("GICL_API_KEY", "sekrit")
        with StubScorerServer() as server:
            token_logprobs(spec_for(server), "p:", " c")
            assert server.requests[0]["_auth"] == "Bearer sekrit"

    def test_api_key_with_a_line_break_is_refused_before_any_attempt(self, monkeypatch):
        monkeypatch.setenv("GICL_API_KEY", "sekrit\r\nX-Injected: 1")
        with RawServer(lambda i, body: sized(body)) as server:
            client = HttpClient(spec_for(server))
            with pytest.raises(ValueError, match="line break"):
                client.token_logprobs("p:", " c")
            assert server.connections == 0 and server.requests == []
        assert client.attempts == 0

    def test_misaligned_boundary_is_reported_not_guessed(self):
        # continuation glued to the prompt's last word tokenizes across
        # the boundary; the client must refuse rather than approximate
        with StubScorerServer() as server:
            with pytest.raises(ScorerError, match="boundary"):
                token_logprobs(spec_for(server), "ends-with-word", "glued")

    def test_missing_logprobs_detected(self):
        def no_logprobs(body):
            return {"choices": [{"text": "", "logprobs": None}]}

        with StubScorerServer(respond=no_logprobs) as server:
            with pytest.raises(ScorerError, match="log-prob"):
                token_logprobs(spec_for(server), "p:", " c")

    def test_null_continuation_logprob_fails_without_a_retry(self):
        # an echo's first token has no log-probability; a continuation token must have one
        reply = replying({"choices": [{"text": "p: c", "logprobs": {
            "tokens": ["p:", " c"], "token_logprobs": [None, None], "text_offset": [0, 2]}}]})
        with RawServer(lambda i, body: reply) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="continuation token without a log-probability"):
                client.token_logprobs("p:", " c")
            assert len(server.requests) == 1
        assert client.attempts == 1

    @staticmethod
    def echo_of_p_c(logprobs, offsets) -> bytes:
        """A reply echoing "p: c" with these log-probability and offset lists."""
        return replying({"choices": [{"text": "p: c", "logprobs": {
            "tokens": ["p:", " c"], "token_logprobs": logprobs, "text_offset": offsets}}]})

    @pytest.mark.parametrize("logprobs, offsets", [
        ([None, math.nan], [0, 2]),
        ([None, math.inf], [0, 2]),
        ([None, "abc"], [0, 2]),
        ([None, True], [0, 2]),
        ([None, [-1.0]], [0, 2]),
        ([None, -1.5], [0, "2"]),
        (None, [0, 2]),
        ([None, -1.5], None),
        ([None, 0.5], [0, 2]),  # a probability above 1
        ([None, 800.0], [0, 2]),  # its perplexity would underflow to 0.0
    ], ids=["nan", "plus-inf", "string", "bool", "list", "string-offset", "null-logprobs",
            "null-offsets", "positive", "positive-past-float-range"])
    def test_an_unusable_echo_fails_without_a_retry(self, logprobs, offsets):
        reply = self.echo_of_p_c(logprobs, offsets)
        with RawServer(lambda i, body: reply) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="log-prob"):
                client.token_logprobs("p:", " c")
            assert len(server.requests) == 1
        assert client.attempts == 1

    @pytest.mark.parametrize("logprob", [0.5, 800.0])
    def test_a_positive_log_probability_leaves_no_cache_entry(self, clean_sbm, logprob):
        def positive(body):
            reply = echo_response(body)
            if body.get("max_tokens", 0) == 0:
                lps = reply["choices"][0]["logprobs"]["token_logprobs"]
                lps[-1] = logprob
            return reply

        cache = FeedbackCache()
        with StubScorerServer(respond=positive) as server:
            spec = spec_for(server, retries=2)
            client = HttpClient(spec)
            feedback = rank_candidates(clean_sbm, {0: [1, 2]}, spec, DEFAULT_TEMPLATE,
                                       cache, client=client)
            assert len(server.requests) == client.attempts == 2 * clean_sbm.n_classes
        assert feedback.by_query == {} and feedback.n_unscored == 2
        assert len(cache) == 0

    @pytest.mark.parametrize("logprob", [-math.inf, -3, -0.25, 0])
    def test_minus_infinity_and_integers_are_log_probabilities(self, logprob):
        reply = self.echo_of_p_c([None, logprob], [0, 2])
        with RawServer(lambda i, body: reply) as server:
            got = HttpClient(spec_for(server)).token_logprobs("p:", " c")
        assert got == [float(logprob)] and type(got[0]) is float

    def test_empty_continuation_rejected_before_transport(self):
        client = HttpClient(ScorerSpec(kind="http", endpoint="http://127.0.0.1:1", retries=0))
        with pytest.raises(ScorerError, match="non-empty"):
            client.token_logprobs("p", "")


class TestRetries:
    def test_faults_exhaust_retry_budget_then_raise(self):
        with StubScorerServer(fail_when=lambda body: True) as server:
            spec = spec_for(server, retries=3)
            client = HttpClient(spec)
            with pytest.raises(ScorerError, match="after 4 attempts"):
                client.token_logprobs("p:", " c")
            assert client.attempts == 4
            assert len(server.requests) == 4

    def test_recovery_after_transient_fault(self):
        state = {"n": 0}

        def fail_first_two(body):
            state["n"] += 1
            return state["n"] <= 2

        with StubScorerServer(fail_when=fail_first_two) as server:
            client = HttpClient(spec_for(server, retries=3))
            got = client.token_logprobs("p:", " c")
            assert len(got) == 1
            assert client.attempts == 3

    def test_client_error_is_not_retried(self):
        with StubScorerServer(fail_when=lambda body: 401) as server:
            client = HttpClient(spec_for(server, retries=3))
            with pytest.raises(ScorerError, match="HTTP 401"):
                client.token_logprobs("p:", " c")
            assert client.attempts == 1
            assert len(server.requests) == 1

    def test_rate_limit_is_retried(self):
        with StubScorerServer(fail_when=lambda body: 429) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="after 3 attempts.*HTTP 429"):
                client.token_logprobs("p:", " c")
            assert len(server.requests) == 3

    def test_connection_refused_raises_after_retries(self):
        spec = ScorerSpec(kind="http", endpoint="http://127.0.0.1:9", retries=1, backoff=0.0, timeout=0.5)
        client = HttpClient(spec)
        with pytest.raises(ScorerError, match="after 2 attempts"):
            client.token_logprobs("p:", " c")

    def test_non_json_success_body_is_retried(self):
        with StubScorerServer(respond=lambda body: b"<html>overloaded</html>") as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="after 3 attempts"):
                client.token_logprobs("p:", " c")
            assert client.attempts == 3
            assert len(server.requests) == 3

    def test_backoff_sleeps_are_jittered_within_bounds(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        seeded_state = random.getstate()
        with StubScorerServer(fail_when=lambda body: True) as server:
            client = HttpClient(spec_for(server, retries=3, backoff=0.1))
            with pytest.raises(ScorerError):
                client.token_logprobs("p:", " c")
        assert len(sleeps) == 3
        for attempt, slept in enumerate(sleeps):
            full = 0.1 * 2**attempt
            assert full / 2 <= slept < full, (attempt, slept)
        assert random.getstate() == seeded_state  # jitter draws from a private stream


class TestSpecValidation:
    def test_endpoint_without_http_scheme_rejected(self):
        with pytest.raises(ValueError, match="http:// or https://"):
            ScorerSpec(kind="http", endpoint="localhost:8000")

    @pytest.mark.parametrize("endpoint, message", [
        ("http://", "names no host"),
        ("http://:8080", "names no host"),
        ("https:///v1", "names no host"),
        ("http://h:99999", "bad port"),
    ])
    def test_endpoint_without_host_or_with_bad_port_rejected(self, endpoint, message):
        with pytest.raises(ValueError, match=message):
            ScorerSpec(kind="http", endpoint=endpoint)

    @pytest.mark.parametrize("endpoint, part", [
        ("http://user@127.0.0.1:9/api", "user name"),
        ("http://:pw@127.0.0.1:9/api", "password"),
        ("http://127.0.0.1:9/api?api-version=2024-01", "query"),
        ("http://127.0.0.1:9/api#frag", "fragment"),
        ("http://user:pw@127.0.0.1:9/api?api-version=2024-01#frag", "user name"),
    ])
    def test_endpoint_parts_no_request_carries_are_refused_by_name(self, endpoint, part):
        # the client sends POST {path}/v1/completions with Host: host[:port] and nothing else
        with pytest.raises(ValueError, match=f"^http scorer endpoint has a {part}, ") as caught:
            ScorerSpec(kind="http", endpoint=endpoint)
        assert "pw" not in str(caught.value)

    @pytest.mark.parametrize("field, value, message", [
        ("retries", -1, "retries must be >= 0"),
        ("backoff", -1.0, "backoff must be a finite number >= 0"),
        ("backoff", float("nan"), "backoff must be a finite number >= 0"),
        ("backoff", float("inf"), "backoff must be a finite number >= 0"),
        ("timeout", 0, "timeout must be a finite number > 0"),
        ("timeout", -1.0, "timeout must be a finite number > 0"),
        ("timeout", float("nan"), "timeout must be a finite number > 0"),
        ("timeout", float("inf"), "timeout must be a finite number > 0"),
        ("max_parallel", 0, "max_parallel must be >= 1"),
        ("retries", 2.5, "retries must be an integer, got 2.5"),
        ("retries", True, "retries must be an integer, got True"),
        ("max_parallel", True, "max_parallel must be an integer, got True"),
        ("max_parallel", 2.5, "max_parallel must be an integer, got 2.5"),
        ("timeout", "30", "timeout must be a number, got '30'"),
        ("backoff", "0.1", "backoff must be a number, got '0.1'"),
        ("model", 5, "model must be a string, got 5"),
    ])
    def test_unusable_retry_and_pool_settings_rejected(self, field, value, message):
        with pytest.raises((TypeError, ValueError), match=message):
            ScorerSpec(kind="http", endpoint="http://127.0.0.1:1", **{field: value})

    def test_numbers_are_stored_as_plain_int_and_float(self):
        spec = ScorerSpec(kind="http", endpoint="http://127.0.0.1:1", timeout=30, backoff=0,
                          retries=np.int64(2), max_parallel=np.uint8(4))
        assert [type(v) for v in (spec.timeout, spec.backoff, spec.retries, spec.max_parallel)] == [
            float, float, int, int]

    def test_boundary_settings_accepted(self):
        ScorerSpec(kind="http", endpoint="http://127.0.0.1:1", retries=0, backoff=0.0,
                   timeout=0.001, max_parallel=1)


class TestConnections:
    def test_sequential_calls_share_one_connection(self):
        with StubScorerServer(keep_alive=True) as server:
            client = HttpClient(spec_for(server))
            for i in range(5):
                client.token_logprobs(f"p{i}:", " c")
            assert server.connections == 1
            assert client.attempts == client.calls == 5

    def test_fan_out_pools_in_turn_reuse_connections(self, clean_sbm):
        # each rank_candidates call runs its own thread pool; idle connections
        # outlive it, so two calls open no more than one pool's worth
        with StubScorerServer(keep_alive=True) as server:
            spec = spec_for(server, max_parallel=3)
            client = HttpClient(spec)
            for query in (0, 1):
                rank_candidates(clean_sbm, {query: [2, 3, 4, 5, 6, 7]}, spec, DEFAULT_TEMPLATE,
                                FeedbackCache(), client=client)
            assert len(server.requests) == 2 * 6 * clean_sbm.n_classes
            assert 1 <= server.connections <= 3
            assert client.attempts == client.calls

    def test_connection_closed_after_response_is_reopened_without_an_attempt(self):
        with StubScorerServer() as server:  # HTTP/1.0: the server closes after each response
            client = HttpClient(spec_for(server))
            for i in range(4):
                client.token_logprobs(f"p{i}:", " c")
            assert server.connections == 4
            assert client.attempts == client.calls == 4

    def test_idle_connection_closed_by_server_is_not_reused(self):
        with StubScorerServer(keep_alive=True, idle_timeout=0.1) as server:
            client = HttpClient(spec_for(server))
            client.token_logprobs("p0:", " c")
            time.sleep(0.5)  # the server drops the idle connection
            client.token_logprobs("p1:", " c")
            assert server.connections == 2
            assert client.attempts == client.calls == 2

    def test_https_refuses_an_untrusted_certificate(self, tmp_path):
        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("needs the openssl command to make a self-signed certificate")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run([openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
                        "-subj", "/CN=localhost", "-keyout", str(key), "-out", str(cert)],
                       check=True, capture_output=True)
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(cert, key)
        server = StubScorerServer()
        server._server.socket = tls.wrap_socket(server._server.socket, server_side=True)
        with server:
            endpoint = server.endpoint.replace("http://127.0.0.1", "https://localhost")
            client = HttpClient(ScorerSpec(kind="http", endpoint=endpoint, retries=1,
                                           backoff=0.0, timeout=5.0))
            with pytest.raises(ScorerError, match="certificate verify failed"):
                client.token_logprobs("p:", " c")
            assert client.attempts == 2
            assert server.requests == []


class TestReplyReader:
    """Each attempt is one write; replies are read by the client's own HTTP/1.1 reader."""

    EXPECTED = [fake_logprob(" c")]

    def test_one_sendall_per_attempt(self, monkeypatch):
        sends = []
        original = socket.socket.sendall
        main = threading.main_thread()

        def counting(sock, data, *args):
            if threading.current_thread() is main:  # the stub's threads send too
                sends.append(bytes(data))
            return original(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting)
        state = {"n": 0}

        def fail_first(body):
            state["n"] += 1
            return state["n"] == 1

        with StubScorerServer(keep_alive=True, fail_when=fail_first) as server:
            client = HttpClient(spec_for(server))
            for i in range(3):
                assert client.token_logprobs(f"p{i}:", " c") == self.EXPECTED
        assert client.attempts == 4 and client.calls == 3
        assert len(sends) == 4
        for data, prompt in zip(sends, ("p0: c", "p0: c", "p1: c", "p2: c")):
            head, body = data.split(b"\r\n\r\n", 1)
            assert head.startswith(b"POST /v1/completions HTTP/1.1\r\n")
            assert json.loads(body)["prompt"] == prompt

    def test_chunked_body(self):
        def chunked(i, body):
            payload = echoed(body)
            parts = (payload[:7], payload[7:])
            chunks = b"".join(b"%x;name=value\r\n%s\r\n" % (len(p), p) for p in parts)
            return answer("HTTP/1.1 200 OK\nTransfer-Encoding: chunked",
                          chunks + b"0\r\nX-Trailer: 1\r\n\r\n")

        with RawServer(chunked) as server:
            client = HttpClient(spec_for(server))
            for i in range(2):
                assert client.token_logprobs(f"p{i}:", " c") == self.EXPECTED
            assert server.connections == 1
        assert client.attempts == client.calls == 2

    def test_reply_written_one_byte_per_send(self):
        with RawServer(lambda i, body: sized(body), trickle=True) as server:
            client = HttpClient(spec_for(server))
            for i in range(2):
                assert client.token_logprobs(f"p{i}:", " c") == self.EXPECTED
            assert server.connections == 1
        assert client.attempts == client.calls == 2

    @pytest.mark.parametrize("head, reused", [
        ("HTTP/1.0 200 OK", False),
        ("HTTP/1.1 200 OK\nconnection: Close", False),
        ("HTTP/1.0 200 OK\nConnection: keep-alive", True),
        ("HTTP/1.1 200 OK", True),
    ])
    def test_reply_decides_whether_the_connection_is_reused(self, head, reused):
        def reply(i, body):
            payload = echoed(body)
            return answer(f"{head}\nContent-Length: {len(payload)}", payload)

        with RawServer(reply) as server:  # the server itself never closes
            client = HttpClient(spec_for(server))
            for i in range(3):
                assert client.token_logprobs(f"p{i}:", " c") == self.EXPECTED
            assert server.connections == (1 if reused else 3)
        assert client.attempts == client.calls == 3

    def test_close_delimited_body(self):
        def reply(i, body):
            return answer("HTTP/1.1 200 OK\nContent-Type: application/json", echoed(body))

        with RawServer(reply, close_after=True) as server:
            client = HttpClient(spec_for(server))
            for i in range(2):
                assert client.token_logprobs(f"p{i}:", " c") == self.EXPECTED
            assert server.connections == 2
        assert client.attempts == client.calls == 2

    def test_interim_reply_is_skipped(self):
        interim = b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n"
        with RawServer(lambda i, body: interim + sized(body)) as server:
            client = HttpClient(spec_for(server, retries=2))
            assert client.token_logprobs("p:", " c") == self.EXPECTED
            assert len(server.requests) == 1
        assert client.attempts == client.calls == 1

    def test_no_content_reply_has_an_empty_body_and_is_not_retried(self):
        # the server keeps the connection open: reading to its close would time out
        with RawServer(lambda i, body: answer("HTTP/1.1 204 No Content")) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match=r"^HTTP 204: $"):
                client.token_logprobs("p:", " c")
            assert len(server.requests) == 1
        assert client.attempts == 1

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 OK\r\n\r\n",
        b"ICY 200 OK\r\n\r\n",
        b"HTTP/2 200\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    ])
    def test_malformed_reply_is_retried_then_raises(self, reply):
        with RawServer(lambda i, body: reply) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="after 3 attempts: malformed"):
                client.token_logprobs("p:", " c")
            assert len(server.requests) == 3
        assert client.attempts == 3

    @pytest.mark.parametrize("headers, message", [
        ("".join(f"X-H{i}: v\r\n" for i in range(100)), "more than 100 headers"),
        ("X-Big: " + "v" * 65536 + "\r\n", "longer than 65536 bytes"),
    ])
    def test_oversized_header_block_is_a_transport_error(self, headers, message):
        reply = b"HTTP/1.1 200 OK\r\n" + headers.encode() + b"Content-Length: 2\r\n\r\n{}"
        with RawServer(lambda i, body: reply) as server:
            client = HttpClient(spec_for(server, retries=1))
            with pytest.raises(ScorerError, match=f"after 2 attempts: reply (has|line) {message}"):
                client.complete("p:")
            assert len(server.requests) == 2

    def test_a_hundred_headers_are_accepted(self):
        def reply(i, body):
            payload = echoed(body)
            extra = "".join(f"\nX-H{j}: v" for j in range(99))
            return answer(f"HTTP/1.1 200 OK{extra}\nContent-Length: {len(payload)}", payload)

        with RawServer(reply) as server:
            client = HttpClient(spec_for(server, retries=0))
            assert client.token_logprobs("p:", " c") == self.EXPECTED

    def test_server_closing_mid_body_is_retried(self):
        def reply(i, body):
            whole = sized(body)
            return whole[:-20] if i == 0 else whole

        with RawServer(reply, close_after=True) as server:
            client = HttpClient(spec_for(server, retries=2))
            assert client.token_logprobs("p:", " c") == self.EXPECTED
            assert server.connections == 2
        assert client.attempts == 2 and client.calls == 1

    def test_server_closing_inside_a_line_is_retried_then_raises(self):
        with RawServer(lambda i, body: b"HTTP/1.1 200 OK\r\nContent-Len", close_after=True) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="after 3 attempts: connection closed before"):
                client.token_logprobs("p:", " c")
            assert server.connections == len(server.requests) == 3
        assert client.attempts == 3

    def test_chunk_without_a_line_break_after_it_is_retried_then_raises(self):
        reply = answer("HTTP/1.1 200 OK\nTransfer-Encoding: chunked", b"2\r\n{}X\r\n0\r\n\r\n")
        with RawServer(lambda i, body: reply) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="after 3 attempts: chunk not followed by a line"):
                client.token_logprobs("p:", " c")
            assert len(server.requests) == 3
        assert client.attempts == 3

    def test_host_of_an_ipv6_endpoint_is_bracketed(self):
        if not socket.has_ipv6:
            pytest.skip("no IPv6 support")
        try:
            server = RawServer(lambda i, body: sized(body), host="::1")
        except OSError:
            pytest.skip("no IPv6 loopback address")
        with server:
            assert server.endpoint.startswith("http://[::1]:")
            client = HttpClient(spec_for(server))
            assert client.token_logprobs("p:", " c") == self.EXPECTED
            port = server.listener.getsockname()[1]
            assert f"\r\nHost: [::1]:{port}\r\n".encode() in server.requests[0]

    @pytest.mark.parametrize("endpoint, request_line, host", [
        ("http://example.com", "/v1/completions", "example.com"),
        ("http://example.com:80/", "/v1/completions", "example.com"),
        ("https://Example.com:443/api/", "/api/v1/completions", "example.com"),
        ("http://example.com:8080", "/v1/completions", "example.com:8080"),
        ("https://[::1]", "/v1/completions", "[::1]"),
        ("http://[::1]:8000/base", "/base/v1/completions", "[::1]:8000"),
    ])
    def test_request_head(self, endpoint, request_line, host):
        request = HttpClient(ScorerSpec(kind="http", endpoint=endpoint))._request(b"{}")
        head, body = request.split(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[:2] == [f"POST {request_line} HTTP/1.1", f"Host: {host}"]
        assert "Content-Length: 2" in lines and body == b"{}"


class TestCompletion:
    def test_complete_returns_text(self):
        with StubScorerServer() as server:
            client = HttpClient(spec_for(server))
            assert client.complete("say something\nAnswer:") == " stub-answer"
            body = server.requests[0]
            assert body["max_tokens"] == 16
            assert body["temperature"] == 0

    def test_completion_without_text_fails_without_a_retry(self):
        with RawServer(lambda i, body: replying({"choices": [{"index": 0}]})) as server:
            client = HttpClient(spec_for(server, retries=2))
            with pytest.raises(ScorerError, match="lacks completion text"):
                client.complete("p:")
            assert len(server.requests) == 1
        assert client.attempts == 1


class TestCollectionWithFaults:
    def test_per_pair_failures_do_not_abort(self, clean_sbm):
        # every request mentioning one candidate's text fails permanently;
        # the others score fine and the failed pair is reported
        bad = 3
        bad_text = clean_sbm.texts[bad]

        def fail_for_bad(body):
            return bad_text in body["prompt"]

        with StubScorerServer(fail_when=fail_for_bad) as server:
            spec = spec_for(server, retries=1)
            client = make_client(spec)
            feedback = rank_candidates(
                clean_sbm, {0: [1, 2, bad]}, spec, DEFAULT_TEMPLATE, FeedbackCache(), client=client
            )
        assert feedback.n_unscored == 1  # the bad candidate
        assert set(feedback.by_query[0].example_ids) == {1, 2}
        assert len(feedback.by_query[0].utilities) == 2

    def test_parallel_collection_matches_serial(self, clean_sbm):
        cands = [1, 2, 3, 4, 5]
        with StubScorerServer() as server:
            serial = rank_candidates(
                clean_sbm, {0: cands}, spec_for(server, max_parallel=1),
                DEFAULT_TEMPLATE, FeedbackCache(),
            )
        with StubScorerServer() as server:
            parallel = rank_candidates(
                clean_sbm, {0: cands}, spec_for(server, max_parallel=4),
                DEFAULT_TEMPLATE, FeedbackCache(),
            )
        assert serial == parallel


class TestRoundOverHttp:
    """One feedback round over the stub: one thread pool, any thread count."""

    @staticmethod
    def collect(graph, split, spec, cache):
        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=3)
        params = init_params(cfg.encoder_config(graph), seed=0)
        return collect_feedback_round(graph, split, params, cfg, spec, DEFAULT_TEMPLATE, cache)

    def test_one_thread_pool_per_round(self, clean_sbm, clean_split, monkeypatch):
        pools = []

        class CountingPool(scoring_mod.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scoring_mod, "ThreadPoolExecutor", CountingPool)
        with StubScorerServer(keep_alive=True) as server:
            feedback = self.collect(clean_sbm, clean_split, spec_for(server, max_parallel=4),
                                    FeedbackCache())
        assert len(feedback.by_query) >= 2
        assert len(pools) == 1

    def test_thread_count_changes_no_result(self, clean_sbm, clean_split, tmp_path):
        # one example's prompts always fail, so failed pairs are compared too; with
        # 4 threads (more than cores) and a short switch interval, the workers
        # append to one cache file at once and must lose or tear no record
        bad_text = clean_sbm.texts[int(clean_split.labeled_ids[1])]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for max_parallel in (1, 4):
                path = tmp_path / f"cache-{max_parallel}.jsonl"
                cache = FeedbackCache(path)
                with StubScorerServer(fail_when=lambda body: bad_text in body["prompt"]) as server:
                    feedback = self.collect(clean_sbm, clean_split,
                                            spec_for(server, max_parallel=max_parallel), cache)
                cache.close()
                lines = path.read_text().splitlines()
                assert len(lines) == len(cache) == clean_sbm.n_classes * feedback.n_scored
                records = [json.loads(line) for line in lines]  # none torn
                assert len({r["k"] for r in records}) == len(records)
                # keys differ: the scorer id covers the stub's port
                values = sorted((r["q"], r["e"], r["c"], r["ppl"]) for r in records)
                results.append((len(server.requests), feedback, values))
        finally:
            sys.setswitchinterval(interval)
        assert results[0][1].n_unscored > 0
        assert results[0] == results[1]


class TestStrategiesOverHttp:
    def test_npl_request_count_does_not_depend_on_thread_count(self):
        # one zero-shot request per distinct neighbour of a test node plus one
        # answer per test node, however many threads send them
        graph = synth_sbm(n_nodes=200, n_classes=4, p_in=0.1, p_out=0.01, d=8, noise=0.3, seed=3)
        split = sample_label_fraction(graph, 0.3, seed=1)
        distinct = {int(v) for q in split.test_ids for v in neighbors(graph, int(q))}
        expected = len(distinct) + len(split.test_ids)
        for max_parallel in (1, 4):
            with StubScorerServer() as server:
                spec = spec_for(server, max_parallel=max_parallel)
                rows = run_strategy("npl", graph, split, spec, DEFAULT_TEMPLATE)
                assert len(server.requests) == expected, max_parallel
            assert len(rows) == len(split.test_ids)

    def test_single_thread_and_vote_strategies_build_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(scoring_mod, "ThreadPoolExecutor", no_pool)
        graph = synth_sbm(n_nodes=30, n_classes=3, p_in=0.2, p_out=0.02, d=8, noise=0.3, seed=3)
        split = sample_label_fraction(graph, 0.3, seed=1)
        with StubScorerServer(keep_alive=True) as server:
            spec = spec_for(server, max_parallel=4)
            npl = run_strategy("npl", graph, split, spec, DEFAULT_TEMPLATE, single_thread=True)
            mv = run_strategy("mv_knn", graph, split, spec, DEFAULT_TEMPLATE, k_icl=3)
        assert len(npl) == len(mv) == len(split.test_ids)

    def test_k_icl_sweep_uses_the_pool_and_matches_one_thread(self, monkeypatch):
        pools = []

        class CountingPool(scoring_mod.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scoring_mod, "ThreadPoolExecutor", CountingPool)
        graph = synth_sbm(n_nodes=30, n_classes=3, p_in=0.2, p_out=0.02, d=8, noise=0.3, seed=4)
        split = sample_label_fraction(graph, 0.3, seed=1)
        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=2, k_feedback=2)
        values = [2, 4]
        results = {}
        for max_parallel in (1, 4):
            pools.clear()
            with StubScorerServer(respond=answer_first_label, keep_alive=True) as server:
                results[max_parallel] = sweep("k_icl", values, graph, split,
                                              spec_for(server, max_parallel=max_parallel),
                                              DEFAULT_TEMPLATE, cfg)
            # one pool per feedback round and one per inference run, or none at all
            assert len(pools) == (cfg.rounds + len(values) if max_parallel > 1 else 0)
        assert all(r["error"] == "" for r in results[1])
        assert results[1] == results[4]
