"""LLM feedback quantification: per-class perplexity, utility scores, ranking.

Two scorer kinds sit behind one client interface:

* ``http`` — an OpenAI-style completions endpoint. Perplexities come from a
  single request per (prompt, continuation) with prompt echo and token
  log-probabilities enabled and zero generated tokens; the continuation's
  log-probs are the echoed tokens at or beyond the prompt/continuation
  character boundary. The API key is read from the ``GICL_API_KEY``
  environment variable and sent as a bearer token. Requests go over pooled
  keep-alive sockets, each attempt in one write, and a small HTTP/1.1 reader
  parses the replies; proxy settings and ``.netrc`` are not read.

* ``oracle`` — a deterministic stand-in for desk-scale tests. Its negative
  log-likelihood for a class is a closed-form function of how much the ICL
  example helps the query: an example with the query's true label and
  cosine-similar features makes the true class cheap, so utility grows
  monotonically with that help.

Every perplexity is cached in an append-only JSONL file keyed by
(scorer id, template hash, graph content hash, query, example, class);
warm-cache collection issues zero scorer calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import select
import socket
import ssl
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, ClassVar, Sequence
from urllib.parse import urlsplit

import numpy as np

from .graphstore import UNLABELED, TagGraph, check_field_types
from .prompts import PromptTemplate, examples_from_ids, icl_request
from .retrieval import _normalize_rows


class ScorerError(Exception):
    """Transport failure, missing log-probs, or unalignable tokenization."""


@dataclass(frozen=True)
class ScorerSpec:
    kind: str = "oracle"  # "http" | "oracle"
    endpoint: str = ""
    model: str = ""
    timeout: float = 30.0
    max_parallel: int = 8
    retries: int = 3
    backoff: float = 0.25
    # the oracle's closed form (oracle_nll); part of scorer_id, so cache keys name them
    oracle_alpha: ClassVar[float] = 2.0
    oracle_base: ClassVar[float] = 0.1

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in ("http", "oracle"):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "oracle":
            # the oracle reads neither, so they name no cache key or manifest
            object.__setattr__(self, "endpoint", "")
            object.__setattr__(self, "model", "")
        else:
            if not self.endpoint:
                raise ValueError("http scorer needs an endpoint")
            url = urlsplit(self.endpoint)
            if url.scheme not in ("http", "https"):
                raise ValueError("http scorer endpoint must be an http:// or https:// URL, "
                                 f"got {self.endpoint!r}")
            if not url.hostname:
                raise ValueError(f"http scorer endpoint names no host: {self.endpoint!r}")
            try:
                url.port  # urlsplit checks the port only when it is read
            except ValueError:
                raise ValueError(f"http scorer endpoint has a bad port: {self.endpoint!r}") from None
        if self.retries < 0:
            raise ValueError(f"scorer retries must be >= 0, got {self.retries}")
        if not (math.isfinite(self.backoff) and self.backoff >= 0):
            raise ValueError(f"scorer backoff must be a finite number >= 0, got {self.backoff}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"scorer timeout must be a finite number > 0, got {self.timeout}")
        if self.max_parallel < 1:
            raise ValueError(f"scorer max_parallel must be >= 1, got {self.max_parallel}")

    @property
    def scorer_id(self) -> str:
        payload = f"{self.kind}|{self.endpoint}|{self.model}|{self.oracle_alpha}|{self.oracle_base}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RankedSet:
    """One query's candidates ordered by descending utility (ties by id)."""

    query_id: int
    example_ids: tuple[int, ...]
    utilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.example_ids) != len(self.utilities):
            raise ValueError("example_ids and utilities must have equal length")

    def __len__(self) -> int:
        return len(self.example_ids)


def ppl(logprobs: Sequence[float]) -> float:
    """exp(-mean(logprobs)) over continuation tokens; ``inf`` past float range."""
    if len(logprobs) == 0:
        raise ValueError("ppl needs at least one token log-probability")
    try:
        return math.exp(-sum(logprobs) / len(logprobs))
    except OverflowError:
        return math.inf


def utility(ppl_by_class: Sequence[float] | np.ndarray, gold_class: int) -> float | np.ndarray:
    """Normalized inverse perplexity of the gold class (a share in (0,1)); given a
    (candidates, classes) matrix, each row's share, bit for bit as for the row alone."""
    ppls = np.asarray(ppl_by_class, dtype=np.float64)
    if not 0 <= gold_class < ppls.shape[-1]:
        raise ValueError(f"gold_class {gold_class} out of range for {ppls.shape[-1]} classes")
    if np.any(ppls <= 0) or np.any(np.isnan(ppls)):
        raise ValueError("perplexities must be positive")
    inv = 1.0 / ppls  # an infinite perplexity gives 0
    denom = inv.sum(axis=-1)
    if np.any(denom == 0):
        raise ValueError("all perplexities are infinite")
    share = inv[..., gold_class] / denom
    return float(share) if share.ndim == 0 else share


# ---------------------------------------------------------------------------
# synthetic oracle


def oracle_help(
    query_features: np.ndarray,
    query_class: int,
    example_features: np.ndarray,
    example_class: int,
) -> float:
    """How much one example helps: its label matches and features align.

    Features are expected unit-normalized, so the cosine is a plain dot
    product, clipped at zero.
    """
    if example_class != query_class:
        return 0.0
    return max(0.0, float(np.dot(query_features, example_features)))


def synthetic_oracle_ppl(
    query_features: np.ndarray,
    query_class: int,
    example_features: np.ndarray,
    example_class: int,
    class_index: int,
) -> float:
    """Closed-form perplexity of one class given one example: exp(oracle_nll)."""
    h = oracle_help(query_features, query_class, example_features, example_class)
    return math.exp(oracle_nll(h, class_index == query_class))


def oracle_nll(help_: float, is_true_class: bool) -> float:
    """NLL(c) = base + alpha * (1 - h * [c == true class]), with help
    h = [example label == true label] * max(0, cos(query, example)) and
    ScorerSpec's oracle_alpha and oracle_base.

    A fully helpful example drives the true class NLL down to ``base``
    while wrong classes stay at base + alpha.
    """
    return ScorerSpec.oracle_base + ScorerSpec.oracle_alpha * (1.0 - (help_ if is_true_class else 0.0))


# ---------------------------------------------------------------------------
# response cache


def key_prefix(scorer_id: str, template_hash: str, graph_hash: str):
    """A SHA-256 state fed the scope part of every key: "scorer_id|template_hash|graph_hash|"."""
    return hashlib.sha256(f"{scorer_id}|{template_hash}|{graph_hash}|".encode("utf-8"))


def prefixed_key(prefix, query_id: int, example_id: int, class_index: int) -> str:
    """The key of one request under a ``key_prefix``, which is left unchanged."""
    digest = prefix.copy()
    digest.update(f"{query_id}|{example_id}|{class_index}".encode("utf-8"))
    return digest.hexdigest()[:24]


def _json_float(x: float) -> str:
    """``json.dumps(x)`` for a float, without the encoder."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


class FeedbackCache:
    """Append-only JSONL perplexity cache, content-addressed by request key.

    One writer at a time (appends are serialized through a lock); reads are
    plain dict lookups. Pass path=None for a purely in-memory cache. A torn
    last line (no newline: its writer died) is skipped; the first append cuts
    it off. The first append opens one handle that later appends reuse; each
    ``put`` appends one pair's new records in one write. ``close`` releases
    the handle, and so does collecting the cache.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._data: dict[str, float] = {}
        self._lock = threading.Lock()
        self._torn_at: int | None = None  # file offset of a torn last line
        self._fh = None  # append handle, opened by the first put
        if self.path is not None and self.path.is_file():
            with open(self.path, encoding="utf-8") as fh:
                while lines := fh.readlines(1 << 16):  # blocks of ~450 records stay under gc's 700
                    if not lines[-1].endswith("\n"):
                        torn = lines.pop()
                        self._torn_at = self.path.stat().st_size - len(torn.encode("utf-8"))
                    lines = list(filter(str.strip, lines))
                    records = json.loads("[" + ",".join(lines) + "]")
                    if len(records) != len(lines):
                        raise ValueError(f"{self.path}: a line does not hold one record")
                    self._data.update(zip(map(itemgetter("k"), records),
                                          map(float, map(itemgetter("ppl"), records))))

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> float | None:
        return self._data.get(key)

    def put(self, scorer_id: str, template_hash: str, q: int, e: int,
            records: Sequence[tuple[str, int, float]]) -> None:
        """Cache one (query, example) pair's (``prefixed_key``, class, perplexity) records.

        A key already cached keeps its value. The new records go to the
        file in one write, flushed before ``put`` returns; each line is
        ``json.dumps`` of its record.
        """
        with self._lock:
            keyed = [(key, c, float(value)) for key, c, value in records if key not in self._data]
            for key, _, value in keyed:
                self._data[key] = value
            if self.path is None or not keyed:
                return
            tail = f', "sid": {json.dumps(scorer_id)}, "th": {json.dumps(template_hash)}}}\n'
            lines = "".join(f'{{"k": "{key}", "q": {q}, "e": {e}, "c": {c}, '
                            f'"ppl": {_json_float(value)}{tail}' for key, c, value in keyed)
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
                self._closer = weakref.finalize(self, self._fh.close)
                if self._torn_at is not None:
                    self._fh.truncate(self._torn_at)  # appends still go to the (new) end
                    self._torn_at = None
            self._fh.write(lines)
            self._fh.flush()

    def close(self) -> None:
        """Close the append handle; a later put opens a new one."""
        with self._lock:
            if self._fh is not None:
                self._closer.detach()
                self._fh.close()
                self._fh = None


# ---------------------------------------------------------------------------
# scorer clients


class OracleClient:
    """Deterministic LLM stand-in driven by graph features and labels.

    Needs call metadata (query id, the examples as (node id, class shown)
    pairs, and the class asked about) because its closed form is a function
    of node identity, not prompt text. An example helps through the label its
    prompt shows, which for a pseudo-labeled neighbour need not be its true
    one.
    """

    def __init__(self, graph: TagGraph):
        self.graph = graph
        self.calls = 0
        self._unit = _normalize_rows(graph.features)

    def _helps(self, meta: dict):
        """Count the call; the query's true class and, lazily, each example's help."""
        try:
            q, examples = meta["query_id"], meta["examples"]
        except (KeyError, TypeError):
            raise ScorerError("oracle scorer needs query_id/examples metadata") from None
        self.calls += 1
        gold = int(self.graph.labels[q])
        return gold, (oracle_help(self._unit[q], gold, self._unit[e], c) for e, c in examples)

    def token_logprobs(self, prompt: str, continuation: str, meta: dict | None = None) -> list[float]:
        """The class's closed-form NLL; a wrong class's does not read the help, so it is not computed."""
        if not continuation:
            raise ScorerError("continuation must be non-empty")
        if not meta or "class_index" not in meta:
            raise ScorerError("oracle scorer needs class_index metadata")
        gold, helps = self._helps(meta)
        if meta["class_index"] != gold:
            return [-oracle_nll(0.0, False)]
        return [-oracle_nll(max(helps, default=0.0), True)]

    def complete(self, prompt: str, meta: dict | None = None) -> str:
        """The least-NLL class: gold once an example lowers its NLL, else the first (all tie)."""
        gold, helps = self._helps(meta)
        unhelped = oracle_nll(0.0, True)
        if gold != UNLABELED and any(oracle_nll(h, True) < unhelped for h in helps):
            return self.graph.label_vocab[gold]
        return self.graph.label_vocab[0]


# caps on a reply's head: bytes per status or header line, and header lines
MAX_LINE = 65536
MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([1-9]\d\d)(?:[ \t][^\r\n]*)?\r?\n")
_HEADER_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*(.*?)[ \t]*\r?\n")
_CHUNK_LINE = re.compile(rb"([0-9A-Fa-f]{1,16})(?:;[^\r\n]*)?\r?\n")
_BLANK_LINES = (b"\r\n", b"\n")


class HttpReplyError(OSError):
    """A reply that is not well-formed HTTP/1.x or that ends early; an OSError,
    so it is retried like any other transport error."""


def _read_line(rfile) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HttpReplyError(f"reply line longer than {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise HttpReplyError("connection closed before the reply was complete")
    return line


def _read_exact(rfile, n: int) -> bytes:
    data = rfile.read(n)
    if len(data) < n:
        raise HttpReplyError(f"reply body ended after {len(data)} of {n} bytes")
    return data


def _read_head(rfile) -> tuple[bool, int, dict[bytes, bytes]]:
    """(HTTP/1.1?, status, {lower-case header name: value}) of one reply;
    repeated headers are joined with commas."""
    line = _read_line(rfile)
    status_line = _STATUS_LINE.fullmatch(line)
    if status_line is None:
        raise HttpReplyError(f"malformed status line {line[:80]!r}")
    headers: dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in _BLANK_LINES:
            return status_line[1] == b"1", int(status_line[2]), headers
        header = _HEADER_LINE.fullmatch(line)
        if header is None:
            raise HttpReplyError(f"malformed header line {line[:80]!r}")
        name = header[1].lower()
        headers[name] = headers[name] + b", " + header[2] if name in headers else header[2]
    raise HttpReplyError(f"reply has more than {MAX_HEADERS} headers")


def _read_chunked(rfile) -> bytes:
    parts = []
    while True:
        line = _read_line(rfile)
        size = _CHUNK_LINE.fullmatch(line)
        if size is None:
            raise HttpReplyError(f"malformed chunk size line {line[:80]!r}")
        n = int(size[1], 16)
        if n == 0:
            break
        parts.append(_read_exact(rfile, n))
        if _read_line(rfile) not in _BLANK_LINES:
            raise HttpReplyError("chunk not followed by a line break")
    while _read_line(rfile) not in _BLANK_LINES:  # trailer fields, unused
        pass
    return b"".join(parts)


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """One HTTP/1.x reply from a socket's buffered file: (status, body,
    whether the connection can carry another request).

    The body is delimited by chunked transfer coding, by Content-Length, or
    else by the server closing the connection; interim 1xx replies are skipped.
    """
    http11, status, headers = _read_head(rfile)
    while status < 200:
        http11, status, headers = _read_head(rfile)
    tokens = {t.strip().lower() for t in headers.get(b"connection", b"").split(b",")}
    reusable = b"close" not in tokens and (http11 or b"keep-alive" in tokens)
    if status in (204, 304):
        return status, b"", reusable
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(rfile), reusable
    length = headers.get(b"content-length")
    if length is not None:
        if not length.isdigit():
            raise HttpReplyError(f"malformed Content-Length {length[:80]!r}")
        return status, _read_exact(rfile, int(length)), reusable
    return status, rfile.read(), False


class _Connection:
    """One open socket and the buffered file its replies are read from."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _close_all(connections: list[_Connection]) -> None:
    for conn in connections:
        conn.close()


class HttpClient:
    """Completions-API scorer with bounded retries and echo-logprob parsing.

    Transport errors (including malformed or cut-short replies), 429 and 5xx
    are retried with jittered exponential backoff, as is a 200 whose body is
    not JSON; any other non-200 status cannot succeed on a resend and fails at
    once.

    Each attempt is one write of the request head and body on a keep-alive
    socket (TCP_NODELAY set, TLS for https). Idle sockets wait in a
    lock-guarded list shared by every thread, so they outlive the short-lived
    pools of ``fan_out``; a socket that fails mid-request, or whose reply
    ends the connection, is closed. Safe to share across the configured
    number of worker threads; the call counters are lock-protected so tests
    can assert on them exactly.
    """

    def __init__(self, spec: ScorerSpec):
        self.spec = spec
        self.calls = 0
        self.attempts = 0
        self._count_lock = threading.Lock()
        url = urlsplit(spec.endpoint)
        default_port = 443 if url.scheme == "https" else 80
        self._host = url.hostname
        self._port = url.port if url.port is not None else default_port
        host = self._host if self._host.isascii() else self._host.encode("idna").decode("ascii")
        if ":" in host:
            host = f"[{host}]"  # an IPv6 literal
        if self._port != default_port:
            host = f"{host}:{self._port}"
        path = url.path.rstrip("/") + "/v1/completions"
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
                      "Content-Type: application/json\r\n")
        # one context for every connection; it verifies the certificate and the hostname
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()
        # callers never close a client, so its idle connections close when it is collected
        weakref.finalize(self, _close_all, self._idle)
        self._jitter = random.Random()  # private, so no seeded stream moves

    def _bump(self, attr: str) -> None:
        with self._count_lock:
            setattr(self, attr, getattr(self, attr) + 1)

    def _request(self, payload: bytes) -> bytes:
        """The whole POST of a JSON ``payload``: request line, headers and body."""
        head = self._head + f"Content-Length: {len(payload)}\r\n"
        key = os.environ.get("GICL_API_KEY")
        if key:
            if "\r" in key or "\n" in key:
                raise ValueError("GICL_API_KEY must not contain a line break")
            head += f"Authorization: Bearer {key}\r\n"
        return (head + "\r\n").encode("latin-1") + payload

    def _connection(self) -> _Connection:
        """An idle connection the server has not closed, or a new one."""
        while True:
            with self._idle_lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            # an idle socket that reads as ready holds the server's close (or
            # bytes nobody asked for): sending on it would waste an attempt
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if not poller.poll(0):
                return conn
            conn.close()
        sock = socket.create_connection((self._host, self._port), timeout=self.spec.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _send(self, request: bytes) -> tuple[int, bytes]:
        """One attempt, sent in one write; returns (status, whole body). Raises OSError."""
        conn = self._connection()
        try:
            conn.sock.sendall(request)
            status, data, reusable = _read_reply(conn.rfile)
        except BaseException:
            conn.close()
            raise
        if reusable:
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, data

    def _post(self, body: dict) -> dict:
        request = self._request(json.dumps(body).encode("utf-8"))
        last_error: Exception | None = None
        for attempt in range(self.spec.retries + 1):
            self._bump("attempts")
            try:
                status, data = self._send(request)
            except OSError as exc:
                last_error = exc
            else:
                if status == 200:
                    try:
                        return json.loads(data)
                    except ValueError as exc:  # not JSON, or not UTF-8
                        last_error = exc
                else:
                    text = data[:200].decode("utf-8", "replace")
                    last_error = ScorerError(f"HTTP {status}: {text}")
                    if status != 429 and status < 500:
                        raise last_error
            if attempt < self.spec.retries:
                u = self._jitter.random()
                time.sleep(self.spec.backoff * (2**attempt) * (0.5 + u / 2))
        raise ScorerError(
            f"transport failure after {self.spec.retries + 1} attempts: {last_error}"
        ) from last_error

    def token_logprobs(self, prompt: str, continuation: str, meta: dict | None = None) -> list[float]:
        if not continuation:
            raise ScorerError("continuation must be non-empty")
        self._bump("calls")
        body = {
            "model": self.spec.model,
            "prompt": prompt + continuation,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
        }
        data = self._post(body)
        try:
            lp = data["choices"][0]["logprobs"]
            token_logprobs = lp["token_logprobs"]
            offsets = lp["text_offset"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ScorerError("server response lacks echoed token log-probabilities") from exc
        boundary = len(prompt)
        try:
            picked = [(off, logp) for off, logp in zip(offsets, token_logprobs) if off >= boundary]
        except TypeError as exc:  # a null list, or an offset that is no number
            raise ScorerError("echoed log-probabilities and offsets are not lists of numbers") from exc
        if not picked:
            raise ScorerError("no echoed tokens at or beyond the continuation boundary")
        if picked[0][0] != boundary:
            raise ScorerError(
                f"tokenizer boundary cannot be aligned: continuation starts at char "
                f"{boundary} but nearest token starts at {picked[0][0]}"
            )
        for _, logp in picked:
            # a number that is no bool and at most 0 (so not NaN); -inf is a token of probability 0
            if type(logp) not in (int, float) or not logp <= 0:
                raise ScorerError("continuation token without a log-probability "
                                  f"(a number <= 0): {logp!r}")
        return [float(logp) for _, logp in picked]

    def complete(self, prompt: str, meta: dict | None = None) -> str:
        self._bump("calls")
        body = {
            "model": self.spec.model,
            "prompt": prompt,
            "max_tokens": 16,
            "temperature": 0,
        }
        data = self._post(body)
        try:
            return str(data["choices"][0]["text"])
        except (KeyError, IndexError, TypeError) as exc:
            raise ScorerError("server response lacks completion text") from exc


def fan_out(spec: ScorerSpec, fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, on a pool of ``spec.max_parallel`` threads
    when the scorer is HTTP (calls wait on the network)."""
    if spec.kind == "http" and spec.max_parallel > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=spec.max_parallel) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def make_client(spec: ScorerSpec, graph: TagGraph | None = None):
    if spec.kind == "oracle":
        if graph is None:
            raise ValueError("oracle scorer needs the graph")
        return OracleClient(graph)
    return HttpClient(spec)


def token_logprobs(
    spec: ScorerSpec,
    prompt_text: str,
    continuation_text: str,
    meta: dict | None = None,
    client=None,
    graph: TagGraph | None = None,
) -> list[float]:
    """One log-probability per continuation token under the scoring model."""
    if client is None:
        client = make_client(spec, graph)
    return client.token_logprobs(prompt_text, continuation_text, meta=meta)


# ---------------------------------------------------------------------------
# candidate ranking


def class_verbalization(label: str) -> str:
    """Token sequence whose perplexity stands for a class: space + label."""
    return " " + label


def rank_candidates(
    graph: TagGraph,
    candidates: dict[int, Sequence[int]],
    spec: ScorerSpec,
    template: PromptTemplate,
    cache: FeedbackCache,
    client=None,
) -> tuple[dict[int, RankedSet], int]:
    """Score every (query, candidate) pair of a round and rank each query's
    candidates by utility.

    ``candidates`` maps each query id to its candidate ids. Each pair is
    scored in its own single-example prompt, rendered once; the pairs the
    cache does not fully cover share one ``fan_out``, and each pair's new
    perplexities are cached together as soon as the pair is scored. A
    candidate with any unscorable class, or whose perplexities give no utility
    (all infinite, or a NaN from an older cache), is left out of its query's
    ranking and counted in the returned number of unscored pairs; a query
    left with no scored candidate is left out.
    """
    lists = {int(q): [int(e) for e in ids] for q, ids in candidates.items()}
    for q, ids in lists.items():
        if not ids:
            raise ValueError("rank_candidates needs a non-empty candidate set")
        if int(graph.labels[q]) == UNLABELED:
            raise ValueError(f"query node {q} has no gold label")
    distinct = sorted({e for ids in lists.values() for e in ids})
    examples = dict(zip(distinct, examples_from_ids(graph, distinct)))  # each shows its true label
    if client is None:
        client = make_client(spec, graph)

    scorer_id, template_hash = spec.scorer_id, template.template_hash
    prefix = key_prefix(scorer_id, template_hash, graph.content_hash)
    classes = range(graph.n_classes)
    keys = {(q, e): [prefixed_key(prefix, q, e, c) for c in classes] for q, ids in lists.items() for e in ids}
    ppls = {pair: [cache.get(key) for key in pair_keys] for pair, pair_keys in keys.items()}
    todo = [pair for pair, vector in ppls.items() if None in vector]

    def score_pair(pair: tuple[int, int]) -> None:
        """Request each class the cache lacks; a failed class leaves a None."""
        q, e = pair
        vector = ppls[pair]
        prompt, meta = icl_request(template, graph, q, [examples[e]])
        scored = {}
        try:
            for c in classes:
                if vector[c] is not None:
                    continue
                try:
                    lps = client.token_logprobs(prompt, class_verbalization(graph.label_vocab[c]),
                                                meta={**meta, "class_index": c})
                except ScorerError:
                    continue
                vector[c] = scored[c] = ppl(lps)
        finally:  # what was paid for is kept even if a request raises
            if scored:
                cache.put(scorer_id, template_hash, q, e,
                          [(keys[pair][c], c, value) for c, value in scored.items()])

    fan_out(spec, score_pair, todo)

    by_query: dict[int, RankedSet] = {}
    n_unscored = 0
    for q, ids in lists.items():
        matrix = np.array([ppls[(q, e)] for e in ids], dtype=np.float64)  # an unscored class is NaN
        # a pair gives a utility when every perplexity is positive (so none NaN) and one is finite
        rankable = (matrix > 0).all(axis=1) & (matrix < np.inf).any(axis=1)
        kept = [e for e, ok in zip(ids, rankable.tolist()) if ok]
        n_unscored += len(ids) - len(kept)
        if kept:
            u = utility(matrix[rankable], int(graph.labels[q]))
            scored = sorted(zip((-u).tolist(), kept))  # (-utility, id): best first, ties by id
            by_query[q] = RankedSet(q, tuple(e for _, e in scored), tuple(-u for u, _ in scored))
    return by_query, n_unscored
