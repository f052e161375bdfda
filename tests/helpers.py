"""Independent oracles, test doubles and the toy CLI config.

The oracles here deliberately avoid the production code paths: the entropy
oracle reads n-gram table vectors directly, and the LCS oracle is a plain
recursive memoized implementation with exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
import threading
import time
from fractions import Fraction
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

from ambigkit.backend import (
    Backend,
    FinishReason,
    GenerationParams,
    GenerationResult,
    TokenDistribution,
)
from ambigkit.cli import main
from ambigkit.errors import TransportError
from ambigkit.toy import NgramTable

from conftest import FIXTURES


def table_entropies(table: NgramTable, text: str, context: str = "") -> list[float]:
    """Per-position entropies of ``text`` by direct summation over the stored
    (or uniform-fallback) vectors; no backend involved."""
    n = table.order - 1
    tokens = context.split() + text.split()
    start = len(context.split())
    entropies = []
    for pos in range(start, len(tokens)):
        window = ([table.begin_marker] * n + tokens[:pos])[-n:] if n else []
        vector = table.conditional_probs.get(tuple(window))
        if vector is None:
            vector = [1.0 / len(table.vocabulary)] * len(table.vocabulary)
        entropies.append(math.fsum(-p * math.log(p) for p in vector if p > 0.0))
    return entropies


def table_average_entropy(table: NgramTable, text: str, context: str = "") -> float:
    values = table_entropies(table, text, context)
    return math.fsum(values) / len(values)


def lcs_oracle(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Top-down memoized LCS length."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def rouge_oracle(pred: tuple[str, ...], refs: list[tuple[str, ...]]) -> float:
    """Exact-rational LCS F-measure, maximized over references."""
    best = Fraction(0)
    for ref in refs:
        if not pred or not ref:
            continue
        lcs = lcs_oracle(pred, ref)
        if lcs == 0:
            continue
        p = Fraction(lcs, len(pred))
        r = Fraction(lcs, len(ref))
        best = max(best, 2 * p * r / (p + r))
    return float(best)


class ScriptedBackend(Backend):
    """Returns canned continuations: exact-prompt lookup first, then substring
    rules, else a default. Scoring is unsupported."""

    def __init__(
        self,
        exact: dict[str, str] | None = None,
        rules: list[tuple[str, str]] | None = None,
        default: str = "",
        sampled: dict[str, list[str]] | None = None,
    ):
        self.exact = exact or {}
        self.rules = rules or []
        self.default = default
        self.sampled = sampled or {}
        self._sample_cursor: dict[str, int] = {}
        self.calls: list[tuple[str, GenerationParams]] = []
        self.parallelism = 1

    def _lookup(self, prompt: str) -> str:
        if prompt in self.exact:
            return self.exact[prompt]
        for needle, reply in self.rules:
            if needle in prompt:
                return reply
        return self.default

    def complete(self, prompt: str, params: GenerationParams, *,
                 echo_from: int | None = None) -> GenerationResult:
        if echo_from is not None:
            raise NotImplementedError("scripted backend does not score")
        self.calls.append((prompt, params))
        if params.temperature > 0 and prompt in self.sampled:
            outputs = self.sampled[prompt]
            cursor = self._sample_cursor.get(prompt, 0)
            text = outputs[cursor % len(outputs)]
            self._sample_cursor[prompt] = cursor + 1
        else:
            text = self._lookup(prompt)
        dist = TokenDistribution(
            token_text=text or " ",
            token_logprob=0.0,
            top_alternatives=((text or " ", 0.0),),
        )
        return GenerationResult(
            text=text, tokens=(dist,), finish_reason=FinishReason.STOP
        )


class RefuseQuestion(Backend):
    """Wraps a backend and refuses the generations whose prompt contains
    ``question``, as a server refusing one sample's requests would: every
    one, or with ``nth`` only the nth of them (from 1). ``seen`` counts
    them."""

    def __init__(self, inner: Backend, question: str, nth: int | None = None):
        self.inner, self.question, self.nth = inner, question, nth
        self.parallelism = inner.parallelism
        self.seen = 0

    def complete(self, prompt, params, *, echo_from=None):
        if echo_from is None and self.question in prompt:
            self.seen += 1
            if self.nth in (None, self.seen):
                raise TransportError(f"refused {self.question!r}", 1)
        return self.inner.complete(prompt, params, echo_from=echo_from)


def write_toy_config(path: Path, **patches) -> Path:
    """Write the toy CLI config (``fixtures/toy_config.json`` with its paths
    made absolute) to ``path``, and return ``path``. The workdir is ``path``
    without its suffix. Each patch replaces a top-level value, except that a
    dict patch updates its section (``backend``, ``sample_rep``) key by key."""
    config = json.loads((FIXTURES / "toy_config.json").read_text())
    config["backend"]["fixture"] = str(FIXTURES / config["backend"]["fixture"])
    for key in ("dataset", "template_dir"):
        config[key] = str(FIXTURES / config[key])
    config["workdir"] = str(path.with_suffix(""))
    for key, value in patches.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(config))
    return path


def workdir_of(config: Path) -> Path:
    return Path(json.loads(config.read_text())["workdir"])


def run_chain(config: Path, *extra: str) -> Path:
    """Run assess, detect, label and emit on ``config``; the SFT file's path."""
    for command in ("assess", "detect", "label", "emit"):
        assert main(["--config", str(config), *extra, command]) == 0
    return workdir_of(config) / "sft.jsonl"


class _Server(ThreadingHTTPServer):
    # socketserver's listen backlog is 5. A burst of new connections beyond
    # it, as retries woken together open, could stall about 1 s on a
    # retried SYN; no test's parallelism comes near 64.
    request_queue_size = 64


class LoopbackServer:
    """An HTTP/1.1 keep-alive server on 127.0.0.1, one thread per connection.

    Each POST is answered with the bytes ``answer`` returns for the decoded
    request body, with status 200, or with the ``(status, bytes)`` pair or
    ``(status, bytes, headers)`` triple it returns. The server keeps each request's raw body in ``bodies`` and its
    headers in ``headers``, and counts requests, the most in flight at once,
    and connections the client closed (an EOF where a request line was due).
    With ``close_after_reply`` it closes each connection after its first
    answer without sending ``Connection: close``, as a server whose idle
    timeout expired does. Use it as a context manager.
    """

    def __init__(self, answer: Callable[[dict], bytes | tuple[int, bytes]], *,
                 close_after_reply: bool = False):
        self.answer = answer
        self.requests = 0
        self.bodies: list[bytes] = []
        self.headers: list[dict] = []
        self.max_in_flight = 0
        self.client_closes = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10
            # The headers and the body go out in two sends; with Nagle's
            # algorithm on, each answer on a kept-alive connection would
            # wait for the client's delayed ACK.
            disable_nagle_algorithm = True

            def log_message(self, *args):
                pass

            def handle_one_request(self):
                super().handle_one_request()
                if not self.raw_requestline:
                    with owner._lock:
                        owner.client_closes += 1

            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                with owner._lock:
                    owner.requests += 1
                    owner.bodies.append(raw)
                    owner.headers.append(dict(self.headers))
                    owner._in_flight += 1
                    owner.max_in_flight = max(owner.max_in_flight, owner._in_flight)
                try:
                    data = owner.answer(json.loads(raw))
                finally:
                    with owner._lock:
                        owner._in_flight -= 1
                status, data, *headers = data if isinstance(data, tuple) else (200, data)
                self.send_response(status)
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = close_after_reply

        self._server = _Server(("127.0.0.1", 0), Handler)
        host, port = self._server.server_address
        self.endpoint = f"http://{host}:{port}/v1/completions"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._thread.join(timeout=5)
        self._server.server_close()
        assert not self._thread.is_alive()

    def wait_for_client_closes(self, count: int, timeout: float = 5.0) -> int:
        """``client_closes`` once it reaches ``count``, or when ``timeout`` ends."""
        deadline = time.monotonic() + timeout
        while self.client_closes < count and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.client_closes
