from __future__ import annotations

import errno
import io
import json
import logging
import math
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import urljoin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigkit import remote
from ambigkit.backend import FinishReason, GenerationParams, bounded_map
from ambigkit.cli import main
from ambigkit.errors import CapabilityError, ConfigurationError, ProtocolError, TransportError
from ambigkit.remote import RemoteCompletionsBackend, RequestJournal
from ambigkit.toy import NgramTable, ToyBackend, load_ngram_table

from conftest import TABLES
from helpers import LoopbackServer, workdir_of, write_toy_config

LN = math.log


def tokenize(prompt: str) -> list[str]:
    # GPT-style word pieces: an optional leading space glued to the word.
    return re.findall(r" ?[^ ]+", prompt)


def echo_logprobs(prompt: str, top_k: int, drop: tuple[str, ...] = ()) -> dict:
    tokens = tokenize(prompt)
    offsets, pos = [], 0
    for token in tokens:
        offsets.append(pos)
        pos += len(token)
    token_logprobs: list[float | None] = []
    tops: list[dict | None] = []
    for i, token in enumerate(tokens):
        if i == 0:
            token_logprobs.append(None)
            tops.append(None)
            continue
        token_logprobs.append(LN(0.6))
        alternatives = {token: LN(0.6), "<alt>": LN(0.3)}
        tops.append(dict(list(alternatives.items())[:top_k]))
    payload = {
        "tokens": tokens,
        "token_logprobs": token_logprobs,
        "top_logprobs": tops,
        "text_offset": offsets,
    }
    for key in drop:
        payload.pop(key, None)
    return payload


def generation_logprobs(tokens: list[str]) -> dict:
    return {
        "tokens": tokens,
        "token_logprobs": [LN(0.6)] * len(tokens),
        "top_logprobs": [{token: LN(0.6), "<alt>": LN(0.3)} for token in tokens],
        "text_offset": list(range(len(tokens))),
    }


class StubState:
    """The stub server's ``answer``: it keeps each decoded request in
    ``requests``, refuses the first ``fail_first`` with 503, and shapes the
    rest by ``mode``."""

    def __init__(self):
        self.requests: list[dict] = []
        self.fail_first = 0
        # ok | malformed | no_logprobs | no_choices | nan_logprobs | inf_logprobs
        # | neg_inf_alternative | no_text_offset
        self.mode = "ok"
        self.completion_text = " Paris"
        # Prompt substring -> completion text, taking precedence over
        # completion_text.
        self.answers: dict[str, str] = {}
        self.finish_reason = "stop"
        self._lock = threading.Lock()  # the server answers concurrently

    def __call__(self, body: dict) -> bytes | tuple[int, bytes]:
        with self._lock:
            self.requests.append(body)
            refused = self.fail_first > 0
            self.fail_first -= refused
        if refused:
            return 503, b"overloaded"
        if self.mode == "malformed":
            return b"{not json"
        if self.mode == "no_choices":
            return json.dumps({"object": "text_completion"}).encode()
        if body.get("echo"):
            logprobs = echo_logprobs(
                body["prompt"], body.get("logprobs", 5),
                drop=("text_offset",) if self.mode == "no_text_offset" else (),
            )
            choice = {"text": body["prompt"], "finish_reason": "stop",
                      "logprobs": None if self.mode == "no_logprobs" else logprobs}
        else:
            text = next((answer for q, answer in self.answers.items()
                         if q in body["prompt"]), self.completion_text)
            tokens = tokenize(text)
            logprobs = generation_logprobs(tokens)
            if self.mode == "nan_logprobs":
                # Serialised as the bare NaN token, which JSON decoders accept.
                logprobs["token_logprobs"] = [math.nan] * len(tokens)
                logprobs["top_logprobs"] = [{token: math.nan} for token in tokens]
            if self.mode == "inf_logprobs":
                # Serialised as the bare Infinity token.
                logprobs["token_logprobs"] = [math.inf] * len(tokens)
            if self.mode == "neg_inf_alternative":
                # A zero-probability alternative, serialised as -Infinity.
                for top in logprobs["top_logprobs"]:
                    top["<never>"] = -math.inf
            choice = {
                "text": text,
                "finish_reason": self.finish_reason,
                "logprobs": None if self.mode == "no_logprobs" else logprobs,
            }
        return json.dumps({"choices": [choice]}).encode()


@pytest.fixture()
def stub_server():
    """A LoopbackServer answering through its ``state``, a StubState. Every
    backend ``make_backend`` made for it is closed at teardown: a pooled
    connection left open would leak its socket."""
    state = StubState()
    with LoopbackServer(state) as server:
        server.state, server.backends = state, []
        yield server
        for backend in server.backends:
            backend.close()


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.001)


def make_backend(server, path: str = "/v1/completions", **kwargs) -> RemoteCompletionsBackend:
    """A client of the ``stub_server`` at ``path``, closed at its teardown."""
    server.backends.append(RemoteCompletionsBackend(
        urljoin(server.endpoint, path), "test-model", **kwargs))
    return server.backends[-1]


def test_generate_wire_format_and_parsing(stub_server):
    backend = make_backend(stub_server, api_key="sk-secret", top_k=2)
    params = GenerationParams(
        max_tokens=12, temperature=0.0, stop_sequences=("\n",), seed=7,
    )
    result = backend.generate("Q: capital of France?\nA:", params)
    assert result.text == " Paris"
    assert result.finish_reason is FinishReason.STOP
    assert len(result.tokens) == 1
    assert result.tokens[0].token_logprob == pytest.approx(LN(0.6))
    assert result.tokens[0].tail_mass == pytest.approx(0.1, abs=1e-12)
    body = stub_server.state.requests[-1]
    assert body["model"] == "test-model"
    assert body["max_tokens"] == 12
    assert body["temperature"] == 0.0
    assert body["logprobs"] == 2
    assert body["echo"] is False
    assert body["stop"] == ["\n"]
    assert body["seed"] == 7
    headers = stub_server.headers[-1]
    assert headers.get("Authorization") == "Bearer sk-secret"


def test_backend_top_k_sets_logprobs_for_generation_and_scoring(stub_server):
    backend = make_backend(stub_server, top_k=7)
    backend.generate("hello", GenerationParams())
    backend.score("cat sat", context="the hungry ")
    assert [body["logprobs"] for body in stub_server.state.requests] == [7, 7]


def test_generate_requires_prompt(stub_server):
    with pytest.raises(ValueError):
        make_backend(stub_server).generate("", GenerationParams())


def test_score_uses_echo_and_keeps_text_tokens_only(stub_server):
    backend = make_backend(stub_server)
    result = backend.score("cat sat", context="the hungry ")
    body = stub_server.state.requests[-1]
    assert body["echo"] is True
    assert body["max_tokens"] == 0
    assert body["prompt"] == "the hungry cat sat"
    # Tokens: ["the", " hungry", " cat", " sat"]; boundary at len("the hungry ")
    # = 11. " cat" spans [10, 14) and straddles, so it counts as text.
    assert [t.token_text for t in result.tokens] == [" cat", " sat"]
    for dist in result.tokens:
        assert dist.tail_mass == pytest.approx(0.1, abs=1e-12)


def test_score_skips_sequence_initial_null(stub_server):
    backend = make_backend(stub_server)
    result = backend.score("the hungry cat", context="")
    # Position 0 has no distribution at the begin-of-sequence; it is skipped.
    assert [t.token_text for t in result.tokens] == [" hungry", " cat"]


def test_score_single_initial_token_is_capability_error(stub_server):
    with pytest.raises(CapabilityError):
        make_backend(stub_server).score("the", context="")


def score_echoed(context: str, text: str, tokens: list[str], offsets: list) -> list[str]:
    """The tokens the client scores when the server echoes ``context + text``
    as ``tokens`` at ``offsets``, the first with no distribution."""
    def answer(body: dict) -> bytes:
        logprobs = {"tokens": tokens, "text_offset": offsets,
                    "token_logprobs": [None] + [LN(0.6)] * (len(tokens) - 1),
                    "top_logprobs": [None] + [{token: LN(0.6)} for token in tokens[1:]]}
        choice = {"text": body["prompt"], "finish_reason": "length", "logprobs": logprobs}
        return json.dumps({"choices": [choice]}).encode()

    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m")
        try:
            return [dist.token_text for dist in backend.score(text, context=context).tokens]
        finally:
            backend.close()


@pytest.mark.parametrize("context,text,tokens,offsets,scored", [
    # The server spells the two bytes of "é" as byte tokens, each wider than
    # the character it covers: both lie inside the context.
    ("café ", "ok", ["caf", "bytes:\\xc3", "bytes:\\xa9", " ok"], [0, 3, 3, 4], [" ok"]),
    # A token that covers no character, at the boundary, starts the text.
    ("the", " cat", ["the", "", " cat"], [0, 3, 3], ["", " cat"]),
    # Word tokens that leave the whitespace between them to no token: the
    # context's last word ends where its spelling does, at the boundary.
    ("a the", " cat", ["a", "the", "cat"], [0, 2, 6], ["cat"]),
], ids=["byte-tokens", "empty-token-at-boundary", "whitespace-between-words"])
def test_score_reads_each_token_extent_from_the_offsets(context, text, tokens, offsets,
                                                          scored):
    assert score_echoed(context, text, tokens, offsets) == scored


@pytest.mark.parametrize("offsets", [[0, 4, 3], [0, -1, 4], [0, 4, "8"]],
                         ids=["decreasing", "negative", "text"])
def test_score_offsets_out_of_order_are_a_protocol_error(offsets):
    with pytest.raises(ProtocolError, match="text_offset"):
        score_echoed("the ", "cat sat", ["the", " cat", " sat"], offsets)


def test_retry_then_success(stub_server):
    stub_server.state.fail_first = 2
    backend = make_backend(stub_server)
    result = backend.generate("hello", GenerationParams())
    assert result.text == " Paris"
    assert len(stub_server.state.requests) == 3


def test_parallelism_below_1_is_refused():
    with pytest.raises(ValueError, match="parallelism must be >= 1, got 0"):
        RemoteCompletionsBackend("http://127.0.0.1:9/v1/completions", "m", parallelism=0)


@pytest.mark.parametrize("top_k", [0, -3])
def test_top_k_below_1_is_refused(top_k):
    # It would go out as the request's "logprobs".
    with pytest.raises(ValueError, match=f"top_k must be >= 1, got {top_k}"):
        RemoteCompletionsBackend("http://127.0.0.1:9/v1/completions", "m", top_k=top_k)


def test_transport_error_reports_attempts():
    backend = RemoteCompletionsBackend(
        "http://127.0.0.1:9/v1/completions", "m", timeout=0.2
    )
    with pytest.raises(TransportError) as excinfo:
        backend.generate("hello", GenerationParams())
    assert excinfo.value.attempts == 3


def _serve_cut_off_responses(listener: socket.socket, head: bytes, body: bytes,
                             connections: list, stop: threading.Event) -> None:
    """Answer every request with ``head`` and the start of ``body``, then
    close the connection before the body is complete."""
    listener.settimeout(0.05)
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        connections.append(conn)
        with conn, conn.makefile("rb") as request:
            conn.settimeout(5)
            length = 0
            while (line := request.readline()) not in (b"\r\n", b""):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            request.read(length)
            conn.sendall(head + body[: len(body) // 2])


@pytest.mark.parametrize("framing", ["chunked", "content-length"])
def test_response_cut_off_mid_body_is_retried_as_transport_error(framing):
    body = json.dumps({"choices": [{"text": " Paris"}]}).encode()
    if framing == "chunked":
        head = b"Transfer-Encoding: chunked\r\n\r\n"
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    else:
        head = b"Content-Length: %d\r\n\r\n" % len(body)
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + head
    connections: list = []
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=_serve_cut_off_responses, daemon=True,
                                  args=(listener, head, body, connections, stop))
        server.start()
        host, port = listener.getsockname()
        backend = RemoteCompletionsBackend(
            f"http://{host}:{port}/v1/completions", "m", timeout=5
        )
        try:
            with pytest.raises(TransportError) as excinfo:
                backend.generate("hello", GenerationParams())
        finally:
            stop.set()
            server.join(timeout=5)
    assert not server.is_alive()
    assert excinfo.value.attempts == 3
    assert len(connections) == 3


def test_malformed_payload_is_protocol_error_and_not_retried(stub_server):
    stub_server.state.mode = "malformed"
    backend = make_backend(stub_server)
    with pytest.raises(ProtocolError):
        backend.generate("hello", GenerationParams())
    assert len(stub_server.state.requests) == 1


def test_missing_choices_is_protocol_error(stub_server):
    stub_server.state.mode = "no_choices"
    with pytest.raises(ProtocolError, match="choices"):
        make_backend(stub_server).generate("hello", GenerationParams())


def test_missing_logprobs_is_capability_error(stub_server):
    stub_server.state.mode = "no_logprobs"
    with pytest.raises(CapabilityError, match="logprobs"):
        make_backend(stub_server).generate("hello", GenerationParams())


def test_nan_logprobs_are_protocol_error(stub_server):
    stub_server.state.mode = "nan_logprobs"
    with pytest.raises(ProtocolError, match="distribution invalid"):
        make_backend(stub_server).generate("hello", GenerationParams())


def test_missing_text_offset_is_capability_error(stub_server):
    stub_server.state.mode = "no_text_offset"
    with pytest.raises(CapabilityError, match="text_offset"):
        make_backend(stub_server).score("cat sat", context="the ")


def test_generate_omits_optional_fields(stub_server):
    backend = make_backend(stub_server)
    backend.generate("hello", GenerationParams(max_tokens=4))
    body = stub_server.state.requests[-1]
    assert "stop" not in body
    assert "seed" not in body


def test_generate_maps_length_finish_reason(stub_server):
    stub_server.state.finish_reason = "length"
    result = make_backend(stub_server).generate("hi", GenerationParams())
    assert result.finish_reason is FinishReason.LENGTH


def test_debug_log_redacts_api_key(stub_server, caplog):
    backend = make_backend(stub_server, api_key="sk-verysecret")
    with caplog.at_level(logging.DEBUG, logger="ambigkit.remote"):
        backend.generate("hello", GenerationParams())
    joined = "\n".join(record.getMessage() for record in caplog.records)
    assert "sk-verysecret" not in joined
    assert "Bearer ***" in joined


# -- the connection pool ----------------------------------------------------------


def paris(body: dict) -> bytes:
    """A completion of one token, " Paris", whatever the request."""
    return json.dumps({"choices": [{"text": " Paris", "finish_reason": "stop", "logprobs": {
        "tokens": [" Paris"], "token_logprobs": [LN(0.6)],
        "top_logprobs": [{" Paris": LN(0.6), "<alt>": LN(0.3)}], "text_offset": [0]}}]}).encode()


def generate_all(backend: RemoteCompletionsBackend, prompts: list[str], workers: int) -> list:
    return bounded_map(lambda prompt: backend.generate(prompt, GenerationParams()),
                       prompts, workers)


def test_close_closes_every_pooled_connection():
    barrier = threading.Barrier(3, timeout=5)

    def answer(body: dict) -> bytes:
        barrier.wait()  # three requests in flight at once hold three connections
        return paris(body)

    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=3)
        results = generate_all(backend, ["a", "b", "c"], 3)
        assert [result.text for result in results] == [" Paris"] * 3
        assert server.client_closes == 0  # kept alive
        backend.close()
        assert server.wait_for_client_closes(3) == 3


def test_idle_connections_are_reused_last_in_first_out():
    with LoopbackServer(paris) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=4)
        for prompt in "abcde":  # one at a time: the warm connection is always idle
            assert backend.generate(prompt, GenerationParams()).text == " Paris"
        backend.close()
        # A second close would be a second connection the pool opened.
        assert server.wait_for_client_closes(2, timeout=0.5) == 1


def test_requests_in_flight_never_exceed_parallelism():
    def answer(body: dict) -> bytes:
        time.sleep(0.02)
        return paris(body)

    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=2)
        try:
            results = generate_all(backend, [f"q{i}" for i in range(12)], 6)
        finally:
            backend.close()
    assert [result.text for result in results] == [" Paris"] * 12
    assert server.requests == 12
    assert server.max_in_flight == 2


@pytest.mark.parametrize("parallelism", [1, 2])
def test_backoff_gives_the_sample_slot_to_another_sample(monkeypatch, parallelism):
    # a and b are refused once each, and their backoffs end only once c is
    # answered, which needs a connection one of them lent. With parallelism 1
    # the one connection serves c while a and b back off.
    lock = threading.Lock()
    seen: Counter = Counter()
    c_answered = threading.Event()

    def answer(body: dict):
        prompt = body["prompt"]
        with lock:
            seen[prompt] += 1
            first = seen[prompt] == 1
        if prompt in ("a", "b") and first:
            return 503, b"overloaded"
        if prompt == "c":
            c_answered.set()
        return paris(body)

    def wait_for_answer(pool, loans: int, seconds: float) -> None:
        if not c_answered.wait(timeout=5):
            raise AssertionError("c was not answered while a backoff held its slot")

    monkeypatch.setattr(remote._ConnectionPool, "wait_for_answer", wait_for_answer)
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=parallelism)
        try:
            results = generate_all(backend, ["a", "b", "c", "d"], parallelism)
        finally:
            backend.close()
    assert [result.text for result in results] == [" Paris"] * 4
    assert seen == {"a": 2, "b": 2, "c": 1, "d": 1}
    assert server.max_in_flight <= parallelism


def test_retry_takes_the_next_free_connection_before_queued_requests(monkeypatch):
    # One connection. a is refused once; during its backoff b holds the
    # connection and c and d queue for it. When b is answered, a's retry goes
    # next, although c and d were waiting before its backoff ended.
    lock = threading.Lock()
    order: list[str] = []
    backing_off, backoff_over = threading.Event(), threading.Event()
    b_arrived, release_b = threading.Event(), threading.Event()

    def answer(body: dict):
        prompt = body["prompt"]
        with lock:
            order.append(prompt)
            refuse = order == ["a"]
        if refuse:
            return 503, b"overloaded"
        if prompt == "b":
            b_arrived.set()
            release_b.wait(timeout=5)
        return paris(body)

    def wait_for_answer(pool, loans: int, seconds: float) -> None:
        backing_off.set()
        backoff_over.wait(timeout=5)

    monkeypatch.setattr(remote._ConnectionPool, "wait_for_answer", wait_for_answer)
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                def send(prompt: str):
                    return pool.submit(backend.generate, prompt, GenerationParams())

                calls = [send("a")]
                assert backing_off.wait(timeout=5)
                calls.append(send("b"))
                assert b_arrived.wait(timeout=5)
                calls += [send("c"), send("d")]
                time.sleep(0.2)  # c and d queue for the connection b holds
                backoff_over.set()
                time.sleep(0.2)  # a's retry queues too
                release_b.set()
                results = [call.result(timeout=10) for call in calls]
        finally:
            backoff_over.set()
            release_b.set()
            backend.close()
    assert [result.text for result in results] == [" Paris"] * 4
    assert order[:3] == ["a", "b", "a"], order


def test_backoffs_at_the_head_of_a_map_leave_every_connection_busy(monkeypatch):
    # Parallelism 2: the first three samples are refused once, and their
    # backoffs end only once the server holds two other requests at once.
    lock = threading.Lock()
    seen: Counter = Counter()
    in_flight = 0
    two_at_once = threading.Event()

    def answer(body: dict):
        nonlocal in_flight
        prompt = body["prompt"]
        with lock:
            seen[prompt] += 1
            if prompt in ("a", "b", "c") and seen[prompt] == 1:
                return 503, b"overloaded"
            in_flight += 1
            if in_flight == 2:
                two_at_once.set()
        try:
            two_at_once.wait(timeout=1)
            return paris(body)
        finally:
            with lock:
                in_flight -= 1

    def wait_for_answer(pool, loans: int, seconds: float) -> None:
        if not two_at_once.wait(timeout=5):
            raise AssertionError("a connection idled while three samples backed off")

    monkeypatch.setattr(remote._ConnectionPool, "wait_for_answer", wait_for_answer)
    prompts = list("abcdefghijk")
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=2)
        try:
            results = generate_all(backend, prompts, 2)
        finally:
            backend.close()
    assert [result.text for result in results] == [" Paris"] * len(prompts)
    assert seen == {prompt: 2 if prompt in "abc" else 1 for prompt in prompts}
    assert server.max_in_flight <= 2


def test_pool_hands_off_every_connection_under_random_refusals():
    # 16 threads share 3 connections while the server refuses at random (at
    # most twice per prompt, so every call succeeds). Afterwards three
    # requests must still reach the server at once: no connection leaked.
    rng = random.Random(7)
    lock = threading.Lock()
    refused: Counter = Counter()
    barrier = threading.Barrier(3, timeout=5)

    def answer(body: dict):
        prompt = body["prompt"]
        if prompt.startswith("after"):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return 400, b"fewer than three requests in flight"
            return paris(body)
        with lock:
            refuse = refused[prompt] < 2 and rng.random() < 0.3
            refused[prompt] += refuse
            delay = rng.random() * 0.002
        time.sleep(delay)
        return (503, b"overloaded") if refuse else paris(body)

    prompts = [f"q{i}" for i in range(48)]
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=3)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(pool.map(
                    lambda prompt: backend.generate(prompt, GenerationParams()),
                    prompts, timeout=60))
                assert server.max_in_flight <= 3
                after = list(pool.map(
                    lambda prompt: backend.generate(prompt, GenerationParams()),
                    ["after0", "after1", "after2"], timeout=10))
        finally:
            backend.close()
    assert [result.text for result in results + after] == [" Paris"] * 51
    assert sum(refused.values()) > 0
    assert server.requests == 51 + sum(refused.values())


def backing_off(backend: RemoteCompletionsBackend, count: int) -> bool:
    """Whether, within 5 s, ``count`` callers wait on the pool. With every
    connection idle, only backoffs do."""
    deadline = time.monotonic() + 5
    while len(backend._pool._ready._waiters) < count and time.monotonic() < deadline:
        time.sleep(0.001)
    return len(backend._pool._ready._waiters) >= count


def test_backoffs_end_at_the_next_answer_to_another_request(monkeypatch):
    # Backoffs of 30 s, parallelism 2. "once" is refused once and "always" on
    # every attempt; once both back off, 20 other prompts go out, each
    # answered after 20 ms. Each backoff ends at the first answer to one sent
    # after its failure.
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 30.0)
    lock = threading.Lock()
    seen: Counter = Counter()

    def answer(body: dict):
        prompt = body["prompt"]
        with lock:
            seen[prompt] += 1
            refuse = prompt == "always" or (prompt == "once" and seen[prompt] == 1)
        if refuse:
            return 503, b"overloaded"
        time.sleep(0.02)
        return paris(body)

    def generate(prompt: str):
        try:
            return backend.generate(prompt, GenerationParams()).text
        except TransportError as exc:
            return exc

    others = [f"q{i}" for i in range(20)]
    start = time.monotonic()
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=2)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                refused = [pool.submit(generate, prompt) for prompt in ("once", "always")]
                assert backing_off(backend, 2)
                answered = list(pool.map(generate, others))
                once, always = (call.result(timeout=10) for call in refused)
        finally:
            backend.close()
    assert time.monotonic() - start < 5
    assert once == " Paris" and answered == [" Paris"] * len(others)
    assert isinstance(always, TransportError) and always.attempts == 3
    assert seen == {"once": 2, "always": 3, **dict.fromkeys(others, 1)}
    assert server.max_in_flight <= 2


def test_backoffs_run_their_full_clock_while_nothing_answers(monkeypatch):
    # Every request is refused, so no answer ends a backoff early: each
    # sample waits base + 2·base before its last attempt fails.
    base = 0.05
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", base)

    def refused_after(prompt: str) -> float:
        start = time.monotonic()
        with pytest.raises(TransportError) as excinfo:
            backend.generate(prompt, GenerationParams())
        assert excinfo.value.attempts == 3
        return time.monotonic() - start

    with LoopbackServer(lambda body: (503, b"overloaded")) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=2)
        try:
            elapsed = bounded_map(refused_after, ["a", "b", "c", "d"], 2)
        finally:
            backend.close()
    assert server.requests == 12
    assert backend._pool._last_answered == 0
    assert min(elapsed) >= base + 2 * base, elapsed


def test_an_http_400_to_another_request_ends_a_backoff(monkeypatch):
    # An error that is not retried is still an answer: the server took on a
    # request sent after a's failure. a's 30 s backoff ends when the server
    # refuses "bad" for good.
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 30.0)
    lock = threading.Lock()
    seen: Counter = Counter()

    def answer(body: dict):
        prompt = body["prompt"]
        with lock:
            seen[prompt] += 1
            first = seen[prompt] == 1
        if prompt == "a" and first:
            return 503, b"overloaded"
        if prompt == "bad":
            return 400, b"bad request"
        return paris(body)

    start = time.monotonic()
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                a = pool.submit(backend.generate, "a", GenerationParams())
                assert backing_off(backend, 1)
                with pytest.raises(ProtocolError, match="HTTP 400"):
                    backend.generate("bad", GenerationParams())
                assert a.result(timeout=5).text == " Paris"
        finally:
            backend.close()
    assert time.monotonic() - start < 5
    assert seen == {"a": 2, "bad": 1}


def test_pool_numbers_every_loan_under_contention(monkeypatch):
    # 24 threads on 3 connections, with the interpreter switching threads
    # every microsecond: every loan is numbered once and given back.
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.05)
    rng = random.Random(11)
    lock = threading.Lock()
    refused: Counter = Counter()

    def answer(body: dict):
        prompt = body["prompt"]
        with lock:
            refuse = refused[prompt] < 2 and rng.random() < 0.3
            refused[prompt] += refuse
        return (503, b"overloaded") if refuse else paris(body)

    prompts = [f"q{i}" for i in range(96)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with LoopbackServer(answer) as server:
            backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=3)
            try:
                with ThreadPoolExecutor(max_workers=24) as pool:
                    results = list(pool.map(
                        lambda prompt: backend.generate(prompt, GenerationParams()),
                        prompts, timeout=60))
            finally:
                backend.close()
    finally:
        sys.setswitchinterval(interval)
    assert [result.text for result in results] == [" Paris"] * len(prompts)
    assert len(prompts) == server.requests - sum(refused.values())
    assert backend._pool._loans == backend._pool._last_answered == server.requests
    assert not backend._pool._loan_of and server.max_in_flight <= 3


def test_a_journal_hit_does_not_end_a_backoff(monkeypatch, tmp_path):
    # A journal hit reaches no server, so it says nothing of the server's
    # capacity: a's backoff runs its full clock across it.
    base = 0.3
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", base)
    lock = threading.Lock()
    seen: Counter = Counter()

    def answer(body: dict):
        with lock:
            seen[body["prompt"]] += 1
            refuse = body["prompt"] == "a" and seen["a"] == 1
        return (503, b"overloaded") if refuse else paris(body)

    def timed(prompt: str) -> tuple[str, float]:
        start = time.monotonic()
        text = backend.generate(prompt, GenerationParams()).text
        return text, time.monotonic() - start

    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1,
                                           journal=tmp_path / "journal.jsonl")
        try:
            assert backend.generate("j", GenerationParams()).text == " Paris"
            with ThreadPoolExecutor(max_workers=1) as pool:
                a = pool.submit(timed, "a")
                assert backing_off(backend, 1)
                assert backend.generate("j", GenerationParams()).text == " Paris"
                assert backend.journal.hits == 1
                text, elapsed = a.result(timeout=5)
        finally:
            backend.close()
    assert text == " Paris" and elapsed >= base
    assert seen == {"j": 1, "a": 2}


@pytest.mark.parametrize("status", [429, 503])
def test_refusals_for_a_time_window_lose_no_sample(monkeypatch, status):
    # The server runs two requests at once, each for 0.1 s. One that arrives
    # while two run overloads it: it refuses that one and every request that
    # arrives in the next 0.3 s, while the two running are answered. Their
    # answers, to requests sent before the refusals, end no backoff, so each
    # sample's retries come after the window as with fixed backoffs; a
    # retry woken by them would be refused again and its sample lost.
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.5)
    lock = threading.Lock()
    running = 0
    refusing_until = 0.0

    def answer(body: dict):
        nonlocal running, refusing_until
        with lock:
            now = time.monotonic()
            if now < refusing_until:
                return status, b"overloaded"
            if running == 2:
                refusing_until = now + 0.3
                return status, b"overloaded"
            running += 1
        time.sleep(0.1)
        with lock:
            running -= 1
        return paris(body)

    prompts = list("abcdef")
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=3)
        try:
            results = generate_all(backend, prompts, len(prompts))
        finally:
            backend.close()
    assert [result.text for result in results] == [" Paris"] * len(prompts)


@pytest.mark.parametrize("status, headers", [(429, {}), (503, {"Retry-After": "1"})],
                         ids=["429", "503-retry-after"])
def test_refusal_that_clears_with_time_runs_its_full_clock(monkeypatch, status, headers):
    # A rate limit says nothing of the server's capacity for this request once
    # another is answered: a's backoff runs its full clock across b's answer.
    base = 0.3
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", base)
    lock = threading.Lock()
    seen: Counter = Counter()
    a_refused = threading.Event()

    def answer(body: dict):
        with lock:
            seen[body["prompt"]] += 1
            refuse = body["prompt"] == "a" and seen["a"] == 1
        if refuse:
            a_refused.set()
            return status, b"slow down", headers
        return paris(body)

    def timed(prompt: str) -> tuple[str, float]:
        start = time.monotonic()
        text = backend.generate(prompt, GenerationParams()).text
        return text, time.monotonic() - start

    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                a = pool.submit(timed, "a")
                assert a_refused.wait(timeout=5)
                assert backend.generate("b", GenerationParams()).text == " Paris"
                text, elapsed = a.result(timeout=5)
        finally:
            backend.close()
    assert text == " Paris" and elapsed >= base
    assert seen == {"a": 2, "b": 1}


def test_an_answer_between_the_failure_and_the_wait_ends_the_backoff(monkeypatch):
    # b is sent and answered after a's refusal but before a's backoff begins
    # to wait. The backoff counts from the failure, so it ends at once.
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 5.0)
    lock = threading.Lock()
    seen: Counter = Counter()

    def answer(body: dict):
        with lock:
            seen[body["prompt"]] += 1
            refuse = body["prompt"] == "a" and seen["a"] == 1
        return (503, b"overloaded") if refuse else paris(body)

    real_wait = remote._ConnectionPool.wait_for_answer

    def wait_for_answer(pool, *args) -> None:
        with ThreadPoolExecutor(max_workers=1) as other:
            assert other.submit(backend.generate, "b", GenerationParams()).result(
                timeout=5).text == " Paris"
        real_wait(pool, *args)

    monkeypatch.setattr(remote._ConnectionPool, "wait_for_answer", wait_for_answer)
    start = time.monotonic()
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1)
        try:
            assert backend.generate("a", GenerationParams()).text == " Paris"
        finally:
            backend.close()
    assert time.monotonic() - start < 2.5
    assert seen == {"a": 2, "b": 1}


@pytest.mark.parametrize("handed", [False, True], ids=["while-waiting", "after-hand-off"])
def test_interrupted_waiter_strands_no_connection(monkeypatch, handed):
    connection = object()
    pool = remote._ConnectionPool([connection])
    assert pool.take(retry=False) is connection

    def interrupted(timeout=None):
        if handed:
            pool.give(connection)  # the holder returns it during the wait
        raise KeyboardInterrupt

    monkeypatch.setattr(pool._ready, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        pool.take(retry=True)
    if not handed:
        pool.give(connection)
    assert pool._retries_waiting == 0

    def blocked(timeout=None):
        raise AssertionError("a first attempt blocked on an idle connection")

    monkeypatch.setattr(pool._ready, "wait", blocked)
    assert pool.take(retry=False) is connection


def test_interrupted_retry_releases_the_first_attempt_it_held_back(monkeypatch):
    connection = object()
    pool = remote._ConnectionPool([connection])
    assert pool.take(retry=False) is connection
    taken = []
    first = threading.Thread(target=lambda: taken.append(pool.take(retry=False)), daemon=True)
    first.start()
    deadline = time.monotonic() + 5
    while not pool._ready._waiters and time.monotonic() < deadline:
        time.sleep(0.001)
    assert pool._ready._waiters, "the first attempt never waited"
    real_wait = pool._ready.wait

    def wait(timeout=None):
        if threading.current_thread() is first:
            return real_wait(timeout)
        pool.give(connection)
        # The first attempt wakes, finds a retry still waiting and waits
        # again; only the retry leaving can let it take the idle connection.
        real_wait(0.2)
        raise KeyboardInterrupt

    monkeypatch.setattr(pool._ready, "wait", wait)
    with pytest.raises(KeyboardInterrupt):
        pool.take(retry=True)
    first.join(timeout=5)
    assert not first.is_alive(), "the first attempt still waits beside an idle connection"
    assert taken == [connection]


def test_connection_the_server_closed_is_sent_again_without_backoff(monkeypatch):
    def no_backoff(pool, loans: int, seconds: float) -> None:
        raise AssertionError(f"backed off {seconds} s")

    monkeypatch.setattr(remote._ConnectionPool, "wait_for_answer", no_backoff)
    with LoopbackServer(paris, close_after_reply=True) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1)
        try:
            for _ in range(2):
                assert backend.generate("hello", GenerationParams()).text == " Paris"
        finally:
            backend.close()
    assert server.requests == 2


def test_new_connection_the_server_closed_is_retried_after_backoff(monkeypatch):
    # Unlike an idle keep-alive connection, a fresh one that the server closes
    # before any response byte is a transport failure like any other. Nothing
    # answers, so each backoff would run its full clock.
    waits: list[float] = []
    monkeypatch.setattr(remote._ConnectionPool, "wait_for_answer",
                        lambda pool, loans, seconds: waits.append(seconds))
    connections: list = []
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=_serve_cut_off_responses, daemon=True,
                                  args=(listener, b"", b"", connections, stop))
        server.start()
        host, port = listener.getsockname()
        backend = RemoteCompletionsBackend(f"http://{host}:{port}/v1/completions", "m",
                                           parallelism=1, timeout=5)
        try:
            with pytest.raises(TransportError) as excinfo:
                backend.generate("hello", GenerationParams())
        finally:
            backend.close()
            stop.set()
            server.join(timeout=5)
    assert not server.is_alive()
    assert excinfo.value.attempts == 3
    assert len(connections) == 3
    assert waits == [remote._BACKOFF_BASE_S, 2 * remote._BACKOFF_BASE_S]


def test_https_endpoint_speaks_tls():
    # A plain HTTP server fails the TLS handshake, and never sees a POST:
    # a transport error, retried.
    with LoopbackServer(paris) as server:
        backend = RemoteCompletionsBackend(server.endpoint.replace("http:", "https:"), "m",
                                           timeout=5)
        try:
            with pytest.raises(TransportError) as excinfo:
                backend.generate("hello", GenerationParams())
        finally:
            backend.close()
    assert excinfo.value.attempts == 3
    assert server.requests == 0


# -- realized-token consistency and non-finite constants -------------------------


def test_realized_logprob_must_agree_with_its_alternative(stub_server):
    backend = make_backend(stub_server)
    with pytest.raises(ProtocolError, match="own top_logprobs entry"):
        backend._distribution("w", LN(0.9), {"w": LN(0.1), "x": LN(0.9)})


def test_realized_logprob_minus_inf_is_protocol_error(stub_server):
    backend = make_backend(stub_server)
    with pytest.raises(ProtocolError, match="-inf"):
        backend._distribution("w", -math.inf, {"w": -math.inf, "x": 0.0})


def test_nan_constant_is_protocol_error_and_not_retried(stub_server):
    stub_server.state.mode = "nan_logprobs"
    with pytest.raises(ProtocolError, match="NaN"):
        make_backend(stub_server).generate("hello", GenerationParams())
    assert len(stub_server.state.requests) == 1


def test_infinity_constant_is_protocol_error_and_not_retried(stub_server):
    stub_server.state.mode = "inf_logprobs"
    with pytest.raises(ProtocolError, match="Infinity"):
        make_backend(stub_server).generate("hello", GenerationParams())
    assert len(stub_server.state.requests) == 1


def test_minus_infinity_alternative_is_dropped(stub_server):
    stub_server.state.mode = "neg_inf_alternative"
    result = make_backend(stub_server).generate("hello", GenerationParams())
    [dist] = result.tokens
    assert [t for t, _ in dist.top_alternatives] == [" Paris", "<alt>"]
    assert dist.tail_mass == pytest.approx(0.1, abs=1e-12)


def one_choice(text: str, tokens: list[str], token_logprobs: list, offsets: list[int]) -> bytes:
    """A payload of one choice whose every position with a logprob lists its
    own token at that logprob. A logprob given as a string goes into the JSON
    as it is written."""
    tops = [None if lp is None else {token: lp} for token, lp in zip(tokens, token_logprobs)]
    logprobs = {"tokens": tokens, "token_logprobs": token_logprobs, "top_logprobs": tops,
                "text_offset": offsets}
    data = json.dumps({"choices": [{"text": text, "finish_reason": "stop", "logprobs": logprobs}]})
    for lp in token_logprobs:
        if isinstance(lp, str):
            data = data.replace(json.dumps(lp), lp)
    return data.encode()


def paris_with(text: str | None = " Paris", **logprobs) -> bytes:
    """The ``paris`` answer with ``text`` and the given ``logprobs`` fields."""
    payload = json.loads(paris({}))
    payload["choices"][0]["text"] = text
    payload["choices"][0]["logprobs"].update(logprobs)
    return json.dumps(payload).encode()


def generate_hello(backend: RemoteCompletionsBackend):
    return backend.generate("hello", GenerationParams())


@pytest.mark.parametrize("answer,call,message", [
    (lambda body: (400, b'{"error": "bad request"}'), generate_hello, "HTTP 400"),
    # "the " is the context: " cat" straddles its end, " sat" lies past it.
    (lambda body: one_choice("the cat sat", ["the", " cat", " sat"], [None, LN(0.6), None],
                             [0, 3, 7]),
     lambda backend: backend.score("cat sat", context="the "),
     "null logprob data for scored token ' sat' at offset 7"),
    (lambda body: one_choice("The cat sat", ["the", " cat", " sat"],
                             [None, LN(0.6), LN(0.6)], [0, 3, 7]),
     lambda backend: backend.complete("the cat", GenerationParams(max_tokens=1), echo_from=4),
     "echoed text does not start with the prompt"),
    # JSON decodes 1e400 as inf; a 401-digit integer overflows a float.
    (lambda body: one_choice(" Paris", [" Paris"], ["1e400"], [0]), generate_hello,
     "token ' Paris': backend distribution invalid: logprob inf"),
    (lambda body: one_choice(" Paris", [" Paris"], [str(-10 ** 400)], [0]), generate_hello,
     "token ' Paris': logprob -10{400} is out of range"),
    (lambda body: one_choice(" Paris", [" Paris"], ["true"], [0]), generate_hello,
     "token ' Paris': logprob 'True' is not a number"),
    (lambda body: one_choice(" Paris", [" Paris"], ['"-0.5"'], [0]), generate_hello,
     "token ' Paris': logprob '-0.5' is not a number"),
    (lambda body: paris_with(top_logprobs=[None]), generate_hello,
     "missing top_logprobs for token ' Paris'"),
    (lambda body: paris_with(tokens=" Paris"), generate_hello,
     "logprobs 'tokens' is not an array"),
    (lambda body: paris_with(text=None), generate_hello, "choice has no text"),
], ids=["http-400", "null-logprob-past-offset-0", "echoed-text-without-the-prompt",
        "logprob-1e400", "logprob-401-digits", "logprob-true", "logprob-string",
        "top-logprobs-null", "tokens-not-an-array", "text-null"])
def test_wire_refusal_is_a_protocol_error_after_one_request(answer, call, message):
    with LoopbackServer(answer) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m")
        try:
            with pytest.raises(ProtocolError, match=message):
                call(backend)
        finally:
            backend.close()
    assert server.requests == 1


# -- request journal -------------------------------------------------------------


@pytest.fixture()
def journaled(stub_server, tmp_path):
    """Makes stub backends that journal in one file."""
    return lambda *args, **kwargs: make_backend(
        stub_server, *args, journal=tmp_path / "journal.jsonl", **kwargs)


def test_journal_serves_repeated_deterministic_requests(stub_server, tmp_path, journaled):
    first = journaled()
    greedy = first.generate("hello", GenerationParams())
    scored = first.score("cat sat", context="the ")
    first.close()
    assert len(stub_server.state.requests) == 2
    assert (first.journal.hits, first.journal.misses) == (0, 2)
    rerun = journaled()
    assert rerun.generate("hello", GenerationParams()) == greedy
    assert rerun.score("cat sat", context="the ") == scored
    assert len(stub_server.state.requests) == 2
    assert (rerun.journal.hits, rerun.journal.misses) == (2, 0)
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert all(re.fullmatch(r"[0-9a-f]{64}\t\{.*\}", line) for line in lines)


def test_journal_key_leaves_out_the_api_key(stub_server, tmp_path, journaled):
    journaled(api_key="sk-one").generate("hello", GenerationParams())
    journaled(api_key="sk-two").generate("hello", GenerationParams())
    assert len(stub_server.state.requests) == 1
    assert "sk-one" not in (tmp_path / "journal.jsonl").read_text()


def test_unseeded_sampled_requests_always_reach_the_server(stub_server, tmp_path, journaled):
    backend = journaled()
    sampled = GenerationParams(temperature=1.0)
    backend.generate("hello", sampled)
    backend.generate("hello", sampled)
    assert len(stub_server.state.requests) == 2
    assert (backend.journal.hits, backend.journal.misses) == (0, 0)
    assert not (tmp_path / "journal.jsonl").exists()
    seeded = GenerationParams(temperature=1.0, seed=3)
    backend.generate("hello", seeded)
    backend.generate("hello", seeded)
    assert len(stub_server.state.requests) == 3


@pytest.mark.parametrize(
    "mode", ["retries_exhausted", "malformed", "nan_logprobs", "no_logprobs"])
def test_failed_requests_are_not_journaled(stub_server, tmp_path, journaled, mode):
    if mode == "retries_exhausted":
        stub_server.state.fail_first = 3
    else:
        stub_server.state.mode = mode
    with pytest.raises((TransportError, ProtocolError, CapabilityError)):
        journaled().generate("hello", GenerationParams())
    sent = len(stub_server.state.requests)
    assert not (tmp_path / "journal.jsonl").exists()
    stub_server.state.mode = "ok"
    rerun = journaled()
    assert rerun.generate("hello", GenerationParams()).text == " Paris"
    assert len(stub_server.state.requests) == sent + 1


def test_changed_endpoint_or_top_k_is_a_miss(stub_server, journaled):
    journaled().score("cat sat", context="the ")
    journaled(top_k=5).score("cat sat", context="the ")
    journaled("/v2/completions").score("cat sat", context="the ")
    assert [body["logprobs"] for body in stub_server.state.requests] == [20, 5, 20]


def test_torn_last_line_is_skipped(stub_server, tmp_path, journaled):
    path = tmp_path / "journal.jsonl"
    first = journaled()
    first.generate("one", GenerationParams())
    first.generate("two", GenerationParams())
    first.close()
    text = path.read_text()
    path.write_text(text[: len(text) - 20])  # a crash mid-append
    rerun = journaled()
    rerun.generate("one", GenerationParams())
    rerun.generate("two", GenerationParams())
    rerun.close()
    assert len(stub_server.state.requests) == 3
    assert (rerun.journal.hits, rerun.journal.misses) == (1, 1)
    # The new entry went onto a line of its own: both now hit.
    again = journaled()
    again.generate("one", GenerationParams())
    again.generate("two", GenerationParams())
    assert (again.journal.hits, again.journal.misses) == (2, 0)


def test_journal_line_with_non_finite_constant_is_a_miss(stub_server, tmp_path, journaled):
    path = tmp_path / "journal.jsonl"
    first = journaled()
    first.generate("hello", GenerationParams())
    first.close()
    path.write_text(re.sub(r'"token_logprobs": ?\[', '"token_logprobs": [NaN, ', path.read_text()))
    rerun = journaled()
    assert rerun.generate("hello", GenerationParams()).text == " Paris"
    assert len(stub_server.state.requests) == 2
    assert (rerun.journal.hits, rerun.journal.misses) == (0, 1)


def test_loading_a_journal_leaves_the_responses_on_disk(tmp_path):
    # 2,000 entries of about 9.8 KB each, 19.6 MB in all.
    path = tmp_path / "journal.jsonl"
    keys = [f"{i:064x}" for i in range(2000)]
    with open(path, "w", encoding="utf-8") as fh:
        for key in keys:
            fh.write(f'{key}\t{{"choices": [{{"text": "{key * 152}"}}]}}\n')
    tracemalloc.start()
    try:
        journal = RequestJournal(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    key = keys[-1]
    assert journal.lookup(key, lambda payload: payload) == {"choices": [{"text": key * 152}]}
    assert (journal.hits, journal.misses) == (1, 0)


# -- the journal across CLI commands ---------------------------------------------

CHECKPOINTS = ("assess.jsonl", "records.jsonl", "labels.jsonl", "selection.json",
               "sft.jsonl", "predictions_direct.jsonl", "predictions_sample_rep.jsonl",
               "predictions_self_ask.jsonl")


def remote_config(server, tmp_path, out: str = "out"):
    """The toy CLI config pointed at the stub. The stub answers s1 correctly
    and every other prompt with three tokens, so every disambiguation is
    scorable; epsilon -1 makes every scored sample perceived ambiguous."""
    server.state.answers = {"q1a q1b": " ans1"}
    server.state.completion_text = " the capital city"
    return endpoint_config(server.endpoint, tmp_path, out)


def endpoint_config(endpoint: str, tmp_path, out: str = "out"):
    """The toy CLI config pointed at ``endpoint``, and its workdir ``out``."""
    path = write_toy_config(
        tmp_path / f"{out}.json", epsilon=-1.0, sample_rep={"num_samples": 3},
        truncation_mode="tail_lump",  # the stub leaves 0.1 in the tail
        backend={"kind": "remote", "endpoint": endpoint, "model": "test-model", "top_k": 5})
    return path, workdir_of(path)


def cli(config, *argv) -> None:
    assert main(["--config", str(config), *argv]) == 0, argv


def deterministic(body: dict) -> bool:
    return body["echo"] or body["temperature"] == 0 or "seed" in body


CHAIN = (("assess",), ("detect",), ("label", "--kind", "generated"), ("emit",), ("verify",),
         ("eval", "--strategy", "direct"), ("eval", "--strategy", "sample_rep"),
         ("eval", "--strategy", "self_ask"))


def test_eval_direct_after_assess_sends_no_requests(stub_server, tmp_path):
    config, out = remote_config(stub_server, tmp_path)
    cli(config, "assess")
    sent = len(stub_server.state.requests)
    assert sent == 9
    cli(config, "eval", "--strategy", "direct")
    assert len(stub_server.state.requests) == sent
    manifest = json.loads((out / "manifest_assess.json").read_text())
    assert manifest["journal"] == {"hits": 0, "misses": 9}
    manifest = json.loads((out / "manifest_eval_direct.json").read_text())
    assert manifest["journal"] == {"hits": 9, "misses": 0}


@pytest.mark.parametrize("strategy, sent", [("sample_rep", 27), ("self_ask", 9)])
def test_eval_after_assess_reuses_the_journal(stub_server, tmp_path, strategy, sent):
    # Each strategy's greedy direct answer is the request assess already sent.
    config, out = remote_config(stub_server, tmp_path)
    cli(config, "assess")
    assert len(stub_server.state.requests) == 9
    cli(config, "eval", "--strategy", strategy)
    assert len(stub_server.state.requests) == 9 + sent
    manifest = json.loads((out / "manifest_assess.json").read_text())
    assert manifest["journal"] == {"hits": 0, "misses": 9}
    manifest = json.loads((out / f"manifest_eval_{strategy}.json").read_text())
    assert manifest["journal"] == {"hits": 9, "misses": sent}


def test_the_api_key_reaches_no_file(stub_server, tmp_path):
    """Every request carries the key, and no file of the run holds it: not a
    manifest, which records the backend settings, nor the journal or a
    checkpoint."""
    key = "sk-a9c3e1-never-written"
    config, out = remote_config(stub_server, tmp_path)
    settings = json.loads(config.read_text())
    settings["backend"]["api_key"] = key
    config.write_text(json.dumps(settings))
    for command in CHAIN:
        cli(config, *command)
    assert {headers.get("Authorization") for headers in stub_server.headers} == {
        f"Bearer {key}"}
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    assert {"backend_journal.jsonl", *CHECKPOINTS} <= set(files)
    assert [name for name, data in files.items() if key.encode() in data] == []
    manifests = [name for name in files if name.startswith("manifest_")]
    assert len(manifests) == len(CHAIN)
    for name in manifests:
        backend = json.loads(files[name])["config"]["backend"]
        assert (backend["kind"], "api_key" in backend) == ("remote", False), name


def test_retried_sample_leaves_the_checkpoint_bytes_unchanged(stub_server, tmp_path,
                                                             monkeypatch):
    # The first request is refused once; during its backoff the other
    # samples run on, so it answers out of order.
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.05)
    clean, clean_out = remote_config(stub_server, tmp_path, out="clean")
    cli(clean, "assess")
    assert len(stub_server.state.requests) == 9
    stub_server.state.fail_first = 1
    faulty, faulty_out = remote_config(stub_server, tmp_path, out="faulty")
    cli(faulty, "assess")
    assert len(stub_server.state.requests) == 9 + 10
    assert ((faulty_out / "assess.jsonl").read_bytes()
            == (clean_out / "assess.jsonl").read_bytes())


def test_position_without_alternatives_errors_only_its_sample(tmp_path):
    # One scored position of s3's question lists no alternatives: a protocol
    # error for s3, while detect writes the other samples' records.
    def answer(body: dict) -> bytes:
        if body["echo"]:
            text = body["prompt"]
            logprobs = echo_logprobs(text, body["logprobs"])
            if text == "q3a q3b":
                logprobs["top_logprobs"][1] = {}
        else:
            text = " ans1" if "q1a q1b" in body["prompt"] else " the capital city"
            logprobs = generation_logprobs(tokenize(text))
        choice = {"text": text, "finish_reason": "stop", "logprobs": logprobs}
        return json.dumps({"choices": [choice]}).encode()

    with LoopbackServer(answer) as server:
        config, out = endpoint_config(server.endpoint, tmp_path)
        cli(config, "assess")
        assessed = [json.loads(line) for line in (out / "assess.jsonl").read_text().splitlines()]
        incorrect = {a["id"] for a in assessed if a["category"] not in (1, 3)}
        assert "s3" in incorrect
        cli(config, "detect")
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert {r["id"] for r in records} == incorrect - {"s3"}
    manifest = json.loads((out / "manifest_detect.json").read_text())
    assert (manifest["records"], manifest["errored"]) == (len(incorrect) - 1, 1)


def test_unpaired_surrogate_in_generated_text_errors_only_its_sample(tmp_path):
    # s2's answer decodes to a string no UTF-8 checkpoint can hold.
    def answer(body: dict) -> bytes:
        text = " ans\ud800" if "q2a q2b" in body["prompt"] else " the capital city"
        choice = {"text": text, "finish_reason": "stop",
                  "logprobs": generation_logprobs(tokenize(text))}
        return json.dumps({"choices": [choice]}).encode()

    with LoopbackServer(answer) as server:
        config, out = endpoint_config(server.endpoint, tmp_path)
        cli(config, "assess")
    assessed = map(json.loads, (out / "assess.jsonl").read_text().splitlines())
    errored = {a["id"]: a["error"] for a in assessed if "error" in a}
    assert errored == {"s2": "generated text holds an unpaired surrogate"}
    assert json.loads((out / "manifest_assess.json").read_text())["errored"] == 1


def test_journal_that_cannot_be_written_is_a_configuration_error(tmp_path):
    (tmp_path / "file").write_text("")
    journal = RequestJournal(tmp_path / "file" / "journal.jsonl")
    with pytest.raises(ConfigurationError, match=f"cannot write {tmp_path / 'file'}"):
        journal.append("key", "{}")


def test_journal_in_a_missing_directory_is_a_configuration_error(tmp_path):
    path = tmp_path / "missing" / "journal.jsonl"
    journal = RequestJournal(path)
    with pytest.raises(ConfigurationError, match=f"cannot write {path}: "):
        journal.append("a" * 64, "{}")
    assert list(tmp_path.iterdir()) == []


def test_unreadable_journal_exits_2_before_any_request(stub_server, tmp_path, capsys):
    config, out = remote_config(stub_server, tmp_path)
    (out / "backend_journal.jsonl").mkdir(parents=True)
    assert main(["--config", str(config), "assess"]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read {out / 'backend_journal.jsonl'}: " in err
    assert stub_server.requests == 0
    assert not (out / "assess.jsonl").exists()


class FullDisk(io.BytesIO):
    """A file that opens but takes no bytes, as on a full disk."""

    def write(self, data: bytes) -> int:
        raise OSError(errno.ENOSPC, "No space left on device")


def test_journal_write_that_fails_is_a_configuration_error(monkeypatch, tmp_path):
    journal = RequestJournal(tmp_path / "journal.jsonl")
    journal.append("a" * 64, "{}")
    monkeypatch.setattr(remote, "open", lambda *args: FullDisk(), raising=False)
    with pytest.raises(ConfigurationError, match=f"cannot write {tmp_path / 'journal.jsonl'}: "
                                                 "No space left on device"):
        journal.append("b" * 64, "{}")


def test_journal_write_that_fails_exits_2_naming_the_journal(stub_server, tmp_path,
                                                             monkeypatch, capsys):
    config, out = remote_config(stub_server, tmp_path)
    monkeypatch.setattr(remote, "open", lambda *args: FullDisk(), raising=False)
    assert main(["--config", str(config), "assess"]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out / 'backend_journal.jsonl'}: No space left on device" in err
    assert not (out / "assess.jsonl").exists()


def test_journal_line_replaced_under_its_offset_is_a_miss(tmp_path, caplog):
    # Two lines of one length swap places after the journal indexed them:
    # each key's offset now holds the other key's line.
    path = tmp_path / "journal.jsonl"
    keys = [f"{i:064x}" for i in (1, 2)]
    lines = [f'{key}\t{{"choices": [{{"text": "{key}"}}]}}\n' for key in keys]
    path.write_text("".join(lines))
    journal = RequestJournal(path)
    path.write_text("".join(reversed(lines)))
    with caplog.at_level(logging.WARNING, logger="ambigkit.remote"):
        assert [journal.lookup(key, lambda payload: payload) for key in keys] == [None, None]
    assert (journal.hits, journal.misses) == (0, 2)
    assert "holds another key" in caplog.text


def test_remote_chain_rerun_is_served_from_the_journal(stub_server, tmp_path):
    config, out = remote_config(stub_server, tmp_path)
    for command in CHAIN:
        cli(config, *command)
    cold = {name: (out / name).read_bytes() for name in CHECKPOINTS}
    assert cold["sft.jsonl"] and cold["labels.jsonl"]
    cold_manifest = json.loads((out / "manifest_detect.json").read_text())
    sent = len(stub_server.state.requests)
    for command in CHAIN:
        cli(config, *command)
    assert len(stub_server.state.requests) == sent  # every request is deterministic
    assert {name: (out / name).read_bytes() for name in CHECKPOINTS} == cold
    warm_manifest = json.loads((out / "manifest_detect.json").read_text())
    journal = warm_manifest["journal"]
    assert journal["misses"] == 0 and journal["hits"] > 0
    assert warm_manifest["config_hash"] == cold_manifest["config_hash"]
    # A fresh workdir starts cold and writes the same bytes.
    fresh, fresh_out = remote_config(stub_server, tmp_path, out="fresh")
    for command in CHAIN:
        cli(fresh, *command)
    assert {name: (fresh_out / name).read_bytes() for name in CHECKPOINTS} == cold
    assert all(deterministic(body) for body in stub_server.state.requests)
    # Generation asks the server to stop where the reply is cut; scoring
    # generates nothing.
    assert all(body.get("stop") == (None if body["echo"] else ["\n"])
               for body in stub_server.state.requests)


def kill_and_resume(tmp_path, command: tuple[str, ...], stage: str, output: str,
                    k: int, torn: bool = False, *, prerequisites: tuple = (),
                    stray: bool = False) -> int:
    """Run ``prerequisites`` and ``command`` cleanly. Then, in a second
    workdir, run the prerequisites and ``command`` again against a server
    that answers the command's first k requests and holds the rest, killing
    the run once its journal holds k lines of the command's own. With
    ``torn``, cut the journal's last line partway; with ``stray``, leave a
    half-written temporary file of ``output`` in the workdir. The rerun must
    send only the requests the journal cannot answer, count its hits in
    ``manifest_<stage>.json`` and write the clean run's ``output``. Returns
    the command's request count in the clean run."""
    answer = toy_completions(load_ngram_table(TABLES / "corpus_world.yaml"))
    lock, left, release = threading.Lock(), [math.inf], threading.Event()

    def hold_after_k(body: dict) -> bytes:
        with lock:
            left[0] -= 1
            held = left[0] < 0
        if held:
            release.wait(60)
        return answer(body)

    def lines(journal: Path) -> int:
        return journal.read_bytes().count(b"\n") if journal.exists() else 0

    with LoopbackServer(answer) as server:
        clean, clean_out = endpoint_config(server.endpoint, tmp_path, "clean")
        for prerequisite in prerequisites:
            cli(clean, *prerequisite)
        before = server.requests
        cli(clean, *command)
        total = server.requests - before
    # The command's requests that the prerequisites had already journaled.
    hits = json.loads((clean_out / f"manifest_{stage}.json").read_text())["journal"]["hits"]
    with LoopbackServer(hold_after_k) as server:
        config, out = endpoint_config(server.endpoint, tmp_path, "resumed")
        for prerequisite in prerequisites:
            cli(config, *prerequisite)
        journal = out / "backend_journal.jsonl"
        journaled = lines(journal) + k
        left[0] = k
        env = {**os.environ, "PYTHONPATH": str(Path(remote.__file__).resolve().parents[1])}
        run = subprocess.Popen([sys.executable, "-m", "ambigkit.cli", "--config", str(config),
                                *command], env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        try:
            while lines(journal) < journaled and run.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            run.kill()
            run.wait(timeout=30)
            release.set()
        assert lines(journal) == journaled
        assert not (out / output).exists()
        if torn:  # the last line's key survives, its response is cut short
            cut = journal.read_bytes().splitlines(keepends=True)
            journal.write_bytes(b"".join(cut[:-1]) + cut[-1][:len(cut[-1]) // 2])
        if stray:  # a checkpoint write the kill cut short
            clean_bytes = (clean_out / output).read_bytes()
            (out / f".{output}.killed.tmp").write_bytes(clean_bytes[:len(clean_bytes) // 2])
        sent = server.requests
        cli(config, *command)
        assert server.requests - sent == total - k + torn
    manifest = json.loads((out / f"manifest_{stage}.json").read_text())
    assert manifest["journal"] == {"hits": hits + k - torn, "misses": total - k + torn}
    assert (out / output).read_bytes() == (clean_out / output).read_bytes()
    return total


def test_killed_assess_resumes_from_the_journal(tmp_path):
    assert kill_and_resume(tmp_path, ("assess",), "assess", "assess.jsonl", k=4) == 9


def test_killed_assess_with_a_torn_last_line_resumes_from_the_journal(tmp_path):
    assert kill_and_resume(tmp_path, ("assess",), "assess", "assess.jsonl", k=4, torn=True) == 9


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn-last-line"])
def test_killed_sample_rep_eval_resumes_from_the_journal(tmp_path, torn):
    # A greedy request and three seeded draws per sample, every one journaled.
    assert kill_and_resume(tmp_path, ("eval", "--strategy", "sample_rep"), "eval_sample_rep",
                           "predictions_sample_rep.jsonl", k=13, torn=torn) == 36


@pytest.mark.parametrize("torn, stray", [(False, False), (True, False), (False, True)],
                         ids=["whole", "torn-last-line", "stray-tmp"])
def test_killed_detect_resumes_from_the_journal(tmp_path, torn, stray):
    # Each incorrect sample's disambiguation and its two scorings.
    assert kill_and_resume(tmp_path, ("detect",), "detect", "records.jsonl", k=7, torn=torn,
                           prerequisites=(("assess",),), stray=stray) == 21


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn-last-line"])
def test_killed_generated_label_resumes_from_the_journal(tmp_path, torn):
    # One clarification request for each of the two ambiguous samples selected.
    assert kill_and_resume(tmp_path, ("label", "--kind", "generated"), "label", "labels.jsonl",
                           k=1, torn=torn, prerequisites=(("assess",), ("detect",))) == 2


# -- conformance with the toy oracle ----------------------------------------------


def toy_completions(table: NgramTable):
    """A LoopbackServer answer that computes each completion with
    ``ToyBackend.complete`` on ``table``, listing the request's ``logprobs``
    alternatives and honouring its ``max_tokens``, ``temperature``, ``seed``
    and ``stop``. With echo, the text is the prompt and then the
    continuation, and the tokens start with every word of the prompt as the
    toy scores it, the first one's distribution included: the first word
    bare at its start, every later one from the space before it."""
    def answer(body: dict) -> bytes:
        prompt = body["prompt"]
        params = GenerationParams(
            max_tokens=body["max_tokens"], temperature=body["temperature"],
            stop_sequences=tuple(body.get("stop", ())), seed=body.get("seed"))
        result = ToyBackend(table, top_k=body["logprobs"]).complete(
            prompt, params, echo_from=0 if body["echo"] else None)
        starts = [word.start() for word in re.finditer(r"\S+", prompt)]
        offsets = [start - (i > 0) for i, start in enumerate(starts)] if body["echo"] else []
        text = prompt + result.text if body["echo"] else result.text
        at = len(prompt)
        for distribution in result.tokens:
            offsets.append(at)
            at += len(distribution.token_text)
        distributions = (*result.echoed, *result.tokens)
        logprobs = {"tokens": [d.token_text for d in distributions],
                    "token_logprobs": [d.token_logprob for d in distributions],
                    "top_logprobs": [dict(d.top_alternatives) for d in distributions],
                    "text_offset": offsets}
        choice = {"text": text, "finish_reason": result.finish_reason.value,
                  "logprobs": logprobs}
        return json.dumps({"choices": [choice]}).encode()

    return answer


def test_request_bodies_and_journal_keys_are_pinned(tmp_path):
    # A journal keeps serving across versions only while each request's
    # body, and so its key, stays the same: scoring sends the integer
    # temperature 0 and max_tokens 0, generation the parameters as given.
    bodies = [
        b'{"model": "m", "prompt": "a", "max_tokens": 4, "temperature": 0.0, '
        b'"logprobs": 3, "echo": false, "stop": ["\\n"]}',
        b'{"model": "m", "prompt": "a b", "max_tokens": 3, "temperature": 0.8, '
        b'"logprobs": 3, "echo": false, "seed": 5}',
        b'{"model": "m", "prompt": "a b", "max_tokens": 0, "temperature": 0, '
        b'"logprobs": 3, "echo": true}',
        b'{"model": "m", "prompt": "a b a", "max_tokens": 0, "temperature": 0, '
        b'"logprobs": 3, "echo": true}',
    ]
    keys = ["97cb4c55ab64ba5e80490a2eb098467dd3ba185c429fee952055469870e69653",
            "cff9b9761eaf2c7c40924ae200b1185cf20f51d7067dcdd1b83ef039adaccc66",
            "2913f60ec4a9b6ddcb517228a0922802e1b190af69d3c8f545d7b23f0852a0f4",
            "84da27d33433bde8231b45c03429980215cd847c1554b9328b2ae006c0b7b0ed"]
    table = load_ngram_table(TABLES / "bigram_ab.yaml")
    with LoopbackServer(toy_completions(table)) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", top_k=3,
                                           journal=tmp_path / "journal.jsonl")
        try:
            backend.generate("a", GenerationParams(max_tokens=4, stop_sequences=("\n",)))
            backend.generate("a b", GenerationParams(max_tokens=3, temperature=0.8, seed=5))
            backend.score("a b")
            backend.score("b a", context="a ")
        finally:
            backend.close()
        endpoint = server.endpoint
    assert server.bodies == bodies
    journaled = [line.partition("\t")[0]
                 for line in (tmp_path / "journal.jsonl").read_text().splitlines()]
    assert journaled == [RequestJournal.key(endpoint, json.loads(body)) for body in bodies]
    fixed = "http://127.0.0.1:9/v1/completions"
    assert [RequestJournal.key(fixed, json.loads(body)) for body in bodies] == keys


def test_client_distribution_equals_the_toy_distribution_on_every_fixture():
    # Every fixture row and the uniform fallback, every drawable token, every
    # top_k: the client's distribution of what a server lists for the toy's
    # distribution is the toy's distribution, tail and order included.
    client = RemoteCompletionsBackend("http://127.0.0.1:9/v1/completions", "toy")
    compared = 0
    try:
        for path in sorted(TABLES.glob("*.yaml")):
            table = load_ngram_table(path)
            size = len(table.vocabulary)
            vectors = [*table.conditional_probs.values(), (1.0 / size,) * size]
            for top_k in range(1, size + 1):
                toy = ToyBackend(table, top_k=top_k)
                for vector in vectors:
                    for token, p in zip(table.vocabulary, vector):
                        if p > 0:
                            expected = toy._distribution_for(vector, token, token)
                            listed = json.loads(json.dumps(
                                [expected.token_logprob, dict(expected.top_alternatives)]))
                            assert client._distribution(token, *listed) == expected, (
                                path.name, top_k, token)
                            compared += 1
    finally:
        client.close()
    assert compared == 13637


@st.composite
def toy_requests(draw):
    """A bigram table over a few words, non-ASCII ones among them, some
    contexts left to the uniform fallback; a prompt of its words; an
    ``echo_from`` on a word boundary, or None; a top_k in [1, V]; and greedy
    or seeded decoding of up to four tokens, maybe with a stop word."""
    words = draw(st.lists(st.sampled_from(["a", "bb", "é", "日本", "ßo", "ñu"]),
                          min_size=2, max_size=4, unique=True))
    vocabulary = ("<s>", *words, "</s>")
    vectors = {}
    for context in ("<s>", *words):
        if draw(st.integers(0, 3)):  # else the uniform fallback
            weights = [0, *draw(st.lists(st.integers(1, 4), min_size=len(words),
                                         max_size=len(words))), draw(st.integers(0, 3))]
            vectors[(context,)] = tuple(w / sum(weights) for w in weights)
    table = NgramTable(vocabulary=vocabulary, order=2, begin_marker="<s>",
                       end_marker="</s>", conditional_probs=vectors)
    prompt = " ".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=4)))
    starts = [word.start() for word in re.finditer(r"\S+", prompt)]
    echo_from = draw(st.sampled_from([None, 0, *starts[1:], *(s - 1 for s in starts[1:])]))
    temperature = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    params = GenerationParams(
        max_tokens=draw(st.integers(0, 4)), temperature=temperature,
        stop_sequences=draw(st.sampled_from([(), *((word,) for word in words)])),
        seed=draw(st.integers(0, 2**31)) if temperature else None)
    return table, prompt, echo_from, draw(st.integers(1, len(vocabulary))), params


@pytest.fixture(scope="module")
def toy_server():
    """A LoopbackServer answering through ``toy_completions`` on the table
    last set as its ``table``."""
    with LoopbackServer(lambda body: toy_completions(server.table)(body)) as server:
        yield server


@settings(max_examples=200, deadline=None)
@given(case=toy_requests())
def test_client_completion_equals_the_toy_completion(toy_server, case):
    # Served the toy's answer, the client returns the toy's completion: the
    # same echoed and generated distributions, text and finish reason.
    table, prompt, echo_from, top_k, params = case
    toy_server.table = table
    client = RemoteCompletionsBackend(toy_server.endpoint, "toy", top_k=top_k)
    try:
        completion = client.complete(prompt, params, echo_from=echo_from)
    finally:
        client.close()
    assert completion == ToyBackend(table, top_k=top_k).complete(prompt, params,
                                                                 echo_from=echo_from)


@pytest.mark.parametrize("mode", ["exact", "tail_lump"])
def test_remote_chain_writes_the_toy_chain_bytes(tmp_path, mode):
    # The toy CLI config, once on the toy backend and once through the remote
    # client to a server that computes the same table; in either truncation
    # mode, with every alternative listed, both write the same checkpoints.
    table = load_ngram_table(TABLES / "corpus_world.yaml")
    commands = [("assess",), ("detect",), ("label", "--kind", "generated"), ("emit",),
                *(("eval", "--strategy", strategy)
                  for strategy in ("direct", "ambig_aware", "sample_rep", "self_ask"))]
    with LoopbackServer(toy_completions(table)) as server:
        backends = {"toy": {}, "remote": {"kind": "remote", "endpoint": server.endpoint,
                                          "model": "toy", "top_k": len(table.vocabulary)}}
        for name, backend in backends.items():
            path = write_toy_config(tmp_path / f"{name}.json", truncation_mode=mode,
                                    backend=backend)
            for command in commands:
                cli(path, *command)
    names = ["assess.jsonl", "records.jsonl", "labels.jsonl", "selection.json", "sft.jsonl",
             *(path.name for path in (tmp_path / "toy").glob("predictions_*.jsonl"))]
    assert len(names) == 9
    for name in names:
        expected = (tmp_path / "toy" / name).read_bytes()
        assert (tmp_path / "remote" / name).read_bytes() == expected, name


def test_journal_counts_and_lines_survive_concurrent_workers(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = RequestJournal(path)
    keys = [f"{i:064x}" for i in range(200)]

    def work(key: str) -> None:
        if journal.lookup(key, lambda payload: payload) is None:
            journal.append(key, json.dumps({"choices": [{"text": key}]}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(work, keys * 2, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert journal.hits + journal.misses == 2 * len(keys)
    lines = path.read_text().splitlines()
    assert len(lines) == journal.misses
    for line in lines:
        key, raw = line.split("\t")
        assert json.loads(raw) == {"choices": [{"text": key}]}
    reloaded = RequestJournal(path)
    assert all(reloaded.lookup(key, lambda payload: payload) for key in keys)
    assert (reloaded.hits, reloaded.misses) == (len(keys), 0)
