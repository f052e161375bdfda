from __future__ import annotations

import json
import logging
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ambigkit.backend import FinishReason, GenerationParams
from ambigkit.errors import CapabilityError, ProtocolError, TransportError
from ambigkit.remote import RemoteCompletionsBackend

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


class StubState:
    def __init__(self):
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        self.fail_first = 0
        self.mode = "ok"  # ok | malformed | no_logprobs | no_choices | nan_logprobs
        self.completion_text = " Paris"
        self.finish_reason = "stop"


class StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        state: StubState = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        state.requests.append(body)
        state.headers.append(dict(self.headers))
        if state.fail_first > 0:
            state.fail_first -= 1
            self.send_response(503)
            self.end_headers()
            self.wfile.write(b"overloaded")
            return
        if state.mode == "malformed":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"{not json")
            return
        if state.mode == "no_choices":
            self._reply({"object": "text_completion"})
            return
        if body.get("echo"):
            logprobs = echo_logprobs(
                body["prompt"], body.get("logprobs", 5),
                drop=("text_offset",) if state.mode == "no_text_offset" else (),
            )
            choice = {"text": body["prompt"], "finish_reason": "stop",
                      "logprobs": None if state.mode == "no_logprobs" else logprobs}
        else:
            text = state.completion_text
            tokens = tokenize(text)
            logprobs = {
                "tokens": tokens,
                "token_logprobs": [LN(0.6)] * len(tokens),
                "top_logprobs": [
                    {token: LN(0.6), "<alt>": LN(0.3)} for token in tokens
                ],
                "text_offset": list(range(len(tokens))),
            }
            if state.mode == "nan_logprobs":
                # Serialised as the bare NaN token, which JSON decoders accept.
                logprobs["token_logprobs"] = [math.nan] * len(tokens)
                logprobs["top_logprobs"] = [{token: math.nan} for token in tokens]
            choice = {
                "text": text,
                "finish_reason": state.finish_reason,
                "logprobs": None if state.mode == "no_logprobs" else logprobs,
            }
        self._reply({"choices": [choice]})

    def _reply(self, payload: dict):
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    server.state = StubState()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)


def make_backend(server, **kwargs) -> RemoteCompletionsBackend:
    kwargs.setdefault("backoff_base", 0.001)
    host, port = server.server_address
    return RemoteCompletionsBackend(
        f"http://{host}:{port}/v1/completions", "test-model", **kwargs
    )


def test_generate_wire_format_and_parsing(stub_server):
    backend = make_backend(stub_server, api_key="sk-secret")
    params = GenerationParams(
        max_tokens=12, temperature=0.0, top_k_logprobs=2,
        stop_sequences=("\n",), seed=7,
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
    headers = stub_server.state.headers[-1]
    assert headers.get("Authorization") == "Bearer sk-secret"


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


def test_retry_then_success(stub_server):
    stub_server.state.fail_first = 2
    backend = make_backend(stub_server)
    result = backend.generate("hello", GenerationParams())
    assert result.text == " Paris"
    assert len(stub_server.state.requests) == 3


def test_transport_error_reports_attempts():
    backend = RemoteCompletionsBackend(
        "http://127.0.0.1:9/v1/completions", "m", backoff_base=0.001, timeout=0.2
    )
    with pytest.raises(TransportError) as excinfo:
        backend.generate("hello", GenerationParams())
    assert excinfo.value.attempts == 3


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
