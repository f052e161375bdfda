from __future__ import annotations

import json
import logging
import math
import re
import socket
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ambigkit import remote
from ambigkit.backend import FinishReason, GenerationParams, bounded_map
from ambigkit.cli import main
from ambigkit.errors import CapabilityError, ProtocolError, TransportError
from ambigkit.remote import RemoteCompletionsBackend, RequestJournal

from conftest import FIXTURES
from helpers import LoopbackServer

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
        # ok | malformed | no_logprobs | no_choices | nan_logprobs | inf_logprobs
        # | neg_inf_alternative
        self.mode = "ok"
        self.completion_text = " Paris"
        # Prompt substring -> completion text, taking precedence over
        # completion_text.
        self.answers: dict[str, str] = {}
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
            text = next((answer for q, answer in state.answers.items()
                         if q in body["prompt"]), state.completion_text)
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
            if state.mode == "inf_logprobs":
                # Serialised as the bare Infinity token.
                logprobs["token_logprobs"] = [math.inf] * len(tokens)
            if state.mode == "neg_inf_alternative":
                # A zero-probability alternative, serialised as -Infinity.
                for top in logprobs["top_logprobs"]:
                    top["<never>"] = -math.inf
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
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.001)


def make_backend(server, **kwargs) -> RemoteCompletionsBackend:
    host, port = server.server_address
    return RemoteCompletionsBackend(
        f"http://{host}:{port}/v1/completions", "test-model", **kwargs
    )


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
    headers = stub_server.state.headers[-1]
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


def test_retry_then_success(stub_server):
    stub_server.state.fail_first = 2
    backend = make_backend(stub_server)
    result = backend.generate("hello", GenerationParams())
    assert result.text == " Paris"
    assert len(stub_server.state.requests) == 3


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


def test_connection_the_server_closed_is_sent_again_without_backoff(monkeypatch):
    def no_sleep(seconds: float) -> None:
        raise AssertionError(f"backed off {seconds} s")

    monkeypatch.setattr(remote, "time", types.SimpleNamespace(sleep=no_sleep))
    with LoopbackServer(paris, close_after_reply=True) as server:
        backend = RemoteCompletionsBackend(server.endpoint, "m", parallelism=1)
        try:
            for _ in range(2):
                assert backend.generate("hello", GenerationParams()).text == " Paris"
        finally:
            backend.close()
    assert server.requests == 2


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


# -- request journal -------------------------------------------------------------


@pytest.fixture()
def journaled(stub_server, tmp_path):
    """Makes stub backends that journal in one file; closes them at teardown."""
    made: list[RemoteCompletionsBackend] = []

    def make(path: str = "/v1/completions", **kwargs) -> RemoteCompletionsBackend:
        host, port = stub_server.server_address
        made.append(RemoteCompletionsBackend(
            f"http://{host}:{port}{path}", "test-model",
            journal=tmp_path / "journal.jsonl", **kwargs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


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


# -- the journal across CLI commands ---------------------------------------------

CHECKPOINTS = ("assess.jsonl", "records.jsonl", "labels.jsonl", "selection.json",
               "sft.jsonl", "predictions_direct.jsonl", "predictions_sample_rep.jsonl",
               "predictions_self_ask.jsonl")


def remote_config(server, tmp_path, out: str = "out"):
    """The toy CLI config pointed at the stub. The stub answers s1 correctly
    and every other prompt with three tokens, so every disambiguation is
    scorable; epsilon -1 makes every scored sample perceived ambiguous."""
    host, port = server.server_address
    server.state.answers = {"q1a q1b": " ans1"}
    server.state.completion_text = " the capital city"
    config = json.loads((FIXTURES / "toy_config.json").read_text())
    config["backend"] = {"kind": "remote", "endpoint": f"http://{host}:{port}/v1/completions",
                         "model": "test-model", "top_k": 5, "parallelism": 2}
    config["dataset"] = str(FIXTURES / "corpus.jsonl")
    config["template_dir"] = str(FIXTURES / "toy_templates")
    config["workdir"] = str(tmp_path / out)
    config["epsilon"] = -1.0
    config["truncation_mode"] = "tail_lump"  # the stub leaves 0.1 in the tail
    config["sample_rep"]["num_samples"] = 3
    path = tmp_path / f"config_{out}.json"
    path.write_text(json.dumps(config))
    return path, tmp_path / out


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
    assert manifest["backend"] == {"kind": "remote", "journal": {"hits": 0, "misses": 9}}
    manifest = json.loads((out / "manifest_eval_direct.json").read_text())
    assert manifest["backend"] == {"kind": "remote", "journal": {"hits": 9, "misses": 0}}


@pytest.mark.parametrize("strategy, sent", [("sample_rep", 27), ("self_ask", 9)])
def test_eval_after_assess_reuses_the_journal(stub_server, tmp_path, strategy, sent):
    # Each strategy's greedy direct answer is the request assess already sent.
    config, out = remote_config(stub_server, tmp_path)
    cli(config, "assess")
    assert len(stub_server.state.requests) == 9
    cli(config, "eval", "--strategy", strategy)
    assert len(stub_server.state.requests) == 9 + sent
    manifest = json.loads((out / "manifest_assess.json").read_text())
    assert manifest["backend"] == {"kind": "remote", "journal": {"hits": 0, "misses": 9}}
    manifest = json.loads((out / f"manifest_eval_{strategy}.json").read_text())
    assert manifest["backend"] == {"kind": "remote", "journal": {"hits": 9, "misses": sent}}


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
    journal = warm_manifest.pop("backend").pop("journal")
    assert journal["misses"] == 0 and journal["hits"] > 0
    assert warm_manifest["config_hash"] == cold_manifest["config_hash"]
    # A fresh workdir starts cold and writes the same bytes.
    fresh, fresh_out = remote_config(stub_server, tmp_path, out="fresh")
    for command in CHAIN:
        cli(fresh, *command)
    assert {name: (fresh_out / name).read_bytes() for name in CHECKPOINTS} == cold
    assert all(deterministic(body) for body in stub_server.state.requests)


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
        journal.close()
    assert journal.hits + journal.misses == 2 * len(keys)
    lines = path.read_text().splitlines()
    assert len(lines) == journal.misses
    for line in lines:
        key, raw = line.split("\t")
        assert json.loads(raw) == {"choices": [{"text": key}]}
    reloaded = RequestJournal(path)
    assert all(reloaded.lookup(key, lambda payload: payload) for key in keys)
    assert (reloaded.hits, reloaded.misses) == (len(keys), 0)
