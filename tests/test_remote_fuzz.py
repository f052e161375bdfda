"""Property tests of the remote payload parser.

Payloads start from a well-formed ``choices[0].logprobs`` block and take up
to three random damages: wrong array lengths, nulls, bad offsets, non-finite
constants, junk values and realized/alternative mismatches. Each one, served
as the server's JSON text by a loopback server through the real transport,
must end as a valid result, a ProtocolError or a CapabilityError; and a valid
result served again from the journal, with no request to the server, must
equal the network-served one.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ambigkit.backend import GenerationParams, GenerationResult, ScoringResult
from ambigkit.errors import CapabilityError, ProtocolError
from ambigkit.remote import RemoteCompletionsBackend

from helpers import LoopbackServer

FIELDS = ("tokens", "token_logprobs", "top_logprobs", "text_offset")
# Each draw is a fresh copy: a shared ``[]`` or ``{}`` mutated by one damage would
# leak into later examples and could even be set inside itself.
JUNK = st.sampled_from([None, math.nan, math.inf, -math.inf, 0.5, 800.0, -1e-300,
                        10 ** 400, "x", True, [], {}, -1, 1.5]).map(copy.deepcopy)


class Served:
    """The payload text the loopback server answers every request with."""

    content = b""

    def answer(self, body: dict) -> bytes:
        return self.content


@pytest.fixture(scope="module")
def served():
    served = Served()
    with LoopbackServer(served.answer) as server:
        served.server = server
        yield served


@st.composite
def position(draw):
    """(token, logprob, top_logprobs) of one consistent, normalized position."""
    k = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["a", " b", " c", "d", " é"]),
                          min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=k + 1, max_size=k + 1))
    total = sum(weights)
    top = {name: math.log(w / total) for name, w in zip(names, weights)}
    if draw(st.booleans()):
        token = names[0]
        return token, top[token], top
    return " z", math.log(weights[-1] / total / 2), top


@st.composite
def payloads(draw):
    positions = draw(st.lists(position(), max_size=4))
    tokens = [p[0] for p in positions]
    offsets, at = [], 0
    for token in tokens:
        offsets.append(at)
        at += len(token)
    logprobs = {"tokens": tokens, "token_logprobs": [p[1] for p in positions],
                "top_logprobs": [p[2] for p in positions], "text_offset": offsets}
    if positions and draw(st.booleans()):
        # Sequence-initial position, as echo scoring returns it.
        logprobs["token_logprobs"][0] = logprobs["top_logprobs"][0] = None
    choice = {"text": "".join(tokens), "finish_reason": "stop", "logprobs": logprobs}
    payload = {"choices": [choice]}
    for _ in range(draw(st.integers(0, 3))):
        damage = draw(st.sampled_from(
            ["value", "alternative", "mismatch", "shorten", "field", "logprobs",
             "text", "finish", "choices"]))
        field = draw(st.sampled_from(FIELDS))
        array = logprobs.get(field)
        if damage == "value" and isinstance(array, list) and array:
            array[draw(st.integers(0, len(array) - 1))] = draw(JUNK)
        elif damage == "alternative":
            tops = logprobs.get("top_logprobs")
            tops = [t for t in tops if isinstance(t, dict)] if isinstance(tops, list) else []
            if tops:
                top = draw(st.sampled_from(tops))
                top[draw(st.sampled_from(["a", " b", " z", "new"]))] = draw(JUNK)
        elif damage == "mismatch":
            lps = logprobs.get("token_logprobs")
            if isinstance(lps, list) and lps and isinstance(lps[-1], float):
                lps[-1] -= draw(st.sampled_from([1e-9, 1e-3, 1.0]))
        elif damage == "shorten" and isinstance(array, list) and array:
            array.pop()
        elif damage == "field":
            if draw(st.booleans()):
                logprobs.pop(field, None)
            else:
                logprobs[field] = draw(JUNK)
        elif damage == "logprobs":
            choice["logprobs"] = draw(JUNK)
        elif damage == "text":
            choice["text"] = draw(JUNK)
        elif damage == "finish":
            choice["finish_reason"] = draw(JUNK)
        elif damage == "choices":
            payload = draw(st.sampled_from([{}, {"choices": []}, {"choices": [1]},
                                            {"choices": None}, []]))
    return payload


def _call(backend: RemoteCompletionsBackend, scoring: bool, context: str):
    if scoring:
        return backend.score("text", context=context)
    return backend.generate("prompt", GenerationParams())


def _check(result) -> None:
    assert isinstance(result, (GenerationResult, ScoringResult))
    for dist in result.tokens:
        assert dist.top_alternatives
        assert math.isfinite(dist.token_logprob) and dist.token_logprob <= 1e-9
        assert all(math.isfinite(lp) for _, lp in dist.top_alternatives)
        listed = dict(dist.top_alternatives).get(dist.token_text)
        assert listed is None or abs(listed - dist.token_logprob) <= 1e-6


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=payloads(), scoring=st.booleans(),
       context=st.sampled_from(["", "a", "ab b"]))
def test_payload_ends_in_result_or_backend_error(served, payload, scoring, context):
    served.content = json.dumps(payload).encode()  # NaN and infinities as bare constants
    endpoint = served.server.endpoint
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        network = RemoteCompletionsBackend(endpoint, "m", journal=journal)
        try:
            result = _call(network, scoring, context)
        except (ProtocolError, CapabilityError) as exc:
            event(type(exc).__name__)
            assert not journal.exists()
            return
        finally:
            network.close()
        event("valid result")
        _check(result)
        sent = served.server.requests
        replay = RemoteCompletionsBackend(endpoint, "m", journal=journal)
        assert _call(replay, scoring, context) == result
        assert (replay.journal.hits, replay.journal.misses) == (1, 0)
        assert served.server.requests == sent  # the replay reached no network
        replay.close()
