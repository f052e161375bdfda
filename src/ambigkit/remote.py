"""Remote completions-style HTTP backend.

Speaks the JSON completions protocol served by mainstream open inference
servers. ``complete`` is one request, carrying ``{model, prompt, max_tokens,
temperature, logprobs, echo, stop, seed}``; each choice returns per-token
arrays ``tokens``, ``token_logprobs``, ``top_logprobs`` and ``text_offset``.
With ``echo`` off every returned token is generated. With it on, the text is
the prompt and then the continuation, and the tokens starting before the
prompt's end are the prompt's (all of them, when no token was asked for).
Scoring is ``complete`` with ``max_tokens=0`` and echo on from the context's
end: its body is context+text with ``echo=true``, ``max_tokens=0`` and the
integer temperature 0. An echoed token spans from its ``text_offset`` to the
next one's (the prompt's end for the last), but no further than its
spelling: a byte token (``bytes:\\xNN``) is wider than its byte, and a
server may leave whitespace to no token. It is returned when its span starts
at or after ``echo_from`` or extends past it (a straddling token counts);
decreasing offsets are a protocol error.

Requests go out over the standard library's ``http.client``, on a pool of
up to ``parallelism`` keep-alive connections; the pool is the one bound on
requests in flight. Transport failures (a refused or dropped connection, a
timeout, a response cut off mid-body) are retried with exponential backoff,
during which the connection serves other samples; protocol errors never are.
A retry whose backoff has ended takes the next free connection, ahead of
first attempts that queued meanwhile; first attempts keep no arrival order.
Servers cannot expose a distribution for the very first token of a sequence
(its ``token_logprob`` is null), so an echo from the prompt's start silently
skips that position; every other null is a protocol error.

JSON has no non-finite numbers, but decoders accept the bare constants. A
payload holding ``NaN`` or ``Infinity`` is a protocol error. ``-Infinity``
reads as -inf, which ``TokenDistribution`` accepts only for an alternative
(of probability 0) and drops; every refusal of a distribution is a protocol
error here.

Given a journal file, the backend sends each deterministic request (scoring,
and greedy or seeded generation) at most once; see ``RequestJournal``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import ssl
import threading
import time
from bisect import bisect_left
from functools import partial
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

from .backend import (
    Backend,
    FinishReason,
    GenerationParams,
    GenerationResult,
    TokenDistribution,
)
from .errors import (
    BackendError,
    CapabilityError,
    NormalizationError,
    ProtocolError,
    TransportError,
)
from .jsonio import has_surrogate, input_file, output_file

logger = logging.getLogger(__name__)

# The retry policy: up to _MAX_ATTEMPTS attempts in all, sleeping
# _BACKOFF_BASE_S before the second and doubling the sleep each time after.
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_MAX_ATTEMPTS = 3
_BACKOFF_BASE_S = 0.5
_EXCERPT_LIMIT = 200
_FINISH_REASONS = {"stop": FinishReason.STOP, "length": FinishReason.LENGTH}


def _parse_constant(name: str) -> float:
    if name == "-Infinity":
        return -math.inf
    raise ProtocolError(f"backend distribution invalid: non-finite JSON constant {name}")


def _decode(data: bytes | str) -> Any:
    """``json.loads`` under this module's rule for non-finite constants."""
    return json.loads(data, parse_constant=_parse_constant)


def _excerpt(content: bytes) -> str:
    return content[:_EXCERPT_LIMIT].decode("utf-8", "replace")


def _number(value: Any) -> float:
    """A logprob from a payload: a JSON number, finite or -inf."""
    if type(value) not in (float, int):  # bool is an int, but not a JSON number
        raise ProtocolError(f"logprob {str(value)[:_EXCERPT_LIMIT]!r} is not a number")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ProtocolError(f"logprob {value} is out of range") from exc
    if math.isnan(number) or number == math.inf:
        raise ProtocolError(f"backend distribution invalid: logprob {number}")
    return number


class RequestJournal:
    """Responses to deterministic requests, kept in an append-only file.

    A request's key is the SHA-256 of the endpoint plus the canonical request
    body (model, prompt, every decoding parameter; not the API key). Each line
    of the file is ``<key>\\t<response>``, the response body as the server
    sent it, its line breaks made spaces. Loading indexes where each line
    lies; each lookup and each append opens and closes the file. A line is
    read and decoded only when a request uses it; a later line wins. A line
    that no longer holds its key (the file was replaced), does not decode (a
    torn tail after a crash) or fails the parser's checks is a miss: the
    request goes to the network again. The directory must exist (the CLI's
    workdir does); a load (``input_file``) or append (``output_file``) that
    fails is a ConfigurationError naming the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: dict[bytes, tuple[int, int]] = {}  # key -> (offset, length)
        line, start = b"\n", 0
        if self.path.exists():
            with input_file(self.path), open(self.path, "rb") as fh:
                for line in fh:
                    self._index(line, start)
                    start += len(line)
        self._torn_tail = not line.endswith(b"\n")

    def _index(self, line: bytes, start: int) -> None:
        """Record that ``line`` lies at ``start``."""
        key, sep, _ = line.partition(b"\t")
        if sep:
            self._entries[key] = (start, len(line))

    @staticmethod
    def key(endpoint: str, body: dict[str, Any]) -> str:
        canonical = json.dumps([endpoint, body], sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def lookup(self, key: str, parse: Callable[[Any], Any]) -> Any | None:
        """``parse`` of the journaled payload for ``key``, or None on a miss."""
        result = None
        where = self._entries.get(key.encode("ascii"))
        if where is not None:
            try:
                with open(self.path, "rb") as fh:
                    fh.seek(where[0])
                    found, _, raw = fh.read(where[1]).partition(b"\t")
                if found != key.encode("ascii"):
                    raise ValueError("the line there holds another key")
                result = parse(_decode(raw.decode("utf-8")))
            except (OSError, ValueError, BackendError) as exc:
                logger.warning("journal %s: entry %s unusable (%s); requesting again",
                               self.path, key[:12], exc)
        with self._lock:
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
        return result

    def append(self, key: str, text: str) -> None:
        # A JSON string holds no raw line break, so every line break in the
        # text is whitespace between tokens. Re-encoding the payload instead
        # would cost more than the rest of the client's work on a call.
        raw = text.replace("\r", " ").replace("\n", " ")
        line = f"{key}\t{raw}\n".encode("utf-8")
        with self._lock, output_file(self.path):
            with open(self.path, "ab") as fh:
                fh.write(b"\n" * self._torn_tail + line)
                end = fh.tell()  # appends go to the end, wherever it is now
            self._torn_tail = False
            self._index(line, end - len(line))


class _ConnectionPool:
    """Lends out a fixed set of connections, one caller each; taking one is
    what bounds the requests in flight.

    A retry whose backoff has ended takes the next free connection ahead of
    every first attempt; first attempts are served in no particular order.
    Idle connections are reused last in, first out, so the warmest ones stay
    busy.
    """

    def __init__(self, connections: list[http.client.HTTPConnection]):
        self._ready = threading.Condition()
        self._idle = list(connections)
        self._retries_waiting = 0

    def take(self, retry: bool) -> http.client.HTTPConnection:
        # Retries go first: served in turn with first attempts, remote-flaky's
        # samples_per_s median fell 3.6% (11.26 -> 10.85 on 2 vCPUs).
        with self._ready:
            self._retries_waiting += retry
            try:
                self._ready.wait_for(lambda: self._idle and (retry or not self._retries_waiting))
            finally:
                self._retries_waiting -= retry
                if retry and not self._retries_waiting:
                    self._ready.notify_all()  # first attempts held back by retries
            return self._idle.pop()

    def give(self, connection: http.client.HTTPConnection) -> None:
        with self._ready:
            self._idle.append(connection)
            self._ready.notify_all()


class RemoteCompletionsBackend(Backend):
    """HTTP client for a completions endpoint with echo+logprobs support.

    Each request asks for ``top_k`` alternatives per position, 20 when it is
    None."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        api_key: str | None = None,
        top_k: int | None = None,
        parallelism: int = 4,
        timeout: float = 60.0,
        journal: str | Path | None = None,
    ):
        self.top_k = 20 if top_k is None else top_k
        for name, value in (("top_k", self.top_k), ("parallelism", parallelism)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.parallelism = parallelism
        self.journal = RequestJournal(journal) if journal is not None else None
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        url = urlsplit(endpoint)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        connect = http.client.HTTPConnection
        if url.scheme == "https":
            connect = partial(http.client.HTTPSConnection,
                              context=ssl.create_default_context())
        self._connections = [connect(url.hostname, url.port, timeout=timeout)
                             for _ in range(self.parallelism)]
        self._pool = _ConnectionPool(self._connections)

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    # -- transport -----------------------------------------------------------

    def _send(self, connection: http.client.HTTPConnection,
              data: bytes) -> http.client.HTTPResponse:
        connection.request("POST", self._target, data, self._headers)
        return connection.getresponse()

    def _exchange(self, data: bytes, retry: bool) -> tuple[int, bytes]:
        """POST ``data`` on a pooled connection, taken ahead of first
        attempts if ``retry``; the response's status and body. A connection
        that has opened (``sock`` set) stays open for the next call unless
        the server closes it."""
        connection = self._pool.take(retry)
        try:
            reused = connection.sock is not None
            try:
                response = self._send(connection, data)
            except (BrokenPipeError, ConnectionResetError):
                # http.client.RemoteDisconnected is a ConnectionResetError.
                if not reused:
                    raise
                # The server closed the idle keep-alive connection before any
                # response byte: send again, once, on a fresh one.
                connection.close()
                response = self._send(connection, data)
            return response.status, response.read()
        except BaseException:
            connection.close()  # leaves it idle, to open again on next use
            raise
        finally:
            self._pool.give(connection)

    def _post(self, body: dict[str, Any]) -> tuple[Any, str]:
        """The decoded payload of the server's answer, and its text."""
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("request %s body=%s auth=%s", self.endpoint, body,
                         "Bearer ***" if self.api_key else "none")
        data = json.dumps(body).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(1, _MAX_ATTEMPTS + 1):
            try:
                status, content = self._exchange(data, attempt > 1)
            except (OSError, http.client.HTTPException) as exc:
                # A refused or dropped connection, a timeout, and a response
                # cut off mid-body (IncompleteRead) alike.
                last_error = exc
            else:
                if status in _RETRYABLE_STATUS:
                    last_error = ProtocolError(f"retryable HTTP {status}", _excerpt(content))
                elif status != 200:
                    raise ProtocolError(f"HTTP {status}", _excerpt(content))
                else:
                    try:
                        text = content.decode(json.detect_encoding(content))
                        payload = _decode(text)
                    except ValueError as exc:
                        raise ProtocolError("response is not JSON", _excerpt(content)) from exc
                    if logger.isEnabledFor(logging.DEBUG):
                        logger.debug("response %s", str(payload)[:_EXCERPT_LIMIT * 4])
                    return payload, text
            if attempt < _MAX_ATTEMPTS:
                # The connection is back in the pool, so another sample's
                # request uses it during the backoff; the retry then goes
                # ahead of the requests that queued meanwhile.
                time.sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
        raise TransportError(f"backend unreachable: {last_error}", _MAX_ATTEMPTS)

    # -- payload parsing -------------------------------------------------------

    def _choice(self, payload: Any) -> dict:
        try:
            choice = payload["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                "payload has no choices[0]", str(payload)[:_EXCERPT_LIMIT]
            ) from exc
        if not isinstance(choice, dict):
            raise ProtocolError("choices[0] is not an object", str(choice)[:_EXCERPT_LIMIT])
        return choice

    def _logprobs(self, choice: dict, fields: tuple[str, ...]) -> list[list]:
        """The named per-token arrays of ``choice``, checked to be arrays of
        one length."""
        logprobs = choice.get("logprobs")
        if not isinstance(logprobs, dict):
            raise CapabilityError(
                "backend returned no 'logprobs' field; enable echo/logprobs support"
            )
        arrays = []
        for key in fields:
            if logprobs.get(key) is None:
                raise CapabilityError(f"backend logprobs lack the {key!r} field")
            if not isinstance(logprobs[key], list):
                raise ProtocolError(f"logprobs {key!r} is not an array")
            arrays.append(logprobs[key])
        if len({len(array) for array in arrays}) > 1:
            raise ProtocolError("logprobs arrays have mismatched lengths")
        for token in arrays[0]:
            if not isinstance(token, str):
                raise ProtocolError(f"token {str(token)[:_EXCERPT_LIMIT]!r} is not a string")
        return arrays

    def _distribution(
        self, token: str, token_logprob: Any, top: Any
    ) -> TokenDistribution:
        if not isinstance(top, dict):
            raise ProtocolError(f"missing top_logprobs for token {token!r}")
        try:
            realized = _number(token_logprob)
            alternatives = tuple((alternative, _number(logprob))
                                 for alternative, logprob in top.items())
        except ProtocolError as exc:
            raise ProtocolError(f"token {token!r}: {exc}") from exc
        try:
            return TokenDistribution(token_text=token, token_logprob=realized,
                                     top_alternatives=alternatives)
        except (NormalizationError, OverflowError) as exc:
            raise ProtocolError(f"backend distribution invalid: {exc}") from exc

    def _parse(self, payload: Any, prompt: str, params: GenerationParams,
               echo_from: int | None) -> GenerationResult:
        """The completion in ``payload``, the answer to ``prompt`` sent with
        ``params`` and, unless ``echo_from`` is None, with echo on."""
        choice = self._choice(payload)
        fields = ("tokens", "token_logprobs", "top_logprobs", "text_offset")
        tokens, token_logprobs, tops, *offsets = self._logprobs(
            choice, fields if echo_from is not None else fields[:3])
        echoed = []
        first_generated = 0  # with echo off, every returned token is generated
        if echo_from is not None:
            [offsets] = offsets
            if not all(type(offset) is int and offset >= before  # all() stops at a non-int
                       for before, offset in zip([0, *offsets], offsets)):
                raise ProtocolError(f"text_offset {str(offsets)[:_EXCERPT_LIMIT]} is not "
                                    "a non-decreasing list of character indices")
            first_generated = (bisect_left(offsets, len(prompt)) if params.max_tokens
                               else len(offsets))
            ends = [*offsets[1:first_generated], len(prompt)]
            for token, lp, top, offset, end in zip(tokens, token_logprobs, tops, offsets, ends):
                if offset < echo_from and min(end, offset + len(token)) <= echo_from:
                    continue  # entirely inside the context
                if lp is None or top is None:
                    if offset == 0:
                        # Sequence-initial token: no conditional distribution
                        # exists at the backend's begin-of-sequence position.
                        continue
                    raise ProtocolError(
                        f"null logprob data for scored token {token!r} at offset {offset}")
                echoed.append(self._distribution(token, lp, top))
            if not echoed:
                raise CapabilityError("backend produced no scorable positions for the text; "
                                      "it may be a single sequence-initial token")
        generated = []
        for token, lp, top in list(zip(tokens, token_logprobs, tops))[first_generated:]:
            if lp is None:
                raise ProtocolError(f"null token_logprob for generated token {token!r}")
            generated.append(self._distribution(token, lp, top))
        reason = choice.get("finish_reason")  # an unhashable value cannot be looked up
        finish = _FINISH_REASONS.get(reason if isinstance(reason, str) else None,
                                     FinishReason.ERROR)
        text = ""
        if params.max_tokens:  # a request for no tokens has no continuation to read
            text = choice.get("text")
            if not isinstance(text, str):
                raise ProtocolError("choice has no text")
            if echo_from is not None:
                if not text.startswith(prompt):
                    raise ProtocolError("echoed text does not start with the prompt")
                text = text[len(prompt):]
        if any(map(has_surrogate, (text, *tokens[first_generated:]))):
            raise ProtocolError("generated text holds an unpaired surrogate")
        return GenerationResult(text=text, tokens=tuple(generated),
                                finish_reason=finish, echoed=tuple(echoed))

    # -- Backend API -----------------------------------------------------------

    def complete(self, prompt: str, params: GenerationParams, *,
                 echo_from: int | None = None) -> GenerationResult:
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "logprobs": self.top_k,
            "echo": echo_from is not None,
        }
        if params.stop_sequences:
            body["stop"] = list(params.stop_sequences)
        if params.seed is not None:
            body["seed"] = params.seed
        parse = partial(self._parse, prompt=prompt, params=params, echo_from=echo_from)
        # A deterministic request is looked up in the journal first, and
        # journaled once it parsed.
        key = None
        if self.journal is not None and (params.temperature == 0 or params.seed is not None):
            key = RequestJournal.key(self.endpoint, body)
            result = self.journal.lookup(key, parse)
            if result is not None:
                return result
        payload, text = self._post(body)
        result = parse(payload)
        if key is not None:
            self.journal.append(key, text)
        return result
