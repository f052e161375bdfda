"""Remote completions-style HTTP backend.

Speaks the JSON completions protocol served by mainstream open inference
servers: the request carries ``{model, prompt, max_tokens, temperature,
logprobs, echo, stop, seed}`` and each choice returns per-token arrays
``tokens``, ``token_logprobs``, ``top_logprobs`` and ``text_offset``.
Scoring sends the concatenated context+text with ``echo=true`` and
``max_tokens=0``; a returned token belongs to the scored text when its
character span extends past the context (a straddling token counts as text).

Requests go out over the standard library's ``http.client``, on a pool of
up to ``parallelism`` keep-alive connections. Transport failures (a refused
or dropped connection, a timeout, a response cut off mid-body) are retried
with exponential backoff; protocol errors never are. Servers cannot expose a
distribution for the very first token of a sequence (its ``token_logprob`` is
null), so scoring with an empty context silently skips that position; every
other null is a protocol error.

JSON has no non-finite numbers, but decoders accept the bare constants. A
payload holding ``NaN`` or ``Infinity`` is a protocol error; ``-Infinity`` is
accepted only as a ``top_logprobs`` value (an alternative of probability 0),
and that alternative is dropped.

Given a journal file, the backend sends each deterministic request (scoring,
and greedy or seeded generation) at most once; see ``RequestJournal``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import queue
import ssl
import threading
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

from .backend import (
    NORMALIZATION_TOLERANCE,
    Backend,
    FinishReason,
    GenerationParams,
    GenerationResult,
    ScoringResult,
    TokenDistribution,
)
from .errors import (
    BackendError,
    CapabilityError,
    NormalizationError,
    ProtocolError,
    TransportError,
)

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
    body, which holds the model, prompt and every decoding parameter; the API
    key stays out of it. Each line of the file is ``<key>\\t<response>``, the
    response body as the server sent it, its line breaks made spaces. Loading
    keeps every line's raw text and decodes a line only when a request uses
    it; a later line wins over an earlier one. A line that does not decode (a
    torn tail after a crash) or no longer passes the parser's checks counts as
    a miss, and the request goes to the network again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._file = None
        self._entries: dict[str, str] = {}
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        self._torn_tail = bool(data) and not data.endswith(b"\n")
        for line in data.split(b"\n"):
            key, sep, raw = line.partition(b"\t")
            if sep:
                try:
                    self._entries[key.decode("ascii")] = raw.decode("utf-8")
                except UnicodeDecodeError:
                    continue  # a torn tail that cut a character

    @staticmethod
    def key(endpoint: str, body: dict[str, Any]) -> str:
        canonical = json.dumps([endpoint, body], sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def lookup(self, key: str, parse: Callable[[Any], Any]) -> Any | None:
        """``parse`` of the journaled payload for ``key``, or None on a miss."""
        result = None
        raw = self._entries.get(key)
        if raw is not None:
            try:
                result = parse(_decode(raw))
            except (ValueError, BackendError) as exc:
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
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "a", encoding="utf-8", newline="\n")
                if self._torn_tail:
                    self._file.write("\n")
            self._file.write(f"{key}\t{raw}\n")
            self._file.flush()
            self._entries[key] = raw

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class RemoteCompletionsBackend(Backend):
    """HTTP client for a completions endpoint with echo+logprobs support."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        api_key: str | None = None,
        top_k: int = 20,
        parallelism: int = 4,
        timeout: float = 60.0,
        journal: str | Path | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.top_k = top_k
        self.timeout = timeout
        self.parallelism = max(1, parallelism)
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
        # One slot per connection. Taking a slot is what bounds the requests
        # in flight; last in, first out keeps the warmest connections busy.
        self._slots: queue.LifoQueue = queue.LifoQueue()
        for connection in self._connections:
            self._slots.put(connection)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
        for connection in self._connections:
            connection.close()

    # -- transport -----------------------------------------------------------

    def _send(self, connection: http.client.HTTPConnection,
              data: bytes) -> http.client.HTTPResponse:
        connection.request("POST", self._target, data, self._headers)
        return connection.getresponse()

    def _exchange(self, data: bytes) -> tuple[int, bytes]:
        """POST ``data`` on a pooled connection; the response's status and
        body. A connection that has opened (``sock`` set) stays open for the
        next call unless the server closes it."""
        connection = self._slots.get()
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
            self._slots.put(connection)

    def _post(self, body: dict[str, Any]) -> tuple[Any, str]:
        """The decoded payload of the server's answer, and its text."""
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("request %s body=%s auth=%s", self.endpoint, body,
                         "Bearer ***" if self.api_key else "none")
        data = json.dumps(body).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(1, _MAX_ATTEMPTS + 1):
            try:
                status, content = self._exchange(data)
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
                time.sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
        raise TransportError(f"backend unreachable: {last_error}", _MAX_ATTEMPTS)

    def _complete(self, body: dict[str, Any], parse: Callable[[Any], Any],
                  deterministic: bool) -> Any:
        """Send ``body`` and ``parse`` the payload. A deterministic request is
        looked up in the journal first, and journaled once it parsed."""
        key = None
        if deterministic and self.journal is not None:
            key = RequestJournal.key(self.endpoint, body)
            result = self.journal.lookup(key, parse)
            if result is not None:
                return result
        payload, text = self._post(body)
        result = parse(payload)
        if key is not None:
            self.journal.append(key, text)
        return result

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
            alternatives = {alternative: logprob for alternative, value in top.items()
                            if (logprob := _number(value)) != -math.inf}
        except ProtocolError as exc:
            raise ProtocolError(f"token {token!r}: {exc}") from exc
        if realized == -math.inf:
            raise ProtocolError(f"backend distribution invalid: token {token!r} has logprob -inf")
        listed = alternatives.get(token)
        if listed is not None and not abs(listed - realized) <= NORMALIZATION_TOLERANCE:
            raise ProtocolError(
                f"backend distribution invalid: token {token!r} has logprob {realized} "
                f"but {listed} in its own top_logprobs entry"
            )
        ranked = sorted(alternatives.items(), key=lambda kv: (-kv[1], kv[0]))
        try:
            tail = max(0.0, 1.0 - math.fsum(math.exp(lp) for _, lp in ranked))
            return TokenDistribution(
                token_text=token,
                token_logprob=realized,
                top_alternatives=tuple(ranked),
                tail_mass=tail,
            )
        except (NormalizationError, OverflowError) as exc:
            raise ProtocolError(f"backend distribution invalid: {exc}") from exc

    def _parse_generation(self, payload: Any) -> GenerationResult:
        choice = self._choice(payload)
        tokens, token_logprobs, tops = self._logprobs(
            choice, ("tokens", "token_logprobs", "top_logprobs"))
        distributions = []
        for token, lp, top in zip(tokens, token_logprobs, tops):
            if lp is None:
                raise ProtocolError(f"null token_logprob for generated token {token!r}")
            distributions.append(self._distribution(token, lp, top))
        reason = choice.get("finish_reason")
        if not isinstance(reason, str):
            reason = None  # an unhashable value cannot be looked up
        finish = _FINISH_REASONS.get(reason, FinishReason.ERROR)
        text = choice.get("text")
        if not isinstance(text, str):
            raise ProtocolError("choice has no text")
        return GenerationResult(
            text=text, tokens=tuple(distributions), finish_reason=finish
        )

    def _parse_scoring(self, payload: Any, boundary: int) -> ScoringResult:
        choice = self._choice(payload)
        tokens, token_logprobs, tops, offsets = self._logprobs(
            choice, ("tokens", "token_logprobs", "top_logprobs", "text_offset"))
        distributions = []
        for token, lp, top, offset in zip(tokens, token_logprobs, tops, offsets):
            if type(offset) is not int or offset < 0:
                raise ProtocolError(f"text_offset {str(offset)[:_EXCERPT_LIMIT]!r} "
                                    f"of token {token!r} is not a character index")
            if offset + len(token) <= boundary:
                continue  # entirely inside the context
            if lp is None or top is None:
                if offset == 0:
                    # Sequence-initial token: no conditional distribution
                    # exists at the backend's begin-of-sequence position.
                    continue
                raise ProtocolError(
                    f"null logprob data for scored token {token!r} at offset {offset}"
                )
            distributions.append(self._distribution(token, lp, top))
        if not distributions:
            raise CapabilityError(
                "backend produced no scorable positions for the text; it may "
                "be a single sequence-initial token"
            )
        return ScoringResult(tokens=tuple(distributions))

    # -- Backend API -----------------------------------------------------------

    def generate(self, prompt: str, params: GenerationParams) -> GenerationResult:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "logprobs": self.top_k,
            "echo": False,
        }
        if params.stop_sequences:
            body["stop"] = list(params.stop_sequences)
        if params.seed is not None:
            body["seed"] = params.seed
        deterministic = params.temperature == 0 or params.seed is not None
        return self._complete(body, self._parse_generation, deterministic)

    def score(self, text: str, context: str = "") -> ScoringResult:
        if not text:
            raise ValueError("text must be non-empty")
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": context + text,
            "max_tokens": 0,
            "temperature": 0,
            "logprobs": self.top_k,
            "echo": True,
        }
        boundary = len(context)
        return self._complete(
            body, lambda payload: self._parse_scoring(payload, boundary), True
        )
