"""Remote completions-style HTTP backend.

Speaks the JSON completions protocol served by mainstream open inference
servers: the request carries ``{model, prompt, max_tokens, temperature,
logprobs, echo, stop, seed}`` and each choice returns per-token arrays
``tokens``, ``token_logprobs``, ``top_logprobs`` and ``text_offset``.
Scoring sends the concatenated context+text with ``echo=true`` and
``max_tokens=0``; a returned token belongs to the scored text when its
character span extends past the context (a straddling token counts as text).

Transport failures are retried with exponential backoff; protocol errors
never are. Servers cannot expose a distribution for the very first token of
a sequence (its ``token_logprob`` is null), so scoring with an empty context
silently skips that position; every other null is a protocol error.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from typing import Any

import requests

from .backend import (
    Backend,
    BackendInfo,
    FinishReason,
    GenerationParams,
    GenerationResult,
    ScoringResult,
    TokenDistribution,
)
from .errors import (
    CapabilityError,
    NormalizationError,
    ProtocolError,
    TransportError,
)

logger = logging.getLogger(__name__)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_EXCERPT_LIMIT = 200


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
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.top_k = top_k
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._session = session or requests.Session()
        self._semaphore = threading.Semaphore(max(1, parallelism))
        self.info = BackendInfo(kind="remote", parallelism=max(1, parallelism))

    # -- transport -----------------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _post(self, body: dict[str, Any]) -> dict:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("request %s body=%s auth=%s", self.endpoint, body,
                         "Bearer ***" if self.api_key else "none")
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._semaphore:
                    response = self._session.post(
                        self.endpoint, json=body, headers=self._headers(),
                        timeout=self.timeout,
                    )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
            else:
                if response.status_code in _RETRYABLE_STATUS:
                    last_error = ProtocolError(
                        f"retryable HTTP {response.status_code}",
                        response.text[:_EXCERPT_LIMIT],
                    )
                elif response.status_code != 200:
                    raise ProtocolError(
                        f"HTTP {response.status_code}", response.text[:_EXCERPT_LIMIT]
                    )
                else:
                    try:
                        payload = response.json()
                    except ValueError as exc:
                        raise ProtocolError(
                            "response is not JSON", response.text[:_EXCERPT_LIMIT]
                        ) from exc
                    if logger.isEnabledFor(logging.DEBUG):
                        logger.debug("response %s", str(payload)[:_EXCERPT_LIMIT * 4])
                    return payload
            if attempt < self.max_attempts:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
        raise TransportError(f"backend unreachable: {last_error}", self.max_attempts)

    # -- payload parsing -------------------------------------------------------

    def _choice(self, payload: dict) -> dict:
        try:
            return payload["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                "payload has no choices[0]", str(payload)[:_EXCERPT_LIMIT]
            ) from exc

    def _logprobs(self, choice: dict) -> dict:
        logprobs = choice.get("logprobs")
        if not isinstance(logprobs, dict):
            raise CapabilityError(
                "backend returned no 'logprobs' field; enable echo/logprobs support"
            )
        for key in ("tokens", "token_logprobs", "top_logprobs"):
            if key not in logprobs:
                raise CapabilityError(f"backend logprobs lack the {key!r} field")
        return logprobs

    def _distribution(
        self, token: str, token_logprob: float, top: dict[str, float] | None
    ) -> TokenDistribution:
        if top is None:
            raise ProtocolError(f"missing top_logprobs for token {token!r}")
        ranked = sorted(top.items(), key=lambda kv: (-kv[1], kv[0]))
        tail = max(0.0, 1.0 - math.fsum(math.exp(lp) for _, lp in ranked))
        try:
            return TokenDistribution(
                token_text=token,
                token_logprob=float(token_logprob),
                top_alternatives=tuple((t, float(lp)) for t, lp in ranked),
                tail_mass=tail,
            )
        except NormalizationError as exc:
            raise ProtocolError(f"backend distribution invalid: {exc}") from exc

    # -- Backend API -----------------------------------------------------------

    def generate(self, prompt: str, params: GenerationParams) -> GenerationResult:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "logprobs": params.top_k_logprobs,
            "echo": False,
        }
        if params.stop_sequences:
            body["stop"] = list(params.stop_sequences)
        if params.seed is not None:
            body["seed"] = params.seed
        choice = self._choice(self._post(body))
        logprobs = self._logprobs(choice)
        tokens = logprobs["tokens"]
        token_logprobs = logprobs["token_logprobs"]
        tops = logprobs["top_logprobs"]
        if not (len(tokens) == len(token_logprobs) == len(tops)):
            raise ProtocolError("logprobs arrays have mismatched lengths")
        distributions = []
        for token, lp, top in zip(tokens, token_logprobs, tops):
            if lp is None:
                raise ProtocolError(f"null token_logprob for generated token {token!r}")
            distributions.append(self._distribution(token, lp, top))
        finish = {
            "stop": FinishReason.STOP,
            "length": FinishReason.LENGTH,
        }.get(choice.get("finish_reason"), FinishReason.ERROR)
        text = choice.get("text")
        if text is None:
            raise ProtocolError("choice has no text")
        return GenerationResult(
            text=text, tokens=tuple(distributions), finish_reason=finish
        )

    def score(self, text: str, context: str = "") -> ScoringResult:
        if not text:
            raise ValueError("text must be non-empty")
        prompt = context + text
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": 0,
            "temperature": 0,
            "logprobs": self.top_k,
            "echo": True,
        }
        choice = self._choice(self._post(body))
        logprobs = self._logprobs(choice)
        offsets = logprobs.get("text_offset")
        if offsets is None:
            raise CapabilityError("backend logprobs lack the 'text_offset' field")
        tokens = logprobs["tokens"]
        token_logprobs = logprobs["token_logprobs"]
        tops = logprobs["top_logprobs"]
        if not (len(tokens) == len(token_logprobs) == len(tops) == len(offsets)):
            raise ProtocolError("logprobs arrays have mismatched lengths")
        boundary = len(context)
        distributions = []
        for token, lp, top, offset in zip(tokens, token_logprobs, tops, offsets):
            end = offset + len(token)
            if end <= boundary:
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
