"""Stub completions server for the benchmark's remote workloads.

Runs as its own process (``python3 stub.py --world world.json ...``) so that
its JSON work does not share the client's interpreter lock. It answers the
OpenAI-style ``/v1/completions`` protocol from the benchmark's n-gram world
with the same arithmetic as ``ambigkit``'s toy backend (greedy ties by
vocabulary order, seeded sampling with ``random.Random(seed)``), so in exact
truncation mode its checkpoints match the toy backend's byte for byte. Unlike
a real server it reports the first echoed token's distribution (conditioned
on the begin markers), as the toy backend does.

Every completions request sleeps ``DELAY_S``. Responses are memoised by
request body; the benchmark warms the memo with one untimed pass, so the
stub's own cost does not depend on the client under test.

Fault schedule: a request whose (prompt, echo) digest is listed as
transient gets HTTP 503 on its first attempt in a pass; one listed as
permanent gets 503 on every attempt.

Control endpoints (no delay): ``POST /control/reset`` starts a new pass
(zeroes counters and attempt counts), ``GET /control/stats`` returns the
pass's counters. On start the server prints ``PORT <n>`` on stdout; it exits
when its stdin closes, so it cannot outlive the benchmark process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_WORD = re.compile(r"\S+")
# Sleep per completions request. At 10 ms the host's CPU speed swings moved
# the remote workloads' samples_per_s by 9-12% IQR; at 40 ms a call is mostly
# waiting and the spread stays near 1-5%.
DELAY_S = 0.040


def request_key(prompt: str, echo: bool) -> str:
    """Digest naming a request in the fault schedule."""
    return hashlib.sha256(json.dumps([prompt, bool(echo)]).encode("utf-8")).hexdigest()


class BadRequest(Exception):
    pass


class NgramWorld:
    def __init__(self, doc: dict):
        self.vocabulary = doc["vocabulary"]
        self.index = {tok: i for i, tok in enumerate(self.vocabulary)}
        self.begin = doc["begin_marker"]
        self.end = doc["end_marker"]
        # context -> [(vocab index, token, p)] in vocabulary order, p > 0
        self.rows = {}
        for context, entries in doc["rows"].items():
            total = sum(w for _, w in entries)
            row = sorted((self.index[t], t, w / total) for t, w in entries if w > 0)
            self.rows[tuple(context.split())] = row

    def _row(self, history: list[str]):
        context = tuple(([self.begin, self.begin] + history)[-2:])
        row = self.rows.get(context)
        if row is None:
            raise BadRequest(f"context {' '.join(context)!r} is not in the world")
        return row

    @staticmethod
    def _top(row, k: int) -> dict[str, float]:
        ranked = sorted(row, key=lambda e: (-e[2], e[0]))[:k]
        return {tok: math.log(p) for _, tok, p in ranked}

    def _check(self, tokens: list[str]) -> None:
        for tok in tokens:
            if tok not in self.index:
                raise BadRequest(f"token {tok!r} is not in the vocabulary")

    def generate(self, prompt: str, max_tokens: int, temperature: float,
                 seed, stop: list[str], k: int):
        history = prompt.split()
        self._check(history)
        rng = random.Random(seed)
        tokens, logprobs, tops, offsets, pieces = [], [], [], [], []
        finish = "length"
        for _ in range(max_tokens):
            row = self._row(history)
            if temperature == 0:
                choice = max(row, key=lambda e: (e[2], -e[0]))
            else:
                weights = [p ** (1.0 / temperature) for _, _, p in row]
                draw = rng.random() * math.fsum(weights)
                acc, choice = 0.0, row[-1]
                for entry, w in zip(row, weights):
                    acc += w
                    if draw < acc:
                        choice = entry
                        break
            _, tok, p = choice
            if tok == self.end or tok in stop:
                finish = "stop"
                break
            piece = tok if not pieces else " " + tok
            offsets.append(len(prompt) + sum(len(x) for x in pieces))
            pieces.append(piece)
            tokens.append(piece)
            logprobs.append(math.log(p))
            tops.append(self._top(row, k))
            history.append(tok)
        text = "".join(pieces)
        return text, finish, {"tokens": tokens, "token_logprobs": logprobs,
                              "top_logprobs": tops, "text_offset": offsets}

    def echo(self, prompt: str, k: int):
        words = [(m.group(0), m.start()) for m in _WORD.finditer(prompt)]
        self._check([w for w, _ in words])
        tokens, logprobs, tops, offsets = [], [], [], []
        history: list[str] = []
        for word, offset in words:
            row = self._row(history)
            p = next((p for _, tok, p in row if tok == word), 0.0)
            if p <= 0.0:
                raise BadRequest(f"token {word!r} has zero probability")
            tokens.append(word)
            logprobs.append(math.log(p))
            tops.append(self._top(row, k))
            offsets.append(offset)
            history.append(word)
        return {"tokens": tokens, "token_logprobs": logprobs,
                "top_logprobs": tops, "text_offset": offsets}


class Stub:
    """Memo, counters and fault schedule shared by the handler threads."""

    def __init__(self, world: NgramWorld, transient: set[str], permanent: set[str]):
        self.world = world
        self.transient = transient
        self.permanent = permanent
        self.lock = threading.Lock()
        self.memo: dict[bytes, tuple] = {}
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[bytes, int] = {}
            self.answered: set[bytes] = set()
            self.stats = {"requests": 0, "repeats": 0, "tokens_generated": 0,
                          "tokens_scored": 0, "response_bytes": 0}

    def _compute(self, body: bytes) -> tuple:
        """(status, payload bytes, generated tokens, scored tokens, fault)."""
        try:
            req = json.loads(body)
            prompt = req["prompt"]
            echo = bool(req.get("echo", False))
            k = int(req.get("logprobs") or 0)
            key = request_key(prompt, echo)
            fault = ("permanent" if key in self.permanent
                     else "transient" if key in self.transient else None)
            if echo:
                if int(req.get("max_tokens", 0)) != 0:
                    raise BadRequest("echo scoring needs max_tokens 0")
                logprobs = self.world.echo(prompt, k)
                text, finish, generated = prompt, "length", 0
                scored = len(logprobs["tokens"])
            else:
                text, finish, logprobs = self.world.generate(
                    prompt, int(req["max_tokens"]), float(req.get("temperature", 1.0)),
                    req.get("seed"), list(req.get("stop") or []), k)
                generated, scored = len(logprobs["tokens"]), 0
        except (BadRequest, KeyError, TypeError, ValueError) as exc:
            return 400, json.dumps({"error": str(exc)}).encode(), 0, 0, None
        payload = {
            "object": "text_completion",
            "model": req.get("model", "stub"),
            "choices": [{"index": 0, "text": text, "logprobs": logprobs,
                         "finish_reason": finish}],
        }
        return 200, json.dumps(payload).encode(), generated, scored, fault

    def complete(self, body: bytes) -> tuple[int, bytes]:
        entry = self.memo.get(body)
        if entry is None:
            entry = self._compute(body)
            with self.lock:
                self.memo[body] = entry
        status, payload, generated, scored, fault = entry
        with self.lock:
            attempt = self.attempts.get(body, 0) + 1
            self.attempts[body] = attempt
            self.stats["requests"] += 1
            if fault == "permanent" or (fault == "transient" and attempt == 1):
                status, payload = 503, b'{"error": "overloaded"}'
            elif status == 200:
                if body in self.answered:
                    self.stats["repeats"] += 1
                self.answered.add(body)
                self.stats["tokens_generated"] += generated
                self.stats["tokens_scored"] += scored
            self.stats["response_bytes"] += len(payload)
        return status, payload


def make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, payload: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):
            if self.path == "/control/stats":
                with stub.lock:
                    payload = json.dumps(stub.stats).encode()
                self._send(200, payload)
            else:
                self._send(404, b"{}")

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/control/reset":
                stub.reset()
                self._send(200, b"{}")
            elif self.path == "/v1/completions":
                time.sleep(DELAY_S)
                self._send(*stub.complete(body))
            else:
                self._send(404, b"{}")

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", required=True, help="world.json written by world.py")
    parser.add_argument("--faults", default=None,
                        help='JSON file {"transient": [keys], "permanent": [keys]}')
    args = parser.parse_args()
    with open(args.world, encoding="utf-8") as fh:
        world = NgramWorld(json.load(fh))
    faults = {"transient": [], "permanent": []}
    if args.faults:
        with open(args.faults, encoding="utf-8") as fh:
            faults = json.load(fh)
    stub = Stub(world, set(faults["transient"]), set(faults["permanent"]))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub))
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    sys.exit(main())
